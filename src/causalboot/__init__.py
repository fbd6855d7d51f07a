"""Causal bootstrapping: confounder-aware resampling for training data.

The pipeline, end to end: describe how a dataset was acquired as a
causal graph (`graph`), check that the feature law under a forced label
is identifiable and derive its estimand (`identify`), estimate the
plug-in conditionals (`estimate`), resample the data so the spurious
label-confounder dependence disappears (`bootstrap`), and measure what
that buys under bias shift with a built-in generator (`simulate`),
small classifiers (`model`), and an experiment grid (`harness`).
"""

from .bootstrap import (
    BootstrapError,
    MethodId,
    ResampleConfig,
    WeightTable,
    cb_resample,
    cb_weights,
    da_resample,
    select_features,
)
from .errors import CausalBootError
from .estimate import (
    EstimateError,
    KernelSpec,
    ZeroSupportError,
    silverman_bandwidth,
)
from .graph import (
    CausalGraph,
    GraphCycleError,
    GraphError,
    GraphParseError,
    ScenarioId,
    ancestors,
    d_separated,
    descendants,
    mutilate,
    parse_graph,
    scenario_graph,
    topological_order,
)
from .harness import (
    ExperimentSpec,
    HarnessError,
    ResultRow,
    parse_spec_text,
    resolved_spec_text,
    run_experiment,
    write_results,
)
from .identify import (
    Estimand,
    EstimandError,
    Identified,
    Unidentifiable,
    estimand_to_text,
    identify,
    latent_project,
)
from .model import (
    LinearModel,
    MlpModel,
    ModelError,
    TrainConfig,
    auc,
    loss_and_grad,
    predict_proba,
    train,
    train_many,
)
from .simulate import (
    Dataset,
    SimConfig,
    SimulateError,
    TestRegime,
    exact_interventional,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapError",
    "CausalBootError",
    "CausalGraph",
    "Dataset",
    "Estimand",
    "EstimandError",
    "EstimateError",
    "ExperimentSpec",
    "GraphCycleError",
    "GraphError",
    "GraphParseError",
    "HarnessError",
    "Identified",
    "KernelSpec",
    "LinearModel",
    "MethodId",
    "MlpModel",
    "ModelError",
    "ResampleConfig",
    "ResultRow",
    "ScenarioId",
    "SimConfig",
    "SimulateError",
    "TestRegime",
    "TrainConfig",
    "Unidentifiable",
    "WeightTable",
    "ZeroSupportError",
    "ancestors",
    "auc",
    "cb_resample",
    "cb_weights",
    "d_separated",
    "da_resample",
    "descendants",
    "estimand_to_text",
    "exact_interventional",
    "identify",
    "latent_project",
    "loss_and_grad",
    "mutilate",
    "parse_graph",
    "parse_spec_text",
    "predict_proba",
    "resolved_spec_text",
    "run_experiment",
    "scenario_graph",
    "select_features",
    "silverman_bandwidth",
    "simulate",
    "topological_order",
    "train",
    "train_many",
    "write_results",
]
