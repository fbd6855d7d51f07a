"""A model's parameters as one flat vector and back, used only by the
test suite's finite-difference and equality checks."""

import numpy as np

from causalboot.model import Model, ModelError, _stack, _unstack


def params_vector(model: Model) -> np.ndarray:
    """Every parameter in field order, each flattened row-major."""
    return np.concatenate([p.ravel() for p in _stack([model])])


def replace_params(model: Model, vector: np.ndarray) -> Model:
    """A model shaped like ``model`` holding ``params_vector``'s layout."""
    vector = np.asarray(vector, dtype=float)
    layout = _stack([model])
    sizes = [p.size for p in layout]
    if len(vector) != sum(sizes):
        raise ModelError("parameter vector has the wrong length")
    parts = np.split(vector, np.cumsum(sizes)[:-1])
    stacked = [part.reshape(p.shape) for part, p in zip(parts, layout)]
    return _unstack(type(model), stacked, 0)
