"""The generator's training population, written out as rows.

With dyadic rates every probability of the training joint of
(y, u, v, z, d) is a multiple of 2^-11, so the joint is exactly a finite
table of rows: each of the 32 value combinations repeated in proportion
to its probability.  Plug-in frequency tables fitted on those rows are
the population conditionals, so weights computed from them carry no
sampling noise, and contracting them with the exact feature law gives
the population resampled law up to rounding.

The law is restated here from the scenario description rather than read
from the package, so the package is checked against it.
"""

from __future__ import annotations

from itertools import product

import numpy as np

SCALE = 2**12

# p, q_c, qp_c, r0, r1, f10, f11: all multiples of 1/8 or coarser.
DYADIC_RATES = {
    "p": 0.5,
    "q_c": 0.75,
    "qp_c": 0.625,
    "r0": 0.25,
    "r1": 0.75,
    "f10": 0.75,
    "f11": 0.875,
}


def _bernoulli(rate: float, value: int) -> float:
    return rate if value == 1 else 1.0 - rate


def training_rows(cfg) -> dict[str, np.ndarray]:
    """Columns y, u, v, z, d of the training (conf) joint, each value
    combination repeated SCALE times its probability.

    Y ~ Bernoulli(p); U and V follow Y with strengths q_c and qp_c; Z
    follows Y with rates r1 / r0; the care level D follows (Y, U) with
    P(D=1 | Y=1, U=u) = f1u and P(D=1 | Y=0, U=u) = 1 - f1u.
    """
    names = ("y", "u", "v", "z", "d")
    counts, values = [], []
    for y, u, v, z, d in product((0, 1), repeat=5):
        care = cfg.f11 if u else cfg.f10
        prob = (
            _bernoulli(cfg.p, y)
            * _bernoulli(cfg.q_c if y else 1.0 - cfg.q_c, u)
            * _bernoulli(cfg.qp if y else 1.0 - cfg.qp, v)
            * _bernoulli(cfg.r1 if y else cfg.r0, z)
            * _bernoulli(care if y else 1.0 - care, d)
        )
        count = prob * SCALE
        if count != int(count):
            raise ValueError(f"rates are not dyadic at scale {SCALE}: {prob!r}")
        counts.append(int(count))
        values.append((y, u, v, z, d))
    rows = np.repeat(np.array(values, dtype=np.int64), counts, axis=0)
    return {name: rows[:, k] for k, name in enumerate(names)}
