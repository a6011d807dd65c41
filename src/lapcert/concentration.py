"""Mass outside U(D0, r) = {||D0 (theta - theta_hat)|| <= r} from a fresh importance draw.

Only perfbench's large_n probe needs this entry: the tail claims are
`certification.Certificate` properties, checked on `validate`'s own draw.
"""
from __future__ import annotations

import numpy as np

from .posterior import LaplaceFit, Problem
from .validation import TVEstimate, _importance_pass


def empirical_outside_mass(fit: LaplaceFit, prob: Problem, D0_sq: np.ndarray,
                           r: float, n_samples: int = 2000, seed: int = 0) -> TVEstimate:
    """The importance pass over its own draw (stream 11) with U(D0, r) as its
    one region: `.outside[0]` is the `validation.OutsideMass` of U(D0, r)."""
    if n_samples < 1000:
        raise ValueError("n_samples >= 1000 required")
    return _importance_pass(fit, prob, n_samples, seed, [(D0_sq, r)], stream=11)
