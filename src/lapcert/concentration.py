"""Mass outside U(D0, r) = {||D0 (theta - theta_hat)|| <= r} from a fresh importance draw.

Only perfbench's large_n probe needs this entry: the tail claims are
`certification.Certificate` properties, checked on `validate`'s own draw.
It is one call of `validation.tv_importance` on stream 11.
"""
from __future__ import annotations

import numpy as np

from .posterior import LaplaceFit, Problem
from .validation import TVEstimate, tv_importance


def empirical_outside_mass(fit: LaplaceFit, prob: Problem, D0_sq: np.ndarray,
                           r: float, n_samples: int = 2000, seed: int = 0) -> TVEstimate:
    """`tv_importance` over its own draw (stream 11) with U(D0, r) as its one
    region: `.outside[0]` is U(D0, r)'s (fraction, ci_low, ci_high)."""
    return tv_importance(fit, prob, n_samples, seed, [(D0_sq, r)], stream=11)
