"""Certified Laplace-approximation error bounds for generalized linear
inverse problems with a first-order smoothing operator.

Pipeline: operators (forward map and design matrix), eigensolver
(Sturm-Liouville eigenpairs of the operator's squared singular structure),
model (exponential-family data generation), posterior (MAP and Laplace
fit), certification (weighted third-derivative bounds, TV certificates and
their tail claims), validation (empirical TV estimates and outside masses).
"""

__version__ = "0.1.0"
