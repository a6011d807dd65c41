import os

from lapcert.__main__ import BLAS_VARS

# BLAS on one thread, as the `lapcert` command runs it, before numpy loads:
# the goldens are byte-exact and a parallel BLAS reduction moves last bits
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))

import numpy as np
import pytest
from hypothesis import settings

from lapcert.eigensolver import cached_solve
from lapcert.model import TruthSpec, exp_family, generate
from lapcert.operators import VOLTERRA, CoefficientPair, assemble_design
from lapcert.posterior import Problem, map_solve

# property tests draw the same examples on every run: a fixed seed, no example database
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def python_env(**extra) -> dict:
    """The environment of a test's `python` subprocess: this process's, updated by extra,
    with src first on PYTHONPATH, so the child imports the lapcert under test."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


# the three coefficient pairs exercised throughout the suite
SPEC_CORPUS = (
    VOLTERRA,
    CoefficientPair((1.0, 0.5), (0.1,)),
    CoefficientPair((1.0, 0.0, 0.25), (0.2, 0.1)),
)


@pytest.fixture(scope="session")
def eig_cache(tmp_path_factory):
    """Eigen cache of this test session: every entry is solved by the code under test."""
    return str(tmp_path_factory.mktemp("eigcache"))


@pytest.fixture(scope="session")
def volterra_eig(eig_cache):
    return cached_solve(VOLTERRA, 4096, 50, eig_cache)


@pytest.fixture(scope="session")
def volterra_eig_small(eig_cache):
    return cached_solve(VOLTERRA, 2048, 30, eig_cache)


@pytest.fixture(scope="session")
def corpus_eigs(eig_cache):
    return [cached_solve(s, 4096, 50, eig_cache) for s in SPEC_CORPUS]


def make_problem(eig, family="poisson", n=500, p=4, gamma=2.0, seed=1,
                 truth=None):
    fam = exp_family(family)
    ds = generate(eig, fam, truth or TruthSpec(p_star=8), n=n, seed=seed)
    des = assemble_design(eig, n, p)
    return Problem(design=des, data=ds, family=fam, gamma=gamma, eig=eig)


@pytest.fixture(scope="session")
def poisson_fit(volterra_eig):
    prob = make_problem(volterra_eig, "poisson", n=500, p=4)
    return prob, map_solve(prob)


@pytest.fixture(scope="session")
def gaussian_fit(volterra_eig):
    prob = make_problem(volterra_eig, "gaussian", n=500, p=2)
    return prob, map_solve(prob)
