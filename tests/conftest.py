import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import sharptail as st
from oracles import complex_mgf


@pytest.fixture(scope="session")
def gaussian():
    return st.GaussianModel(1.0)


@pytest.fixture(scope="session")
def bernoulli():
    return st.BinomialModel(1, 0.5)


@pytest.fixture(scope="session")
def custom_twin():
    """Build a CustomModel with a built-in model's callbacks and complex MGF,
    so its CF diagnostic runs through the generic per-element fallback."""
    def build(model):
        return st.CustomModel(
            cgf=model.f, cgf1=model.f1, cgf2=model.f2,
            cgf3=model.f3, mgf=complex_mgf(model), tilted=model.tilted_batch,
        )
    return build


@pytest.fixture(scope="session")
def unit_weight():
    return st.ConstantWeight(1.0)


@pytest.fixture(scope="session")
def uniform_weight():
    return st.UniformWeight(0.0, 1.0)


@pytest.fixture(scope="session")
def reference_curves(gaussian, uniform_weight):
    """Gaussian summands, U(0,1) weights, theta_star = 1: J = (0, 1/3)."""
    return st.DeterministicCurves(uniform_weight, gaussian, 1.0)


@pytest.fixture(scope="session")
def reference_grid(reference_curves):
    """The reference study's deterministic side: n = 10^4, a in {0.1, 0.2, 0.3}."""
    return st.fclt_grid(reference_curves, 10_000, [0.1, 0.2, 0.3])


@pytest.fixture(scope="session")
def reference_fluctuations(reference_grid):
    """2000 replicas of the reference configuration at n = 10^4.

    Shared between the fluctuation tests and the acceptance suite; this is
    the most expensive fixture in the suite (about a minute).
    """
    return [st.sample_fluctuations(reference_grid, r, 2024) for r in range(2000)]
