import dataclasses
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
    """A subclass of a built-in model's class with its complex MGF and the
    base class's tilted CF, so its CF diagnostic runs through the generic
    per-element fallback."""
    def build(model):
        twin = type("Custom" + type(model).__name__, (type(model),), {
            "log_abs_tilted_cf": st.CumulantModel.log_abs_tilted_cf,
            "mgf": staticmethod(complex_mgf(model)),
        })
        return twin(**dataclasses.asdict(model))
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
