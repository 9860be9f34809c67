import pytest
from hypothesis import settings

# Property tests run the same examples every time and within a fixed budget.
settings.register_profile(
    "layerchain", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("layerchain")

from layerchain.graphs import cycle
from layerchain.kernels import build_lumped_kernel, build_reduced_kernel
from layerchain.analysis import initial_distribution, stationary_distribution


@pytest.fixture(scope="session")
def c2():
    return cycle(2)


@pytest.fixture(scope="session")
def c3():
    return cycle(3)


@pytest.fixture(scope="session")
def c4():
    return cycle(4)


@pytest.fixture(scope="session")
def pipeline_c2(c2):
    """Reduced kernel, stationary, lumped kernel, initial distribution for C2."""
    reduced = build_reduced_kernel(c2)
    stationary = stationary_distribution(reduced)
    lumped = build_lumped_kernel(c2)
    initial = initial_distribution(stationary, c2)
    return reduced, stationary, lumped, initial


@pytest.fixture(scope="session")
def pipeline_c3(c3):
    reduced = build_reduced_kernel(c3)
    stationary = stationary_distribution(reduced)
    lumped = build_lumped_kernel(c3)
    initial = initial_distribution(stationary, c3)
    return reduced, stationary, lumped, initial
