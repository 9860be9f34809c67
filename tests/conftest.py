import pytest
from hypothesis import settings

# Property tests run the same examples every time and within a fixed budget.
settings.register_profile(
    "layerchain", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("layerchain")

from layerchain.analysis import initial_distribution, stationary_distribution
from layerchain.graphs import cycle
from layerchain.kernels import build_lumped_kernel, build_reduced_kernel


def _pipeline(graph):
    """Per-state reduced kernel, stationary, lumped kernel, initial distribution."""
    reduced = build_reduced_kernel(graph)
    stationary = stationary_distribution(reduced)
    return reduced, stationary, build_lumped_kernel(graph), initial_distribution(stationary, graph)


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
    return _pipeline(c2)


@pytest.fixture(scope="session")
def pipeline_c3(c3):
    return _pipeline(c3)
