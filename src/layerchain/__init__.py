"""Exact verification of layer monotonicity for Bernoulli percolation on G x Z.

The package builds the layer-pattern Markov chain of a finite base graph,
computes its transition kernels as exact polynomial matrices in the bond
probability p, and certifies monotonicity statements as polynomial sign
conditions, with a Monte Carlo sampler as an independent cross-check.
"""

from .algebra import (
    CHANGES_SIGN,
    IDENTICALLY_ZERO,
    Interval,
    NEGATIVE,
    NONNEGATIVE,
    POSITIVE,
    Polynomial,
    SignCertificate,
    certify_sign,
    root_count,
)
from .graphs import Graph, automorphisms, cartesian_product, load_graph, make_builtin
from .patterns import (
    DAGGER,
    Pattern,
    all_connected_pattern,
    all_singletons_pattern,
    delete_infection,
    enumerate_patterns,
    is_infected,
    lump,
)
from .kernels import (
    Orbits,
    PolyMatrix,
    build_full_kernel,
    build_lumped_kernel,
    build_reduced_kernel,
    step_pattern,
)
from .analysis import (
    ExtremalReport,
    PolyVector,
    estimate_decay_rate,
    extremal_constants,
    extremal_step_bound,
    initial_distribution,
    reachable,
    stationary_distribution,
)
from .monotonicity import (
    ConjectureCertificate,
    Engine,
    OnsetCertificate,
    connection_polynomial,
    degree_bound_report,
    expected_infected_polynomial,
    matrix_onset,
    vector_onset,
    verify_conjecture,
    verify_expected_count_monotonicity,
)
from .montecarlo import SampleStats, estimate_connection, initial_pattern_fit, sample_layer_chain

__version__ = "0.1.0"
