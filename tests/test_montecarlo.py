import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerchain import montecarlo
from layerchain.cli import main
from layerchain.graphs import cycle, path
from layerchain.kernels import bridge_reach_table, build_core
from layerchain.monotonicity import connection_polynomial
from layerchain.montecarlo import (
    _CHUNK,
    SamplingError,
    _ConfigDraw,
    _Tables,
    _config_cdf,
    _fixes_partition,
    _top_down_batch,
    connection_estimates,
    estimate_connection,
    initial_pattern_fit,
    sample_layer_chain,
)
from layerchain.patterns import Pattern, STAR
from test_kernels import small_graphs

HALF = Fraction(1, 2)
FIT_PROBABILITIES = (Fraction(3, 10), HALF, Fraction(7, 10))
DESCENT_PROBABILITIES = (1 / 20, 3 / 10, 1 / 2, 7 / 10, 4 / 5)

tables_of = functools.lru_cache(maxsize=32)(_Tables)


def _per_sample_descent(tables, p, size, rng):
    """The reference descent, one sample at a time: round c draws one
    uniform per sample still pending, in sample order, and maps it to a
    config by binary search over the CDF; a sample stops at its first
    constant layer, and its configs are composed upward from there."""
    cdf = _config_cdf(tables.graph.bond_count, p)
    descents = [[] for _ in range(size)]
    pending = list(range(size))
    while pending:
        for i, u in zip(pending, rng.random(len(pending))):
            descents[i].append(int(np.searchsorted(cdf, u, side="right")))
        pending = [i for i in pending if tables.core_const[descents[i][-1]] < 0]
    states = []
    for configs in descents:
        state = tables.core_const[configs[-1]]
        for config in reversed(configs[:-1]):
            state = tables.core_step[state, config]
        states.append(state)
    return np.array(states), sum(map(len, descents))


def _reference_session(graph, p, targets, samples, seed):
    """The successes of connection_estimates by the reference chunk loop:
    per-sample descents, binary-search draws, the 2-D lumped_step and the
    3-D bridge_reach_table read at states - 1, masked where the infection
    died."""
    tables = tables_of(graph)
    k = graph.vertex_count
    reach = bridge_reach_table(graph, tables.lumped[1:], build_core(graph).orbits.states)
    rng_chain, rng_upper, rng_vertical = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    chain_cdf, vertical_cdf = _config_cdf(graph.bond_count, p), _config_cdf(k, p)
    layers = sorted({n for _, n in targets})
    masks_by_n = {n: np.zeros(1 << k, dtype=np.int64) for n in layers}
    for start in range(0, samples, montecarlo._CHUNK):
        size = min(montecarlo._CHUNK, samples - start)
        core0, _ = _per_sample_descent(tables, p, size, rng_chain)
        states = tables.core_to_initial[core0]
        upper, _ = _per_sample_descent(tables, p, size, rng_upper)
        for n in range(layers[-1] + 1):
            if n:
                configs = np.searchsorted(chain_cdf, rng_chain.random(size), side="right")
                states = tables.lumped_step[states, configs]
            if n in masks_by_n:
                configs = np.searchsorted(vertical_cdf, rng_vertical.random(size), side="right")
                masks = reach[states - 1, upper, configs]
                masks_by_n[n] += np.bincount(np.where(states > 0, masks, 0), minlength=1 << k)
    every_mask = np.arange(1 << k)
    return [int(masks_by_n[n][every_mask >> v & 1 == 1].sum()) for v, n in targets]


def _exact_connection(graph, pipeline, vertex, n, p):
    _, stationary, lumped, initial = pipeline
    scale = Fraction(stationary.normalizer(p)) ** 2
    value = connection_polynomial(graph, vertex, n, initial, lumped, stationary)(p)
    return float(Fraction(value) / scale)


def _within_four_sigma(estimate, exact, samples):
    return abs(estimate - exact) <= 4 * math.sqrt(exact * (1 - exact) / samples)


def test_chain_starts_infected_at_origin(c2, c3):
    for graph in (c2, c3):
        for seed in (0, 1, 17):
            chain = sample_layer_chain(graph, HALF, 3, seed)
            assert len(chain) == 4
            assert graph.origin in chain[0].infected_vertices


def test_sampler_reproducible(c2):
    a = sample_layer_chain(c2, Fraction(3, 10), 5, seed=99)
    b = sample_layer_chain(c2, Fraction(3, 10), 5, seed=99)
    assert a == b
    stats_a = estimate_connection(c2, HALF, 1, 2, 2000, seed=5)
    stats_b = estimate_connection(c2, HALF, 1, 2, 2000, seed=5)
    assert stats_a.to_dict() == stats_b.to_dict()
    assert stats_a.generator == "numpy-pcg64"


def test_rejects_degenerate_p(c2):
    # the last two lie inside (0, 1) but round to 1.0 and 0.0 as floats
    for p in (0, 1, Fraction(7, 5), 1 - Fraction(1, 10**20), Fraction(1, 10**400)):
        with pytest.raises(SamplingError) as info:
            sample_layer_chain(c2, p, 1, seed=0)
        assert info.value.code == "probability-range"
        with pytest.raises(SamplingError) as info:
            estimate_connection(c2, p, 0, 0, 10, seed=0)
        assert info.value.code == "probability-range"


def test_small_p_concentrates_on_lone_origin_infection(c2):
    # exact initial weight of the all-singleton origin-infected state at
    # p = 1/100 is (1-p)(1-p^2)/(1-p^2+p^3) > 0.99
    fit = initial_pattern_fit(c2, Fraction(1, 100), 2000, seed=3)
    lone = str(Pattern([(STAR, 0), (1,)]))
    index = fit["states"].index(lone)
    assert fit["counts"][index] / fit["sample_count"] > 0.9


def test_chi_square_fit_does_not_reject(c2):
    fit = initial_pattern_fit(c2, HALF, 20000, seed=11)
    assert fit["pvalue"] > 1e-4
    assert sum(fit["counts"]) == 20000


def test_scalar_and_batch_samplers_agree(c2, c3):
    """Two independent sampler implementations: frequencies of the initial
    pattern from the scalar bond-level path stay within Monte Carlo error of
    the exact probabilities used to validate the batch path."""
    samples = 1500
    for graph, p in ((c2, HALF), (c3, Fraction(7, 10))):
        counts = {}
        for seed in range(samples):
            first = sample_layer_chain(graph, p, 0, seed=10_000 + seed)[0]
            counts[str(first)] = counts.get(str(first), 0) + 1
        fit = initial_pattern_fit(graph, p, 50_000, seed=23)
        for state, probability in zip(fit["states"], fit["probabilities"]):
            observed = counts.get(state, 0) / samples
            if probability > 0:
                margin = 5 * (probability * (1 - probability) / samples) ** 0.5
                assert abs(observed - probability) < margin, (graph.describe(), state)
            else:
                assert observed == 0


@settings(max_examples=24)  # each example solves the exact initial distribution
@given(small_graphs(), st.sampled_from(FIT_PROBABILITIES))
@example(cycle(4), FIT_PROBABILITIES[0])
@example(cycle(4), FIT_PROBABILITIES[1])
@example(cycle(4), FIT_PROBABILITIES[2])
@example(path(3), FIT_PROBABILITIES[0])
@example(path(3), FIT_PROBABILITIES[1])
@example(path(3), FIT_PROBABILITIES[2])
def test_initial_patterns_fit_exact_distribution(graph, p):
    fit = initial_pattern_fit(graph, p, 20_000, seed=41)
    assert fit["pvalue"] > 1e-4, (graph.describe(), p, fit["chi2"])


def test_config_cdf_takes_every_draw_below_one():
    """Every uniform in [0, 1) draws a config, and the guide-table draw is
    binary search: the same index at the CDF entries and just below them,
    at every bucket edge, at the ends of [0, 1) and on a random batch.  The
    guide table has 16 buckets per config up to 2^20 buckets, so past 2^16
    configs several configs share a bucket."""
    # at width 3 and p = 0.3 the summed probabilities round to 0.9999999999999997
    below_one = np.nextafter(1.0, 0)
    batch = np.random.default_rng(5).random(2000)
    for width in (*range(10), 16, 17, 18):
        for p in (0.01, 0.05, 0.3, 0.5, 0.7, 0.99):
            cdf = _config_cdf(width, p)
            assert np.all(np.diff(cdf) >= 0)
            last = np.searchsorted(cdf, below_one, side="right")
            assert last < len(cdf)
            # the all-open config has probability at least p**width; below
            # the 2**-53 spacing of the uniforms it may round away
            if p**width > 2.0**-52:
                assert last == len(cdf) - 1
            assert np.searchsorted(cdf, 0.0, side="right") == 0
            draw = _ConfigDraw(width, p)
            buckets = int(draw.scale)
            assert buckets == len(draw.guide) == min(16 << width, 1 << 20)
            draws = np.concatenate(
                [
                    [0.0, below_one],
                    cdf,
                    np.nextafter(cdf, 0),
                    np.arange(buckets) / buckets,
                    batch,
                ]
            )
            draws = draws[draws < 1.0]
            expected = np.searchsorted(cdf, draws, side="right")
            assert np.array_equal(draw(draws), expected), (width, p)


@settings(max_examples=40)
@given(small_graphs(), st.sampled_from(DESCENT_PROBABILITIES), st.integers(0, 3))
@example(cycle(3), 7 / 10, 0)
@example(path(4), 1 / 20, 1)
@example(path(1), 1 / 2, 2)  # every layer is constant: no round past layer 0
def test_descent_matches_per_sample_reference(graph, p, seed):
    """The vectorised descent takes the same uniforms as the per-sample
    loop, reads the same layers, and leaves the generator where it does."""
    tables = tables_of(graph)
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    states, layers_read = _top_down_batch(tables, 300, rng, _ConfigDraw(graph.bond_count, p))
    expected_states, expected_layers = _per_sample_descent(tables, p, 300, reference)
    assert np.array_equal(states, expected_states)
    assert layers_read == expected_layers
    assert np.array_equal(rng.random(4), reference.random(4))


@settings(max_examples=40)
@given(
    small_graphs(),
    st.sampled_from(DESCENT_PROBABILITIES),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4),
    st.integers(1, 70),
)
@example(cycle(3), 7 / 10, 0, [(0, 0), (1, 2), (2, 3)], 70)
@example(path(1), 1 / 2, 1, [(0, 0), (0, 2)], 33)
def test_session_matches_reference_chunk_loop(graph, p, seed, targets, samples):
    """connection_estimates counts the same successes as the reference
    chunk loop, over chunks of 16 samples and a last, partial one."""
    targets = [(v % graph.vertex_count, n) for v, n in targets]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_CHUNK", 16)
        stats = connection_estimates(graph, p, targets, samples, seed)
        expected = _reference_session(graph, p, targets, samples, seed)
    assert [s.successes for s in stats] == expected, (graph.describe(), p, seed, targets)


@settings(max_examples=30)
@given(small_graphs())
def test_constant_layers_are_raw_bond_cuts(graph):
    """A config's one-layer map on the partitions is constant exactly when
    its open vertical bonds all lie in one component of its open horizontal
    bonds, the raw-bond test of the scalar sampler."""
    tables = tables_of(graph)
    constant = tables.core_const >= 0
    for config in range(1 << graph.bond_count):
        assert constant[config] == _fixes_partition(graph, config), (graph.describe(), config)


def test_descent_finishes_near_p_one(c3, pipeline_c3, capsys):
    """The vertical cut lies about 10^6 layers down at p = 99/100 on the
    triangle; both descents stop far above it and stay exact."""
    p = Fraction(99, 100)
    samples = 300
    counts = {}
    for seed in range(samples):
        first = sample_layer_chain(c3, p, 2, seed=seed)[0]
        counts[str(first)] = counts.get(str(first), 0) + 1
    exact = initial_pattern_fit(c3, p, 100, seed=0)
    for state, probability in zip(exact["states"], exact["probabilities"]):
        observed = counts.get(state, 0) / samples
        margin = 5 * (probability * (1 - probability) / samples) ** 0.5
        assert abs(observed - probability) <= margin, (state, observed, probability)
    targets = [(v, n) for v in range(3) for n in range(3)]
    for stats in connection_estimates(c3, p, targets, 2000, seed=5):
        vertex, n = stats.meta["vertex"], stats.meta["layer"]
        exact = _exact_connection(c3, pipeline_c3, vertex, n, p)
        assert _within_four_sigma(stats.estimate, exact, 2000), (vertex, n, stats.estimate, exact)
    argv = ["mc", "--graph", "cycle:3", "--p", "99/100", "--vertex", "1", "--n", "2"]
    assert main([*argv, "--samples", "100", "--seed", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert _within_four_sigma(data["estimate"], _exact_connection(c3, pipeline_c3, 1, 2, p), 100)
    fit = initial_pattern_fit(c3, Fraction(95, 100), 20_000, seed=7)
    assert fit["pvalue"] > 1e-4, fit["chi2"]


def test_scan_depth_matches_geometric_mean(c2, c3):
    """The layers read per sample are geometric in the probability that a
    layer's one-layer map is constant, summed exactly over those configs."""
    samples = 30_000
    for graph, p in ((c2, Fraction(7, 10)), (c3, Fraction(1, 2))):
        fit = initial_pattern_fit(graph, p, samples, seed=29)
        const = sum(
            p ** config.bit_count() * (1 - p) ** (graph.bond_count - config.bit_count())
            for config in np.flatnonzero(tables_of(graph).core_const >= 0).tolist()
        )
        mean = 1 / float(const)
        spread = math.sqrt((1 - float(const)) / samples) * mean
        assert abs(fit["mean_layers_scanned"] - mean) < 5 * spread, (graph.describe(), mean)


@pytest.mark.parametrize("session", ["connection_estimates", "initial_pattern_fit"])
def test_session_memory_does_not_grow_with_samples(c3, session):
    """A session streams its samples in chunks: past four chunks its peak
    traced allocation stays below a bound that a 65k-sample array of
    per-sample states would pass, and the last, partial chunk counts."""
    samples = 4 * _CHUNK + 7
    targets = [(0, 0), (1, 1), (2, 3)]

    def run(size):
        if session == "connection_estimates":
            return connection_estimates(c3, Fraction(7, 10), targets, size, seed=3)
        return initial_pattern_fit(c3, Fraction(7, 10), size, seed=3)

    run(10)  # the first fit imports scipy, which is no part of the session
    tracemalloc.start()
    try:
        result = run(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    if session == "connection_estimates":
        assert result[0].successes == samples
    else:
        assert sum(result["counts"]) == samples


def test_estimate_certain_event(c2):
    stats = estimate_connection(c2, HALF, 0, 0, 500, seed=1)
    assert stats.estimate == 1.0
    assert stats.std_error == 0.0
    assert stats.successes == 500


def test_connection_estimates_share_session(c3):
    targets = [(v, n) for v in range(3) for n in range(3)]
    stats = connection_estimates(c3, Fraction(3, 10), targets, 4000, seed=7)
    assert len(stats) == len(targets)
    for s, (v, n) in zip(stats, targets):
        assert s.meta["vertex"] == v and s.meta["layer"] == n
        assert 0 <= s.estimate <= 1


def test_connection_estimates_without_targets(c3):
    # no table is built: path:13 is past the enumeration guard
    assert connection_estimates(path(13), HALF, [], 10, seed=0) == []
    cases = [
        (0, 10, 0, "probability-range"),
        (HALF, 0, 0, "samples-invalid"),
        (HALF, 10, -1, "seed-invalid"),
    ]
    for p, samples, seed, code in cases:
        with pytest.raises(SamplingError) as info:
            connection_estimates(c3, p, [], samples, seed)
        assert info.value.code == code


def test_estimates_track_exact_values(c2, pipeline_c2):
    p = Fraction(3, 10)
    stats = connection_estimates(c2, p, [(1, 0), (1, 1), (0, 1)], 30000, seed=13)
    for s in stats:
        v, n = s.meta["vertex"], s.meta["layer"]
        exact = _exact_connection(c2, pipeline_c2, v, n, p)
        deviation = abs(s.estimate - exact)
        assert deviation < 4 * s.std_error, (v, n, s.estimate, exact)


def test_invalid_target_rejected(c2):
    with pytest.raises(SamplingError):
        estimate_connection(c2, HALF, 5, 0, 10, seed=0)
    with pytest.raises(SamplingError):
        estimate_connection(c2, HALF, 0, -1, 10, seed=0)


def test_expected_count_tracks_exact_value(c2, pipeline_c2):
    from layerchain.monotonicity import expected_infected_polynomial

    stationary = pipeline_c2[1]
    scale = Fraction(stationary.normalizer(HALF)) ** 2
    exact = float(Fraction(expected_infected_polynomial(c2, 1)(HALF)) / scale)
    stats = connection_estimates(c2, HALF, [(0, 1), (1, 1)], 50_000, seed=31)
    estimate = sum(s.estimate for s in stats)
    spread = sum(s.std_error for s in stats)
    assert abs(estimate - exact) < 4 * spread


def test_import_leaves_scipy_unloaded():
    """scipy serves only the chi-square tail of initial_pattern_fit, so
    importing the package and its command line does not load it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys, layerchain, layerchain.cli; print('scipy' in sys.modules)"
    command = [sys.executable, "-c", code]
    out = subprocess.run(command, env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
