"""Independent Monte Carlo verification of the exact engine.

Sampling is perfect (unbiased), by backward coupling (coupling from the
past, Propp and Wilson 1996).  Scanning layers downward from layer 0, some
layer a.s. has a constant one-layer map: it sends every partition of the
layer below to the same partition, as when its open vertical bonds all lie
in one component of its horizontal bonds (a vertical cut, with every
vertical bond closed, is one such layer).  If layer c is the first one, the
partition at layer 0 is f_1(...f_{c-1}(const_c)) whatever lies below, so
replaying the layers above it upward yields an exact draw of the stationary
layer partition, with no truncation bias.  The infection is attached at the
origin's block and the chain continued upward with fresh layers.

The batch path drives the same construction through precomputed successor
tables and inverse-CDF draws of whole layer configurations, which keeps
100k-replica runs fast; the scalar path simulates raw bonds directly.  A
guide table over the CDF finds each configuration in a few array passes:
the same draws as binary search, so seeded results do not depend on it.  A
batch session runs in chunks of _CHUNK samples, so its memory does not
grow with the sample count; each of its random streams runs on from one
chunk to the next.  Within a chunk the descent reads layer 0 for every
sample and carries only the indices of the samples still pending below
it, and each layer of the chain is read with flat gathers from the
tables, whose row 0 is the absorbed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CodedError
from .graphs import Graph, closure, neighbours_of
from .kernels import (
    bridge_reach_table,
    build_core,
    lumped_state_list,
    step_pattern,
    successor_table,
)
from .monotonicity import Engine
from .patterns import (
    Pattern,
    all_singletons_pattern,
    attach_infection,
    lump,
)

GENERATOR_NAME = "numpy-pcg64"


class SamplingError(CodedError):
    """Invalid Monte Carlo parameters."""


@dataclass
class SampleStats:
    """Point estimate of a Bernoulli probability with its standard error."""

    sample_count: int
    successes: int
    estimate: float
    std_error: float
    generator: str
    seed: int
    meta: dict = field(default_factory=dict)

    @staticmethod
    def from_counts(successes: int, samples: int, seed: int, **meta) -> "SampleStats":
        estimate = successes / samples
        std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
        return SampleStats(samples, successes, estimate, std_error, GENERATOR_NAME, seed, meta)

    def to_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "successes": self.successes,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "generator": self.generator,
            "seed": self.seed,
            **self.meta,
        }


def _check_p(p) -> Fraction:
    p = Fraction(p)
    # the sampler draws at float(p), which can round to 0 or 1
    if not (0 < p < 1 and 0 < float(p) < 1):
        raise SamplingError("probability-range", "sampling requires float(p) inside (0, 1)")
    return p


def _check_run(samples: int, seed: int) -> None:
    if samples < 1:
        raise SamplingError("samples-invalid", f"sample count must be positive, got {samples}")
    if seed < 0:
        raise SamplingError("seed-invalid", f"seed must be nonnegative, got {seed}")


# ---------------------------------------------------------------------------
# Scalar sampler: raw bonds, full patterns.
# ---------------------------------------------------------------------------


def _draw_config(rng: np.random.Generator, width: int, p: float) -> int:
    bits = rng.random(width) < p
    config = 0
    for i, bit in enumerate(bits):
        if bit:
            config |= 1 << i
    return config


def _fixes_partition(graph: Graph, config: int) -> bool:
    """Whether one layer's bonds send every partition below to the same one:
    its open vertical bonds all lie in one component of its open horizontal
    bonds (with none open, the layer is a vertical cut)."""
    verticals = [v for v in graph.vertices if config >> (graph.edge_count + v) & 1]
    if not verticals:
        return True
    neighbours: list[list[int]] = [[] for _ in graph.vertices]
    for index, (u, v) in enumerate(graph.edges):
        if config >> index & 1:
            neighbours[u].append(v)
            neighbours[v].append(u)
    return set(verticals) <= closure(verticals[:1], neighbours_of(neighbours))


def sample_layer_chain(graph: Graph, p, n: int, seed: int) -> list[Pattern]:
    """One exact draw of the layer patterns X_0..X_n.

    Layers from 0 downward are generated until one fixes the partition
    above it (_fixes_partition), then replayed upward from the
    all-singletons state (that layer's own bonds first); the result at
    layer 0 is an unbiased stationary sample, infected at the origin's block.
    """
    p = _check_p(p)
    pf = float(p)
    rng = np.random.default_rng(seed)
    width = graph.bond_count
    descent = []
    while True:
        config = _draw_config(rng, width, pf)
        descent.append(config)
        if _fixes_partition(graph, config):
            break
    state = all_singletons_pattern(graph.vertex_count)
    for config in reversed(descent):
        state = step_pattern(graph, state, config)
    current = attach_infection(state, graph.origin)
    chain = [current]
    for _ in range(n):
        current = step_pattern(graph, current, _draw_config(rng, width, pf))
        chain.append(current)
    return chain


# ---------------------------------------------------------------------------
# Batch sampler: precomputed tables, inverse-CDF layer draws.  The draws go
# through a guide table and equal binary search over the CDF.
# ---------------------------------------------------------------------------

# Samples per chunk of a session, which bounds its work arrays whatever the
# sample count.
_CHUNK = 1 << 14


class _Tables:
    """Structural tables of one graph shared by all batch runs.

    lumped_step[s, z] is the lumped state that lumped state s steps to under
    config z, and reach[s, u, z] the bitmask of bridge_reach_table for lumped
    state s below the core partition u and vertical config z.  Row 0 of both
    is the absorbed state, with the infection dead: it steps to itself and
    reaches no vertex.  A session reads them with flat takes on their ravels.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        core = build_core(graph)  # every partition its own orbit, with its table
        partitions = core.orbits.states
        self.lumped = lumped_state_list(partitions)
        core_index = {s: i for i, s in enumerate(partitions)}
        lumped_index = {s: i for i, s in enumerate(self.lumped)}
        self.core_step = core.table.columns(core_index.__getitem__)
        # the state every source steps to under a config, or -1 where the
        # step depends on the source
        first = self.core_step[0]
        self.core_const = np.where((self.core_step == first).all(axis=0), first, -1)
        infected = self.lumped[1:]
        lumped_table = successor_table(graph, infected).columns(
            lambda y: lumped_index[lump(y)]
        )
        self.lumped_step = np.concatenate(
            [np.zeros((1, 1 << graph.bond_count), dtype=np.int32), lumped_table]
        )
        self.core_to_initial = np.array(
            [lumped_index[attach_infection(w, graph.origin)] for w in partitions],
            dtype=np.int64,
        )
        reach = bridge_reach_table(graph, infected, partitions)
        self.reach = np.concatenate([np.zeros_like(reach[:1]), reach])


def _config_cdf(width: int, p: float) -> np.ndarray:
    """Inverse-CDF table of width-bit configs for searchsorted(side="right")."""
    sizes = np.bitwise_count(np.arange(1 << width)).astype(float)
    probs = p**sizes * (1.0 - p) ** (width - sizes)
    cdf = np.cumsum(probs)
    # rounding can leave the total just below 1; no uniform draw in [0, 1)
    # may fall past the last config
    cdf[-1] = max(cdf[-1], 1.0)
    return cdf


# The guide table's bucket cap: its tables stay within 9 MiB however many
# bonds a layer has (16 buckets per config would take about 300 MiB at the
# 21-bond guard), and up to 2^16 configs keep 16 buckets each.
_MAX_BUCKETS = 1 << 20


class _ConfigDraw:
    """Inverse-CDF draws of width-bit configs through a guide table.

    A draw maps a uniform u in [0, 1) to searchsorted(cdf, u, side="right")
    over the _config_cdf table: the same config as binary search.  [0, 1)
    is cut into m buckets, 16 per config up to _MAX_BUCKETS, so m is a power
    of two, the bucket k = floor(u * m) is exact and k / m <= u.  guide[k],
    the answer at k / m, is then the answer for every u in a bucket that no
    CDF entry splits, and never past the answer in the others.  Draws in
    split buckets take fixed passes of index += cdf[index] <= u, one more
    than the configs per bucket (two up to 2^16 configs, where the buckets
    are not capped); the few still short after them (configs crowded into
    one bucket at skewed p) go through binary search.
    """

    def __init__(self, width: int, p: float):
        self.cdf = _config_cdf(width, p)
        buckets = min(16 * len(self.cdf), _MAX_BUCKETS)
        edges = np.arange(buckets + 1) / buckets
        self.scale = float(buckets)
        self.passes = -(-len(self.cdf) // buckets) + 1
        self.guide = np.searchsorted(self.cdf, edges[:-1], side="right")
        self.split = np.searchsorted(self.cdf, edges[1:], side="left") > self.guide

    def __call__(self, draws: np.ndarray) -> np.ndarray:
        cdf = self.cdf
        # the float-to-integer cast truncates, which is floor for u >= 0
        buckets = np.empty(len(draws), dtype=np.intp)
        np.multiply(draws, self.scale, out=buckets, casting="unsafe")
        index = self.guide.take(buckets)
        pending = np.flatnonzero(self.split.take(buckets))
        if pending.size:
            u = draws[pending]
            found = index[pending]
            for _ in range(self.passes):
                found += cdf[found] <= u
            short = np.flatnonzero(cdf[found] <= u)
            if short.size:
                found[short] = np.searchsorted(cdf, u[short], side="right")
            index[pending] = found
        return index


def _top_down_batch(
    tables: _Tables, size: int, rng: np.random.Generator, draw: _ConfigDraw
) -> tuple[np.ndarray, int]:
    """size exact stationary partition samples; returns (core indices, layers read).

    Each round draws one unconditioned config per pending sample, from one
    uniform each in sample order; round c reads the c-th layer down from
    layer 0, layer 0 itself included.
    A sample stops at its first layer c whose one-layer map f_c is constant;
    its state is f_1(...f_{c-1}(const_c)), whatever lies below, so the
    recorded configs above it are replayed upward.  layers read counts every
    (sample, layer) pair drawn, the constant layers included.
    Layer 0 is read for the whole chunk at once, and most samples stop
    there; the later rounds and the replay carry only the indices of the
    samples still pending.
    """
    configs = draw(rng.random(size))
    states = tables.core_const.take(configs)
    pending = np.flatnonzero(states < 0)
    configs = configs[pending]
    history = []
    layers_read = size
    while pending.size:
        history.append((pending, configs))
        layers_read += pending.size
        configs = draw(rng.random(pending.size))
        fixed = tables.core_const.take(configs)
        states[pending] = fixed
        kept = np.flatnonzero(fixed < 0)
        pending, configs = pending[kept], configs[kept]
    flat_step = tables.core_step.ravel()
    width = tables.core_step.shape[1]
    for indices, configs in reversed(history):
        cells = np.multiply(states[indices], width, dtype=np.intp)
        cells += configs
        states[indices] = flat_step.take(cells)
    return states, layers_read


def _chunk_sizes(samples: int):
    for start in range(0, samples, _CHUNK):
        yield min(_CHUNK, samples - start)


def connection_estimates(
    graph: Graph,
    p,
    targets: Sequence[tuple[int, int]],
    samples: int,
    seed: int,
) -> list[SampleStats]:
    """Monte Carlo estimates of the origin-to-(v, n) connection probabilities.

    One sampling session is shared by all targets: the layer chain is
    advanced to the largest requested n, and each connection event combines
    the layer pattern with an independent stationary partition above it and
    fresh vertical bonds, exactly as the connection event decomposes.  The
    session runs in chunks of _CHUNK samples and keeps, per requested n, only
    a histogram of the reached vertex masks.
    """
    p = _check_p(p)
    pf = float(p)
    _check_run(samples, seed)
    for vertex, n in targets:
        if vertex not in graph.vertices or n < 0:
            raise SamplingError("target-invalid", f"invalid target ({vertex}, {n})")
    if not targets:
        return []
    tables = _Tables(graph)
    rng_chain, rng_upper, rng_vertical = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    draw = _ConfigDraw(graph.bond_count, pf)
    vertical = _ConfigDraw(graph.vertex_count, pf)
    layers = sorted({n for _, n in targets})
    # masks_by_n[n][m]: samples whose layer-n vertices linked to the infection
    # through the layer above are the bitmask m, 0 once the infection died
    k = graph.vertex_count
    masks_by_n = {n: np.zeros(1 << k, dtype=np.int64) for n in layers}
    flat_step, flat_reach = tables.lumped_step.ravel(), tables.reach.ravel()
    width, uppers = tables.lumped_step.shape[1], tables.reach.shape[1]
    for size in _chunk_sizes(samples):
        core0, _ = _top_down_batch(tables, size, rng_chain, draw)
        states = tables.core_to_initial[core0]
        upper, _ = _top_down_batch(tables, size, rng_upper, draw)
        for n in range(layers[-1] + 1):
            if n:
                cells = np.multiply(states, width, dtype=np.intp)
                cells += draw(rng_chain.random(size))
                states = flat_step.take(cells)
            if n in masks_by_n:
                cells = np.multiply(states, uppers, dtype=np.intp)
                cells += upper
                cells <<= k
                cells += vertical(rng_vertical.random(size))
                masks_by_n[n] += np.bincount(flat_reach.take(cells), minlength=1 << k)

    every_mask = np.arange(1 << k)
    results = []
    for vertex, n in targets:
        successes = int(masks_by_n[n][every_mask >> vertex & 1 == 1].sum())
        results.append(
            SampleStats.from_counts(
                successes,
                samples,
                seed,
                p=str(p),
                vertex=vertex,
                layer=n,
            )
        )
    return results


def estimate_connection(
    graph: Graph, p, vertex: int, n: int, samples: int, seed: int
) -> SampleStats:
    """Monte Carlo estimate of the origin-to-(vertex, n) connection probability."""
    return connection_estimates(graph, p, [(vertex, n)], samples, seed)[0]


def initial_pattern_fit(graph: Graph, p, samples: int, seed: int) -> dict:
    """Chi-square goodness of fit of sampled initial patterns against the
    exact initial distribution, sampled in chunks of _CHUNK; also reports
    mean_layers_scanned, the mean number of layers the descent reads per
    sample, down to and including the first constant layer: a geometric
    draw whose expectation is 1/P(a layer's one-layer map is constant)."""
    p = _check_p(p)
    pf = float(p)
    _check_run(samples, seed)
    tables = _Tables(graph)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draw = _ConfigDraw(graph.bond_count, pf)
    counts = np.zeros(len(tables.lumped), dtype=np.int64)
    layers_read = 0
    for size in _chunk_sizes(samples):
        core0, read = _top_down_batch(tables, size, rng, draw)
        counts += np.bincount(tables.core_to_initial[core0], minlength=len(tables.lumped))
        layers_read += read

    initial = Engine(graph).initial
    if tuple(initial.states) != tuple(tables.lumped):
        raise AssertionError("state order mismatch between sampler and engine")
    probabilities = [float(value) for value in initial.evaluate(p)]

    statistic = 0.0
    dof = -1
    for observed, probability in zip(counts, probabilities):
        if probability == 0.0:
            if observed:
                raise AssertionError("sampled a state of exact probability zero")
            continue
        expected = samples * probability
        statistic += (observed - expected) ** 2 / expected
        dof += 1
    # here, so that importing the package does not load scipy
    from scipy.stats import chi2

    # with one possible state (a one-vertex graph) the fit cannot reject
    pvalue = float(chi2.sf(statistic, dof)) if dof else 1.0
    return {
        "chi2": statistic,
        "dof": dof,
        "pvalue": pvalue,
        "counts": counts.tolist(),
        "probabilities": probabilities,
        "states": [str(s) for s in tables.lumped],
        "mean_layers_scanned": layers_read / samples,
        "sample_count": samples,
        "seed": seed,
        "p": str(p),
        "generator": GENERATOR_NAME,
    }
