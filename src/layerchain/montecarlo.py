"""Independent Monte Carlo verification of the exact engine.

Sampling is perfect (unbiased): scanning layers downward from layer 0,
some layer a.s. has all its |V| vertical bonds closed.  That vertical cut
disconnects everything below it, so the cut layer's pattern is fixed by its
own horizontal bonds alone, a renewal point as in coupling from the past.
Replaying the generated layers upward from the cut therefore yields an
exact draw of the stationary layer partition, with no truncation bias; the
cut lies 1/(1-p)^|V| layers down on average.  The infection is attached at
the origin's block and the chain continued upward with fresh layers.

The batch path drives the same construction through precomputed successor
tables and inverse-CDF draws of whole layer configurations, which keeps
100k-replica runs fast; the scalar path simulates raw bonds directly.  A
guide table over the CDF finds each configuration in a few array passes:
the same draws as binary search, so seeded results do not depend on it.
The cut is one layer whose one-layer map is constant; any such layer, say
one whose horizontal bonds join every vertex, fixes the partitions above it
whatever lies below (backward coupling, Propp and Wilson 1996).  So the
batch descent reads each sample's layers from layer 0 down only to the
first constant map or the cut, and replays those.  It takes the uniforms
the full replay from the cut would take, jumping through the generator's
stream, so its samples and the generator's final state are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CodedError
from .graphs import Graph
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


def sample_layer_chain(graph: Graph, p, n: int, seed: int) -> list[Pattern]:
    """One exact draw of the layer patterns X_0..X_n.

    Layers from 0 downward are generated until one has all its vertical
    bonds closed, then replayed upward from the all-singletons state (the
    cut layer's own bonds first); the result at layer 0 is an unbiased
    stationary sample, infected at the origin's block.
    """
    p = _check_p(p)
    pf = float(p)
    rng = np.random.default_rng(seed)
    width = graph.bond_count
    descent = []
    while True:
        config = _draw_config(rng, width, pf)
        descent.append(config)
        if config >> graph.edge_count == 0:
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


class _Tables:
    """Structural tables of one graph shared by all batch runs."""

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
        self.reach = bridge_reach_table(graph, infected, partitions)
        self.isolated_core = core_index[all_singletons_pattern(graph.vertex_count)]


def _config_cdf(width: int, p: float, skip: int = 0) -> np.ndarray:
    """Inverse-CDF table of width-bit configs for searchsorted(side="right");
    the first skip configs get probability zero and the rest are rescaled."""
    sizes = np.array([z.bit_count() for z in range(1 << width)], dtype=float)
    probs = p**sizes * (1.0 - p) ** (width - sizes)
    if skip:
        probs[:skip] = 0.0
        probs /= probs.sum()
    cdf = np.cumsum(probs)
    # rounding can leave the total just below 1; no uniform draw in [0, 1)
    # may fall past the last config
    cdf[-1] = max(cdf[-1], 1.0)
    return cdf


class _ConfigDraw:
    """Inverse-CDF draws of width-bit configs through a guide table.

    A draw maps a uniform u in [0, 1) to searchsorted(cdf, u, side="right")
    over the _config_cdf table: the same config as binary search.  [0, 1)
    is cut into m buckets, 16 per config, so m is a power of two, the bucket
    k = floor(u * m) is exact and k / m <= u.  guide[k], the answer at k / m,
    is then the answer for every u in a bucket that no CDF entry splits, and
    never past the answer in the others.  Draws in split buckets take two
    fixed passes of index += cdf[index] <= u; the few still short after them
    (configs crowded into one bucket at skewed p) go through binary search.
    """

    def __init__(self, width: int, p: float, skip: int = 0):
        self.cdf = _config_cdf(width, p, skip)
        buckets = 16 * len(self.cdf)
        edges = np.arange(buckets + 1) / buckets
        self.scale = float(buckets)
        self.guide = np.searchsorted(self.cdf, edges[:-1], side="right")
        self.split = np.searchsorted(self.cdf, edges[1:], side="left") > self.guide

    def __call__(self, draws: np.ndarray) -> np.ndarray:
        cdf = self.cdf
        # the float-to-integer cast truncates, which is floor for u >= 0
        buckets = np.empty(len(draws), dtype=np.intp)
        np.multiply(draws, self.scale, out=buckets, casting="unsafe")
        index = self.guide[buckets]
        pending = np.flatnonzero(self.split[buckets])
        if pending.size:
            u = draws[pending]
            found = index[pending]
            for _ in range(2):
                found += cdf[found] <= u
            short = np.flatnonzero(cdf[found] <= u)
            if short.size:
                found[short] = np.searchsorted(cdf, u[short], side="right")
            index[pending] = found
        return index


def _exact_prefix_sums(descending: np.ndarray) -> dict[int, int]:
    """{m: sum(descending[:m])} as exact ints, at 0 and at the end of each
    run of equal values in a descending array of nonnegative int64 depths.

    A depth can reach 2^63 - 1, so the sums are taken over Python ints, one
    product per distinct depth.
    """
    ends = [*(np.flatnonzero(descending[1:] != descending[:-1]) + 1).tolist(), len(descending)]
    values = descending[[0, *ends[:-1]]].tolist() if len(descending) else []
    sums = {0: 0}
    total = start = 0
    for end, value in zip(ends, values):
        total += (end - start) * value
        sums[end] = total
        start = end
    return sums


def _stationary_core_batch(
    tables: _Tables, p: float, samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of exact stationary partition samples; returns (core indices, depths).

    depths[i] = D is the number of layers above the first one, scanning down
    from layer 0, whose vertical bonds are all closed.  The state at layer 0
    is f_1(...f_D(cut state)), where the cut state is the cut layer's
    horizontal bonds applied to any source and f_c steps through the layer c
    above layer 0, drawn conditioned on some vertical bond being open.  If
    f_c is constant the state is f_1(...f_{c-1}(that constant)), whatever
    lies deeper, so each sample's layers are read from layer 0 downward up
    to its first constant map or its cut, and only those are replayed.

    The uniforms are those of replaying every layer upward from the cut in
    depth order: after the horizontal draws, block c holds one draw per
    sample with D >= c, in descending (stable) depth order, and starts
    sum(max(0, D - c)) draws in; the scan jumps there with PCG64.advance,
    and rng ends sum(D) draws past the horizontal ones.
    """
    graph = tables.graph
    depths = rng.geometric((1.0 - p) ** graph.vertex_count, size=samples) - 1
    horizontal = _ConfigDraw(graph.edge_count, p)(rng.random(samples))
    conditioned = _ConfigDraw(graph.bond_count, p, skip=1 << graph.edge_count)
    # a stable sort of keys of 16 bits or less is a radix sort
    deepest = int(depths.max()) if samples else 0
    order = np.argsort((deepest - depths).astype(np.min_scalar_type(deepest)), kind="stable")
    descending = depths[order]
    # the negated depths ascend, so the samples with D >= c are a prefix of
    # the sorted order, of length active(c)
    negated = -descending
    # the samples with D > c end a run of equal depths
    prefix_sums = _exact_prefix_sums(descending)

    def active(c: int) -> int:
        return int(np.searchsorted(negated, -c, side="right"))

    def offset(c: int) -> int:
        deeper = active(c + 1)
        return prefix_sums[deeper] - c * deeper

    states = tables.core_step[tables.isolated_core, horizontal[order]]
    generator = rng.bit_generator
    base = generator.state
    pending = np.arange(active(1))
    history = []
    level = 1
    while pending.size:
        generator.state = base
        generator.advance(offset(level))
        configs = conditioned(rng.random(int(pending[-1]) + 1)[pending])
        fixed = tables.core_const[configs]
        hit = fixed >= 0
        states[pending[hit]] = fixed[hit]
        pending, configs = pending[~hit], configs[~hit]
        history.append((pending, configs))
        level += 1
        # a sample whose cut is the next layer down keeps its cut state
        pending = pending[: np.searchsorted(pending, active(level))]
    flat_step = tables.core_step.ravel()
    width = tables.core_step.shape[1]
    for indices, configs in reversed(history):
        states[indices] = flat_step.take(states[indices] * width + configs)
    generator.state = base
    generator.advance(prefix_sums[samples])
    unsorted = np.empty_like(states)
    unsorted[order] = states
    return unsorted, depths


def _advance_lumped(
    tables: _Tables,
    p: float,
    start: np.ndarray,
    steps: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Advance lumped-state indices; returns the trajectory [X_0, ..., X_steps]."""
    draw = _ConfigDraw(tables.graph.bond_count, p)
    trajectory = [start]
    current = start
    for _ in range(steps):
        configs = draw(rng.random(len(current)))
        current = tables.lumped_step[current, configs]
        trajectory.append(current)
    return trajectory


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
    fresh vertical bonds, exactly as the connection event decomposes.
    """
    p = _check_p(p)
    pf = float(p)
    _check_run(samples, seed)
    for vertex, n in targets:
        if vertex not in graph.vertices or n < 0:
            raise SamplingError("target-invalid", f"invalid target ({vertex}, {n})")
    tables = _Tables(graph)
    chain_seq, upper_seq, vertical_seq = np.random.SeedSequence(seed).spawn(3)
    rng_chain = np.random.default_rng(chain_seq)
    rng_upper = np.random.default_rng(upper_seq)
    rng_vertical = np.random.default_rng(vertical_seq)

    core0, _ = _stationary_core_batch(tables, pf, samples, rng_chain)
    start = tables.core_to_initial[core0]
    max_n = max(n for _, n in targets)
    trajectory = _advance_lumped(tables, pf, start, max_n, rng_chain)

    upper, _ = _stationary_core_batch(tables, pf, samples, rng_upper)
    vertical = _ConfigDraw(graph.vertex_count, pf)
    # reached_by_n[n][i]: bitmask of the layer-n vertices that sample i links
    # to the infection through the layer above, 0 once the infection died
    reached_by_n: dict[int, np.ndarray] = {}
    for n in sorted({n for _, n in targets}):
        configs = vertical(rng_vertical.random(samples))
        states = trajectory[n]
        masks = tables.reach[states - 1, upper, configs]
        reached_by_n[n] = np.where(states > 0, masks, 0)

    results = []
    for vertex, n in targets:
        successes = int(np.count_nonzero(reached_by_n[n] >> vertex & 1))
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
    exact initial distribution; also reports mean_layers_scanned, the mean
    number of layers down to and including the first vertical cut, a
    geometric draw whose expectation is 1/(1-p)^|V|.  The descent reads
    fewer layers than that when it stops at a constant layer above the cut."""
    p = _check_p(p)
    pf = float(p)
    _check_run(samples, seed)
    tables = _Tables(graph)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    core0, depths = _stationary_core_batch(tables, pf, samples, rng)
    states = tables.core_to_initial[core0]
    counts = np.bincount(states, minlength=len(tables.lumped))

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
        "mean_layers_scanned": float(depths.mean()) + 1.0,
        "sample_count": samples,
        "seed": seed,
        "p": str(p),
        "generator": GENERATOR_NAME,
    }
