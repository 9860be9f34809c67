"""Independent Monte Carlo verification of the exact engine.

Sampling is perfect (unbiased): scanning layers downward from layer 0,
some layer a.s. has all its |V| vertical bonds closed.  That vertical cut
disconnects everything below it, so the cut layer's pattern is fixed by its
own horizontal bonds alone, a renewal point as in coupling from the past.
Replaying the generated layers upward from the cut therefore yields an
exact draw of the stationary layer partition, with no truncation bias; the
mean scan depth is 1/(1-p)^|V|.  The infection is attached at the origin's
block and the chain continued upward with fresh layers.

The batch path drives the same construction through precomputed successor
tables and inverse-CDF draws of whole layer configurations, which keeps
100k-replica runs fast; the scalar path simulates raw bonds directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.stats import chi2 as _chi2

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
    if not 0 < p < 1:
        raise SamplingError("probability-range", "sampling requires p strictly inside (0, 1)")
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
# Batch sampler: precomputed tables, inverse-CDF layer draws.
# ---------------------------------------------------------------------------


class _Tables:
    """Structural tables of one graph shared by all batch runs."""

    def __init__(self, graph: Graph):
        self.graph = graph
        core = build_core(graph)  # every partition its own orbit, with its row
        partitions = core.orbits.states
        self.lumped = lumped_state_list(partitions)
        core_index = {s: i for i, s in enumerate(partitions)}
        lumped_index = {s: i for i, s in enumerate(self.lumped)}
        self.core_step = np.array(
            [[core_index[t] for t in row] for row in core.rows], dtype=np.int64
        )
        infected = self.lumped[1:]
        infected_rows = successor_table(graph, infected)
        width = 1 << graph.bond_count
        lumped_table = [[0] * width]
        for row in infected_rows:
            lumped_table.append([lumped_index[lump(t)] for t in row])
        self.lumped_step = np.array(lumped_table, dtype=np.int64)
        self.core_to_initial = np.array(
            [lumped_index[attach_infection(w, graph.origin)] for w in partitions],
            dtype=np.int64,
        )
        self.reach = np.array(bridge_reach_table(graph, infected, partitions), dtype=np.int64)
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


def _stationary_core_batch(
    tables: _Tables, p: float, samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of exact stationary partition samples; returns (core indices, depths).

    depths[i] is the number of layers above the first one, scanning down from
    layer 0, whose vertical bonds are all closed.  The cut layer's state is
    its horizontal bonds applied to any source; the layers above it are
    replayed with configs conditioned on some vertical bond being open.
    """
    graph = tables.graph
    depths = rng.geometric((1.0 - p) ** graph.vertex_count, size=samples) - 1
    draws = rng.random(samples)
    horizontal = np.searchsorted(_config_cdf(graph.edge_count, p), draws, side="right")
    cdf = _config_cdf(graph.bond_count, p, skip=1 << graph.edge_count)
    order = np.argsort(-depths, kind="stable")
    sorted_depths = depths[order]
    states = tables.core_step[tables.isolated_core, horizontal[order]]
    max_depth = int(sorted_depths[0]) if samples else 0
    for countdown in range(max_depth, 0, -1):
        active = np.searchsorted(-sorted_depths, -countdown, side="right")
        if active == 0:
            continue
        draws = rng.random(active)
        configs = np.searchsorted(cdf, draws, side="right")
        states[:active] = tables.core_step[states[:active], configs]
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
    cdf = _config_cdf(tables.graph.bond_count, p)
    trajectory = [start]
    current = start
    for _ in range(steps):
        draws = rng.random(len(current))
        configs = np.searchsorted(cdf, draws, side="right")
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
    vertical_cdf = _config_cdf(graph.vertex_count, pf)
    vertical_by_n: dict[int, np.ndarray] = {}
    for _, n in sorted(set(targets), key=lambda t: t[1]):
        if n not in vertical_by_n:
            draws = rng_vertical.random(samples)
            vertical_by_n[n] = np.searchsorted(vertical_cdf, draws, side="right")

    results = []
    for vertex, n in targets:
        states = trajectory[n]
        infected_mask = states > 0
        reached = np.zeros(samples, dtype=bool)
        if infected_mask.any():
            masks = tables.reach[
                states[infected_mask] - 1, upper[infected_mask], vertical_by_n[n][infected_mask]
            ]
            reached[infected_mask] = (masks >> vertex & 1).astype(bool)
        successes = int(reached.sum())
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
    exact initial distribution; also reports the mean downward scan depth,
    the layers scanned down to and including the first vertical cut, whose
    expectation is 1/(1-p)^|V|."""
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
    # with one possible state (a one-vertex graph) the fit cannot reject
    pvalue = float(_chi2.sf(statistic, dof)) if dof else 1.0
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
