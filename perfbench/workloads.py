"""Workloads of the layerchain benchmark.

A workload turns a seed into inputs, runs one body of public layerchain
calls on them, and checks the outputs.  The seed decides only a vertex
permutation (the exact workload) or the sampler seed (the Monte Carlo
workload); seed 0 is the canonical labelling.  The library only ever sees
the generated graphs.

Every call into the library goes through a module attribute
(``monotonicity.verify_conjecture``, not a name imported from it), so the
traced run can wrap it from outside.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from layerchain import analysis, graphs, kernels, monotonicity, montecarlo, schemas


CAP = 64
SIGMAS = 4.0
MAX_LAYER = 3


def _permutation(seed: int, k: int) -> list[int]:
    """A seeded permutation of range(k); the identity for seed 0."""
    order = list(range(k))
    if seed:
        random.Random(seed).shuffle(order)
    return order


def relabel(graph: graphs.Graph, perm: list[int]) -> graphs.Graph:
    """The same graph with vertex v renamed perm[v], origin included."""
    edges = tuple((perm[u], perm[v]) for u, v in graph.edges)
    return graphs.Graph(graph.vertex_count, edges, perm[graph.origin])


@dataclass
class VerifyWorkload:
    """verify_conjecture on one relabelled graph; checks the certificate.

    It runs at workers=1, so every sign certification happens in-process
    and the traced run sees all of them.
    """

    graph: str
    matrix_step: int
    onset: int

    def inputs(self, seed: int) -> graphs.Graph:
        base = graphs.make_builtin(self.graph)
        return relabel(base, _permutation(seed, base.vertex_count))

    def run(self, graph: graphs.Graph) -> monotonicity.ConjectureCertificate:
        return monotonicity.verify_conjecture(graph, CAP, workers=1)

    def check(self, graph, certificate) -> list[bool]:
        import jsonschema  # here, so that setup_s does not pay for it

        onset = certificate.onset_certificate
        text = certificate.to_json()
        again = monotonicity.ConjectureCertificate.from_dict(json.loads(text))
        try:
            again.validate()
            jsonschema.validate(json.loads(text), schemas.CONJECTURE_CERTIFICATE_SCHEMA)
            round_trip = again.to_json() == text
        except (ValueError, jsonschema.ValidationError):
            round_trip = False
        return [
            certificate.verdict == monotonicity.PROVEN,
            onset is not None and onset.matrix_step == self.matrix_step,
            onset is not None and onset.onset == self.onset,
            round_trip,
        ]


@dataclass
class MonteCarloWorkload:
    """connection_estimates for every target (v, n <= MAX_LAYER) on one graph.

    The seed is the sampler seed.  The exact connection probabilities are
    computed outside the timed region, and every estimate must lie within
    SIGMAS standard errors of them.
    """

    graph: str
    p: Fraction
    samples: int

    def inputs(self, seed: int) -> tuple[graphs.Graph, int]:
        return graphs.make_builtin(self.graph), seed

    def targets(self, graph: graphs.Graph) -> list[tuple[int, int]]:
        return [(v, n) for v in graph.vertices for n in range(MAX_LAYER + 1)]

    def run(self, inputs) -> list[montecarlo.SampleStats]:
        graph, seed = inputs
        return montecarlo.connection_estimates(
            graph, self.p, self.targets(graph), self.samples, seed
        )

    def exact(self, graph: graphs.Graph) -> dict[tuple[int, int], float]:
        stationary = analysis.stationary_distribution(kernels.build_reduced_kernel(graph))
        lumped = kernels.build_lumped_kernel(graph)
        initial = analysis.initial_distribution(stationary, graph)
        scale = Fraction(stationary.normalizer(self.p)) ** 2
        exact = {}
        for v, n in self.targets(graph):
            poly = monotonicity.connection_polynomial(graph, v, n, initial, lumped, stationary)
            exact[(v, n)] = float(Fraction(poly(self.p)) / scale)
        return exact

    def check(self, inputs, stats) -> list[bool]:
        exact = self.exact(inputs[0])
        checks = []
        for s in stats:
            value = exact[(s.meta["vertex"], s.meta["layer"])]
            if s.std_error == 0.0:
                checks.append(s.estimate == value)
            else:
                checks.append(abs(s.estimate - value) <= SIGMAS * s.std_error)
        return checks

    def descent_layers_mean(self, inputs) -> float:
        """Mean layers scanned per perfect sample, at the same p, size and seed."""
        graph, seed = inputs
        return montecarlo.initial_pattern_fit(graph, self.p, self.samples, seed)[
            "mean_layers_scanned"
        ]


WORKLOADS = {
    "verify-cycle4": VerifyWorkload("cycle:4", matrix_step=5, onset=4),
    "mc-cycle3": MonteCarloWorkload("cycle:3", Fraction(7, 10), 100_000),
}
