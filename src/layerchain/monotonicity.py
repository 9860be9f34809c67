"""Monotonicity certification: onset search, connection probabilities,
conjecture verification, and the bounded-degree arithmetic checks.

Two layers of onset are computed.  The matrix-level onset is the first
step at which every infected-to-infected entry of the n-step kernel
dominates the (n+1)-step entry on (0,1); once it holds at one step it
holds at every later step, so it also caps the search.  The vector-level
onset refines this along the actual initial distribution and is the
reported onset index.  Connection probabilities are assembled from the
layer distribution, the stationary distribution of the layer above, and
the vertical bonds between them, so that one polynomial per vertex and
step certifies the monotonicity of the connection probability itself.

Every stage runs on automorphism orbits.  The stationary vector is solved
on the Aut(G) orbits of the connectivity chain and expanded to one entry
per partition.  The lumped chain is stepped on the orbits of Aut_o, the
automorphisms fixing the origin, under which the initial distribution is
invariant, so orbit-mates carry equal weight at every layer.  With S the
orbit-summing matrix, the infected block B satisfies B S = S Q for the
orbit kernel Q, and Q^m >= Q^(m+1) entrywise bounds every later step of
the orbit sums, hence of each state: the matrix certificates live on the
orbits, while the step certificates and connection drops stay per state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    Interval,
    NONNEGATIVE_VERDICTS,
    Polynomial,
    SignCertificate,
    UNIT_OPEN,
    _eval_sign,
    certify_sign,
    poly_dot,
    poly_dot_table,
    poly_sum,
)
from .analysis import (
    PolyVector,
    expand_orbits,
    initial_distribution,
    stationary_distribution,
)
from .graphs import Graph, automorphisms
from .kernels import (
    Core,
    Orbits,
    PolyMatrix,
    bridge_reach_table,
    build_core,
    build_lumped_kernel,
    build_reduced_kernel,
    config_weights,
    lumped_state_list,
)
from .patterns import Pattern

ZERO = Polynomial()


class OnsetCapExceeded(RuntimeError):
    """The onset search reached its cap without certifying monotonicity."""

    def __init__(self, cap: int):
        super().__init__(f"onset not certified within {cap} steps")
        self.cap = cap


def _infected_indices(kernel: PolyMatrix) -> list[int]:
    return [i for i, s in enumerate(kernel.states) if isinstance(s, Pattern)]


class _CertCache:
    """Certifies the sign of each distinct polynomial on (0, 1) once,
    in-process.

    Certificates are keyed by coefficients, so a repeated polynomial costs
    a dictionary lookup and gets the same certificate.
    """

    def __init__(self):
        self.seen: dict[tuple, SignCertificate] = {}

    def certify(self, q: Polynomial) -> SignCertificate:
        cert = self.seen.get(q.coeffs)
        if cert is None:
            cert = certify_sign(q, UNIT_OPEN)
            self.seen[q.coeffs] = cert
        return cert


_QUICK_PROBES = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 10), Fraction(9, 10))


def _quick_negative(q: Polynomial) -> bool:
    return any(_eval_sign(q.coeffs, point) < 0 for point in _QUICK_PROBES)


def matrix_onset(kernel: PolyMatrix, cap: int = 64) -> tuple[int, list[list[SignCertificate]]]:
    """Smallest step at which every infected-block kernel entry dominates its successor.

    Returns the step and the grid of certificates for the entry differences
    at that step.  The absorbing class only gains mass, so the infected
    block of a power is the power of the infected block, and only the block
    is multiplied.  Steps are first screened by exact evaluation at a few
    rationals, which refutes most failing steps cheaply.  Raises
    OnsetCapExceeded if no step up to the cap passes.
    """
    infected = _infected_indices(kernel)
    block = PolyMatrix(
        tuple(kernel.states[i] for i in infected),
        tuple(tuple(kernel.entries[y][x] for x in infected) for y in infected),
    )
    cache = _CertCache()
    current = PolyMatrix.identity(block.states)
    for step in range(cap + 1):
        following = current @ block
        diffs = [
            [a - b for a, b in zip(now, later)]
            for now, later in zip(current.entries, following.entries)
        ]
        if not any(_quick_negative(d) for row in diffs for d in row):
            flat = [cache.certify(d) for row in diffs for d in row]
            if all(c.verdict in NONNEGATIVE_VERDICTS for c in flat):
                n = block.size
                certs = [flat[i * n : (i + 1) * n] for i in range(n)]
                return step, certs
        current = following
    raise OnsetCapExceeded(cap)


@dataclass
class OnsetCertificate:
    """Certified onset of pattern-probability monotonicity for one graph.

    The matrix-level step covers every later step; the per-step
    certificates refine the onset below it along the initial distribution.
    Only infected states are checked: the absorbing class gains mass every
    step by construction, so its coordinate is excluded by convention.

    The step certificates have one entry per state.  The matrix
    certificates are indexed by matrix_orbits, the orbits of the infected
    states (lists of indices into states) under the automorphisms fixing
    the origin: entry (i, j) certifies the drop of the probability, from
    any state of orbit i, of being in orbit j.  Orbit-mates carry equal
    probability, so this covers every state.
    """

    graph: str
    states: list[str]
    matrix_step: int
    onset: int
    step_certificates: list[list[SignCertificate]]
    matrix_orbits: list[list[int]]
    matrix_certificates: list[list[SignCertificate]]
    coordinate_convention: str = "infected-states-only"

    def validate(self) -> None:
        if sorted(i for orbit in self.matrix_orbits for i in orbit) != list(
            range(len(self.states))
        ):
            raise ValueError("matrix orbits do not partition the states")
        size = len(self.matrix_orbits)
        if len(self.matrix_certificates) != size or any(
            len(row) != size for row in self.matrix_certificates
        ):
            raise ValueError("matrix certificates are not square over the orbits")
        if not 0 <= self.onset <= self.matrix_step:
            raise ValueError("onset exceeds the matrix-level step")
        if len(self.step_certificates) != self.matrix_step:
            raise ValueError("per-step certificates do not cover every step below the cap")
        for n, row in enumerate(self.step_certificates):
            ok = all(c.verdict in NONNEGATIVE_VERDICTS for c in row)
            if n >= self.onset and not ok:
                raise ValueError(f"certificate at step {n} contradicts the onset")
        if self.onset > 0:
            last = self.step_certificates[self.onset - 1]
            if all(c.verdict in NONNEGATIVE_VERDICTS for c in last):
                raise ValueError("onset is not minimal")
        for row in self.matrix_certificates:
            for cert in row:
                if cert.verdict not in NONNEGATIVE_VERDICTS:
                    raise ValueError("matrix-level certificate failed")

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "states": list(self.states),
            "matrix_step": self.matrix_step,
            "onset": self.onset,
            "step_certificates": [
                [c.to_dict() for c in row] for row in self.step_certificates
            ],
            "matrix_orbits": [list(orbit) for orbit in self.matrix_orbits],
            "matrix_certificates": [
                [c.to_dict() for c in row] for row in self.matrix_certificates
            ],
            "coordinate_convention": self.coordinate_convention,
        }

    @staticmethod
    def from_dict(data: dict) -> "OnsetCertificate":
        return OnsetCertificate(
            graph=data["graph"],
            states=list(data["states"]),
            matrix_step=data["matrix_step"],
            onset=data["onset"],
            step_certificates=[
                [SignCertificate.from_dict(c) for c in row]
                for row in data["step_certificates"]
            ],
            matrix_orbits=[list(orbit) for orbit in data["matrix_orbits"]],
            matrix_certificates=[
                [SignCertificate.from_dict(c) for c in row]
                for row in data["matrix_certificates"]
            ],
            coordinate_convention=data["coordinate_convention"],
        )


def _advance(
    kernel: PolyMatrix, weights: Sequence[Polynomial], sizes: Sequence[int]
) -> list[Polynomial]:
    """One layer step of per-state weights held on orbit representatives:
    the orbit sums step through the orbit kernel, and orbit-mates share
    their orbit's sum equally."""
    sums = kernel.vecmat([w * size for w, size in zip(weights, sizes)])
    return [s.exact_div(Polynomial((size,))) for s, size in zip(sums, sizes)]


def vector_onset(
    engine: Engine, matrix_step: int, matrix_certificates: list[list[SignCertificate]]
) -> OnsetCertificate:
    """Refine the matrix-level onset along the engine's initial distribution.

    Certifies the scaled one-step probability drop of every infected state
    for each step below the matrix-level step; the reported onset is the
    smallest index from which all of those certificates are nonnegative.

    The layer weights are the engine's own (Engine.weights_at), so the
    connection drops below the onset reuse them.  The states of an orbit
    carry equal weight, so one certificate per orbit covers them all.
    """
    orbits = engine.orbits
    infected = engine.infected_indices
    cache = _CertCache()
    orbit_certs: list[dict[int, SignCertificate]] = []
    for n in range(matrix_step):
        now, later = engine.weights_at(n), engine.weights_at(n + 1)
        orbit_certs.append({i: cache.certify(now[i] - later[i]) for i in infected})
    states = [i for i, s in enumerate(orbits.states) if isinstance(s, Pattern)]
    position = {i: j for j, i in enumerate(states)}
    step_certs = [[certs[orbits.orbit_of[i]] for i in states] for certs in orbit_certs]
    onset = 0
    for n in reversed(range(matrix_step)):
        if any(c.verdict not in NONNEGATIVE_VERDICTS for c in step_certs[n]):
            onset = n + 1
            break
    certificate = OnsetCertificate(
        graph=engine.label,
        states=[str(orbits.states[i]) for i in states],
        matrix_step=matrix_step,
        onset=onset,
        step_certificates=step_certs,
        matrix_orbits=[[position[i] for i in orbits.members[o]] for o in infected],
        matrix_certificates=matrix_certificates,
    )
    certificate.validate()
    return certificate


# ---------------------------------------------------------------------------
# Connection probabilities.
# ---------------------------------------------------------------------------


class Engine:
    """The exact pipeline of one graph, run on automorphism orbits.

    Each stage is built once, when first needed, so a command pays only
    for the stages it uses:

    - core: the connectivity chain's partitions in the orbits of Aut(G),
      the automorphisms of G, with the successor rows of the
      representatives;
    - reduced: the connectivity chain on those orbits;
    - stationary: solved on the orbits, then expanded to one entry per
      partition;
    - orbits: the lumped states in the orbits of Aut_o, the automorphisms
      fixing the origin, under which the initial vector is invariant;
    - kernel: the lumped chain on those orbits;
    - initial: one entry per lumped state;
    - bridge: one column per infected orbit.

    Layer weights are held per orbit: every state of an orbit carries its
    representative's weight.  weights_at steps them, each layer once, for
    both the onset and the connection drops.  Distributions and connection
    polynomials are scaled by powers of the stationary normalizer.
    """

    def __init__(self, graph: Graph, label: str = ""):
        self.graph = graph
        self.label = label or graph.describe()

    @cached_property
    def core(self) -> Core:
        return build_core(self.graph, automorphisms(self.graph, fix_origin=False))

    @cached_property
    def reduced(self) -> PolyMatrix:
        return build_reduced_kernel(self.graph, self.core)

    @cached_property
    def stationary(self) -> PolyVector:
        return expand_orbits(stationary_distribution(self.reduced), self.core.orbits)

    @cached_property
    def orbits(self) -> Orbits:
        states = lumped_state_list(self.core.orbits.states)
        return Orbits(states, automorphisms(self.graph, fix_origin=True))

    @cached_property
    def kernel(self) -> PolyMatrix:
        return build_lumped_kernel(self.graph, self.orbits)

    @cached_property
    def initial(self) -> PolyVector:
        return initial_distribution(self.stationary, self.graph)

    @cached_property
    def infected_indices(self) -> list[int]:
        return _infected_indices(self.kernel)

    @cached_property
    def bridge(self) -> list[list[Polynomial]]:
        """bridge[v][i]: scaled probability, summed over the states of
        infected orbit i, that vertex v links to the state's infection
        through one stationary layer above and its vertical bonds.

        Only representatives are joined to the layer above: the state
        g(r) links vertex v exactly when r links g^-1(v).
        """
        k = self.graph.vertex_count
        vertical_weights = config_weights(k)
        popcounts = [z.bit_count() for z in range(1 << k)]
        states = [self.kernel.states[i] for i in self.infected_indices]
        reach = bridge_reach_table(self.graph, states, self.stationary.states)
        # vertical[v][i][j]: probability of the vertical bonds linking v to
        # the infection of state i below partition j
        vertical: list[list[list[Polynomial]]] = [[[] for _ in states] for _ in range(k)]
        for i, masks_by_upper in enumerate(reach):
            for masks in masks_by_upper:
                counts = [[0] * (k + 1) for _ in range(k)]
                for z, mask in enumerate(masks):
                    v = 0
                    while mask:
                        if mask & 1:
                            counts[v][popcounts[z]] += 1
                        mask >>= 1
                        v += 1
                for v, per in enumerate(counts):
                    vertical[v][i].append(
                        poly_sum(c * vertical_weights[n] for n, c in enumerate(per) if c)
                    )
        stationary = [list(self.stationary.entries)]
        linked = [poly_dot_table(stationary, vertical[v])[0] for v in range(k)]
        carriers = [self.orbits.carriers[i] for i in self.infected_indices]
        return [
            [poly_sum(linked[perm.index(v)][i] for perm in perms) for i, perms in enumerate(carriers)]
            for v in range(k)
        ]

    @cached_property
    def _weights(self) -> list[list[Polynomial]]:
        orbits = self.orbits
        if tuple(self.initial.states) != orbits.states or (
            tuple(self.kernel.states) != orbits.representatives
        ):
            raise ValueError("initial distribution and kernel have different state spaces")
        return [[self.initial.entries[members[0]] for members in orbits.members]]

    def onset(self, cap: int = 64) -> OnsetCertificate:
        """Matrix-level onset on the orbit kernel (matrix_onset), refined
        along the initial distribution (vector_onset) on the engine's own
        layer weights.  Certification runs in-process.

        Raises OnsetCapExceeded if no step up to the cap passes.
        """
        matrix_step, matrix_certs = matrix_onset(self.kernel, cap)
        return vector_onset(self, matrix_step, matrix_certs)

    def weights_at(self, n: int) -> list[Polynomial]:
        """Scaled distribution of the layer pattern after n steps: the
        weight of each state of each orbit, in orbit order.  The one place
        layer weights are stepped; each layer is stepped once and kept."""
        if n < 0:
            raise ValueError("layer index must be nonnegative")
        while len(self._weights) <= n:
            self._weights.append(_advance(self.kernel, self._weights[-1], self.orbits.sizes))
        return self._weights[n]

    def _bridge_row(self, vertex: int) -> list[Polynomial]:
        if vertex not in self.graph.vertices:
            raise ValueError(f"vertex {vertex} not in graph")
        return self.bridge[vertex]

    def connection(self, vertex: int, n: int) -> Polynomial:
        """Connection probability from the origin to (vertex, n), scaled by
        the squared normalizer."""
        bridge = self._bridge_row(vertex)
        weights = self.weights_at(n)
        return poly_dot([weights[i] for i in self.infected_indices], bridge)

    def connection_drop(self, vertex: int, n: int) -> Polynomial:
        """connection(vertex, n) - connection(vertex, n + 1)."""
        bridge = self._bridge_row(vertex)
        now = self.weights_at(n)
        later = self.weights_at(n + 1)
        return poly_dot([now[i] - later[i] for i in self.infected_indices], bridge)

    def expected(self, n: int) -> Polynomial:
        """Expected number of infected vertices at layer n, scaled by the
        squared normalizer; the sum of the connection polynomials."""
        return poly_sum(self.connection(v, n) for v in self.graph.vertices)


def connection_polynomial(
    graph: Graph,
    vertex: int,
    n: int,
    initial: PolyVector,
    kernel: PolyMatrix,
    stationary: PolyVector,
) -> Polynomial:
    """Connection probability from the origin to (vertex, n), scaled by the
    squared normalizer: the sum over layer state, upper-layer partition and
    vertical bonds of the weight of every triple linking the infection to the
    vertex.  The given per-state stages stand in for the engine's own, with
    every lumped state its own orbit."""
    engine = Engine(graph)
    engine.initial, engine.kernel, engine.stationary = initial, kernel, stationary
    engine.orbits = Orbits.trivial(kernel.states)
    return engine.connection(vertex, n)


def expected_infected_polynomial(graph: Graph, n: int) -> Polynomial:
    """Expected number of infected vertices at layer n, scaled by the squared
    normalizer; the sum of the connection polynomials over all vertices."""
    return Engine(graph).expected(n)


# ---------------------------------------------------------------------------
# Conjecture certificates.
# ---------------------------------------------------------------------------

PROVEN = "proven"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE = "inconclusive"


@dataclass
class ConjectureCertificate:
    """Full monotonicity verdict for one graph: onset plus finite-range checks."""

    graph: str
    verdict: str
    onset_certificate: Optional[OnsetCertificate]
    vertices: list[int] = field(default_factory=list)
    connection_certificates: list[list[SignCertificate]] = field(default_factory=list)
    witness: Optional[dict] = None

    def validate(self) -> None:
        if self.verdict == PROVEN:
            if self.onset_certificate is None:
                raise ValueError("proven verdict requires an onset certificate")
            self.onset_certificate.validate()
            for row in self.connection_certificates:
                for cert in row:
                    if cert.verdict not in NONNEGATIVE_VERDICTS:
                        raise ValueError("proven verdict with failing connection certificate")
            if len(self.connection_certificates) != self.onset_certificate.onset:
                raise ValueError("finite-range certificates do not cover every step below onset")
        elif self.verdict == COUNTEREXAMPLE:
            if self.witness is None:
                raise ValueError("counterexample verdict requires a witness")
        elif self.verdict != INCONCLUSIVE:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_dict(self) -> dict:
        out = {
            "graph": self.graph,
            "verdict": self.verdict,
            "onset_certificate": (
                None if self.onset_certificate is None else self.onset_certificate.to_dict()
            ),
            "vertices": list(self.vertices),
            "connection_certificates": [
                [c.to_dict() for c in row] for row in self.connection_certificates
            ],
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    @staticmethod
    def from_dict(data: dict) -> "ConjectureCertificate":
        onset = data.get("onset_certificate")
        return ConjectureCertificate(
            graph=data["graph"],
            verdict=data["verdict"],
            onset_certificate=None if onset is None else OnsetCertificate.from_dict(onset),
            vertices=list(data["vertices"]),
            connection_certificates=[
                [SignCertificate.from_dict(c) for c in row]
                for row in data["connection_certificates"]
            ],
            witness=data.get("witness"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def verify_conjecture(
    graph: Graph, cap: int = 64, label: str = "", workers: int = 1
) -> ConjectureCertificate:
    """Certify connection-probability monotonicity for every layer index.

    Combines the onset certificate (covering all steps from the onset on)
    with direct certification of the connection-probability drop for every
    vertex at each step below the onset.  Certification runs in-process;
    workers is accepted for existing callers and must be 1.
    """
    if workers != 1:
        raise ValueError(f"certification runs in-process; workers must be 1, got {workers}")
    engine = Engine(graph, label)
    try:
        onset_cert = engine.onset(cap)
    except OnsetCapExceeded:
        return ConjectureCertificate(engine.label, INCONCLUSIVE, None)
    cache = _CertCache()
    connection_certs: list[list[SignCertificate]] = []
    witness = None
    for n in range(onset_cert.onset):
        row = []
        for v in graph.vertices:
            cert = cache.certify(engine.connection_drop(v, n))
            row.append(cert)
            if witness is None and cert.verdict not in NONNEGATIVE_VERDICTS:
                witness = {
                    "vertex": v,
                    "n": n,
                    "certificate": cert.to_dict(),
                }
        connection_certs.append(row)
    verdict = PROVEN if witness is None else COUNTEREXAMPLE
    certificate = ConjectureCertificate(
        graph=engine.label,
        verdict=verdict,
        onset_certificate=onset_cert,
        vertices=list(graph.vertices),
        connection_certificates=connection_certs,
        witness=witness,
    )
    certificate.validate()
    return certificate


# ---------------------------------------------------------------------------
# Bounded-degree arithmetic (exact rational checks).
# ---------------------------------------------------------------------------


def _path_count_bound(delta: int, p: Fraction) -> Fraction:
    """Upper bound on the expected upward spread from one vertex at parameter p."""
    first = p * (1 + p) / (1 - (delta - 1) * p)
    correction = first * first * (delta * p * p) / (1 - (delta + 1) * p)
    return first + correction


def degree_bound_report(max_degree: int) -> list[dict]:
    """Exact rational table of the bounded-degree monotonicity criterion.

    For each maximum degree: the parameter threshold 10/(10*degree + 14),
    the spread bound g at the threshold, and its decreasing majorant h,
    with flags for g <= 1 and h <= 1.
    """
    if max_degree < 0:
        raise ValueError("max degree must be nonnegative")
    rows = []
    for delta in range(max_degree + 1):
        threshold = Fraction(10, 10 * delta + 14)
        g = _path_count_bound(delta, threshold)
        h = (1 + Fraction(1, 1) / (delta + Fraction(7, 5))) / Fraction(12, 5) * (
            1 + Fraction(25, 24)
        )
        rows.append(
            {
                "delta": delta,
                "p": threshold,
                "g": g,
                "g_le_1": g <= 1,
                "h": h,
                "h_le_1": h <= 1,
            }
        )
    return rows


def verify_expected_count_monotonicity(
    graph: Graph, n_max: int, delta: Optional[int] = None
) -> list[SignCertificate]:
    """Certify the expected-infected-count drop on (0, 10/(10*delta+14)].

    delta defaults to the maximum degree of the graph; passing it explicitly
    checks the criterion at a different degree threshold.
    """
    if n_max < 0:
        raise ValueError("largest layer index must be nonnegative")
    if delta is None:
        delta = graph.max_degree
    if delta < 0:
        raise ValueError("degree threshold must be nonnegative")
    threshold = Fraction(10, 10 * delta + 14)
    interval = Interval(0, threshold, closed_hi=True)
    engine = Engine(graph)
    expected = [engine.expected(n) for n in range(n_max + 2)]
    return [
        certify_sign(expected[n] - expected[n + 1], interval) for n in range(n_max + 1)
    ]
