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

Every layer is stepped in the count basis modulo word primes
(residues._CountLayers, which takes the primes its coefficient bounds ask
for): the drops of the kernel powers, and the row of orbit totals and its
drops, step through the count-basis infected block.  The certificates are
read here.
A drop whose coefficients have one sign is positive, negative or zero as
read, and only one with mixed signs is rebuilt (Garner, back to p, exact
division) and certified once by certify_sign (a matrix difference after a
screen at five exact probes).  The connection and expected-count
polynomials are read off the same layers: one product with the bridge
rows, rebuilt the same way.  So nothing steps a layer exactly in p.

A count-basis kernel entry counts bond configurations by open bonds, so
the infected block and the bridge rows are counted, not converted: the
block from the successor table of the orbit representatives, the bridge
rows from the bridge reach table, convolved with the count-basis
stationary entries.  Both are divided by 1 + x down to their own degree,
and neither the lumped kernel nor the bridge is built in p.

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
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import (
    IDENTICALLY_ZERO,
    Interval,
    NEGATIVE,
    NONNEGATIVE_VERDICTS,
    POSITIVE,
    Polynomial,
    SignCertificate,
    UNIT_OPEN,
    _dot_table,
    _eval_sign,
    _shift_basis,
    certify_sign,
    poly_dot,  # kept: perfbench/layers.py traces it (test_every_traced_target_exists)
    poly_sum,
)
from .analysis import (
    PolyVector,
    _expand_orbits,
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
    build_lumped_kernel,  # kept: perfbench/layers.py traces it (test_every_traced_target_exists)
    build_reduced_kernel,
    lumped_state_list,
    successor_table,
    table_counts,
)
from .patterns import Pattern, _check_guard
from .residues import _CountLayers, _PowerModPrime, _Signed, _count_basis, _own_degree


class OnsetCapExceeded(RuntimeError):
    """The onset search reached its cap without certifying monotonicity."""

    def __init__(self, cap: int):
        super().__init__(f"onset not certified within {cap} steps")
        self.cap = cap


_POSITIVE = SignCertificate(POSITIVE, UNIT_OPEN)
_ZERO = SignCertificate(IDENTICALLY_ZERO, UNIT_OPEN)
_NEGATIVE = SignCertificate(NEGATIVE, UNIT_OPEN)

# x = p/(1-p) at p = 1/2, 1/4, 3/4, 1/10 and 9/10
_PROBES = (Fraction(1), Fraction(1, 3), Fraction(3), Fraction(1, 9), Fraction(9))


def _one_signed(signed: _Signed) -> list[list[SignCertificate]]:
    """The certificate grid read off count-basis coefficient signs.

    A polynomial whose count-basis coefficients have one sign is positive,
    negative or zero on (0, 1) in p as read, with no witness, as
    certify_sign gives it.  An entry with mixed signs reads positive here
    and is left to the caller to rebuild (_rebuilt) and certify."""
    return [
        [(_POSITIVE if p else _NEGATIVE) if p or n else _ZERO for p, n in zip(*flags)]
        for flags in zip(signed.has_positive.tolist(), signed.has_negative.tolist())
    ]


def _rebuilt(cs: list[int], degree: int, divisor: int) -> Polynomial:
    """The polynomial in p whose count-basis coefficients at degree are cs,
    the integers Garner's digits give (_Signed.coefficients), zero past that
    degree, divided exactly by the positive divisor."""
    q = Polynomial(_shift_basis(cs[: degree + 1], degree, -1))
    return q.exact_div(Polynomial((divisor,)))


def _step_certificates(
    residues: list[np.ndarray], primes: list[int]
) -> Optional[list[list[SignCertificate]]]:
    """The certificate grid of one step's differences D_n, given by their
    residues modulo the primes, or None when some entry is negative
    somewhere on (0, 1).

    The sign of D_n at x > 0 is the sign of the p-difference at x/(1+x), so
    one-signed entries are read off their coefficients.  Entries with mixed
    signs are rebuilt as integers, screened at five exact probes, and only
    then taken back to p and certified."""
    signed = _Signed(residues, primes)
    if (signed.has_negative & ~signed.has_positive).any():
        return None
    certs = _one_signed(signed)
    rows, cols = np.nonzero(signed.has_negative)
    mixed = signed.coefficients(signed.has_negative)
    if any(_eval_sign(cs, x) < 0 for cs in mixed for x in _PROBES):
        return None
    for i, j, cs in zip(rows.tolist(), cols.tolist(), mixed):
        cert = certify_sign(_rebuilt(cs, signed.degree, 1), UNIT_OPEN)
        if cert.verdict not in NONNEGATIVE_VERDICTS:
            return None
        certs[i][j] = cert
    return certs


def _drop_certificates(
    residues: list[np.ndarray], primes: list[int], degrees: list[int], divisors: list[int]
) -> list[list[SignCertificate]]:
    """The certificate of each drop d_ne / divisors[e], given the count-basis
    coefficients of d_ne at degree degrees[n] modulo the primes
    (residues[t][n, e], zero past that degree): one-signed entries as read,
    and one certificate in p for each entry with mixed signs."""
    signed = _Signed(residues, primes)
    certs = _one_signed(signed)
    mixed = signed.has_negative & signed.has_positive
    rows, cols = np.nonzero(mixed)
    for n, e, cs in zip(rows.tolist(), cols.tolist(), signed.coefficients(mixed)):
        certs[n][e] = certify_sign(_rebuilt(cs, degrees[n], divisors[e]), UNIT_OPEN)
    return certs


def _nonnegative(counts: np.ndarray) -> np.ndarray:
    if (counts < 0).any():
        raise ValueError("the infected block has a negative count in x = p/(1-p)")
    return counts


def _drop_factor(counts: np.ndarray) -> np.ndarray:
    """F = (1+x)^w I - M for the count-basis block M of degree w, exact in
    int64: the binomial coefficients of (1+x)^w on the diagonal minus the
    counts.  The drops of rows L_n = L_0 M^n are L_0 F M^n."""
    w = len(counts) - 1
    binomial = np.array([math.comb(w, t) for t in range(w + 1)], dtype=np.int64)
    return binomial[:, None, None] * np.eye(counts.shape[1], dtype=np.int64) - counts


def matrix_onset(counts: np.ndarray, cap: int = 64) -> tuple[int, list[list[SignCertificate]]]:
    """Smallest step at which every infected-block kernel entry dominates its successor.

    Returns the step and the grid of certificates for the entry differences
    at that step.  The absorbing class only gains mass, so the infected
    block of a power is the power of the infected block, and only the block
    is multiplied.  Raises OnsetCapExceeded if no step up to the cap passes.

    counts is the block in the count basis, counts[t, y, x] coefficient t
    of M(x) = (1+x)^w K(x/(1+x)) for w its largest entry degree, as
    Engine._counts counts it; a negative count raises ValueError.  Then
    D_n = (1+x)^w M^n - M^(n+1) is (1+x)^((n+1)w) (K^n - K^(n+1))(x/(1+x)),
    and D_n = F M^n for F = (1+x)^w I - M (_drop_factor).  So the drops are
    the layers of _CountLayers started from F, which steps them modulo as
    many word primes as their bound needs, one layer per prime at a time.
    The signs of the coefficients are read off their mixed-radix digits,
    and entries with mixed signs are screened at five exact probes before
    any is certified, so a step that fails the screen costs no
    certificate.  A verdict depends only on the p-difference, so the
    certificates are those of certifying each difference on (0, 1).
    """
    _nonnegative(counts)
    if not counts.shape[1]:
        if cap < 0:
            raise OnsetCapExceeded(cap)
        return 0, []
    drops = _CountLayers(_drop_factor(counts), counts, keep=False)
    for step in range(cap + 1):
        residues = drops.layer(step)
        certs = _step_certificates(residues, drops.primes)
        if certs is not None:
            return step, certs
        del residues  # not held while the next step's drop is computed
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


def vector_onset(
    engine: Engine, matrix_step: int, matrix_certificates: list[list[SignCertificate]]
) -> OnsetCertificate:
    """Refine the matrix-level onset along the engine's initial distribution.

    Certifies the scaled one-step probability drop of every infected state
    for each step below the matrix-level step; the reported onset is the
    smallest index from which all of those certificates are nonnegative.

    The drops are the engine's own (Engine.drop_certificates): the layers
    are stepped in the count basis modulo word primes, and a drop is
    rebuilt exactly only when its coefficients have mixed signs.  The
    states of an orbit carry equal weight, so one certificate per orbit
    covers them all.
    """
    orbits = engine.orbits
    infected = engine.infected_indices
    orbit_certs = [dict(zip(infected, row)) for row in engine.drop_certificates(matrix_step)]
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


@dataclass(frozen=True)
class _BridgeCounts:
    """The bridge rows of one vertex per vertex orbit in the count basis,
    scaled to orbit totals: counts[t, i, r] is coefficient t of
    (1+x)^degree scale bridge[r][i] (x/(1+x)) / size_i, scale the lcm of the
    infected orbit sizes and degree the largest degree in p of those rows.
    column[v] is the row of vertex v's orbit, bound the largest sum of the
    absolute coefficients of one entry."""

    counts: np.ndarray
    scale: int
    column: list[int]
    bound: int


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
    - _counts: the lumped chain's infected block in the count basis,
      counted from the successor table of the infected orbit
      representatives;
    - initial: one entry per lumped state;
    - _bridge_counts: the bridge rows of the vertex orbits in the count
      basis, counted from the bridge reach table.

    Layer weights are held per orbit: every state of an orbit carries its
    representative's weight, stepped in the count basis modulo word primes
    (_CountLayers).  connection and expected rebuild one layer's product
    with the bridge rows off _layers, the orbit totals T_n; off _drops,
    their drops D_n, drop_certificates and connection_certificates rebuild
    only the drops whose coefficients have mixed signs.  Both bridge
    products go through _bridged.
    Neither the chain nor the bridge is built in p: the count-basis block
    and bridge rows are configuration counts, so no kernel or bridge entry
    is taken to the count basis by a Taylor shift.
    Distributions and connection polynomials are scaled by powers of the
    stationary normalizer.
    """

    def __init__(self, graph: Graph, label: str = ""):
        self.graph = graph
        self.label = label or graph.describe()

    @cached_property
    def core(self) -> Core:
        _check_guard(self.graph)  # before automorphisms: K12 has 12! of them
        return build_core(self.graph, automorphisms(self.graph, fix_origin=False))

    @cached_property
    def reduced(self) -> PolyMatrix:
        return build_reduced_kernel(self.graph, self.core)

    @cached_property
    def stationary(self) -> PolyVector:
        return _expand_orbits(stationary_distribution(self.reduced), self.core.orbits)

    @cached_property
    def orbits(self) -> Orbits:
        states = lumped_state_list(self.core.orbits.states)
        return Orbits(states, automorphisms(self.graph, fix_origin=True))

    @cached_property
    def initial(self) -> PolyVector:
        return initial_distribution(self.stationary, self.graph)

    @cached_property
    def infected_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.orbits.representatives) if isinstance(s, Pattern)]

    @cached_property
    def _sizes(self) -> list[int]:
        """The size of each infected orbit, in infected_indices order."""
        return [len(self.orbits.members[i]) for i in self.infected_indices]

    @cached_property
    def _counts(self) -> np.ndarray:
        """The infected block of the lumped chain in the count basis, shared
        by the matrix onset and the layer steps: the configurations of the
        successor table of the infected orbit representatives counted by
        source, target orbit and open bonds, the block at degree b, then
        divided down to its own degree (_own_degree)."""
        table = successor_table(self.graph, self.orbits.representatives[1:])
        counts = table_counts(self.graph, table, self.orbits.columns(), collapse_uninfected=True)
        return _nonnegative(_own_degree(counts[:, 1:].transpose(2, 0, 1)))

    @cached_property
    def _layers(self) -> _CountLayers:
        """The orbit totals T_n of the infected orbits, each state's weight
        at layer n times its orbit size, in the count basis modulo word
        primes.

        T_0, read off the initial distribution, is taken to the count basis
        at the largest degree of its entries.
        """
        orbits = self.orbits
        if tuple(self.initial.states) != orbits.states:
            raise ValueError("initial distribution and orbits have different state spaces")
        totals = [
            self.initial.entries[orbits.members[i][0]] * size
            for i, size in zip(self.infected_indices, self._sizes)
        ]
        return self._stepper(_count_basis([totals], max(max(t.degree for t in totals), 0)))

    @cached_property
    def _drops(self) -> _CountLayers:
        """The drops D_n = (1+x)^w T_n - T_(n+1) of the orbit totals, in the
        count basis modulo word primes: the layers of D_0 = T_0 F
        (_drop_factor), the one exact count-basis product, one Kronecker dot
        product of the start of _layers with F."""
        factor = _drop_factor(self._counts).transpose(2, 1, 0).tolist()
        seed = _dot_table([self._layers.start[:, 0].T.tolist()], factor)
        return self._stepper(np.array(seed, dtype=object).T[:, None])

    def _stepper(self, start: np.ndarray) -> _CountLayers:
        """The rows start M^n, every layer kept, whose primes also keep
        their product with the bridge counts exact (_bridged)."""
        # a bridge entry is a stationary entry times one layer's vertical bonds
        bridge_degree = max(q.degree for q in self.stationary.entries) + self.graph.vertex_count
        return _CountLayers(start, self._counts, start.shape[2] * (bridge_degree + 1), keep=True)

    @cached_property
    def _bridge_counts(self) -> _BridgeCounts:
        """The bridge rows of each vertex orbit's smallest vertex in the
        count basis.  The group of the orbits fixes the origin and the
        initial distribution, so the vertices of one orbit have equal bridge
        rows and connection drops.

        A bridge entry sums, over the partitions j of the layer above, the
        stationary entry of j times the probability of the vertical bonds
        linking the vertex to the infection below j.  In the count basis
        that is a product of count polynomials: the stationary entry's at
        degree d, its largest, and the linking vertical configurations
        counted by open bonds, at degree k.  Only representatives are joined
        to the layer above: the state g(s) links vertex v exactly when s
        links g^-1(v), so the counts are summed over the carriers of each
        orbit, scaled by scale // size, and summed over the partitions that
        share a stationary entry.  Each row is one Kronecker dot product with
        the distinct stationary entries, at degree d + k, divided down to the
        rows' own degree (_own_degree).
        """
        k = self.graph.vertex_count
        representative = [min(perm[v] for perm in self.orbits.group) for v in self.graph.vertices]
        distinct = sorted(set(representative))
        scale = math.lcm(*self._sizes)
        infected = self.infected_indices
        reach = bridge_reach_table(
            self.graph, [self.orbits.representatives[i] for i in infected], self.stationary.states
        )
        by_open = np.bitwise_count(np.arange(1 << k))[:, None] == np.arange(k + 1)
        # linked[i, j, v, n]: the vertical configs with n open bonds linking
        # v to the infection of state i below partition j
        linked = np.stack([(reach >> v & 1) @ by_open for v in range(k)], axis=2)
        # carried[i, r, v]: scale // size_i per carrier of orbit i taking v to r
        carried = np.zeros((len(infected), len(distinct), k), dtype=np.int64)
        for i, (o, size) in enumerate(zip(infected, self._sizes)):
            for perm in self.orbits.carriers[o]:
                for r, vertex in enumerate(distinct):
                    carried[i, r, perm.index(vertex)] += scale // size
        entries: dict[Polynomial, int] = {}
        shared = [entries.setdefault(q, len(entries)) for q in self.stationary.entries]
        # sharing[j, e]: whether partition j has the e-th distinct stationary entry
        sharing = np.equal.outer(shared, np.arange(len(entries)))
        vertical = np.einsum("irv,ievn->iren", carried, np.einsum("ijvn,je->ievn", linked, sharing))
        stationary = _count_basis([list(entries)], max(max(q.degree for q in entries), 0))[:, 0].T
        rows = _dot_table([stationary.tolist()], vertical.reshape(-1, len(entries), k + 1).tolist())
        counts = np.array(rows, dtype=object).reshape(len(infected), len(distinct), -1)
        counts = _own_degree(counts.transpose(2, 0, 1))
        bound = int(np.abs(counts).sum(axis=0).max())
        return _BridgeCounts(counts, scale, [distinct.index(r) for r in representative], bound)

    def onset(self, cap: int = 64) -> OnsetCertificate:
        """Matrix-level onset on the orbit kernel (matrix_onset), refined
        along the initial distribution (vector_onset) on the engine's own
        layer drops.  Certification runs in-process.

        Raises OnsetCapExceeded if no step up to the cap passes.
        """
        matrix_step, matrix_certs = matrix_onset(self._counts, cap)
        return vector_onset(self, matrix_step, matrix_certs)

    def drop_certificates(self, steps: int) -> list[list[SignCertificate]]:
        """Certificates of the drop of each state's weight from layer n to
        layer n + 1 for n < steps, on the infected orbits, in
        infected_indices order.

        The drops of the orbit totals, D_n = (1+x)^w T_n - T_(n+1), are read
        off _drops modulo as many primes as the bound of the last one asks
        for; a drop with mixed signs is rebuilt and divided by its orbit
        size."""
        if not steps:
            return []
        drops = self._drops
        residues = [s[:, :, 0] for s in drops.stack(steps)]
        degrees = [drops.degree(n) for n in range(steps)]
        return _drop_certificates(residues, drops.primes, degrees, self._sizes)

    def _bridged(self, primes: list[int], rows: list[np.ndarray]) -> list[np.ndarray]:
        """Rows over the infected orbits times the bridge counts, modulo
        each of the primes in order: stacks r[t, k, i] in, stacks
        [t, k, column] of int64 residues out, one product per prime.  The
        primes of the stepper the rows were read from keep the product
        exact."""
        counts = self._bridge_counts.counts
        return [
            _PowerModPrime(q, counts).times(r.astype(np.float64)).astype(np.int64)
            for q, r in zip(primes, rows)
        ]

    def connection_certificates(self, steps: int) -> list[list[SignCertificate]]:
        """Certificates of connection(v, n) - connection(v, n + 1) for n <
        steps and every vertex v.

        One product per prime takes the drops D_n, read off _drops, against
        the bridge counts of every vertex orbit: (1+x)^(e_n + b) scale times
        the connection drops in the count basis, for e_n the degree of D_n
        and b that of the bridge counts.  The drops are read modulo as many
        primes as those products ask for, whose bridge entries have
        absolute coefficients summing to at most bridge.bound.  A drop with
        mixed signs is rebuilt and divided by the scale."""
        if not steps:
            return []
        drops, bridge = self._drops, self._bridge_counts
        stacks = drops.stack(steps, bridge.bound)
        residues = self._bridged(drops.primes, [s[:, :, 0] for s in stacks])
        degrees = [drops.degree(n) + len(bridge.counts) - 1 for n in range(steps)]
        scales = [bridge.scale] * bridge.counts.shape[2]
        certs = _drop_certificates(residues, drops.primes, degrees, scales)
        return [[row[r] for r in bridge.column] for row in certs]

    def _connections(self, n: int) -> list[Polynomial]:
        """The connection polynomials at layer n of each vertex orbit's
        smallest vertex, one per bridge row.

        One product per prime takes layer n, T_n at degree e_n = e_0 + n w,
        against the bridge counts: (1+x)^(e_n + b) scale times the
        connection polynomials in the count basis, for b the degree of the
        bridge counts, read modulo as many primes as that product asks for.
        Each is rebuilt, shifted back to p and divided by the scale."""
        if n < 0:
            raise ValueError("layer index must be nonnegative")
        layers, bridge = self._layers, self._bridge_counts
        residues = self._bridged(layers.primes, layers.layer(n, bridge.bound))
        signed = _Signed(residues, layers.primes)
        return [
            _rebuilt(cs, signed.degree, bridge.scale)
            for cs in signed.coefficients(np.ones(residues[0].shape[1:], dtype=bool))
        ]

    def connection(self, vertex: int, n: int) -> Polynomial:
        """Connection probability from the origin to (vertex, n), scaled by
        the squared normalizer."""
        if vertex not in self.graph.vertices:
            raise ValueError(f"vertex {vertex} not in graph")
        return self._connections(n)[self._bridge_counts.column[vertex]]

    def expected(self, n: int) -> Polynomial:
        """Expected number of infected vertices at layer n, scaled by the
        squared normalizer; the sum of the connection polynomials."""
        rows = self._connections(n)
        return poly_sum(rows[r] for r in self._bridge_counts.column)


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
    every lumped state its own orbit: the kernel's infected block, taken to
    the count basis at its largest entry degree, is the engine's block."""
    engine = Engine(graph)
    engine.initial, engine.stationary = initial, stationary
    engine.orbits = Orbits.trivial(kernel.states)
    infected = engine.infected_indices
    block = [[kernel.entries[y][x] for x in infected] for y in infected]
    degree = max(max((q.degree for row in block for q in row), default=0), 0)
    engine._counts = _nonnegative(_count_basis(block, degree).astype(np.int64))
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
    connection_certs = engine.connection_certificates(onset_cert.onset)
    witness = next(
        (
            {"vertex": v, "n": n, "certificate": cert.to_dict()}
            for n, row in enumerate(connection_certs)
            for v, cert in zip(graph.vertices, row)
            if cert.verdict not in NONNEGATIVE_VERDICTS
        ),
        None,
    )
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
