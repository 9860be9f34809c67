import json
import math
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings

from layerchain import kernels, monotonicity, residues
from layerchain.algebra import (
    Interval,
    NONNEGATIVE_VERDICTS,
    Polynomial,
    UNIT_OPEN,
    _eval_sign,
    _shift_basis,
    _sign_variations,
    certify_sign,
    poly_dot,
    poly_dot_table,
    poly_sum,
)
from layerchain.analysis import initial_distribution, stationary_distribution
from layerchain.graphs import Graph, cycle, path
from layerchain.kernels import (
    Orbits,
    PolyMatrix,
    bridge_reach_table,
    build_lumped_kernel,
    build_reduced_kernel,
)
from layerchain.monotonicity import (
    ConjectureCertificate,
    Engine,
    OnsetCertificate,
    PROVEN,
    connection_polynomial,
    degree_bound_report,
    expected_infected_polynomial,
    matrix_onset,
    vector_onset,
    verify_conjecture,
    verify_expected_count_monotonicity,
)
from layerchain.patterns import Pattern, PatternSpaceError, STAR
from layerchain.schemas import CONJECTURE_CERTIFICATE_SCHEMA, ONSET_CERTIFICATE_SCHEMA
from test_kernels import complete_graph, small_graphs

HALF = Fraction(1, 2)


def _per_state_engine(graph, initial, lumped, stationary):
    """An engine on given per-state stages, every lumped state its own
    orbit.  It counts its own block from the successor table, unlike
    connection_polynomial, which takes the given kernel's."""
    engine = Engine(graph)
    engine.initial, engine.stationary = initial, stationary
    engine.orbits = Orbits.trivial(lumped.states)
    return engine


def orbit_kernel(engine):
    """The lumped chain in p on the engine's orbits."""
    return build_lumped_kernel(engine.graph, engine.orbits)


def reference_weights(engine, steps):
    """The layer weights in p for layers 0..steps, one per state of each
    orbit, in orbit order: the orbit sums step through the lumped chain on
    the engine's orbits (PolyMatrix.vecmat), and orbit-mates share their
    orbit's sum equally, each share exact in Z[p]."""
    kernel, sizes = orbit_kernel(engine), engine.orbits.sizes
    weights = [[engine.initial.entries[members[0]] for members in engine.orbits.members]]
    for _ in range(steps):
        sums = kernel.vecmat([w * size for w, size in zip(weights[-1], sizes)])
        weights.append([q.exact_div(Polynomial((size,))) for q, size in zip(sums, sizes)])
    return weights


@pytest.fixture(scope="module")
def verify_c2(c2):
    return verify_conjecture(c2, label="cycle:2")


@pytest.fixture(scope="module")
def verify_c3(c3):
    return verify_conjecture(c3, label="cycle:3")


# ---------------------------------------------------------------------------
# Onset search.
# ---------------------------------------------------------------------------


def test_onset_values_for_small_cycles(verify_c2, verify_c3):
    assert verify_c2.onset_certificate.onset == 2
    assert verify_c3.onset_certificate.onset == 2


def test_matrix_step_dominates_onset(verify_c2, verify_c3):
    for cert in (verify_c2, verify_c3):
        onset = cert.onset_certificate
        assert onset.onset <= onset.matrix_step


def test_two_vertex_matrix_level_cross_entry(pipeline_c2):
    """The two-step vs three-step cross entry between the two singly infected
    states factors as p^3 (1-p)^3 (1+p) (1-2p), which changes sign at 1/2;
    this is what pushes the matrix-level step beyond the reported onset."""
    lumped = pipeline_c2[2]
    two = lumped @ lumped
    three = two @ lumped
    first = Pattern([(STAR, 0), (1,)])
    second = Pattern([(STAR, 1), (0,)])
    diff = two.entry(first, second) - three.entry(first, second)
    expected = (
        Polynomial((0, 0, 0, 1))
        * Polynomial((1, -1)) ** 3
        * Polynomial((1, 1))
        * Polynomial((1, -2))
    )
    assert diff == expected
    cert = certify_sign(diff, Interval(0, 1))
    assert cert.verdict == "changes-sign"
    # consequence: the matrix-level step for the two-vertex cycle is 4
    step, _ = matrix_onset(count_block(lumped))
    assert step == 4


def count_block(kernel):
    """The infected block of a kernel in p taken to the count basis,
    counts[t, y, x]: with w its largest entry degree, each entry q becomes
    M(x) = (1+x)^w q(x/(1+x)), one Taylor shift per entry.  The reference
    for Engine._counts, and matrix_onset's input for a kernel in p."""
    infected = [i for i, s in enumerate(kernel.states) if isinstance(s, Pattern)]
    block = [[kernel.entries[y][x] for x in infected] for y in infected]
    degree = max(max((q.degree for row in block for q in row), default=0), 0)
    return residues._count_basis(block, degree).astype(np.int64)


_REFERENCE_PROBES = tuple(Fraction(a, b) for a, b in ((1, 2), (1, 4), (3, 4), (1, 10), (9, 10)))


def reference_matrix_onset(kernel, cap=64):
    """The matrix onset by products of polynomial matrices in p: the
    difference of consecutive block powers, screened at five rationals and
    certified entry by entry on (0, 1)."""
    infected = [i for i, s in enumerate(kernel.states) if isinstance(s, Pattern)]
    block = PolyMatrix(
        tuple(kernel.states[i] for i in infected),
        tuple(tuple(kernel.entries[y][x] for x in infected) for y in infected),
    )
    current = PolyMatrix.identity(block.states)
    for step in range(cap + 1):
        following = current @ block
        diffs = [
            [a - b for a, b in zip(now, later)]
            for now, later in zip(current.entries, following.entries)
        ]
        flat = [d for row in diffs for d in row]
        if not any(_eval_sign(d.coeffs, x) < 0 for d in flat for x in _REFERENCE_PROBES):
            certs = [certify_sign(d, UNIT_OPEN) for d in flat]
            if all(c.verdict in NONNEGATIVE_VERDICTS for c in certs):
                n = block.size
                return step, [certs[i * n : (i + 1) * n] for i in range(n)]
        current = following
    raise monotonicity.OnsetCapExceeded(cap)


def reference_vector_onset(engine, matrix_step, matrix_certificates):
    """The vector onset in the p basis: exact layer weights
    (reference_weights), each drop certified on (0, 1).  Below the onset,
    each connection drop is the dot product of the layer's weight drop with
    the bridge row in p (reference_bridge) of the smallest vertex of its
    vertex orbit.  Returns the onset certificate and the connection
    certificates."""
    orbits = engine.orbits
    infected = engine.infected_indices
    drops, orbit_certs = [], []
    weights = reference_weights(engine, matrix_step)
    for n in range(matrix_step):
        now, later = weights[n], weights[n + 1]
        drops.append([now[i] - later[i] for i in infected])
        orbit_certs.append({i: certify_sign(d, UNIT_OPEN) for i, d in zip(infected, drops[-1])})
    states = [i for i, s in enumerate(orbits.states) if isinstance(s, Pattern)]
    position = {i: j for j, i in enumerate(states)}
    step_certs = [[certs[orbits.orbit_of[i]] for i in states] for certs in orbit_certs]
    onset = max(
        (n + 1 for n, row in enumerate(step_certs) if not all(c.nonnegative for c in row)),
        default=0,
    )
    certificate = OnsetCertificate(
        graph=engine.label,
        states=[str(orbits.states[i]) for i in states],
        matrix_step=matrix_step,
        onset=onset,
        step_certificates=step_certs,
        matrix_orbits=[[position[i] for i in orbits.members[o]] for o in infected],
        matrix_certificates=matrix_certificates,
    )
    representative = [min(perm[v] for perm in orbits.group) for v in engine.graph.vertices]
    distinct = sorted(set(representative))
    bridge = reference_bridge(engine)
    rows = [bridge[r] for r in distinct]
    connection = []
    for n in range(onset):
        by_vertex = dict(zip(distinct, poly_dot_table([drops[n]], rows)[0]))
        connection.append([certify_sign(by_vertex[r], UNIT_OPEN) for r in representative])
    return certificate, connection


def _onset_dict(result):
    step, certs = result
    return step, [[c.to_dict() for c in row] for row in certs]


@settings(max_examples=12)  # each example runs both onsets on two kernels
@given(small_graphs())
def test_matrix_onset_matches_the_product_reference(graph):
    """The count-basis onset, with its powers modulo word primes, gives the
    step and certificates of the polynomial-matrix products, per state and
    on orbits."""
    for kernel in (build_lumped_kernel(graph), orbit_kernel(Engine(graph))):
        result = matrix_onset(count_block(kernel))
        assert _onset_dict(result) == _onset_dict(reference_matrix_onset(kernel))


def test_matrix_onset_cases_match_the_reference(monkeypatch, c2):
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    cases = [
        (orbit_kernel(Engine(star)), 7),
        (build_lumped_kernel(star), 8),
        (orbit_kernel(Engine(c2)), 4),
        (orbit_kernel(Engine(path(4))), 8),
    ]
    primes = []
    real = residues._PowerModPrime

    def spy(q, counts):
        primes.append(q)
        return real(q, counts)

    monkeypatch.setattr(residues, "_PowerModPrime", spy)  # the power steppers
    for kernel, step in cases:
        primes.clear()
        result = matrix_onset(count_block(kernel))
        used = list(primes)
        assert result[0] == step
        assert _onset_dict(result) == _onset_dict(reference_matrix_onset(kernel))
        with pytest.raises(monotonicity.OnsetCapExceeded) as caught:
            matrix_onset(count_block(kernel), step - 1)
        assert caught.value.cap == step - 1
    # path:4's bound at step 8 needs three distinct primes below 2^31
    assert len(set(used)) == 3 and all(q < 2**31 for q in used)
    counts = count_block(kernel)
    w, total = len(counts) - 1, int(counts.sum(axis=(0, 2)).max())
    bound = 2**w * total**8 + total**9
    assert math.prod(used[:-1]) <= 2 * bound < math.prod(used)


def _difference(layers, w, q):
    """(1+x)^w L_n - L_(n+1) modulo q for consecutive layers L_n, given as
    coefficient stacks modulo q of growing length: one int64 stack
    d[t, n, ...] over all but the last layer, zero past each degree.  The
    reference for the drops that _CountLayers steps directly.

    Each multiplication by 1 + x at most doubles the largest entry, so
    entries stay below 2^20 q < 2^51 between reductions."""
    d = np.zeros((len(layers[-1]), len(layers) - 1) + layers[-1].shape[1:])
    for n, now in enumerate(layers[:-1]):
        d[: len(now), n] = now
    for j, k in enumerate(range(len(layers[-2]), len(layers[-2]) + w)):
        d[1 : k + 1] += d[:k]  # times 1 + x
        if j % 20 == 19:
            residues._reduce(d, q)
    for n, later in enumerate(layers[1:]):
        d[: len(later), n] -= later
    d += q
    residues._reduce(d, q)
    return d.astype(np.int64)


def test_powers_read_once_hold_one_layer_and_match_kept_layers():
    """Without keep, the stepper that matrix_onset reads one drop at a time
    from, seeded with F = (1+x)^w I - M, holds one layer per prime between
    reads, also for primes taken late, and its layers are those of a
    stepper that keeps every layer."""
    counts = count_block(orbit_kernel(Engine(cycle(4))))
    seed = monotonicity._drop_factor(counts)
    kept = residues._CountLayers(seed, counts, keep=True)
    read = residues._CountLayers(seed, counts, keep=False)
    steps = 5
    every = kept.stack(steps)
    taken = []
    for n in range(steps):
        layers = read.layer(n)
        taken.append(len(read.primes))
        assert all(sum(x is not None for x in held) == 1 for _, held in read.layers)
        for layer, full in zip(layers, every):
            assert layer.dtype == np.int64 and len(layer) == read.degree(n) + 1
            assert np.array_equal(layer, full[: len(layer), n])
            assert not full[len(layer) :, n].any()
    assert taken[0] < taken[-1] and read.primes == kept.primes


class _ReadLayers(residues._CountLayers):
    """A stepper that records every layer read and itself in made."""

    made: list = []

    def __init__(self, *args, **keywords):
        super().__init__(*args, **keywords)
        self.reads = []
        self.made.append(self)

    def layer(self, n, later=1):
        self.reads.append(super().layer(n, later))
        return self.reads[-1]


@settings(max_examples=12)  # each example runs the matrix onset and four drop steps
@given(small_graphs())
def test_drop_steppers_match_the_difference_of_layers(graph):
    """Per prime, the layers of Engine._drops are the drops
    (1+x)^w T_n - T_(n+1) of the layers of Engine._layers, and the layers
    matrix_onset reads off its stepper, seeded with F = (1+x)^w I - M, are
    the drops of the powers of M stepped from the identity (_difference)."""
    engine = Engine(graph)
    w, steps = len(engine._counts) - 1, 4
    drops, layers = engine._drops, engine._layers
    stacked = drops.stack(steps)
    layers.layer(steps, drops.bound(steps - 1))  # covers the primes of the drops
    assert layers.primes[: len(drops.primes)] == drops.primes
    reads = [layers.layer(n) for n in range(steps + 1)]
    for k, q in enumerate(drops.primes):
        assert np.array_equal(stacked[k], _difference([read[k] for read in reads], w, q))
    _ReadLayers.made.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monotonicity, "_CountLayers", _ReadLayers)
        matrix_onset(engine._counts)
    [seeded] = _ReadLayers.made
    identity = np.eye(engine._counts.shape[1], dtype=np.int64)[None]
    powers = residues._CountLayers(identity, engine._counts, keep=True)
    powers.layer(len(seeded.reads), seeded.bound(len(seeded.reads) - 1))
    assert powers.primes[: len(seeded.primes)] == seeded.primes
    for n, read in enumerate(seeded.reads):
        for k, q in enumerate(seeded.primes[: len(read)]):
            both = [powers.layer(m)[k] for m in (n, n + 1)]
            assert np.array_equal(read[k], _difference(both, w, q)[:, 0])


def test_matrix_onset_rejects_a_negative_count():
    """1 - 2p is (1 - x)/(1 + x) at p = x/(1+x): not a count polynomial.
    connection_polynomial takes a given kernel's block to the count basis
    and refuses it too, before it reads any other stage."""
    state = Pattern([(STAR, 0)])
    kernel = PolyMatrix((state,), ((Polynomial((1, -2)),),))
    with pytest.raises(ValueError):
        matrix_onset(count_block(kernel))
    with pytest.raises(ValueError, match="negative count"):
        connection_polynomial(Graph(1, ()), 0, 0, None, kernel, None)


def test_onset_certificate_validates(verify_c2, verify_c3):
    for cert in (verify_c2, verify_c3):
        cert.onset_certificate.validate()
        jsonschema.validate(cert.onset_certificate.to_dict(), ONSET_CERTIFICATE_SCHEMA)


def test_onset_step_below_has_failure(verify_c2):
    onset = verify_c2.onset_certificate
    assert onset.onset == 2
    failing = onset.step_certificates[1]
    assert any(c.verdict not in NONNEGATIVE_VERDICTS for c in failing)


def test_vector_onset_rejects_mismatched_states(c2, pipeline_c2, pipeline_c3):
    """Stages on different state spaces are refused: by vector_onset, and
    by connection_polynomial whether its kernel or its initial
    distribution is the other graph's."""
    _, stationary, lumped, initial = pipeline_c2
    engine = _per_state_engine(c2, pipeline_c3[3], lumped, stationary)
    with pytest.raises(ValueError):
        vector_onset(engine, 1, [])
    with pytest.raises(ValueError, match="different state spaces"):
        connection_polynomial(c2, 1, 2, initial, pipeline_c3[2], stationary)
    with pytest.raises(ValueError, match="different state spaces"):
        connection_polynomial(c2, 1, 2, pipeline_c3[3], lumped, stationary)


def test_verify_makes_no_exact_layer_step(monkeypatch, c2, c4):
    """verify_conjecture reads every layer drop and connection drop in the
    count basis modulo word primes, and connection and expected read their
    polynomials off the count-basis layers, so none of them steps a layer
    exactly: the only vector times a chain in p (PolyMatrix.vecmat) is the
    check of the stationary vector of the connectivity chain, and the one
    exact count-basis product is the seed of the drop stepper, the first
    drop D_0 = (1+x)^w T_0 - T_0 M = T_0 F, so verify's only Kronecker dot
    tables (_dot_table) are that seed's T_0 F and the bridge rows.  Only a drop
    whose count-basis coefficients have mixed signs reaches certify_sign.
    The count-basis block and bridge rows are configuration counts: none of
    them builds the lumped chain in p (build_lumped_kernel), verify weighs
    configurations into p (weigh_configs) only for the cells of the
    connectivity chain, whose stationary vector is solved in p, and no
    kernel entry is taken to the count basis: _count_basis sees only the
    row of initial orbit totals and the row of stationary entries.
    Certification runs in-process, so a worker count other than 1 is
    refused."""
    reduced = Engine(c4).reduced.size
    cells = reduced**2
    calls = {name: [] for name in ("vecmat", "certify", "lumped", "weigh", "basis", "dot")}

    def spy(module, attr, name):
        real = getattr(module, attr)

        def counted(*args):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(module, attr, counted)

    spy(kernels.PolyMatrix, "vecmat", "vecmat")
    spy(monotonicity, "certify_sign", "certify")
    spy(monotonicity, "build_lumped_kernel", "lumped")
    spy(kernels, "build_lumped_kernel", "lumped")
    spy(kernels, "weigh_configs", "weigh")
    spy(monotonicity, "_count_basis", "basis")
    spy(monotonicity, "_dot_table", "dot")
    certificate = verify_conjecture(c4)
    assert certificate.onset_certificate.matrix_step == 5
    assert calls["lumped"] == []
    assert [kernel.size for kernel, _ in calls["vecmat"]] == [reduced]
    assert sum(len(counts) for counts, in calls["weigh"]) == cells
    assert [len(polys) for polys, _ in calls["basis"]] == [1, 1]
    # a one-signed count basis at the polynomial's own degree stays one-signed
    # at every higher degree
    certified = [q for q, _ in calls["certify"]]
    assert certified
    assert all(_sign_variations(_shift_basis(q.coeffs, q.degree, 1)) for q in certified)
    # the seed: the row of initial orbit totals against the columns of
    # F = (1+x)^w I - M; the bridge rows: the row of distinct stationary entries
    engine = Engine(c4)
    factor = monotonicity._drop_factor(engine._counts).transpose(2, 1, 0).tolist()
    seed = ([engine._layers.start[:, 0].T.tolist()], factor)
    [bridge] = [args for args in calls["dot"] if args != seed]
    assert len(calls["dot"]) == 2 and len(bridge[0][0]) == len(set(engine.stationary.entries))
    for read in (lambda engine: engine.connection(1, 3), lambda engine: engine.expected(3)):
        for name in ("vecmat", "basis", "dot"):
            calls[name].clear()
        read(Engine(c4))
        assert calls["lumped"] == []
        assert [kernel.size for kernel, _ in calls["vecmat"]] == [reduced]
        assert [len(polys) for polys, _ in calls["basis"]] == [1, 1]
        assert len(calls["dot"]) == 1  # the bridge rows
    with pytest.raises(ValueError):
        verify_conjecture(c2, workers=2)


def test_connection_drops_read_one_bridge_row_per_vertex_orbit(c4):
    """On the four-cycle the reflection fixing the origin swaps 1 and 3, so
    the connection certificates take the count-basis bridge rows of three
    vertex orbits, and each layer's certificates are those of the exact
    connection drops."""
    engine = Engine(c4)
    onset = engine.onset().onset
    bridge = engine._bridge_counts
    assert onset == 4
    assert bridge.counts.shape[2] == 3 and bridge.column == [0, 1, 2, 1]
    certificates = engine.connection_certificates(onset)
    assert len(certificates) == onset
    for n, row in enumerate(certificates):
        exact = [engine.connection(v, n) - engine.connection(v, n + 1) for v in c4.vertices]
        assert exact[1] == exact[3]
        assert row == [certify_sign(drop, UNIT_OPEN) for drop in exact]


def test_probability_drop_sums_to_zero(pipeline_c2, pipeline_c3):
    """Total probability is conserved: the drop summed over every state
    (including the absorbing class) is the zero polynomial."""
    for pipeline in (pipeline_c2, pipeline_c3):
        _, _, lumped, initial = pipeline
        weights = list(initial.entries)
        for _ in range(4):
            advanced = [
                poly_sum(weights[i] * lumped.entries[i][j] for i in range(lumped.size))
                for j in range(lumped.size)
            ]
            drop = poly_sum(w - a for w, a in zip(weights, advanced))
            assert drop.is_zero
            weights = advanced


# ---------------------------------------------------------------------------
# Connection polynomials.
# ---------------------------------------------------------------------------


def test_connection_origin_layer_zero_is_certain(c2, pipeline_c2):
    _, stationary, lumped, initial = pipeline_c2
    poly = connection_polynomial(c2, 0, 0, initial, lumped, stationary)
    assert poly == stationary.normalizer * stationary.normalizer


def test_connection_vanishes_at_p_zero(c2, pipeline_c2):
    _, stationary, lumped, initial = pipeline_c2
    for n in (0, 1, 2):
        poly = connection_polynomial(c2, 1, n, initial, lumped, stationary)
        assert poly(0) == 0


def test_connection_monotone_beyond_onset(c2, c3, pipeline_c2, pipeline_c3, verify_c2, verify_c3):
    """Pattern monotonicity implies connection monotonicity: check the
    per-vertex drops directly at the onset step and the one after."""
    cases = [(c2, pipeline_c2, verify_c2), (c3, pipeline_c3, verify_c3)]
    for graph, pipeline, cert in cases:
        _, stationary, lumped, initial = pipeline
        onset = cert.onset_certificate.onset
        for n in (onset, onset + 1):
            for v in graph.vertices:
                now = connection_polynomial(graph, v, n, initial, lumped, stationary)
                later = connection_polynomial(graph, v, n + 1, initial, lumped, stationary)
                verdict = certify_sign(now - later, Interval(0, 1)).verdict
                assert verdict in NONNEGATIVE_VERDICTS


def test_expected_count_endpoints(c2, pipeline_c2):
    stationary = pipeline_c2[1]
    scale0 = Fraction(stationary.normalizer(0)) ** 2
    scale1 = Fraction(stationary.normalizer(1)) ** 2
    for n in (0, 1, 2):
        poly = expected_infected_polynomial(c2, n)
        assert poly(0) == (scale0 if n == 0 else 0)
        assert poly(1) == 2 * scale1
    with pytest.raises(ValueError):
        expected_infected_polynomial(c2, -1)


def test_conjecture_proven_for_small_cycles(verify_c2, verify_c3):
    assert verify_c2.verdict == PROVEN
    assert verify_c3.verdict == PROVEN
    for cert in (verify_c2, verify_c3):
        cert.validate()
        jsonschema.validate(cert.to_dict(), CONJECTURE_CERTIFICATE_SCHEMA)


def test_certificate_json_round_trip_bit_exact(verify_c2):
    first = json.dumps(verify_c2.to_dict(), sort_keys=True)
    again = ConjectureCertificate.from_dict(json.loads(first))
    assert json.dumps(again.to_dict(), sort_keys=True) == first


def test_onset_certificate_round_trip(verify_c3):
    onset = verify_c3.onset_certificate
    data = json.loads(json.dumps(onset.to_dict(), sort_keys=True))
    again = OnsetCertificate.from_dict(data)
    assert again.to_dict() == onset.to_dict()


def test_onset_certificate_rejects_bad_matrix_orbits(verify_c3):
    onset = verify_c3.onset_certificate
    n = len(onset.matrix_orbits)
    assert 0 < n < len(onset.states)  # the origin's stabilizer swaps 1 and 2
    for orbits, grid in (
        (onset.matrix_orbits[1:], onset.matrix_certificates),  # misses states
        (onset.matrix_orbits + [[0]], onset.matrix_certificates),  # repeats a state
        (onset.matrix_orbits, onset.matrix_certificates[1:]),  # not square
        (onset.matrix_orbits, [row[1:] for row in onset.matrix_certificates]),
    ):
        data = onset.to_dict()
        data["matrix_orbits"] = orbits
        data["matrix_certificates"] = [[c.to_dict() for c in row] for row in grid]
        with pytest.raises(ValueError):
            OnsetCertificate.from_dict(data).validate()


# ---------------------------------------------------------------------------
# Bounded-degree arithmetic.
# ---------------------------------------------------------------------------


def test_degree_bound_report_fixtures():
    rows = degree_bound_report(5)
    assert rows[2]["p"] == Fraction(5, 17)
    for delta in range(5):
        assert rows[delta]["g_le_1"], rows[delta]
    assert rows[5]["h_le_1"]
    assert rows[0]["g"] == Fraction(5, 7)


def test_degree_bound_majorant_decreasing():
    rows = degree_bound_report(50)
    values = [row["h"] for row in rows[5:]]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_expected_count_monotone_on_small_p_interval(c2):
    certs = verify_expected_count_monotonicity(c2, 4, delta=2)
    assert len(certs) == 5
    for cert in certs:
        assert cert.nonnegative
        assert cert.interval.hi == Fraction(5, 17)
        assert cert.interval.closed_hi


def test_expected_count_monotone_first_step_full_interval(c3):
    engine_certs = verify_expected_count_monotonicity(c3, 0)
    assert engine_certs[0].nonnegative
    first = expected_infected_polynomial(c3, 0)
    second = expected_infected_polynomial(c3, 1)
    assert certify_sign(first - second, Interval(0, 1)).verdict in NONNEGATIVE_VERDICTS


# ---------------------------------------------------------------------------
# The orbit pipeline against the per-state builders.
# ---------------------------------------------------------------------------

CAP = 24


@settings(max_examples=12)  # each example runs the onset twice, on orbits and per state
@given(small_graphs())
def test_orbit_pipeline_matches_per_state_builders(graph):
    """The engine lumps both chains onto automorphism orbits; the trivial
    group, through the public per-state builders, must give the same
    stationary vector, onset, step certificates, connection certificates
    and exact connection polynomials up to one layer past the onset, and
    those polynomials and the expected counts are the dot products of the
    layer weights and the bridge in p.  The matrix step can only fall on
    orbits (it does on a star with the origin at its centre), and the step
    certificates it keeps are the same."""
    engine = Engine(graph)
    reduced = build_reduced_kernel(graph)
    stationary = stationary_distribution(reduced)
    assert engine.stationary == stationary
    lumped = build_lumped_kernel(graph)
    initial = initial_distribution(stationary, graph)
    assert engine.initial == initial
    reference = _per_state_engine(graph, initial, lumped, stationary)
    per_state = reference.onset(CAP)
    on_orbits = engine.onset(CAP)
    assert on_orbits.matrix_step <= per_state.matrix_step
    assert on_orbits.onset == per_state.onset
    assert on_orbits.states == per_state.states
    kept = per_state.step_certificates[: on_orbits.matrix_step]
    assert on_orbits.step_certificates == kept
    steps = on_orbits.onset + 1
    assert engine.connection_certificates(steps) == reference.connection_certificates(steps)
    weights, bridge = reference_weights(engine, steps), reference_bridge(engine)
    for n in range(steps + 1):
        exact = [
            poly_dot([weights[n][i] for i in engine.infected_indices], bridge[v])
            for v in graph.vertices
        ]
        assert [engine.connection(v, n) for v in graph.vertices] == exact
        assert [reference.connection(v, n) for v in graph.vertices] == exact
        assert engine.expected(n) == poly_sum(exact)
    last = graph.vertex_count - 1
    assert engine.connection(last, 1) == connection_polynomial(
        graph, last, 1, initial, lumped, stationary
    )


def reference_bridge(engine):
    """The bridge in p: for each vertex, the vertical configurations linking
    it weighed into p^n (1-p)^(k-n), one Kronecker dot product with the
    stationary entries per vertex, summed over the carriers of each
    infected orbit."""
    graph, orbits = engine.graph, engine.orbits
    k = graph.vertex_count
    infected = engine.infected_indices
    uppers = engine.stationary.states
    reach = bridge_reach_table(graph, [orbits.representatives[i] for i in infected], uppers)
    opens = np.bitwise_count(np.arange(1 << k))
    weights = kernels._weight_matrix(k)
    linked = []
    for v in range(k):
        counts = [
            [np.bincount(opens[cell >> v & 1 == 1], minlength=k + 1) for cell in row]
            for row in reach
        ]
        vertical = [[Polynomial((c @ weights).tolist()) for c in row] for row in counts]
        linked.append(poly_dot_table([list(engine.stationary.entries)], vertical)[0])
    return [
        [
            poly_sum(linked[perm.index(v)][i] for perm in orbits.carriers[o])
            for i, o in enumerate(infected)
        ]
        for v in range(k)
    ]


@settings(max_examples=12)  # each example builds both on two engines
@given(small_graphs())
def test_counted_block_and_bridge_rows_match_the_p_basis(graph):
    """The count-basis block counted from the successor table is the block
    count_block takes from the lumped chain in p, and the count-basis
    bridge rows counted from the bridge reach table are _count_basis of the
    bridge rows in p at their own degree, with the same scale, columns and
    bound.  On orbits and per state."""
    stationary = stationary_distribution(build_reduced_kernel(graph))
    lumped = build_lumped_kernel(graph)
    initial = initial_distribution(stationary, graph)
    for engine in (Engine(graph), _per_state_engine(graph, initial, lumped, stationary)):
        block = count_block(orbit_kernel(engine))
        assert engine._counts.dtype == block.dtype and np.array_equal(engine._counts, block)
        bridge = reference_bridge(engine)
        representative = [min(perm[v] for perm in engine.orbits.group) for v in graph.vertices]
        distinct = sorted(set(representative))
        scale = math.lcm(*engine._sizes)
        rows = [
            [bridge[r][i] * (scale // size) for r in distinct]
            for i, size in enumerate(engine._sizes)
        ]
        counts = residues._count_basis(rows, max(max(q.degree for row in rows for q in row), 0))
        counted = engine._bridge_counts
        assert counted.counts.shape == counts.shape and (counted.counts == counts).all()
        assert counted.scale == scale
        assert counted.column == [distinct.index(r) for r in representative]
        assert counted.bound == int(np.abs(counts).sum(axis=0).max())


@settings(max_examples=12)  # each example runs both paths on two engines
@given(small_graphs())
def test_vector_onset_matches_the_p_basis_reference(graph):
    """The count-basis layer drops modulo word primes give the step
    certificates, onset and connection certificates of exact layer weights
    in p, on orbits and per state."""
    stationary = stationary_distribution(build_reduced_kernel(graph))
    lumped = build_lumped_kernel(graph)
    initial = initial_distribution(stationary, graph)
    for engine in (Engine(graph), _per_state_engine(graph, initial, lumped, stationary)):
        step, matrix_certs = matrix_onset(count_block(orbit_kernel(engine)), CAP)
        onset = vector_onset(engine, step, matrix_certs)
        reference, connection = reference_vector_onset(engine, step, matrix_certs)
        assert onset.to_dict() == reference.to_dict()
        assert engine.connection_certificates(onset.onset) == connection


def test_vector_onset_takes_the_primes_its_bounds_ask_for(monkeypatch):
    """On path:4 the layer drops below matrix step 8, the layers of the
    engine's drop stepper, need five primes below the engine's limit, and
    the connection drops below onset 6 two more; the primes are taken
    largest first, each once."""
    engine = Engine(path(4))
    step, matrix_certs = matrix_onset(count_block(orbit_kernel(engine)))
    primes = []
    real = residues._PowerModPrime

    def spy(q, counts):
        primes.append(q)
        return real(q, counts)

    monkeypatch.setattr(residues, "_PowerModPrime", spy)  # the layer steppers
    onset = vector_onset(engine, step, matrix_certs)
    drops = engine._drops
    assert (onset.matrix_step, onset.onset) == (8, 6)
    bound = drops.bound(onset.matrix_step - 1)
    assert len(primes) == 5 and primes == drops.primes
    assert math.prod(primes[:-1]) <= 2 * bound < math.prod(primes)
    # the bridge product sums 35 infected orbits times 50 coefficients
    assert primes == sorted(primes, reverse=True) and primes[0] < math.isqrt(2**52 // (35 * 50))
    engine.connection_certificates(onset.onset)
    bound = drops.bound(onset.onset - 1) * engine._bridge_counts.bound
    assert len(primes) == 7 and len(set(primes)) == 7
    assert math.prod(primes[:-1]) <= 2 * bound < math.prod(primes)


def test_layer_reads_take_the_primes_their_bound_asks_for(monkeypatch):
    """On a fresh path:4 engine, connection(3, 9) reads layer 9 modulo
    primes taken largest first, each once, until their product passes
    twice l1 S^9 times the bridge bound: l1 the absolute coefficient sum of
    the row of initial orbit totals, S the largest row total of the block.
    The bridge products' factors are not counted."""
    engine = Engine(path(4))
    primes = []
    real = residues._PowerModPrime

    def spy(q, counts):
        primes.append(q)
        return real(q, counts)

    monkeypatch.setattr(residues, "_PowerModPrime", spy)  # the layer steppers
    engine.connection(3, 9)
    l1 = int(np.abs(engine._layers.start).sum())
    total = int(engine._counts.sum(axis=(0, 2)).max())
    bound = l1 * total**9 * engine._bridge_counts.bound
    assert primes == engine._layers.primes and len(set(primes)) == len(primes) == 8
    assert primes == sorted(primes, reverse=True) and primes[0] < math.isqrt(2**52 // (35 * 50))
    assert math.prod(primes[:-1]) <= 2 * bound < math.prod(primes)


class _AllMixed(monotonicity._Signed):
    """Marks every entry as having coefficients of both signs."""

    def __init__(self, stacks, primes):
        super().__init__(stacks, primes)
        self.has_negative = self.has_positive = np.ones_like(self.has_negative)


def test_rebuilt_drops_are_the_exact_drops(monkeypatch):
    """Every layer and connection drop rebuilt from its residues (Garner,
    back to p, divided by its orbit size or the bridge scale) is the exact
    drop, and certifies as in the p-basis reference: certify_sign sees each
    entry with mixed signs once, in order, and nothing else.  No graph with
    at most four vertices has a connection drop with mixed signs, so the
    rebuild is forced for every entry, on cycle:4 and on the star with the
    origin on a leaf (orbits of two states, bridge scale 2)."""
    for graph in (cycle(4), Graph(4, ((0, 1), (0, 2), (0, 3)), 1)):
        engine = Engine(graph)
        step, matrix_certs = matrix_onset(count_block(orbit_kernel(engine)))
        reference, connection = reference_vector_onset(engine, step, matrix_certs)
        certified = []
        real = monotonicity.certify_sign

        def spy(q, interval):
            certified.append((q, interval))
            return real(q, interval)

        with monkeypatch.context() as patch:
            patch.setattr(monotonicity, "_Signed", _AllMixed)
            patch.setattr(monotonicity, "certify_sign", spy)
            onset = vector_onset(engine, step, matrix_certs)
            layer = list(certified)
            certified.clear()
            rebuilt = engine.connection_certificates(onset.onset)
        assert engine._bridge_counts.scale == 2
        assert onset.to_dict() == reference.to_dict()
        assert rebuilt == connection
        weights = reference_weights(engine, step)
        assert layer == [
            (weights[n][i] - weights[n + 1][i], UNIT_OPEN)
            for n in range(step)
            for i in engine.infected_indices
        ]
        columns = sorted(set(min(perm[v] for perm in engine.orbits.group) for v in graph.vertices))
        assert certified == [
            (engine.connection(v, n) - engine.connection(v, n + 1), UNIT_OPEN)
            for n in range(onset.onset)
            for v in columns
        ]


def test_matrix_step_falls_on_the_orbits_of_a_star():
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert Engine(star).onset().matrix_step == 7
    assert matrix_onset(count_block(build_lumped_kernel(star)))[0] == 8


def test_orbit_pipeline_on_the_four_cycle():
    engine = Engine(cycle(4))
    assert engine.reduced.size == 6  # 14 partitions
    assert orbit_kernel(engine).size == 24  # 36 lumped states
    onset = engine.onset()
    assert (onset.matrix_step, onset.onset) == (5, 4)
    assert len(onset.states) == 35 and len(onset.matrix_orbits) == 23
    assert orbit_kernel(Engine(path(4))).size == 36


@settings(max_examples=10)  # each example is one verify_conjecture
@given(small_graphs())
def test_certificates_round_trip_through_the_schema(graph):
    certificate = verify_conjecture(graph, CAP)
    text = certificate.to_json()
    again = ConjectureCertificate.from_dict(json.loads(text))
    again.validate()
    jsonschema.validate(json.loads(text), CONJECTURE_CERTIFICATE_SCHEMA)
    assert again.to_json() == text
    onset = certificate.onset_certificate
    if onset is not None:
        text = json.dumps(onset.to_dict(), sort_keys=True)
        again = OnsetCertificate.from_dict(json.loads(text))
        again.validate()
        jsonschema.validate(json.loads(text), ONSET_CERTIFICATE_SCHEMA)
        assert json.dumps(again.to_dict(), sort_keys=True) == text


def test_engine_checks_the_guard_before_automorphisms(monkeypatch):
    # K12 is within the vertex guard but has 12! automorphisms and 78 bonds
    def refuse(graph, fix_origin):
        raise AssertionError("automorphisms searched")

    monkeypatch.setattr(monotonicity, "automorphisms", refuse)
    with pytest.raises(PatternSpaceError) as info:
        Engine(complete_graph(12)).core
    assert info.value.code == "enumeration-guard"
