import json
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings

from layerchain import monotonicity
from layerchain.algebra import (
    Interval,
    NONNEGATIVE_VERDICTS,
    Polynomial,
    certify_sign,
    poly_sum,
)
from layerchain.analysis import initial_distribution, stationary_distribution
from layerchain.graphs import Graph, cycle, path
from layerchain.kernels import Orbits, build_lumped_kernel, build_reduced_kernel
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
from layerchain.patterns import Pattern, STAR
from layerchain.schemas import CONJECTURE_CERTIFICATE_SCHEMA, ONSET_CERTIFICATE_SCHEMA
from test_kernels import small_graphs

HALF = Fraction(1, 2)


def _per_state_engine(graph, initial, lumped, stationary):
    """An engine on given per-state stages, every lumped state its own
    orbit, as connection_polynomial builds one."""
    engine = Engine(graph)
    engine.initial, engine.kernel, engine.stationary = initial, lumped, stationary
    engine.orbits = Orbits.trivial(lumped.states)
    return engine


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
    step, _ = matrix_onset(lumped)
    assert step == 4


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
    _, stationary, lumped, _ = pipeline_c2
    engine = _per_state_engine(c2, pipeline_c3[3], lumped, stationary)
    with pytest.raises(ValueError):
        vector_onset(engine, 1, [])


def test_verify_steps_each_layer_once(monkeypatch, c2, c4):
    """The onset and the connection drops share the engine's layer weights:
    the four-cycle has matrix step 5, so its layers are stepped five times.
    Certification runs in-process, so a worker count other than 1 is
    refused."""
    steps = []
    advance = monotonicity._advance

    def counted(*args):
        steps.append(1)
        return advance(*args)

    monkeypatch.setattr(monotonicity, "_advance", counted)
    certificate = verify_conjecture(c4)
    assert certificate.onset_certificate.matrix_step == 5
    assert len(steps) == 5
    with pytest.raises(ValueError):
        verify_conjecture(c2, workers=2)


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
    stationary vector, onset, step certificates and connection drops.  The
    matrix step can only fall on orbits (it does on a star with the origin
    at its centre), and the step certificates it keeps are the same."""
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
    for n in range(on_orbits.onset + 1):
        for v in graph.vertices:
            assert engine.connection_drop(v, n) == reference.connection_drop(v, n)
    last = graph.vertex_count - 1
    assert engine.connection(last, 1) == connection_polynomial(
        graph, last, 1, initial, lumped, stationary
    )


def test_matrix_step_falls_on_the_orbits_of_a_star():
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert Engine(star).onset().matrix_step == 7
    assert matrix_onset(build_lumped_kernel(star))[0] == 8


def test_orbit_pipeline_on_the_four_cycle():
    engine = Engine(cycle(4))
    assert engine.reduced.size == 6  # 14 partitions
    assert engine.kernel.size == 24  # 36 lumped states
    onset = engine.onset()
    assert (onset.matrix_step, onset.onset) == (5, 4)
    assert len(onset.states) == 35 and len(onset.matrix_orbits) == 23
    assert Engine(path(4)).kernel.size == 36


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
