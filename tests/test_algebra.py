import random
from fractions import Fraction

import pytest
import sympy

from layerchain.algebra import (
    CHANGES_SIGN,
    ExactDivisionError,
    IDENTICALLY_ZERO,
    Interval,
    NEGATIVE,
    NONNEGATIVE,
    ONE,
    P,
    POSITIVE,
    Polynomial,
    SignCertificate,
    certify_sign,
    poly_dot,
    poly_gcd,
    poly_sum,
    root_count,
)

ONE_MINUS_P = Polynomial((1, -1))


def to_sympy(q: Polynomial) -> sympy.Poly:
    return sympy.Poly(list(reversed(q.coeffs)), sympy.Symbol("x"))


def rand_poly(rng, max_degree=8, bound=6):
    return Polynomial([rng.randint(-bound, bound) for _ in range(rng.randint(1, max_degree + 1))])


# ---------------------------------------------------------------------------
# Ring operations.
# ---------------------------------------------------------------------------


def test_expand_markov_normalizer_factor():
    # first entry of the two-state stationary vector, expanded
    assert ONE_MINUS_P * Polynomial((1, 0, -1)) == Polynomial((1, -1, -1, 1))


def test_multiplicative_identity():
    q = Polynomial((3, 5, -7))
    assert q * ONE == q


def test_expand_self_loop_entry():
    # p^2 (3 - 2p) as it appears in the two-vertex lumped kernel
    assert Polynomial((0, 0, 1)) * Polynomial((3, -2)) == Polynomial((0, 0, 3, -2))


def test_degree_bounds_on_ring_ops():
    rng = random.Random(1)
    for _ in range(50):
        a, b = rand_poly(rng), rand_poly(rng)
        if not a.is_zero and not b.is_zero:
            assert (a * b).degree == a.degree + b.degree
        assert (a + b).degree <= max(a.degree, b.degree)


def test_exact_division_and_failure():
    a = Polynomial((1, 2, 1))
    b = Polynomial((1, 1))
    assert a.exact_div(b) == b
    with pytest.raises(ExactDivisionError):
        Polynomial((1, 0, 1)).exact_div(b)


def test_power_and_neg():
    assert ONE_MINUS_P**3 == Polynomial((1, -3, 3, -1))
    assert -(P - ONE) == ONE_MINUS_P


def test_poly_sum_and_dot():
    rng = random.Random(2)
    polys = [rand_poly(rng) for _ in range(10)]
    acc = Polynomial()
    for q in polys:
        acc = acc + q
    assert poly_sum(polys) == acc
    left = [rand_poly(rng) for _ in range(4)]
    right = [rand_poly(rng) for _ in range(4)]
    expected = Polynomial()
    for a, b in zip(left, right):
        expected = expected + a * b
    assert poly_dot(left, right) == expected


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def test_eval_cubic_at_half():
    # 3/4 - 2/8 by direct rational arithmetic
    assert Polynomial((0, 0, 3, -2))(Fraction(1, 2)) == Fraction(1, 2)


def test_eval_at_zero_is_constant_term():
    q = Polynomial((5, 2, -1))
    assert q(0) == 5


def test_eval_one_minus_p_at_one():
    assert ONE_MINUS_P(1) == 0


def test_eval_rejects_floats():
    with pytest.raises(TypeError):
        Polynomial((0.5, 1))
    with pytest.raises(TypeError):
        P(0.5)


def test_coefficients_and_scalars_are_integers():
    for bad in (Fraction(1, 3), Fraction(2, 1), 0.5):
        with pytest.raises(TypeError):
            Polynomial((1, bad))
        with pytest.raises(TypeError):
            P * bad
        with pytest.raises(TypeError):
            bad * P
    with pytest.raises(ValueError):
        Polynomial.from_strings(["1/3"])
    assert P * True == P and Polynomial((True, 2)) == Polynomial((1, 2))


# ---------------------------------------------------------------------------
# Root counting.
# ---------------------------------------------------------------------------


def test_root_count_endpoint_roots_excluded():
    assert root_count(P * ONE_MINUS_P, 0, 1) == 0


def test_root_count_double_root_counted_once():
    assert root_count(Polynomial((-1, 2)) ** 2, 0, 1) == 1


def test_root_count_cubic():
    # p^3 - p = p (p-1) (p+1): roots -1, 0, 1
    assert root_count(Polynomial((0, -1, 0, 1)), -2, 2) == 3


def test_root_count_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        root_count(Polynomial(), 0, 1)


def test_root_count_matches_sympy():
    rng = random.Random(7)
    for _ in range(150):
        q = rand_poly(rng)
        if q.is_zero:
            continue
        expected = to_sympy(q).count_roots(-3, 3)
        for endpoint in (Fraction(-3), Fraction(3)):
            if q(endpoint) == 0:
                expected -= 1
        assert root_count(q, -3, 3) == expected


def test_root_count_additivity():
    rng = random.Random(11)
    done = 0
    while done < 60:
        q = rand_poly(rng)
        if q.is_zero:
            continue
        a, b, c = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(3))
        if not (a < b < c) or q(a) == 0 or q(c) == 0:
            continue
        total = root_count(q, a, c)
        split = root_count(q, a, b) + root_count(q, b, c) + (q(b) == 0)
        assert split == total, (q.coeffs, a, b, c)
        done += 1


def test_gcd_exact_divides():
    rng = random.Random(13)
    for _ in range(60):
        q = rand_poly(rng)
        if q.degree < 1:
            continue
        derivative = Polynomial([i * c for i, c in enumerate(q.coeffs)][1:])
        g = poly_gcd(q, derivative)
        _, rem = sympy.div(to_sympy(q), to_sympy(g), domain=sympy.QQ)
        assert rem.is_zero
        assert q.exact_div(g) * g == q


# ---------------------------------------------------------------------------
# Sign certification.
# ---------------------------------------------------------------------------


def test_certify_positive_despite_endpoint_roots():
    cert = certify_sign(P * ONE_MINUS_P, Interval(0, 1))
    assert cert.verdict == POSITIVE
    assert cert.witness is None


def test_certify_identically_zero():
    assert certify_sign(Polynomial(), Interval(0, 1)).verdict == IDENTICALLY_ZERO


def test_certify_sign_change_with_witness():
    cert = certify_sign(Polynomial((-1, 2)), Interval(0, 1))
    assert cert.verdict == CHANGES_SIGN
    assert cert.witness is not None
    assert cert.witness.lo < Fraction(1, 2) < cert.witness.hi


def test_certify_even_interior_zero():
    cert = certify_sign(Polynomial((-1, 2)) ** 2, Interval(0, 1))
    assert cert.verdict == NONNEGATIVE


def test_certify_negative():
    assert certify_sign(-P, Interval(0, 1)).verdict == NEGATIVE


def test_certify_included_endpoint_zero_demotes_positive():
    cert = certify_sign(P, Interval(0, 1, closed_lo=True))
    assert cert.verdict == NONNEGATIVE
    cert = certify_sign(P, Interval(0, 1, closed_hi=True))
    assert cert.verdict == POSITIVE


def test_certify_subinterval():
    q = Polynomial((-1, 2))
    assert certify_sign(q, Interval(Fraction(1, 2), 1)).verdict == POSITIVE
    assert certify_sign(q, Interval(0, Fraction(1, 2))).verdict == NEGATIVE
    closed = Interval(0, Fraction(1, 2), closed_hi=True)
    assert certify_sign(q, closed).verdict == NEGATIVE


def test_certify_rejects_interval_outside_unit():
    with pytest.raises(ValueError):
        certify_sign(P, Interval(0, 2))


def test_certify_agrees_with_dense_sampling():
    """Sampling can refute but never confirm; no sampled counterexample allowed."""
    rng = random.Random(17)
    grid = [Fraction(k, 997) for k in range(1, 997)]
    for _ in range(60):
        q = rand_poly(rng)
        cert = certify_sign(q, Interval(0, 1))
        values = [q(pt) for pt in grid]
        if cert.verdict in (POSITIVE, NONNEGATIVE):
            assert all(v >= 0 for v in values)
        if cert.verdict == POSITIVE:
            assert all(v > 0 for v in values)
        if cert.verdict == NEGATIVE:
            assert all(v <= 0 for v in values)
        if cert.verdict == IDENTICALLY_ZERO:
            assert q.is_zero
        if cert.verdict == CHANGES_SIGN:
            assert any(v > 0 for v in values) or any(v < 0 for v in values)
            w = cert.witness
            assert q(w.lo) * q(w.hi) < 0


def test_witness_only_on_sign_change():
    rng = random.Random(19)
    for _ in range(40):
        q = rand_poly(rng)
        cert = certify_sign(q, Interval(0, 1))
        assert (cert.witness is not None) == (cert.verdict == CHANGES_SIGN)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_polynomial_string_round_trip():
    q = Polynomial((3, -2, 0, 2**70))
    assert Polynomial.from_strings(q.to_strings()) == q
    assert q.to_strings() == ["3", "-2", "0", str(2**70)]


def test_certificate_dict_round_trip():
    cert = certify_sign(Polynomial((-1, 3)), Interval(0, 1))
    again = SignCertificate.from_dict(cert.to_dict())
    assert again == cert


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1, 0)
