"""Property tests: each Z[p] routine against a slow reference.

Polynomials have integer coefficients only.  Kronecker products are
checked against schoolbook sums of Polynomial products, the big-integer
Taylor shift and the count-basis stacks against the quadratic shift,
integer exact division against sympy's division over QQ, and the one Descartes
bisection, which counts and isolates roots at once, and the sign
certification built on it against the real roots sympy finds.
Certification isolates the distinct roots once and reads the parity of
each from the signs at the ends of its interval, so the examples include
polynomials that are not squarefree, whose roots have even and odd
multiplicity.
"""

from fractions import Fraction
from itertools import zip_longest

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layerchain import algebra
from layerchain.algebra import (
    CHANGES_SIGN,
    ExactDivisionError,
    Interval,
    NEGATIVE,
    NONNEGATIVE,
    POSITIVE,
    P,
    Polynomial,
    SignCertificate,
    UNIT_OPEN,
    _SQUAREFREE_PRIME,
    _eval_sign,
    _exact_div_int,
    _interval_image,
    _isolate_roots,
    _nonroot_point,
    _primitive,
    _shift_basis,
    _sign_variations,
    _squarefree_mod_prime,
    _squarefree_part,
    certify_sign,
    poly_dot,
    poly_dot_table,
    root_count,
)
from layerchain.kernels import PolyMatrix
from layerchain.residues import _count_basis

small = st.integers(-5, 5)
wide = st.integers(-(2**80), 2**80)
int_coeff = st.one_of(small, small, wide)
int_poly = st.lists(int_coeff, max_size=8).map(Polynomial)


def schoolbook_dot(left, right) -> Polynomial:
    acc = Polynomial()
    for a, b in zip(left, right):
        acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# Kronecker products.
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(int_poly, int_poly), max_size=7))
def test_kronecker_dot_matches_schoolbook(pairs):
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    assert poly_dot(left, right) == schoolbook_dot(left, right)


def test_dot_unequal_lengths_truncates_like_zip():
    left = [Polynomial((1, 2)), Polynomial((3,))]
    right = [Polynomial((5,))]
    assert poly_dot(left, right) == Polynomial((5, 10))
    assert poly_dot([], right) == Polynomial()
    assert poly_dot_table([[Polynomial()]], [[Polynomial((1,))], []]) == [
        [Polynomial(), Polynomial()]
    ]


@st.composite
def square_matrices(draw, entries=int_poly):
    n = draw(st.integers(1, 4))
    states = tuple(range(n))

    def matrix():
        rows = [[draw(entries) for _ in states] for _ in states]
        return PolyMatrix(states, tuple(tuple(row) for row in rows))

    return matrix(), matrix()


def schoolbook_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    cols = list(zip(*b.entries))
    rows = tuple(tuple(schoolbook_dot(row, col) for col in cols) for row in a.entries)
    return PolyMatrix(a.states, rows)


@given(square_matrices())
def test_kronecker_matmul_matches_schoolbook(pair):
    a, b = pair
    assert a @ b == schoolbook_matmul(a, b)
    assert b.vecmat(a.entries[0]) == list(schoolbook_matmul(a, b).entries[0])


def reference_shift_basis(cs, degree, sign):
    """sum_i c_i x^i (1 + sign*x)^(degree - i) by the quadratic Taylor
    shift of the reversed coefficients; a shift by -1 is a shift by +1
    between two negations of the odd coefficients."""
    out = [0] * (degree + 1 - len(cs)) + list(reversed(cs))
    if sign < 0:
        out[1::2] = [-c for c in out[1::2]]
    for i in range(degree):
        for j in range(degree - 1, i - 1, -1):
            out[j] += out[j + 1]
    if sign < 0:
        out[1::2] = [-c for c in out[1::2]]
    return out[::-1]


@given(
    st.lists(st.one_of(st.just(0), small, st.integers(-(2**70), 2**70)), max_size=24),
    st.integers(0, 6),
    st.sampled_from((1, -1)),
)
@example([], 0, 1)
@example([], 3, -1)
@example([0, 0, 0], 2, 1)
def test_shift_basis_matches_the_quadratic_shift(cs, extra, sign):
    """One Horner pass on big integers, unpacked once, gives the double
    loop's coefficients at every degree from len(cs) - 1 up."""
    degree = max(len(cs) - 1, 0) + extra
    assert _shift_basis(cs, degree, sign) == reference_shift_basis(cs, degree, sign)


@given(
    st.lists(
        st.lists(
            st.lists(st.one_of(small, st.integers(-(2**70), 2**70)), max_size=6),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 4),
)
@example([[[2**62, 1], [3]]], 0)
def test_count_basis_matches_one_shift_per_entry(rows, extra):
    """The count-basis stack holds each entry's shifted coefficients, past
    the int64 range too."""
    width = max(map(len, rows))
    polys = [[Polynomial(cs) for cs in row + [[]] * (width - len(row))] for row in rows]
    degree = max(max(q.degree for row in polys for q in row), 0) + extra
    counts = _count_basis(polys, degree)
    assert counts.shape == (degree + 1, len(polys), width)
    for i, row in enumerate(polys):
        for j, q in enumerate(row):
            assert [int(c) for c in counts[:, i, j]] == reference_shift_basis(q.coeffs, degree, 1)


# ---------------------------------------------------------------------------
# Integer exact division.
# ---------------------------------------------------------------------------

nonzero_int_poly = st.lists(small, min_size=1, max_size=5).map(Polynomial).filter(
    lambda g: not g.is_zero
)

X = sympy.Symbol("x")


def to_sympy(q: Polynomial) -> sympy.Poly:
    return sympy.Poly(list(reversed(q.coeffs)), X)


def sympy_divmod(f: Polynomial, g: Polynomial) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of sympy's division over QQ, as coefficient
    lists, degree ascending, without trailing zeros."""
    out = []
    for poly in sympy.div(to_sympy(f), to_sympy(g), domain=sympy.QQ):
        cs = [Fraction(str(c)) for c in reversed(poly.all_coeffs())]
        while cs and cs[-1] == 0:
            cs.pop()
        out.append(cs)
    return out[0], out[1]


@given(st.lists(int_coeff, max_size=6).map(Polynomial), nonzero_int_poly)
def test_exact_div_of_a_product(q, g):
    assert (q * g).exact_div(g) == q
    assert sympy_divmod(q * g, g) == (list(q.coeffs), [])
    assert _exact_div_int(list((q * g).coeffs), list(g.coeffs)) == list(q.coeffs)


@given(st.lists(small, max_size=6).map(Polynomial), nonzero_int_poly, nonzero_int_poly)
def test_exact_div_raises_on_remainder(q, g, r):
    assume(g.degree >= 1)
    r = Polynomial(r.coeffs[: g.degree])
    assume(not r.is_zero)
    f = q * g + r
    assert sympy_divmod(f, g)[1]
    with pytest.raises(ExactDivisionError):
        f.exact_div(g)
    with pytest.raises(ExactDivisionError):
        _exact_div_int(list(f.coeffs), list(g.coeffs))


@given(
    st.lists(small, min_size=1, max_size=6).map(Polynomial), nonzero_int_poly, st.integers(2, 9)
)
def test_exact_div_non_integral_quotient(q, g, d):
    # q*g divided by d*g is q/d over QQ, which is in Z[p] only when d divides
    # every coefficient of q; otherwise the division in Z[p] fails
    assume(not q.is_zero)
    quot, rem = sympy_divmod(q * g, g * d)
    assert quot == [Fraction(c, d) for c in q.coeffs] and rem == []
    if any(c % d for c in q.coeffs):
        with pytest.raises(ExactDivisionError):
            (q * g).exact_div(g * d)
        with pytest.raises(ExactDivisionError):
            _exact_div_int(list((q * g).coeffs), list((g * d).coeffs))
    else:
        assert (q * g).exact_div(g * d) == Polynomial([c // d for c in q.coeffs])


@given(st.lists(int_coeff, max_size=8), int_coeff.filter(bool), st.lists(small, max_size=8))
@example([6, -4, 0, 2], 2, [])
@example([6, -4, 0, 2], -2, [0, 0, 1])
def test_exact_div_by_a_constant(q, d, offsets):
    assert _exact_div_int([d * c for c in q], [d]) == q
    f = [d * c + e for c, e in zip_longest(q, offsets, fillvalue=0)]
    quotient = [Fraction(c, d) for c in f]
    if all(c.denominator == 1 for c in quotient):
        assert _exact_div_int(f, [d]) == quotient
        assert Polynomial(f).exact_div(Polynomial((d,))) == Polynomial(map(int, quotient))
    else:
        with pytest.raises(ExactDivisionError):
            _exact_div_int(f, [d])
        with pytest.raises(ExactDivisionError):
            Polynomial(f).exact_div(Polynomial((d,)))


@given(st.lists(int_coeff, max_size=7).map(Polynomial), nonzero_int_poly)
def test_exact_div_agrees_with_fraction_division(f, g):
    quot, rem = sympy_divmod(f, g)
    if not rem and all(c.denominator == 1 for c in quot):
        assert list(f.exact_div(g).coeffs) == quot
    else:
        with pytest.raises(ExactDivisionError):
            f.exact_div(g)


# ---------------------------------------------------------------------------
# Root counting and isolation by Descartes bisection.
# ---------------------------------------------------------------------------

@st.composite
def root_count_cases(draw):
    """(q, lo, hi): an integer polynomial of degree <= 8 whose roots often
    sit at lo, at hi, at the midpoint or at other rationals near the
    interval, with multiplicity up to 2, and a rational interval."""
    ends = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    points = st.one_of(st.sampled_from((lo, hi, (lo + hi) / 2)), ends)
    q = Polynomial((draw(st.sampled_from((-3, -1, 1, 2))),))
    for root in draw(st.lists(points, max_size=3)):
        mult = draw(st.integers(1, 2))
        if q.degree + mult <= 8:
            q = q * Polynomial((-root.numerator, root.denominator)) ** mult
    rest = Polynomial(draw(st.lists(small, min_size=1, max_size=min(4, 9 - q.degree))))
    assume(not rest.is_zero)
    return q * rest, lo, hi


@settings(max_examples=150)
@given(root_count_cases())
def test_root_counts_match_sympy(case):
    q, lo, hi = case
    poly = to_sympy(q)
    a, b = sympy.Rational(str(lo)), sympy.Rational(str(hi))
    # count_roots counts the distinct roots in the closed interval
    expected = poly.count_roots(a, b) - (poly.eval(a) == 0) - (poly.eval(b) == 0)
    assert root_count(q, lo, hi) == expected
    squarefree = [int(c) for c in reversed(sympy.sqf_part(poly).all_coeffs())]
    assert sum(1 for _ in _isolate_roots(squarefree, squarefree, lo, hi)) == expected


@settings(max_examples=150)
@given(root_count_cases())
# three variations on (0, 1) but one real root: the piece is split until
# its image has one variation
@example((3 * Polynomial((-3, 8)) * Polynomial((1, -2, 2)), Fraction(0), Fraction(1)))
def test_isolated_pieces_hold_one_root_each(case):
    q, lo, hi = case
    pieces = list(_isolate_roots(q.coeffs, _squarefree_part(q.coeffs), lo, hi))
    ends = [lo] + [end for piece in pieces for end in (piece.lo, piece.hi)] + [hi]
    # disjoint and left to right
    assert ends == sorted(ends)
    for piece in pieces:
        assert q(piece.lo) != 0 and q(piece.hi) != 0
        assert len(roots_inside(q, piece.lo, piece.hi)) == 1
    assert len(pieces) == len(roots_inside(q, lo, hi))


@settings(max_examples=150)
@given(
    st.one_of(
        root_count_cases().map(lambda case: case[0]),
        st.lists(st.integers(-20, 20), min_size=2, max_size=9).map(Polynomial),
    ).filter(lambda q: q.degree > 0)
)
def test_squarefree_test_is_sound(q):
    ints = _primitive([int(c) for c in q.coeffs])
    multiplicities = [m for _, m in sympy.sqf_list(to_sympy(q))[1]]
    if _squarefree_mod_prime(ints):
        assert set(multiplicities) <= {1}
    if q.coeffs[-1] % _SQUAREFREE_PRIME == 0 or any(m > 1 for m in multiplicities):
        assert not _squarefree_mod_prime(ints)


def test_squarefree_test_on_known_cases():
    square = Polynomial((-1, 3)) ** 2 * Polynomial((1, 1))
    assert not _squarefree_mod_prime(list(square.coeffs))
    assert _squarefree_mod_prime([-1, 3, 0, 5])
    # squarefree over Q, but a square modulo the prime: the test decides nothing
    assert not _squarefree_mod_prime([-_SQUAREFREE_PRIME, 0, 1])
    assert not _squarefree_mod_prime([1, 1, _SQUAREFREE_PRIME])


# ---------------------------------------------------------------------------
# Sign certification.
# ---------------------------------------------------------------------------

unit_rational = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def intervals(draw):
    if draw(st.booleans()):
        lo, hi = Fraction(0), Fraction(1)
    else:
        lo, hi = sorted(draw(st.lists(unit_rational, min_size=2, max_size=2, unique=True)))
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def certified_cases(draw):
    """(q, interval) with q an integer polynomial of degree <= 8 whose roots
    often sit inside the interval or on its endpoints, with odd or even
    multiplicity."""
    interval = draw(intervals())
    points = st.one_of(st.sampled_from((interval.lo, interval.hi)), unit_rational)
    q = Polynomial((draw(st.sampled_from((-2, -1, 1, 3))),))
    for root in draw(st.lists(points, max_size=3)):
        mult = draw(st.integers(1, 3))
        if q.degree + mult <= 8:
            q = q * Polynomial((-root.numerator, root.denominator)) ** mult
    rest = Polynomial(draw(st.lists(small, min_size=1, max_size=min(3, 9 - q.degree))))
    assume(not rest.is_zero)
    return q * rest, interval


random_cases = st.tuples(
    st.lists(st.integers(-20, 20), min_size=2, max_size=9).map(Polynomial).filter(
        lambda q: q.degree > 0
    ),
    intervals(),
)


def roots_inside(q: Polynomial, lo: Fraction, hi: Fraction) -> dict:
    """Multiplicity of each distinct real root strictly inside (lo, hi),
    from the roots sympy isolates."""
    a, b = sympy.Rational(str(lo)), sympy.Rational(str(hi))
    inside: dict = {}
    for r in sympy.real_roots(to_sympy(q)):
        if a < r < b:
            inside[r] = inside.get(r, 0) + 1
    return inside


def odd_roots_inside(q: Polynomial, lo: Fraction, hi: Fraction) -> int:
    """The distinct real roots of odd multiplicity strictly inside (lo, hi)."""
    return sum(m % 2 for m in roots_inside(q, lo, hi).values())


def sympy_verdict(q: Polynomial, interval: Interval) -> str:
    """Classification from the real roots sympy isolates."""
    poly = to_sympy(q)
    lo, hi = sympy.Rational(str(interval.lo)), sympy.Rational(str(interval.hi))
    if odd_roots_inside(q, interval.lo, interval.hi):
        return CHANGES_SIGN
    probe = next(
        pt
        for k in range(1, 12)
        for j in range(1, 2**k, 2)
        for pt in [lo + (hi - lo) * sympy.Rational(j, 2**k)]
        if poly.eval(pt) != 0
    )
    if poly.eval(probe) < 0:
        return NEGATIVE
    endpoint_zero = (interval.closed_lo and poly.eval(lo) == 0) or (
        interval.closed_hi and poly.eval(hi) == 0
    )
    inside = poly.count_roots(lo, hi) - (poly.eval(lo) == 0) - (poly.eval(hi) == 0)
    return NONNEGATIVE if inside or endpoint_zero else POSITIVE


@settings(max_examples=150)
@given(st.one_of(certified_cases(), random_cases))
# three simple roots: q changes sign on (0, 1) as a whole, but the witness
# must hold one of them
@example((Polynomial((-1, 3)) * Polynomial((-1, 2)) * Polynomial((-2, 3)), UNIT_OPEN))
# not squarefree: the squarefree part is taken by a gcd, and the parity of
# each root is read from the signs at the ends of its interval
@example((Polynomial((-1, 2)) ** 2, UNIT_OPEN))
@example((Polynomial((-1, 2)) ** 3, UNIT_OPEN))
# a double root left of a simple one: the witness must hold only the simple one
@example((Polynomial((-1, 3)) ** 2 * Polynomial((-2, 3)), UNIT_OPEN))
@example((-(Polynomial((-1, 2)) ** 2) * Polynomial((1, 1)), UNIT_OPEN))
@example(
    (Polynomial((-1, 4)) * Polynomial((-1, 2)) ** 2 * Polynomial((-3, 4)) ** 2, UNIT_OPEN)
)
# one real root and the complex pair 1/2 +- i/2: three variations on (0, 1),
# so the bisection splits (0, 1) and the witness is (0, 1/2)
@example((3 * Polynomial((-3, 8)) * Polynomial((1, -2, 2)), UNIT_OPEN))
def test_sign_certificates_match_sympy(case):
    q, interval = case
    cert = certify_sign(q, interval)
    assert cert.verdict == sympy_verdict(q, interval)
    if cert.verdict == CHANGES_SIGN:
        w = cert.witness
        assert interval.lo <= w.lo < w.hi <= interval.hi
        assert q(w.lo) * q(w.hi) < 0
        # one distinct root inside the witness, and of odd multiplicity
        assert [m % 2 for m in roots_inside(q, w.lo, w.hi).values()] == [1]


@settings(max_examples=150)
@given(st.one_of(certified_cases(), random_cases))
# q vanishes at both ends of the interval around its one interior root
@example(
    (
        Polynomial((-1, 4)) * Polynomial((-1, 2)) * Polynomial((-3, 4)),
        Interval(Fraction(1, 4), Fraction(3, 4), True, True),
    )
)
@example(
    (
        Polynomial((-1, 4)) * Polynomial((-1, 2)) * Polynomial((-3, 4)),
        Interval(Fraction(1, 4), Fraction(3, 4)),
    )
)
# p^k (1-p)^m factors, which the isolation strips
@example((P**2 * (Polynomial((1,)) - P) * Polynomial((-1, 3)), UNIT_OPEN))
@example(
    (P * (Polynomial((1,)) - P) ** 3 * Polynomial((-2, 3)), Interval(0, 1, True, True))
)
def test_one_variation_witness_matches_isolation(case):
    q, interval = case
    lo, hi = interval.lo, interval.hi
    assume(_sign_variations(_interval_image(q.coeffs, lo, hi)) == 1)
    # the image-driven bisection of q itself: one root, a simple one
    witness = next(_isolate_roots(q.coeffs, q.coeffs, lo, hi))
    assert certify_sign(q, interval) == SignCertificate(CHANGES_SIGN, interval, witness)


def reference_isolate_simple_root(qints, steer, image, lo, hi) -> Interval:
    """The simple-root isolation that evaluates q at both ends of the piece
    on every pass and steer at every split point."""
    near_lo = 1 if next(c for c in image if c) > 0 else -1
    a, b = lo, hi
    while not (_eval_sign(qints, a) and _eval_sign(qints, b)):
        mid = _nonroot_point(qints, a, b)[0]
        if _eval_sign(steer, mid) == near_lo:
            a = mid
        else:
            b = mid
    return Interval(a, b)


@settings(max_examples=150)
@given(root_count_cases())
@example((Polynomial((-1, 2)) * Polynomial((-1, 4)), Fraction(0), Fraction(1, 2)))
@example((P * (Polynomial((1,)) - P) * Polynomial((-1, 3)), Fraction(0), Fraction(1)))
def test_simple_root_isolation_matches_the_reevaluating_loop(case):
    """Keeping q's signs at the ends and split points gives the same pieces
    and certificates as evaluating them again, with steer the squarefree
    part (_isolate_roots) and with steer q itself (one variation in
    certify_sign), roots at the ends and at split points included."""
    q, lo, hi = case
    squarefree = _squarefree_part(q.coeffs)

    def run():
        pieces = [(x.lo, x.hi) for x in _isolate_roots(q.coeffs, squarefree, lo, hi)]
        if 0 <= lo and hi <= 1:
            return pieces, certify_sign(q, Interval(lo, hi)).to_dict()
        return pieces

    kept = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_isolate_simple_root", reference_isolate_simple_root)
        assert kept == run()


def test_three_variation_witness():
    q = 3 * Polynomial((-3, 8)) * Polynomial((1, -2, 2))
    assert _sign_variations(_interval_image(q.coeffs, Fraction(0), Fraction(1))) == 3
    assert certify_sign(q, UNIT_OPEN).witness == Interval(0, Fraction(1, 2))
