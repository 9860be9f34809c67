"""Exact univariate polynomial arithmetic in Z[p] and sign certification.

Polynomials live in the single variable p with integer coefficients, the
ring the layer chain's kernels, stationary vectors and layer weights all
live in.  A Fraction, a float or any other non-int coefficient or scalar
is rejected; evaluation at a rational point stays exact.  Exact division
is integer long division, and dot products and matrix products use
Kronecker substitution (each polynomial packed into one big integer, at a
slot width proven from the coefficient sizes).  The Taylor shift behind
every change of basis runs on the same packing: one Horner pass on big
integers, unpacked by the same slot decoder.

Sign questions on subintervals of [0, 1] rest on Descartes' rule of signs
on the interval mapped onto (0, oo) by the one Taylor shift (_shift_basis).
With no sign variation the polynomial is root-free inside the interval,
which settles most polynomials at once; with one it has one simple root
there and changes sign, and the witness is found by bisecting towards that
root.  For the rest, one Descartes bisection (Vincent-Collins-Akritas)
counts and isolates the distinct roots of the squarefree part (the
polynomial itself when a gcd modulo a fixed prime proves it squarefree,
else one gcd with its derivative) at once, splitting each piece until its
image has at most one variation, and the parity of each root is read from
the signs at the ends of its interval.  Certificates classify a polynomial
as positive, nonnegative with interior zeros, identically zero,
sign-changing (with an isolating witness interval), or negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

Rational = Union[int, Fraction]


class ExactDivisionError(ArithmeticError):
    """Raised when a division in Z[p] leaves a remainder or a non-integral quotient."""


def _coeff(value) -> int:
    """An int coefficient or scalar; bool and other int subclasses become int."""
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"integer coefficient expected, got {type(value).__name__}")


class Polynomial:
    """Dense polynomial in p, int coefficients indexed by degree, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [c if type(c) is int else _coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Polynomial()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return Polynomial(out)
        scalar = _coeff(other)
        return Polynomial([scalar * c for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Quotient in Z[p]; raises ExactDivisionError on a remainder or a
        non-integral quotient."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        return Polynomial(_exact_div_int(self.coeffs, other.coeffs))

    def __call__(self, at: Rational) -> Rational:
        """Exact evaluation by Horner's rule at an int or Fraction point."""
        if not isinstance(at, (int, Fraction)):
            raise TypeError(f"exact rational point expected, got {type(at).__name__}")
        acc: Rational = 0
        for c in reversed(self.coeffs):
            acc = acc * at + c
        if isinstance(acc, Fraction) and acc.denominator == 1:
            return acc.numerator
        return acc

    # -- equality / hashing / rendering -------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly[0]"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "p" if i == 1 else f"p^{i}"
                term = f"{mag}{var}"
                if c < 0 and not parts:
                    term = "-" + term
            if parts:
                parts.append(("- " if c < 0 else "+ ") + (term.lstrip("-") if i else term))
            else:
                parts.append(term)
        return "Poly[" + " ".join(parts) + "]"

    # -- serialization -----------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficient strings, degree ascending."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_strings(items: Iterable[str]) -> "Polynomial":
        """Inverse of to_strings; a non-integer string raises ValueError."""
        return Polynomial([int(s) for s in items])


ZERO = Polynomial()
ONE = Polynomial((1,))
P = Polynomial((0, 1))


def poly_sum(polys: Iterable[Polynomial]) -> Polynomial:
    """Sum with a single accumulator pass (avoids quadratic re-allocation)."""
    acc: list = []
    for q in polys:
        if len(q.coeffs) > len(acc):
            acc.extend([0] * (len(q.coeffs) - len(acc)))
        for i, c in enumerate(q.coeffs):
            acc[i] += c
    return Polynomial(acc)


def poly_dot(left: Iterable[Polynomial], right: Iterable[Polynomial]) -> Polynomial:
    """Exact dot product; see poly_dot_table."""
    return poly_dot_table([list(left)], [list(right)])[0][0]


def poly_dot_table(
    rows: Sequence[Sequence[Polynomial]], cols: Sequence[Sequence[Polynomial]]
) -> list[list[Polynomial]]:
    """table[i][j] = the dot product of rows[i] and cols[j] (_dot_table)."""
    flat = [
        Polynomial(cs)
        for cs in _dot_table(
            [[e.coeffs for e in row] for row in rows], [[e.coeffs for e in col] for col in cols]
        )
    ]
    return [flat[i : i + len(cols)] for i in range(0, len(flat), len(cols))]


def _dot_table(
    row_cs: Sequence[Sequence[Sequence[int]]], col_cs: Sequence[Sequence[Sequence[int]]]
) -> list[list[int]]:
    """The coefficients of the dot product of each row with each column,
    row by row, for polynomials given by their coefficient sequences.

    The polynomials are multiplied by Kronecker substitution: each entry is
    packed once into the integer obtained by evaluating it at 2^bits, so
    every table entry costs one big-integer product per term plus one
    unpacking.  A dot product of n terms whose factors have at most m
    coefficients, bounded by A and B in absolute value, has coefficients of
    absolute value at most n * m * A * B; bits exceeds that bound's bit
    length by at least one, so each slot holds its signed coefficient
    exactly.  Every product has as many coefficients as the longest left
    and right entries give it, trailing zeros included; with no nonzero
    entry on a side every product is empty.
    """
    left = [cs for row in row_cs for cs in row if cs]
    right = [cs for col in col_cs for cs in col if cs]
    if not left or not right:
        return [[] for _ in range(len(row_cs) * len(col_cs))]
    terms = max(map(len, row_cs))
    len_a, len_b = max(map(len, left)), max(map(len, right))
    size_a = max(map(abs, chain.from_iterable(left)))
    size_b = max(map(abs, chain.from_iterable(right)))
    width = _slot_width(terms * min(len_a, len_b) * size_a * size_b)
    bits = 8 * width
    slots = len_a + len_b - 1

    def pack(cs: Sequence[int]) -> int:
        acc = 0
        for c in reversed(cs):
            acc = (acc << bits) + c
        return acc

    packed_rows = [[pack(cs) for cs in row] for row in row_cs]
    packed_cols = [[pack(cs) for cs in col] for col in col_cs]
    products = (sum(map(mul, prow, pcol)) for prow in packed_rows for pcol in packed_cols)
    return list(_unpack(products, width, slots))


def _slot_width(bound: int) -> int:
    """Bytes per slot for signed integers of absolute value at most bound:
    at least one bit more than the bound's bit length."""
    return bound.bit_length() // 8 + 1


def _unpack(values: Iterable[int], width: int, slots: int) -> Iterator[list[int]]:
    """The signed slots of each value = sum_k s_k 2^(8 width k), lowest
    first, for |s_k| < 2^(8 width - 1).

    Adding half a slot to every slot makes each one nonnegative, so the
    bytes of the biased value are the slots side by side.
    """
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    for value in values:
        data = (value + bias).to_bytes(width * slots, "little")
        yield [
            int.from_bytes(data[k : k + width], "little") - half
            for k in range(0, width * slots, width)
        ]


# ---------------------------------------------------------------------------
# Integer polynomial helpers (raw coefficient sequences, degree ascending).
# ---------------------------------------------------------------------------


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _content(cs: list[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _primitive(cs: list[int]) -> list[int]:
    """Divide by the positive content; preserves signs."""
    g = _content(cs)
    if g > 1:
        return [c // g for c in cs]
    return list(cs)


def _derivative_int(cs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _eval_sign(cs: Sequence[int], point: Fraction) -> int:
    """Exact sign of a polynomial at a rational point, in integer arithmetic."""
    num, den = point.numerator, point.denominator
    acc = 0
    scale = 1
    for c in reversed(cs):
        acc = acc * num + c * scale
        scale *= den
    # acc equals den^deg * value; den > 0 so signs agree
    return (acc > 0) - (acc < 0)


def _prem_positive(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of f by g scaled by a positive constant."""
    rem = list(f)
    dg = len(g) - 1
    lead_g = g[-1]
    steps = 0
    while len(rem) - 1 >= dg and rem:
        lead_r = rem[-1]
        shift = len(rem) - 1 - dg
        rem = [lead_g * c for c in rem]
        for i, gc in enumerate(g):
            rem[i + shift] -= lead_r * gc
        _trim(rem)
        steps += 1
    if lead_g < 0 and steps % 2 == 1:
        rem = [-c for c in rem]
    return rem


def _gcd_int(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Polynomial gcd over Z, primitive with positive leading coefficient."""
    f, g = _primitive(_trim(list(f))), _primitive(_trim(list(g)))
    if not f:
        base = g
    elif not g:
        base = f
    else:
        if len(f) < len(g):
            f, g = g, f
        while g:
            rem = _primitive(_prem_positive(f, g))
            f, g = g, rem
        base = f
    if not base:
        return []
    if base[-1] < 0:
        base = [-c for c in base]
    return base


def _exact_div_int(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Long division in Z[p] of f by nonzero g, which must be exact.

    Raises ExactDivisionError as soon as a quotient coefficient is not an
    integer (the quotient over the rationals is then not integral), or when
    a remainder is left.
    """
    dg = len(g) - 1
    lead = g[-1]
    if dg == 0:
        quot = []
        for c in f:
            q, r = divmod(c, lead)
            if r:
                raise ExactDivisionError("quotient not integral")
            quot.append(q)
        return quot
    low = g[:-1]
    rem = list(f)
    quot = [0] * max(0, len(rem) - dg)
    for shift in range(len(rem) - 1 - dg, -1, -1):
        top = rem[shift + dg]
        if top:
            q, r = divmod(top, lead)
            if r:
                raise ExactDivisionError("quotient not integral")
            quot[shift] = q
            rem[shift : shift + dg] = [c - q * d for c, d in zip(rem[shift : shift + dg], low)]
    if any(rem[:dg]):
        raise ExactDivisionError("inexact integer polynomial division")
    return quot


def _squarefree_part(cs: Sequence[int]) -> list[int]:
    g = _gcd_int(cs, _derivative_int(cs))
    if len(g) <= 1:
        return _primitive(list(cs))
    return _primitive(_exact_div_int(cs, g))


_SQUAREFREE_PRIME = 2**31 - 1


def _squarefree_mod_prime(cs: list[int]) -> bool:
    """Whether gcd(f mod q, f' mod q) = 1 for the fixed prime q, which then
    proves f squarefree over Q; False decides nothing.

    A repeated factor h of f divides f and f' in Z[p]; when q does not
    divide lc(f) it does not divide lc(h) either, so h mod q has positive
    degree and divides both reductions.
    """
    q = _SQUAREFREE_PRIME
    if len(cs) < 2 or cs[-1] % q == 0:
        return False
    a = _trim([c % q for c in cs])
    b = _trim([c % q for c in _derivative_int(cs)])
    while b:
        inverse = pow(b[-1], -1, q)
        while len(a) >= len(b):
            factor = a[-1] * inverse % q
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * c) % q
            _trim(a)
        a, b = b, a
    return len(a) == 1


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor up to scale: primitive, positive leading coefficient."""
    return Polynomial(_gcd_int(a.coeffs, b.coeffs))


def root_count(q: Polynomial, lo: Rational, hi: Rational) -> int:
    """Number of distinct real roots of q strictly inside (lo, hi).

    The roots of the squarefree part of q are isolated by the Descartes
    bisection behind certify_sign (_isolate_roots) and counted.
    """
    if q.is_zero:
        raise ValueError("root counting requires a nonzero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("empty interval")
    squarefree = _squarefree_part(q.coeffs)
    return sum(1 for _ in _isolate_roots(squarefree, squarefree, lo, hi))


# ---------------------------------------------------------------------------
# Sign certification.
# ---------------------------------------------------------------------------

POSITIVE = "positive"
NONNEGATIVE = "nonnegative-with-interior-zeros"
IDENTICALLY_ZERO = "identically-zero"
CHANGES_SIGN = "changes-sign"
NEGATIVE = "negative"

NONNEGATIVE_VERDICTS = frozenset({POSITIVE, NONNEGATIVE, IDENTICALLY_ZERO})


@dataclass(frozen=True)
class Interval:
    """Rational interval with optional closed endpoints."""

    lo: Fraction
    hi: Fraction
    closed_lo: bool = False
    closed_hi: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError("interval endpoints must satisfy lo < hi")

    def __str__(self) -> str:
        left = "[" if self.closed_lo else "("
        right = "]" if self.closed_hi else ")"
        return f"{left}{self.lo},{self.hi}{right}"

    def to_dict(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "closed_lo": self.closed_lo,
            "closed_hi": self.closed_hi,
        }

    @staticmethod
    def from_dict(data: dict) -> "Interval":
        return Interval(
            Fraction(data["lo"]),
            Fraction(data["hi"]),
            bool(data["closed_lo"]),
            bool(data["closed_hi"]),
        )


UNIT_OPEN = Interval(0, 1)


@dataclass(frozen=True)
class SignCertificate:
    """Outcome of sign certification of a polynomial on an interval."""

    verdict: str
    interval: Interval
    witness: Optional[Interval] = None

    @property
    def nonnegative(self) -> bool:
        return self.verdict in NONNEGATIVE_VERDICTS

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "interval": self.interval.to_dict()}
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out

    @staticmethod
    def from_dict(data: dict) -> "SignCertificate":
        witness = Interval.from_dict(data["witness"]) if "witness" in data else None
        return SignCertificate(data["verdict"], Interval.from_dict(data["interval"]), witness)


def _nonroot_point(cs: Sequence[int], lo: Fraction, hi: Fraction) -> tuple[Fraction, int]:
    """Deterministic rational in (lo, hi) that is not a root of cs, with
    the sign of cs there."""
    width = hi - lo
    level = 2
    while True:
        for j in range(1, level, 2):
            point = lo + width * Fraction(j, level)
            sign = _eval_sign(cs, point)
            if sign:
                return point, sign
        level *= 2


def _shift_basis(cs: Sequence[int], degree: int, sign: int) -> list[int]:
    """Coefficients of sum_i c_i x^i (1 + sign*x)^(degree - i), for sign 1 or -1.

    With sign = 1 this takes q(p) to the count basis (1+x)^degree q(x/(1+x)),
    and with sign = -1 it takes D(x) back to (1-p)^degree D(p/(1-p)).  With
    y = 1/x the sum is x^degree f(y + sign) for f(y) = sum_i c_i y^(degree-i),
    a Taylor shift of the reversed coefficients.  It is one Horner pass at
    y = X = 2^bits on big integers, acc -> acc X + sign acc + c, and the
    value of the shifted polynomial at X is unpacked once.  Each shifted
    coefficient is at most 2^degree sum_i |c_i| in absolute value, and the
    slots are wider than that bound.
    """
    width = _slot_width(sum(map(abs, cs)) << max(degree, 0))
    bits = 8 * width
    coefficients = chain(cs, repeat(0, degree + 1 - len(cs)))
    acc = 0
    if sign > 0:
        for c in coefficients:
            acc = (acc << bits) + acc + c
    else:
        for c in coefficients:
            acc = (acc << bits) - acc + c
    return next(_unpack([acc], width, degree + 1))[::-1]


def _interval_image(cs: Sequence[int], lo: Fraction, hi: Fraction) -> list[int]:
    """Coefficients of (1+x)^d q((lo + hi*x)/(1+x)), times a positive integer.

    The map x -> (lo + hi*x)/(1+x) takes (0, oo) onto (lo, hi), x near 0 to
    p just right of lo, so the positive roots of the image are the roots of
    q inside (lo, hi) and the first nonzero coefficient has the sign q takes
    just right of lo.  q is first moved onto (0, 1) by p = lo + (hi - lo)*t
    with the denominator m cleared, which is skipped for the unit interval
    itself; then the image is one change to the count basis, _shift_basis.
    """
    if lo != 0 or hi != 1:
        m = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
        a = lo.numerator * (m // lo.denominator)
        w = hi.numerator * (m // hi.denominator) - a
        # Horner for sum_i c_i (a + w*t)^i m^(d-i)
        shifted: list[int] = []
        scale = 1
        for c in reversed(cs):
            out = [a * x for x in shifted] + [0]
            for i, x in enumerate(shifted):
                out[i + 1] += w * x
            out[0] += c * scale
            shifted = out
            scale *= m
        cs = shifted
    return _shift_basis(cs, len(cs) - 1, 1)


def _sign_variations(cs: list[int]) -> int:
    """Sign changes between consecutive nonzero coefficients."""
    signs = [c > 0 for c in cs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _isolate_roots(
    qints: Sequence[int], squarefree: list[int], lo: Fraction, hi: Fraction
) -> Iterator[Interval]:
    """One interval per distinct root of q strictly inside (lo, hi), left to right.

    squarefree is a squarefree polynomial with the same roots as q inside
    (lo, hi).  Vincent-Collins-Akritas bisection on its Descartes image:
    a piece with no sign variation holds no root and is dropped, one with a
    single variation holds exactly one and goes to _isolate_simple_root,
    and any other piece is split at a point where q is nonzero.  Roots at
    the ends of a piece map to 0 or oo, never to a positive root of the
    image, so each root is found in exactly one piece.
    """
    pending = [(lo, hi)]
    while pending:
        a, b = pending.pop()
        image = _interval_image(squarefree, a, b)
        variations = _sign_variations(image)
        if variations == 1:
            yield _isolate_simple_root(qints, squarefree, image, a, b)
        elif variations:
            mid, _ = _nonroot_point(qints, a, b)
            pending += [(mid, b), (a, mid)]


def _isolate_simple_root(
    qints: Sequence[int], steer: Sequence[int], image: list[int], lo: Fraction, hi: Fraction
) -> Interval:
    """An interval around the one root of steer in (lo, hi), a simple one,
    with q nonzero at both of its ends.

    image is the interval image of steer, with one sign variation, and each
    root of steer inside (lo, hi) is a root of q.  Up to the root steer has
    the sign of the image's first nonzero coefficient and past it the
    opposite one, so the root lies right of a split point exactly when
    steer has that sign there.  The piece is split at points where q is
    nonzero until q is nonzero at both of its ends.  q's sign is taken once
    at each end and each split point and kept with the end it moves; when
    steer is q itself, that sign also picks the side.
    """
    near_lo = 1 if next(c for c in image if c) > 0 else -1
    a, b = lo, hi
    sign_a, sign_b = _eval_sign(qints, a), _eval_sign(qints, b)
    while not (sign_a and sign_b):
        mid, sign = _nonroot_point(qints, a, b)
        if (sign if steer is qints else _eval_sign(steer, mid)) == near_lo:
            a, sign_a = mid, sign
        else:
            b, sign_b = mid, sign
    return Interval(a, b)


def _endpoint_zero(qints: Sequence[int], interval: Interval) -> bool:
    """Whether q vanishes at an endpoint the interval includes."""
    return (interval.closed_lo and _eval_sign(qints, interval.lo) == 0) or (
        interval.closed_hi and _eval_sign(qints, interval.hi) == 0
    )


def certify_sign(q: Polynomial, interval: Interval) -> SignCertificate:
    """Classify the sign behaviour of q on a subinterval of [0, 1].

    The verdict covers the open interior plus any included endpoint.  A zero
    at an included endpoint demotes "positive" to the nonnegative verdict;
    "negative" likewise covers nonpositive polynomials with isolated zeros.

    Descartes' rule of signs settles most q at once: when the image of q on
    (0, oo) has no sign variation, q has no root inside the interval and
    the sign of any coefficient of the image is the sign of q there.  With
    exactly one variation q has exactly one root inside, a simple one, so q
    changes sign; its witness is found by splitting towards the root with
    the sign q takes just right of lo (the sign of the image's first nonzero
    coefficient), as the isolation below treats a one-variation piece.
    Otherwise the distinct roots inside are isolated once, left to right,
    by Descartes bisection on the squarefree part of q (q itself when a gcd
    modulo a prime proves it squarefree).  A root has odd multiplicity
    exactly when q has opposite signs at the ends of its interval, and the
    first such interval is the witness of a sign change.
    """
    if interval.lo < 0 or interval.hi > 1:
        raise ValueError("certification interval must lie within [0, 1]")
    if q.is_zero:
        return SignCertificate(IDENTICALLY_ZERO, interval)

    qints = q.coeffs
    lo, hi = interval.lo, interval.hi
    image = _interval_image(qints, lo, hi)
    variations = _sign_variations(image)
    if variations == 0:
        if min(image) < 0:
            return SignCertificate(NEGATIVE, interval)
        if _endpoint_zero(qints, interval):
            return SignCertificate(NONNEGATIVE, interval)
        return SignCertificate(POSITIVE, interval)
    if variations == 1:
        witness = _isolate_simple_root(qints, qints, image, lo, hi)
        return SignCertificate(CHANGES_SIGN, interval, witness)

    # p and (1-p) are positive on the open interior of any subinterval of
    # [0, 1]; stripping those factors keeps interior sign analysis intact.
    stripped = _primitive(list(qints))
    while stripped and stripped[0] == 0:
        stripped.pop(0)
    one_minus_p = [1, -1]
    while True:
        try:
            candidate = _exact_div_int(stripped, one_minus_p)
        except ExactDivisionError:
            break
        stripped = candidate

    squarefree = stripped if _squarefree_mod_prime(stripped) else _squarefree_part(stripped)
    interior_root = False
    for piece in _isolate_roots(qints, squarefree, lo, hi):
        if _eval_sign(qints, piece.lo) != _eval_sign(qints, piece.hi):
            return SignCertificate(CHANGES_SIGN, interval, piece)
        interior_root = True
    if _nonroot_point(qints, lo, hi)[1] < 0:
        return SignCertificate(NEGATIVE, interval)
    if interior_root or _endpoint_zero(qints, interval):
        return SignCertificate(NONNEGATIVE, interval)
    return SignCertificate(POSITIVE, interval)
