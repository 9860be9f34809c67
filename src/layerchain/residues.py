"""Count-basis polynomial stacks modulo word primes: the modular arithmetic
and the changes of basis.

The onsets take kernel powers and layer weights to the count basis
p = x/(1+x): a polynomial q of degree at most d becomes
(1+x)^d q(x/(1+x)), and a kernel entry's coefficients count bond
configurations by open bonds.  The coefficients outgrow a machine word, so
they are computed modulo primes below 2^31 in numpy float64, exact below
2^52, and combined by Garner's mixed-radix CRT (McClellan, J. ACM 20,
1973) under an a-priori coefficient bound, whose mixed-radix digits give
the sign of every coefficient (_Signed).  The certificates read off those
signs are issued in monotonicity.
"""
from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .algebra import Polynomial, _shift_basis

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, deterministic below
    3.3 * 10^24."""
    if n < 2:
        return False
    for base in _MILLER_RABIN_BASES:
        if n % base == 0:
            return n == base
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(limit: int) -> Iterator[int]:
    """The primes below limit, largest first."""
    for n in range(limit - 1, 1, -1):
        if _is_prime(n):
            yield n


def _reduce(a: np.ndarray, q: int) -> None:
    """a mod q in place, for float64 integers in [0, 2^52).

    Below 2^52 the quotient a/q is rounded by less than 1/(2q), while a
    quotient that is not an integer lies at least 1/q from every integer,
    so its floor is exact.
    """
    quotient = a / q
    np.floor(quotient, out=quotient)
    quotient *= q
    a -= quotient


class _PowerModPrime:
    """Products with M modulo one word prime q, for M given by its count
    matrices counts[t, i, j]: one float64 matrix per coefficient of x.

    The prime is small enough that every entry of the unreduced product,
    summed over all coefficients of the factor, stays below 2^52, so the
    BLAS float64 products and their sum are exact and reduced once.
    """

    def __init__(self, q: int, counts: np.ndarray):
        self.q = q
        self.factor = (counts % q).astype(np.float64)
        self.taps = [(t, b) for t, b in enumerate(self.factor) if b.any()]

    def times(self, a: np.ndarray) -> np.ndarray:
        """A M modulo q for a stack of residues a[s, i, j]: C_s = sum_t
        A_(s-t) B_t mod q, one product per t."""
        length, rows = a.shape[:2]
        flat = a.reshape(-1, a.shape[-1])
        product = np.empty((len(flat), self.factor.shape[-1]))
        out = np.zeros((length + len(self.factor) - 1, rows, product.shape[1]))
        for t, b in self.taps:
            np.matmul(flat, b, out=product)
            out[t : t + length] += product.reshape(length, rows, -1)
        _reduce(out, self.q)
        return out


def _prime_limit(counts: np.ndarray) -> int:
    """A bound below which every prime keeps _PowerModPrime exact with this
    factor, a stack of count matrices counts[t, i, j] >= 0.

    An entry of a product summed over t is below q times the largest
    column total of the factor, and below q^2 rows (w+1) once the factor is
    reduced.
    """
    terms = counts.shape[0] * counts.shape[1]
    column = int(counts.sum(axis=(0, 1)).max())
    return min(2**31, max(2**52 // max(column, 1), math.isqrt(2**52 // terms)))


def _signed_coefficients(digits: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """Replace the residues of integers modulo the primes by Garner's
    mixed-radix digits, in place, and return where each integer is negative.

    The integers lie in (-P/2, P/2) for P the product of the primes, and x
    mod P is negative exactly when its digits exceed those of (P-1)/2,
    compared from the most significant digit.  Every product of a digit and
    an inverse stays below 2^62, so the digits are computed in int64.
    """
    for k, q in enumerate(primes):
        for j in range(k):
            digits[k] = (digits[k] - digits[j]) % q * pow(primes[j], -1, q) % q
    half = (math.prod(primes) - 1) // 2
    negative = np.zeros(digits[0].shape, dtype=bool)
    for v, q in zip(digits, primes):
        half, h = divmod(half, q)
        negative = np.where(v != h, v > h, negative)
    return negative


class _Signed:
    """Count-basis polynomials given by their coefficients modulo word
    primes: coefficient t of entry e is residues[t][e], an integer in
    (-P/2, P/2) for P the product of the primes.

    has_positive and has_negative say, per entry, whether some coefficient
    is positive or negative.  A polynomial whose count-basis coefficients at
    any degree at least its own have no sign variation has no root in
    (0, oo), so an entry with no negative coefficient is positive on (0, 1)
    in p (or identically zero), and a nonzero one with no positive
    coefficient is negative.
    """

    def __init__(self, residues: list[np.ndarray], primes: list[int]):
        self.primes = primes
        self.digits = list(residues)
        self.negative = _signed_coefficients(self.digits, primes)
        nonzero = self.digits[0] != 0
        for v in self.digits[1:]:
            nonzero |= v != 0
        self.has_negative = self.negative.any(axis=0)
        self.has_positive = (nonzero & ~self.negative).any(axis=0)

    @property
    def degree(self) -> int:
        return len(self.digits[0]) - 1

    def coefficients(self, mask: np.ndarray) -> list[list[int]]:
        """The integer coefficients of the entries where mask is set, in
        np.nonzero order: the mixed-radix digits summed (Garner)."""
        entries = (slice(None),) + np.nonzero(mask)
        values = np.zeros((len(self.digits[0]), int(mask.sum())), dtype=object)
        radix = 1
        for v, q in zip(self.digits, self.primes):
            values += v[entries].astype(object) * radix
            radix *= q
        return np.where(self.negative[entries], values - radix, values).T.tolist()


def _difference(layers: Sequence[np.ndarray], w: int, q: int) -> np.ndarray:
    """(1+x)^w L_n - L_(n+1) modulo q for consecutive layers L_n, given as
    coefficient stacks modulo q of growing length: one int64 stack
    d[t, n, ...] over all but the last layer, zero past each degree.

    Each multiplication by 1 + x at most doubles the largest entry, so
    entries stay below 2^20 q < 2^51 between reductions."""
    d = np.zeros((len(layers[-1]), len(layers) - 1) + layers[-1].shape[1:])
    for n, now in enumerate(layers[:-1]):
        d[: len(now), n] = now
    for j, k in enumerate(range(len(layers[-2]), len(layers[-2]) + w)):
        d[1 : k + 1] += d[:k]  # times 1 + x
        if j % 20 == 19:
            _reduce(d, q)
    for n, later in enumerate(layers[1:]):
        d[: len(later), n] -= later
    d += q
    _reduce(d, q)
    return d.astype(np.int64)


def _count_basis(polys: Sequence[Sequence[Polynomial]], degree: int) -> np.ndarray:
    """counts[t, i, j]: coefficient t of (1+x)^degree q_ij(x/(1+x)), for
    polys[i][j] = q_ij of degree at most degree, as Python integers: one
    Taylor shift per distinct nonzero entry."""
    counts = np.zeros((degree + 1, len(polys), len(polys[0]) if polys else 0), dtype=object)
    shifted: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(polys):
        for j, q in enumerate(row):
            if q.coeffs:
                if q.coeffs not in shifted:
                    shifted[q.coeffs] = _shift_basis(q.coeffs, degree, 1)
                counts[:, i, j] = shifted[q.coeffs]
    return counts


def _own_degree(counts: np.ndarray) -> np.ndarray:
    """counts[t, ...], the count basis of polynomials q at some degree,
    divided by 1 + x while every entry vanishes at x = -1: the count basis
    of the same q at the largest of their degrees (0 when all are zero).

    At degree d, q has degree below d exactly when its count polynomial C
    has C(-1) = 0, the coefficient of p^d being +-C(-1).  With signs
    s_t = (-1)^t, the quotient by 1 + x is s_t sum_(u <= t) s_u c_u, whose
    last partial sum is C(-1), so the signed coefficients s_t c_t are
    divided by one cumulative sum each."""
    signs = np.where(np.arange(len(counts)) % 2, -1, 1).reshape((-1,) + (1,) * (counts.ndim - 1))
    signed = counts * signs
    while len(signed) > 1:
        partial = np.cumsum(signed, axis=0)
        if partial[-1].any():
            break
        signed = partial[:-1]
    return signed * signs[: len(signed)]


class _CountLayers:
    """The rows start M^n, layer by layer, in the count basis and modulo
    word primes.

    start[t, r, i] holds the rows (the identity for the powers of M, the
    row of orbit totals T_0 for the layer weights), and M is a count-basis
    block of degree w: one _PowerModPrime per prime, its layers stepped
    from start.  With keep set every layer is kept (the layer weights,
    whose drops and layers are read more than once); otherwise each prime
    holds only the last layer reached once a drop is read (the kernel
    powers, whose drops are read once each, in order).  Primes are taken
    largest first, as the bounds of the drops and layers ask for them; a
    prime taken late is stepped up from start.

    The primes keep the steps exact (_prime_limit) and, given taps, also a
    later product of the drops or layers with a factor reduced modulo q
    that sums taps terms per entry, each below q^2.

    M has no negative count, so with S the largest row total of M(1) and
    l1 the largest sum of the absolute coefficients of one row of start,
    the coefficients of one row of start M^n sum to at most l1 S^n in
    absolute value, and those of one row of the drop
    D_n = (1+x)^w start M^n - start M^(n+1) to at most l1 S^n (2^w + S)
    (bound).  start M^n has degree e0 + n w, for e0 that of start, so D_n
    has degree e0 + (n+1) w (degree).
    """

    def __init__(
        self, start: np.ndarray, counts: np.ndarray, taps: Optional[int] = None, *, keep: bool
    ):
        self.start = start
        self.counts = counts
        self.keep = keep
        self.w = len(counts) - 1
        self.l1 = int(np.abs(start).sum(axis=(0, 2)).max())
        self.total = int(counts.sum(axis=(0, 2)).max())
        limit = _prime_limit(counts)
        if taps is not None:
            limit = min(limit, math.isqrt(2**52 // taps))
        self.candidates = _primes_below(limit)
        self.primes: list[int] = []
        self.layers: list[tuple[_PowerModPrime, list[Optional[np.ndarray]]]] = []

    def bound(self, n: int) -> int:
        return self.l1 * self.total**n * (2**self.w + self.total)

    def degree(self, n: int) -> int:
        return len(self.start) - 1 + (n + 1) * self.w

    def _stepped(
        self, last: int, first: int, bound: int
    ) -> Iterator[tuple[_PowerModPrime, list[Optional[np.ndarray]]]]:
        """Each prime's factor and layers, stepped up to layer last, after
        taking enough primes for integers of absolute value at most bound;
        layers below first are let go, also as a prime taken late passes
        them."""
        while math.prod(self.primes) <= 2 * bound:
            factor = _PowerModPrime(next(self.candidates), self.counts)
            self.primes.append(factor.q)
            self.layers.append((factor, [(self.start % factor.q).astype(np.float64)]))
        for factor, layers in self.layers:
            while len(layers) <= last:
                layers.append(factor.times(layers[-1]))
                if len(layers) - 2 < first:
                    layers[-2] = None
            yield factor, layers

    def drops(self, steps: int, later: int = 1) -> list[np.ndarray]:
        """D_first, ..., D_(steps-1) modulo every prime taken, for first 0
        with keep set and steps - 1 without it: per prime one int64 stack
        d[t, n - first, r, i], zero past the degree of D_n.  The primes
        cover the coefficients of the drops times a later factor whose
        entries' absolute coefficients sum to at most later.  Without keep,
        each layer is let go once no later drop needs it."""
        first = 0 if self.keep else steps - 1
        out = []
        for factor, layers in self._stepped(steps, first, self.bound(steps - 1) * later):
            out.append(_difference(layers[first : steps + 1], self.w, factor.q))
            if not self.keep:
                layers[first] = None
        return out

    def layer(self, n: int, later: int = 1) -> list[np.ndarray]:
        """start M^n modulo every prime taken, with keep set: per prime one
        float64 stack l[t, r, i] of degree e0 + n w.  The primes cover the
        coefficients of the layer times a later factor whose entries'
        absolute coefficients sum to at most later."""
        bound = self.l1 * self.total**n * later
        return [layers[n] for _, layers in self._stepped(n, 0, bound)]
