"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in canonical form: a dense vector of integer
numerators over the power basis 1, z, ..., z^(deg Phi_N - 1), fully
reduced modulo the N-th cyclotomic polynomial Phi_N, over one positive
common denominator; gcd(den, numerators) = 1 and zero has den 1.
Phi_N is monic with integer coefficients, so reduction never leaves the
integers.  Equality is therefore coefficient-wise; values of different
orders interoperate by lifting both to Q(zeta_lcm).  ``coeffs`` is a
read-only view of the same vector as ``Fraction``s.

For N > 1, Phi_N = prod (1 - x^d)^mu(N/d) over the d | N with N/d
squarefree, so multiplying or dividing by Phi_N is one pass per factor,
2^omega(N) stride-d differences and prefix sums of O(len) integer steps
each.  Those passes build Phi_N itself, and reduction never reads its
coefficients.  This is the sparse-power-series view of Arnold and
Monagan, "Calculating cyclotomic polynomials", Math. Comp. 80 (2011).

The canonical generator z of order N represents exp(2*pi*i/N); the
complex embedding sums over a table of those powers, built on first use
and kept for the three most recent orders.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from typing import Sequence

from .errors import (EvenInput, NotCoprime, NotInSubfield, OrderMismatch,
                     OrderOutOfRange)

# Largest supported conductor.  Exceeding it is a refused input, not a
# silent degradation; callers may raise the limit for bigger sweeps.
MAX_ORDER = 5000


def _check_order(n: int) -> None:
    if n < 1:
        raise OrderOutOfRange(f"order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise OrderOutOfRange(f"order {n} exceeds MAX_ORDER = {MAX_ORDER}")


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def _moebius_strides(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(phi(n), up, down): the d | n with n/d squarefree, split by
    mu(n/d) = +1 (up) and -1 (down).

    Phi_n = prod_up (x^d - 1) / prod_down (x^d - 1), which for n > 1 is
    also prod_up (1 - x^d) / prod_down (1 - x^d), and
    phi(n) = sum_(d | n) mu(n/d) * d = sum(up) - sum(down).
    """
    up, down = [n], []
    for p in _prime_factors(n):
        up, down = up + [d // p for d in down], down + [d // p for d in up]
    return sum(up) - sum(down), tuple(up), tuple(down)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_n.

    For n > 1, Phi_n = prod_up (1 - x^d) / prod_down (1 - x^d)
    (``_moebius_strides``), a polynomial of degree phi(n), so the stride
    passes that reduction takes, run on 1 mod x^(phi(n) + 1), give it
    exactly.
    """
    _check_order(n)
    if n == 1:
        return (-1, 1)
    deg, up, down = _moebius_strides(n)
    poly = [1] + [0] * deg
    _stride_passes(poly, up, down)
    return tuple(poly)


def degree(n: int) -> int:
    """deg Phi_n = Euler phi(n)."""
    _check_order(n)
    return _moebius_strides(n)[0]


def _stride_passes(g: list[int], times: Sequence[int],
                   over: Sequence[int]) -> None:
    """g := g * prod_times (1 - x^d) / prod_over (1 - x^d) mod x^len(g),
    in place.

    Multiplying by 1 - x^d is a stride-d difference and dividing by it a
    stride-d prefix sum, taken one accumulate per residue class for
    small d and one block of d terms at a time otherwise.  The first
    costs a slice per residue (d of them), the second a slice per block
    (len(g) / d of them), so they cross near d * d = len(g); neither is
    the faster at every (d, len(g)) that reduction meets.  A factor with
    d >= len(g) is 1 modulo x^len(g).
    """
    m = len(g)
    for d in times:
        if d < m:
            g[d:] = list(map(sub, g[d:], g))
    for d in over:
        if d * d < m:
            for j in range(d):
                g[j::d] = accumulate(g[j::d])
        else:
            for i in range(d, m, d):
                g[i:i + d] = map(add, g[i:i + d], g[i - d:i])


def _reduce(coeffs: Sequence[int], n: int) -> tuple[int, ...]:
    """Reduce an integer polynomial f in z (any length) modulo Phi_n, pad
    to full width.

    Trailing zeros are dropped first, so an f of degree below deg Phi_n
    is returned as it is.  Otherwise the quotient q has
    m = len(f) - deg Phi_n terms.  For n > 1, Phi_n is palindromic and
    equals prod_up (1 - x^d) / prod_down (1 - x^d) (``_moebius_strides``),
    so

    * rev(q) = rev(f) / Phi_n mod x^m, and
    * the remainder is f minus q * Phi_n mod x^(deg Phi_n),

    each 2^omega(n) stride passes of O(len(f)) integer steps however many
    coefficients of Phi_n are nonzero.  Phi_1 = x - 1 reduces f to f(1).
    """
    deg, up, down = _moebius_strides(n)
    top = len(coeffs)
    while top > deg and not coeffs[top - 1]:
        top -= 1
    if top <= deg:
        return tuple(coeffs[:top]) + (0,) * (deg - top)
    if n == 1:
        return (sum(coeffs),)
    m = top - deg
    rev_q = list(coeffs[top - 1:deg - 1:-1])    # rev(f) mod x^m
    _stride_passes(rev_q, down, up)
    low = rev_q[::-1][:deg] + [0] * (deg - m)   # q mod x^deg
    _stride_passes(low, up, down)
    return tuple(map(sub, coeffs[:deg], low))


def _common_denominator(coeffs: Sequence) -> tuple[list[int], int]:
    """Integer numerators and one denominator for rational coefficients."""
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


class Cyclotomic:
    """An exact element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("order", "nums", "den", "_complex")

    def __init__(self, order: int, coeffs: Sequence[Fraction | int],
                 den: int = 1):
        """The value sum_i coeffs[i] * z^i / den, reduced modulo Phi_order."""
        _check_order(order)
        if set(map(type, coeffs)) - {int}:   # any non-int: Fraction path
            coeffs, common = _common_denominator(coeffs)
            den *= common
        if den == 0:
            raise ZeroDivisionError("cyclotomic value with denominator 0")
        nums = _reduce(coeffs, order)
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
        self.order = order
        self.nums = nums
        self.den = den
        self._complex = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The reduced coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x: Fraction | int, order: int = 1) -> "Cyclotomic":
        return cls(order, [x])

    @classmethod
    def zero(cls, order: int = 1) -> "Cyclotomic":
        return cls(order, [])

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        den = self.den
        if den == 1:
            pairs = [[c, 1] for c in self.nums]
        else:
            pairs = []
            for c in self.nums:
                g = math.gcd(c, den)
                pairs.append([c // g, den // g])
        return {"order": self.order, "coeffs": pairs}

    @classmethod
    def from_dict(cls, data: dict) -> "Cyclotomic":
        return cls(data["order"],
                   [Fraction(n, d) for n, d in data["coeffs"]])

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotInSubfield(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- order changes ------------------------------------------------

    def lift(self, order: int) -> "Cyclotomic":
        """Re-express in Q(zeta_order) for a multiple of the current order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise OrderMismatch(f"{order} is not a multiple of {self.order}")
        _check_order(order)
        step = order // self.order
        out = [0] * order
        for i, c in enumerate(self.nums):
            if c:
                out[i * step] = c
        return Cyclotomic(order, out, self.den)

    def descend(self, d: int) -> "Cyclotomic":
        """Re-express in Q(zeta_d) for a divisor d of the order N.

        Let m be N without the prime powers whose prime does not divide
        d.  A value in Q(zeta_d) equals its mean over Q(zeta_m)
        (``_mean_over``), which is checked by lifting the mean back.
        Since rad(m) | d, Phi_m(x) = Phi_d(x^(m/d)), so an element of
        Q(zeta_m) lies in Q(zeta_d) exactly when its only nonzero
        coefficients are at multiples of m/d.  No linear algebra is
        needed; NotInSubfield if either test fails.
        """
        _check_order(d)
        n = self.order
        if n % d != 0:
            raise OrderMismatch(f"{d} does not divide order {n}")
        if d == n:
            return self
        # the exponent of each prime in n is below n.bit_length()
        m = math.gcd(n, d ** n.bit_length())
        value = self._mean_over(m)
        step = m // d
        if (m < n and value.lift(n) != self) or any(
                c for i, c in enumerate(value.nums) if i % step):
            raise NotInSubfield(
                f"value of order {n} is not in Q(zeta_{d})")
        return Cyclotomic(d, value.nums[::step], value.den)

    def _mean_over(self, m: int) -> "Cyclotomic":
        """The mean of the conjugates over Q(zeta_m), as a value of order
        m, for m | N with gcd(m, N/m) = 1.

        With k = N/m and a = 1/k mod m, z_N^i = z_m^(i*a) * z_k^(i*b) for
        some b prime to k, and the mean of z_k^(i*b) over Gal(Q(zeta_k)/Q)
        is the Ramanujan sum c_k(i) / phi(k), where
        c_k(i) = sum of e | gcd(k, i) of mu(k/e) * e: the ``up`` divisors
        of k that divide i, less the ``down`` ones.
        """
        k = self.order // m
        phi, up, down = _moebius_strides(k)
        a = pow(k, -1, m)
        ramanujan = [0] * len(self.nums)       # c_k(i), by stride passes
        for e in up:
            ramanujan[::e] = [c + e for c in ramanujan[::e]]
        for e in down:
            ramanujan[::e] = [c - e for c in ramanujan[::e]]
        out = [0] * m
        for i, (c, r) in enumerate(zip(self.nums, ramanujan)):
            if c and r:
                out[i * a % m] += c * r
        return Cyclotomic(m, out, self.den * phi)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        n = math.lcm(a.order, b.order)
        return a.lift(n), b.lift(n)

    @staticmethod
    def _promote(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        return NotImplemented

    # -- field operations ----------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return Cyclotomic(a.order, [x * sa + y * sb
                                    for x, y in zip(a.nums, b.nums)], den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other) -> "Cyclotomic":
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        return -(self - other)

    def __mul__(self, other) -> "Cyclotomic":
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        prod = [0] * (len(a.nums) + len(b.nums) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic(a.order, prod, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse by the Galois norm.

        The product of x's conjugates under z -> z^k, k a unit mod N, is
        the rational norm N(x); the product of the conjugates with k != 1
        divided by N(x) is therefore 1/x.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        n = self.order
        others = Cyclotomic.from_rational(1, n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                others = others * self.galois_apply(k)
        norm = (self * others).as_rational()
        return Cyclotomic(n, [c * norm.denominator for c in others.nums],
                          others.den * norm.numerator)

    def __truediv__(self, other) -> "Cyclotomic":
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other) -> "Cyclotomic":
        return self._promote(other) / self

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.from_rational(1, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- Galois action --------------------------------------------------

    def galois_apply(self, k: int) -> "Cyclotomic":
        """Image under the automorphism z -> z^k, gcd(k, order) = 1."""
        n = self.order
        k %= n
        if math.gcd(k, n) != 1:
            raise NotCoprime(f"gcd({k}, {n}) != 1: not an automorphism")
        out = [0] * n
        for i, c in enumerate(self.nums):
            if c:
                out[(i * k) % n] = c
        return Cyclotomic(n, out, self.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, i.e. galois_apply(-1)."""
        return self.galois_apply(-1)

    # -- numeric embedding ----------------------------------------------

    def to_complex(self) -> complex:
        """Evaluate at z = exp(2*pi*i/N) in double precision.

        The powers of z come from ``_roots``, a per-order table.  The
        value is stored on the object the first time, so a value shared
        by many callers is embedded once; it is the same float on every
        call.
        """
        if self._complex is None:
            den = self.den
            total = 0j
            for c, w in zip(self.nums, _roots(self.order)):
                if c:
                    total += (c / den) * w
            self._complex = total
        return self._complex

    # -- comparison and display ------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self) -> int:
        """Hash of the mean of the conjugates, Tr(x)/phi(N).

        The mean does not change under lift and equals x for a rational
        x, so equal values hash alike, ints and Fractions too.
        """
        mean = self._mean_over(1)
        return hash(Fraction(mean.nums[0], mean.den))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                z = "z" if i == 1 else f"z^{i}"
                sign = "-" if c < 0 else ("+" if terms else "")
                terms.append(f"{sign} {mag}{z}" if terms else f"{'-' if c < 0 else ''}{mag}{z}")
        body = " ".join(terms) if terms else "0"
        return body

    def __repr__(self) -> str:
        return f"Cyclotomic(order={self.order}, {self})"


@lru_cache(maxsize=3)
def _roots(n: int) -> tuple[complex, ...]:
    """exp(2*pi*i*k/n) for k < deg Phi_n, the embedding of the power basis;
    kept for the three most recent orders.  A verify sweep embeds one
    order at a time, and three is the most orders that the exact-value
    benchmark workload alternates between (r = 891, 401 and 101)."""
    return tuple(cmath.exp(2j * cmath.pi * k / n) for k in range(degree(n)))


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """The exact root of unity z_n^k (z_n = exp(2*pi*i/n))."""
    _check_order(n)
    k %= n
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    return Cyclotomic(n, coeffs)


@lru_cache(maxsize=None)
def gauss_sum(c: int) -> Cyclotomic:
    """The quadratic Gauss sum sum_{j=1..c} z_c^(j^2) for odd c.

    Its exact value is epsilon(c) * sqrt(c), and its square is
    (-1)^((c-1)/2) * c.
    """
    if c % 2 == 0:
        raise EvenInput(f"Gauss sum is defined for odd c, got {c}")
    _check_order(c)
    counts = [0] * c
    for j in range(1, c + 1):
        counts[(j * j) % c] += 1
    return Cyclotomic(c, counts)
