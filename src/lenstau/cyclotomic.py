"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in canonical form: a dense vector of integer
numerators over the power basis 1, z, ..., z^(deg Phi_N - 1), fully
reduced modulo the N-th cyclotomic polynomial Phi_N, over one positive
common denominator; gcd(den, numerators) = 1 and zero has den 1.
Phi_N is monic with integer coefficients, so reduction never leaves the
integers.  Equality is therefore coefficient-wise; values of different
orders interoperate by lifting both to Q(zeta_lcm).  ``coeffs`` is a
read-only view of the same vector as ``Fraction``s.

The canonical generator z of order N represents exp(2*pi*i/N).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import EvenInput, NotCoprime, NotInSubfield

# Largest supported conductor.  Exceeding it is a refused input, not a
# silent degradation; callers may raise the limit for bigger sweeps.
MAX_ORDER = 5000

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds MAX_ORDER = {MAX_ORDER}")


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


def _times_xd_minus_one(poly: list[int], d: int) -> list[int]:
    """poly * (x^d - 1)."""
    out = [0] * d + poly
    for i, c in enumerate(poly):
        out[i] -= c
    return out


def _div_xd_minus_one(poly: list[int], d: int) -> list[int]:
    """The exact quotient q = poly / (x^d - 1), by q_i = q_(i-d) - a_i;
    ArithmeticError if the remainder is nonzero."""
    n = len(poly) - d
    if n < 1:
        raise ArithmeticError("non-exact cyclotomic division")
    q = []
    for i in range(n):
        q.append((q[i - d] if i >= d else 0) - poly[i])
    if any(poly[i] != (q[i - d] if i >= d else 0)
           for i in range(n, n + d)):
        raise ArithmeticError("non-exact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_n, from the Moebius product
    Phi_n = prod_{d | n} (x^d - 1)^mu(n/d): multiply by the factors with
    mu = +1, then divide exactly by those with mu = -1."""
    _check_order(n)
    up, down = [n], []          # d = n/e for squarefree e, split by mu(e)
    for p in _prime_factors(n):
        up, down = up + [d // p for d in down], down + [d // p for d in up]
    poly = [1]
    for d in up:
        poly = _times_xd_minus_one(poly, d)
    for d in down:
        poly = _div_xd_minus_one(poly, d)
    return tuple(poly)


def degree(n: int) -> int:
    """deg Phi_n = Euler phi(n)."""
    return len(cyclotomic_polynomial(n)) - 1


def _reduce(coeffs: Sequence[int], n: int) -> tuple[int, ...]:
    """Reduce an integer polynomial in z (any length) modulo Phi_n, pad
    to full width.

    Only the nonzero coefficients of Phi_n are visited: Phi_n is sparse at
    many orders (Phi_891 has 15 nonzero coefficients of 541).
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    terms = [(j, a) for j, a in enumerate(phi[:deg]) if a]
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, a in terms:
                work[i - deg + j] -= c * a
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


def _common_denominator(coeffs: Sequence) -> tuple[list[int], int]:
    """Integer numerators and one denominator for rational coefficients."""
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


class Cyclotomic:
    """An exact element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("order", "nums", "den")

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
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- order changes ------------------------------------------------

    def lift(self, order: int) -> "Cyclotomic":
        """Re-express in Q(zeta_order) for a multiple of the current order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"{order} is not a multiple of {self.order}")
        _check_order(order)
        step = order // self.order
        out = [0] * order
        for i, c in enumerate(self.nums):
            if c:
                out[i * step] = c
        return Cyclotomic(order, out, self.den)

    def descend(self, d: int) -> "Cyclotomic":
        """Re-express in Q(zeta_d) for a divisor d of the order.

        The coefficients over the power basis of Q(zeta_d) are found by
        exact linear solving; the system is inconsistent exactly when the
        value does not lie in Q(zeta_d).
        """
        n = self.order
        if n % d != 0:
            raise ValueError(f"{d} does not divide order {n}")
        if d == n:
            return self
        sol = _solve_descend(n, d, self.nums)
        if sol is None:
            raise NotInSubfield(
                f"value of order {n} is not in Q(zeta_{d})")
        return Cyclotomic(d, sol, self.den)

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
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_N in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        inv = _poly_modular_inverse(list(self.coeffs), phi)
        return Cyclotomic(self.order, inv)

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
        """Evaluate at z = exp(2*pi*i/N) in double precision."""
        n, den = self.order, self.den
        total = 0j
        for i, c in enumerate(self.nums):
            if c:
                total += (c / den) * cmath.exp(2j * cmath.pi * i / n)
        return total

    # -- comparison and display ------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self) -> int:
        return hash((self.order, self.den, self.nums))

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


# -- internal exact linear algebra ------------------------------------


def _poly_modular_inverse(f: list[Fraction], phi: list[Fraction]) -> list[Fraction]:
    """Inverse of f in Q[x]/(phi) by extended Euclid; phi irreducible."""

    def deg(p: list[Fraction]) -> int:
        for i in range(len(p) - 1, -1, -1):
            if p[i] != 0:
                return i
        return -1

    def divmod_poly(a: list[Fraction], b: list[Fraction]):
        a = list(a)
        db, lb = deg(b), b[deg(b)]
        q = [_ZERO] * (max(deg(a) - db + 1, 1))
        while deg(a) >= db and deg(a) >= 0:
            da = deg(a)
            c = a[da] / lb
            q[da - db] = c
            for j in range(db + 1):
                a[da - db + j] -= c * b[j]
        return q, a

    r0, r1 = list(phi), list(f)
    t0, t1 = [_ZERO], [_ONE]
    while deg(r1) > 0:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        prod = [_ZERO] * (deg(q) + max(deg(t1), 0) + 2)
        for i in range(deg(q) + 1):
            if q[i]:
                for j in range(max(deg(t1), 0) + 1):
                    prod[i + j] += q[i] * t1[j]
        t2 = [x - y for x, y in
              zip(t0 + [_ZERO] * (len(prod) - len(t0) + 1),
                  prod + [_ZERO] * (len(t0) - len(prod) + 1))]
        t0, t1 = t1, t2
    if deg(r1) < 0:
        raise ZeroDivisionError("element shares a factor with Phi_N")
    lead = r1[deg(r1)]
    return [c / lead for c in t1]


@lru_cache(maxsize=None)
def _descend_basis(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Columns: z_n^(j*n/d) for j < deg Phi_d, reduced into Q(zeta_n)."""
    step = n // d
    cols = []
    for j in range(degree(d)):
        e = (j * step) % n
        vec = [0] * (e + 1)
        vec[e] = 1
        cols.append(_reduce(vec, n))
    return tuple(cols)


def _solve_descend(n: int, d: int, target: Sequence[Fraction | int]):
    """Solve sum_j c_j * basis_j = target exactly; None if inconsistent."""
    cols = _descend_basis(n, d)
    ncols = len(cols)
    nrows = degree(n)
    # augmented rows
    rows = [[col[i] for col in cols] + [target[i]] for i in range(nrows)]
    pivot_rows: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = _ONE / pr[col]
        rows[rank] = pr = [v * inv for v in pr]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        pivot_rows.append(col)
        rank += 1
    for r in range(rank, nrows):
        if rows[r][ncols] != 0:
            return None
    sol = [_ZERO] * ncols
    for r, col in enumerate(pivot_rows):
        sol[col] = rows[r][ncols]
    return sol
