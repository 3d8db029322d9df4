"""The Ohtsuki series of a lens space as an exact truncated power series.

tau(L(p,q)) = t^(-3 s(q,p)) * (t^(1/2p) - t^(-1/2p)) / (t^(1/2) - t^(-1/2))

expanded in h = t - 1 with rational coefficients lambda_n.  Multiplying
top and bottom by t^(1/2) turns the denominator into t - 1 = h, so

    tau = ((1 + h)^alpha - (1 + h)^beta) / h,
    alpha, beta = 1/2 - 3 s(q,p) +- 1/(2p),

and lambda_n = C(alpha, n + 1) - C(beta, n + 1): one code path for even
and odd p, with no series product or inverse.

The whole series is integer arithmetic.  With m = 12 s(q,p) p, an
integer, alpha and beta share the denominator b = 4p:

    alpha, beta = (2p - m +- 2) / b,

and C(a/b, k) = P_a(k) / (b^k k!) with the integer falling product
P_a(k) = prod_{j < k} (a - j b).  So

    lambda_(k-1) = (P_(2p-m+2)(k) - P_(2p-m-2)(k)) / (b^k k!),

two running integer products and one split reduction per coefficient.
No gcd runs against the whole denominator D = b^k k!.  Prime by prime,

    gcd(N, b^k k!) = g gcd(N/g, b^k),  g = gcd(N, k!),

and with b = 2^t o, o odd, the second factor is a shift by
min(v_2(N/g), k t) and at most k strips of gcd(., o).  The pair left is
coprime, so the Fraction is built without a second gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import NotDivisible, NotInvertible, TermsOutOfRange
from .lens_invariants import LensSpace

# Largest supported truncation.  The cost grows about as n_terms^3: the
# coefficients have O(n_terms) digits, and each is reduced by a gcd
# against k! and printed in decimal.
# `lenstau ohtsuki --p 999983 --q 2 --terms 1000 --format json` takes
# 1.3 s and 40 MB peak RSS in a fresh process (8 MB of output), of which
# the series is 0.35 s and printing most of the rest; with the cap
# raised, 2000 terms take 9.3 s and 113 MB (2 vCPUs, Python 3.11.7).
MAX_TERMS = 1000


class FormalSeries(NamedTuple):
    """Truncated power series in h with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_list(cls, values) -> "FormalSeries":
        return cls(tuple(Fraction(v) for v in values))

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return FormalSeries(tuple(a + b for a, b in
                                  zip(self.coeffs[:n], other.coeffs[:n])))

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return FormalSeries(tuple(a - b for a, b in
                                  zip(self.coeffs[:n], other.coeffs[:n])))

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return FormalSeries(tuple(out))

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (truncation if zero)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return len(self.coeffs)

    def shift_down(self, k: int) -> "FormalSeries":
        """Divide by h^k; the dropped coefficients must vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise NotDivisible(f"series is not divisible by h^{k}")
        return FormalSeries(self.coeffs[k:])

    def inverse(self) -> "FormalSeries":
        """Multiplicative inverse of a unit (nonzero constant term)."""
        if not self.coeffs or self.coeffs[0] == 0:
            raise NotInvertible("constant term is zero")
        n = len(self.coeffs)
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * (n - 1)
        for k in range(1, n):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return FormalSeries(tuple(out))

    def divide(self, other: "FormalSeries") -> "FormalSeries":
        """Power-series quotient, cancelling the denominator's leading
        power of h; the numerator must vanish at least as deep."""
        v = other.valuation()
        if v >= len(other.coeffs):
            raise NotInvertible("division by the zero series")
        num = self.shift_down(v) if v else self
        den = other.shift_down(v) if v else other
        return num * den.inverse()

    def evaluate(self, h: complex) -> complex:
        total = 0j
        for c in reversed(self.coeffs):
            total = total * h + float(c)
        return total


def _check_terms(n_terms: int) -> None:
    """Refuse n_terms outside 1..MAX_TERMS before any O(n_terms) work."""
    if n_terms < 1:
        raise TermsOutOfRange(f"n_terms must be >= 1, got {n_terms}")
    if n_terms > MAX_TERMS:
        raise TermsOutOfRange(
            f"n_terms {n_terms} exceeds MAX_TERMS = {MAX_TERMS}")


def _falling_products(a: int, b: int, n: int) -> list[int]:
    """P(k) = prod_{j < k} (a - j*b) for 0 <= k < n, so that
    C(a/b, k) = P(k) / (b^k * k!)."""
    out = [1]
    prod = 1
    for j in range(n - 1):
        prod *= a - j * b
        out.append(prod)
    return out


# n / d for coprime n and d > 0, built without a normalizing gcd
if hasattr(Fraction, "_from_coprime_ints"):       # Python 3.12+
    _from_coprime = Fraction._from_coprime_ints
else:                                             # Python 3.10-3.11
    def _from_coprime(n: int, d: int) -> Fraction:
        return Fraction(n, d, _normalize=False)


def _over_falling_denominators(nums, b: int) -> list[Fraction]:
    """nums[k - 1] / (b^k * k!) in lowest terms, for k = 1, 2, ...,
    by the split reduction of the module docstring.

    The strips of h = gcd(M, o) stop after k: past k, a prime of o
    would be taken out of M more often than b^k holds it.
    """
    t = (b & -b).bit_length() - 1
    o = b >> t
    out = []
    fact = power = 1
    for k, n in enumerate(nums, 1):
        fact *= k
        power *= b
        if not n:                  # 0 has no 2-adic valuation
            out.append(Fraction(0))
            continue
        g = gcd(n, fact)
        n //= g
        twos = min((n & -n).bit_length() - 1, k * t)
        n >>= twos
        odd = 1
        for _ in range(k):
            h = gcd(n, o)
            if h == 1:
                break
            n //= h
            odd *= h
        out.append(_from_coprime(n, fact // g * ((power >> twos) // odd)))
    return out


def binomial_series(alpha: Fraction | int, n_terms: int) -> FormalSeries:
    """(1 + h)^alpha to n_terms coefficients, C(alpha, k) = P(k)/(b^k k!)
    for alpha = a/b, reduced as in `_over_falling_denominators`."""
    _check_terms(n_terms)
    alpha = Fraction(alpha)
    b = alpha.denominator
    nums = _falling_products(alpha.numerator, b, n_terms)
    coeffs = _over_falling_denominators(nums[1:], b)
    return FormalSeries((Fraction(1), *coeffs))


def ohtsuki_tau(L: LensSpace, n_terms: int = 16) -> FormalSeries:
    """The Ohtsuki series of L(p, q), truncated to n_terms coefficients.

    lambda_0 is always 1/p; the series is invariant under q -> q + p
    and q -> q* (each pair presents the same oriented lens space).
    """
    _check_terms(n_terms)
    a, b = 2 * L.p - L.m, 4 * L.p
    up = _falling_products(a + 2, b, n_terms + 1)
    down = _falling_products(a - 2, b, n_terms + 1)
    return FormalSeries(tuple(_over_falling_denominators(
        (x - y for x, y in zip(up[1:], down[1:])), b)))
