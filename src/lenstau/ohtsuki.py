"""The Ohtsuki series of a lens space as an exact truncated power series.

tau(L(p,q)) = t^(-3 s(q,p)) * (t^(1/2p) - t^(-1/2p)) / (t^(1/2) - t^(-1/2))

expanded in h = t - 1 with rational coefficients lambda_n.  Multiplying
top and bottom by t^(1/2) turns the denominator into t - 1 = h, so

    tau = ((1 + h)^alpha - (1 + h)^beta) / h,
    alpha, beta = 1/2 - 3 s(q,p) +- 1/(2p),

and lambda_n = C(alpha, n + 1) - C(beta, n + 1): one code path for even
and odd p, with no series product or inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertible
from .lens_invariants import LensSpace
from .number_theory import dedekind_sum


@dataclass(frozen=True)
class FormalSeries:
    """Truncated power series in h with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs)

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
            raise ValueError(f"series is not divisible by h^{k}")
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

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def binomial_series(alpha: Fraction | int, n_terms: int) -> FormalSeries:
    """(1 + h)^alpha to n_terms coefficients, C(alpha, n) by the exact
    recurrence C(alpha,0) = 1, C(alpha,n) = C(alpha,n-1)*(alpha-n+1)/n."""
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    alpha = Fraction(alpha)
    coeffs = [Fraction(1)]
    for n in range(1, n_terms):
        coeffs.append(coeffs[-1] * (alpha - n + 1) / n)
    return FormalSeries(tuple(coeffs))


def ohtsuki_tau(L: LensSpace, n_terms: int = 16) -> FormalSeries:
    """The Ohtsuki series of L(p, q), truncated to n_terms coefficients.

    lambda_0 is always 1/p; the series is invariant under q -> q + p
    and q -> q* (each pair presents the same oriented lens space).
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    a = Fraction(1, 2) - 3 * dedekind_sum(L.q, L.p)
    d = Fraction(1, 2 * L.p)
    return (binomial_series(a + d, n_terms + 1)
            - binomial_series(a - d, n_terms + 1)).shift_down(1)
