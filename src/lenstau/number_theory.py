"""Exact integer and rational number theory.

Conventions used throughout the package:

* ``b'`` denotes the inverse of ``b`` modulo ``r``; the residue of a
  rational ``a/b`` modulo ``r`` is ``a * b' mod r``, which is independent
  of the chosen representation of ``a/b``.  Residues are plain ints in
  ``[0, r)``.
* ``s(q, p)`` is the classical Dedekind sum with the sawtooth
  ``((x)) = x - floor(x) - 1/2`` for non-integral x and 0 otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (EvenInput, EvenModulus, NonPositiveModulus, NonPositiveP,
                     NotCoprime)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    if a == 0 and b == 0:
        return 0, 0, 0
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n, in [0, n); requires gcd(a, n) = 1."""
    if n <= 0:
        raise NonPositiveModulus(f"modulus must be positive, got {n}")
    g = math.gcd(a, n)
    if g != 1:
        raise NotCoprime(f"{a} is not invertible mod {n} (gcd = {g})")
    return pow(a, -1, n)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n; (a|1) = 1.

    Negative a is reduced mod n first, so (a|n) = (a mod n | n).
    """
    if n <= 0 or n % 2 == 0:
        raise EvenModulus(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def rational_mod(x: Fraction | int, r: int) -> int:
    """The residue a*b' mod r of x = a/b in [0, r), for gcd(b, r) = 1.

    Well-defined on the value of x: equal fractions with denominators
    coprime to r give equal residues, so the reduced form is used.
    """
    x = Fraction(x)
    return x.numerator * mod_inverse(x.denominator, r) % r


def epsilon(c: int):
    """The fourth root of unity: 1 if c = 1 (mod 4), i if c = -1 (mod 4)."""
    from .cyclotomic import root_of_unity

    if c % 2 == 0:
        raise EvenInput(f"epsilon is defined for odd c, got {c}")
    return root_of_unity(4, 0) if c % 4 == 1 else root_of_unity(4, 1)


def bezout_pair(u: int, v: int) -> tuple[int, int]:
    """Canonical (u', v') with u'*u + v'*v = 1 and 0 <= u' < |v|.

    For v = +-1 the canonical representative is (0, v).
    """
    g = math.gcd(u, v)
    if g != 1:
        raise NotCoprime(f"gcd({u}, {v}) = {g} != 1")
    if v == 0:
        return u, 0  # u = +-1
    if abs(v) == 1:
        return 0, v
    u_prime = mod_inverse(u, abs(v))
    v_prime = (1 - u_prime * u) // v
    return u_prime, v_prime


def sawtooth(x: Fraction | int) -> Fraction:
    """((x)) = x - floor(x) - 1/2 for non-integral x, else 0."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_sum_direct(q: int, p: int) -> Fraction:
    """s(q, p) by direct O(p) summation; the oracle for dedekind_sum."""
    _check_lens_pair(p, q)
    total = Fraction(0)
    for k in range(1, p):
        total += sawtooth(Fraction(k, p)) * sawtooth(Fraction(k * q, p))
    return total


def dedekind_sum(q: int, p: int) -> Fraction:
    """The Dedekind sum s(q, p), gcd(q, p) = 1, via reciprocity."""
    num, den = _twelve_dedekind(q, p)
    return Fraction(num, 12 * den)


def _twelve_dedekind(q: int, p: int) -> tuple[int, int]:
    """12 * s(q, p) as an integer pair (num, den), den > 0, not reduced.

    Uses s(q, p) = -1/4 + (p/q + q/p + 1/(pq))/12 - s(p, q) together
    with periodicity and oddness, descending like the Euclidean
    algorithm in O(log p) steps; 12 * s accumulates as one integer
    fraction.
    """
    _check_lens_pair(p, q)
    num, den = 0, 1                     # 12 * s(q, p) = num / den
    sign = 1
    q %= p
    while p > 1:
        # s(q, p) = reciprocity(q, p) - s(p mod q, q), where
        # 12 * reciprocity(q, p) = (p^2 + q^2 + 1 - 3pq) / (pq)
        step = p * q
        num = num * step + sign * (p * p + q * q + 1 - 3 * step) * den
        den *= step
        sign = -sign
        p, q = q, p % q
    return num, den


def _check_lens_pair(p: int, q: int) -> None:
    """The package's one rule for a lens space pair (p, q), which
    Dedekind sums s(q, p) share: p >= 1 and gcd(p, q) = 1."""
    if p < 1:
        raise NonPositiveP(f"p must be >= 1, got {p}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
