import math
import random
from fractions import Fraction

import pytest

from lenstau.errors import (EvenInput, EvenModulus, NonPositiveModulus,
                            NonPositiveP, NotCoprime)
from lenstau.lens_invariants import make_lens_space
from lenstau.number_theory import (_twelve_dedekind, bezout_pair,
                                   dedekind_sum,
                                   dedekind_sum_direct, epsilon, ext_gcd,
                                   jacobi_symbol, mod_inverse, rational_mod,
                                   sawtooth)


def brute_legendre(a, p):
    """Legendre symbol by quadratic-residue enumeration (p an odd prime)."""
    a %= p
    if a == 0:
        return 0
    residues = {(x * x) % p for x in range(1, p)}
    return 1 if a in residues else -1


def factorize(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def brute_jacobi(a, n):
    result = 1
    for p in factorize(n):
        result *= brute_legendre(a, p)
    return result


class TestExtGcd:
    def test_examples(self):
        assert ext_gcd(3, 7) == (1, -2, 1)
        g, x, y = ext_gcd(4, 6)
        assert g == 2 and 4 * x + 6 * y == 2
        assert ext_gcd(0, 5) == (5, 0, 1)
        assert ext_gcd(0, 0) == (0, 0, 0)

    def test_bezout_identity_grid(self):
        for a in range(-20, 21):
            for b in range(-20, 21):
                g, x, y = ext_gcd(a, b)
                assert g == math.gcd(a, b)
                assert a * x + b * y == g


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(3, 7) == 5
        assert mod_inverse(2, 5) == 3
        for n in (2, 5, 9, 100):
            assert mod_inverse(1, n) == 1 % n

    def test_round_trip(self):
        for n in range(2, 60):
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert (a * mod_inverse(a, n)) % n == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            mod_inverse(6, 9)

    @pytest.mark.parametrize("n", [0, -7])
    def test_non_positive_modulus(self, n):
        with pytest.raises(NonPositiveModulus, match="must be positive"):
            mod_inverse(3, n)


class TestJacobi:
    def test_examples(self):
        assert jacobi_symbol(1, 15) == 1
        assert jacobi_symbol(3, 9) == 0
        assert jacobi_symbol(2, 15) == 1

    def test_even_modulus(self):
        with pytest.raises(EvenModulus):
            jacobi_symbol(3, 8)
        with pytest.raises(EvenModulus):
            jacobi_symbol(3, -5)

    def test_against_brute_force(self):
        for n in range(1, 90, 2):
            for a in range(-5, n + 3):
                assert jacobi_symbol(a, n) == brute_jacobi(a, n), (a, n)

    def test_multiplicative_in_modulus(self):
        for m in range(1, 100, 2):
            for n in range(m, 100, 2):
                for a in (2, 5, 7):
                    assert (jacobi_symbol(a, m * n)
                            == jacobi_symbol(a, m) * jacobi_symbol(a, n))

    def test_negative_argument_reduces(self):
        # the Case 2 formula feeds q*(1 -+ r)/4, often negative
        for n in (5, 9, 21):
            for a in range(1, n):
                assert jacobi_symbol(-a, n) == jacobi_symbol(n - a, n)


class TestRationalMod:
    def test_examples(self):
        assert rational_mod(Fraction(1, 2), 5) == 3
        assert rational_mod(Fraction(3), 7) == 3
        assert rational_mod(Fraction(2, 4), 5) == rational_mod(Fraction(1, 2), 5)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            rational_mod(Fraction(1, 10), 5)

    def test_representation_independence(self):
        rng = random.Random(7)
        for _ in range(300):
            a = rng.randrange(-40, 41)
            b = rng.randrange(1, 40)
            r = rng.choice([3, 5, 7, 11, 13])
            x = Fraction(a, b)
            if math.gcd(x.denominator, r) != 1:
                continue
            scale = rng.randrange(1, 12)
            if math.gcd(b * scale, r) != 1:
                continue
            direct = rational_mod(x, r)
            unreduced = (a * scale * mod_inverse(b * scale, r)) % r
            assert direct == unreduced


class TestEpsilon:
    def test_values(self):
        from lenstau.cyclotomic import root_of_unity

        assert epsilon(5) == 1
        assert epsilon(7) == root_of_unity(4, 1)
        assert epsilon(1) == 1

    def test_even_input(self):
        with pytest.raises(EvenInput):
            epsilon(4)


class TestBezoutPair:
    def test_examples(self):
        assert bezout_pair(3, 5) == (2, -1)
        assert bezout_pair(1, 5) == (1, 0)
        assert bezout_pair(5, 3) == (2, -3)

    def test_canonical_range(self):
        for u in range(-15, 16):
            for v in range(-15, 16):
                if math.gcd(u, v) != 1:
                    continue
                up, vp = bezout_pair(u, v)
                assert up * u + vp * v == 1
                if abs(v) > 1:
                    assert 0 <= up < abs(v)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            bezout_pair(6, 9)


class TestDedekindSum:
    def test_examples(self):
        for q in (0, 1, 5, -3):
            assert dedekind_sum(q, 1) == 0
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)
        assert dedekind_sum_direct(1, 3) == Fraction(1, 18)

    def test_recursion_matches_direct(self):
        for p in range(1, 81):
            for q in range(p):
                if math.gcd(q, p) == 1:
                    assert dedekind_sum(q, p) == dedekind_sum_direct(q, p)

    def test_twelve_dedekind_integer_pair(self):
        for p in range(1, 60):
            for q in range(-p, 2 * p):
                if math.gcd(q, p) == 1:
                    num, den = _twelve_dedekind(q, p)
                    assert type(num) is int and type(den) is int and den > 0
                    assert Fraction(num, den) == 12 * dedekind_sum_direct(q, p)
        with pytest.raises(NotCoprime):
            _twelve_dedekind(2, 4)
        with pytest.raises(ValueError):
            _twelve_dedekind(1, 0)

    def test_non_positive_p(self):
        for fn in (dedekind_sum, dedekind_sum_direct, _twelve_dedekind):
            for p in (0, -5):
                with pytest.raises(NonPositiveP):
                    fn(1, p)

    def test_reciprocity(self):
        for p in range(2, 80):
            for q in range(1, p):
                if math.gcd(q, p) != 1:
                    continue
                lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
                rhs = Fraction(-1, 4) + Fraction(
                    p * p + q * q + 1, 12 * p * q)
                assert lhs == rhs

    def test_periodicity_and_oddness(self):
        for p in (5, 8, 13):
            for q in range(1, p):
                if math.gcd(q, p) != 1:
                    continue
                assert dedekind_sum(q + p, p) == dedekind_sum(q, p)
                assert dedekind_sum(-q, p) == -dedekind_sum(q, p)

    def test_inverse_symmetry(self):
        # s(q~, p) = s(q, p) when q*q~ = 1 mod p
        for p in range(2, 100):
            for q in range(1, p):
                if math.gcd(q, p) != 1:
                    continue
                q_inv = mod_inverse(q, p)
                assert dedekind_sum(q_inv, p) == dedekind_sum(q, p)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            dedekind_sum(2, 4)

    def test_large_arguments(self):
        # 12*p*s(q,p) is an int, and reciprocity holds exactly, far beyond
        # the reach of the direct sum.
        rng = random.Random(12)
        checked = 0
        while checked < 200:
            p = rng.randrange(2, 10 ** 7)
            q = rng.randrange(1, p)
            if math.gcd(p, q) != 1:
                continue
            m = make_lens_space(p, q).m
            assert type(m) is int and m == 12 * p * dedekind_sum(q, p)
            assert dedekind_sum(q, p) + dedekind_sum(p, q) == Fraction(
                -1, 4) + Fraction(p * p + q * q + 1, 12 * p * q)
            checked += 1

    def test_sawtooth(self):
        assert sawtooth(3) == 0
        assert sawtooth(Fraction(1, 2)) == 0
        assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)
        assert sawtooth(Fraction(5, 3)) == Fraction(1, 6)

