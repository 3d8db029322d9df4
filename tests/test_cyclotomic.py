import cmath
import math
import random
from fractions import Fraction

import pytest

import lenstau.cyclotomic as cyc
from lenstau.cyclotomic import (Cyclotomic, cyclotomic_polynomial, degree,
                                gauss_sum, root_of_unity)
from lenstau.errors import (EvenInput, NotCoprime, NotInSubfield,
                            OrderMismatch, OrderOutOfRange)
from lenstau.number_theory import jacobi_symbol


def mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestPolynomials:
    def test_small_cyclotomics(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        for n in range(1, 40):
            assert degree(n) == totient(n)
        for n in (891, 3465, 4095, 4995):
            assert degree(n) == len(cyclotomic_polynomial(n)) - 1

    def test_degree_refuses_order_out_of_range(self):
        for n in (0, cyc.MAX_ORDER + 1):
            with pytest.raises(OrderOutOfRange):
                degree(n)


class TestRootOfUnity:
    def test_examples(self):
        assert root_of_unity(1, 0) == 1
        assert root_of_unity(4, 1) == Cyclotomic(4, [0, 1])
        assert root_of_unity(3, 3) == 1

    def test_exponent_reduction(self):
        for n in (5, 8, 12):
            for k in range(-n, 2 * n):
                assert root_of_unity(n, k) == root_of_unity(n, k % n)

    def test_max_order_refused(self):
        with pytest.raises(OrderOutOfRange, match="exceeds MAX_ORDER"):
            root_of_unity(cyc.MAX_ORDER + 1, 1)

    def test_order_below_one_refused(self):
        with pytest.raises(OrderOutOfRange, match="order must be >= 1"):
            root_of_unity(0, 1)


class TestSparseReduction:
    # Phi_N is sparse at these orders; long vectors must still reduce fully.
    @pytest.mark.parametrize("n", (105, 891, 1225, 4995))
    def test_z_to_the_n_is_one(self, n):
        assert Cyclotomic(n, [0] * n + [1]) == 1

    @pytest.mark.parametrize("n", (105, 891, 1225, 4995))
    def test_multiples_of_phi_vanish(self, n):
        phi = list(cyclotomic_polynomial(n))
        for k in (0, 1, n // 2, n - 1):
            assert Cyclotomic(n, [0] * k + phi).is_zero(), k


def fraction_reduce(coeffs, n):
    """The reduction modulo Phi_n one top term at a time (reference).

    Each nonzero top coefficient c at z^i is cleared by subtracting
    c * z^(i - deg) * Phi_n, reading the coefficients of Phi_n; the
    library's stride passes never read them.  The loop runs on integer
    numerators over the common denominator of coeffs and returns
    Fractions.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    terms = [(j, a) for j, a in enumerate(phi[:deg]) if a]
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in fracs))
    work = [c.numerator * (den // c.denominator) for c in fracs]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, a in terms:
                work[i - deg + j] -= c * a
    work = [Fraction(c, den) for c in work[:deg]]
    return work + [Fraction(0)] * (deg - len(work))


class TestIntegerCore:
    """Integer numerators over one common denominator."""

    @pytest.mark.parametrize("n", (*range(1, 301), 401, 891, 1225, 3465,
                                   4095, 4620, 4995))
    def test_phi_matches_sympy(self, n):
        specialpolys = pytest.importorskip("sympy.polys.specialpolys")
        ref = specialpolys.cyclotomic_poly(n, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(a) for a in ref)

    @pytest.mark.parametrize("n", (1, 2, 3, 101, 105, 401, 891, 1225, 3465,
                                   4095, 4620, 4995))
    def test_integer_reduce_matches_fraction_reduce(self, n):
        rng = random.Random(n)
        deg = degree(n)
        # 2*deg - 1 is the length of a product of two reduced values
        for length in sorted({0, deg, deg + 1, n, 2 * deg - 1, 3 * n}):
            coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))
                      if rng.random() < 0.3 else Fraction(0)
                      for _ in range(length)]
            den = math.lcm(*(c.denominator for c in coeffs))
            nums = [int(c * den) for c in coeffs]
            reduced = cyc._reduce(nums, n)
            assert all(type(c) is int for c in reduced)
            expected = fraction_reduce(coeffs, n)
            assert [Fraction(c, den) for c in reduced] == expected, length
            assert list(Cyclotomic(n, coeffs).coeffs) == expected, length

    @pytest.mark.parametrize("n", (5, 12, 891))
    def test_canonical_form(self, n):
        x = Cyclotomic(n, [2, 4], den=6)
        y = Cyclotomic(n, [Fraction(1, 3), Fraction(2, 3)])
        assert x == y and hash(x) == hash(y)
        assert (x.den, x.nums[:2]) == (3, (1, 2))
        assert y.coeffs[:2] == (Fraction(1, 3), Fraction(2, 3))
        neg = Cyclotomic(n, [3], den=-6)
        assert (neg.den, neg.nums[0]) == (2, -1)
        assert neg == Fraction(-1, 2) and hash(neg) == hash(
            Cyclotomic.from_rational(Fraction(-1, 2), n))
        zero = Cyclotomic(n, [0, 0, 0], den=7)
        assert (zero.den, zero.is_zero()) == (1, True)
        assert zero == Cyclotomic.zero(n) and hash(zero) == hash(
            Cyclotomic.zero(n))

    def test_hash_agrees_with_equality_across_orders(self):
        rng = random.Random(3)
        for n, mult in [(1, 7), (3, 4), (4, 6), (6, 2), (8, 3), (9, 3),
                        (12, 5), (15, 4)]:
            for _ in range(5):
                x = Cyclotomic(n, [Fraction(rng.randrange(-4, 5),
                                            rng.randrange(1, 4))
                                   for _ in range(degree(n))])
                lifted = x.lift(n * mult)
                assert lifted == x and hash(lifted) == hash(x), (n, mult)
        a, b = root_of_unity(6, 1), -root_of_unity(3, 2)
        assert a == b and len({a, b}) == 1
        neg = Cyclotomic(5, [3], den=-6)
        assert hash(neg) == hash(Fraction(-1, 2))
        fifth = Cyclotomic.from_rational(1, 5)
        assert fifth == 1 and hash(fifth) == hash(1)
        assert len({fifth, 1, Fraction(1), Cyclotomic.from_rational(1)}) == 1

    def test_coeffs_is_a_read_only_fraction_view(self):
        x = Cyclotomic(7, [1, 2, 0, Fraction(1, 3)])
        assert x.coeffs == (1, 2, 0, Fraction(1, 3), 0, 0)
        assert all(type(c) is Fraction for c in x.coeffs)
        with pytest.raises(AttributeError):
            x.coeffs = ()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Cyclotomic(5, [1], den=0)


class TestFieldOps:
    def test_vanishing_sum(self):
        z = root_of_unity(3, 1)
        assert z + z ** 2 + 1 == 0

    def test_quantum_integer_division(self):
        z = root_of_unity(5, 1)
        assert (z ** 2 - z ** -2) / (z - z ** -1) == z + z ** -1

    def test_i_squared(self):
        i = root_of_unity(4, 1)
        assert i * i == -1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            root_of_unity(5, 1) / Cyclotomic.zero(5)

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        for n, count in ((4, 10), (7, 10), (9, 10), (12, 10), (45, 4),
                         (101, 2)):
            for _ in range(count):
                x = Cyclotomic(n, [Fraction(rng.randrange(-3, 4),
                                            rng.randrange(1, 4))
                                   for _ in range(degree(n))])
                if x.is_zero():
                    continue
                assert x * x.inverse() == 1

    def test_mixed_order_autolift(self):
        # zeta_6 = -zeta_3^2, and values of different orders interoperate
        assert root_of_unity(6, 1) + root_of_unity(3, 2) == 0
        assert root_of_unity(6, 2) == root_of_unity(3, 1)

    def test_rational_interop(self):
        z = root_of_unity(5, 1)
        assert (1 - z) + z == 1
        assert Fraction(1, 2) * z * 2 == z


class TestGalois:
    def test_generator_image(self):
        z = root_of_unity(5, 1)
        assert z.galois_apply(2) == root_of_unity(5, 2)

    def test_fixes_rationals(self):
        x = Cyclotomic.from_rational(Fraction(22, 7), 9)
        for k in (2, 4, 5):
            assert x.galois_apply(k) == Fraction(22, 7)

    def test_composition(self):
        x = Cyclotomic(7, [1, 2, 0, Fraction(1, 3)])
        assert x.galois_apply(2).galois_apply(3) == x.galois_apply(6)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            root_of_unity(9, 1).galois_apply(3)

    def test_conjugate(self):
        assert root_of_unity(8, 1).conjugate() == root_of_unity(8, 7)
        assert Cyclotomic.from_rational(5).conjugate() == 5
        x = Cyclotomic(7, [1, 2, 3])
        assert x.conjugate().conjugate() == x

    def test_orbit_sum_is_mobius(self):
        for n in range(1, 61):
            total = Cyclotomic.zero(n)
            for k in range(n):
                if math.gcd(k, n) == 1:
                    total = total + root_of_unity(n, k)
            assert total == mobius(n), n


class TestEmbedding:
    def test_examples(self):
        assert abs(root_of_unity(4, 1).to_complex() - 1j) < 1e-12
        val = (1 + 2 * root_of_unity(3, 1)).to_complex()
        assert abs(val - cmath.sqrt(-3)) < 1e-12
        assert Cyclotomic.zero(5).to_complex() == 0

    def test_embedding_is_stored(self, monkeypatch):
        # an embedding that does work looks up the order's root table once
        lookups = []

        def counting_roots(n, _real=cyc._roots):
            lookups.append(n)
            return _real(n)

        monkeypatch.setattr(cyc, "_roots", counting_roots)
        x = Cyclotomic(15, [1, 0, Fraction(2, 3), -5])
        first = x.to_complex()
        assert lookups == [15]
        assert x.to_complex() == first
        assert lookups == [15]

    @pytest.mark.parametrize("n", (5, 12, 891, 4995))
    def test_root_table_sum_is_per_term_exp_sum(self, n):
        # the table holds the same floats, summed in the same order
        assert cyc._roots(n) == tuple(cmath.exp(2j * cmath.pi * i / n)
                                      for i in range(degree(n)))
        rng = random.Random(n)
        for density, den in ((0.05, 1), (1.0, 1), (0.3, 7), (1.0, 360)):
            x = Cyclotomic(n, [rng.randrange(-99, 100)
                               if rng.random() < density else 0
                               for _ in range(degree(n))], den)
            total = 0j
            for i, c in enumerate(x.nums):
                if c:
                    total += (c / x.den) * cmath.exp(2j * cmath.pi * i / n)
            assert x.to_complex() == total

    def test_stored_embedding_equals_fresh(self):
        rng = random.Random(7)
        for n in (5, 12, 45, 891):
            coeffs = [rng.randrange(-3, 4) for _ in range(degree(n))]
            stored = Cyclotomic(n, coeffs, den=7)
            stored.to_complex()
            assert stored.to_complex() == Cyclotomic(n, coeffs,
                                                     den=7).to_complex()

    def test_homomorphism(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.choice([8, 15, 24, 60, 120])
            x = Cyclotomic(n, [rng.randrange(-2, 3) for _ in range(degree(n))])
            y = Cyclotomic(n, [rng.randrange(-2, 3) for _ in range(degree(n))])
            lhs = (x * y).to_complex()
            rhs = x.to_complex() * y.to_complex()
            assert abs(lhs - rhs) < 1e-9


class TestLiftDescend:
    def test_examples(self):
        assert root_of_unity(15, 5).descend(3) == root_of_unity(3, 1)
        x = Cyclotomic.from_rational(Fraction(3, 4))
        assert x.descend(1) == x
        with pytest.raises(NotInSubfield):
            root_of_unity(15, 1).descend(3)

    def test_round_trip(self):
        rng = random.Random(5)
        for n, mult in [(3, 5), (4, 6), (6, 4), (9, 3), (12, 5)]:
            for _ in range(5):
                x = Cyclotomic(n, [Fraction(rng.randrange(-4, 5))
                                   for _ in range(degree(n))])
                assert x.lift(n * mult).descend(n) == x

    def test_descend_iff_galois_fixed(self):
        # Reference criterion: x lies in Q(zeta_d) iff every automorphism
        # z -> z^k with k = 1 (mod d) fixes it.
        rng = random.Random(11)
        outcomes = set()
        for n in (12, 15, 21, 30, 45):
            for d in (d for d in range(1, n) if n % d == 0):
                fixing = [k for k in range(1 + d, n, d) if math.gcd(k, n) == 1]
                inside = Cyclotomic(d, [rng.randrange(-3, 4)
                                        for _ in range(degree(d))]).lift(n)
                for k in range(n):
                    x = inside + root_of_unity(n, k)
                    fixed = all(x.galois_apply(j) == x for j in fixing)
                    outcomes.add(fixed)
                    if fixed:
                        assert x.descend(d).lift(n) == x
                    else:
                        with pytest.raises(NotInSubfield):
                            x.descend(d)
        assert outcomes == {True, False}

    def test_lift_preserves_value(self):
        for n, mult in [(5, 3), (8, 2), (9, 2)]:
            x = Cyclotomic(n, list(range(1, degree(n) + 1)))
            lifted = x.lift(n * mult)
            assert abs(x.to_complex() - lifted.to_complex()) < 1e-10

    def test_non_divisor_rejected(self):
        with pytest.raises(OrderMismatch, match="does not divide order"):
            root_of_unity(10, 1).descend(4)
        with pytest.raises(OrderMismatch, match="is not a multiple of"):
            root_of_unity(10, 1).lift(15)
        for d in (0, -5):
            with pytest.raises(OrderOutOfRange):
                root_of_unity(10, 1).descend(d)

    @pytest.mark.parametrize("n, d", [(3465, 315), (4620, 105), (4995, 135)])
    def test_large_orders(self, n, d):
        # orders with primes that d lacks, phi(n) up to 1440
        rng = random.Random(n)
        y = Cyclotomic(d, [rng.randrange(-3, 4) for _ in range(degree(d))],
                       den=7)
        assert y.lift(n).descend(d) == y
        with pytest.raises(NotInSubfield):
            (y.lift(n) + root_of_unity(n, 1)).descend(d)

    def test_as_rational_of_irrational(self):
        assert Cyclotomic(7, [Fraction(2, 3)]).as_rational() == Fraction(2, 3)
        with pytest.raises(NotInSubfield, match="is not rational"):
            root_of_unity(7, 1).as_rational()


class TestGaussSum:
    def test_examples(self):
        assert gauss_sum(1) == 1
        assert gauss_sum(3) == 1 + 2 * root_of_unity(3, 1)
        assert gauss_sum(5) * gauss_sum(5) == 5

    def test_even_input(self):
        with pytest.raises(EvenInput):
            gauss_sum(6)

    def test_squares_small(self):
        for c in range(1, 30, 2):
            assert gauss_sum(c) * gauss_sum(c) == (-1) ** ((c - 1) // 2) * c

    def test_matches_epsilon_sqrt(self):
        from lenstau.number_theory import epsilon

        for c in range(1, 26, 2):
            expected = epsilon(c).to_complex() * math.sqrt(c)
            assert abs(gauss_sum(c).to_complex() - expected) < 1e-9

    def test_quartic_twist_small(self):
        # sum_j zeta_c^(w j^2) = (w|c) * gauss_sum(c) for the inverse w of 4
        for r in range(3, 20, 2):
            w = (1 - r) // 4 if r % 4 == 1 else (1 + r) // 4
            for c in range(1, r + 1, 2):
                if r % c:
                    continue
                counts = [0] * c
                for j in range(1, c + 1):
                    counts[(w * j * j) % c] += 1
                twisted = Cyclotomic(c, counts)
                assert twisted == jacobi_symbol(w, c) * gauss_sum(c)


class TestSerialization:
    def test_round_trip(self):
        x = Cyclotomic(9, [Fraction(1, 3), 2, 0, Fraction(-5, 7)])
        data = x.to_dict()
        assert data["order"] == 9
        assert all(isinstance(pair, list) and len(pair) == 2
                   for pair in data["coeffs"])
        assert Cyclotomic.from_dict(data) == x

    def test_str_forms(self):
        assert str(Cyclotomic.zero(5)) == "0"
        assert str(root_of_unity(9, 2) * 2 - 1) == "-1 + 2*z^2"
