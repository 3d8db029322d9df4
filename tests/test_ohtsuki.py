import cmath
import math
import random
from fractions import Fraction

import pytest

from lenstau import cli, lens_invariants, ohtsuki
from lenstau.errors import (IntegralityFailure, NotDivisible, NotInvertible,
                            TermsOutOfRange)
from lenstau.lens_invariants import make_lens_space, tau_prime
from lenstau.number_theory import dedekind_sum, jacobi_symbol
from lenstau.ohtsuki import FormalSeries, binomial_series, ohtsuki_tau


def series_by_composition(L, n_terms):
    """The paper's t^(-3s) * (t^(1/2p) - t^(-1/2p)) / (t^(1/2) - t^(-1/2))
    through the general series machinery: one order deep, so that
    cancelling h in the quotient keeps n_terms coefficients."""
    depth = n_terms + 1
    half = Fraction(1, 2)
    half_p = Fraction(1, 2 * L.p)
    num = binomial_series(half_p, depth) - binomial_series(-half_p, depth)
    den = binomial_series(half, depth) - binomial_series(-half, depth)
    prefactor = binomial_series(-3 * dedekind_sum(L.q, L.p), depth)
    return FormalSeries((prefactor * num.divide(den)).coeffs[:n_terms])


class TestBinomialSeries:
    def test_examples(self):
        assert binomial_series(1, 3).coeffs == (1, 1, 0)
        assert binomial_series(0, 4).coeffs == (1, 0, 0, 0)
        assert binomial_series(Fraction(1, 2), 3).coeffs == \
            (1, Fraction(1, 2), Fraction(-1, 8))

    def test_integer_exponent_is_binomial(self):
        s = binomial_series(5, 8)
        assert [c for c in s.coeffs] == [math.comb(5, n) for n in range(6)] + [0, 0]

    def test_bad_terms(self):
        with pytest.raises(ValueError):
            binomial_series(1, 0)


class TestSeriesOps:
    def test_self_division(self):
        s = binomial_series(Fraction(1, 3), 6) - binomial_series(Fraction(-2, 3), 6)
        one = s.divide(s)
        assert one.coeffs[0] == 1
        assert all(c == 0 for c in one.coeffs[1:])

    def test_mul_truncates(self):
        a = FormalSeries.from_list([1, 1])
        b = FormalSeries.from_list([1, -1])
        assert (a * b).coeffs == (1, 0)

    def test_divide_cancels_leading_h(self):
        num = FormalSeries.from_list([0, 1, 1])   # h + h^2
        den = FormalSeries.from_list([0, 1, 0])   # h
        assert num.divide(den).coeffs == (1, 1)

    def test_add_sub(self):
        a = FormalSeries.from_list([1, 2, 3])
        b = FormalSeries.from_list([1, -2])
        assert (a + b).coeffs == (2, 0)
        assert (a - b).coeffs == (0, 4)

    def test_not_invertible(self):
        zero = FormalSeries.from_list([0, 0, 0])
        with pytest.raises(NotInvertible):
            FormalSeries.from_list([1, 1, 1]).divide(zero)
        with pytest.raises(NotInvertible):
            zero.inverse()

    def test_shift_down_not_divisible(self):
        with pytest.raises(NotDivisible, match="not divisible by h"):
            FormalSeries.from_list([0, 1, 1]).shift_down(2)

    def test_deeper_numerator_zero_ok(self):
        num = FormalSeries.from_list([0, 0, 1])  # h^2
        den = FormalSeries.from_list([0, 1, 0])  # h
        assert num.divide(den).coeffs == (0, 1)

    def test_evaluate(self):
        s = FormalSeries.from_list([1, Fraction(1, 2), Fraction(1, 4)])
        assert abs(s.evaluate(2 + 0j) - 3.0) < 1e-12


class TestOhtsukiTau:
    def test_sphere(self):
        series = ohtsuki_tau(make_lens_space(1, 0), 5)
        assert series.coeffs == (1, 0, 0, 0, 0)

    def test_rp3(self):
        series = ohtsuki_tau(make_lens_space(2, 1), 4)
        assert series.coeffs[0] == Fraction(1, 2)
        assert series.coeffs[1] == 0
        assert series.coeffs[2] == Fraction(-1, 64)

    def test_lambda0(self):
        for p in range(1, 30):
            for q in range(0 if p == 1 else 1, max(p, 1)):
                if math.gcd(p, q) == 1:
                    s = ohtsuki_tau(make_lens_space(p, q), 2)
                    assert s.coeffs[0] == Fraction(1, p)

    def test_default_truncation(self):
        assert len(ohtsuki_tau(make_lens_space(3, 1)).coeffs) == 16

    def test_invariance_q_shift_and_inverse(self):
        for (p, q) in [(4, 1), (5, 2), (7, 3), (9, 2), (12, 5)]:
            L = make_lens_space(p, q)
            base = ohtsuki_tau(L, 12)
            assert ohtsuki_tau(make_lens_space(p, q + p), 12) == base
            assert ohtsuki_tau(make_lens_space(p, L.q_star), 12) == base

    def test_even_and_odd_p_through_one_path(self):
        # the closed form has no parity split; spot-check both parities
        even = ohtsuki_tau(make_lens_space(4, 1), 3)
        odd = ohtsuki_tau(make_lens_space(5, 1), 3)
        assert even.coeffs[0] == Fraction(1, 4)
        assert odd.coeffs[0] == Fraction(1, 5)

    def test_bad_terms(self):
        with pytest.raises(TermsOutOfRange, match="n_terms must be >= 1"):
            ohtsuki_tau(make_lens_space(2, 1), 0)


class TestClosedFormAgainstComposition:
    """lambda_n = C(alpha, n+1) - C(beta, n+1) equals the product and
    quotient of the general series operations, exactly."""

    @pytest.mark.parametrize("n_terms", [1, 2, 8, 30])
    def test_every_small_lens_space(self, n_terms):
        for p in range(1, 41):
            for q in range(0 if p == 1 else 1, max(p, 1)):
                if math.gcd(p, q) == 1:
                    L = make_lens_space(p, q)
                    assert ohtsuki_tau(L, n_terms) == \
                        series_by_composition(L, n_terms), (p, q)

    @pytest.mark.parametrize("p, q", [(99991, 12345), (100003, 7),
                                      (999983, 500000), (1000003, 2)])
    def test_large_p(self, p, q):
        L = make_lens_space(p, q)
        assert ohtsuki_tau(L, 12) == series_by_composition(L, 12)


def fraction_binomial(alpha, n_terms):
    """C(alpha, n) by the Fraction recurrence
    C(alpha, n) = C(alpha, n-1) * (alpha - n + 1) / n (reference)."""
    alpha = Fraction(alpha)
    coeffs = [Fraction(1)]
    for n in range(1, n_terms):
        coeffs.append(coeffs[-1] * (alpha - n + 1) / n)
    return tuple(coeffs)


def fraction_ohtsuki(L, n_terms):
    """lambda_n = C(alpha, n+1) - C(beta, n+1) in Fraction arithmetic,
    alpha, beta = 1/2 - 3 s(q,p) +- 1/(2p) (reference)."""
    a = Fraction(1, 2) - 3 * dedekind_sum(L.q, L.p)
    d = Fraction(1, 2 * L.p)
    up = fraction_binomial(a + d, n_terms + 1)
    down = fraction_binomial(a - d, n_terms + 1)
    return tuple(x - y for x, y in zip(up[1:], down[1:]))


class TestIntegerOhtsuki:
    """The integer falling products over (4p)^k k! against the Fraction
    recurrence, exactly."""

    @pytest.mark.parametrize("n_terms", [1, 2, 8, 30, 81])
    def test_every_small_lens_space(self, n_terms):
        for p in range(1, 41):
            for q in range(0 if p == 1 else 1, max(p, 1)):
                if math.gcd(p, q) == 1:
                    L = make_lens_space(p, q)
                    assert ohtsuki_tau(L, n_terms).coeffs == \
                        fraction_ohtsuki(L, n_terms), (p, q)

    def test_seeded_large_p(self):
        rng = random.Random(0)
        for _ in range(200):
            p = rng.randrange(2, 10 ** 7)
            q = rng.randrange(1, p)
            while math.gcd(p, q) != 1:
                q = rng.randrange(1, p)
            L = make_lens_space(p, q)
            assert ohtsuki_tau(L, 80).coeffs == fraction_ohtsuki(L, 80), (p, q)

    @pytest.mark.parametrize("alpha", [0, 1, 5, -3, Fraction(1, 2),
                                       Fraction(-7, 3),
                                       Fraction(123457, 1000003)])
    def test_binomial_series(self, alpha):
        for n_terms in range(1, 41):
            assert binomial_series(alpha, n_terms).coeffs == \
                fraction_binomial(alpha, n_terms), n_terms

    def test_non_integral_twelve_s_times_p(self, monkeypatch):
        # 12*s = 1/(7p), so 12*s*p = 1/7
        monkeypatch.setattr(lens_invariants, "_twelve_dedekind",
                            lambda q, p: (1, 7 * p))
        with pytest.raises(IntegralityFailure):
            ohtsuki_tau(make_lens_space(5, 2), 4)


class TestTermsBound:
    """n_terms above MAX_TERMS is refused before any O(n_terms) work."""

    class TermWork(Exception):
        pass

    def test_refused_before_work(self, monkeypatch, capsys):
        def refuse(*args):
            raise self.TermWork
        monkeypatch.setattr(ohtsuki, "MAX_TERMS", 10)
        monkeypatch.setattr(ohtsuki, "_falling_products", refuse)
        for fn, arg in ((ohtsuki_tau, make_lens_space(3, 1)),
                        (binomial_series, Fraction(1, 3))):
            with pytest.raises(TermsOutOfRange, match="MAX_TERMS"):
                fn(arg, 11)
            with pytest.raises(self.TermWork):
                fn(arg, 10)
        assert cli.main(["ohtsuki", "--p", "3", "--q", "1",
                         "--terms", "11"]) == 1
        assert "MAX_TERMS" in capsys.readouterr().err


class TestNumericEvaluation:
    def test_series_matches_closed_form_at_real_t(self):
        # at real t > 0 there is no branch ambiguity: the truncated series
        # must converge to t^(-3s) (t^(1/2p) - t^(-1/2p))/(t^(1/2) - t^(-1/2))
        h = 0.125
        t = 1 + h
        for (p, q) in [(2, 1), (3, 1), (4, 3), (5, 2)]:
            L = make_lens_space(p, q)
            s = float(dedekind_sum(q, p))
            closed = (t ** (-3 * s) * (t ** (1 / (2 * p)) - t ** (-1 / (2 * p)))
                      / (t ** 0.5 - t ** -0.5))
            approx = ohtsuki_tau(L, 30).evaluate(h)
            assert abs(approx - closed) < 1e-12

    def test_convergence_study_at_roots_of_unity(self):
        """Evaluating the series at h = e_r - 1 converges (for r = 7,
        where |h| < 1) to the principal branch of the closed form, not
        to the modular-inverse branch of the exact invariant; at r = 5,
        |h| > 1 and the series diverges.  Recorded as observed facts.
        """
        rows = []
        for r in (5, 7):
            h = cmath.exp(2j * cmath.pi / r) - 1
            for p in (2, 3):
                L = make_lens_space(p, 1)
                modular = (tau_prime(L, r).value.to_complex()
                           / jacobi_symbol(p, r))
                t = cmath.exp(2j * cmath.pi / r)
                s = float(dedekind_sum(1, p))
                principal = (t ** (-3 * s)
                             * (t ** (1 / (2 * p)) - t ** (-1 / (2 * p)))
                             / (t ** 0.5 - t ** -0.5))
                val = ohtsuki_tau(L, 25).evaluate(h)
                rows.append((r, p, val, principal, modular))
        for r, p, val, principal, modular in rows:
            print(f"r={r} p={p}: series(25)={val:.6f} principal={principal:.6f}"
                  f" modular={modular:.6f}")
            if r == 7:
                # converges to the principal branch well within 1e-3
                assert abs(val - principal) < 1e-3
                # and visibly not to the modular branch
                assert abs(val - modular) > 0.5
