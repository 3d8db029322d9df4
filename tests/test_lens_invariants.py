import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import lenstau
from lenstau import cyclotomic
from lenstau import lens_invariants
from lenstau.cyclotomic import Cyclotomic, gauss_sum, root_of_unity
from lenstau.errors import (EvenOrder, IntegralityFailure, NonPositiveP,
                            NotCoprime, OrderOne)
from lenstau.lens_invariants import (BRACKET_CALIBRATED, CASE_ONE, CASE_TWO,
                                     ZERO, _gauss_quotient, _quantum_ratio,
                                     case_two_bracket, make_lens_space,
                                     tau_prime, tau_prime_via_galois,
                                     three_s_sqrt, xi_r)
from lenstau.number_theory import mod_inverse

# Every odd r <= 45 in full, plus two large orders checked more sparsely
# because each reference division there takes about a second.
CLOSED_FORM_ORDERS = (*range(3, 46, 2), 101, 891)


def lens_spaces(max_p):
    for p in range(1, max_p + 1):
        if p == 1:
            yield make_lens_space(1, 0)
            continue
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield make_lens_space(p, q)


class TestMakeLensSpace:
    def test_sphere(self):
        for q in (0, 5, -3):
            L = make_lens_space(1, q)
            assert (L.p, L.q, L.q_star, L.p_star) == (1, 0, 0, 1)

    def test_bezout_data(self):
        L = make_lens_space(25, 7)
        assert L.q_star == 18 and L.p_star == -5
        assert L.p_star * 25 + L.q_star * 7 == 1

    def test_normalization(self):
        assert make_lens_space(5, 7) == make_lens_space(5, 2)
        assert make_lens_space(5, -3) == make_lens_space(5, 2)

    def test_invariants_hold(self):
        for L in lens_spaces(30):
            assert math.gcd(L.p, L.q) == 1
            assert L.p_star * L.p + L.q_star * L.q == 1
            if L.p > 1:
                assert 0 < L.q_star < L.p

    def test_errors(self):
        with pytest.raises(NonPositiveP):
            make_lens_space(0, 1)
        with pytest.raises(NotCoprime):
            make_lens_space(4, 2)


class TestThreeSSqrt:
    def test_examples(self):
        assert three_s_sqrt(make_lens_space(1, 0), 5) == 0
        assert three_s_sqrt(make_lens_space(2, 1), 3) == 0
        assert three_s_sqrt(make_lens_space(3, 1), 5) == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            three_s_sqrt(make_lens_space(5, 1), 5)


class TestTauPrime:
    def test_sphere_normalization(self):
        for q in (0, 5, -3):
            for r in (3, 7, 15, 21):
                result = tau_prime(make_lens_space(1, q), r)
                assert result.value == 1
                assert result.branch == CASE_ONE and result.c == 1
                assert xi_r(make_lens_space(1, q), r) == 1

    def test_rp3_hand_value(self):
        result = tau_prime(make_lens_space(2, 1), 3)
        assert result.value == 1
        assert result.branch == CASE_ONE

    def test_zero_branch(self):
        result = tau_prime(make_lens_space(25, 7), 5)
        assert result.value.is_zero()
        assert result.branch == ZERO
        assert result.c == 5

    def test_values_are_integral(self):
        # tau'_r lies in Z[zeta_r]: the integrality results of H. Murakami
        # and of Masbaum-Roberts, proved at prime r.  Every value at odd
        # r = 3..27 and p <= 40 has den 1, the Zero branch and composite
        # r included.
        count = 0
        for r in range(3, 28, 2):
            memo = {}
            for L in lens_spaces(40):
                assert tau_prime(L, r, memo=memo).value.den == 1, \
                    (L.p, L.q, r)
                count += 1
        assert count == 6370

    def test_case_two_instance(self):
        L = make_lens_space(3, 1)
        result = tau_prime(L, 3)
        assert result.branch == CASE_TWO and result.eta == -1
        assert result.value == tau_prime_via_galois(L, 3)
        assert result.value == 1

    def test_branch_conditions(self):
        for L in lens_spaces(14):
            for r in (3, 5, 7, 9):
                result = tau_prime(L, r)
                c = math.gcd(L.p, r)
                assert result.c == c
                if c == 1:
                    assert result.branch == CASE_ONE and result.eta is None
                elif result.branch == CASE_TWO:
                    assert (L.q_star + result.eta) % c == 0
                    # eta unique: odd c > 1 cannot divide both q* +- 1
                    assert (L.q_star - result.eta) % c != 0
                else:
                    assert (L.q_star + 1) % c and (L.q_star - 1) % c

    def test_order_validation(self):
        L = make_lens_space(2, 1)
        with pytest.raises(EvenOrder):
            tau_prime(L, 4)
        with pytest.raises(OrderOne):
            tau_prime(L, 1)
        with pytest.raises(EvenOrder):
            xi_r(L, 6)
        with pytest.raises(OrderOne):
            tau_prime_via_galois(L, 1)

    def test_value_in_q_zeta_r(self):
        for L in lens_spaces(10):
            for r in (3, 5, 9):
                assert tau_prime(L, r).value.order == r

    def test_tau3_triviality(self):
        # at r = 3 the zero branch cannot fire (q* is coprime to c = 3,
        # hence q* = +-1 mod 3) and every value is exactly 1
        for L in lens_spaces(20):
            result = tau_prime(L, 3)
            assert result.branch != ZERO
            assert result.value == 1, (L.p, L.q)


class TestOrderBound:
    """An order above MAX_ORDER is refused before any O(r) work."""

    class OrderWork(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_order_work(self, monkeypatch):
        def refuse(*args):
            raise self.OrderWork
        monkeypatch.setattr(lens_invariants, "_quantum_ratio", refuse)
        monkeypatch.setattr(lens_invariants, "_gauss_quotient", refuse)

    def check_refused(self, r):
        # the sphere, Case One for p coprime to r, and Case Two for
        # L(3,1) when 3 | r (r = 5001 = 3 * 1667)
        for p, q in [(1, 0), (3, 1), (5, 1), (7, 2)]:
            L = make_lens_space(p, q)
            for fn in (lambda: tau_prime(L, r), lambda: xi_r(L, r),
                       lambda: tau_prime_via_galois(L, r)):
                with pytest.raises(ValueError, match="MAX_ORDER"):
                    fn()

    def test_first_odd_order_above_the_bound(self):
        r = cyclotomic.MAX_ORDER + 1
        self.check_refused(r if r % 2 else r + 1)

    def test_bound_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "MAX_ORDER", 99)
        self.check_refused(101)


class TestGaloisRoute:
    def test_equivalence_sweep(self):
        for L in lens_spaces(12):
            for r in (3, 5, 7, 9, 11):
                assert tau_prime(L, r).value == tau_prime_via_galois(L, r), \
                    (L.p, L.q, r)

    def test_sphere(self):
        assert tau_prime_via_galois(make_lens_space(1, 0), 5) == 1

    def test_case_two_example(self):
        L = make_lens_space(9, 2)
        assert tau_prime(L, 3).value == tau_prime_via_galois(L, 3)


class TestXi:
    def test_sphere(self):
        for r in (3, 7, 11):
            assert xi_r(make_lens_space(1, 0), r) == 1

    def test_zero_branch(self):
        assert xi_r(make_lens_space(25, 7), 5).is_zero()

    def test_relation_to_tau_prime(self):
        # substituting z -> z^4 in tau' recovers xi (inverse Galois map)
        for L in lens_spaces(8):
            for r in (5, 7, 9):
                tau = tau_prime(L, r).value
                assert xi_r(L, r) == tau.galois_apply(4 % r)


class TestHomeomorphismInvariance:
    def test_q_plus_p(self):
        for L in lens_spaces(12):
            for r in (3, 5, 7):
                a = tau_prime(L, r)
                b = tau_prime(make_lens_space(L.p, L.q + L.p), r)
                assert a.value == b.value and a.branch == b.branch

    def test_q_inverse(self):
        # L(p, q) and L(p, q*) are the same oriented manifold
        for L in lens_spaces(14):
            if L.p == 1:
                continue
            for r in (3, 5, 7, 9):
                a = tau_prime(L, r)
                b = tau_prime(make_lens_space(L.p, L.q_star), r)
                assert a.value == b.value, (L.p, L.q, r)


class TestBracket:
    def case_two_instances(self, max_p, r_values):
        for L in lens_spaces(max_p):
            for r in r_values:
                if tau_prime(L, r).branch == CASE_TWO:
                    yield L, r, tau_prime(L, r).eta

    def test_bezout_independence(self):
        for L, r, eta in self.case_two_instances(10, (3, 5, 7, 9)):
            reference = tau_prime(L, r).value
            for shift in (-2, -1, 1, 2):
                assert tau_prime(L, r, bezout_shift=shift).value == reference

    def test_bracket_is_root_of_unity_in_zeta_r(self):
        for L, r, eta in self.case_two_instances(8, (3, 5, 9)):
            bracket = case_two_bracket(L, r, eta)
            descended = bracket.descend(r)
            assert descended * descended.conjugate() == 1
            assert any(descended == root_of_unity(r, k) for k in range(r))

    def test_flipped_single_sign_fails_integrality(self):
        L = make_lens_space(3, 1)
        with pytest.raises(IntegralityFailure):
            tau_prime(L, 3, bracket_signs=(-1, 1))
        with pytest.raises(IntegralityFailure):
            tau_prime(L, 3, bracket_signs=(1, -1))

    def test_default_reading_constant(self):
        assert BRACKET_CALIBRATED == (-1, -1)


class TestClosedForms:
    """The division-free Case 1 and Case 2 forms, multiplied back by the
    denominator they replace.  The denominator is nonzero, so the
    product identity is as strong as the quotient."""

    @pytest.mark.parametrize("r", CLOSED_FORM_ORDERS)
    def test_geometric_sum_is_quantum_ratio(self, r):
        inv2 = mod_inverse(2, r)
        if r > 45:
            cases = [(inv2, inv2)]
        else:
            cases = [(x, k) for x in (inv2, 2)
                     for k in {0, 1, 2, r // 2, r - 2, r - 1}]
        for x, k in cases:
            num = 3 * root_of_unity(r, r - 1) * (
                root_of_unity(r, x * k) - root_of_unity(r, -x * k))
            den = root_of_unity(r, x) - root_of_unity(r, -x)
            assert not den.is_zero()
            assert _quantum_ratio(r, 3, r - 1, x, k) * den == num, (x, k)

    @pytest.mark.parametrize("r", CLOSED_FORM_ORDERS)
    def test_weighted_power_sum_is_gauss_quotient(self, r):
        inv2 = mod_inverse(2, r)
        if r > 45:
            cases = [(1, inv2), (r, inv2)]
        else:
            cases = [(c, h) for c in range(1, r + 1, 2) if r % c == 0
                     for h in (inv2, 2)]
        for c, h in cases:
            num = -2 * root_of_unity(r, 5) * gauss_sum(c).lift(r)
            den = root_of_unity(r, -h) - root_of_unity(r, h)
            assert not den.is_zero()
            assert _gauss_quotient(r, c, -2, 5, h) * den == num, (c, h)


def double_loop_gauss_quotient(r, c, scale, phase, h):
    """The weighted power sum, one Gauss coefficient and one j at a time."""
    step = r // c
    sums = [0] * r
    for i, g in enumerate(gauss_sum(c).coeffs):
        if g:
            base = phase + i * step + h
            for j in range(1, r):
                sums[(base + 2 * h * j) % r] += g.numerator * j
    return Cyclotomic(r, [Fraction(-scale * v, r) for v in sums])


class TestGaussQuotientSuffixSum:
    """The O(r + c) suffix-sum form against the O(c * r) double loop."""

    @pytest.mark.parametrize("r", range(3, 46, 2))
    def test_every_divisor_small_orders(self, r):
        for c in (c for c in range(3, r + 1, 2) if r % c == 0):
            for h in (mod_inverse(2, r), 2):
                for scale, phase in ((1, 0), (-3, r - 2), (2, 7)):
                    got = _gauss_quotient(r, c, scale, phase, h)
                    ref = double_loop_gauss_quotient(r, c, scale, phase, h)
                    assert got == ref, (c, h, scale, phase)
                    assert got.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("c", (9, 81, 891))
    def test_order_891(self, c):
        for h in (mod_inverse(2, 891), 2):
            assert (_gauss_quotient(891, c, -1, 300, h)
                    == double_loop_gauss_quotient(891, c, -1, 300, h)), h

    def test_max_order_worst_case(self):
        # Case 2 with c = r at an order near MAX_ORDER.
        L = make_lens_space(4995, 1)
        result = tau_prime(L, 4995)
        assert (result.branch, result.c) == (CASE_TWO, 4995)
        assert result.value == tau_prime_via_galois(L, 4995)


def test_invariant_guards_raise_under_optimize():
    """The typed checks that replaced asserts still run under python -O."""
    code = textwrap.dedent("""
        from lenstau.errors import IntegralityFailure
        from lenstau.lens_invariants import LensSpace, _branch_eta

        assert False, "assertions must be disabled"
        try:
            _branch_eta(LensSpace(4, 1, 1, 0), 2)
        except IntegralityFailure:
            pass
        else:
            raise SystemExit("no IntegralityFailure raised")
    """)
    src = str(Path(lenstau.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
