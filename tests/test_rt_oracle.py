import cmath
import json
import math
import multiprocessing
import os
import random
import re
import signal
import time
from fractions import Fraction

import numpy as np
import pytest

from lenstau import cli, cyclotomic, lens_invariants, rt_oracle
from lenstau.errors import (EmptyChain, EvenOrder, IntegralityFailure,
                            InvalidOption, NonPositiveP, NotCoprime, OrderOne,
                            OrderOutOfRange, WorkerDied)
from lenstau.lens_invariants import (BRACKET_CALIBRATED, make_lens_space,
                                     tau_prime)
from lenstau.rt_oracle import (bracket_sign_study, cf_value,
                               continued_fraction, lens_space_range,
                               linking_matrix, modular_data, rt_invariant,
                               signature, so3_invariant, so3_modular_data,
                               summarize, sweep_verify, verify)


class InProcessWorker:
    """Stand-in for rt_oracle._Worker: records the share it is dealt and
    runs it in-process when the caller asks for its rows, so no process
    starts and the work counts in this process."""

    def __init__(self, orders, max_p, tolerance):
        self.shares.append(orders)
        self.args = orders, max_p, tolerance

    def rows(self):
        return rt_oracle._share_rows(*self.args)

    def stop(self):
        pass


@pytest.fixture
def in_process_workers(monkeypatch):
    monkeypatch.setattr(InProcessWorker, "shares", [], raising=False)
    monkeypatch.setattr(rt_oracle, "_Worker", InProcessWorker)
    return InProcessWorker


def recording_orders(monkeypatch, also=None):
    """Record each order _verify_order is asked for, in call order, and
    call also(r) first when given."""
    run, real = [], rt_oracle._verify_order

    def recording(r, max_p, tolerance):
        run.append(r)
        if also is not None:
            also(r)
        return real(r, max_p, tolerance)
    monkeypatch.setattr(rt_oracle, "_verify_order", recording)
    return run


def recording_walks(monkeypatch):
    """Record each order _chain_walk is asked to walk, in call order."""
    walked, real = [], rt_oracle._chain_walk

    def recording(r, max_p):
        walked.append(r)
        return real(r, max_p)
    monkeypatch.setattr(rt_oracle, "_chain_walk", recording)
    return walked


class CountingS:
    """Stand-in S that counts the products S @ vec, one per contraction
    step that is not shared."""

    products = 0

    def __init__(self, s):
        self.s = s

    def __getitem__(self, key):
        return self.s[key]

    def __matmul__(self, vec):
        CountingS.products += 1
        return self.s @ vec


@pytest.fixture
def counting_s(monkeypatch):
    real = rt_oracle.so3_modular_data

    def counting_data(r):
        s, t, kappa = real(r)
        return CountingS(s), t, kappa

    monkeypatch.setattr(rt_oracle, "so3_modular_data", counting_data)
    return CountingS


class TestContinuedFraction:
    def test_examples(self):
        assert continued_fraction(3, 1) == (3,)
        assert continued_fraction(5, 2) == (3, 2)
        assert continued_fraction(7, 2) == (4, 2)

    def test_sphere_empty(self):
        assert continued_fraction(1, 0) == ()

    def test_reconstruction_exact(self):
        for p in range(2, 40):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                framings = continued_fraction(p, q)
                assert all(a >= 2 for a in framings)
                assert cf_value(framings) == Fraction(p, q)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            continued_fraction(6, 3)

    def test_non_positive_p(self):
        for p in (0, -3):
            with pytest.raises(NonPositiveP):
                continued_fraction(p, 1)

    def test_empty_chain_has_no_value(self):
        with pytest.raises(EmptyChain, match="empty continued fraction"):
            cf_value(())


class TestSignature:
    def test_canonical_chains_positive_definite(self):
        for p, q in [(5, 2), (7, 3), (12, 5), (25, 7)]:
            framings = continued_fraction(p, q)
            assert signature(framings) == len(framings)

    def test_matches_numeric(self):
        for framings in [(1, -4), (2, 1), (-3,), (3, 2, 2), (0,), (0, 2)]:
            eigs = np.linalg.eigvalsh(linking_matrix(framings))
            expected = int(np.sum(eigs > 1e-9) - np.sum(eigs < -1e-9))
            assert signature(framings) == expected, framings

    def test_empty(self):
        assert signature(()) == 0

    @pytest.mark.parametrize("low, high", [(2, 9), (-2, 3)])
    def test_random_chains_match_eigenvalue_count(self, low, high):
        # (2, 9): every term >= 2, a positive definite matrix;
        # (-2, 3): each chain gets a term below 2, and small terms make
        # vanishing minors common
        rng = random.Random(low)
        for _ in range(300):
            framings = [rng.randint(low, high)
                        for _ in range(rng.randint(1, 12))]
            if low < 2:
                framings[rng.randrange(len(framings))] = rng.randint(low, 1)
            eigs = np.linalg.eigvalsh(linking_matrix(tuple(framings)))
            expected = int(np.sum(eigs > 1e-9) - np.sum(eigs < -1e-9))
            assert signature(tuple(framings)) == expected, framings

    def test_vanishing_minors_need_no_eigenvalues(self, monkeypatch):
        # chains with a zero leading minor, inside the chain or at its
        # end (a singular matrix), count exactly from the integer minors
        rng = random.Random(11)
        cases, ends = [], 0
        while len(cases) < 300:
            framings = tuple(rng.randint(-2, 2)
                             for _ in range(rng.randint(1, 12)))
            minors, d_prev2, d_prev = [], 0, 1
            for a in framings:
                d_prev2, d_prev = d_prev, a * d_prev - d_prev2
                minors.append(d_prev)
            if 0 in minors:
                ends += minors[-1] == 0
                eigs = np.linalg.eigvalsh(linking_matrix(framings))
                cases.append((framings, int(np.sum(eigs > 1e-9)
                                            - np.sum(eigs < -1e-9))))
        assert 0 < ends < len(cases)

        def no_eigenvalues(*args, **kwargs):
            raise AssertionError("signature computed eigenvalues")
        monkeypatch.setattr(rt_oracle.np.linalg, "eigvalsh", no_eigenvalues)
        for framings, expected in cases:
            assert signature(framings) == expected, framings


class TestModularData:
    def test_r3_dimensions(self):
        s, t, kappa = modular_data(3)
        assert s.shape == (2, 2) and t.shape == (2,)

    def test_identities(self):
        for r in range(3, 30):
            s, t, kappa = modular_data(r)
            assert np.allclose(s, s.T, atol=1e-12)
            # S^2 is the (here trivial) charge conjugation permutation
            assert np.allclose(s @ s, np.eye(r - 1), atol=1e-10)
            assert abs(abs(kappa) - 1) < 1e-12
            st = s @ np.diag(t)
            assert np.allclose(st @ st @ st, kappa * (s @ s), atol=1e-9)

    def test_unitarity_up_to_60(self):
        for r in range(3, 61):
            s, _, _ = modular_data(r)
            assert np.allclose(s @ s.conj().T, np.eye(r - 1), atol=1e-10), r

    def test_so3_unitarity_and_anomaly(self):
        for r in range(3, 61, 2):
            s, t, kappa = so3_modular_data(r)
            n = (r - 1) // 2
            assert s.shape == (n, n)
            assert np.allclose(s @ s.conj().T, np.eye(n), atol=1e-10), r
            assert abs(abs(kappa) - 1) < 1e-12, r

    def test_so3_anomaly_closed_form(self):
        # kappa is the root of unity exp(i*pi*e/(2r)), e = r - 3 when
        # r = 3 (mod 4) and 2r - 3 when r = 1 (mod 4); the sum that
        # defines it stays within 1e-10 of that root
        for r in [*range(3, 302, 2), 891]:
            e = r - 3 if r % 4 == 3 else 2 * r - 3
            kappa = so3_modular_data(r)[2]
            assert abs(kappa - cmath.exp(1j * math.pi * e / (2 * r))) \
                < 1e-10, r

    def test_so3_needs_odd(self):
        with pytest.raises(EvenOrder):
            so3_modular_data(6)

    def test_so3_order_one(self):
        for r in (1, -1):
            with pytest.raises(OrderOne):
                so3_modular_data(r)


@pytest.mark.parametrize("r, error, message", [
    (4, EvenOrder, "r must be odd and > 1, got 4"),
    (1, OrderOne, "r must be odd and > 1, got 1"),
    (-1, OrderOne, "r must be odd and > 1, got -1"),
    (5001, OrderOutOfRange, "order 5001 exceeds MAX_ORDER = 5000")])
def test_one_order_rule(r, error, message):
    # the exact formulas, the oracle and the sweep refuse an order alike
    L = make_lens_space(5, 2)
    calls = {
        "tau_prime": lambda: lens_invariants.tau_prime(L, r),
        "xi_r": lambda: lens_invariants.xi_r(L, r),
        "so3_invariant": lambda: so3_invariant((3, 2), r),
        "so3_modular_data": lambda: so3_modular_data(r),
        "sweep_verify": lambda: sweep_verify(5, [r], jobs=1),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message), name


class TestModularDataCache:
    @pytest.mark.parametrize("data", (modular_data, so3_modular_data))
    def test_shared_and_read_only(self, data):
        first = data(7)
        assert data(7) is first
        s, t, _ = first
        for array in (s, t):
            with pytest.raises(ValueError):
                array[0] = 0
        assert data(9) is not first

    @pytest.mark.parametrize("r", [2, 1])
    def test_order_below_three_refused(self, r):
        with pytest.raises(OrderOutOfRange, match="r must be >= 3"):
            modular_data(r)

    def test_sweep_builds_each_order_once(self):
        rt_oracle._modular_arrays.cache_clear()
        sweep_verify(8, [3, 5, 7], jobs=1)
        assert rt_oracle._modular_arrays.cache_info().misses == 3

    def test_cached_sweep_prints_the_uncached_cases(self, capsys):
        assert cli.main(["verify", "--max-p", "12", "--r", "3,5,7,9",
                         "--per-case", "--format", "json", "--jobs", "1"]) == 0
        cases = json.loads(capsys.readouterr().out)["cases"]
        expected = []
        for p, q in lens_space_range(12):
            for r in (3, 5, 7, 9):
                rt_oracle._modular_arrays.cache_clear()
                expected.append(verify(make_lens_space(p, q), r).to_dict())
        assert cases == expected


class TestOrderBound:
    """The dense S matrix is refused above MAX_ORDER before numpy runs."""

    class Allocation(Exception):
        pass

    def test_refused_before_allocation(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise self.Allocation
        monkeypatch.setattr(cyclotomic, "MAX_ORDER", 99)
        monkeypatch.setattr(rt_oracle.np, "outer", refuse)
        framings = continued_fraction(3, 1)
        for fn in (rt_invariant, so3_invariant):
            with pytest.raises(ValueError, match="MAX_ORDER"):
                fn(framings, 101)
        for kind in ("rt", "so3"):
            code = cli.main(["oracle", "--p", "3", "--q", "1", "--r", "101",
                             "--kind", kind])
            assert code == 1
            assert "MAX_ORDER" in capsys.readouterr().err


class TestRtInvariant:
    def test_sphere_calibration(self):
        for r in (3, 4, 5, 7, 10):
            assert abs(rt_invariant((), r) - 1) < 1e-12
            assert abs(rt_invariant((1,), r) - 1) < 1e-10
            assert abs(rt_invariant((-1,), r) - 1) < 1e-10
            assert abs(rt_invariant((2, 1), r) - 1) < 1e-10

    def test_rp3_presentation_independence(self):
        # [2], [3,1] (blow-down) and [1,3] (q -> q+p) all give RP^3
        for r in (4, 5, 6, 7):
            values = [rt_invariant(f, r) for f in [(2,), (3, 1), (1, 3)]]
            mags = [abs(v) for v in values]
            assert max(mags) - min(mags) < 1e-9, r
            assert abs(values[0] - values[1]) < 1e-9

    def test_s2xs1(self):
        # zero surgery on the unknot: tau = total quantum dimension
        for r in (3, 4, 5, 8):
            s, _, _ = modular_data(r)
            expected = 1 / s[0, 0]
            assert abs(rt_invariant((0,), r) - expected) < 1e-9

    def test_distinct_lens_spaces_differ(self):
        # L(5,1) vs L(5,2): distinct oriented manifolds get distinct
        # values; for r coprime to p the amplitudes agree (phases only),
        # while at r = 5 the L(5,2) invariant vanishes outright
        for r in (5, 7):
            a = rt_invariant(continued_fraction(5, 1), r)
            b = rt_invariant(continued_fraction(5, 2), r)
            assert abs(a - b) > 1e-3, r
        for r in (7, 9):
            a = rt_invariant(continued_fraction(5, 1), r)
            b = rt_invariant(continued_fraction(5, 2), r)
            assert abs(abs(a) - abs(b)) < 1e-9, r
        assert abs(rt_invariant(continued_fraction(5, 2), 5)) < 1e-12


class TestSo3Invariant:
    def test_sphere(self):
        for r in (3, 5, 7, 9):
            assert abs(so3_invariant((), r) - 1) < 1e-12
            assert abs(so3_invariant((1,), r) - 1) < 1e-10

    def test_r3_trivial_theory(self):
        for p, q in [(2, 1), (5, 2), (9, 4), (12, 7)]:
            val = so3_invariant(continued_fraction(p, q), 3)
            assert abs(val - 1) < 1e-10

    def test_rp3_hand_value(self):
        val = so3_invariant(continued_fraction(2, 1), 3)
        assert abs(val - 1) < 1e-9

    def test_zero_example(self):
        val = so3_invariant(continued_fraction(25, 7), 5)
        assert abs(val) < 1e-8

    def test_presentation_independence(self):
        # interior blow-up [3,2] ~ [4,1,3]; end extension realizes q -> q+p
        for r in (3, 5, 7, 9):
            a = so3_invariant((3, 2), r)
            b = so3_invariant((4, 1, 3), r)
            assert abs(a - b) < 1e-8, r
        for (p, q) in [(5, 2), (7, 2), (8, 3)]:
            canonical = continued_fraction(p, q)
            extended = (1, canonical[0] + 1) + canonical[1:]
            assert cf_value(extended) == Fraction(p, q + p)
            for r in (5, 7):
                a = so3_invariant(canonical, r)
                b = so3_invariant(extended, r)
                assert abs(a - b) < 1e-8, (p, q, r)

    def test_even_order_rejected(self):
        with pytest.raises(EvenOrder):
            so3_invariant((2,), 4)


class TestVerify:
    def test_sphere_direct(self):
        rec = verify(make_lens_space(1, 0), 7)
        assert rec.match == "direct" and rec.abs_error < 1e-12

    def test_rp3(self):
        rec = verify(make_lens_space(2, 1), 3)
        assert rec.match == "direct"
        assert abs(rec.formula_value - 1) < 1e-12

    def test_mismatch_is_data(self):
        # the surviving wrong sign reading must fail somewhere in p <= 6
        records = []
        for p in range(1, 7):
            for q in range(0 if p == 1 else 1, max(p, 1)):
                if math.gcd(p, q) != 1:
                    continue
                L = make_lens_space(p, q)
                for r in (5, 7):
                    oracle = so3_invariant(continued_fraction(p, q), r)
                    records.append(rt_oracle._compare(
                        L, tau_prime(L, r, (1, 1)), oracle, 1e-8))
        assert any(rec.match == "none" for rec in records)

    def test_record_dict_schema(self):
        rec = verify(make_lens_space(5, 1), 5)
        data = rec.to_dict()
        assert set(data) == {"p", "q", "r", "branch", "match", "abs_error",
                             "formula_value", "oracle_value", "tolerance",
                             "bound"}
        assert set(data["formula_value"]) == {"re", "im"}
        assert data["bound"] == 1e-8 * max(1.0, abs(rec.formula_value))

    def test_sweep_and_summary(self):
        records = sweep_verify(8, [3, 5], tolerance=1e-8)
        summary = summarize(records)
        assert summary["total"] == len(records)
        assert summary["consistent"]
        assert summary["match_kind"] == "direct"
        assert summary["match_counts"]["none"] == 0
        assert summary["worst_abs_error"] < 1e-10

    def test_sweep_parallel_matches_serial(self, monkeypatch):
        # two CPUs whatever the host has, so a worker really forks
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 2)
        serial = sweep_verify(12, [3, 5, 7], jobs=1)
        assert sweep_verify(12, [3, 5, 7], jobs=2) == serial
        assert multiprocessing.active_children() == []

    def test_sweep_workers_capped_at_cpu_count(self, monkeypatch,
                                               in_process_workers):
        # four orders, so the CPU count and not the order count binds;
        # the caller is one of the processes and runs share 0, [9, ...]
        r_values = [3, 5, 7, 9]
        serial = sweep_verify(3, r_values, jobs=1)
        for cpus, jobs, shares in [(3, 10 ** 9, [[7], [5]]),
                                   (3, 2, [[7, 3]]), (1, 64, [])]:
            monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: cpus)
            in_process_workers.shares.clear()
            assert sweep_verify(3, r_values, jobs=jobs) == serial
            assert in_process_workers.shares == shares, (cpus, jobs)

    def test_sweep_workers_capped_at_order_count(self, monkeypatch,
                                                 in_process_workers):
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 8)
        for r_values, shares in [([3, 5, 7, 9], [[7], [5], [3]]),
                                 ([5], [])]:
            serial = sweep_verify(3, r_values, jobs=1)
            in_process_workers.shares.clear()
            assert sweep_verify(3, r_values, jobs=64) == serial
            assert in_process_workers.shares == shares, r_values

    def test_default_jobs_is_the_usable_cpu_count(self, monkeypatch, capsys,
                                                  in_process_workers):
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 3)
        assert cli.main(["verify", "--max-p", "3", "--r", "3,5,7,9"]) == 0
        assert in_process_workers.shares == [[7], [5]]
        # the CLI passes its default on: the library's 0 is the same
        in_process_workers.shares.clear()
        sweep_verify(3, [3, 5, 7, 9], jobs=0)
        assert in_process_workers.shares == [[7], [5]]

    def test_usable_cpus_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        assert rt_oracle.usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert rt_oracle.usable_cpus() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert rt_oracle.usable_cpus() == 1

    @pytest.mark.parametrize("r_values, error, message", [
        ([3, 5001], OrderOutOfRange, "exceeds MAX_ORDER"),
        ([3, 5, 3], InvalidOption, "order 3 is listed more than once"),
        ([3, 4], EvenOrder, "r must be odd and > 1"),
        ([3, 1], OrderOne, "r must be odd and > 1"),
        ([], InvalidOption, "empty r list")])
    def test_orders_checked_before_any_work(self, monkeypatch,
                                            in_process_workers, r_values,
                                            error, message):
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 2)
        run = recording_orders(monkeypatch)
        with pytest.raises(error, match=message):
            sweep_verify(5, r_values, jobs=2)
        assert run == [] and in_process_workers.shares == []

    @pytest.mark.parametrize("p, q", [(99, 1), (252, 181)])
    def test_tolerance_scales_with_value(self, p, q):
        # |value| is 1411 and 425, so the bound is far above tolerance:
        # an oracle value displaced by more than tolerance but less than
        # the bound matches, one displaced past the bound does not
        L = make_lens_space(p, q)
        rec = verify(L, 891)
        assert abs(rec.formula_value) > 100
        assert rec.match == "direct"
        assert rec.tolerance == 1e-8
        assert rec.bound == 1e-8 * abs(rec.formula_value)
        assert rec.abs_error <= rec.bound
        for shift, match in ((rec.bound / 2, "direct"),
                             (2 * rec.bound, "none")):
            displaced = rt_oracle._compare(L, tau_prime(L, 891),
                                           rec.formula_value + shift, 1e-8)
            assert displaced.match == match
            assert displaced.abs_error > displaced.tolerance

    def test_longest_chain_at_large_order(self):
        # L(60,59) is the 59-term chain (2, ..., 2); its error stays far
        # within the bound at r = 4995 only if the oracle reduces its
        # phases in integers before they become floats
        rec = verify(make_lens_space(60, 59), 4995)
        assert rec.match == "direct"
        assert rec.abs_error <= rec.bound / 10

    def test_inconsistent_summary_flags(self):
        records = sweep_verify(4, [5], tolerance=1e-30)
        summary = summarize(records)
        assert not summary["consistent"]


class TestVerifyBounds:
    """The library refuses the max_p, tolerance and jobs values the CLI
    refuses, with the CLI's text, before any work starts."""

    @pytest.mark.parametrize("call", [
        lambda: sweep_verify(0, [3, 5], jobs=2),
        lambda: bracket_sign_study(0, (3,))],
        ids=["sweep_verify", "bracket_sign_study"])
    def test_max_p_below_one(self, call):
        with pytest.raises(InvalidOption,
                           match=r"^--max-p must be >= 1, got 0$"):
            call()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("t", [0, -1, 1, 2, math.nan, math.inf, 1e308,
                                   Fraction(3, 2)])
    @pytest.mark.parametrize("call", [
        lambda t: verify(make_lens_space(2, 1), 3, tolerance=t),
        lambda t: sweep_verify(2, [3, 5], tolerance=t, jobs=2),
        lambda t: bracket_sign_study(2, (3,), tolerance=t)],
        ids=["verify", "sweep_verify", "bracket_sign_study"])
    def test_tolerance_outside_unit_interval(self, call, t):
        message = f"--tolerance must be positive and below 1, got {float(t):g}"
        with pytest.raises(InvalidOption, match=f"^{re.escape(message)}$"):
            call(t)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("max_p, t", [(0, 1e-8), (5, math.nan),
                                          (5, 2.0)])
    def test_refused_before_any_work(self, monkeypatch, max_p, t):
        # two CPUs and two orders, so an unchecked sweep would fork
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 2)
        run = recording_orders(monkeypatch)
        with pytest.raises(InvalidOption):
            sweep_verify(max_p, [3, 5], tolerance=t, jobs=2)
        assert run == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [-1, -64])
    def test_negative_jobs_refused_before_any_work(
            self, monkeypatch, in_process_workers, jobs):
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 2)
        run = recording_orders(monkeypatch)
        with pytest.raises(InvalidOption,
                           match=f"^--jobs must be >= 0, got {jobs}$"):
            sweep_verify(3, [3, 5], jobs=jobs)
        assert run == [] and in_process_workers.shares == []


def reference_dict(rec):
    """The record's dict written out field by field: the reference that
    VerifyRecord.to_dict must equal."""
    return {
        "p": rec.p,
        "q": rec.q,
        "r": rec.r,
        "branch": rec.branch,
        "match": rec.match,
        "abs_error": rec.abs_error,
        "formula_value": {"re": rec.formula_value.real,
                          "im": rec.formula_value.imag},
        "oracle_value": {"re": rec.oracle_value.real,
                         "im": rec.oracle_value.imag},
        "tolerance": rec.tolerance,
        "bound": rec.bound,
    }


class TestRecordDict:
    """to_dict derives from the record's own fields and matches the
    field-by-field dict: keys in order, and each float as it is (repr
    tells -0.0 from 0.0 and compares NaN)."""

    @staticmethod
    def check(rec):
        data, ref = rec.to_dict(), reference_dict(rec)
        assert list(data) == list(ref)
        assert repr(data) == repr(ref)

    def test_sweep_records(self):
        records = sweep_verify(12, [3, 5, 7, 9])
        assert len(records) == 4 * len(list(lens_space_range(12)))
        for rec in records:
            self.check(rec)

    @pytest.mark.parametrize("formula, oracle, error, bound", [
        (complex(math.nan, -0.0), complex(math.inf, -math.inf),
         math.nan, math.inf),
        (complex(-0.0, math.nan), complex(0.0, -0.0), -0.0, math.nan),
        (complex(-math.inf, 1.5), complex(math.nan, math.nan),
         math.inf, 0.0)])
    def test_special_floats(self, formula, oracle, error, bound):
        self.check(rt_oracle.VerifyRecord(7, 2, 5, "CaseOne", "none", error,
                                          formula, oracle, 1e-8, bound))


class TestSweepMemo:
    """A sweep walks the chain tree of each order and shares its work
    within the order; the values must be bit-equal to per-case
    contractions."""

    @pytest.mark.parametrize("max_p, r_values", [
        (30, [3, 5, 7, 9, 11, 13, 15]), (60, [101])])
    def test_oracle_values_bit_equal_to_per_case(self, max_p, r_values):
        records = sweep_verify(max_p, r_values, jobs=1)
        assert len(records) == \
            len(list(lens_space_range(max_p))) * len(r_values)
        for rec in records:
            direct = so3_invariant(continued_fraction(rec.p, rec.q), rec.r)
            assert rec.oracle_value == direct, (rec.p, rec.q, rec.r)

    def test_per_case_json_identical_across_jobs(self, capsys, monkeypatch):
        # two CPUs whatever the host has, so --jobs 2 really forks
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 2)
        for argv, cases in [
                (["--max-p", "30", "--r", "3,5,7,9,11,13,15"], 1946),
                # the study tallies the sweep's own records
                (["--max-p", "30", "--r", "3,5,7,9,11,13,15",
                  "--sign-study"], 1946),
                # Case Two at larger c (c up to 45)
                (["--max-p", "40", "--r", "21,25,27,33,45"], 2450)]:
            outputs = []
            for jobs in ("1", "2"):
                assert cli.main(["verify", *argv, "--per-case",
                                 "--format", "json", "--jobs", jobs]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], argv
            assert len(json.loads(outputs[0])["cases"]) == cases

    def test_long_chain_is_not_recursive(self):
        # L(p, p - 1) is a chain of p - 1 twos.  The walk takes a = 2
        # first, so it reaches L(1600, 1599), 1599 levels down, after
        # about 12k of the 778k cases with p <= 1600
        for p, q, value in rt_oracle._chain_walk(3, 1600):
            if (p, q) == (1600, 1599):
                break
        else:
            pytest.fail("the walk never reached L(1600, 1599)")
        assert continued_fraction(1600, 1599) == (2,) * 1599
        assert value == so3_invariant(continued_fraction(1600, 1599), 3)

    def test_memo_does_not_outlive_a_sweep(self, counting_s):
        r_values = [3, 5, 7, 9]
        steps = []
        for _ in range(2):
            counting_s.products = 0
            sweep_verify(20, r_values, jobs=1)
            steps.append(counting_s.products)
        unshared = len(r_values) * sum(
            max(len(continued_fraction(p, q)) - 1, 0)
            for p, q in lens_space_range(20))
        assert steps[0] == steps[1]
        assert 0 < steps[0] < unshared / 2

    def test_per_case_json_equals_memo_free_verify(self, monkeypatch,
                                                   capsys):
        argv = ["verify", "--max-p", "60", "--r",
                "3,5,7,9,11,13,15,21,25,27,33,45,101", "--per-case",
                "--format", "json", "--jobs", "1"]
        assert cli.main(argv) == 0
        shared = capsys.readouterr().out
        monkeypatch.setattr(
            rt_oracle, "_verify_order", lambda r, max_p, tolerance: [
                verify(make_lens_space(p, q), r, tolerance)
                for p, q in lens_space_range(max_p)])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == shared

    def test_values_built_once_per_sweep(self, monkeypatch):
        # counting stand-ins for the two O(r) builders of tau_prime
        built = []
        for name in ("_quantum_ratio", "_gauss_quotient"):
            def counting(*args, _real=getattr(lens_invariants, name)):
                built.append((_real, args))
                return _real(*args)
            monkeypatch.setattr(lens_invariants, name, counting)
        r_values = [3, 5, 7, 9, 15, 21]
        counts = []
        for _ in range(2):
            built.clear()
            records = sweep_verify(30, r_values, jobs=1)
            counts.append(len(built))
            assert len(set(built)) == len(built)
        nonzero = sum(rec.branch != "Zero" for rec in records)
        assert counts[0] == counts[1]
        assert 0 < counts[0] < nonzero / 2

    def test_values_embedded_once_per_sweep(self, monkeypatch):
        # counting stand-ins for the two builders, and an embedding count:
        # a to_complex call does work only while nothing is stored
        built = []
        for name in ("_quantum_ratio", "_gauss_quotient"):
            def counting(*args, _real=getattr(lens_invariants, name)):
                built.append(_real(*args))
                return built[-1]
            monkeypatch.setattr(lens_invariants, name, counting)
        embedded = []

        def counting_embed(self, _real=cyclotomic.Cyclotomic.to_complex):
            if self._complex is None:
                embedded.append(self)
            return _real(self)

        monkeypatch.setattr(cyclotomic.Cyclotomic, "to_complex",
                            counting_embed)
        counts = []
        for _ in range(2):
            built.clear()
            embedded.clear()
            sweep_verify(30, [3, 5, 7, 9, 15, 21], jobs=1)
            # the Zero branch builds a fresh zero per case
            nonzero = [value for value in embedded if not value.is_zero()]
            counts.append(len(nonzero))
            assert sorted(map(id, nonzero)) == sorted(map(id, built))
        assert counts[0] == counts[1] > 0

    def test_two_batches_contract_as_one(self, monkeypatch, counting_s,
                                         in_process_workers):
        # one order is one unit of work, so every tail of a chain stays
        # with its share
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 2)
        run = recording_orders(monkeypatch)
        r_values = [9, 3, 15, 5, 13, 7, 11]
        steps = []
        for jobs in (1, 2):
            counting_s.products = 0
            run.clear()
            records = sweep_verify(30, r_values, jobs=jobs)
            steps.append(counting_s.products)
        assert steps[0] == steps[1] > 0
        assert len(records) == 1946
        # dealt largest first: the caller runs share 0 before it asks
        # the one worker for share 1
        assert in_process_workers.shares == [[13, 9, 5]]
        assert run == [15, 11, 7, 3, 13, 9, 5]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the stand-in _verify_order reaches a worker "
                           "only by fork")
class TestWorkers:
    """Real worker processes: what goes wrong in one reaches the caller,
    and no process outlives a sweep."""

    @pytest.fixture(autouse=True)
    def two_cpus_and_a_deadline(self, monkeypatch):
        # a sweep that waits forever on a worker fails here instead
        def expire(signum, frame):
            raise TimeoutError("the sweep did not return within 60 s")
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 2)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_worker_exception_reaches_caller(self, monkeypatch):
        def fail(r):
            if r == 3:
                raise IntegralityFailure(f"bracket failed at r = {r}")
        run = recording_orders(monkeypatch, fail)
        with pytest.raises(IntegralityFailure,
                           match=r"^bracket failed at r = 3$"):
            sweep_verify(5, [3, 5], jobs=2)
        assert run == [5]          # the caller's share; 3 ran in the worker

    def test_dead_worker_names_its_exit_code(self, monkeypatch):
        def die(r):
            if r == 3:
                os._exit(7)
        recording_orders(monkeypatch, die)
        with pytest.raises(WorkerDied, match="exited with code 7"):
            sweep_verify(5, [3, 5], jobs=2)

    def test_caller_error_stops_a_running_worker(self, monkeypatch):
        def fail_or_stall(r):
            if r == 5:
                raise IntegralityFailure("caller share failed")
            time.sleep(30)
        recording_orders(monkeypatch, fail_or_stall)
        start = time.monotonic()
        with pytest.raises(IntegralityFailure, match="caller share failed"):
            sweep_verify(5, [3, 5], jobs=2)
        assert time.monotonic() - start < 10


class TestChainWalk:
    """The sweep's oracle walks the tree of chains from S^3 = L(1, 0)."""

    @pytest.mark.parametrize("max_p", [1, 2, 30, 60])
    def test_every_case_once(self, max_p):
        cases = [(p, q) for p, q, _ in rt_oracle._chain_walk(3, max_p)]
        assert len(set(cases)) == len(cases)
        assert sorted(cases) == list(lens_space_range(max_p))

    @pytest.mark.parametrize("max_p, r", [(30, 15), (60, 5)])
    def test_one_product_per_parent(self, counting_s, max_p, r):
        # S^3's children start from the vacuum row, which takes no product
        tails = {continued_fraction(p, q)[1:]
                 for p, q in lens_space_range(max_p)}
        counting_s.products = 0
        for _ in rt_oracle._chain_walk(r, max_p):
            pass
        assert counting_s.products == len(tails - {()}) > 0


class TestBracketSignStudy:
    @pytest.mark.parametrize("r_values, error, message", [
        ((5, 5), InvalidOption, "order 5 is listed more than once"),
        ((5, 5001), OrderOutOfRange, "order 5001 exceeds MAX_ORDER = 5000"),
        ((4,), EvenOrder, "r must be odd and > 1, got 4"),
        ((), InvalidOption, "empty r list")])
    def test_orders_refused_before_any_walk(self, monkeypatch, r_values,
                                            error, message):
        # the sweep's order rule, so a listed order is neither counted
        # twice nor walked before a later one is refused
        verified = recording_orders(monkeypatch)
        walked = recording_walks(monkeypatch)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            bracket_sign_study(10, r_values)
        assert verified == walked == []

    def test_only_calibrated_reading_survives(self):
        study = bracket_sign_study(8, (3, 5, 7, 9))
        stats = study[(-1, -1)]
        assert stats["integrality_failures"] == 0
        assert stats["mismatched"] == 0
        assert stats["matched_direct"] == stats["case_two_instances"] > 0
        # the printed reading is integral but disagrees with the oracle
        printed = study[(1, 1)]
        assert printed["integrality_failures"] == 0
        assert printed["mismatched"] > 0
        # flipping only one sign breaks integrality outright
        for signs in [(-1, 1), (1, -1)]:
            assert study[signs]["integrality_failures"] == \
                study[signs]["case_two_instances"]

    def test_pinned_counts(self):
        study = bracket_sign_study(30, (3, 5, 7, 9, 11, 13, 15))
        assert study == {
            (-1, -1): {"case_two_instances": 254, "integrality_failures": 0,
                       "matched_direct": 254, "mismatched": 0},
            (1, 1): {"case_two_instances": 254, "integrality_failures": 0,
                     "matched_direct": 104, "mismatched": 150},
            (-1, 1): {"case_two_instances": 254, "integrality_failures": 254,
                      "matched_direct": 0, "mismatched": 0},
            (1, -1): {"case_two_instances": 254, "integrality_failures": 254,
                      "matched_direct": 0, "mismatched": 0},
        }

    def test_matches_per_case_verify(self):
        # the tallies of one tau_prime and oracle comparison per CaseTwo
        # case and reading
        max_p, r_values = 10, (21, 25, 27, 33, 45, 101)
        cases = [(make_lens_space(p, q), r)
                 for p, q in lens_space_range(max_p) for r in r_values]
        cases = [(L, r) for L, r in cases
                 if lens_invariants.tau_prime(L, r).branch
                 == lens_invariants.CASE_TWO]
        expected = {}
        for signs in lens_invariants.BRACKET_VARIANTS:
            stats = expected[signs] = {
                "case_two_instances": len(cases), "integrality_failures": 0,
                "matched_direct": 0, "mismatched": 0}
            for L, r in cases:
                try:
                    result = tau_prime(L, r, signs)
                except IntegralityFailure:
                    stats["integrality_failures"] += 1
                    continue
                oracle = so3_invariant(continued_fraction(L.p, L.q), r)
                rec = rt_oracle._compare(L, result, oracle, 1e-8)
                stats["matched_direct" if rec.match == "direct"
                      else "mismatched"] += 1
        assert expected[BRACKET_CALIBRATED]["case_two_instances"] > 0
        assert bracket_sign_study(max_p, r_values) == expected
