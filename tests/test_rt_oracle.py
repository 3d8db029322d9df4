import concurrent.futures
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from lenstau import cli, cyclotomic, rt_oracle
from lenstau.errors import EvenOrder, NotCoprime
from lenstau.lens_invariants import make_lens_space
from lenstau.rt_oracle import (SurgeryPresentation, bracket_sign_study,
                               cf_value, continued_fraction,
                               lens_space_range, linking_matrix,
                               modular_data, rt_invariant, signature,
                               so3_invariant, so3_modular_data, summarize,
                               sweep_verify, verify)


class TestContinuedFraction:
    def test_examples(self):
        assert continued_fraction(3, 1).framings == (3,)
        assert continued_fraction(5, 2).framings == (3, 2)
        assert continued_fraction(7, 2).framings == (4, 2)

    def test_sphere_empty(self):
        assert continued_fraction(1, 0).framings == ()

    def test_reconstruction_exact(self):
        for p in range(2, 40):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                pres = continued_fraction(p, q)
                assert all(a >= 2 for a in pres.framings)
                assert cf_value(pres.framings) == Fraction(p, q)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            continued_fraction(6, 3)


class TestSignature:
    def test_canonical_chains_positive_definite(self):
        for p, q in [(5, 2), (7, 3), (12, 5), (25, 7)]:
            pres = continued_fraction(p, q)
            assert signature(pres.framings) == len(pres.framings)

    def test_matches_numeric(self):
        for framings in [(1, -4), (2, 1), (-3,), (3, 2, 2), (0,), (0, 2)]:
            eigs = np.linalg.eigvalsh(linking_matrix(framings))
            expected = int(np.sum(eigs > 1e-9) - np.sum(eigs < -1e-9))
            assert signature(framings) == expected, framings

    def test_empty(self):
        assert signature(()) == 0


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

    def test_so3_needs_odd(self):
        with pytest.raises(EvenOrder):
            so3_modular_data(6)


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
        pres = continued_fraction(3, 1)
        for fn in (rt_invariant, so3_invariant):
            with pytest.raises(ValueError, match="MAX_ORDER"):
                fn(pres, 101)
        for kind in ("rt", "so3"):
            code = cli.main(["oracle", "--p", "3", "--q", "1", "--r", "101",
                             "--kind", kind])
            assert code == 1
            assert "MAX_ORDER" in capsys.readouterr().err


class TestRtInvariant:
    def test_sphere_calibration(self):
        for r in (3, 4, 5, 7, 10):
            assert abs(rt_invariant(SurgeryPresentation(()), r) - 1) < 1e-12
            assert abs(rt_invariant(SurgeryPresentation((1,)), r) - 1) < 1e-10
            assert abs(rt_invariant(SurgeryPresentation((-1,)), r) - 1) < 1e-10
            assert abs(rt_invariant(SurgeryPresentation((2, 1)), r) - 1) < 1e-10

    def test_rp3_presentation_independence(self):
        # [2], [3,1] (blow-down) and [1,3] (q -> q+p) all give RP^3
        for r in (4, 5, 6, 7):
            values = [rt_invariant(SurgeryPresentation(f), r)
                      for f in [(2,), (3, 1), (1, 3)]]
            mags = [abs(v) for v in values]
            assert max(mags) - min(mags) < 1e-9, r
            assert abs(values[0] - values[1]) < 1e-9

    def test_s2xs1(self):
        # zero surgery on the unknot: tau = total quantum dimension
        for r in (3, 4, 5, 8):
            s, _, _ = modular_data(r)
            expected = 1 / s[0, 0]
            assert abs(rt_invariant(SurgeryPresentation((0,)), r) - expected) < 1e-9

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
            assert abs(so3_invariant(SurgeryPresentation(()), r) - 1) < 1e-12
            assert abs(so3_invariant(SurgeryPresentation((1,)), r) - 1) < 1e-10

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
            a = so3_invariant(SurgeryPresentation((3, 2)), r)
            b = so3_invariant(SurgeryPresentation((4, 1, 3)), r)
            assert abs(a - b) < 1e-8, r
        for (p, q) in [(5, 2), (7, 2), (8, 3)]:
            canonical = continued_fraction(p, q)
            extended = SurgeryPresentation(
                (1, canonical.framings[0] + 1) + canonical.framings[1:])
            assert cf_value(extended.framings) == Fraction(p, q + p)
            for r in (5, 7):
                a = so3_invariant(canonical, r)
                b = so3_invariant(extended, r)
                assert abs(a - b) < 1e-8, (p, q, r)

    def test_even_order_rejected(self):
        with pytest.raises(EvenOrder):
            so3_invariant(SurgeryPresentation((2,)), 4)


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
                for r in (5, 7):
                    records.append(verify(make_lens_space(p, q), r,
                                          bracket_signs=(1, 1)))
        assert any(rec.match == "none" for rec in records)

    def test_record_dict_schema(self):
        rec = verify(make_lens_space(5, 1), 5)
        data = rec.to_dict()
        assert set(data) == {"p", "q", "r", "branch", "match", "abs_error",
                             "formula_value", "oracle_value", "tolerance"}
        assert set(data["formula_value"]) == {"re", "im"}

    def test_sweep_and_summary(self):
        records = sweep_verify(8, [3, 5], tolerance=1e-8)
        summary = summarize(records)
        assert summary["total"] == len(records)
        assert summary["consistent"]
        assert summary["match_kind"] == "direct"
        assert summary["match_counts"]["none"] == 0
        assert summary["worst_abs_error"] < 1e-10

    def test_sweep_parallel_matches_serial(self):
        serial = sweep_verify(5, [3, 5], jobs=1)
        parallel = sweep_verify(5, [3, 5], jobs=2)
        assert [(r.p, r.q, r.r, r.match) for r in serial] == \
            [(r.p, r.q, r.r, r.match) for r in parallel]

    def test_sweep_workers_capped_at_cpu_count(self, monkeypatch):
        # a stand-in pool records its size and maps in-process, so no
        # worker process starts whatever jobs asks for
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        serial = sweep_verify(3, [3, 5], jobs=1)
        for cpus, jobs, pools in [(3, 10 ** 9, [3]), (3, 2, [2]),
                                  (1, 64, []), (None, 64, [])]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            started.clear()
            assert sweep_verify(3, [3, 5], jobs=jobs) == serial
            assert started == pools, (cpus, jobs)

    @pytest.mark.parametrize("p, q", [(99, 1), (252, 181)])
    def test_tolerance_scales_with_value(self, p, q):
        # |value| is 1411 and 425; the oracle's absolute error (1.6e-8,
        # 3.2e-8) exceeds 1e-8 but its relative error is below 1e-10
        rec = verify(make_lens_space(p, q), 891)
        assert abs(rec.formula_value) > 100
        assert rec.abs_error > 1e-8
        assert rec.match == "direct"
        assert rec.tolerance == 1e-8

    def test_inconsistent_summary_flags(self):
        records = sweep_verify(4, [5], tolerance=1e-30)
        summary = summarize(records)
        assert not summary["consistent"]


class TestBracketSignStudy:
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
