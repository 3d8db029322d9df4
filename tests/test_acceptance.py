"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them) and asserts the criterion at its stated tolerance.
"""

import math
import time
from fractions import Fraction

from lenstau.cyclotomic import Cyclotomic, gauss_sum, root_of_unity
from lenstau.lens_invariants import (CASE_TWO, case_two_bracket,
                                     make_lens_space, tau_prime,
                                     tau_prime_via_galois)
from lenstau.number_theory import (dedekind_sum, dedekind_sum_direct,
                                   jacobi_symbol)
from lenstau.ohtsuki import ohtsuki_tau
from lenstau.rt_oracle import (continued_fraction, lens_space_range,
                               so3_invariant, summarize, sweep_verify)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_sphere_normalization():
    start = time.monotonic()
    ok = all(tau_prime(make_lens_space(1, 0), r).value == 1
             for r in range(3, 22, 2))
    report(1, "S3 normalization", ok,
           f"(r = 3..21, {time.monotonic() - start:.2f}s)")


def test_criterion_2_galois_route_equivalence():
    start = time.monotonic()
    failures = []
    count = 0
    for p, q in lens_space_range(20):
        L = make_lens_space(p, q)
        for r in (3, 5, 7, 9, 11, 13, 15):
            count += 1
            if tau_prime(L, r).value != tau_prime_via_galois(L, r):
                failures.append((p, q, r))
    report(2, "Galois-route equivalence", not failures,
           f"({count} cases exact, {time.monotonic() - start:.1f}s)"
           + (f" failures: {failures[:5]}" if failures else ""))


def test_criterion_3_oracle_sweep():
    start = time.monotonic()
    tolerance = 1e-8
    records = sweep_verify(12, [3, 5, 7, 9], tolerance=tolerance)
    summary = summarize(records)
    branches = summary["branch_counts"]
    required = {"CaseOne", "CaseTwo(+1)", "CaseTwo(-1)", "Zero"}
    zero_value = tau_prime(make_lens_space(25, 7), 5).value
    zero_oracle = abs(so3_invariant(continued_fraction(25, 7), 5))
    supplementary = zero_value.is_zero() and zero_oracle < 1e-8
    ok = (summary["consistent"]
          and summary["match_counts"]["none"] == 0
          and required <= set(branches)
          and supplementary)
    report(3, "oracle sweep", ok,
           f"({summary['total']} cases, kind {summary['match_kind']}, "
           f"worst |err| {summary['worst_abs_error']:.2e}, branches {branches}, "
           f"|oracle tau'_5(L(25,7))| = {zero_oracle:.2e}, "
           f"{time.monotonic() - start:.1f}s)")


def test_criterion_4_case_two_bracket_integrality():
    start = time.monotonic()
    checked = 0
    ok = True
    for p, q in lens_space_range(12):
        L = make_lens_space(p, q)
        for r in (3, 5, 7, 9):
            result = tau_prime(L, r)
            if result.branch != CASE_TWO:
                continue
            bracket = case_two_bracket(L, r, result.eta)
            descended = bracket.descend(r)  # exact; raises if impossible
            checked += 1
            if descended * descended.conjugate() != 1:
                ok = False
            if not any(descended == root_of_unity(r, k) for k in range(r)):
                ok = False
    report(4, "Case 2 bracket integrality", ok and checked > 0,
           f"({checked} brackets descended exactly, "
           f"{time.monotonic() - start:.1f}s)")


def test_criterion_5_gauss_sum_suite():
    start = time.monotonic()
    squares = all(gauss_sum(c) * gauss_sum(c) == (-1) ** ((c - 1) // 2) * c
                  for c in range(1, 100, 2))
    quartic = True
    checked = 0
    for r in range(3, 52, 2):
        w = (1 - r) // 4 if r % 4 == 1 else (1 + r) // 4
        for c in range(1, r + 1, 2):
            if r % c:
                continue
            counts = [0] * c
            for j in range(1, c + 1):
                counts[(w * j * j) % c] += 1
            checked += 1
            if Cyclotomic(c, counts) != jacobi_symbol(w, c) * gauss_sum(c):
                quartic = False
    report(5, "Gauss-sum suite", squares and quartic,
           f"(squares c <= 99, quartic identity {checked} cases, "
           f"{time.monotonic() - start:.1f}s)")


def test_criterion_6_dedekind_suite():
    start = time.monotonic()
    reciprocity = True
    denominators = True
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            s_qp = dedekind_sum(q, p)
            rhs = Fraction(-1, 4) + Fraction(p * p + q * q + 1, 12 * p * q)
            if s_qp + dedekind_sum(p, q) != rhs:
                reciprocity = False
            if (4 * p) % (3 * s_qp).denominator != 0:
                denominators = False
    agreement = all(
        dedekind_sum(q, p) == dedekind_sum_direct(q, p)
        for p in range(1, 101) for q in range(p)
        if math.gcd(q, p) == 1)
    report(6, "Dedekind suite", reciprocity and denominators and agreement,
           f"(reciprocity+denominator p <= 200, direct-sum p <= 100, "
           f"{time.monotonic() - start:.1f}s)")


def test_criterion_7_ohtsuki_series():
    start = time.monotonic()
    lambda0 = True
    invariance = True
    for p, q in lens_space_range(50):
        L = make_lens_space(p, q)
        series = ohtsuki_tau(L, 8)
        if series.coeffs[0] != Fraction(1, p):
            lambda0 = False
        if p > 1:
            if ohtsuki_tau(make_lens_space(p, q + p), 8) != series:
                invariance = False
            if ohtsuki_tau(make_lens_space(p, L.q_star), 8) != series:
                invariance = False
    sphere = ohtsuki_tau(make_lens_space(1, 0), 16).coeffs == \
        (Fraction(1),) + (Fraction(0),) * 15
    report(7, "Ohtsuki series", lambda0 and invariance and sphere,
           f"(lambda_0 = 1/p, q -> q+p, q -> q*, p <= 50 incl. even p; "
           f"{time.monotonic() - start:.1f}s)")


def test_criterion_8_homeomorphism_invariance():
    start = time.monotonic()
    ok = True
    count = 0
    for p, q in lens_space_range(15):
        for r in (3, 5, 7, 9, 11):
            a = tau_prime(make_lens_space(p, q), r)
            b = tau_prime(make_lens_space(p, q + p), r)
            count += 1
            if a.value != b.value or a.branch != b.branch:
                ok = False
    report(8, "homeomorphism invariance", ok,
           f"({count} cases exact, {time.monotonic() - start:.1f}s)")
