"""Floating-point Reshetikhin-Turaev oracle for lens spaces.

This is a deliberately separate code path from the exact formulas: it
computes quantum invariants directly from an integer surgery
presentation (a chain link read off a negative continued fraction),
contracting modular S/T data numerically and correcting the framing
anomaly by the signature of the linking matrix.

Conventions (fixed by calibration, see the tests):

* colors are labelled by dimension n = 1..r-1; the SO(3) theory keeps
  the odd n only (r odd);
* S_{jk} proportional to sin(pi*j*k/r), unitary;
* twists t_n = exp(i*pi*(n^2-1)/(2r));
* anomaly kappa = sum_n S_{0n}^2 t_n / S_{00}, a unit;
* invariant of the chain (a_1..a_m):
      kappa^(-signature) * (s^T T^a1 S T^a2 ... S T^am s) / S_00
  with s the vacuum row of S; the empty chain (S^3) gives 1.

With these choices the oracle reproduces the exact tau'_r values
directly (not up to conjugation); `verify` nevertheless reports the
match kind so an orientation flip cannot pass silently.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclotomic import _check_order
from .errors import EvenOrder, NotCoprime
from .lens_invariants import LensSpace, make_lens_space, tau_prime


@dataclass(frozen=True)
class SurgeryPresentation:
    """Chain-link surgery data: component i has framing framings[i] and
    consecutive components are Hopf-linked."""

    framings: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.framings)


def cf_value(framings: tuple[int, ...] | list[int]) -> Fraction:
    """Evaluate a_1 - 1/(a_2 - 1/(... - 1/a_m)) exactly."""
    value: Fraction | None = None
    for a in reversed(framings):
        value = Fraction(a) if value is None else a - 1 / value
    if value is None:
        raise ValueError("empty continued fraction has no value")
    return value


def continued_fraction(p: int, q: int) -> SurgeryPresentation:
    """Canonical negative continued fraction of p/q with all a_i >= 2.

    p = 1 yields the empty presentation (S^3).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    if p == 1:
        return SurgeryPresentation(())
    q %= p
    if not 0 < q < p:
        raise ValueError(f"require 0 < q < p after reduction, got q = {q}")
    terms = []
    while q > 0:
        a = -(-p // q)  # ceil(p/q)
        terms.append(a)
        p, q = q, a * q - p
    if any(a < 2 for a in terms):
        raise ValueError(f"continued fraction has a term below 2: {terms}")
    return SurgeryPresentation(tuple(terms))


def linking_matrix(framings: tuple[int, ...]) -> np.ndarray:
    m = len(framings)
    a = np.zeros((m, m), dtype=float)
    for i, f in enumerate(framings):
        a[i, i] = f
        if i + 1 < m:
            a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def signature(framings: tuple[int, ...]) -> int:
    """Signature of the chain linking matrix.

    Exact via the leading-principal-minor recurrence when no minor
    vanishes (always true for canonical chains); numeric fallback
    otherwise.
    """
    m = len(framings)
    if m == 0:
        return 0
    minors = [1]
    d_prev2, d_prev = 0, 1
    for k, a in enumerate(framings):
        d = a * d_prev - d_prev2
        minors.append(d)
        d_prev2, d_prev = d_prev, d
    if all(d != 0 for d in minors):
        flips = sum(1 for x, y in zip(minors, minors[1:]) if (x > 0) != (y > 0))
        return (m - flips) - flips
    eigs = np.linalg.eigvalsh(linking_matrix(framings))
    return int(np.sum(eigs > 1e-9) - np.sum(eigs < -1e-9))


def _twists(r: int, colors: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.pi * (colors.astype(float) ** 2 - 1) / (2 * r))


@lru_cache(maxsize=2)
def _modular_arrays(r: int, odd_colors: bool
                    ) -> tuple[np.ndarray, np.ndarray, complex]:
    """S, T and kappa for colors 1..r-1, or the odd ones only (SO(3)).

    Cached per (r, kind): a sweep asks for the same data once per case.
    The arrays are read-only because every caller shares them.
    """
    if odd_colors:
        colors, norm = np.arange(1, r - 1, 2, dtype=float), 2.0 / np.sqrt(r)
    else:
        colors, norm = np.arange(1, r, dtype=float), np.sqrt(2.0 / r)
    s = norm * np.sin(np.pi * np.outer(colors, colors) / r)
    t = _twists(r, colors)
    kappa = complex(np.sum(s[0] ** 2 * t) / s[0, 0])
    s.flags.writeable = False
    t.flags.writeable = False
    return s, t, kappa


def modular_data(r: int) -> tuple[np.ndarray, np.ndarray, complex]:
    """Level r-2 quantum sl2 data: (S matrix, T diagonal, anomaly unit).

    Colors 1..r-1; S_{jk} = sqrt(2/r) sin(pi j k / r); T is returned as
    the 1-D array of twist eigenvalues.  S is dense, so r is bounded by
    the package's MAX_ORDER.  The arrays are cached and read-only.
    """
    if r < 3:
        raise ValueError(f"r must be >= 3, got {r}")
    _check_order(r)
    return _modular_arrays(r, False)


def so3_modular_data(r: int) -> tuple[np.ndarray, np.ndarray, complex]:
    """Odd-color (SO(3)) modular data for odd r >= 3; S_{jk} =
    (2/sqrt(r)) sin(pi j k / r).  The arrays are cached and read-only."""
    if r % 2 == 0:
        raise EvenOrder(f"SO(3) data needs odd r, got {r}")
    if r < 3:
        raise ValueError(f"r must be >= 3, got {r}")
    _check_order(r)
    return _modular_arrays(r, True)


def _contract(framings: tuple[int, ...], s: np.ndarray, t: np.ndarray,
              kappa: complex) -> complex:
    """kappa^(-sigma) * (s0^T T^a1 S ... S T^am s0) / S_00."""
    if not framings:
        return 1.0 + 0j
    vac = s[0]
    vec = t ** framings[-1] * vac
    for a in framings[-2::-1]:
        vec = t ** a * (s @ vec)
    w = complex(vac @ vec)
    return kappa ** (-signature(framings)) * w / s[0, 0]


def rt_invariant(pres: SurgeryPresentation, r: int) -> complex:
    """The SU(2) Reshetikhin-Turaev invariant tau_r, normalized to
    tau_r(S^3) = 1, for any integer chain presentation."""
    s, t, kappa = modular_data(r)
    return _contract(pres.framings, s, t, kappa)


def so3_invariant(pres: SurgeryPresentation, r: int) -> complex:
    """The SO(3) invariant tau'_r (odd colors only), tau'_r(S^3) = 1."""
    if r % 2 == 0:
        raise EvenOrder(f"so3_invariant needs odd r, got {r}")
    s, t, kappa = so3_modular_data(r)
    return _contract(pres.framings, s, t, kappa)


@dataclass(frozen=True)
class VerifyRecord:
    p: int
    q: int
    r: int
    branch: str
    match: str            # "direct" | "conjugate" | "none"
    abs_error: float
    formula_value: complex
    oracle_value: complex
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "branch": self.branch,
            "match": self.match,
            "abs_error": self.abs_error,
            "formula_value": {"re": self.formula_value.real,
                              "im": self.formula_value.imag},
            "oracle_value": {"re": self.oracle_value.real,
                             "im": self.oracle_value.imag},
            "tolerance": self.tolerance,
        }


def verify(L: LensSpace, r: int, tolerance: float = 1e-8,
           bracket_signs: tuple[int, int] | None = None) -> VerifyRecord:
    """Compare the closed formula against the numeric oracle.

    Both the value and its complex conjugate are tested (the two
    orientation conventions); a mismatch is reported as data, not
    raised.  The tolerance is relative: an error counts up to
    tolerance * max(1, |formula|), since the oracle's rounding error
    grows with the size of the value.
    """
    kwargs = {} if bracket_signs is None else {"bracket_signs": bracket_signs}
    result = tau_prime(L, r, **kwargs)
    formula = result.value.to_complex()
    oracle = so3_invariant(continued_fraction(L.p, L.q), r)
    direct = abs(formula - oracle)
    conj = abs(formula.conjugate() - oracle)
    bound = tolerance * max(1.0, abs(formula))
    if direct <= bound:
        match, err = "direct", direct
    elif conj <= bound:
        match, err = "conjugate", conj
    else:
        match, err = "none", min(direct, conj)
    return VerifyRecord(L.p, L.q, r, result.branch_label(), match, err,
                        formula, oracle, tolerance)


def lens_space_range(max_p: int):
    """All (p, q) with 1 <= p <= max_p, gcd(p, q) = 1, 0 <= q < p."""
    for p in range(1, max_p + 1):
        if p == 1:
            yield 1, 0
            continue
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


def _verify_task(args: tuple[int, int, int, float]) -> VerifyRecord:
    p, q, r, tolerance = args
    return verify(make_lens_space(p, q), r, tolerance)


def sweep_verify(max_p: int, r_values: list[int], tolerance: float = 1e-8,
                 jobs: int = 1) -> list[VerifyRecord]:
    """Run verify over every coprime (p, q), p <= max_p, for each r.

    Results are sorted by (p, q, r) regardless of worker scheduling.
    At most os.cpu_count() workers start, whatever jobs asks for.  Tasks
    run with r outermost, so consecutive cases share the cached modular
    data of their order.
    """
    tasks = [(p, q, r, tolerance)
             for r in r_values for p, q in lens_space_range(max_p)]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_verify_task, tasks, chunksize=8))
    else:
        records = [_verify_task(t) for t in tasks]
    return sorted(records, key=lambda rec: (rec.p, rec.q, rec.r))


def summarize(records: list[VerifyRecord]) -> dict:
    """Aggregate a verify sweep: branch tallies, match kinds, worst error.

    The sweep is consistent when nothing mismatched and all
    non-self-conjugate values matched with one global kind.
    """
    branch_counts: dict[str, int] = {}
    match_counts = {"direct": 0, "conjugate": 0, "none": 0}
    kinds = set()
    worst = 0.0
    for rec in records:
        branch_counts[rec.branch] = branch_counts.get(rec.branch, 0) + 1
        match_counts[rec.match] += 1
        worst = max(worst, rec.abs_error)
        if rec.match != "none":
            # self-conjugate values are compatible with either kind
            if abs(rec.formula_value.imag) > rec.tolerance:
                kinds.add(rec.match)
    consistent = match_counts["none"] == 0 and len(kinds) <= 1
    kind = next(iter(kinds)) if len(kinds) == 1 else "either"
    return {
        "total": len(records),
        "branch_counts": dict(sorted(branch_counts.items())),
        "match_counts": match_counts,
        "worst_abs_error": worst,
        "consistent": consistent,
        "match_kind": kind if consistent else "inconsistent",
    }


def bracket_sign_study(max_p: int = 10, r_values: tuple[int, ...] = (3, 5, 7, 9),
                       tolerance: float = 1e-8) -> dict:
    """Compare every bracket sign reading against the oracle.

    For each reading, tallies over all CaseTwo instances in the range:
    how many brackets fail to be a power of zeta_r at all, and how many
    surviving values match the oracle.  Exactly one reading should
    survive with a perfect score; it is the package default.
    """
    from .errors import IntegralityFailure
    from .lens_invariants import BRACKET_VARIANTS, CASE_TWO

    instances = [(p, q, r)
                 for p, q in lens_space_range(max_p) for r in r_values
                 if tau_prime(make_lens_space(p, q), r).branch == CASE_TWO]
    study = {}
    for signs in BRACKET_VARIANTS:
        integrality_failures = 0
        matched = 0
        mismatched = 0
        for p, q, r in instances:
            try:
                rec = verify(make_lens_space(p, q), r, tolerance,
                             bracket_signs=signs)
            except IntegralityFailure:
                integrality_failures += 1
                continue
            if rec.match == "direct":
                matched += 1
            else:
                mismatched += 1
        study[signs] = {
            "case_two_instances": len(instances),
            "integrality_failures": integrality_failures,
            "matched_direct": matched,
            "mismatched": mismatched,
        }
    return study
