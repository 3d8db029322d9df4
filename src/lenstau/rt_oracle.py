"""Floating-point Reshetikhin-Turaev oracle for lens spaces.

This is a deliberately separate code path from the exact formulas: it
computes quantum invariants directly from a surgery chain, the tuple
of integer framings read off a negative continued fraction,
contracting modular S/T data numerically and correcting the framing
anomaly by the signature of the linking matrix.

Conventions (fixed by calibration, see the tests):

* colors are labelled by dimension n = 1..r-1; the SO(3) theory keeps
  the odd n only (r odd);
* S_{jk} proportional to sin(pi*j*k/r), unitary;
* twists t_n = exp(i*pi*(n^2-1)/(2r));
* the phases j*k and n^2-1 are reduced modulo their periods, 2r and 4r,
  in integers before they become floats, so a phase's rounding does not
  grow with r;
* anomaly kappa = sum_n S_{0n}^2 t_n / S_{00}, a unit;
* invariant of the chain (a_1..a_m):
      kappa^(-signature) * (s^T T^a1 S T^a2 ... S T^am s) / S_00
  with s the vacuum row of S; the empty chain (S^3) gives 1.

With these choices the oracle reproduces the exact tau'_r values
directly (not up to conjugation); `verify` nevertheless reports the
match kind so an orientation flip cannot pass silently.

Cost of a sweep: prepending a to the chain of p0/q0 gives the chain of
(a*p0 - q0)/p0, so the cases with p <= max_p form a tree rooted at
S^3 = L(1, 0), and every case is one contraction step from its parent.
`_chain_walk` visits that tree depth first: one S times vector per
parent, shared by all its children, and each T^a from one table.  One
order is one unit of `sweep_verify` work, and a share of orders builds
each lens space of the range once, Dedekind integer included, for all
its orders.  The cases of an order share one memo dict, so the closed
formula computes the residues of each (r, p) once and builds each
distinct value once, and the value stores its embedding the first time
a case asks for it.  Nothing is cached across calls except the modular
data of the last two orders.
`jobs` counts processes, the caller included.  The orders are dealt
largest first, round robin, into that many shares; the caller runs
share 0, the largest, itself, and one worker process per other share
sends all its records back in one message, as plain rows of
VerifyRecord fields.  A forked worker costs a few milliseconds to start
and join, less than a process pool's start-up and per-order messages,
and a one-order sweep starts none.

This is the only module that imports numpy.  Nothing on the exact path
imports it: `lenstau` serves the oracle names through a module-level
`__getattr__`, and the CLI imports this module inside cf, oracle and
verify, so numpy loads on the first use of one of them.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .cyclotomic import _check_order as _check_field_order
from .errors import (EmptyChain, IntegralityFailure, InvalidOption,
                     OrderOutOfRange, WorkerDied)
from .lens_invariants import (BRACKET_VARIANTS, CASE_TWO, LensSpace,
                              TauPrimeResult, _check_order, make_lens_space,
                              tau_prime)
from .number_theory import _check_lens_pair


def cf_value(framings: tuple[int, ...] | list[int]) -> Fraction:
    """Evaluate a_1 - 1/(a_2 - 1/(... - 1/a_m)) exactly."""
    value: Fraction | None = None
    for a in reversed(framings):
        value = Fraction(a) if value is None else a - 1 / value
    if value is None:
        raise EmptyChain("empty continued fraction has no value")
    return value


def continued_fraction(p: int, q: int) -> tuple[int, ...]:
    """The framings (a_1, ..., a_m) of the canonical negative continued
    fraction of p/q, every a_i >= 2: the surgery chain of L(p, q), whose
    consecutive components are Hopf-linked.

    p = 1 yields the empty chain (S^3).
    """
    _check_lens_pair(p, q)
    q %= p  # 0 < q < p here and at every step, so every a >= 2
    terms = []
    while q > 0:
        a = -(-p // q)  # ceil(p/q)
        terms.append(a)
        p, q = q, a * q - p
    return tuple(terms)


def linking_matrix(framings: tuple[int, ...]) -> np.ndarray:
    m = len(framings)
    a = np.zeros((m, m), dtype=float)
    for i, f in enumerate(framings):
        a[i, i] = f
        if i + 1 < m:
            a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def signature(framings: tuple[int, ...]) -> int:
    """Signature of the chain linking matrix, exact from its integer
    leading principal minors.

    The minors obey d_k = a_k*d_(k-1) - d_(k-2) with d_0 = 1, d_(-1) = 0,
    so a vanishing d_k (k < m) has d_(k+1) = -d_(k-1) != 0.  By Jacobi's
    rule as extended by Frobenius (Gantmacher, The Theory of Matrices,
    Vol. 1, Ch. X), the number of negative eigenvalues is the number of
    sign changes among the nonzero minors, and d_m = 0 is the one zero
    eigenvalue.
    """
    negative, last, d_prev2, d_prev = 0, 1, 0, 1   # last: last nonzero minor
    for a in framings:
        d_prev2, d_prev = d_prev, a * d_prev - d_prev2
        if d_prev:
            negative += (d_prev > 0) != (last > 0)
            last = d_prev
    return len(framings) - 2 * negative - (d_prev == 0)


@lru_cache(maxsize=2)
def _modular_arrays(r: int, odd_colors: bool
                    ) -> tuple[np.ndarray, np.ndarray, complex]:
    """S, T and kappa for colors 1..r-1, or the odd ones only (SO(3)).

    Cached per (r, kind): a sweep asks for the same data once per case.
    The arrays are read-only because every caller shares them.
    """
    if odd_colors:
        colors, norm = np.arange(1, r - 1, 2, dtype=np.int64), 2.0 / np.sqrt(r)
    else:
        colors, norm = np.arange(1, r, dtype=np.int64), np.sqrt(2.0 / r)
    s = norm * np.sin(np.pi * (np.outer(colors, colors) % (2 * r)) / r)
    t = np.exp(1j * np.pi * ((colors ** 2 - 1) % (4 * r)) / (2 * r))
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
        raise OrderOutOfRange(f"r must be >= 3, got {r}")
    _check_field_order(r)
    return _modular_arrays(r, False)


def so3_modular_data(r: int) -> tuple[np.ndarray, np.ndarray, complex]:
    """Odd-color (SO(3)) modular data for odd r > 1; S_{jk} =
    (2/sqrt(r)) sin(pi j k / r).  The arrays are cached and read-only."""
    _check_order(r)
    return _modular_arrays(r, True)


def _contract(framings: tuple[int, ...], s: np.ndarray, t: np.ndarray,
              kappa: complex) -> complex:
    """kappa^(-sigma) * (s0^T T^a1 S ... S T^am s0) / S_00.

    The vector is contracted from the last framing to the first in a
    loop, so a long chain needs no recursion.
    """
    if not framings:
        return 1.0 + 0j
    vac = s[0]
    vec = None
    for a in reversed(framings):
        vec = t ** a * (vac if vec is None else s @ vec)
    w = complex(vac @ vec)
    return kappa ** (-signature(framings)) * w / s[0, 0]


def rt_invariant(framings: tuple[int, ...], r: int) -> complex:
    """The SU(2) Reshetikhin-Turaev invariant tau_r, normalized to
    tau_r(S^3) = 1, of surgery on the chain with these integer framings
    (any integers; continued_fraction gives a lens space's chain)."""
    s, t, kappa = modular_data(r)
    return _contract(framings, s, t, kappa)


def so3_invariant(framings: tuple[int, ...], r: int) -> complex:
    """The SO(3) invariant tau'_r (odd colors only), tau'_r(S^3) = 1, of
    surgery on the chain with these integer framings."""
    s, t, kappa = so3_modular_data(r)
    return _contract(framings, s, t, kappa)


class VerifyRecord(NamedTuple):
    p: int
    q: int
    r: int
    branch: str
    match: str            # "direct" | "conjugate" | "none"
    abs_error: float
    formula_value: complex
    oracle_value: complex
    tolerance: float
    bound: float          # tolerance * max(1, |formula|)

    def to_dict(self) -> dict:
        fields = self._asdict()
        for key in ("formula_value", "oracle_value"):
            fields[key] = {"re": fields[key].real, "im": fields[key].imag}
        return fields


def _check_bounds(tolerance: float, max_p: int = 1, jobs: int = 1) -> None:
    """The verify family's value rule, in the CLI's words: max_p >= 1,
    0 < tolerance < 1, since a bound of 1 or more matches every case, and
    jobs >= 0, where 0 means every usable CPU."""
    if max_p < 1:
        raise InvalidOption(f"--max-p must be >= 1, got {max_p}")
    if not 0 < tolerance < 1:
        raise InvalidOption("--tolerance must be positive and below 1, "
                            f"got {float(tolerance):g}")
    if jobs < 0:
        raise InvalidOption(f"--jobs must be >= 0, got {jobs}")


def verify(L: LensSpace, r: int, tolerance: float = 1e-8) -> VerifyRecord:
    """Compare tau_prime(L, r), at the calibrated reading, against the
    numeric oracle.

    Both the value and its complex conjugate are tested (the two
    orientation conventions); a mismatch is reported as data, not
    raised.  The tolerance is relative: an error counts up to the
    record's bound, tolerance * max(1, |formula|), since the oracle's
    rounding error grows with the size of the value; one outside (0, 1)
    raises InvalidOption.  The value is built and embedded for this call
    alone; sweep_verify shares both among the cases of an order.
    """
    _check_bounds(tolerance)
    oracle = so3_invariant(continued_fraction(L.p, L.q), r)
    return _compare(L, tau_prime(L, r), oracle, tolerance)


def _compare(L: LensSpace, result: TauPrimeResult, oracle: complex,
             tolerance: float) -> VerifyRecord:
    """verify's record for result, a tau_prime result for L, against the
    oracle value of L at result.r.  It only compares: the caller checks
    the tolerance and builds the result with its own reading and memo,
    so an IntegralityFailure is raised there."""
    formula = result.value.to_complex()
    bound = tolerance * max(1.0, abs(formula))
    direct = abs(formula - oracle)
    if direct <= bound:
        match, err = "direct", direct
    else:
        # the conjugate distance is needed only when the direct one
        # misses; a NaN distance passes neither test
        conj = abs(formula.conjugate() - oracle)
        if conj <= bound:
            match, err = "conjugate", conj
        else:
            match, err = "none", min(direct, conj)
    return VerifyRecord(L.p, L.q, result.r, result.branch_label(), match, err,
                        formula, oracle, tolerance, bound)


def lens_space_range(max_p: int):
    """All (p, q) with 1 <= p <= max_p, gcd(p, q) = 1, 0 <= q < p."""
    for p in range(1, max_p + 1):
        for q in range(p):
            if math.gcd(p, q) == 1:
                yield p, q


def _chain_walk(r: int, max_p: int):
    """Yield (p, q, so3_invariant value) for every lens_space_range(max_p)
    case at order r, depth first through the tree of chains.

    The child a of a node (p0, q0), 2 <= a <= (max_p + q0) // p0, is the
    case (a*p0 - q0, p0), whose chain is a followed by the node's.  The
    root S^3 = L(1, 0) has the vacuum as its vector, so S times it is the
    vacuum row s[0].  A node's S @ vec serves all its children; a child
    costs T^a * (S @ vec) and one dot product, and its signature is its
    depth m, as every a is >= 2.  These are so3_invariant's operations
    in its order, so the values are bit-identical.  The stack holds only
    nodes with children.  Each case fetches the modular data once, as
    so3_invariant does, although one fetch per walk would do: the
    benchmark's self-test (perfbench/tests) pins one
    rt_oracle.modular_data call per verify-sweep case, so the fetch
    leaves the loop only together with a change to that count.
    """
    yield 1, 0, so3_invariant((), r)
    powers = {}                          # a -> T^a
    stack = [(1, 0, None, 0)]            # (p0, q0, vec, m); None: vacuum
    while stack:
        p0, q0, vec, m = stack.pop()
        shared = None
        # a descending, so the smallest a is popped first
        for a in range((max_p + q0) // p0, 1, -1):
            s, t, kappa = so3_modular_data(r)
            if shared is None:
                vac, s00, scale = s[0], s[0, 0], kappa ** -(m + 1)
                shared = vac if vec is None else s @ vec
            t_a = powers.get(a)
            if t_a is None:
                t_a = powers[a] = t ** a
            child = t_a * shared
            p = a * p0 - q0
            yield p, p0, scale * complex(vac @ child) / s00
            if 2 * p - p0 <= max_p:
                stack.append((p, p0, child, m + 1))


def _verify_order(r: int, max_p: int, tolerance: float,
                  spaces: dict[tuple[int, int], LensSpace]
                  ) -> list[VerifyRecord]:
    """verify every lens_space_range(max_p) case at order r.

    spaces maps each (p, q) of the range to its LensSpace; the caller
    builds it once for all the orders of a share.  The oracle values
    come from _chain_walk, in its order; the closed formula side is
    verify's, and the cases share one tau_prime memo, so the residues of
    each (r, p) are computed once and each distinct value is built and
    embedded once.  The memo does not outlive the call.
    """
    memo = {}
    return [_compare(L := spaces[p, q], tau_prime(L, r, memo=memo),
                     oracle, tolerance)
            for p, q, oracle in _chain_walk(r, max_p)]


def _share_records(orders: list[int], max_p: int, tolerance: float
                   ) -> list[VerifyRecord]:
    """The records of every order in a share, in order.  Each lens space
    of the range is built once, into a dict that all the share's orders
    read and that is dropped when the share ends."""
    spaces = {(p, q): make_lens_space(p, q)
              for p, q in lens_space_range(max_p)}
    return [rec for r in orders
            for rec in _verify_order(r, max_p, tolerance, spaces)]


def usable_cpus() -> int:
    """The number of CPUs this process may run on.

    This is the affinity mask where the platform has one, so a process
    pinned to fewer CPUs than the host has starts no more workers than
    it can run; otherwise the host's CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_orders(r_values: list[int]) -> None:
    """Refuse an order the sweep cannot run, before any work starts:
    at least one, each odd, > 1, at most MAX_ORDER and listed once."""
    if not r_values:
        raise InvalidOption("empty r list")
    seen = set()
    for r in r_values:
        _check_order(r)
        if r in seen:
            raise InvalidOption(f"order {r} is listed more than once")
        seen.add(r)


def _share_rows(orders: list[int], max_p: int, tolerance: float
                ) -> list[tuple]:
    """The records of every order in a worker's share, as plain tuples,
    which pickle in less than half the time the records take;
    VerifyRecord._make rebuilds them."""
    return list(map(tuple, _share_records(orders, max_p, tolerance)))


def _run_share(conn, orders: list[int], max_p: int, tolerance: float
               ) -> None:
    """A worker process: send (True, rows) or, if the share raised,
    (False, exception) in one message, then exit."""
    try:
        reply = True, _share_rows(orders, max_p, tolerance)
    except Exception as exc:  # the caller re-raises it
        reply = False, exc
    conn.send(reply)
    conn.close()


class _Worker:
    """One process that verifies a share of the orders and replies once
    through a pipe.  It starts by the platform's default method: fork,
    where there is one, inherits the imported modules, where spawn would
    import numpy and lenstau again on every sweep."""

    def __init__(self, orders: list[int], max_p: int, tolerance: float):
        self._conn, send = multiprocessing.Pipe(duplex=False)
        self._process = multiprocessing.Process(
            target=_run_share, args=(send, orders, max_p, tolerance))
        self._process.start()
        send.close()  # so the pipe reports EOF if the worker dies

    def rows(self) -> list[tuple]:
        """The worker's rows; its exception, re-raised; or WorkerDied if
        it exited without a reply."""
        try:
            ok, reply = self._conn.recv()
        except EOFError:
            self._process.join()
            raise WorkerDied(f"a verify worker exited with code "
                             f"{self._process.exitcode} before it "
                             f"replied") from None
        if not ok:
            raise reply
        return reply

    def stop(self) -> None:
        """End the process and wait for it.  It has replied, or its
        reply is no longer wanted."""
        self._conn.close()
        self._process.terminate()
        self._process.join()


def sweep_verify(max_p: int, r_values: list[int], tolerance: float = 1e-8,
                 jobs: int = 1) -> list[VerifyRecord]:
    """Run verify over every coprime (p, q), p <= max_p, for each r.

    max_p >= 1, the tolerance (as in verify), jobs >= 0 and every order
    (_check_orders) are checked before any work starts.  One order is
    one unit of work (_verify_order): one depth-first walk of its chain
    tree, one contraction step per case.  The sweep runs in
    min(jobs, usable_cpus(), len(r_values)) processes, the caller
    included, and jobs = 0 means usable_cpus().  The orders are dealt
    largest (costliest) first, round robin, into that many shares.  The
    caller runs share 0 itself, and a _Worker process runs each other
    share and sends back its records as plain rows in one message; an
    exception in a worker is re-raised here.  A one-order sweep starts
    no process, and none is left running when the call returns or
    raises.  Results are sorted by (p, q, r) regardless of scheduling.
    """
    _check_bounds(tolerance, max_p, jobs)
    _check_orders(r_values)
    cpus = usable_cpus()
    procs = min(jobs or cpus, cpus, len(r_values))
    largest_first = sorted(r_values, reverse=True)
    shares = [largest_first[i::procs] for i in range(procs)]
    workers = []
    try:
        for share in shares[1:]:
            workers.append(_Worker(share, max_p, tolerance))
        records = _share_records(shares[0], max_p, tolerance)
        for worker in workers:
            records += map(VerifyRecord._make, worker.rows())
    finally:
        for worker in workers:
            worker.stop()
    return sorted(records, key=itemgetter(0, 1, 2))


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
            if abs(rec.formula_value.imag) > rec.bound:
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


def _sign_tally(records: list[VerifyRecord], tolerance: float) -> dict:
    """bracket_sign_study's tallies over the records of a sweep."""
    cases = [(make_lens_space(rec.p, rec.q), rec.r, rec.oracle_value)
             for rec in records if rec.branch.startswith(CASE_TWO)]
    study = {}
    for signs in BRACKET_VARIANTS:
        stats = study[signs] = {"case_two_instances": len(cases),
                                "integrality_failures": 0,
                                "matched_direct": 0, "mismatched": 0}
        for L, r, oracle in cases:
            try:
                result = tau_prime(L, r, signs)
            except IntegralityFailure:
                stats["integrality_failures"] += 1
            else:
                match = _compare(L, result, oracle, tolerance).match
                stats["matched_direct" if match == "direct"
                      else "mismatched"] += 1
    return study


def bracket_sign_study(max_p: int = 10, r_values: tuple[int, ...] = (3, 5, 7, 9),
                       tolerance: float = 1e-8) -> dict:
    """Compare every bracket sign reading against the oracle.

    For each reading, tallies over all CaseTwo instances in the range:
    how many brackets fail to be a power of zeta_r at all, and how many
    surviving values match the oracle.  Exactly one reading should
    survive with a perfect score; it is the package default.  The cases
    and oracle values are sweep_verify's, and max_p, the tolerance and
    the orders are checked as sweep_verify checks them.
    """
    return _sign_tally(sweep_verify(max_p, r_values, tolerance), tolerance)
