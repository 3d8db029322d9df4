"""Seeded workloads and the output checks that need no stored reference.

Each workload is a list of ``lenstau`` CLI requests built from the seed
alone; the program sees only those requests.  Why each one exists:

* ``exact-large-r``: the paper's main product, one exact value at large
  order.  Triples (p, q, r) at r in {891, 401, 101} for each branch
  (Case One, Case Two, Zero), each run as ``tau-prime`` and ``xi``.  At
  degree 100-540 nearly all time goes to cyclotomic division and dense
  reduction modulo Phi_r; the Zero requests cost almost nothing and
  expose per-call overhead.  The Case Two / Zero gcd c is fixed per
  order because the work grows with c.  The seed draws the Zero triples
  and the r = 101 Case Two triples.  The Case One triples, and the Case
  Two triples at r = 891 and 401, are the same for every seed, because
  their cost depends on where the phase exponents fall relative to
  deg Phi_r: drawn per seed, the large-order ones moved the Fraction
  operations of a pass by +-13%, and the r = 101 Case One ones (35-75 ms
  each) moved the median latency by +-15%, so the seed rather than the
  code would set the throughput and the median.  The counts at r = 101
  (see EXACT_TRIPLES) put the median request in the middle of the
  r = 101 Case One latencies, away from the jumps to the faster Zero and
  the slower Case Two requests, so that run-to-run jitter cannot move
  the median from one cluster of latencies to the next.
* ``verify-sweep``: the ROADMAP grid ``verify --max-p 30 --r 3,...,15``
  (1946 cases) at ``--jobs 1`` and at the CLI default ``--jobs``.
  Thousands of tiny cases make per-call overhead dominate, the opposite
  use of ``cyclotomic`` from ``exact-large-r``.  Other seeds pass the
  same orders in another sequence: the cost per case grows steeply with
  r, so drawing other orders would make the cost depend on the seed.
* ``ohtsuki-series``: ``ohtsuki --terms 80`` at p spread over 10^2-10^6
  (eight per decade).  Exact power series and Dedekind sums only; no
  ``cyclotomic`` or ``rt_oracle`` code runs, so it is the control.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WORKLOADS = ("exact-large-r", "verify-sweep", "ohtsuki-series")
# Client processes of a parallel pass: what `lenstau verify` uses for
# its default --jobs.
JOBS = os.cpu_count() or 1

EXACT_ORDERS = (891, 401, 101)          # heaviest first, to balance a pool
# gcd(p, r) for the Case Two and Zero triples at each order.
EXACT_GCD = {891: 9, 401: 401, 101: 101}
# Triples per order and branch.  The median request is the middle r = 101
# Case One one because the cheap Zero requests below it are as many as
# the r = 101 Case Two and large-order requests above it (14 = 6 + 8).
EXACT_TRIPLES = {
    891: {"CaseOne": 1, "CaseTwo": 1, "Zero": 1},
    401: {"CaseOne": 1, "CaseTwo": 1, "Zero": 1},
    101: {"CaseOne": 6, "CaseTwo": 3, "Zero": 5},
}
# Case One at every order, and Case Two at these orders, are drawn from
# FIXED_STREAM instead of the seed.
EXACT_FIXED_CASE_TWO = (891, 401)
FIXED_STREAM = "exact-large-r:fixed"
CASE_ONE_MAX_P = 2000
GCD_MAX_MULTIPLE = 40

VERIFY_MAX_P = 30
VERIFY_ORDERS = (3, 5, 7, 9, 11, 13, 15)

OHTSUKI_TERMS = 80
OHTSUKI_DECADES = (2, 3, 4, 5)          # p in [10^d, 10^(d+1))
OHTSUKI_PER_DECADE = 8

# Fields of a JSON record that hold floating-point approximations; the
# rest is exact and must stay bit-for-bit identical across commits.
INEXACT_FIELDS = ("numeric", "numeric_tolerance", "worst_abs_error")


@dataclass(frozen=True)
class Request:
    """One CLI request.

    ``key`` names the expected output: requests with equal keys must
    print identical output.  ``ops`` is how many operations the request
    counts for.
    """

    argv: tuple[str, ...]
    key: str
    ops: int = 1
    expect: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True)
class Workload:
    """Requests of one pass.

    ``serial`` runs in the benchmark process.  ``parallel`` is None when
    the parallel pass runs ``serial`` on a pool of client processes;
    otherwise it lists requests that parallelise by themselves.
    ``quick`` lists the requests of ``serial`` that are cheap enough to
    time again, in passes of their own, between the full passes.
    """

    name: str
    serial: tuple[Request, ...]
    parallel: tuple[Request, ...] | None = None
    quick: tuple[Request, ...] = ()


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; equal seeds give equal inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "exact-large-r":
        serial = _exact_requests(rng)
        return Workload(name, serial, quick=tuple(
            req for req in serial if not _is_heavy(req)))
    if name == "verify-sweep":
        orders = list(VERIFY_ORDERS)
        if seed != DEFAULT_SEED:
            rng.shuffle(orders)
        return Workload(name, (_verify_request(orders, jobs=1),),
                        (_verify_request(orders, jobs=None),))
    if name == "ohtsuki-series":
        return Workload(name, _ohtsuki_requests(rng))
    raise ValueError(f"unknown workload {name!r}")


def _coprime_q(rng: random.Random, p: int) -> int:
    while True:
        q = rng.randrange(1, p)
        if math.gcd(p, q) == 1:
            return q


def _case_one_pair(rng: random.Random, r: int) -> tuple[int, int]:
    while True:
        p = rng.randrange(2, CASE_ONE_MAX_P)
        if math.gcd(p, r) == 1:
            return p, _coprime_q(rng, p)


def _gcd_pair(rng: random.Random, r: int, c: int,
              case_two: bool) -> tuple[int, int]:
    """(p, q) with gcd(p, r) = c; c | q* +- 1 exactly when case_two."""
    while True:
        p = c * rng.randrange(1, GCD_MAX_MULTIPLE)
        if math.gcd(p, r) != c:
            continue
        q = _coprime_q(rng, p)
        q_star = pow(q, -1, p)
        if ((q_star + 1) % c == 0 or (q_star - 1) % c == 0) == case_two:
            return p, q


def _exact_requests(rng: random.Random) -> tuple[Request, ...]:
    fixed = random.Random(FIXED_STREAM)
    out = []
    for r in EXACT_ORDERS:
        c = EXACT_GCD[r]
        two = fixed if r in EXACT_FIXED_CASE_TWO else rng
        draw = {"CaseOne": lambda: _case_one_pair(fixed, r),
                "CaseTwo": lambda: _gcd_pair(two, r, c, case_two=True),
                "Zero": lambda: _gcd_pair(rng, r, c, case_two=False)}
        triples = [(branch, draw[branch]())
                   for branch, count in EXACT_TRIPLES[r].items()
                   for _ in range(count)]
        for branch, (p, q) in triples:
            for command in ("tau-prime", "xi"):
                out.append(Request(
                    (command, "--p", str(p), "--q", str(q), "--r", str(r),
                     "--format", "json"),
                    f"{command}:p={p}:q={q}:r={r}",
                    expect={"command": command, "p": p, "q": q, "r": r,
                            "branch": branch}))
    # Deal the light requests round-robin into the gaps after the heavy
    # ones.  Host slowdowns last seconds, so a pass that ran the light
    # requests in one stretch would give all of them, and op_p50_ms, the
    # same slowdown; the quick passes time them again at other moments.
    heavy = [req for req in out if _is_heavy(req)]
    light = [req for req in out if not _is_heavy(req)]
    return tuple(req for i, h in enumerate(heavy)
                 for req in (h, *light[i::len(heavy)]))


def _is_heavy(req: Request) -> bool:
    """A Case One or Case Two request at r = 891 or 401 (0.4-2.4 s)."""
    return (req.expect["r"] in EXACT_FIXED_CASE_TWO
            and req.expect["branch"] != "Zero")


def verify_case_count(max_p: int) -> int:
    """Number of lens spaces L(p, q), p <= max_p, 0 <= q < p coprime."""
    return sum(1 if p == 1 else sum(1 for q in range(1, p)
                                    if math.gcd(p, q) == 1)
               for p in range(1, max_p + 1))


def _verify_request(orders: list[int], jobs: int | None) -> Request:
    r_list = ",".join(map(str, orders))
    cases = verify_case_count(VERIFY_MAX_P) * len(orders)
    argv = ["verify", "--max-p", str(VERIFY_MAX_P), "--r", r_list,
            "--format", "json"]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return Request(tuple(argv), f"verify:max-p={VERIFY_MAX_P}:r={r_list}",
                   ops=cases, expect={"command": "verify", "total": cases})


def _ohtsuki_requests(rng: random.Random) -> tuple[Request, ...]:
    out = []
    for d in OHTSUKI_DECADES:
        for _ in range(OHTSUKI_PER_DECADE):
            p = rng.randrange(10 ** d, 10 ** (d + 1))
            q = _coprime_q(rng, p)
            out.append(Request(
                ("ohtsuki", "--p", str(p), "--q", str(q),
                 "--terms", str(OHTSUKI_TERMS), "--format", "json"),
                f"ohtsuki:p={p}:q={q}:terms={OHTSUKI_TERMS}",
                expect={"command": "ohtsuki", "p": p, "q": q}))
    return tuple(out)


# -- checks -------------------------------------------------------------


def exact_digest(stdout: str) -> str:
    """sha256 of the exact fields of a JSON record."""
    record = json.loads(stdout)
    for name in INEXACT_FIELDS:
        record.pop(name, None)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def galois_exponent(r: int) -> int:
    """(1 -+ r)/4 for r = +-1 mod 4, reduced mod r."""
    return ((1 - r) // 4 if r % 4 == 1 else (1 + r) // 4) % r


def check_outputs(workload: Workload, outputs: dict[str, tuple],
                  digests: dict[str, str] | None = None) -> dict[str, str]:
    """Check one output per request key; return {key: reason} of failures.

    ``outputs`` maps each key to ``(exit code, stdout)``.  ``digests``,
    when given, maps keys to recorded ``exact_digest`` values.
    """
    requests = {req.key: req for req in workload.serial + (workload.parallel or ())}
    bad: dict[str, str] = {}
    records = {}
    for key, req in requests.items():
        if key not in outputs:
            bad[key] = "no output"
            continue
        rc, stdout = outputs[key]
        if rc != 0:
            bad[key] = f"exit code {rc}"
            continue
        try:
            records[key] = json.loads(stdout)
        except ValueError:
            bad[key] = "output is not JSON"
            continue
        if digests is not None and digests.get(key) != exact_digest(stdout):
            bad[key] = "exact output differs from the recorded digest"
    for key, record in records.items():
        reason = _check_record(requests[key].expect, record)
        if reason:
            bad.setdefault(key, reason)
    if workload.name == "exact-large-r":
        _check_galois_route(requests, records, bad)
    return bad


def _check_record(expect: dict, record: dict) -> str | None:
    command = expect["command"]
    if command in ("tau-prime", "xi"):
        if (record["p"], record["q"], record["r"]) != (
                expect["p"], expect["q"], expect["r"]):
            return "request parameters not echoed"
        if record["value"]["order"] != expect["r"]:
            return "value is not in Q(zeta_r)"
        if command == "tau-prime" and record["branch"] != expect["branch"]:
            return f"branch {record['branch']}, expected {expect['branch']}"
    elif command == "ohtsuki":
        lam = record["lambda"]
        if len(lam) != OHTSUKI_TERMS:
            return f"{len(lam)} coefficients, expected {OHTSUKI_TERMS}"
        if lam[0] != [1, expect["p"]]:
            return f"lambda_0 = {lam[0]}, expected 1/{expect['p']}"
    elif command == "verify":
        if record["match_counts"]["none"] != 0:
            return f"{record['match_counts']['none']} oracle mismatches"
        if record["total"] != expect["total"]:
            return f"{record['total']} cases, expected {expect['total']}"
        if not record["consistent"]:
            return "sweep is not consistent"
    return None


def _check_galois_route(requests: dict, records: dict, bad: dict) -> None:
    """tau'_r must equal the Galois image of xi_r exactly."""
    from lenstau.cyclotomic import Cyclotomic

    for key, req in requests.items():
        if req.expect["command"] != "xi":
            continue
        tau_key = "tau-prime" + key[len("xi"):]
        if key not in records or tau_key not in records:
            continue
        r = req.expect["r"]
        image = Cyclotomic.from_dict(records[key]["value"]).galois_apply(
            galois_exponent(r))
        if image.to_dict() != records[tau_key]["value"]:
            reason = "tau-prime differs from the Galois image of xi"
            bad.setdefault(key, reason)
            bad.setdefault(tau_key, reason)
