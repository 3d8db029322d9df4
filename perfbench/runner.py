"""Runs one workload in its own process and prints its raw results.

Usage (run.py starts this; it needs ``src`` and the repository root on
``PYTHONPATH``):

    python3 -m perfbench.runner --workload NAME --seed N --seconds S
        --trace 0|1 --out DIR

Every request goes through ``lenstau.cli.main`` in-process with
``--format json``.  The timed phase repeats a cycle of a serial pass, a
quick pass, a parallel pass and a quick pass until the next pass would
end after ``--seconds``; each kind runs at least twice.  A serial pass
runs the requests one after another in this process; a quick pass does
the same with the workload's cheap requests only (exact-large-r has
them), so that those are timed more often.  A parallel pass runs the
requests on a pool of ``workloads.JOBS`` client processes, longest
first by their median serial time so far, except on ``verify-sweep``,
whose parallel request is the CLI's own ``--jobs`` default.
``timed_metrics`` turns the passes into ``ops_per_s``,
``ops_per_s_parallel`` and ``op_p50_ms``.

With ``--trace 1`` the first serial pass runs traced, in a fresh process
with cold caches as a CLI user would have them; the per-layer metrics
come from it alone.  The rest of the time runs warm ``paired`` passes,
each request untraced and then traced, and ``trace.overhead_ratio`` is
the median traced half over the median untraced half.  On verify-sweep
parallel passes run as well, for ``rt_oracle.sweep.parallel_efficiency``
(``ops_per_s_parallel`` over jobs x ``ops_per_s``).

Output checks run after the timed phase.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from perfbench import tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
MIN_PASSES = 2
TIMED_MODES = ("serial", "quick", "parallel", "quick")
# Passes whose latencies time a request run alone.
SERIAL_MODES = ("serial", "quick")


def run_request(argv) -> tuple:
    """(exit code, stdout, seconds) of one in-process CLI request."""
    from lenstau import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except Exception as exc:   # a raising request is a failed operation
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start


def _pool_init() -> None:
    import lenstau.cli  # noqa: F401  (import before the timed phase)


def _pool_pid(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


class Session:
    """The passes of one run and the outputs they printed."""

    def __init__(self, workload: workloads.Workload, pool=None) -> None:
        self.workload = workload
        self.pool = pool
        self.passes: list[dict] = []
        self.first_output: dict[str, tuple] = {}   # key -> (rc, stdout)
        self.results: list[tuple] = []             # (key, ops, matches first)

    def _add(self, mode: str, requests, outcomes, wall: float) -> None:
        latencies = []
        for req, (rc, stdout, seconds) in zip(requests, outcomes):
            first = self.first_output.setdefault(req.key, (rc, stdout))
            self.results.append((req.key, req.ops,
                                 rc == 0 and first == (rc, stdout)))
            latencies.append(seconds)
        self.passes.append({"mode": mode, "wall_s": wall,
                            "ops": sum(req.ops for req in requests),
                            "keys": [req.key for req in requests],
                            "latency_s": latencies})

    def run_pass(self, mode: str, tracer=None) -> float:
        """Run one pass of ``mode`` and return how long it took.

        ``serial``, ``parallel`` and ``traced`` (under ``tracer``) record
        one pass each.  ``paired`` runs every serial request untraced and
        then again under a throwaway tracer, and records the two halves
        as a ``serial`` and a ``traced-warm`` pass.
        """
        start = time.perf_counter()
        if mode == "paired":
            requests = self.workload.serial
            plain, traced = [], []
            for req in requests:
                plain.append(run_request(req.argv))
                warm = tracing.Tracer()
                warm.install()
                try:
                    traced.append(run_request(req.argv))
                finally:
                    warm.uninstall()
            self._add("serial", requests, plain, sum(o[2] for o in plain))
            self._add("traced-warm", requests, traced,
                      sum(o[2] for o in traced))
        elif mode == "parallel" and self.workload.parallel is None:
            # Longest first, so that the pool's workers end together.
            median = median_latencies(self.passes)
            requests = sorted(self.workload.serial,
                              key=lambda req: -median.get(req.key, 0.0))
            outcomes = self.pool.map(run_request,
                                     [req.argv for req in requests], chunksize=1)
            self._add(mode, requests, outcomes, time.perf_counter() - start)
        else:
            requests = {"parallel": self.workload.parallel,
                        "quick": self.workload.quick}.get(
                            mode, self.workload.serial)
            outcomes = []
            for op, req in enumerate(requests):
                if tracer is not None:
                    tracer.op = op
                outcomes.append(run_request(req.argv))
            self._add(mode, requests, outcomes, time.perf_counter() - start)
        return time.perf_counter() - start

    def run_until(self, deadline: float, modes, min_passes: int) -> None:
        """Run the modes in turn until the next pass of a mode would end
        after the deadline; each mode runs at least min_passes times.
        Quick passes run only on a workload that has quick requests."""
        if not self.workload.quick:
            modes = tuple(mode for mode in modes if mode != "quick")
        last = {}
        count = dict.fromkeys(modes, 0)
        while True:
            ran = False
            for mode in modes:
                if (count[mode] >= min_passes
                        and time.perf_counter() + last[mode] > deadline):
                    continue
                last[mode] = self.run_pass(mode)
                count[mode] += 1
                ran = True
            if not ran:
                return

    def tally(self, bad_keys) -> tuple[int, int]:
        """(attempted, failed) operations.  An operation fails if its
        request raised, exited non-zero, printed other output than the
        first run of the same request, or that output failed a check."""
        attempted = failed = 0
        for key, ops, ok in self.results:
            attempted += ops
            if not ok or key in bad_keys:
                failed += ops
        return attempted, failed


def median_latencies(passes) -> dict[str, float]:
    """Each request's median latency over the serial and quick passes."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        if p["mode"] in SERIAL_MODES:
            for key, seconds in zip(p["keys"], p["latency_s"]):
                samples.setdefault(key, []).append(seconds)
    return {key: statistics.median(v) for key, v in samples.items()}


def serial_rate(passes) -> float:
    """Operations per second of a serial pass made of each request's
    median run."""
    ops = next(p["ops"] for p in passes if p["mode"] == "serial")
    return ops / sum(median_latencies(passes).values())


def parallel_rate(passes) -> float:
    """Operations per second over all the parallel passes."""
    parallel = [p for p in passes if p["mode"] == "parallel"]
    return sum(p["ops"] for p in parallel) / sum(p["wall_s"] for p in parallel)


def timed_metrics(passes) -> dict[str, float]:
    """The end-to-end metrics that the timed passes give.

    A shared host switches between a fast and a slow state for seconds
    at a time (an r = 101 request takes 37 or 58 ms), and may stay in
    either for minutes.  A run's fastest times depend on whether it
    caught a fast stretch; its medians vary less from run to run.  So
    each request counts with its median latency over the run, and the
    parallel rate is taken over all parallel passes.
    """
    return {
        "ops_per_s": serial_rate(passes),
        "ops_per_s_parallel": parallel_rate(passes),
        "op_p50_ms": 1000.0 * statistics.median(median_latencies(passes).values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.runner")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import lenstau
    import lenstau.cli  # noqa: F401
    if Path(lenstau.__file__).resolve().parent != ROOT / "src" / "lenstau":
        print(f"perfbench: lenstau imported from {lenstau.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = workloads.JOBS
    workload = workloads.make(args.workload, args.seed)
    needs_pool = workload.parallel is None and not args.trace
    pool = (multiprocessing.get_context("spawn").Pool(
        jobs, initializer=_pool_init) if needs_pool else None)
    session = Session(workload, pool)
    metrics = None
    try:
        while pool is not None and len(set(pool.map(
                _pool_pid, [0.2] * jobs, chunksize=1))) < jobs:
            pass   # until every worker has imported lenstau and answered
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = session.run_pass("traced", tracer)
            finally:
                tracer.uninstall()
            modes = ("paired",) if workload.parallel is None else (
                "paired", "parallel")
            session.run_until(deadline, modes, min_passes=1)
            metrics = tracer.summary(wall_s=traced)
            metrics["trace.overhead_ratio"] = statistics.median(
                p["wall_s"] for p in session.passes if p["mode"] == "traced-warm"
            ) / statistics.median(
                p["wall_s"] for p in session.passes if p["mode"] == "serial")
            if workload.parallel is not None:
                metrics["rt_oracle.sweep.parallel_efficiency"] = parallel_rate(
                    session.passes) / (jobs * serial_rate(session.passes))
            args.out.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(
                args.out / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        else:
            session.run_until(deadline, TIMED_MODES, MIN_PASSES)
            metrics = timed_metrics(session.passes)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    digests = None
    if args.seed == workloads.DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text())[args.workload]
    bad = workloads.check_outputs(workload, session.first_output, digests)
    attempted, failed = session.tally(bad)
    print(json.dumps({
        "passes": session.passes, "metrics": metrics,
        "self_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": attempted, "failed": failed, "bad": bad,
        "requests": len(workload.serial),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
