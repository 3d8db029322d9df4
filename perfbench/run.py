"""lenstau benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload exact-large-r --seed 0 --seconds 40 --trace 0

Run it from the repository root; it times the ``lenstau`` in ``src/``.
Workloads: ``exact-large-r``, ``verify-sweep``, ``ohtsuki-series`` (see
``perfbench/workloads.py``).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``perfbench/tracing.py``).
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every run
also writes a record with its environment to
``.perfbench-out/results/``, and a traced run writes its spans to
``.perfbench-out/spans-*.csv.gz``.

End-to-end metrics:

* ``setup_s``: median over SETUP_RUNS fresh interpreters, half of them
  before the workload and half after it, of the time to import
  ``lenstau`` and ``lenstau.cli`` (numpy included) and build the CLI
  parser, the point where the first command can run.
* ``ops_per_s``: operations per second of a serial pass in which every
  request takes its median time over the run's serial and quick passes.
  An operation is one CLI request, or one (p, q, r) case on verify-sweep.
* ``ops_per_s_parallel``: operations per second over all the parallel
  passes, with as many client processes as CPUs (on verify-sweep:
  ``verify`` at its default ``--jobs``, which is the CPU count).
* ``op_p50_ms``: median over the requests of a pass of each one's
  median latency over the serial and quick passes (on verify-sweep one
  request is a whole sweep at ``--jobs 1``).
* ``peak_rss_mb``: peak resident memory of the workload process plus
  the largest total, sampled every RSS_INTERVAL_S, of all its descendant
  processes' resident memory.

Also printed, outside the JSON: ``error_rate`` (failed / attempted
operations, also given by ``failed`` and ``attempted``) and ``op_tail_ms``,
the highest latency percentile with at least ten samples beyond it,
with that percentile and the sample count, left out below 11 samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402

SETUP_RUNS = 8
RSS_INTERVAL_S = 0.05
RUNNER_GRACE_S = 120       # beyond --seconds, before the runner is killed
OUT_DIR = ROOT / ".perfbench-out"
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import lenstau, lenstau.cli\n"
    "lenstau.cli.build_parser()\n"
    "print(time.perf_counter() - start, lenstau.__file__)\n"
)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ops_per_s_parallel": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(runs: int) -> list[float]:
    """Import-to-ready time of ``runs`` fresh interpreters."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != ROOT / "src" / "lenstau":
            raise BenchError(f"lenstau imported from {path.strip()}")
        samples.append(float(seconds))
    return samples


def _children(pid: int) -> list[int]:
    out = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            out.extend(int(child) for child in handle.read().split())
    return out


def _rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0     # a process that has exited but not been reaped


def descendants_rss_kb(pid: int) -> int:
    """Summed resident memory of the descendants of ``pid``."""
    total, stack = 0, _children(pid)
    while stack:
        child = stack.pop()
        try:
            total += _rss_kb(child)
            stack.extend(_children(child))
        except (FileNotFoundError, ProcessLookupError):
            pass     # ended since it was listed
    return total


def run_workload(args) -> tuple[dict, int]:
    """The runner's results, and the largest sampled total of its
    descendants' resident memory in kB."""
    cmd = [sys.executable, "-m", "perfbench.runner",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT_DIR)]
    # Its own session, so that a timeout can stop its workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    deadline = time.monotonic() + args.seconds + RUNNER_GRACE_S
    children_kb = 0
    try:
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=RSS_INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    raise BenchError("workload process timed out") from None
            try:
                children_kb = max(children_kb, descendants_rss_kb(proc.pid))
            except (FileNotFoundError, ProcessLookupError):
                pass     # the runner is exiting
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"workload process exited {proc.returncode}: "
                         f"{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), children_kb


def tail_latency(latencies: list[float]) -> tuple[float, float, int] | None:
    """(percentile, seconds, samples) of the highest percentile that has
    at least ten samples beyond it, or None below 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11], n


def end_to_end(raw: dict, setup: list[float], children_kb: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        **raw["metrics"],
        "peak_rss_mb": (raw["self_rss_kb"] + children_kb) / 1024.0,
    }


def environment(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lenstau").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": workloads.JOBS,
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lenstau" / "cli.py").is_file():
        print(f"perfbench: no lenstau sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        # Split, so that the samples span the run as the workload does.
        setup = measure_setup(SETUP_RUNS // 2) if not args.trace else []
        raw, children_kb = run_workload(args)
        if not args.trace:
            setup += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        metrics = raw["metrics"]
        units = {name: unit for name, (unit, _) in tracing.metric_units().items()}
    else:
        metrics = end_to_end(raw, setup, children_kb)
        units = END_TO_END
    serial_latencies = [s for p in raw["passes"] if p["mode"] == "serial"
                        for s in p["latency_s"]]
    tail = tail_latency(serial_latencies)
    attempted, failed = raw["attempted"], raw["failed"]
    record = {
        "environment": environment(args),
        "metrics": metrics,
        "setup_samples_s": setup,
        "error_rate": failed / attempted,
        "op_tail_ms": None if tail is None else {
            "percentile": tail[0], "value": 1000.0 * tail[1], "samples": tail[2]},
        "passes": raw["passes"],
        "failed_checks": raw["bad"],
        "elapsed_s": time.perf_counter() - started,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(raw['passes'])} passes of {raw['requests']} requests")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(f"  error_rate = {failed / attempted} ({failed} of {attempted} operations)")
    if tail is not None:
        print(f"  op_tail_ms = {1000.0 * tail[1]} ms "
              f"(p{tail[0]:.1f}, {tail[2]} samples)")
    for key, reason in raw["bad"].items():
        print(f"  FAILED {key}: {reason}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not raw["bad"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
