"""Self-tests of the benchmark: generator, tracing, checks, metrics.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run, runner, tracing, workloads
from perfbench.workloads import Request, Workload

ROOT = Path(__file__).resolve().parents[2]


def _small_exact() -> Workload:
    """The r = 101 triples of the default exact-large-r workload."""
    full = workloads.make("exact-large-r", workloads.DEFAULT_SEED)
    return Workload(full.name,
                    tuple(req for req in full.serial if req.expect["r"] == 101))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    assert workloads.make(name, 7) == workloads.make(name, 7)
    assert workloads.make(name, 7) != workloads.make(name, 8)


def test_default_verify_grid_is_the_roadmap_grid():
    (req,) = workloads.make("verify-sweep", workloads.DEFAULT_SEED).serial
    assert req.argv[req.argv.index("--r") + 1] == "3,5,7,9,11,13,15"
    assert req.ops == 1946


def test_exact_workload_covers_every_branch_and_order():
    seen = {(req.expect["r"], req.expect["branch"])
            for req in workloads.make("exact-large-r", 3).serial}
    assert seen == {(r, b) for r in workloads.EXACT_ORDERS
                    for b in ("CaseOne", "CaseTwo", "Zero")}


def test_self_times_on_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("b1", 6.0, 7.0, 2, 0),
        ("c", 3.0, 6.0, 0, 0),      # overlaps a and b: covered once
        ("other-op", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 1.0, 3.0, 1.0])


def _outputs(requests) -> dict:
    return {req.key: runner.run_request(req.argv)[:2] for req in requests}


def test_traced_outputs_equal_untraced_outputs():
    requests = _small_exact().serial + (
        Request(("ohtsuki", "--p", "1234", "--q", "5", "--terms", "12",
                 "--format", "json"), "ohtsuki"),
        Request(("verify", "--max-p", "6", "--r", "3,5", "--jobs", "1",
                 "--format", "json"), "verify"))
    from lenstau import cli, lens_invariants, rt_oracle
    original_main, original_tau = cli.main, lens_invariants.tau_prime
    untraced = _outputs(requests)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rt_oracle.tau_prime.__wrapped__ is original_tau
        assert lens_invariants.tau_prime is rt_oracle.tau_prime
        traced = _outputs(requests)
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert traced == untraced
    summary = tracer.summary(wall_s=sum(end - start for _, start, end, parent, _
                                        in tracer.spans if parent < 0))
    assert summary["cli.calls"] == len(requests)
    cases = workloads.verify_case_count(6) * 2
    assert summary["rt_oracle.modular_data.calls"] == cases   # one per case
    assert summary["rt_oracle.modular_data.useful_ratio"] == 2 / cases
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(summary["trace.wall_s"])
    assert summary["trace.unattributed_s"] == pytest.approx(0)


def test_corrupted_output_counts_as_failed():
    workload = _small_exact()
    session = runner.Session(workload)
    session.run_pass("serial")
    assert workloads.check_outputs(workload, session.first_output) == {}
    n = len(workload.serial)
    assert session.tally({}) == (n, 0)

    tau_key = workload.serial[0].key
    rc, stdout = session.first_output[tau_key]
    record = json.loads(stdout)
    record["value"]["coeffs"][1][0] += 1
    session.first_output[tau_key] = (rc, json.dumps(record, sort_keys=True))
    bad = workloads.check_outputs(workload, session.first_output)
    assert set(bad) == {tau_key, "xi" + tau_key[len("tau-prime"):]}
    attempted, failed = session.tally(bad)
    assert (attempted, failed) == (n, 2)


def test_verify_check_counts_oracle_mismatches():
    workload = workloads.make("verify-sweep", workloads.DEFAULT_SEED)
    (req,) = workload.serial
    record = {"match_counts": {"none": 1}, "total": req.ops, "consistent": False}
    bad = workloads.check_outputs(workload, {req.key: (0, json.dumps(record))})
    assert bad == {req.key: "1 oracle mismatches"}


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_timed_metrics_take_each_request_at_its_median():
    def timed(mode, wall, latencies):
        return {"mode": mode, "ops": 3, "wall_s": wall,
                "keys": ["a", "b", "c"], "latency_s": latencies}
    passes = [timed("serial", 6.0, [1.0, 2.0, 3.0]),
              timed("parallel", 3.0, [1.0, 2.0, 3.0]),
              timed("serial", 6.0, [2.0, 1.0, 3.5]),
              timed("parallel", 2.0, [1.0, 1.0, 2.0]),
              {"mode": "quick", "ops": 1, "wall_s": 0.5, "keys": ["a"],
               "latency_s": [0.5]}]
    # Medians a: (0.5, 1, 2) -> 1, b: (1, 2) -> 1.5, c: (3, 3.5) -> 3.25.
    assert runner.timed_metrics(passes) == pytest.approx(
        {"ops_per_s": 3 / 5.75, "ops_per_s_parallel": 6 / 5.0,
         "op_p50_ms": 1500.0})


def test_quick_and_parallel_passes():
    requests = tuple(Request(("ohtsuki", "--p", str(p), "--q", "7", "--terms",
                              "10", "--format", "json"), f"ohtsuki:{p}")
                     for p in (101, 123457))
    session = runner.Session(Workload("ohtsuki-series", requests,
                                      quick=requests[:1]))
    session.run_pass("serial")
    session.run_pass("quick")
    assert [p["keys"] for p in session.passes] == [
        ["ohtsuki:101", "ohtsuki:123457"], ["ohtsuki:101"]]
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        session.pool = pool
        session.run_pass("parallel")
    # Longest first by the median serial time so far.
    slow_first = sorted(session.passes[0]["keys"], reverse=True,
                        key=runner.median_latencies(session.passes[:2]).get)
    assert session.passes[-1]["keys"] == slow_first
    assert session.tally({}) == (5, 0)


def test_paired_pass_records_untraced_and_traced_halves():
    requests = tuple(Request(("ohtsuki", "--p", str(p), "--q", "7", "--terms",
                              "10", "--format", "json"), f"ohtsuki:{p}")
                     for p in (101, 1234))
    session = runner.Session(Workload("ohtsuki-series", requests))
    session.run_pass("paired")
    assert [p["mode"] for p in session.passes] == ["serial", "traced-warm"]
    assert session.tally({}) == (4, 0)   # traced output equals untraced
    from lenstau import ohtsuki
    assert not hasattr(ohtsuki.ohtsuki_tau, "__wrapped__")


def test_descendants_rss_counts_a_child_process():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        deadline = time.monotonic() + 10
        while run.descendants_rss_kb(os.getpid()) == 0:
            assert time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        child.kill()
        child.wait()
