"""Summarise the run records into ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Reads every record under ``.perfbench-out/results/`` (one per workload,
seed and trace setting, written by ``perfbench/run.py``) and writes, per
workload, the median and quartiles of each metric over the seeds, with
the environment the runs shared.  Run the ten seeds of every workload
first, on an otherwise idle machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench-out" / "results"
SHARED_ENV = ("python", "numpy", "nproc", "jobs", "machine",
              "commit", "src_sha256", "seconds")


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / median if median else 0.0)
    return out


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"no records under {RESULTS}", file=sys.stderr)
        return 1
    envs = {tuple(r["environment"][k] for k in SHARED_ENV) for r in records}
    if len(envs) != 1:
        print("records come from different environments or commits",
              file=sys.stderr)
        return 1
    grouped = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    seeds = defaultdict(lambda: defaultdict(list))
    for r in records:
        env = r["environment"]
        section = "per_layer" if env["trace"] else "end_to_end"
        seeds[env["workload"]][section].append(env["seed"])
        for name, value in r["metrics"].items():
            grouped[env["workload"]][section][name].append(value)
        if not env["trace"]:
            grouped[env["workload"]][section]["error_rate"].append(r["error_rate"])
    out = {
        "environment": dict(zip(SHARED_ENV, envs.pop())),
        "workloads": {
            workload: {section: {"seeds": sorted(seeds[workload][section]),
                                 "metrics": {name: summarise(values)
                                             for name, values in metrics.items()}}
                       for section, metrics in sections.items()}
            for workload, sections in sorted(grouped.items())},
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {HERE / 'baseline.json'} from {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
