"""Record the exact-output digests of the default seed.

    PYTHONPATH=src:. python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: for every workload, the
``workloads.exact_digest`` of each request's output at
``workloads.DEFAULT_SEED``.  A run with the default seed fails any
operation whose exact output no longer matches.  Re-record only when an
output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402
from perfbench.runner import DIGESTS, run_request  # noqa: E402


def main() -> int:
    out = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, workloads.DEFAULT_SEED)
        outputs = {}
        for req in workload.serial:
            rc, stdout, _ = run_request(req.argv)
            outputs[req.key] = (rc, stdout)
        bad = workloads.check_outputs(workload, outputs)
        if bad:
            print(f"{name}: outputs fail their checks: {bad}", file=sys.stderr)
            return 1
        out[name] = {key: workloads.exact_digest(stdout)
                     for key, (_, stdout) in sorted(outputs.items())}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
