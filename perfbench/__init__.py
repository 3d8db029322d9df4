"""Layer-by-layer benchmark for lenstau.

Run one workload with ``python3 perfbench/run.py --workload <name>``
from the repository root; see ``perfbench/run.py`` for the metrics and
``perfbench/workloads.py`` for why each workload exists.
"""
