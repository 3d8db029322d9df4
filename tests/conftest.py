"""Helpers that several test modules share."""
import contextlib
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import lenstau


def run_python(code: str, *flags: str) -> str:
    """Run ``code`` in a new interpreter, started with ``flags``, that
    imports this lenstau; check that it exits 0 and return its stdout."""
    src = str(Path(lenstau.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@contextlib.contextmanager
def within(seconds: float):
    """Fail unless the block finishes within ``seconds`` of wall time."""
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f} s, over {seconds} s"
