"""The benchmark in perfbench/ patches dmlseg's module globals, `Graph.record`,
`Graph.backward` and `Node.output`; its smoke run keeps a refactor of those
from breaking it silently."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
