"""Smoke run of the benchmark: every workload at minimal size, untraced and
traced, each in its own process so that no state leaks from one into the
next.  Checks that every run passes its output checks and prints exactly the
metric names and units BENCHMARK.json lists, then that the benchmark refuses
to run without the package sources.  Exits 1 on any mismatch.

    python3 perfbench/smoke.py          # from the root of a checkout, ~30 s
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            tag = f"{w['name']} --trace {trace}"
            proc = run(ROOT, w["name"], trace)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                missing = sorted(set(expect[trace]) - set(got))
                extra = sorted(set(got) - set(expect[trace]))
                units = sorted(k for k in set(got) & set(expect[trace])
                               if got[k] != expect[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, units differ {units}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}\n"
                                + proc.stdout)
            zero = sorted(k for k, v in result["metrics"].items() if v["value"] == 0)
            if zero:
                problems.append(f"{tag}: metrics read 0: {zero}")
            print(f"{tag}: {len(got)} metrics, attempted {result['attempted']}")

    # without the package sources the benchmark must fail, printing no result
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "perfbench").iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"run without sources: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-200:]!r}")
        else:
            print(f"without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
