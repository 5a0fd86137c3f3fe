"""Summarise the result files of benchmark runs as markdown tables.

    python3 perfbench/summarize.py [--seeds 1-10] [--against DIR]

Reads the full-size records in `.perfbench/results/*.json` (one file per
workload, seed and trace flag, written by run.py).  For untraced runs it
prints the median and quartiles of every end-to-end metric per workload,
with the quartile spread as a share of the median next to the metric's
bound, and the `quality` of every seed.  With `--against DIR` (the results
directory of an earlier set of runs, copied aside) it also prints the
medians of both sets and how far the second is from the first.  For traced
runs it prints the tracing overhead, the conv2d backward/forward ratios and
the step accounting of train_desk.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> set[int]:
    out: set[int] = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:.4g}"


def load(results: Path, seeds: set[int] | None) -> list[dict]:
    runs = [json.loads(f.read_text()) for f in sorted(results.glob("*.json"))]
    return [r for r in runs if r["size"] == "full" and (not seeds or r["seed"] in seeds)]


def compare(bench: dict, first: list[dict], second: list[dict]) -> None:
    """Medians of two sets of untraced runs, and the change of the second
    from the first in the metric's worse direction, as a share of the first."""
    print("\n| workload | metric | first median | second median | worse by | bound |")
    print("|---|---|---:|---:|---:|---:|")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            a, b = ([r["metrics"][m["name"]]["value"] for r in runs
                     if not r["trace"] and r["workload"] == w["name"]] for runs in (first, second))
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print(f"| {w['name']} | {m['name']} | {fmt(ma)} | {fmt(mb)} | {worse:+.3f} | "
                  f"{m['bound']} |")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seeds_arg, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--against", type=Path, help="results directory of an earlier set of runs")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load(ROOT / ".perfbench" / "results", args.seeds)
    plain = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    if runs:
        print(f"host: {runs[0]['host']}\n")

    print("| workload | metric | unit | n | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---:|---:|---:|---:|---:|---:|")
    for w in bench["workloads"]:
        mine = [r for r in plain if r["workload"] == w["name"]]
        if not mine:
            continue
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in mine]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            flag = " **over bound**" if spread > m["bound"] else (
                " over a third" if spread > m["bound"] / 3 else "")
            print(f"| {w['name']} | {m['name']} | {m['unit']} | {len(vals)} | {fmt(med)} | "
                  f"{fmt(q1)} | {fmt(q3)} | {spread:.3f}{flag} | {m['bound']} |")
        fails = {r["failed"] / r["attempted"] for r in mine}
        print(f"| {w['name']} | failed share | | {len(mine)} | {sorted(fails)} | | | | |")

    print("\nUnbounded figures from the same runs (results records, `info`):\n")
    print("| workload | figure | n | median | q1 | q3 | spread |")
    print("|---|---|---:|---:|---:|---:|---:|")
    for w in bench["workloads"]:
        mine = [r for r in plain if r["workload"] == w["name"]]
        if not mine:
            continue
        for key, value in mine[0]["info"].items():
            if isinstance(value, dict) and "p50" in value:
                name, pick = f"{key} p50", lambda r, k=key: r["info"][k]["p50"]
            elif isinstance(value, float):
                name, pick = key, lambda r, k=key: r["info"][k]
            else:
                continue
            q1, med, q3 = quartiles([pick(r) for r in mine])
            print(f"| {w['name']} | {name} | {len(mine)} | {fmt(med)} | {fmt(q1)} | {fmt(q3)} "
                  f"| {(q3 - q1) / med:.3f} |")

    for w in bench["workloads"]:
        by_seed = sorted((r["seed"], r["metrics"]["quality"]["value"]) for r in plain
                         if r["workload"] == w["name"])
        if by_seed:
            print(f"\n{w['name']} quality by seed: "
                  + ", ".join(f"{s}: {v:.4f}" for s, v in by_seed))
    if args.against:
        compare(bench, load(args.against, args.seeds), runs)

    if traced:
        print("\n| workload | untraced round_s | traced round_s | overhead |")
        print("|---|---:|---:|---:|")
        for w in bench["workloads"]:
            t = [r["metrics"]["bench.traced_round_s"]["value"] for r in traced
                 if r["workload"] == w["name"]]
            u = [r["metrics"]["round_s"]["value"] for r in plain if r["workload"] == w["name"]]
            if t and u:
                tm, um = statistics.median(t), statistics.median(u)
                print(f"| {w['name']} | {um:.3f} s | {tm:.3f} s | "
                      f"{tm - um:+.3f} s ({(tm - um) / um:+.1%}) |")
        for r in traced:
            if r["workload"] != "train_desk":
                continue
            m = {k: v["value"] for k, v in r["metrics"].items()}
            print(f"\ntrain_desk seed {r['seed']} traced: conv2d bwd/fwd "
                  f"{m['ops.conv2d.bwd_ms'] / m['ops.conv2d.fwd_ms']:.2f}")
            for name in ("low.0", "low.1", "seg.0", "seg.1", "seg.proj", "dml1.stage0",
                         "dml1.stage1", "dml1.proj", "dml1.adapt"):
                print(f"  {name}: fwd {m[f'model.{name}.fwd_ms']:.3f} ms, "
                      f"bwd {m[f'model.{name}.bwd_ms']:.3f} ms, "
                      f"ratio {m[f'model.{name}.bwd_ms'] / m[f'model.{name}.fwd_ms']:.2f}")
            s, n = r["spans"]["step_s"], r["spans"]["step_count"]
            part = {"model layers fwd": sum(v for k, v in s.items()
                                            if k.startswith("model.") and k.endswith(".fwd")),
                    "model layers bwd": sum(v for k, v in s.items()
                                            if k.startswith("model.") and k.endswith(".bwd")),
                    "losses": sum(v for k, v in s.items() if k.startswith("losses.")),
                    "sgd_step": s.get("optim.sgd_step", 0.0),
                    "checkpoint saves": s.get("checkpoint.save_model", 0.0)}
            part = {k: 1000.0 * v / n for k, v in part.items()}
            part["train.other"] = m["train.other_ms"]
            part["unattributed"] = m["train.unattributed_ms"]
            print(f"  step {m['train.step_ms']:.1f} ms over {n} steps = "
                  + " + ".join(f"{k} {v:.2f}" for k, v in part.items())
                  + f" (sum {sum(part.values()):.1f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
