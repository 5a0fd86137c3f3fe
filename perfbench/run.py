"""Benchmark of dmlseg: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end ones
of BENCHMARK.json, with `--trace 1` the per-layer ones.  Scratch files live in
`.perfbench/work-<pid>/` and are removed at exit; a copy of the result, with
the raw span sums of a traced run, is kept in `.perfbench/results/`.
"""

import os

# before numpy is imported anywhere: one BLAS thread, whatever the host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_desk", "infer_desk", "gradcheck_small")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: every workload at minimal size (smoke.py)")
    return p.parse_args(argv)


def host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dmlseg" / "__init__.py").is_file():
        print(f"error: no dmlseg package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dmlseg
    if Path(dmlseg.__file__).resolve().parent != SRC / "dmlseg":
        print(f"error: imported dmlseg from {dmlseg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from configs import SIZES
    from costmodel import cost_table
    from instrument import Instruments
    from workloads import WORKLOADS, peak_rss_mb

    import dmlseg.model as model_mod

    size = SIZES[args.size]
    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    inst = Instruments(traced=bool(args.trace))
    try:
        with ExitStack() as stack:
            inst.install(stack)
            out = WORKLOADS[args.workload](inst, size, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, ok, detail in out.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    if args.trace:
        desk = model_mod.build_model(model_mod.ModelConfig(**size["model"]))
        metrics = inst.layer_metrics([row.name for row in cost_table(model_mod.describe(desk))])
        metrics["bench.traced_round_s"] = (sorted(out.round_s)[len(out.round_s) // 2], "s")
    else:
        metrics = dict(out.metrics)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    result = {"correct": out.correct, "attempted": out.attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (state / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, info=out.info, host=host_info(),
                  checks=out.checks)
    if args.trace:
        record["spans"] = {"total_s": dict(inst.total), "calls": dict(inst.calls),
                           "step_s": dict(inst.step_sum), "step_count": inst.step_count,
                           "step_time_s": inst.step_time}
    (state / "results" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
