"""Static cost model of a dmlseg network, keyed by the names `describe` prints.

For every layer line of `dmlseg.model.describe` it gives the multiply-adds
per image (convolutions only), the parameter count and the float32 output
bytes per image.  The traced benchmark run divides the convolution MACs by
the measured conv2d forward time to report `ops.conv2d.gflops`.

    python3 perfbench/costmodel.py            # table for the desk config
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_CONV = re.compile(r"^(\S+) conv (\d+)->(\d+) k(\d+) s\d+ d\d+ p\d+(?: relu)? -> (\d+)x(\d+)x(\d+)$")
_SHAPED = re.compile(r"^(\S+) .* -> (\d+)x(\d+)x(\d+)$")
_INPUT = re.compile(r"^input (\d+)x(\d+)x(\d+)$")


@dataclass(frozen=True)
class LayerCost:
    name: str
    macs: int  # multiply-adds per image
    params: int
    out_bytes: int  # float32 output per image


def cost_table(describe_text: str) -> list[LayerCost]:
    """One row per named layer of a `describe` listing, in its order."""
    rows: list[LayerCost] = []
    shape = None
    for line in describe_text.splitlines():
        m = _INPUT.match(line)
        if m:
            shape = tuple(int(v) for v in m.groups())
            continue
        m = _CONV.match(line)
        if m:
            name, cin, cout, k, c, h, w = m.group(1), *(int(v) for v in m.groups()[1:])
            rows.append(LayerCost(name, cout * h * w * cin * k * k,
                                  cout * cin * k * k + cout, 4 * c * h * w))
            continue
        m = _SHAPED.match(line)
        if m:
            c, h, w = (int(v) for v in m.groups()[1:])
            rows.append(LayerCost(m.group(1), 0, 0, 4 * c * h * w))
            continue
        if line.startswith("center ") and shape is not None:
            rows.append(LayerCost("center", 0, 0, 4 * shape[0] * shape[1] * shape[2]))
            continue
        raise ValueError(f"unrecognised describe line {line!r}")
    return rows


def format_table(rows: list[LayerCost]) -> str:
    lines = ["| layer | MACs/img | params | out KiB/img |", "|---|---:|---:|---:|"]
    for r in rows:
        lines.append(f"| {r.name} | {r.macs:,} | {r.params:,} | {r.out_bytes / 1024:.1f} |")
    lines.append(f"| total | {sum(r.macs for r in rows):,} | {sum(r.params for r in rows):,} "
                 f"| {sum(r.out_bytes for r in rows) / 1024:.1f} |")
    return "\n".join(lines)


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from dmlseg.model import ModelConfig, build_model, describe

    from configs import DESK_MODEL

    print(format_table(cost_table(describe(build_model(ModelConfig(**DESK_MODEL))))))
