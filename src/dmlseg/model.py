"""Network assembly: shared low-level stack, a dilated segmentation head,
and per-level dense multi-label heads whose pooled scores are fused into
the final prediction by elementwise sum.

The segmentation head keeps the backbone resolution by trading stride for
dilation; each multi-label head applies the extra stride for real, pools
class scores over its window, and is upsampled back before fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple
import numpy as np

from .errors import ConfigError
from .gt_gen import IGNORE
from .kv import KvConfig
from .ops import conv2d, elementwise_sum, maxpool2d, relu, shift, upsample_nearest
from .tensor import Parameter, Tensor, parameter_rng


@dataclass(frozen=True)
class ModelConfig(KvConfig):
    num_classes: int
    input_size: tuple[int, int]
    low_channels: tuple[tuple[int, int], ...]
    seg_channels: tuple[int, ...]
    dml_extra_stride: int = 2
    window_sizes: tuple[int, ...] = (11, 5, 3)
    lam: float = field(default=1.0, metadata={"key": "lambda"})
    levels: int = 3

    def __post_init__(self):
        object.__setattr__(self, "input_size", tuple(self.input_size))
        object.__setattr__(self, "low_channels",
                           tuple((int(w), int(s)) for w, s in self.low_channels))
        object.__setattr__(self, "seg_channels", tuple(int(w) for w in self.seg_channels))
        object.__setattr__(self, "window_sizes", tuple(int(w) for w in self.window_sizes))
        if not 2 <= self.num_classes <= IGNORE:  # uint8 labels; 255 is IGNORE
            raise ConfigError(f"num_classes must be 2..{IGNORE}, got {self.num_classes}")
        if self.levels not in (0, 1, 2, 3):
            raise ConfigError(f"levels must be 0..3, got {self.levels}")
        # `levels` J keeps the first J window sizes
        object.__setattr__(self, "window_sizes", self.window_sizes[:self.levels])
        if len(self.window_sizes) != self.levels:
            raise ConfigError(f"{self.levels} levels but {len(self.window_sizes)} window sizes")
        for w in self.window_sizes:
            if w < 1 or w % 2 == 0:
                raise ConfigError(f"window sizes must be odd and positive, got {w}")
        if any(a <= b for a, b in zip(self.window_sizes, self.window_sizes[1:])):
            raise ConfigError(f"window sizes must strictly decrease, got {self.window_sizes}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lambda must be finite and non-negative, got {self.lam}")
        if not self.low_channels or not self.seg_channels:
            raise ConfigError("low_channels and seg_channels must be non-empty")
        if min(*self.input_size, *(v for ws in self.low_channels for v in ws),
               *self.seg_channels) < 1:
            raise ConfigError("input size, channel widths and strides must be positive")
        s = self.dml_extra_stride
        if s < 1 or s & (s - 1):
            raise ConfigError(f"dml_extra_stride must be a power of two, got {s}")
        if 2 ** len(self.seg_channels) < s:
            raise ConfigError(f"extra stride {self.dml_extra_stride} needs more than "
                              f"{len(self.seg_channels)} head stages")
        h, w = self.input_size
        if h % self.s_dml or w % self.s_dml:
            raise ConfigError(f"input {h}x{w} not divisible by total stride {self.s_dml}")
        # from any cell a window of 2G+1 spans a G-cell grid: a wider one adds nothing
        limit = 2 * max(self.dml_grid) + 1
        if any(w > limit for w in self.window_sizes):
            fit = ",".join(map(str, range(limit, 0, -2)[:self.levels]))
            hint = (f"the largest windows that fit are {fit}" if limit // 2 + 1 >= self.levels
                    else f"at most {limit // 2 + 1} levels ({fit}) fit")
            raise ConfigError(f"window sizes must be at most {limit} on a "
                              f"{self.dml_grid[0]}x{self.dml_grid[1]} DML grid, "
                              f"got {self.window_sizes}; {hint}")

    @property
    def s_low(self) -> int:
        out = 1
        for _, s in self.low_channels:
            out *= s
        return out

    @property
    def s_dml(self) -> int:
        return self.s_low * self.dml_extra_stride

    @property
    def seg_grid(self) -> tuple[int, int]:
        return self.input_size[0] // self.s_low, self.input_size[1] // self.s_low

    @property
    def dml_grid(self) -> tuple[int, int]:
        return self.input_size[0] // self.s_dml, self.input_size[1] // self.s_dml

    def head_strides(self) -> tuple[int, ...]:
        """Per-stage stride plan of the multi-label heads: the extra stride
        as factors of two on the first stages, 1 afterwards."""
        remaining = self.dml_extra_stride
        factors = []
        for _ in self.seg_channels:
            if remaining > 1:
                factors.append(2)
                remaining //= 2
            else:
                factors.append(1)
        return tuple(factors)

    def seg_dilations(self) -> tuple[int, ...]:
        """Dilation schedule of the segmentation head: each withheld stride
        doubles the dilation of that stage and all later ones."""
        dils = []
        d = 1
        for f in self.head_strides():
            d *= f
            dils.append(d)
        return tuple(dils)


class ConvLayer:
    __slots__ = ("weight", "bias", "stride", "dilation", "padding", "act")

    def __init__(self, weight: Parameter, bias: Parameter, stride: int = 1,
                 dilation: int = 1, padding: int = 0, act: bool = True):
        self.weight = weight
        self.bias = bias
        self.stride = stride
        self.dilation = dilation
        self.padding = padding
        self.act = act

    def __call__(self, x: Tensor) -> Tensor:
        out = conv2d(x, self.weight.tensor, self.bias.tensor, stride=self.stride,
                     dilation=self.dilation, padding=self.padding)
        return relu(out) if self.act else out

    def describe(self, shape: tuple[int, int, int]) -> tuple[str, tuple[int, int, int]]:
        """The describe text of this layer on a (C, H, W) input, and its output shape."""
        cout, cin, k, _ = self.weight.tensor.shape
        eff = (k - 1) * self.dilation + 1
        h, w = ((n + 2 * self.padding - eff) // self.stride + 1 for n in shape[1:])
        return (f"conv {cin}->{cout} k{k} s{self.stride} d{self.dilation} p{self.padding}"
                f"{' relu' if self.act else ''} -> {cout}x{h}x{w}"), (cout, h, w)


class Op(NamedTuple):
    """A parameter-free step: `fn` of one tensor, which looks its op up when
    called (so a patched module global runs), its describe text, and the
    factor it scales the grid by (None: the describe line shows no shape)."""
    fn: Callable[[Tensor], Tensor]
    text: str
    grow: int | None = 1

    def __call__(self, x: Tensor) -> Tensor:
        return self.fn(x)

    def describe(self, shape: tuple[int, int, int]) -> tuple[str, tuple[int, int, int]]:
        c, h, w = shape[0], shape[1] * (self.grow or 1), shape[2] * (self.grow or 1)
        return self.text + (f" -> {c}x{h}x{w}" if self.grow else ""), (c, h, w)


DmlBlock = NamedTuple("DmlBlock", [("stage", list), ("proj", ConvLayer), ("adapt", ConvLayer)])


@dataclass
class NetworkOutput:
    s: Tensor
    m: list[Tensor]
    m_up: list[Tensor]
    p: Tensor

    def fusion_gap(self) -> float:
        """Max |p - (s + sum of m_up)| with the same left-to-right sum."""
        expect = self.s.data.copy()
        for t in self.m_up:
            expect += t.data
        return float(np.abs(self.p.data - expect).max())


class Model:
    def __init__(self, config: ModelConfig, params: dict[str, Parameter],
                 low: list[ConvLayer], seg: list[ConvLayer], seg_proj: ConvLayer,
                 dml: list[DmlBlock]):
        self.config = config
        self.params = params
        self.low = low
        self.seg = seg
        self.seg_proj = seg_proj
        self.dml = dml
        # (describe name, step) in the order `forward` runs them: the trunk,
        # then one path per head on top of it, the seg head's first
        self.trunk = [("center", Op(lambda x: shift(x, -0.5), "-0.5", None))]  # [0,1] centred
        self.trunk += [(f"low.{i}", layer) for i, layer in enumerate(low)]
        self.heads = [[(f"seg.{i}", layer) for i, layer in enumerate(seg)]
                      + [("seg.proj", seg_proj)]]
        s = config.dml_extra_stride
        up = Op(lambda x: upsample_nearest(x, s), f"x{s}", s)
        for j, (block, k) in enumerate(zip(dml, config.window_sizes), start=1):
            pool = Op(lambda x, k=k: maxpool2d(x, kernel=k, stride=1, padding=k // 2),
                      f"max k{k} s1 p{k // 2}")  # a k-wide window around each cell
            self.heads.append([(f"dml{j}.stage{i}", layer) for i, layer in enumerate(block.stage)]
                              + [(f"dml{j}.proj", block.proj), (f"dml{j}.pool", pool),
                                 (f"dml{j}.adapt", block.adapt), (f"dml{j}.up", up)])

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())


def _conv_param(params: dict[str, Parameter], name: str, c_out: int, c_in: int,
                k: int, seed: int, zero: bool = False) -> tuple[Parameter, Parameter]:
    if f"{name}.weight" in params:
        raise ConfigError(f"duplicate parameter name {name}.weight")
    if zero:
        data = np.zeros((c_out, c_in, k, k))
    else:
        rng = parameter_rng(seed, f"{name}.weight")
        std = math.sqrt(2.0 / (c_in * k * k))
        data = rng.normal(0.0, std, size=(c_out, c_in, k, k))
    weight = Parameter(f"{name}.weight", data)
    bias = Parameter(f"{name}.bias", np.zeros((1, c_out, 1, 1)))
    params[weight.name] = weight
    params[bias.name] = bias
    return weight, bias


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    """Instantiate all blocks with fan-in scaled Gaussian weights.

    Initialization is keyed per parameter name, so variants that share a
    sub-block (e.g. different level counts) start from identical weights
    there for the same seed.
    """
    params: dict[str, Parameter] = {}
    k_cls = config.num_classes

    low = []
    c_in = 3
    for i, (width, stride) in enumerate(config.low_channels):
        w, b = _conv_param(params, f"low.{i}", width, c_in, 3, seed)
        low.append(ConvLayer(w, b, stride=stride, padding=1))
        c_in = width
    trunk_ch = c_in

    seg = []
    c_in = trunk_ch
    for i, (width, dil) in enumerate(zip(config.seg_channels, config.seg_dilations())):
        w, b = _conv_param(params, f"seg.{i}", width, c_in, 3, seed)
        seg.append(ConvLayer(w, b, dilation=dil, padding=dil))
        c_in = width
    w, b = _conv_param(params, "seg.proj", k_cls, c_in, 1, seed)
    seg_proj = ConvLayer(w, b, act=False)

    dml = []
    strides = config.head_strides()
    for j in range(config.levels):
        tag = f"dml{j + 1}"
        stage = []
        c_in = trunk_ch
        for i, width in enumerate(config.seg_channels):
            w, b = _conv_param(params, f"{tag}.stage{i}", width, c_in, 3, seed)
            stage.append(ConvLayer(w, b, stride=strides[i], padding=1))
            c_in = width
        w, b = _conv_param(params, f"{tag}.proj", k_cls, c_in, 1, seed)
        proj = ConvLayer(w, b, act=False)
        # zero start: the fused prediction begins exactly at the plain
        # segmentation output and the pooled scores fade in as they train
        w, b = _conv_param(params, f"{tag}.adapt", k_cls, k_cls, 1, seed, zero=True)
        adapt = ConvLayer(w, b, act=False)
        dml.append(DmlBlock(stage, proj, adapt))

    return Model(config, params, low, seg, seg_proj, dml)


def _resume(memo: dict | None, steps: list, given) -> tuple[Tensor, Tensor]:
    """The input and the output of the last of `steps`, (describe name,
    step) pairs applied in order to the input `given()` returns.  With a
    memo, start from the output of the last step named there (the steps
    stored are a prefix of `steps`, as `forward` fills a memo), and store
    every output computed; without one, store nothing, so each intermediate
    is freed once the next is made."""
    i = 0 if memo is None else len(steps)
    while i and steps[i - 1][0] not in memo:
        i -= 1
    x = memo[steps[i - 1][0]] if i else given()
    if i == len(steps):  # nothing to run
        return (memo[steps[i - 2][0]] if i > 1 else given()), x
    for key, step in steps[i:]:
        prev, x = x, step(x)
        if memo is not None:
            memo[key] = x
    return prev, x


def forward(model: Model, image: Tensor, memo: dict | None = None) -> NetworkOutput:
    """Run the network; p is always the elementwise sum of the head outputs.

    `memo`, when given, holds every step's output under its describe name
    (`center`, `low.i`, `seg.i`, `seg.proj`, and for head j from 1
    `dml{j}.stage{i}`, `.proj`, `.pool`, `.adapt` and `.up`), inserted as
    computed: in describe order from an empty dict.  Each path (the trunk,
    then one head) resumes after its last stored step, and the trunk is run
    only as far as a head that needs it asks.  An entry is valid only for
    the same image and the same parameters in it and every step before it
    on its path.  The fuse always runs left to right, so the result is
    bit-identical to a forward from an empty dict.  A reused output is not
    on the current tape, so no gradient reaches its layers.  A head's `m`
    is its output before `up`.
    """
    cfg = model.config
    n, c, h, w = image.data.shape
    if c != 3 or (h, w) != cfg.input_size:
        raise ConfigError(f"image shape {image.shape} does not match configured "
                          f"input (N, 3, {cfg.input_size[0]}, {cfg.input_size[1]})")
    trunk = []  # its output, once the first head that needs it has asked

    def o() -> Tensor:
        if not trunk:
            trunk.append(_resume(memo, model.trunk, lambda: image)[1])
        return trunk[0]

    s = _resume(memo, model.heads[0], o)[1]
    m, m_up = [], []
    for path in model.heads[1:]:
        before_up, out = _resume(memo, path, o)
        m.append(before_up)
        m_up.append(out)
    return NetworkOutput(s=s, m=m, m_up=m_up, p=elementwise_sum([s] + m_up))


def predict_labels(p, full_size: tuple[int, int]) -> np.ndarray:
    """Per-pixel argmax (ties to the lowest class), replicated up to the
    requested resolution."""
    data = p.data if isinstance(p, Tensor) else np.asarray(p)
    labels = np.argmax(data, axis=1).astype(np.uint8)
    fh, fw = full_size
    n, h, w = labels.shape
    if fh % h or fw % w:
        raise ConfigError(f"full size {full_size} not a multiple of grid {h}x{w}")
    return np.repeat(np.repeat(labels, fh // h, axis=1), fw // w, axis=2)


def describe(model: Model) -> str:
    """Plain-text layer inventory with shapes and strides, for golden-file
    comparison: the input, one line per step of the trunk and of each head
    path, and the fuse."""
    c, h, w = shape = (3, *model.config.input_size)
    lines = [f"input {c}x{h}x{w}"]

    def walk(steps, shape):
        for name, step in steps:
            text, shape = step.describe(shape)
            lines.append(f"{name} {text}")
        return shape

    trunk = walk(model.trunk, shape)
    (c, h, w), *_ = [walk(path, trunk) for path in model.heads]  # the seg head's
    lines.append(f"fuse sum -> {c}x{h}x{w}")
    return "\n".join(lines) + "\n"
