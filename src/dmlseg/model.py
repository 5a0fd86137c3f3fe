"""Network assembly: shared low-level stack, a dilated segmentation head,
and per-level dense multi-label heads whose pooled scores are fused into
the final prediction by elementwise sum.

The segmentation head keeps the backbone resolution by trading stride for
dilation; each multi-label head applies the extra stride for real, pools
class scores over its window, and is upsampled back before fusion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
            raise ConfigError(f"window sizes must be at most {limit} on a "
                              f"{self.dml_grid[0]}x{self.dml_grid[1]} DML grid, "
                              f"got {self.window_sizes}")

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


class DmlBlock:
    __slots__ = ("stage", "proj", "window", "adapt", "up")

    def __init__(self, stage: list[ConvLayer], proj: ConvLayer, window: int,
                 adapt: ConvLayer, up: int):
        self.stage = stage
        self.proj = proj
        self.window = window
        self.adapt = adapt
        self.up = up

    def pool(self, t: Tensor) -> Tensor:
        """The proj of the last stage's output, max-pooled over the window."""
        return maxpool2d(self.proj(t), kernel=self.window, stride=1,
                         padding=(self.window - 1) // 2)

    def scores(self, t: Tensor) -> tuple[Tensor, Tensor]:
        """The adapted pooled scores m and their upsampling m_up."""
        m = self.adapt(t)
        return m, upsample_nearest(m, self.up)


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
        # (describe name, layer) in the order `forward` runs them: the trunk,
        # then one path per head on top of it, the seg head's first
        self.trunk = [("center", lambda x: shift(x, -0.5))]  # [0,1] inputs centred
        self.trunk += [(f"low.{i}", layer) for i, layer in enumerate(low)]
        self.heads = [[(f"seg.{i}", layer) for i, layer in enumerate(seg)]
                      + [("seg.proj", seg_proj)]]
        for j, block in enumerate(dml, start=1):
            self.heads.append([(f"dml{j}.stage{i}", layer) for i, layer in enumerate(block.stage)]
                              + [(f"dml{j}.pool", block.pool), (f"dml{j}", block.scores)])

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
        dml.append(DmlBlock(stage, proj, config.window_sizes[j], adapt,
                            config.dml_extra_stride))

    return Model(config, params, low, seg, seg_proj, dml)


def _resume(memo: dict | None, steps: list, given):
    """The output of `steps`, (memo key, function) pairs applied in order to
    the input `given()` returns.  With a memo, start from the output of the
    last step whose key is there, and store every output computed; without
    one, store nothing, so each intermediate is freed once the next is made."""
    start = 0
    if memo is not None:
        for i in range(len(steps), 0, -1):
            if steps[i - 1][0] in memo:
                start = i
                break
    x = memo[steps[start - 1][0]] if start else given()
    for key, fn in steps[start:]:
        x = fn(x)
        if memo is not None:
            memo[key] = x
    return x


def forward(model: Model, image: Tensor, memo: dict | None = None) -> NetworkOutput:
    """Run the network; p is always the elementwise sum of the head outputs.

    `memo`, when given, holds every layer output under its describe name:
    `center`, `low.i`, `seg.i`, `seg.proj`, `dml{j}.stage{i}`, `dml{j}.pool`
    (head j's proj, pooled) and `dml{j}` (head j's `(m, m_up)` pair, j from
    1), inserted in the order they are computed.  Each path (the trunk, then
    one head) resumes after its last stored layer, and the trunk is run only
    as far as a head that needs it asks.  An entry is valid only for the same
    image and the same parameters in it and every layer before it on its
    path.  The fuse always runs left to right, so the result is bit-identical
    to a forward from an empty dict.  A reused output is not on the current
    tape, so no gradient reaches its layers.
    """
    cfg = model.config
    n, c, h, w = image.shape
    if c != 3 or (h, w) != cfg.input_size:
        raise ConfigError(f"image shape {image.shape} does not match configured "
                          f"input (N, 3, {cfg.input_size[0]}, {cfg.input_size[1]})")

    o = functools.cache(lambda: _resume(memo, model.trunk, lambda: image))
    s, *heads = [_resume(memo, path, o) for path in model.heads]
    m_up = [up for _, up in heads]
    return NetworkOutput(s=s, m=[m for m, _ in heads], m_up=m_up,
                         p=elementwise_sum([s] + m_up))


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
    comparison."""
    cfg = model.config
    h, w = cfg.input_size
    lines = [f"input 3x{h}x{w}", "center -0.5"]

    def emit(name: str, layer: ConvLayer, h: int, w: int) -> tuple[int, int]:
        cout, cin, k, _ = layer.weight.tensor.shape
        eff = (k - 1) * layer.dilation + 1
        h = (h + 2 * layer.padding - eff) // layer.stride + 1
        w = (w + 2 * layer.padding - eff) // layer.stride + 1
        lines.append(f"{name} conv {cin}->{cout} k{k} s{layer.stride} d{layer.dilation} "
                     f"p{layer.padding}{' relu' if layer.act else ''} -> {cout}x{h}x{w}")
        return h, w

    for i, layer in enumerate(model.low):
        h, w = emit(f"low.{i}", layer, h, w)
    sh, sw = h, w
    for i, layer in enumerate(model.seg):
        sh, sw = emit(f"seg.{i}", layer, sh, sw)
    sh, sw = emit("seg.proj", model.seg_proj, sh, sw)
    for j, block in enumerate(model.dml):
        bh, bw = h, w
        for i, layer in enumerate(block.stage):
            bh, bw = emit(f"dml{j + 1}.stage{i}", layer, bh, bw)
        bh, bw = emit(f"dml{j + 1}.proj", block.proj, bh, bw)
        lines.append(f"dml{j + 1}.pool max k{block.window} s1 p{(block.window - 1) // 2} "
                     f"-> {cfg.num_classes}x{bh}x{bw}")
        bh, bw = emit(f"dml{j + 1}.adapt", block.adapt, bh, bw)
        lines.append(f"dml{j + 1}.up x{cfg.dml_extra_stride} "
                     f"-> {cfg.num_classes}x{bh * cfg.dml_extra_stride}x{bw * cfg.dml_extra_stride}")
    lines.append(f"fuse sum -> {cfg.num_classes}x{sh}x{sw}")
    return "\n".join(lines) + "\n"
