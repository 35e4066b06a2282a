"""A small time-domain vocal separation network.

The model is a mirror-symmetric 1D convolutional encoder/decoder. Each
encoder level applies a same-padded conv, LeakyReLU(0.3), then keeps every
second sample; a bottleneck conv sits at the coarsest resolution; each
decoder level doubles the time axis by linear interpolation, concatenates
the matching encoder activation, and applies another conv + LeakyReLU.
A final kernel-1 conv with tanh produces the vocal estimate in [-1, 1],
and the accompaniment estimate is the input mixture minus the vocals, so
the two always sum back to the mixture sample-for-sample.

Forward and backward passes are written directly in numpy on one layout:
B windows of C channels and T samples form a channel-major (C, B, T + 2P)
buffer, each window between P zero columns, P = (largest kernel - 1) / 2.
Flat, a conv of half-width p <= P is a sum over taps of W[:, :, k] @
x[:, j - p + k] for all columns j at once, so its output lands in its input's
columns and no tap crosses a gap; the input gradient is the same sum with
transposed taps, so backward returns exact gradients. The forward cache
keeps each conv's (C, B, T) activation only; both passes rebuild a conv's
gapped input from it (ForwardCache.conv_input). Backward reads the LeakyReLU
slope off an activation (act > 0 exactly when pre > 0), then releases it.
"""

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .energy import FilterBank
from .errors import ConsumedCache, CorruptHeader, IncompatibleShape, InvalidConfig, ShapeMismatch, check_fields
from .fileio import write_atomic

LEAKY_SLOPE = 0.3

# Columns per block of a conv's tap sum.
_BLOCK = 4096

GROWTH_MODES = ("double", "add_base")

_MAGIC = b"HSEP1"


@dataclass(frozen=True)
class NetConfig:
    """Architecture hyperparameters.

    growth controls how channel counts increase with depth: "double"
    doubles per level, "add_base" adds base_features per level. The
    bottleneck conv continues the progression one step past the last
    encoder level. input_len must be divisible by 2**depth so every
    decimation is exact.
    """

    depth: int = 4
    down_kernel: int = 15
    up_kernel: int = 5
    base_features: int = 24
    growth: str = "double"
    input_len: int = 16384
    sample_rate: int = 8000
    seed: int = 0
    bottleneck_own_layer: bool = False

    def __post_init__(self):
        check_fields(self, depth=1, down_kernel=1, up_kernel=1, base_features=1, growth=GROWTH_MODES, input_len=1,
                     sample_rate=1, seed=0)
        if self.down_kernel % 2 == 0 or self.up_kernel % 2 == 0:
            raise InvalidConfig(f"kernels must be odd, got down_kernel={self.down_kernel}, up_kernel={self.up_kernel}")
        if self.input_len % (2**self.depth) != 0:
            raise InvalidConfig(f"input_len must be a multiple of 2**depth = {2**self.depth}, got {self.input_len}")

    def feature_counts(self) -> list[int]:
        """Output channels of encoder levels 1..depth."""
        if self.growth == "double":
            return [self.base_features * 2**lvl for lvl in range(self.depth)]
        return [self.base_features * (lvl + 1) for lvl in range(self.depth)]

    def bottleneck_features(self) -> int:
        if self.growth == "double":
            return self.base_features * 2**self.depth
        return self.base_features * (self.depth + 1)


@dataclass
class ConvLayer:
    """One convolution with its role in the network.

    role is "down", "bottleneck", "up", or "output"; level is the 1-based
    resolution level for down/up layers and 0 otherwise. weights has shape
    (out_channels, in_channels, kernel).
    """

    role: str
    level: int
    weights: np.ndarray
    bias: np.ndarray


@dataclass
class SepNet:
    config: NetConfig
    layers: list[ConvLayer]

    def parameters(self) -> list[np.ndarray]:
        """Live weight/bias arrays, interleaved in layer order."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def clone(self) -> "SepNet":
        return SepNet(
            self.config,
            [ConvLayer(l.role, l.level, l.weights.copy(), l.bias.copy()) for l in self.layers],
        )


@dataclass
class SepOutput:
    """Separated sources for one mixture window."""

    vocals: np.ndarray
    accompaniment: np.ndarray


@dataclass
class ForwardCache:
    """A batch's mixtures, its gap width, and the (C, B, T) output of every conv so far, None once backward read it."""

    layers: list[ConvLayer]
    mixtures: np.ndarray
    pad: int
    activations: list[np.ndarray | None] = field(default_factory=list)

    def conv_input(self, idx: int) -> np.ndarray:
        """Conv idx's input as a gapped (C_in, B, T + 2 * pad) buffer; level l's skip is conv l - 1."""
        prev = self.mixtures[None] if idx == 0 else self.activations[idx - 1]
        if idx and self.layers[idx - 1].role == "down":
            prev = prev[:, :, ::2]
        layer, (c, batch, t) = self.layers[idx], prev.shape
        if layer.role != "up":
            xs = np.zeros((c, batch, t + 2 * self.pad))
            _window(xs, self.pad)[:] = prev
            return xs
        skip = self.activations[layer.level - 1]
        xs = np.zeros((c + len(skip), batch, 2 * t + 2 * self.pad))
        _upsample(prev, _window(xs, self.pad)[:c])
        _window(xs, self.pad)[c:] = skip
        return xs

    @property
    def conv_inputs(self) -> list[np.ndarray]:
        """Every conv's input as one (B, C_in, T) array, built on demand."""
        return [_window(self.conv_input(i), self.pad).transpose(1, 0, 2) for i in range(len(self.activations))]

    @property
    def vocals(self) -> np.ndarray:
        if self.activations[-1] is None:
            raise ConsumedCache("this forward cache was already consumed by backward_batch")
        return self.activations[-1][0]


def _layer_plan(config: NetConfig) -> list[tuple[str, int, int, int, int]]:
    """(role, level, in_channels, out_channels, kernel) for every conv, in order."""
    features = config.feature_counts()
    plan = []
    prev = 1
    for lvl, f in enumerate(features, start=1):
        plan.append(("down", lvl, prev, f, config.down_kernel))
        prev = f
    plan.append(("bottleneck", 0, features[-1], config.bottleneck_features(), config.down_kernel))
    prev = config.bottleneck_features()
    for lvl in range(config.depth, 0, -1):
        f = features[lvl - 1]
        plan.append(("up", lvl, prev + f, f, config.up_kernel))
        prev = f
    plan.append(("output", 0, features[0], 1, 1))
    return plan


def init_net(config: NetConfig) -> SepNet:
    """Build a network with uniform Glorot weights and zero biases.

    Draw order follows the layer plan, so a given (config, seed) always
    produces bit-identical parameters.
    """
    rng = np.random.default_rng(config.seed)
    layers = []
    for role, level, c_in, c_out, kernel in _layer_plan(config):
        fan_in = c_in * kernel
        fan_out = c_out * kernel
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-bound, bound, size=(c_out, c_in, kernel))
        layers.append(ConvLayer(role, level, weights, np.zeros(c_out)))
    return SepNet(config, layers)


def _window(xs: np.ndarray, pad: int) -> np.ndarray:
    """The (C, B, T) window columns of a gapped (C, B, T + 2 * pad) buffer."""
    return xs[:, :, pad : xs.shape[2] - pad]


def _shifted_sum(out: np.ndarray, taps: np.ndarray, xs: np.ndarray, shifts: list[int], pad: int, bias=None) -> None:
    """out[:, j] = sum_k taps[k] @ xs[:, j + shifts[k]] (+ bias) for the flat columns j between the
    outer pads, one column block at a time. With fewer input rows than output rows a block's shifted
    copies are stacked into one product; otherwise each tap's product is added in turn."""
    kernel, rows, c = taps.shape
    n, stack = xs.shape[1] - 2 * pad, c < rows
    wide = taps.transpose(1, 0, 2).reshape(rows, kernel * c) if stack else None
    buf = np.empty((kernel * c if stack else rows, min(n, _BLOCK)))
    for c0 in range(pad, pad + n, _BLOCK):
        c1 = min(c0 + _BLOCK, pad + n)
        acc, part = out[:, c0:c1], buf[:, : c1 - c0]
        if stack:
            for k, s in enumerate(shifts):
                part[k * c : (k + 1) * c] = xs[:, c0 + s : c1 + s]
            np.matmul(wide, part, out=acc)
        else:
            np.matmul(taps[0], xs[:, c0 + shifts[0] : c1 + shifts[0]], out=acc)
            for a, s in zip(taps[1:], shifts[1:]):
                np.matmul(a, xs[:, c0 + s : c1 + s], out=part)
                acc += part
        if bias is not None:
            acc += bias[:, None]


def _conv_forward(xs: np.ndarray, weights: np.ndarray, bias: np.ndarray, pad: int) -> np.ndarray:
    """Same-padded 1D conv of a gapped (C_in, B, T + 2 * pad) buffer, pad >= (K - 1) / 2, into a
    new buffer of that layout; only its window columns are defined."""
    c_out, c_in, kernel = weights.shape
    p = (kernel - 1) // 2
    ys = np.empty((c_out,) + xs.shape[1:])
    taps = weights.transpose(2, 0, 1).copy()
    _shifted_sum(ys.reshape(c_out, -1), taps, xs.reshape(c_in, -1), [k - p for k in range(kernel)], pad, bias)
    return ys


def _conv_param_grads(xs: np.ndarray, weights: np.ndarray, ds: np.ndarray, pad: int) -> tuple[np.ndarray, ...]:
    """(d_weights, d_bias) of _conv_forward given d_out in a gapped buffer with zero gaps."""
    c_out, c_in, kernel = weights.shape
    p = (kernel - 1) // 2
    x2, d2 = xs.reshape(c_in, -1), ds.reshape(c_out, -1)
    n = x2.shape[1] - 2 * pad
    # Output column j reads input columns j - p .. j + p; the zero gap
    # columns of ds keep every window's gradient out of its neighbours.
    d_weights = np.empty((kernel, c_out, c_in))
    for k in range(kernel):
        np.matmul(d2[:, pad : pad + n], x2[:, pad - p + k : pad - p + k + n].T, out=d_weights[k])
    # Window by window, as numpy sums a (B, C_out, T) array over (0, 2).
    d_bias = sum(d.sum(axis=1) for d in _window(ds, pad).transpose(1, 0, 2))
    return np.ascontiguousarray(d_weights.transpose(1, 2, 0)), d_bias


def _conv_input_grad(xs: np.ndarray, weights: np.ndarray, ds: np.ndarray, pad: int) -> np.ndarray:
    """d_input of _conv_forward, the exact adjoint of its sum over taps, written over xs once
    _conv_param_grads has read it; only its window columns are defined."""
    c_out, c_in, kernel = weights.shape
    taps, p = weights.transpose(2, 1, 0).copy(), (kernel - 1) // 2
    _shifted_sum(xs.reshape(c_in, -1), taps, ds.reshape(c_out, -1), [p - k for k in range(kernel)], pad)
    return xs


def _leaky(x: np.ndarray) -> np.ndarray:
    """max(x, slope * x): the same values as x > 0 ? x : slope * x, and act > 0 exactly when x > 0."""
    act = x * LEAKY_SLOPE
    return np.maximum(x, act, out=act)


def _upsample(x: np.ndarray, out: np.ndarray) -> None:
    """Double the time axis into out: samples at even slots, neighbour midpoints at odd ones, the last repeated."""
    out[..., 0::2] = x
    mid = np.add(x[..., :-1], x[..., 1:], out=out[..., 1:-1:2])
    mid *= 0.5
    out[..., -1] = x[..., -1]


def _upsample_backward(d_out: np.ndarray, out: np.ndarray) -> None:
    """Adjoint of _upsample into out; halves d_out's odd columns in place."""
    d_even, d_odd = d_out[..., 0::2], d_out[..., 1::2]
    d_odd[..., :-1] *= 0.5
    np.add(d_even, d_odd, out=out)
    out[..., -1] = d_even[..., -1]
    out[..., 1:] += d_odd[..., :-1]
    out[..., -1] += d_odd[..., -1]


def forward_batch(net: SepNet, mixtures: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a (B, input_len) batch; returns vocal estimates and the cache."""
    mixtures = np.asarray(mixtures, dtype=np.float64)
    if mixtures.ndim != 2 or mixtures.shape[1] != net.config.input_len:
        raise ShapeMismatch(f"expected batch shape (B, {net.config.input_len}), got {mixtures.shape}")
    pad = (max(net.config.down_kernel, net.config.up_kernel) - 1) // 2
    cache = ForwardCache(net.layers, mixtures, pad)
    for idx, layer in enumerate(net.layers):
        pre = _window(_conv_forward(cache.conv_input(idx), layer.weights, layer.bias, pad), pad)
        cache.activations.append(np.tanh(pre) if layer.role == "output" else _leaky(pre))
    return cache.vocals, cache


def backward_batch(net: SepNet, cache: ForwardCache, d_vocals: np.ndarray) -> list[np.ndarray]:
    """Exact parameter gradients given d(loss)/d(vocals) for the cached batch, interleaved as [d_weights,
    d_bias, ...] in net.parameters() order. Consumes the cache: reusing it raises ConsumedCache."""
    d_vocals = np.asarray(d_vocals, dtype=np.float64)
    if d_vocals.shape != cache.vocals.shape:
        raise ShapeMismatch(f"d_vocals shape {d_vocals.shape} does not match cached vocals {cache.vocals.shape}")
    pad, acts = cache.pad, cache.activations
    grads: list[np.ndarray | None] = [None] * (2 * len(net.layers))
    # d(loss)/d(output) of each conv in a zero-gapped buffer, made when its first part arrives.
    d_outs: list[np.ndarray | None] = [None] * len(acts)

    def d_out(i: int) -> np.ndarray:
        if d_outs[i] is None:
            d_outs[i] = np.zeros(acts[i].shape[:2] + (acts[i].shape[2] + 2 * pad,))
        return _window(d_outs[i], pad)

    np.multiply(d_vocals, 1.0 - cache.vocals**2, out=d_out(len(acts) - 1)[0])
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        if layer.role != "output":
            # act > 0 exactly when pre > 0, so the LeakyReLU slope reads off act, a channel at a time.
            for d, act in zip(d_out(idx), acts[idx]):
                row = (act > 0).astype(np.float64)
                d *= np.maximum(row, LEAKY_SLOPE, out=row)
            del d, act, row  # the loop's views would keep the activation and ds alive
        acts[idx] = None  # the convs that read it as input or skip have run backward already
        ds, d_outs[idx] = d_outs[idx], None
        xs = cache.conv_input(idx)
        grads[2 * idx], grads[2 * idx + 1] = _conv_param_grads(xs, layer.weights, ds, pad)
        if idx == 0:
            break  # nothing reads the mixture's gradient
        d_in = _window(_conv_input_grad(xs, layer.weights, ds, pad), pad)
        if layer.role == "up":
            # The input blocks are [upsampled_below, skip]; the skip has C_out channels.
            below = layer.weights.shape[1] - layer.weights.shape[0]
            d_out(layer.level - 1)[:] = d_in[below:]
            _upsample_backward(d_in[:below], d_out(idx - 1))
        else:  # the previous activation, decimated after a down conv
            d_out(idx - 1)[:, :, :: 2 if net.layers[idx - 1].role == "down" else 1] += d_in
        del xs, ds, d_in  # before the next conv's input is built
    return grads  # type: ignore[return-value]


def forward(net: SepNet, mixture: np.ndarray) -> SepOutput:
    """Separate one mixture window of exactly config.input_len samples."""
    mixture = np.asarray(mixture, dtype=np.float64)
    if mixture.ndim != 1:
        raise ShapeMismatch(f"mixture must be 1-D, got shape {mixture.shape}")
    v = forward_batch(net, mixture[None, :])[0][0]
    return SepOutput(v, mixture - v)


def collect_filter_banks(net: SepNet) -> list[FilterBank]:
    """Hidden-layer conv weights flattened to (out_channels, in_channels * kernel).

    Down and up convs always count as hidden; the bottleneck conv counts
    only when the config marks it as its own layer; the kernel-1 output
    conv never does. Each bank's layer_id is the conv's index in
    net.layers, and its weights are a reshape view of the live parameter
    array.
    """
    banks = []
    for idx, layer in enumerate(net.layers):
        if layer.role in ("down", "up") or (layer.role == "bottleneck" and net.config.bottleneck_own_layer):
            c_out = layer.weights.shape[0]
            banks.append(FilterBank(layer.weights.reshape(c_out, -1), layer_id=idx))
    return banks


def separate_signal(net: SepNet, mixture: np.ndarray, batch_size: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Separate an arbitrary-length mono signal window by window.

    The signal is processed in consecutive config.input_len windows, the
    tail zero-padded and cropped back. Accompaniment is mixture - vocals
    over the whole signal.
    """
    if isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
        raise InvalidConfig(f"batch_size must be an int >= 1, got {batch_size!r}")
    mixture = np.asarray(mixture, dtype=np.float64)
    if mixture.ndim != 1 or mixture.size == 0:
        raise ShapeMismatch(f"mixture must be a non-empty 1-D signal, got shape {mixture.shape}")
    win, total = net.config.input_len, mixture.size
    windows = np.zeros(-(-total // win) * win)
    windows[:total] = mixture
    windows = windows.reshape(-1, win)
    parts = [forward_batch(net, windows[start : start + batch_size])[0] for start in range(0, len(windows), batch_size)]
    vocals = np.concatenate(parts).reshape(-1)[:total]
    return vocals, mixture - vocals


def save_checkpoint(net: SepNet, path) -> None:
    """Write config plus float64 parameters; loading restores them bit-exactly."""
    header = {
        "format_version": 1,
        "config": asdict(net.config),
        "layers": [
            {
                "role": l.role,
                "level": l.level,
                "out_channels": int(l.weights.shape[0]),
                "in_channels": int(l.weights.shape[1]),
                "kernel": int(l.weights.shape[2]),
            }
            for l in net.layers
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    params = [np.ascontiguousarray(p, dtype="<f8").tobytes() for p in net.parameters()]
    write_atomic(path, b"".join([_MAGIC, struct.pack("<I", len(blob)), blob, *params]))


def load_checkpoint(path) -> SepNet:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 4 or data[: len(_MAGIC)] != _MAGIC:
        raise CorruptHeader(f"{path}: not a checkpoint (bad magic)")
    offset = len(_MAGIC)
    (header_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if offset + header_len > len(data):
        raise CorruptHeader(f"{path}: truncated header")
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
        config = NetConfig(**header["config"])
        stored = header["layers"]
        if not isinstance(stored, list) or not all(isinstance(meta, dict) for meta in stored):
            raise TypeError(f"'layers' must be a list of objects, got {stored!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptHeader(f"{path}: unreadable header ({exc})") from exc
    offset += header_len
    plan = _layer_plan(config)
    if len(stored) != len(plan):
        raise IncompatibleShape(f"{path}: header lists {len(stored)} layers, config implies {len(plan)}")
    layers = []
    for meta, (role, level, c_in, c_out, kernel) in zip(stored, plan):
        shape = (meta.get("out_channels"), meta.get("in_channels"), meta.get("kernel"))
        if meta.get("role") != role or shape != (c_out, c_in, kernel):
            raise IncompatibleShape(f"{path}: stored layer {meta} does not match plan {role}/{shape}")
        w_bytes = c_out * c_in * kernel * 8
        if offset + w_bytes + c_out * 8 > len(data):
            raise CorruptHeader(f"{path}: parameter block truncated")
        weights = np.frombuffer(data, dtype="<f8", count=c_out * c_in * kernel, offset=offset)
        offset += w_bytes
        bias = np.frombuffer(data, dtype="<f8", count=c_out, offset=offset)
        offset += c_out * 8
        layers.append(ConvLayer(role, level, weights.reshape(c_out, c_in, kernel).copy(), bias.copy()))
    if offset != len(data):
        raise CorruptHeader(f"{path}: {len(data) - offset} trailing bytes after parameters")
    return SepNet(config, layers)
