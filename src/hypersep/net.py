"""A small time-domain vocal separation network.

The model is a mirror-symmetric 1D convolutional encoder/decoder. Each
encoder level applies a same-padded conv, LeakyReLU(0.3), then keeps every
second sample; a bottleneck conv sits at the coarsest resolution; each
decoder level doubles the time axis by linear interpolation, concatenates
the matching encoder activation, and applies another conv + LeakyReLU.
A final kernel-1 conv with tanh produces the vocal estimate in [-1, 1],
and the accompaniment estimate is the input mixture minus the vocals, so
the two always sum back to the mixture sample-for-sample.

Forward and backward passes are written directly in numpy. A batch of
windows is laid out end to end along one time axis, each window between
its own zero gap columns, and a conv is a sum over its taps of one matrix
product each: W[:, :, k] @ x[:, k:k+n]. The same per-tap products give
the weight and input gradients, so the backward pass returns exact
gradients of any scalar loss given its derivative with respect to the
vocal output.

The forward cache holds only each conv's output activation; both passes
rebuild a conv's input from it with ForwardCache.conv_input, as channel
blocks that go straight into their rows of the gapped layout, and backward
reads the LeakyReLU slope off the activation (act > 0 exactly when pre > 0).
"""

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .energy import FilterBank
from .errors import CorruptHeader, IncompatibleShape, InvalidConfig, ShapeMismatch, check_fields
from .fileio import write_atomic

LEAKY_SLOPE = 0.3

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
    """A batch's mixtures and the output activation of every conv so far."""

    layers: list[ConvLayer]
    mixtures: np.ndarray
    activations: list[np.ndarray] = field(default_factory=list)

    def conv_input(self, idx: int) -> list[np.ndarray]:
        """Conv idx's input as (B, C_i, T) channel blocks; level l's skip is conv l - 1."""
        if idx == 0:
            return [self.mixtures[:, None, :]]
        prev = self.activations[idx - 1]
        if self.layers[idx - 1].role == "down":
            prev = prev[:, :, ::2]
        layer = self.layers[idx]
        if layer.role == "up":
            return [_upsample(prev), self.activations[layer.level - 1]]
        return [prev]

    @property
    def conv_inputs(self) -> list[np.ndarray]:
        """Every conv's input as one array, concatenated on demand."""
        return [np.concatenate(self.conv_input(i), axis=1) for i in range(len(self.activations))]

    @property
    def vocals(self) -> np.ndarray:
        return self.activations[-1][:, 0, :]


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


def _gapped(blocks: list[np.ndarray], pad: int) -> np.ndarray:
    """Lay (B, C_i, T) channel blocks out as (sum C_i, B * (T + 2 * pad)): each
    block in its own rows, windows end to end between pad zero columns."""
    batch, _, t = blocks[0].shape
    xs = np.zeros((sum(b.shape[1] for b in blocks), batch, t + 2 * pad))
    row = 0
    for block in blocks:
        xs[row : row + block.shape[1], :, pad : pad + t] = block.transpose(1, 0, 2)
        row += block.shape[1]
    return xs.reshape(row, -1)


def _conv_forward(x: list[np.ndarray], weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded 1D convolution of (B, C_i, T) channel blocks -> (B, C_out, T)."""
    batch, _, t = x[0].shape
    c_out, _, kernel = weights.shape
    pad = (kernel - 1) // 2
    xs = _gapped(x, pad)
    n = xs.shape[1] - 2 * pad
    y = np.empty((c_out, xs.shape[1]))
    np.matmul(weights[:, :, 0], xs[:, :n], out=y[:, :n])
    tap = np.empty((c_out, n))
    for k in range(1, kernel):
        np.matmul(weights[:, :, k], xs[:, k : k + n], out=tap)
        y[:, :n] += tap
    y[:, :n] += bias[:, None]
    return y.reshape(c_out, batch, -1)[:, :, :t].transpose(1, 0, 2)


def _conv_backward(
    x: list[np.ndarray], weights: np.ndarray, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a same-padded conv of channel blocks: (d_weights, d_bias, d_input)."""
    batch, _, t = d_out.shape
    c_out, c_in, kernel = weights.shape
    pad = (kernel - 1) // 2
    xs = _gapped(x, pad)
    n = xs.shape[1] - 2 * pad
    # Output column j of the gapped layout reads input columns j .. j+K-1;
    # d_out sits in the same columns as the forward output, with zeros in
    # the gap columns, so no window's gradient reaches its neighbour.
    ds = _gapped([d_out], pad)[:, pad : pad + n]
    d_weights = np.empty((kernel, c_out, c_in))
    for k in range(kernel):
        np.matmul(ds, xs[:, k : k + n].T, out=d_weights[k])
    d_bias = d_out.sum(axis=(0, 2))
    # d_input is the exact adjoint of the forward sum over taps.
    dxs = np.empty_like(xs)
    np.matmul(weights[:, :, 0].T, ds, out=dxs[:, :n])
    dxs[:, n:] = 0.0
    tap = np.empty((c_in, n))
    for k in range(1, kernel):
        np.matmul(weights[:, :, k].T, ds, out=tap)
        dxs[:, k : k + n] += tap
    d_input = dxs.reshape(c_in, batch, -1)[:, :, pad : pad + t].transpose(1, 0, 2)
    return np.ascontiguousarray(d_weights.transpose(1, 2, 0)), d_bias, d_input


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def _upsample(x: np.ndarray) -> np.ndarray:
    """Double the time axis: kept samples at even slots, midpoints between
    neighbours at odd slots, last slot repeats the final sample."""
    b, c, t = x.shape
    y = np.empty((b, c, 2 * t))
    y[..., 0::2] = x
    y[..., 1:-1:2] = 0.5 * (x[..., :-1] + x[..., 1:])
    y[..., -1] = x[..., -1]
    return y


def _upsample_backward(d_out: np.ndarray) -> np.ndarray:
    d_odd = d_out[..., 1::2]
    dx = d_out[..., 0::2].copy()
    dx[..., :-1] += 0.5 * d_odd[..., :-1]
    dx[..., 1:] += 0.5 * d_odd[..., :-1]
    dx[..., -1] += d_odd[..., -1]
    return dx


def forward_batch(net: SepNet, mixtures: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a (B, input_len) batch; returns vocal estimates and the cache."""
    mixtures = np.asarray(mixtures, dtype=np.float64)
    if mixtures.ndim != 2 or mixtures.shape[1] != net.config.input_len:
        raise ShapeMismatch(
            f"expected batch shape (B, {net.config.input_len}), got {mixtures.shape}"
        )
    cache = ForwardCache(net.layers, mixtures)
    for idx, layer in enumerate(net.layers):
        pre = _conv_forward(cache.conv_input(idx), layer.weights, layer.bias)
        cache.activations.append(np.tanh(pre) if layer.role == "output" else _leaky(pre))
    return cache.vocals, cache


def backward_batch(net: SepNet, cache: ForwardCache, d_vocals: np.ndarray) -> list[np.ndarray]:
    """Exact parameter gradients given d(loss)/d(vocals) for the cached batch.

    Returns arrays interleaved as [d_weights, d_bias, ...] matching
    net.parameters() order.
    """
    d_vocals = np.asarray(d_vocals, dtype=np.float64)
    if d_vocals.shape != cache.vocals.shape:
        raise ShapeMismatch(
            f"d_vocals shape {d_vocals.shape} does not match cached vocals {cache.vocals.shape}"
        )
    grads: list[np.ndarray | None] = [None] * (2 * len(net.layers))
    d_skips: dict[int, np.ndarray] = {}
    d_cur = d_vocals[:, None, :]
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        act = cache.activations[idx]
        if layer.role == "down":
            d_act = np.zeros_like(act)
            d_act[:, :, ::2] = d_cur
            d_act += d_skips.pop(layer.level)
            d_cur = d_act
        # Multiply, not np.where(act > 0, d_cur, ...): that reorders d_bias's sum.
        d_pre = d_cur * (1.0 - act**2 if layer.role == "output" else np.where(act > 0, 1.0, LEAKY_SLOPE))
        grads[2 * idx], grads[2 * idx + 1], d_in = _conv_backward(cache.conv_input(idx), layer.weights, d_pre)
        if layer.role == "up":
            # The input blocks are [upsampled_below, skip]; the skip has C_out channels.
            below = layer.weights.shape[1] - layer.weights.shape[0]
            d_skips[layer.level] = d_in[:, below:]
            d_cur = _upsample_backward(d_in[:, :below])
        else:
            d_cur = d_in
    return grads  # type: ignore[return-value]


def forward(net: SepNet, mixture: np.ndarray) -> SepOutput:
    """Separate one mixture window of exactly config.input_len samples."""
    mixture = np.asarray(mixture, dtype=np.float64)
    if mixture.ndim != 1:
        raise ShapeMismatch(f"mixture must be 1-D, got shape {mixture.shape}")
    vocals, _ = forward_batch(net, mixture[None, :])
    v = vocals[0]
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


def separate_signal(
    net: SepNet, mixture: np.ndarray, batch_size: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Separate an arbitrary-length mono signal window by window.

    The signal is processed in consecutive config.input_len windows, the
    tail zero-padded and cropped back. Accompaniment is mixture - vocals
    over the whole signal.
    """
    mixture = np.asarray(mixture, dtype=np.float64)
    if mixture.ndim != 1 or mixture.size == 0:
        raise ShapeMismatch(f"mixture must be a non-empty 1-D signal, got shape {mixture.shape}")
    win = net.config.input_len
    total = mixture.size
    padded_len = ((total + win - 1) // win) * win
    padded = np.zeros(padded_len)
    padded[:total] = mixture
    windows = padded.reshape(-1, win)
    voc_parts = []
    for start in range(0, windows.shape[0], batch_size):
        vocals, _ = forward_batch(net, windows[start : start + batch_size])
        voc_parts.append(vocals)
    vocals_full = np.concatenate(voc_parts, axis=0).reshape(-1)[:total]
    return vocals_full, mixture - vocals_full


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
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptHeader(f"{path}: unreadable header ({exc})") from exc
    offset += header_len
    plan = _layer_plan(config)
    if len(stored) != len(plan):
        raise IncompatibleShape(
            f"{path}: header lists {len(stored)} layers, config implies {len(plan)}"
        )
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
