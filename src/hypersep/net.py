"""A small time-domain vocal separation network.

The model is a mirror-symmetric 1D convolutional encoder/decoder. Each
encoder level applies a same-padded conv, LeakyReLU(0.3), then keeps every
second sample; a bottleneck conv sits at the coarsest resolution; each
decoder level doubles the time axis by linear interpolation, concatenates
the matching encoder activation, and applies another conv + LeakyReLU.
A final kernel-1 conv with tanh produces the vocal estimate in [-1, 1],
and the accompaniment estimate is the input mixture minus the vocals, so
the two always sum back to the mixture sample-for-sample.

Both passes are written in numpy on one layout: B windows of C channels and
T samples form a channel-major (C, B, T + 2P) buffer, each window between P
zero columns. Flat, a conv is a sum over taps of W_k @ x[:, j + s_k] for all
columns j at once, so no tap crosses a gap, and its input gradient is the same
sum with transposed taps. Nothing is upsampled at full rate: an up conv is a
skip conv of the encoder activation plus a two-phase conv of its low-rate
lower input, whose taps give the even and odd outputs (_phase_taps), added
into the output block by block, with two edge fixes per window.

Each conv's stride, skip and low-rate inputs follow from its role and level
(_wiring), and each tap sum picks whether to stack its shifted inputs and
how many columns a block takes from its operands' shapes (_shifted_sum).
Each activation is written in place over its conv's gapped output, gaps
zeroed, so a stride-1 conv or skip reads it as it stands. The forward cache
keeps those outputs only; backward reads the LeakyReLU slope off them
(act > 0 exactly when pre > 0) and releases each once read for the last
time. The cheap encoder levels 1..k (_recomputed_levels) go sooner, once
their up convs have read them as skips: forward's own step (_layer_forward)
recomputes them from the mixtures, bit for bit, for down_{k+1}'s backward.
So backward reads the weights forward used, there as in every input
gradient: they must not change in between. Every pass over many windows,
training or inference, calls forward_batch on _windows_per_call of them at
a time, whatever its batch size.
"""

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .energy import FilterBank
from .errors import ConsumedCache, CorruptHeader, IncompatibleShape, InvalidConfig, ShapeMismatch, check_fields
from .fileio import write_atomic

LEAKY_SLOPE = 0.3

# Columns per block of a conv's tap sum, at most.
_BLOCK = 4096

# Elements per stacked block of a tap sum, at most (16 MiB), unless that leaves fewer than 512 columns: uncapped, the
# paper bottleneck's (15 * 192, 4096) block took 90 MiB and set a training chunk's forward peak.
_STACK = 1 << 21

# Elements per step of the elementwise passes, the activations and the LeakyReLU slope: 512 KiB.
_RUN = 1 << 16

# Samples per forward_batch call of a pass over many windows (_windows_per_call): 2 paper windows (T=16384). On a
# 2-vCPU VM a fresh paper training step (B=16) peaked at 250, 177 and 144 MB ru_maxrss at 4, 2 and 1 windows per call
# and took 5.7-7.1, 5.6-5.7 and 6.2-7.4 s; separation took about as long at 2 as at 4.
_CHUNK = 1 << 15

# The batch both inference passes, separate_signal and validation, ask _windows_per_call for. Traced on the
# acceptance-7 net, separating a 6-s song peaks at 7.7 MiB at 8 windows per call, as a B=8 training step does, but at
# 13.9, 25.3 and 30.0 MiB at 16, 32 and 64, so a larger value would raise the small training run's peak RSS.
_INFERENCE_BATCH = 8

# Share of a step's conv FLOPs (forward, and backward at twice its cost) that backward_batch may spend recomputing
# encoder levels instead of holding them through the decoder's backward (_recomputed_levels). On the paper net levels
# 1 and 2 cost 1.16% and held 12 MiB of its 79.4 MiB traced backward peak; level 3 would bring the cost to 3.37%.
_RECOMPUTE = 0.02

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


@dataclass(frozen=True)
class ConvLayer:
    """One convolution with its role in the network.

    role is "down", "bottleneck", "up", or "output"; level is the 1-based
    resolution level for down/up layers and 0 otherwise. weights has shape
    (out_channels, in_channels, kernel). weights and bias are views of a flat
    vector, so they are written in place, never rebound.
    """

    role: str
    level: int
    weights: np.ndarray
    bias: np.ndarray


@dataclass
class SepNet:
    """A config and one float64 parameter vector, of which every layer's weights and bias are views (_views)."""

    config: NetConfig
    vector: np.ndarray
    layers: list[ConvLayer] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.layers = _views(self.config, self.vector)

    def parameters(self) -> np.ndarray:
        """The live parameter vector: layer by layer, each conv's weights, then its bias."""
        return self.vector

    def clone(self) -> "SepNet":
        return SepNet(self.config, self.vector.copy())


def _views(config: NetConfig, vector: np.ndarray) -> list[ConvLayer]:
    """Every conv of config, in _layer_plan order, with weights and bias reshaped views of vector's slices, weights
    first: the net's layers over its parameters, or a gradient's over a vector laid out as they are."""
    layers, start = [], 0
    for role, level, c_in, c_out, kernel in _layer_plan(config):
        stop = start + c_out * c_in * kernel
        layers.append(ConvLayer(role, level, vector[start:stop].reshape(c_out, c_in, kernel),
                                vector[stop : stop + c_out]))
        start = stop + c_out
    return layers


def _first_nonfinite(net: SepNet) -> tuple[int, str] | None:
    """(layer index, "weights" or "bias") of the first non-finite parameter, None if all are finite: one isfinite
    over the vector, and the layers are looked at only when it fails."""
    finite = np.isfinite(net.vector)
    if finite.all():
        return None
    ends = np.cumsum([part.size for layer in net.layers for part in (layer.weights, layer.bias)])
    i = int(np.searchsorted(ends, np.argmin(finite), side="right"))
    return i // 2, ("weights", "bias")[i % 2]


def _wiring(layer: ConvLayer) -> tuple[int, int | None, int]:
    """(stride, skip, low) of a conv: it reads every stride-th sample of the previous conv's output (conv 0: the
    mixtures), at the low rate through its first low input channels if it is an up conv, whose others read the output
    of conv skip, the down conv of its level."""
    if layer.role == "up":
        return 1, layer.level - 1, layer.weights.shape[1] - layer.weights.shape[0]
    return 2 if layer.role == "bottleneck" or (layer.role == "down" and layer.level > 1) else 1, None, 0


def _gap(config: NetConfig) -> int:
    """The zero columns on each side of a window: the widest kernel's half-width, at least 1."""
    return (max(config.down_kernel, config.up_kernel, 3) - 1) // 2


@dataclass
class ForwardCache:
    """A batch's net layers, mixtures and gap width, and the gapped (C, B, T + 2 * pad) output of every conv so far,
    gaps zero; backward sets each to None once read for the last time. Encoder levels 1..k (_recomputed_levels) are
    also set to None once read as skips, and refilled from the mixtures and layers, as forward made them, before
    down_{k+1}'s backward: the weights must be the ones forward used."""

    layers: list[ConvLayer]
    mixtures: np.ndarray | None
    pad: int
    activations: list[np.ndarray | None] = field(default_factory=list)

    def output(self, i: int) -> np.ndarray:
        """Conv i's gapped output; i = -1 gives the mixtures as one channel, without gaps."""
        x = self.mixtures if i < 0 else self.activations[i]
        if x is None:
            raise ConsumedCache("this forward cache was already consumed by backward_batch")
        return x[None] if i < 0 else x

    def conv_input(self, idx: int) -> np.ndarray:
        """Conv idx's input, gapped; for an up conv, its lower input at the low rate, without the skip. At stride 1
        it is conv idx - 1's output itself; the mixtures, or every second sample of a down conv's output, are copied
        into a new buffer."""
        x = self.output(idx - 1)
        if idx and _wiring(self.layers[idx])[0] == 1:
            return x
        x = _window(x, self.pad)[:, :, ::2] if idx else x
        xs = np.zeros(x.shape[:2] + (x.shape[2] + 2 * self.pad,))
        _window(xs, self.pad)[:] = x
        return xs

    @property
    def conv_inputs(self) -> list[np.ndarray]:
        """Every conv's full-rate input as one (B, C_in, T) array, [_upsample(lower); skip] for an up conv: the
        reference for what the convs compute, built on demand."""
        inputs = []
        for idx, layer in enumerate(self.layers):
            x, skip = _window(self.conv_input(idx), self.pad), _wiring(layer)[1]
            if skip is not None:
                up = np.empty(x.shape[:2] + (2 * x.shape[2],))
                _upsample(x, up)
                x = np.concatenate([up, _window(self.output(skip), self.pad)])
            inputs.append(x.transpose(1, 0, 2))
        return inputs

    @property
    def vocals(self) -> np.ndarray:
        return _window(self.output(len(self.activations) - 1), self.pad)[0]


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
    net = SepNet(config, np.zeros(_parameter_count(config)))
    for layer in net.layers:
        c_out, c_in, kernel = layer.weights.shape
        bound = np.sqrt(6.0 / ((c_in + c_out) * kernel))  # fan in plus fan out
        layer.weights[:] = rng.uniform(-bound, bound, size=layer.weights.shape)
    return net


def _recomputed_levels(config: NetConfig) -> int:
    """k: backward_batch releases encoder levels 1..k once their up convs have read them as skips, and recomputes
    them from the mixtures for down_{k+1}'s backward, their next reader. The most levels below depth whose down
    convs' forward, summed, costs at most _RECOMPUTE of a step's conv FLOPs, three times a forward pass's."""
    cost = [c_in * c_out * kernel * (config.input_len >> (config.depth if role == "bottleneck" else max(level - 1, 0)))
            for role, level, c_in, c_out, kernel in _layer_plan(config)]
    return int(np.count_nonzero(np.cumsum(cost[: config.depth - 1]) <= _RECOMPUTE * 3 * sum(cost)))


def _parameter_count(config: NetConfig) -> int:
    return sum(c_out * (c_in * kernel + 1) for _, _, c_in, c_out, kernel in _layer_plan(config))


def _window(xs: np.ndarray, pad: int) -> np.ndarray:
    """The window columns of a gapped buffer, whose last axis is T + 2 * pad long."""
    return xs[..., pad : xs.shape[-1] - pad]


def _shifted_sum(out, taps: np.ndarray, xs: np.ndarray, shifts: list[int], pad: int, bias=None, sink=None) -> None:
    """out[:, j] = sum_k taps[k] @ xs[:, j + shifts[k]] (+ bias) for the flat columns j between the outer pads, a
    block of columns at a time; given a sink in place of out, each block is summed in scratch and handed on as
    sink(c0, block), c0 its first column. With fewer input rows than output rows, or as many and at most 512 rows to
    stack (small products, where one call beats K), a block's shifted inputs are stacked into one product, in blocks
    of at most _STACK elements but at least 512 columns; otherwise each tap's product is added in turn. No block is
    wider than _BLOCK columns."""
    kernel, rows, c = taps.shape
    n = xs.shape[1] - 2 * pad
    stack = c < rows or (c == rows and kernel * c <= 512)
    width = min(n, _BLOCK, max(512, _STACK // (kernel * c)) if stack else _BLOCK)
    # Both products take C-contiguous taps, made once per call: BLAS rounds a transposed operand's product differently.
    taps = np.ascontiguousarray(taps.transpose(1, 0, 2)).reshape(rows, -1) if stack else np.ascontiguousarray(taps)
    buf = np.empty((kernel * c if stack else rows, width))
    scratch = None if sink is None else np.empty((rows, width))
    for c0 in range(pad, pad + n, width):
        c1 = min(c0 + width, pad + n)
        acc, part = out[:, c0:c1] if sink is None else scratch[:, : c1 - c0], buf[:, : c1 - c0]
        if stack:
            for k, s in enumerate(shifts):
                part[k * c : (k + 1) * c] = xs[:, c0 + s : c1 + s]
            np.matmul(taps, part, out=acc)
        else:  # one tap's product at a time, with no copy of the shifted inputs
            np.matmul(taps[0], xs[:, c0 + shifts[0] : c1 + shifts[0]], out=acc)
            for a, s in zip(taps[1:], shifts[1:]):
                np.matmul(a, xs[:, c0 + s : c1 + s], out=part)
                acc += part
        if bias is not None:
            acc += bias[:, None]
        if sink is not None:
            sink(c0, acc)


def _taps(weights: np.ndarray) -> np.ndarray:
    """A (C_out, C_in, K) conv's (K, C_out, C_in) tap stack; tap k reads at shift k - (K - 1) / 2 (_shifts)."""
    return weights.transpose(2, 0, 1)


def _shifts(kernel: int) -> list[int]:
    """The shifts a same-padded conv's K taps read at."""
    return list(range(-(kernel // 2), kernel // 2 + 1))


def _conv_forward(xs: np.ndarray, taps: np.ndarray, pad: int, bias=None) -> np.ndarray:
    """The _shifted_sum of a gapped (C_in, B, T + 2 * pad) buffer, pad >= every |shift|, at the taps' _shifts, in a
    new such buffer."""
    ys = np.empty((taps.shape[1],) + xs.shape[1:])
    _shifted_sum(ys.reshape(len(ys), -1), taps, xs.reshape(len(xs), -1), _shifts(len(taps)), pad, bias)
    return ys


def _add_param_grads(out: np.ndarray, xs: np.ndarray, ds: np.ndarray, shifts: list[int], pad: int) -> None:
    """Add d_weights of _conv_forward given d_out in a gapped buffer with zero gaps into out, (C_out, C_in, K) with
    tap k read at shifts[k], one tap's product at a time."""
    x2, d2 = xs.reshape(len(xs), -1), ds.reshape(len(ds), -1)
    n = x2.shape[1] - 2 * pad
    # Output column j reads input column j + s; ds's zero gaps keep every window's gradient out of its neighbours.
    tap = np.empty(out.shape[:2])
    for k, s in enumerate(shifts):
        np.matmul(d2[:, pad : pad + n], x2[:, pad + s : pad + s + n].T, out=tap)
        out[:, :, k] += tap


def _bias_grad(ds: np.ndarray, pad: int) -> np.ndarray:
    """d_bias of _conv_forward given d_out in a gapped buffer; window by window, as numpy sums (B, C, T) over (0, 2)."""
    return sum(d.sum(axis=1) for d in _window(ds, pad).transpose(1, 0, 2))


def _conv_input_grad(out: np.ndarray, taps: np.ndarray, ds: np.ndarray, pad: int, shifts=None) -> np.ndarray:
    """d_input of _conv_forward, or of a sum over taps read at shifts, the exact adjoint: the sum of the transposed
    taps at the negated shifts, written into out, a gapped buffer shaped like the input, gaps zeroed."""
    back = [-s for s in (_shifts(len(taps)) if shifts is None else shifts)]
    _shifted_sum(out.reshape(len(out), -1), taps.transpose(0, 2, 1), ds.reshape(len(ds), -1), back, pad)
    out[:, :, :pad] = out[:, :, out.shape[2] - pad :] = 0.0
    return out


def _phase_matrix(kernel: int) -> tuple[np.ndarray, list[int]]:
    """(M, shifts) of the conv by K taps of the linear interpolation u of a low-rate a between zero gaps,
    u[d] = (a[floor(d / 2)] + a[ceil(d / 2)]) / 2, as one conv of a: tap k reads a[m + shifts[s]] at output 2m + r
    with weight M[r, k, s]."""
    p = (kernel - 1) // 2
    shifts = np.arange(-((p + 1) // 2), p // 2 + 2)
    d = (np.arange(2)[:, None] + np.arange(kernel) - p)[..., None]
    return 0.5 * (d // 2 == shifts) + 0.5 * ((d + 1) // 2 == shifts), shifts.tolist()


def _phase_taps(w_taps: np.ndarray, m: np.ndarray, transposed: bool = False) -> np.ndarray:
    """The (S, 2 * C_out, C_low) taps[s, r] = sum_k M[r, k, s] w_taps[k] of a (K, C_out, C_low) tap stack: the
    even outputs' rows, then the odd ones'. With transposed, their (S, C_low, 2 * C_out) transposes, C-contiguous."""
    taps = np.tensordot(m, w_taps, axes=(1, 0))  # (2, S, C_out, C_low)
    if transposed:
        return taps.transpose(1, 3, 0, 2).reshape(m.shape[2], w_taps.shape[2], -1)
    return taps.transpose(1, 0, 2, 3).reshape(m.shape[2], -1, w_taps.shape[2])


def _edges(kernel: int, t: int) -> list[np.ndarray]:
    """(output, tap, low-rate column, weight) arrays of the fixes to a conv of u over t outputs, whose output j reads
    u[j + k - p] through tap k: _upsample has u[-1] = 0, not a[0] / 2, and u[t - 1] = a[-1], not a[-1] / 2."""
    p = (kernel - 1) // 2
    fixes = [(p - 1 - k, k, 0, -0.5) for k in range(p)] + [(t - 1 + p - k, k, -1, 0.5) for k in range(p, kernel)]
    return [np.array(column) for column in zip(*(fix for fix in fixes if 0 <= fix[0] < t))]


def _phases(y: np.ndarray) -> np.ndarray:
    """A (2, C, B, L) view of a (C, B, 2L) array: its even columns, then its odd ones."""
    return y.reshape(y.shape[:2] + (-1, 2)).transpose(3, 0, 1, 2)


def _add_two_phase(ys: np.ndarray, xs: np.ndarray, w_taps: np.ndarray, pad: int) -> None:
    """Add to ys the conv by w_taps of _upsample(a), a the window of the gapped low-rate xs, without building it: one
    conv of a gives each block's even and odd outputs, added into ys as the block is done; then the edge fixes apply
    to every window at once."""
    y, a, width = _window(ys, pad), _window(xs, pad), xs.shape[2]

    def add(c0, block):
        for b in range(c0 // width, (c0 + block.shape[1] - 1) // width + 1):
            # Window b's samples m0 .. m1 - 1 sit in this block, from its column b * width + pad + m0 - c0 on.
            m0, m1 = max(c0 - b * width - pad, 0), min(c0 + block.shape[1] - b * width - pad, a.shape[2])
            if m0 < m1:
                part = block[:, b * width + pad - c0 + m0 : b * width + pad - c0 + m1]
                y[:, b, 2 * m0 : 2 * m1 : 2] += part[: len(y)]
                y[:, b, 2 * m0 + 1 : 2 * m1 : 2] += part[len(y) :]

    m, shifts = _phase_matrix(len(w_taps))
    _shifted_sum(None, _phase_taps(w_taps, m), xs.reshape(len(xs), -1), shifts, pad, sink=add)
    cols, ks, src, weight = _edges(len(w_taps), y.shape[2])
    fixes = weight[:, None, None] * w_taps[ks] @ a[:, :, src].transpose(2, 0, 1)
    np.add.at(y, (slice(None), slice(None), cols), fixes.transpose(1, 2, 0))


def _add_two_phase_grads(out: np.ndarray, xs: np.ndarray, d_phases: np.ndarray, w_taps: np.ndarray, d_xs: np.ndarray,
                         pad: int) -> None:
    """Add d_weights of _add_two_phase, given its d_out's _phases in a gapped buffer, d_phases, and its gapped
    low-rate input xs, into out, (C_out, C_low, K); the input gradient is written into d_xs, a gapped buffer shaped
    like xs."""
    (m, shifts), a = _phase_matrix(len(w_taps)), _window(xs, pad)
    # The taps as _conv_input_grad reads them, transposed, are C-contiguous: _shifted_sum makes no copy of them.
    d_a = _window(_conv_input_grad(d_xs, _phase_taps(w_taps, m, True).transpose(0, 2, 1), d_phases, pad, shifts), pad)
    d_taps = np.zeros((2 * out.shape[0], out.shape[1], len(shifts)))
    _add_param_grads(d_taps, xs, d_phases, shifts, pad)
    # The adjoint of taps[s, r] = sum_k M[r, k, s] w[k], as (K, C_out, C_low).
    d_w_taps = np.tensordot(m, d_taps.reshape(2, *out.shape[:2], len(shifts)), axes=([0, 2], [0, 3]))
    cols, ks, src, weight = _edges(len(w_taps), 2 * a.shape[2])
    g = weight[:, None, None] * _window(d_phases, pad).reshape((2, -1) + a.shape[1:])[cols % 2, :, :, cols // 2]
    np.add.at(d_w_taps, ks, g @ a[:, :, src].transpose(2, 1, 0))
    np.add.at(d_a, (slice(None), slice(None), src), (w_taps[ks].transpose(0, 2, 1) @ g).transpose(1, 2, 0))
    out += d_w_taps.transpose(1, 2, 0)


def _leaky(x: np.ndarray, out=None) -> np.ndarray:
    """max(x, slope * x): the same values as x > 0 ? x : slope * x, and act > 0 exactly when x > 0."""
    return np.maximum(x, x * LEAKY_SLOPE, out=out)


def _activate(ys: np.ndarray, leaky: bool, pad: int) -> np.ndarray:
    """A conv's gapped output made its activation in place, gaps zeroed: LeakyReLU if leaky, else tanh, _RUN
    elements at a time."""
    ys[:, :, :pad] = ys[:, :, ys.shape[2] - pad :] = 0.0
    flat = ys.reshape(-1)
    for i in range(0, flat.size, _RUN):
        x = flat[i : i + _RUN]
        if leaky:
            _leaky(x, out=x)
        else:
            np.tanh(x, out=x)
    return ys


def _slope(ds: np.ndarray, act: np.ndarray) -> None:
    """Multiply a LeakyReLU conv's gapped d(loss)/d(output) in place by the slope read off its gapped output (act > 0
    exactly when pre > 0), _RUN elements at a time."""
    d, a = ds.reshape(-1), act.reshape(-1)
    for i in range(0, d.size, _RUN):
        row = (a[i : i + _RUN] > 0).astype(np.float64)
        d[i : i + _RUN] *= np.maximum(row, LEAKY_SLOPE, out=row)


def _upsample(x: np.ndarray, out: np.ndarray) -> None:
    """Double the time axis into out: samples at even slots, neighbour midpoints at odd ones, the last repeated."""
    out[..., 0::2] = x
    mid = np.add(x[..., :-1], x[..., 1:], out=out[..., 1:-1:2])
    mid *= 0.5
    out[..., -1] = x[..., -1]


def _windows_per_call(batch: int, input_len: int) -> int:
    """Windows per forward_batch call of a pass over batch windows of input_len samples (a training step,
    validation or separation): at most _CHUNK samples, but one window at least and batch at most."""
    return min(batch, max(1, _CHUNK // input_len))


def forward_batch(net: SepNet, mixtures: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a (B, input_len) batch, B from _windows_per_call in every pass; returns vocals and backward_batch's
    cache."""
    mixtures = np.asarray(mixtures, dtype=np.float64)
    if mixtures.ndim != 2 or mixtures.shape[1] != net.config.input_len:
        raise ShapeMismatch(f"expected batch shape (B, {net.config.input_len}), got {mixtures.shape}")
    cache = ForwardCache(net.layers, mixtures, _gap(net.config))
    for idx in range(len(net.layers)):
        cache.activations.append(_layer_forward(cache, idx))
    return cache.vocals, cache


def _layer_forward(cache: ForwardCache, idx: int) -> np.ndarray:
    """Conv idx's activation, from the cached outputs it reads, with the cache's layers: forward_batch's step, and
    backward_batch's refill of a released encoder level, the same bits."""
    layer = cache.layers[idx]
    _, skip, low = _wiring(layer)
    # The full-rate part: the whole conv, or an up conv's skip conv; then the up conv's two-phase part.
    xs = cache.conv_input(idx) if skip is None else cache.output(skip)
    ys = _conv_forward(xs, _taps(layer.weights[:, low:]), cache.pad, layer.bias)
    del xs  # a stride-2 copy, before the two-phase part runs
    if skip is not None:
        _add_two_phase(ys, cache.conv_input(idx), _taps(layer.weights[:, :low]), cache.pad)
    return _activate(ys, layer.role != "output", cache.pad)


def backward_batch(net: SepNet, cache: ForwardCache, d_vocals: np.ndarray, grad: np.ndarray) -> None:
    """Add the exact parameter gradients given d(loss)/d(vocals) for the cached batch into grad, a flat vector in
    net.parameters() order. Consumes the cache: reusing it raises ConsumedCache."""
    d_vocals = np.asarray(d_vocals, dtype=np.float64)
    if d_vocals.shape != cache.vocals.shape:
        raise ShapeMismatch(f"d_vocals shape {d_vocals.shape} does not match cached vocals {cache.vocals.shape}")
    if grad.shape != net.vector.shape:
        raise ShapeMismatch(f"gradient shape {grad.shape} does not match the parameters' {net.vector.shape}")
    pad, acts, slots = cache.pad, cache.activations, _views(net.config, grad)
    levels = _recomputed_levels(net.config)
    # d(loss)/d(output) of each conv in a zero-gapped buffer: the one its first part was written in.
    d_outs: list[np.ndarray | None] = [None] * len(acts)
    d_outs[-1] = np.zeros((1, len(d_vocals), d_vocals.shape[1] + 2 * pad))
    np.multiply(d_vocals, 1.0 - cache.vocals**2, out=_window(d_outs[-1], pad)[0])
    for idx in range(len(net.layers) - 1, -1, -1):
        layer, slot = net.layers[idx], slots[idx]
        (stride, skip, low), weights = _wiring(layer), layer.weights
        ds, d_outs[idx] = d_outs[idx], None
        if layer.role != "output":
            _slope(ds, acts[idx])
        acts[idx] = None  # the convs that read it as input or skip have run backward already
        if idx == levels:  # the released levels, for this conv's input and their own slopes
            for i in range(levels):
                acts[i] = _layer_forward(cache, i)
        # The full-rate part, as in forward_batch.
        xs = cache.conv_input(idx) if skip is None else cache.output(skip)
        _add_param_grads(slot.weights[:, low:], xs, ds, _shifts(weights.shape[2]), pad)
        slot.bias[:] += _bias_grad(ds, pad)
        if idx:  # nothing reads the mixtures' gradient
            taps = _taps(weights[:, low:])
            if stride == 1:  # the skip's first part, or conv idx - 1's only reader's: xs is an activation
                d_outs[idx - 1 if skip is None else skip] = _conv_input_grad(np.empty_like(xs), taps, ds, pad)
            else:  # a down conv's output, whose skip part came first; xs is a copy, free to write over
                _conv_input_grad(xs, taps, ds, pad)
                _window(d_outs[idx - 1], pad)[:, :, ::2] += _window(xs, pad)
        del xs
        if skip is not None and skip < levels:  # an encoder level that is recomputed before it is read again
            acts[skip] = None
        if skip is not None:  # the two-phase part: ds is released before the input gradient's buffer is made
            w_taps, xs = _taps(weights[:, :low]), cache.conv_input(idx)
            d_phases = np.zeros((2 * len(ds),) + xs.shape[1:])
            _window(d_phases.reshape((2, len(ds)) + xs.shape[1:]), pad)[:] = _phases(_window(ds, pad))
            ds = None
            d_outs[idx - 1] = np.empty_like(xs)
            _add_two_phase_grads(slot.weights[:, :low], xs, d_phases, w_taps, d_outs[idx - 1], pad)
            del xs, d_phases
        ds = None  # before the next conv's input is built
    cache.mixtures = None


def collect_filter_banks(net: SepNet) -> list[FilterBank]:
    """Hidden-layer conv weights flattened to (out_channels, in_channels * kernel).

    Down and up convs always count as hidden; the bottleneck conv counts
    only when the config marks it as its own layer; the kernel-1 output
    conv never does. Each bank's layer_id is the conv's index in
    net.layers, and its weights are a reshape view of the conv's slice of
    the flat vector in net.parameters() order.
    """
    banks = []
    for idx, layer in enumerate(net.layers):
        if layer.role in ("down", "up") or (layer.role == "bottleneck" and net.config.bottleneck_own_layer):
            c_out = layer.weights.shape[0]
            banks.append(FilterBank(layer.weights.reshape(c_out, -1), layer_id=idx))
    return banks


def separate_signal(net: SepNet, mixture: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separate an arbitrary-length mono signal window by window.

    Consecutive config.input_len windows, the tail zero-padded and cropped
    back, run _windows_per_call(_INFERENCE_BATCH, input_len) per
    forward_batch call, each call's vocals written straight into one output
    array: no copy of the whole signal sits beside a call's forward pass.
    Accompaniment is mixture - vocals over the whole signal.
    """
    mixture = np.asarray(mixture, dtype=np.float64)
    if mixture.ndim != 1 or mixture.size == 0:
        raise ShapeMismatch(f"mixture must be a non-empty 1-D signal, got shape {mixture.shape}")
    win, total = net.config.input_len, mixture.size
    step = _windows_per_call(_INFERENCE_BATCH, win) * win
    vocals = np.empty(-(-total // win) * win)
    for start in range(0, total, step):
        chunk = mixture[start : start + step]
        chunk = np.pad(chunk, (0, -chunk.size % win)) if chunk.size % win else chunk  # full windows stay views
        vocals[start : start + step] = forward_batch(net, chunk.reshape(-1, win))[0].reshape(-1)
    return vocals[:total], mixture - vocals[:total]


def save_checkpoint(net: SepNet, path) -> None:
    """Write config plus float64 parameters; loading restores them bit-exactly."""
    header = {
        "format_version": 1,
        "config": asdict(net.config),
        "layers": [{"role": l.role, "level": l.level, "out_channels": l.weights.shape[0],
                    "in_channels": l.weights.shape[1], "kernel": l.weights.shape[2]} for l in net.layers],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    params = net.vector.astype("<f8", copy=False).tobytes()
    write_atomic(path, b"".join([_MAGIC, struct.pack("<I", len(blob)), blob, params]))


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
    for meta, (role, _, c_in, c_out, kernel) in zip(stored, plan):
        shape = (meta.get("out_channels"), meta.get("in_channels"), meta.get("kernel"))
        if meta.get("role") != role or shape != (c_out, c_in, kernel):
            raise IncompatibleShape(f"{path}: stored layer {meta} does not match plan {role}/{shape}")
    count = _parameter_count(config)
    if len(data) - offset != 8 * count:
        raise CorruptHeader(f"{path}: a parameter block of {len(data) - offset} bytes, the config implies {8 * count}")
    net = SepNet(config, np.frombuffer(data, dtype="<f8", count=count, offset=offset).astype(np.float64))
    bad = _first_nonfinite(net)
    if bad is not None:
        raise CorruptHeader(f"{path}: non-finite parameters in layer {bad[0]} {bad[1]}")
    return net
