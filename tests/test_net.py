"""Tests for the separation network: shapes, exact backprop, checkpoints."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from hypersep import net as net_module, training
from hypersep.errors import (
    ConsumedCache,
    CorruptHeader,
    HypersepError,
    IncompatibleShape,
    InvalidConfig,
    ShapeMismatch,
)
from hypersep.net import (
    GROWTH_MODES,
    NetConfig,
    _add_param_grads,
    _add_two_phase,
    _add_two_phase_grads,
    _bias_grad,
    _conv_forward,
    _conv_input_grad,
    _gap,
    _layer_plan,
    _leaky,
    _shifts,
    _taps,
    _upsample,
    _views,
    _windows_per_call,
    _wiring,
    backward_batch,
    collect_filter_banks,
    forward_batch,
    init_net,
    load_checkpoint,
    save_checkpoint,
    separate_signal,
)
from hypersep.training import TrainConfig, compute_loss

import oracles


def tiny_config(**overrides):
    base = dict(
        depth=2,
        down_kernel=5,
        up_kernel=3,
        base_features=3,
        growth="double",
        input_len=16,
        sample_rate=8000,
        seed=3,
    )
    base.update(overrides)
    return NetConfig(**base)


def conv_oracle(x, weights, bias):
    """Same-padded correlation by explicit loops; x is (C_in, T)."""
    c_out, c_in, kernel = weights.shape
    t = x.shape[1]
    pad = (kernel - 1) // 2
    xp = np.zeros((c_in, t + 2 * pad))
    xp[:, pad : pad + t] = x
    y = np.zeros((c_out, t))
    for o in range(c_out):
        for pos in range(t):
            acc = bias[o]
            for i in range(c_in):
                for k in range(kernel):
                    acc += weights[o, i, k] * xp[i, pos + k]
            y[o, pos] = acc
    return y


def reference_vocals(net, x):
    """One window through the net conv by conv with conv_oracle, on (C, T) arrays."""
    h, skips = x[None], {}
    for layer in net.layers:
        if layer.role == "up":
            up = np.empty((len(h), 2 * h.shape[1]))
            _upsample(h, up)
            h = np.concatenate([up, skips[layer.level]])
        pre = conv_oracle(h, layer.weights, layer.bias)
        h = np.tanh(pre) if layer.role == "output" else np.where(pre > 0, pre, 0.3 * pre)
        if layer.role == "down":
            skips[layer.level], h = h, h[:, ::2]
    return h[0]


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"depth": 0},
            {"down_kernel": 4},
            {"up_kernel": -1},
            {"base_features": 0},
            {"growth": "triple"},
            {"input_len": 18},  # not divisible by 2**depth
            {"sample_rate": 0},
            {"seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(InvalidConfig):
            init_net(tiny_config(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"depth": "2"},
            {"depth": 2.0},
            {"seed": True},
            {"growth": None},
            {"input_len": None},
            {"bottleneck_own_layer": "false"},
            {"bottleneck_own_layer": 0},
        ],
    )
    def test_wrong_types_rejected_naming_the_field(self, overrides):
        with pytest.raises(InvalidConfig, match=next(iter(overrides))):
            tiny_config(**overrides)

    def test_numpy_ints_accepted(self):
        cfg = tiny_config(depth=np.int64(2), input_len=np.int32(16))
        assert init_net(cfg).layers[0].weights.shape == (3, 1, 5)

    def test_doubling_feature_progression(self):
        cfg = NetConfig(depth=4, base_features=24, growth="double", input_len=16384)
        assert cfg.feature_counts() == [24, 48, 96, 192]
        assert cfg.bottleneck_features() == 384

    def test_additive_feature_progression(self):
        cfg = NetConfig(depth=4, base_features=24, growth="add_base", input_len=16384)
        assert cfg.feature_counts() == [24, 48, 72, 96]
        assert cfg.bottleneck_features() == 120


def assert_layers_tile(net):
    """Every layer's weights, then its bias, are C-contiguous views of consecutive slices of net.parameters(), in
    _layer_plan order, with no gap and nothing left over."""
    vector, start = net.parameters(), 0
    assert vector.dtype == np.float64 and vector.ndim == 1
    assert len(net.layers) == len(_layer_plan(net.config))
    for layer, (role, level, c_in, c_out, kernel) in zip(net.layers, _layer_plan(net.config)):
        assert (layer.role, layer.level, layer.weights.shape, layer.bias.shape) == (role, level,
                                                                                   (c_out, c_in, kernel), (c_out,))
        for part in (layer.weights, layer.bias):
            assert np.shares_memory(part, vector) and part.flags.c_contiguous
            assert part.ctypes.data == vector.ctypes.data + 8 * start
            start += part.size
    assert start == vector.size


class TestInit:
    def test_layers_tile_the_parameter_vector(self):
        """init_net's and clone's layers are views of their own net's vector; a clone shares no memory."""
        net = init_net(NetConfig(depth=3, base_features=8, input_len=1024, seed=0))
        twin = net.clone()
        assert_layers_tile(net)
        assert_layers_tile(twin)
        assert not np.shares_memory(net.parameters(), twin.parameters())
        np.testing.assert_array_equal(net.parameters(), twin.parameters())

    def test_layer_arrays_are_written_in_place_never_rebound(self):
        """Rebinding weights or bias would detach the layer from the vector, so it raises; in-place writes reach
        the vector."""
        net = init_net(tiny_config(seed=5))
        layer = net.layers[1]
        for part in ("weights", "bias"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layer, part, np.zeros_like(getattr(layer, part)))
        layer.weights[:] = 0.0
        layer.bias[:] = 2.0
        start = net.layers[0].weights.size + net.layers[0].bias.size
        w, b = np.split(net.parameters()[start : start + layer.weights.size + layer.bias.size], [layer.weights.size])
        assert not w.any() and (b == 2.0).all()

    def test_layer_plan_shapes_depth4(self):
        net = init_net(NetConfig(depth=4, base_features=24, input_len=16384, seed=0))
        roles = [(l.role, l.level, l.weights.shape) for l in net.layers]
        assert roles == [
            ("down", 1, (24, 1, 15)),
            ("down", 2, (48, 24, 15)),
            ("down", 3, (96, 48, 15)),
            ("down", 4, (192, 96, 15)),
            ("bottleneck", 0, (384, 192, 15)),
            ("up", 4, (192, 576, 5)),
            ("up", 3, (96, 288, 5)),
            ("up", 2, (48, 144, 5)),
            ("up", 1, (24, 72, 5)),
            ("output", 0, (1, 24, 1)),
        ]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("growth", GROWTH_MODES)
    @pytest.mark.parametrize("own", [False, True], ids=["shared", "own"])
    def test_wiring_follows_the_previous_layer(self, depth, growth, own):
        """Each conv's (stride, skip, low) from its role and level: stride 2 exactly after a down conv; an up conv's
        skip is the down conv of its level, as wide as its output, and its low-rate input channels are the previous
        conv's outputs."""
        config = NetConfig(depth=depth, base_features=3, growth=growth, input_len=2**depth, bottleneck_own_layer=own)
        layers = init_net(config).layers
        for idx, layer in enumerate(layers):
            stride, skip, low = _wiring(layer)
            assert stride == (2 if idx and layers[idx - 1].role == "down" else 1)
            if layer.role == "up":
                assert (layers[skip].role, layers[skip].level) == ("down", layer.level)
                assert layers[skip].weights.shape[0] == layer.weights.shape[0]
                assert low == layers[idx - 1].weights.shape[0]
            else:
                assert (skip, low) == (None, 0)

    def test_seed_determinism_and_divergence(self):
        a = init_net(tiny_config(seed=7))
        b = init_net(tiny_config(seed=7))
        c = init_net(tiny_config(seed=8))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
        assert any(not np.array_equal(la.weights, lc.weights) for la, lc in zip(a.layers, c.layers))

    def test_glorot_bounds_and_zero_biases(self):
        net = init_net(tiny_config(seed=1))
        for layer in net.layers:
            c_out, c_in, kernel = layer.weights.shape
            bound = np.sqrt(6.0 / ((c_in + c_out) * kernel))
            assert np.all(np.abs(layer.weights) <= bound)
            assert np.array_equal(layer.bias, np.zeros(c_out))


# (batch, c_in, c_out, kernel, t): B=3 with K=15 shows any bleed across
# the gaps between windows; C_in=1 is the first encoder conv; K=1 the
# output conv; T=4 < K=5 the bottleneck shape of the tiny config.
CONV_SHAPES = {
    "base": (1, 2, 3, 5, 9),
    "gaps": (3, 2, 3, 15, 20),
    "c_in1": (2, 1, 4, 5, 11),
    "k1": (2, 3, 2, 1, 7),
    "t_lt_k": (2, 3, 4, 5, 4),
}


# The net's convs read and write gapped (C, B, T + 2 * pad) buffers; these
# adapters take and return (B, C, T) arrays. PAD = 7 is the default config's
# gap: wider than every kernel here but K = 15, so most convs read their taps
# at the offset PAD - p that the narrower up convs use in the net.
PAD = 7


def gapped(x):
    batch, c, t = x.shape
    xs = np.zeros((c, batch, t + 2 * PAD))
    xs[:, :, PAD : PAD + t] = x.transpose(1, 0, 2)
    return xs


def conv_forward(x, w, b):
    return _conv_forward(gapped(x), _taps(w), PAD, b)[:, :, PAD:-PAD].transpose(1, 0, 2)


def conv_backward(x, w, d):
    xs, ds, d_weights = gapped(x), gapped(d), np.zeros(w.shape)
    _add_param_grads(d_weights, xs, ds, _shifts(w.shape[2]), PAD)
    d_input = _conv_input_grad(np.empty_like(xs), _taps(w), ds, PAD)[:, :, PAD:-PAD].transpose(1, 0, 2)
    return d_weights, _bias_grad(ds, PAD), d_input


# An up conv reads a (B, C_low, L) lower input a at the low rate and a (B, C_out, 2L)
# skip s; its weights' first C_low input channels read a, the rest s.
def up_conv_forward(a, s, w, b):
    low = a.shape[1]
    ys = _conv_forward(gapped(s), _taps(w[:, low:]), PAD, b)
    _add_two_phase(ys, gapped(a), _taps(w[:, :low]), PAD)
    return ys[:, :, PAD:-PAD].transpose(1, 0, 2)


def up_conv_backward(a, s, w, d):
    """(d_weights, d_bias, d_a, d_s) as backward_batch takes them, given d_out d."""
    low, d_weights = a.shape[1], np.zeros(w.shape)
    d_weights[:, low:], d_bias, d_s = conv_backward(s, w[:, low:], d)
    d_phases = np.zeros((2 * w.shape[0], len(a), a.shape[2] + 2 * PAD))
    d_phases[: w.shape[0], :, PAD:-PAD] = d[:, :, 0::2].transpose(1, 0, 2)
    d_phases[w.shape[0] :, :, PAD:-PAD] = d[:, :, 1::2].transpose(1, 0, 2)
    xs = gapped(a)
    d_xs = np.empty_like(xs)
    _add_two_phase_grads(d_weights[:, :low], xs, d_phases, _taps(w[:, :low]), d_xs, PAD)
    return d_weights, d_bias, d_xs[:, :, PAD:-PAD].transpose(1, 0, 2), d_s


def up_reference(a, s, w, b):
    """One window, _upsample then conv_oracle, on (C, T) arrays."""
    up = np.empty((len(a), 2 * a.shape[1]))
    _upsample(a, up)
    return conv_oracle(np.concatenate([up, s]), w, b)


def random_up_conv(kernel, low_len, seed, batch=3, c_low=3, c_out=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((batch, c_low, low_len))
    s = rng.standard_normal((batch, c_out, 2 * low_len))
    w = rng.standard_normal((c_out, c_low + c_out, kernel))
    return rng, a, s, w


def random_conv(shape, seed):
    batch, c_in, c_out, kernel, t = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, c_in, t))
    w = rng.standard_normal((c_out, c_in, kernel))
    return rng, x, w


class TestConvAndResampling:
    @pytest.mark.parametrize("shape", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
    def test_conv_matches_loop_oracle(self, shape):
        rng, x, w = random_conv(shape, 71)
        b = rng.standard_normal(w.shape[0])
        y = conv_forward(x, w, b)
        for item in range(x.shape[0]):
            np.testing.assert_allclose(y[item], conv_oracle(x[item], w, b), rtol=1e-12)

    @pytest.mark.parametrize("shape", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
    def test_conv_backward_is_adjoint(self, shape):
        """d_weights and d_input are the adjoints of the conv in w and in x."""
        rng, x, w = random_conv(shape, 78)
        d = rng.standard_normal((x.shape[0], w.shape[0], x.shape[2]))
        v = rng.standard_normal(w.shape)
        u = rng.standard_normal(x.shape)
        d_weights, d_bias, d_input = conv_backward(x, w, d)
        zero = np.zeros(w.shape[0])

        def pair(arg, weights):
            return sum(float(np.sum(d[i] * conv_oracle(arg[i], weights, zero))) for i in range(len(d)))

        assert pair(x, v) == pytest.approx(float(np.sum(d_weights * v)), rel=1e-12)
        assert pair(u, w) == pytest.approx(float(np.sum(d_input * u)), rel=1e-12)
        np.testing.assert_array_equal(d_bias, d.sum(axis=(0, 2)))

    @pytest.mark.parametrize("shape", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
    def test_narrow_column_blocks(self, shape, monkeypatch):
        """Blocks of 4 columns cut through windows and gaps; neither pass may notice."""
        monkeypatch.setattr(net_module, "_BLOCK", 4)
        self.test_conv_matches_loop_oracle(shape)
        self.test_conv_backward_is_adjoint(shape)

    def test_stacked_block_is_capped_by_bytes(self):
        """The paper bottleneck conv (192 -> 384 channels, K = 15) over 4 windows of 1024 stacks blocks of at most
        16 MiB, not 15 * 192 rows by 4096 columns (90 MiB): its forward peaks at its output, one copy of its taps
        and the block. At least 15 MiB of block shows that it stacked: a tap at a time holds one 384 by 4096 product
        (12 MiB) and one tap's copy."""
        rng = np.random.default_rng(86)
        x, w = rng.standard_normal((4, 192, 1024)), rng.standard_normal((384, 192, 15))
        xs = gapped(x)
        tracemalloc.start()
        try:
            ys = _conv_forward(xs, _taps(w), PAD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ys.nbytes + w.nbytes + 15 * 2**20 <= peak <= ys.nbytes + w.nbytes + 16 * 2**20 + 2**18, f"{peak} B"

    def test_kernel_one_conv_is_channel_mix(self):
        rng = np.random.default_rng(72)
        x = rng.standard_normal((2, 3, 7))
        w = rng.standard_normal((1, 3, 1))
        y = conv_forward(x, w, np.zeros(1))
        np.testing.assert_allclose(y, np.einsum("oi,bit->bot", w[:, :, 0], x), rtol=1e-12)

    def test_leaky_keeps_the_sign_of_its_input(self):
        """Backward reads the slope off act > 0, so it must equal pre > 0;
        -5e-324 times the slope underflows to -0.0."""
        x = np.array([-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, np.inf, np.nan])
        np.testing.assert_array_equal(_leaky(x) > 0, x > 0)

    def test_upsample_values(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        out = np.empty((1, 1, 6))
        _upsample(x, out)
        np.testing.assert_array_equal(out[0, 0], [1.0, 1.5, 2.0, 2.5, 3.0, 3.0])

    # Low-rate lengths 1 and 2 put every output within p + 1 of a window's edge.
    UP_CASES = [(kernel, low_len) for kernel in (1, 3, 5) for low_len in (1, 2, 9)]

    @pytest.mark.parametrize("kernel, low_len", UP_CASES)
    @pytest.mark.parametrize("block", [None, 4], ids=["block", "block4"])
    def test_up_conv_matches_loop_oracle(self, kernel, low_len, block, monkeypatch):
        """Output and input gradients of the two-phase up conv against _upsample then conv_oracle, window by
        window; the gradient oracle is the loop correlation with flipped, transposed taps, then the adjoint of
        the upsampling matrix."""
        if block:
            monkeypatch.setattr(net_module, "_BLOCK", block)
        rng, a, s, w = random_up_conv(kernel, low_len, 83)
        b = rng.standard_normal(w.shape[0])
        d = rng.standard_normal((len(a), w.shape[0], 2 * low_len))
        y = up_conv_forward(a, s, w, b)
        _, _, d_a, d_s = up_conv_backward(a, s, w, d)
        upsampling = np.empty((low_len, 2 * low_len))
        _upsample(np.eye(low_len), upsampling)  # row i is _upsample of the i-th unit sample
        flipped = w.transpose(1, 0, 2)[:, :, ::-1]
        for i in range(len(a)):
            np.testing.assert_allclose(y[i], up_reference(a[i], s[i], w, b), rtol=1e-12)
            d_in = conv_oracle(d[i], flipped, np.zeros(w.shape[1]))
            np.testing.assert_allclose(d_s[i], d_in[a.shape[1] :], rtol=1e-12)
            np.testing.assert_allclose(d_a[i], d_in[: a.shape[1]] @ upsampling.T, rtol=1e-12)

    @pytest.mark.parametrize("kernel, low_len", UP_CASES)
    def test_up_conv_backward_is_adjoint(self, kernel, low_len):
        """<conv(x), g> == <x, conv^T(g)> in the lower input, the skip and the weights."""
        rng, a, s, w = random_up_conv(kernel, low_len, 84)
        d = rng.standard_normal((len(a), w.shape[0], 2 * low_len))
        u, v, omega = rng.standard_normal(a.shape), rng.standard_normal(s.shape), rng.standard_normal(w.shape)
        d_weights, d_bias, d_a, d_s = up_conv_backward(a, s, w, d)
        zero = np.zeros(w.shape[0])

        def pair(low, skip, weights):
            return sum(float(np.sum(d[i] * up_reference(low[i], skip[i], weights, zero))) for i in range(len(d)))

        assert pair(u, np.zeros_like(s), w) == pytest.approx(float(np.sum(d_a * u)), rel=1e-12)
        assert pair(np.zeros_like(a), v, w) == pytest.approx(float(np.sum(d_s * v)), rel=1e-12)
        assert pair(a, s, omega) == pytest.approx(float(np.sum(d_weights * omega)), rel=1e-12)
        np.testing.assert_array_equal(d_bias, d.sum(axis=(0, 2)))


class TestForward:
    def test_output_contract(self):
        net = init_net(tiny_config(seed=5))
        rng = np.random.default_rng(74)
        mixture = rng.uniform(-1.0, 1.0, 16)
        vocals, accompaniment = separate_signal(net, mixture)
        assert vocals.shape == mixture.shape
        assert np.all(np.abs(vocals) < 1.0)
        # accompaniment is bit-exactly the float subtraction, so the pair
        # reconstructs the mixture to within one rounding of the add-back
        assert np.array_equal(accompaniment, mixture - vocals)
        np.testing.assert_allclose(vocals + accompaniment, mixture, rtol=0, atol=2.3e-16)

    def test_zero_output_layer_passes_mixture_through(self):
        net = init_net(tiny_config(seed=5))
        net.layers[-1].weights[:] = 0.0
        net.layers[-1].bias[:] = 0.0
        mixture = np.random.default_rng(75).uniform(-1, 1, 16)
        vocals, accompaniment = separate_signal(net, mixture)
        assert np.array_equal(vocals, np.zeros(16))
        assert np.array_equal(accompaniment, mixture)

    def test_forward_is_deterministic(self):
        net = init_net(tiny_config(seed=6))
        mixture = np.random.default_rng(76).uniform(-1, 1, 16)
        a, _ = separate_signal(net, mixture)
        b, _ = separate_signal(net, mixture)
        assert np.array_equal(a, b)

    def test_cache_retains_only_the_conv_outputs(self):
        config = NetConfig(depth=3, base_features=8, input_len=1024, seed=0)
        net = init_net(config)
        mixtures = np.random.default_rng(79).uniform(-1, 1, (8, 1024))
        outputs = 0
        for role, level, _, c_out, _ in _layer_plan(config):  # each in a buffer with its gaps
            t = config.input_len >> (config.depth if role == "bottleneck" else max(level - 1, 0))
            outputs += mixtures.shape[0] * c_out * (t + 2 * _gap(config)) * 8
        tracemalloc.start()
        try:
            vocals, cache = forward_batch(net, mixtures)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= outputs + 64 * 1024, f"{retained} bytes retained, conv outputs take {outputs}"

    def test_wrong_length_rejected(self):
        net = init_net(tiny_config())
        with pytest.raises(ShapeMismatch):
            forward_batch(net, np.zeros((2, 8)))


class TestBackward:
    def test_gradients_match_finite_differences(self):
        """Every weight and bias of a depth-2 net against central differences."""
        net = init_net(tiny_config(seed=9))
        rng = np.random.default_rng(77)
        mixtures = rng.uniform(-1, 1, (2, 16))
        cotangent = rng.standard_normal((2, 16))
        params = net.parameters()

        def objective(_params):
            vocals, _ = forward_batch(net, mixtures)
            return float(np.sum(vocals * cotangent))

        vocals, cache = forward_batch(net, mixtures)
        analytic = np.zeros_like(params)
        backward_batch(net, cache, cotangent, analytic)
        fd = oracles.finite_difference_flat(objective, params, h=1e-6)
        # h=1e-6 central differences bottom out around 1e-5 relative noise
        # on this net; the analytic result is the more accurate side.
        err = oracles.max_relative_error(analytic, fd)
        assert err < 2e-5, f"max rel err {err:.3e}"

    def test_gradient_shapes_match_parameters(self):
        """The gradient vector must be shaped as the parameters; backward adds into it, not over it."""
        net = init_net(tiny_config(seed=10))
        mixtures = np.random.default_rng(78).uniform(-1, 1, (3, 16))
        vocals, cache = forward_batch(net, mixtures)
        with pytest.raises(ShapeMismatch, match="gradient"):
            backward_batch(net, cache, np.ones_like(vocals), np.zeros(net.parameters().size - 1))
        once = np.zeros_like(net.parameters())
        backward_batch(net, cache, np.ones_like(vocals), once)
        twice = once.copy()
        backward_batch(net, forward_batch(net, mixtures)[1], np.ones_like(vocals), twice)
        np.testing.assert_array_equal(twice, once + once)

    def test_no_input_gradient_for_the_first_conv(self, monkeypatch):
        """One input-gradient tap loop per conv but the first, and one more per up conv, for its skip, besides the
        forward tap loop of each recomputed encoder level: nothing reads the mixture's gradient, so no loop writes its
        single channel."""
        net = init_net(tiny_config(seed=11))
        vocals, cache = forward_batch(net, np.random.default_rng(79).uniform(-1, 1, (2, 16)))
        rows, loop = [], net_module._shifted_sum
        monkeypatch.setattr(net_module, "_shifted_sum", lambda out, *a: rows.append(len(out)) or loop(out, *a))
        backward_batch(net, cache, np.ones_like(vocals), np.zeros_like(net.parameters()))
        recomputed = net_module._recomputed_levels(net.config)
        assert recomputed == 1
        assert len(rows) == len(net.layers) - 1 + sum(layer.role == "up" for layer in net.layers) + recomputed
        assert 1 not in rows

    @pytest.mark.parametrize(
        "config",
        [tiny_config(seed=12), tiny_config(depth=3, down_kernel=15, up_kernel=5, input_len=64, seed=12)],
        ids=["tiny", "depth3"],
    )
    @pytest.mark.parametrize("block", [None, 5], ids=["block", "block5"])
    def test_windows_are_independent(self, config, block, monkeypatch):
        """A batch gives each window's own output and the sum of their gradients: no
        tap reaches across the gaps, even where the coarsest level is shorter than a kernel,
        and every conv reads its taps at its own offset into the shared gap."""
        if block:
            monkeypatch.setattr(net_module, "_BLOCK", block)
        net = init_net(config)
        rng = np.random.default_rng(80)
        mixtures = rng.uniform(-1, 1, (3, config.input_len))
        cotangent = rng.standard_normal(mixtures.shape)
        vocals, cache = forward_batch(net, mixtures)
        grad = np.zeros_like(net.parameters())
        backward_batch(net, cache, cotangent, grad)
        np.testing.assert_allclose(vocals[0], reference_vocals(net, mixtures[0]), rtol=1e-12, atol=1e-15)
        summed = np.zeros_like(grad)
        for i in range(3):
            alone, cache = forward_batch(net, mixtures[i : i + 1])
            np.testing.assert_allclose(vocals[i], alone[0], rtol=1e-12)
            backward_batch(net, cache, cotangent[i : i + 1], summed)
        for layer, total in zip(_views(config, grad), _views(config, summed)):
            for g, t in ((layer.weights, total.weights), (layer.bias, total.bias)):
                # Entries that cancel to near zero are held to 1e-12 of the array's largest.
                np.testing.assert_allclose(g, t, rtol=1e-12, atol=1e-12 * np.abs(t).max())

    def test_no_pass_upsamples(self, monkeypatch):
        """Up convs read their lower input at the low rate in both passes: nothing builds it upsampled."""

        def refuse(*args):
            raise AssertionError("a pass upsampled at the full rate")

        monkeypatch.setattr(net_module, "_upsample", refuse)
        config = NetConfig(depth=3, base_features=8, input_len=1024, seed=0)
        net = init_net(config)
        vocals, cache = forward_batch(net, np.random.default_rng(85).uniform(-1, 1, (8, config.input_len)))
        grad = np.zeros_like(net.parameters())
        backward_batch(net, cache, np.ones_like(vocals), grad)
        assert np.isfinite(grad).all()

    def test_cotangent_shape_checked(self):
        net = init_net(tiny_config())
        vocals, cache = forward_batch(net, np.zeros((2, 16)))
        with pytest.raises(ShapeMismatch):
            backward_batch(net, cache, np.zeros((3, 16)), np.zeros_like(net.parameters()))

    @pytest.mark.parametrize(
        "config, batch, levels",
        [(NetConfig(), 2, 2),
         (NetConfig(depth=3, base_features=8, input_len=1024, seed=0), 8, 1),
         (tiny_config(seed=14), 3, 1),
         (NetConfig(depth=4, base_features=12, growth="add_base", input_len=4096, seed=1), 4, 1)],
        ids=["paper", "acceptance7", "depth2", "add_base"],
    )
    def test_recomputed_levels_give_the_held_bits(self, config, batch, levels, monkeypatch):
        """compute_loss with encoder levels 1..k released and recomputed in backward gives the loss and gradient,
        bit for bit, of the same code holding every activation (k forced to 0)."""
        net = init_net(config)
        rng = np.random.default_rng(86)
        mixtures = rng.uniform(-1, 1, (batch, config.input_len))
        batch_data, cfg = (mixtures, 0.5 * mixtures), TrainConfig(batch_size=batch)
        assert net_module._recomputed_levels(config) == levels
        loss, _, _, grad = compute_loss(net, batch_data, cfg)
        monkeypatch.setattr(net_module, "_recomputed_levels", lambda config: 0)
        held_loss, _, _, held_grad = compute_loss(net, batch_data, cfg)
        assert loss == held_loss
        assert np.array_equal(grad, held_grad)

    def test_recomputed_levels_stay_below_the_bottleneck(self, monkeypatch):
        """Level depth is read next by the bottleneck, right after its skip reader: it is never released."""
        assert net_module._recomputed_levels(NetConfig(depth=1, input_len=64)) == 0
        monkeypatch.setattr(net_module, "_RECOMPUTE", 1.0)
        assert net_module._recomputed_levels(NetConfig()) == 3

    def test_backward_consumes_the_cache(self):
        """Backward releases every activation, the recomputed encoder level too; reusing the cache fails by name,
        the vocals stay."""
        net = init_net(tiny_config(seed=13))
        assert net_module._recomputed_levels(net.config) == 1
        vocals, cache = forward_batch(net, np.random.default_rng(81).uniform(-1, 1, (2, 16)))
        kept, grad = vocals.copy(), np.zeros_like(net.parameters())
        backward_batch(net, cache, np.ones_like(vocals), grad)
        assert len(cache.activations) == len(net.layers)
        assert all(act is None for act in cache.activations)
        assert issubclass(ConsumedCache, HypersepError)
        with pytest.raises(ConsumedCache, match="already consumed"):
            backward_batch(net, cache, np.ones_like(vocals), grad)
        with pytest.raises(ConsumedCache, match="already consumed"):
            cache.vocals
        for idx in range(len(net.layers)):
            with pytest.raises(ConsumedCache, match="already consumed"):
                cache.conv_input(idx)
        with pytest.raises(ConsumedCache, match="already consumed"):
            cache.conv_inputs
        assert np.array_equal(vocals, kept)

    @pytest.mark.parametrize(
        "config, batch",
        [(NetConfig(depth=3, base_features=8, input_len=1024, seed=0), 8),
         (NetConfig(depth=4, base_features=24, input_len=4096, seed=0), 4)],
        ids=["acceptance7", "depth4"],
    )
    def test_backward_peak_stays_near_the_forward_peak(self, config, batch):
        """Backward frees each activation and each conv's rebuilt input once read, so its traced
        peak, the cache included, stays within 1.25x of the forward pass's. The gradient vector, like the
        parameters, is made before tracing: compute_loss holds it through every chunk of a step."""
        net = init_net(config)
        mixtures = np.random.default_rng(82).uniform(-1, 1, (batch, config.input_len))
        grad = np.zeros_like(net.parameters())
        tracemalloc.start()
        try:
            vocals, cache = forward_batch(net, mixtures)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            backward_batch(net, cache, np.ones_like(vocals), grad)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert backward_peak <= 1.25 * forward_peak, f"backward {backward_peak} B, forward {forward_peak} B"


    def test_paper_backward_peak_over_the_cache(self):
        """On the paper config, at the windows per call of a training step, backward's traced peak stays within 1.3x
        of the bytes the cache holds when forward returns: no pass builds an up conv's upsampled or concatenated
        input (1.75x when both did), and encoder levels 1 and 2 are not held through the decoder's backward
        (1.46x when they were)."""
        config = NetConfig()
        net = init_net(config)
        windows = _windows_per_call(TrainConfig().batch_size, config.input_len)
        mixtures = np.random.default_rng(82).uniform(-1, 1, (windows, config.input_len))
        grad = np.zeros_like(net.parameters())  # the caller's, held through a whole step: made before tracing
        tracemalloc.start()
        try:
            vocals, cache = forward_batch(net, mixtures)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward_batch(net, cache, np.ones_like(vocals), grad)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert backward_peak <= 1.3 * held, f"backward {backward_peak} B, cache {held} B"


class TestFilterBanks:
    def test_default_bank_count_is_twice_depth(self):
        net = init_net(NetConfig(depth=3, base_features=4, input_len=64, seed=0))
        banks = collect_filter_banks(net)
        assert len(banks) == 6

    def test_bottleneck_and_output_opt_in(self):
        cfg = NetConfig(depth=2, base_features=4, input_len=16, seed=0, bottleneck_own_layer=True)
        net = init_net(cfg)
        assert len(collect_filter_banks(net)) == 5

    def test_bank_rows_flatten_channel_major_then_tap(self):
        net = init_net(tiny_config(seed=2))
        banks = collect_filter_banks(net)
        layer = net.layers[banks[1].layer_id]
        c_out, c_in, kernel = layer.weights.shape
        assert banks[1].weights.shape == (c_out, c_in * kernel)
        # row o, column i * kernel + k must be weights[o, i, k]
        assert banks[1].weights[1, 1 * kernel + 2] == layer.weights[1, 1, 2]

    def test_banks_view_live_parameters(self):
        net = init_net(tiny_config(seed=2))
        bank = collect_filter_banks(net)[0]
        assert np.shares_memory(bank.weights, net.layers[bank.layer_id].weights)

    def test_layer_ids_index_into_layers(self):
        net = init_net(tiny_config(seed=2))
        for bank in collect_filter_banks(net):
            layer = net.layers[bank.layer_id]
            assert bank.weights.size == layer.weights.size


class TestSeparateSignal:
    def test_tail_padding_and_subtraction_identity(self):
        net = init_net(tiny_config(seed=11))
        rng = np.random.default_rng(79)
        mixture = rng.uniform(-1, 1, 41)  # 2 full windows + 9-sample tail
        vocals, acc = separate_signal(net, mixture)
        assert vocals.shape == mixture.shape
        assert np.array_equal(acc, mixture - vocals)
        # batched and single-window runs reorder the BLAS accumulations,
        # so agreement is to rounding, not bitwise
        first_window = forward_batch(net, mixture[None, :16])[0][0]
        np.testing.assert_allclose(vocals[:16], first_window, rtol=0, atol=1e-12)

    def test_chunks_give_their_forward_batch_vocals(self, monkeypatch):
        """At T=16384 a chunk is 2 windows, so 10 windows and a tail run as calls of 2, 2, 2, 2, 2 and 1
        (separation asks for 8 windows per call), and the vocals are those calls' bit for bit."""
        config = NetConfig(depth=4, base_features=4, input_len=16384, seed=0)
        net = init_net(config)
        mixture = np.random.default_rng(90).uniform(-1, 1, 10 * config.input_len + 100)
        windows = np.zeros((11, config.input_len))
        windows.reshape(-1)[: mixture.size] = mixture
        expected = np.concatenate([forward_batch(net, windows[s : s + 2])[0] for s in range(0, 11, 2)])
        seen, run = [], net_module.forward_batch
        monkeypatch.setattr(net_module, "forward_batch", lambda *args: seen.append(len(args[1])) or run(*args))
        vocals, _ = separate_signal(net, mixture)
        assert seen == [2, 2, 2, 2, 2, 1]
        assert np.array_equal(vocals, expected.reshape(-1)[: mixture.size])

    def test_peak_is_one_chunks_forward(self):
        """An 8-window signal, one separation batch, peaks as one 2-window chunk's forward pass does
        (T=16384): the signal-sized output separate_signal fills adds 8% here."""
        config = NetConfig(depth=4, base_features=4, input_len=16384, seed=0)
        net = init_net(config)
        mixture = np.random.default_rng(91).uniform(-1, 1, 8 * config.input_len)
        peaks = []
        for run in (lambda: forward_batch(net, mixture[: 2 * config.input_len].reshape(2, -1)),
                    lambda: separate_signal(net, mixture)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], f"separation {peaks[1]} B, one chunk's forward {peaks[0]} B"

    def test_every_pass_calls_forward_batch_per_chunk(self, monkeypatch):
        """Two 8-window training steps run four chunks of 2 windows each, a separation of 10 windows and a tail runs
        five chunks of 2 and one of 1."""
        config = NetConfig(depth=4, base_features=4, input_len=16384, seed=0)
        net = init_net(config)
        seen, run = [], net_module.forward_batch

        def record(*args):
            seen.append(len(args[1]))
            return run(*args)

        monkeypatch.setattr(net_module, "forward_batch", record)
        monkeypatch.setattr(training, "forward_batch", record)
        rng = np.random.default_rng(92)
        batch = rng.uniform(-1, 1, (2, 8, config.input_len))
        for _ in range(2):
            compute_loss(net, (batch[0], batch[1]), TrainConfig(batch_size=8, lambda_mode="off"))
        separate_signal(net, rng.uniform(-1, 1, 10 * config.input_len + 100))
        assert seen == [2] * 13 + [1]

    def test_empty_signal_rejected(self):
        net = init_net(tiny_config())
        with pytest.raises(ShapeMismatch):
            separate_signal(net, np.array([]))


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        net = init_net(tiny_config(seed=13))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        for a, b in zip(net.layers, loaded.layers):
            assert a.role == b.role and a.level == b.level
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_parameter_block_is_the_vector_and_loads_as_views(self, tmp_path):
        """The bytes after the header are the vector's little-endian float64s; the loaded layers view the loaded
        vector."""
        net = init_net(tiny_config(seed=13))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 5)
        assert blob[9 + hlen :] == net.parameters().astype("<f8").tobytes()
        loaded = load_checkpoint(path)
        assert_layers_tile(loaded)
        np.testing.assert_array_equal(loaded.parameters(), net.parameters())

    @pytest.mark.parametrize("layer, part, value", [(0, "weights", np.nan), (-1, "bias", np.inf)],
                             ids=["nan_weights", "inf_bias"])
    def test_nonfinite_parameters_rejected_naming_the_layer(self, tmp_path, layer, part, value):
        net = init_net(tiny_config(seed=13))
        getattr(net.layers[layer], part).reshape(-1)[-1] = value
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        with pytest.raises(CorruptHeader, match=f"non-finite parameters in layer {layer % len(net.layers)} {part}"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(CorruptHeader):
            load_checkpoint(path)

    def test_truncated_parameters_rejected(self, tmp_path):
        net = init_net(tiny_config(seed=13))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CorruptHeader):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        net = init_net(tiny_config(seed=13))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptHeader):
            load_checkpoint(path)

    @staticmethod
    def _edit_header(path, edit):
        import json
        import struct

        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 5)
        header = json.loads(blob[9 : 9 + hlen])
        edit(header)
        new_header = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(blob[:5] + struct.pack("<I", len(new_header)) + new_header + blob[9 + hlen :])

    def test_layer_mismatch_rejected(self, tmp_path):
        net = init_net(tiny_config(seed=13))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        self._edit_header(path, lambda h: h["layers"][0].update(kernel=7))
        with pytest.raises(IncompatibleShape):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("depth", "1"), ("depth", 0), ("bottleneck_own_layer", "false")])
    def test_invalid_header_config_rejected(self, tmp_path, key, value):
        path = tmp_path / "net.ckpt"
        save_checkpoint(init_net(tiny_config(seed=13)), path)
        self._edit_header(path, lambda h: h["config"].update({key: value}))
        with pytest.raises(InvalidConfig, match=key):
            load_checkpoint(path)
