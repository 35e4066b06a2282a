"""Trainer tests: Adam, augmentation, loss assembly, the two-phase loop."""

import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from hypersep import net as net_module, training
from hypersep.energy import MheConfig, mhe_penalty
from hypersep.errors import Diverged, EmptyDataset, InvalidConfig, LengthMismatch, ShapeMismatch
from hypersep.net import NetConfig, collect_filter_banks, init_net
from hypersep.training import (
    AdamState,
    EpochRecord,
    FinetuneConfig,
    TrainConfig,
    TrainLog,
    adam_step,
    augment,
    compute_loss,
    net_config_from_dict,
    resolve_lambda,
    train,
    train_config_from_dict,
    validation_mse,
)

import oracles


@dataclass
class FakeSong:
    name: str
    vocals: np.ndarray
    accompaniment: np.ndarray
    mixture: np.ndarray
    sample_rate: int = 8000


@dataclass
class FakeSplit:
    train: list
    validation: list


def make_song(rng, length, name="song"):
    t = np.arange(length)
    vocals = 0.4 * np.sin(2 * np.pi * t * rng.uniform(0.01, 0.1)) * rng.uniform(0.5, 1.0)
    accompaniment = 0.2 * rng.standard_normal(length)
    return FakeSong(name, vocals, accompaniment, vocals + accompaniment)


def make_split(seed=0, n_train=2, n_val=1, length=200):
    rng = np.random.default_rng(seed)
    return FakeSplit(
        [make_song(rng, length, f"tr{i}") for i in range(n_train)],
        [make_song(rng, length, f"va{i}") for i in range(n_val)],
    )


def tiny_net(seed=0, **overrides):
    base = dict(depth=2, down_kernel=5, up_kernel=3, base_features=2, input_len=16, seed=seed)
    base.update(overrides)
    return init_net(NetConfig(**base))


def tiny_cfg(**overrides):
    base = dict(
        batch_size=2,
        learning_rate=1e-3,
        iterations_per_epoch=4,
        patience_epochs=2,
        max_epochs=4,
        lambda_mode="inv_L",
        mhe=MheConfig("half", "euclidean", 0),
        finetune=FinetuneConfig(max_epochs=2),
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def traced_peak(fn):
    """Peak bytes tracemalloc sees while fn runs, counted from nothing."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class StubRng:
    """Duck-typed generator returning a fixed uniform draw."""

    def __init__(self, value):
        self.value = value

    def uniform(self, low, high):
        assert low <= self.value <= high
        return self.value


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"beta1": 1.0},
            {"adam_epsilon": 0.0},
            {"iterations_per_epoch": 0},
            {"patience_epochs": 0},
            {"lambda_mode": "sometimes"},
            {"lambda_mode": "custom"},  # missing lambda_value
            {"augment_range": (0.0, 1.0)},
            {"augment_range": (0.9, 0.7)},
            {"seed": -2},
            {"learning_rate": np.inf},
            {"adam_epsilon": np.inf},
            {"finetune": {"learning_rate": np.inf}},  # built in the test: it raises
            {"lambda_mode": "custom", "lambda_value": np.inf},
            {"lambda_mode": "custom", "lambda_value": np.nan},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(InvalidConfig):
            if isinstance(overrides.get("finetune"), dict):
                overrides = {"finetune": FinetuneConfig(**overrides["finetune"])}
            tiny_cfg(**overrides)

    def test_defaults_follow_training_recipe(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 16
        assert cfg.learning_rate == 1e-4
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
        assert cfg.iterations_per_epoch == 1000
        assert cfg.augment_range == (0.7, 1.0)
        assert cfg.finetune.batch_multiplier == 2
        assert cfg.finetune.learning_rate == 1e-5

    @pytest.mark.parametrize(
        "overrides",
        [
            {"batch_size": "16"},
            {"batch_size": 16.0},
            {"batch_size": True},
            {"max_epochs": 2.5},
            {"seed": None},
            {"learning_rate": "1e-3"},
            {"beta1": True},
            {"lambda_mode": None},
            {"lambda_mode": "custom", "lambda_value": "0.1"},
            {"augment_range": (0.7,)},
            {"augment_range": [0.7, 1.0]},
            {"augment_range": 5},
            {"mhe": {"space": "half"}},
            {"finetune": None},
        ],
    )
    def test_wrong_types_rejected_naming_the_field(self, overrides):
        with pytest.raises(InvalidConfig, match=list(overrides)[-1]):
            tiny_cfg(**overrides)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"enabled": "no"},
            {"enabled": 1},
            {"batch_multiplier": 0},
            {"batch_multiplier": 2.0},
            {"learning_rate": 0.0},
            {"learning_rate": None},
            {"max_epochs": -1},
            {"max_epochs": "1"},
        ],
    )
    def test_finetune_config_checks_itself(self, kwargs):
        with pytest.raises(InvalidConfig, match=next(iter(kwargs))):
            FinetuneConfig(**kwargs)

    def test_numpy_ints_and_ints_for_floats_accepted(self):
        cfg = tiny_cfg(batch_size=np.int64(3), max_epochs=np.int32(2), learning_rate=1, beta1=0,
                       lambda_mode="custom", lambda_value=np.float32(0.5), augment_range=(np.float64(0.5), 1))
        assert cfg.batch_size == 3 and cfg.lambda_value == 0.5
        assert FinetuneConfig(enabled=False, max_epochs=0).max_epochs == 0

    def test_replace_checks_the_new_config(self):
        with pytest.raises(InvalidConfig, match="batch_size"):
            replace(TrainConfig(), batch_size=0)
        with pytest.raises(InvalidConfig, match="max_epochs"):
            replace(TrainConfig(), finetune=replace(FinetuneConfig(), max_epochs=-1))

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"batch_size": "16"}, "batch_size"),
            ({"augment_range": [0.7]}, "augment_range"),
            ({"augment_range": 5}, "augment_range"),
            ({"mhe": ["half"]}, "mhe"),
            ({"mhe": {"clamp_epsilon": "x"}}, "clamp_epsilon"),
            ({"finetune": 5}, "finetune"),
            ({"finetune": {"max_epochs": -1}}, "max_epochs"),
        ],
    )
    def test_config_from_dict_raises_only_invalid_config(self, data, field):
        with pytest.raises(InvalidConfig, match=field):
            train_config_from_dict(data)

    @pytest.mark.parametrize("data", [5, ["depth"], {"depth": "4"}, {"bottleneck_own_layer": "false"}])
    def test_net_config_from_dict_raises_only_invalid_config(self, data):
        with pytest.raises(InvalidConfig, match="net config"):
            net_config_from_dict(data)

    def test_lambda_resolution_for_eight_layers(self):
        assert resolve_lambda(tiny_cfg(lambda_mode="half_inv_L"), 8) == 0.0625
        assert resolve_lambda(tiny_cfg(lambda_mode="inv_L"), 8) == 0.125
        assert resolve_lambda(tiny_cfg(lambda_mode="one"), 8) == 1.0
        assert resolve_lambda(tiny_cfg(lambda_mode="off"), 8) == 0.0
        assert resolve_lambda(tiny_cfg(lambda_mode="custom", lambda_value=0.3), 8) == 0.3

    def test_config_from_dict_round_trip_and_unknown_keys(self):
        data = {
            "batch_size": 4,
            "lambda_mode": "half_inv_L",
            "mhe": {"space": "half", "distance": "angular", "s_power": 2},
            "finetune": {"max_epochs": 1},
            "augment_range": [0.8, 1.0],
        }
        cfg = train_config_from_dict(data)
        assert cfg.batch_size == 4
        assert cfg.mhe.distance == "angular"
        assert cfg.augment_range == (0.8, 1.0)
        with pytest.raises(InvalidConfig, match="batchsize"):
            train_config_from_dict({"batchsize": 4})
        with pytest.raises(InvalidConfig, match="spacing"):
            train_config_from_dict({"mhe": {"spacing": "half"}})
        with pytest.raises(InvalidConfig):
            net_config_from_dict({"dept": 2})

    @pytest.mark.parametrize("key", ["loss_on_both", "include_output_layer"])
    def test_removed_keys_rejected_by_name(self, key):
        with pytest.raises(InvalidConfig, match=key):
            train_config_from_dict({key: False})


class TestAdam:
    def test_first_step_delta(self):
        p = np.array([0.0])
        state = AdamState.for_params(p)
        adam_step(p, np.array([1.0]), state, lr=1e-4)
        assert p[0] == pytest.approx(-1e-4 / (1.0 + 1e-8), rel=1e-12)
        assert state.step == 1

    def test_zero_gradient_keeps_parameters(self):
        rng = np.random.default_rng(81)
        p = rng.standard_normal(6)
        before = p.copy()
        state = AdamState.for_params(p)
        for _ in range(5):
            adam_step(p, np.zeros(6), state, lr=0.1)
        assert np.array_equal(p, before)

    def test_quadratic_trajectory_matches_scalar_oracle(self):
        """10 steps on f(x) = x**2 from x = 1 with lr 0.1."""
        p = np.array([1.0])
        state = AdamState.for_params(p)
        mine = []
        for _ in range(10):
            adam_step(p, 2.0 * p, state, lr=0.1)
            mine.append(float(p[0]))
        expected = oracles.adam_scalar_trajectory(1.0, lambda x: 2.0 * x, lr=0.1, steps=10)
        np.testing.assert_allclose(mine, expected, rtol=1e-12)

    def test_update_holds_at_most_two_vector_sized_temporaries(self):
        """One update over a 2^20-element vector (8 MiB) traces at most 2 vectors + 1 MiB above the parameters,
        gradient and moments: three vector-sized temporaries at once would exceed it."""
        rng = np.random.default_rng(87)
        p, g = rng.standard_normal(2**20), rng.standard_normal(2**20)
        state = AdamState.for_params(p)
        peak = traced_peak(lambda: adam_step(p, g, state, lr=1e-4))
        assert peak <= 2 * p.nbytes + 2**20, f"{peak} B"

    def test_shape_mismatch_rejected(self):
        """The gradient and both moments must be shaped as the parameter vector; nothing moves otherwise."""
        p = np.zeros(4)
        state = AdamState.for_params(p)
        with pytest.raises(ShapeMismatch):
            adam_step(p, np.zeros(3), state, lr=0.1)
        with pytest.raises(ShapeMismatch):
            adam_step(np.zeros(5), np.zeros(5), state, lr=0.1)
        assert state.step == 0


class TestAugment:
    def test_unit_factor_is_identity(self):
        vocals = np.array([0.5, -0.25, 0.0])
        accomp = np.array([0.1, 0.2, 0.3])
        out_v, out_m = augment(vocals, accomp, StubRng(1.0))
        assert np.array_equal(out_v, vocals)
        assert np.array_equal(out_m, accomp + vocals)

    def test_attenuation_rebuilds_mixture(self):
        vocals = np.ones(8)
        accomp = np.zeros(8)
        out_v, out_m = augment(vocals, accomp, StubRng(0.7))
        np.testing.assert_allclose(out_v, 0.7, rtol=1e-15)
        np.testing.assert_allclose(out_m, 0.7, rtol=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            augment(np.zeros(4), np.zeros(5), StubRng(0.9))

    def test_factor_distribution_mean(self):
        """Empirical mean of the draw over 1e5 calls sits at 0.85 +/- 0.01."""
        rng = np.random.default_rng(82)
        one = np.ones(1)
        zero = np.zeros(1)
        draws = [augment(one, zero, rng)[0][0] for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.85) < 0.01
        assert 0.7 <= min(draws) and max(draws) <= 1.0


class TestComputeLoss:
    def test_lambda_off_reduces_to_mse(self, monkeypatch):
        """With the penalty off the loss is the bare MSE and no filter bank is built."""
        net = tiny_net(seed=1)
        rng = np.random.default_rng(83)
        batch = (rng.uniform(-1, 1, (2, 16)), rng.uniform(-0.5, 0.5, (2, 16)))
        vocals, cache = training.forward_batch(net, batch[0])
        err = vocals - batch[1]
        mse = float(np.mean(err * err))
        expected = np.zeros_like(net.parameters())
        training.backward_batch(net, cache, (2.0 / err.size) * err, expected)

        def no_banks(_net):
            raise AssertionError("collect_filter_banks called with the penalty off")

        monkeypatch.setattr(training, "collect_filter_banks", no_banks)
        loss, got_mse, penalty, grad = compute_loss(net, batch, tiny_cfg(lambda_mode="off"))
        assert (loss, got_mse, penalty) == (mse, mse, 0.0)
        np.testing.assert_array_equal(grad, expected)

    def test_zero_net_on_zero_targets_isolates_penalty(self):
        net = tiny_net(seed=1)
        net.layers[-1].weights[:] = 0.0
        rng = np.random.default_rng(84)
        batch = (rng.uniform(-1, 1, (2, 16)), np.zeros((2, 16)))
        cfg = tiny_cfg()
        loss, mse, penalty, _ = compute_loss(net, batch, cfg)
        assert mse == 0.0
        assert loss == penalty
        banks = collect_filter_banks(net)
        lam = resolve_lambda(cfg, len(banks))
        assert penalty == mhe_penalty(banks, cfg.mhe, lam)[0]

    @pytest.mark.parametrize("mode", ["off", "inv_L"])
    def test_total_gradient_matches_finite_differences(self, mode):
        """Full-loss gradients (MSE + penalty) against central differences."""
        net = tiny_net(seed=3)
        rng = np.random.default_rng(86)
        batch = (rng.uniform(-1, 1, (2, 16)), rng.uniform(-0.5, 0.5, (2, 16)))
        cfg = tiny_cfg(lambda_mode=mode)
        params = net.parameters()
        _, _, _, analytic = compute_loss(net, batch, cfg)

        def objective(_params):
            loss, _, _, _ = compute_loss(net, batch, cfg)
            return loss

        fd = oracles.finite_difference_flat(objective, params, h=1e-6)
        err = oracles.max_relative_error(analytic, fd)
        assert err < 1e-4, f"mode {mode}: rel err {err:.3e}"

    @pytest.mark.parametrize("chunk, windows, sizes", [(32, 5, [2, 2, 1]), (8, 3, [1, 1, 1]), (32, 1, [1])],
                             ids=["ragged", "window_over_chunk", "one_window"])
    def test_chunks_sum_to_the_whole_batch(self, chunk, windows, sizes, monkeypatch):
        """A batch run in chunks of at most _CHUNK samples, at least one window each, gives the loss and
        gradients of one whole-batch forward and backward pass."""
        net = tiny_net(seed=2)
        rng = np.random.default_rng(87)
        batch = (rng.uniform(-1, 1, (windows, 16)), rng.uniform(-0.5, 0.5, (windows, 16)))
        vocals, cache = training.forward_batch(net, batch[0])
        err = vocals - batch[1]
        mse = float(np.mean(err * err))
        expected = np.zeros_like(net.parameters())
        training.backward_batch(net, cache, (2.0 / err.size) * err, expected)
        seen, run = [], training.forward_batch
        monkeypatch.setattr(training, "forward_batch", lambda *args: seen.append(len(args[1])) or run(*args))
        monkeypatch.setattr(net_module, "_CHUNK", chunk)
        loss, got_mse, _, grad = compute_loss(net, batch, tiny_cfg(lambda_mode="off"))
        assert seen == sizes
        assert abs(loss - mse) <= 1e-15 * mse and got_mse == loss
        for layer, whole in zip(net_module._views(net.config, grad), net_module._views(net.config, expected)):
            for g, e in ((layer.weights, whole.weights), (layer.bias, whole.bias)):
                assert np.abs(g - e).max() <= 1e-15 * np.abs(e).max()

    def test_peak_does_not_grow_with_the_batch(self):
        """Each chunk's cache is gone before the next chunk runs: a 3-chunk batch peaks as a 1-chunk one does."""
        window = net_module._CHUNK // 2
        net = tiny_net(seed=2, input_len=window)
        rng = np.random.default_rng(88)
        mixtures, targets = rng.uniform(-1, 1, (6, window)), rng.uniform(-0.5, 0.5, (6, window))
        cfg = tiny_cfg(lambda_mode="off")
        one = traced_peak(lambda: compute_loss(net, (mixtures[:2], targets[:2]), cfg))
        three = traced_peak(lambda: compute_loss(net, (mixtures, targets), cfg))
        assert three <= 1.15 * one, f"3 chunks {three} B, 1 chunk {one} B"

    def test_bad_batches_rejected(self):
        net = tiny_net()
        cfg = tiny_cfg()
        with pytest.raises(ShapeMismatch):
            compute_loss(net, (np.zeros((2, 16)), np.zeros((2, 8))), cfg)
        with pytest.raises(ShapeMismatch):
            compute_loss(net, (np.zeros((0, 16)), np.zeros((0, 16))), cfg)


def scripted_train(monkeypatch, patience, scores, finetune=True):
    """train with the penalty off and both phases uncapped, validation_mse scoring the log's epoch e as scores[e - 1]
    and 5.0 past their end; returns the result and the net scored at each epoch, by epoch."""
    scored = {}

    def score(net, songs):
        epoch = len(scored) + 1
        scored[epoch] = net.clone()
        return scores[epoch - 1] if epoch <= len(scores) else 5.0

    monkeypatch.setattr(training, "validation_mse", score)
    cfg = tiny_cfg(lambda_mode="off", patience_epochs=patience, max_epochs=None, iterations_per_epoch=1,
                   finetune=FinetuneConfig(enabled=finetune, max_epochs=None))
    return train(tiny_net(seed=4), make_split(seed=1), cfg), scored


def assert_same_net(a, b):
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)


class TestPatience:
    @pytest.mark.parametrize("patience", [1, 3, 5])
    def test_phase_one_stops_patience_epochs_after_its_best(self, monkeypatch, patience):
        """Scores 9, 8, 7, 6, 5, then flat: phase one keeps epoch 5 and its last epoch is 5 + patience."""
        result, scored = scripted_train(monkeypatch, patience, [9.0, 8.0, 7.0, 6.0, 5.0], finetune=False)
        assert [r.epoch for r in result.log.records] == list(range(1, 6 + patience))
        assert [r.val_loss for r in result.log.records[:5]] == [9.0, 8.0, 7.0, 6.0, 5.0]
        assert (result.best_epoch, result.best_val_loss) == (5, 5.0)
        assert_same_net(result.net, scored[5])

    @pytest.mark.parametrize("patience", [1, 3, 5])
    def test_flat_phase_two_stops_patience_epochs_after_it_starts(self, monkeypatch, patience):
        """A phase two that never beats 5.0 runs `patience` epochs after phase one's last, 5 + patience, and
        returns phase one's best."""
        result, scored = scripted_train(monkeypatch, patience, [9.0, 8.0, 7.0, 6.0, 5.0])
        assert [r.epoch for r in result.log.records] == list(range(1, 6 + 2 * patience))
        assert (result.best_epoch, result.best_val_loss) == (5, 5.0)
        assert_same_net(result.net, scored[5])

    def test_improving_phase_two_moves_the_best_and_the_stop(self, monkeypatch):
        """At patience 3 phase one ends at epoch 8; phase two's second epoch (10) scores 4.0, so it stops at 13."""
        scores = [9.0, 8.0, 7.0, 6.0, 5.0, 5.0, 5.0, 5.0, 5.0, 4.0]
        result, scored = scripted_train(monkeypatch, 3, scores + [4.0] * 10)
        assert len(result.log.records) == 13
        assert (result.best_epoch, result.best_val_loss) == (10, 4.0)
        assert_same_net(result.net, scored[10])


class TestTrainLoop:
    def test_log_and_best_checkpoint_consistency(self):
        net = tiny_net(seed=4)
        data = make_split(seed=1)
        result = train(net, data, tiny_cfg())
        records = result.log.records
        assert records, "at least one epoch must run"
        assert [r.epoch for r in records] == list(range(1, len(records) + 1))
        for r in records:
            assert r.val_loss == r.val_mse + r.mhe_penalty
            assert r.lambda_h == resolve_lambda(tiny_cfg(), 4)
        # the logged penalty at the best epoch is reproducible from the
        # returned checkpoint's weights
        cfg = tiny_cfg()
        banks = collect_filter_banks(result.net)
        recomputed = mhe_penalty(banks, cfg.mhe, records[0].lambda_h)[0]
        assert recomputed == records[result.best_epoch - 1].mhe_penalty
        assert result.best_val_loss == min(r.val_loss for r in records)

    def test_fixed_seed_runs_are_bit_identical(self):
        cfg = tiny_cfg()
        a = train(tiny_net(seed=4), make_split(seed=1), cfg)
        b = train(tiny_net(seed=4), make_split(seed=1), cfg)
        assert len(a.log.records) == len(b.log.records)
        for ra, rb in zip(a.log.records, b.log.records):
            assert ra.train_mse == rb.train_mse
            assert ra.mhe_penalty == rb.mhe_penalty
            assert ra.val_loss == rb.val_loss
        for la, lb in zip(a.net.layers, b.net.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_lambda_off_equals_custom_zero(self):
        """Energy off and an explicit zero weight train identically."""
        off = train(tiny_net(seed=5), make_split(seed=2), tiny_cfg(lambda_mode="off"))
        zero = train(
            tiny_net(seed=5), make_split(seed=2), tiny_cfg(lambda_mode="custom", lambda_value=0.0)
        )
        assert [r.train_mse for r in off.log.records] == [r.train_mse for r in zero.log.records]

    def test_doubled_patience_trains_at_least_as_long(self):
        short = train(tiny_net(seed=6), make_split(seed=3), tiny_cfg(patience_epochs=1, max_epochs=8))
        long = train(tiny_net(seed=6), make_split(seed=3), tiny_cfg(patience_epochs=2, max_epochs=8))
        assert len(long.log.records) >= len(short.log.records)

    def test_training_lowers_validation_loss(self):
        net = tiny_net(seed=7)
        data = make_split(seed=4)
        cfg = tiny_cfg(max_epochs=3, iterations_per_epoch=12)
        baseline = validation_mse(net, data.validation)
        result = train(net, data, cfg)
        assert result.log.records[-1].val_mse < baseline

    @pytest.mark.parametrize("net_seed, data_seed", [(4, 1), (9, 6)])
    def test_best_val_loss_is_the_returned_nets_score(self, net_seed, data_seed):
        """Phase two starts from phase one's best_val_loss, which must equal a fresh score of the returned net."""
        data = make_split(seed=data_seed)
        cfg = tiny_cfg()
        result = phase_one(tiny_net(seed=net_seed), data, cfg)
        banks = collect_filter_banks(result.net)
        penalty = mhe_penalty(banks, cfg.mhe, resolve_lambda(cfg, len(banks)))[0]
        assert result.best_val_loss == validation_mse(result.net, data.validation) + penalty

    def test_short_songs_raise_empty_dataset(self):
        rng = np.random.default_rng(88)
        split = FakeSplit([make_song(rng, 8)], [make_song(rng, 200)])
        with pytest.raises(EmptyDataset):
            train(tiny_net(), split, tiny_cfg())


class TestValidationMse:
    def test_peak_is_one_forward_pass(self):
        """No call's cache outlives its MSE, and a call holds one chunk: the traced peak is that of one chunk's
        forward pass, 8 windows at T=1024 over a 24-window song, and 2 at T=16384 over a 32-window song."""
        for config, windows, chunk in [(NetConfig(depth=3, base_features=8, input_len=1024), 24, 8),
                                       (NetConfig(depth=4, base_features=4, input_len=16384), 32, 2)]:
            net, t = init_net(config), config.input_len
            song = make_song(np.random.default_rng(89), windows * t)
            forward_peak = traced_peak(lambda: training.forward_batch(net, song.mixture[: chunk * t].reshape(chunk, t)))
            validation_peak = traced_peak(lambda: validation_mse(net, [song]))
            assert validation_peak <= 1.1 * forward_peak, f"T={t}: validation {validation_peak} B, one chunk {forward_peak} B"


class TestDivergence:
    @pytest.mark.parametrize("mode", ["inv_L", "off"])
    def test_huge_learning_rate_raises_diverged_in_first_epoch(self, mode):
        with pytest.raises(Diverged) as info, np.errstate(over="ignore", invalid="ignore"):
            train(tiny_net(seed=4), make_split(seed=1), tiny_cfg(learning_rate=1e200, lambda_mode=mode))
        assert info.value.epoch == 1
        assert info.value.iteration is not None

    def test_nonfinite_parameter_names_its_layer(self, monkeypatch):
        real_step, net = training.adam_step, tiny_net(seed=4)
        first, second = net.layers[:2]
        bias = first.weights.size + first.bias.size + second.weights.size  # layer 1 bias[0] in the vector

        def poisoned_step(params, *args):
            real_step(params, *args)
            params[bias] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoned_step)
        with pytest.raises(Diverged, match="layer 1 bias") as info:
            train(net, make_split(seed=1), tiny_cfg())
        assert (info.value.epoch, info.value.iteration, info.value.layer_id) == (1, 1, 1)

    def test_phase_two_divergence_carries_phase_one_epochs(self):
        """Phase two numbers its epochs on from phase one's, in the error and in its records."""
        cfg = tiny_cfg(patience_epochs=5, max_epochs=2, finetune=FinetuneConfig(max_epochs=2, learning_rate=1e200))
        with pytest.raises(Diverged, match="at epoch 3, iteration") as info, np.errstate(over="ignore", invalid="ignore"):
            train(tiny_net(seed=4), make_split(seed=1), cfg)
        assert info.value.epoch == 3
        assert [r.epoch for r in info.value.records] == [1, 2]

    def test_nonfinite_validation_loss_stops_at_once(self, monkeypatch):
        monkeypatch.setattr(training, "validation_mse", lambda *args: np.nan)
        with pytest.raises(Diverged, match="validation loss") as info:
            train(tiny_net(seed=4), make_split(seed=1), tiny_cfg())
        assert (info.value.epoch, info.value.iteration, info.value.layer_id) == (1, None, None)


def phase_one(net, data, cfg):
    """train with fine-tuning off: phase one alone."""
    return train(net, data, replace(cfg, finetune=FinetuneConfig(enabled=False)))


def without_seconds(records):
    return [replace(r, seconds=0.0) for r in records]


class TestFinetune:
    def test_derived_config_doubles_batch_and_drops_lr(self, monkeypatch):
        """Phase one steps at the configured batch and learning rate, phase two at double the batch and the
        fine-tuning learning rate; patience above max_epochs makes each phase run two epochs of 4 steps."""
        seen = []
        real_loss, real_step = training.compute_loss, training.adam_step

        def spy_loss(net, batch, cfg):
            seen.append(len(batch[0]))
            return real_loss(net, batch, cfg)

        def spy_step(params, grads, state, lr, *args):
            seen[-1] = (seen[-1], lr)
            real_step(params, grads, state, lr, *args)

        monkeypatch.setattr(training, "compute_loss", spy_loss)
        monkeypatch.setattr(training, "adam_step", spy_step)
        train(tiny_net(seed=8), make_split(seed=5), tiny_cfg(patience_epochs=5, max_epochs=2))
        assert seen == [(2, 1e-3)] * 8 + [(4, 1e-5)] * 8

    def test_zero_epoch_finetune_returns_input(self):
        """With phase two's max_epochs=0, train returns phase one's net, log and best epoch."""
        data = make_split(seed=5)
        cfg = tiny_cfg(max_epochs=2, finetune=FinetuneConfig(max_epochs=0))
        phase1 = phase_one(tiny_net(seed=8), data, cfg)
        result = train(tiny_net(seed=8), data, cfg)
        assert (result.best_epoch, result.best_val_loss) == (phase1.best_epoch, phase1.best_val_loss)
        assert without_seconds(result.log.records) == without_seconds(phase1.log.records)
        for la, lb in zip(phase1.net.layers, result.net.layers):
            assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)

    def test_finetune_never_worse_than_input(self):
        """Phase two ends no worse than phase one, and the net passed in ends at its final phase-one state."""
        net = tiny_net(seed=9)
        phase1_net = net.clone()
        data = make_split(seed=6)
        cfg = tiny_cfg(max_epochs=3)
        phase1 = phase_one(phase1_net, data, cfg)
        result = train(net, data, cfg)
        assert len(result.log.records) > len(phase1.log.records)
        assert result.best_val_loss <= phase1.best_val_loss
        for la, lb in zip(phase1_net.layers, net.layers):
            assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)

    @pytest.mark.parametrize(
        "ft", [FinetuneConfig(max_epochs=0), FinetuneConfig(max_epochs=2, learning_rate=0.3)], ids=["zero", "worse"]
    )
    def test_no_improving_epoch_returns_input_and_its_score(self, ft):
        """A phase two that never beats phase one's score returns phase one's best weights, epoch and score."""
        data = make_split(seed=5)
        cfg = tiny_cfg(max_epochs=2, finetune=ft)
        phase1 = phase_one(tiny_net(seed=8), data, cfg)
        result = train(tiny_net(seed=8), data, cfg)
        assert len(result.log.records) == len(phase1.log.records) + ft.max_epochs
        assert (result.best_epoch, result.best_val_loss) == (phase1.best_epoch, phase1.best_val_loss)
        for la, lb in zip(phase1.net.layers, result.net.layers):
            assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)


class TestTrainLog:
    def test_epochs_must_increase(self):
        rec = EpochRecord(1, 0.1, 0.2, 0.3, 0.5, 0.0, 0.1)
        with pytest.raises(InvalidConfig):
            TrainLog([rec, rec])

    def test_csv_round_trip(self, tmp_path):
        import csv as csv_mod

        records = [
            EpochRecord(1, 0.5, 0.25, 0.75, 0.125, 1.5, 0.5),
            EpochRecord(2, 0.25, 0.2, 0.45, 0.125, 1.4, 0.25),
        ]
        path = tmp_path / "log.csv"
        TrainLog(records).write_csv(path)
        with open(path) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == ["epoch", "mse", "mhe_penalty", "val_loss", "lambda", "seconds", "val_mse"]
        assert len(rows) == 3
        assert float(rows[1][1]) == 0.5
        assert float(rows[2][3]) == 0.45
