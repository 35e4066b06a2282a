"""Release gate: nine product-level checks, one pass/fail line each.

Each check prints `ACCEPTANCE <n> (<name>): PASS` or `FAIL` so the gate
can be read off a captured run directly (pytest -rA shows the lines).
The slow directional-training check is number 7; everything else runs
in seconds.
"""

import functools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from hypersep.cli import cli
from hypersep.dataset import generate_dataset, load_split
from hypersep.energy import (
    FilterBank,
    MheConfig,
    all_configs,
    layer_energy,
    pair_distance,
    project_to_sphere,
)
from hypersep.net import NetConfig, collect_filter_banks, forward_batch, init_net, separate_signal
from hypersep.sdr import aggregate, segment_sdr
from hypersep.thomson import minimize_energy, reference_energy, shape_for_points
from hypersep.training import (
    FinetuneConfig,
    TrainConfig,
    compute_loss,
    resolve_lambda,
    train,
)

import oracles


def _report(number: int, name: str, passed: bool) -> None:
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {marker}")


def _gated(number, name):
    """Decorator printing the one-line verdict for a check."""

    def wrap(fn):
        @functools.wraps(fn)  # keeps the signature visible for fixture injection
        def run(self, *args, **kwargs):
            try:
                fn(self, *args, **kwargs)
            except BaseException:
                _report(number, name, False)
                raise
            _report(number, name, True)

        return run

    return wrap


@dataclass
class _Song:
    name: str
    vocals: np.ndarray
    accompaniment: np.ndarray
    mixture: np.ndarray
    sample_rate: int = 8000


@dataclass
class _Split:
    train: list
    validation: list


def _memory_split(seed: int, length: int = 512) -> _Split:
    rng = np.random.default_rng(seed)
    songs = []
    for i in range(3):
        t = np.arange(length)
        vocals = 0.4 * np.sin(2 * np.pi * t * rng.uniform(0.01, 0.1))
        accomp = 0.2 * rng.standard_normal(length)
        songs.append(_Song(f"s{i}", vocals, accomp, vocals + accomp))
    return _Split(songs[:2], songs[2:])


def _min_pairwise_angle(weights: np.ndarray) -> float:
    unit, _ = project_to_sphere(weights)
    dots = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    return float(np.min(np.arccos(np.max(dots, axis=1))))


class TestAcceptance:
    @_gated(1, "gradient correctness")
    def test_1_gradient_correctness(self):
        """100 random banks x 12 configurations, analytic vs central differences."""
        configs = all_configs()
        rng = np.random.default_rng(314)
        started = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(2, 9))
            weights = rng.standard_normal((n, d))
            for cfg in configs:
                result = layer_energy(FilterBank(weights), cfg)
                fd = oracles.finite_difference_gradient(
                    lambda x: layer_energy(FilterBank(x), cfg).energy, weights
                )
                # error at gradient scale: differences cannot certify entries
                # orders of magnitude below the vector norm
                err = np.max(np.abs(result.gradient - fd)) / max(1.0, np.max(np.abs(fd)))
                worst = max(worst, err)
        elapsed = time.perf_counter() - started
        assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    @_gated(2, "oracle equivalence")
    def test_2_oracle_equivalence(self):
        """Vectorized energy equals the brute-force double sum on 1000 banks."""
        configs = all_configs()
        rng = np.random.default_rng(271)
        for i in range(1000):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 11))
            weights = rng.standard_normal((n, d))
            cfg = configs[i % len(configs)]
            fast = layer_energy(FilterBank(weights), cfg)
            expected, clamped = oracles.brute_force_energy(
                weights, cfg.space, cfg.distance, cfg.s_power, cfg.clamp_epsilon
            )
            np.testing.assert_allclose(fast.energy, expected, rtol=1e-10, atol=1e-12)
            assert fast.clamped_pairs == clamped

    @_gated(3, "sphere-packing optima")
    def test_3_thomson_optima(self):
        """Descent reaches the catalogued optimal arrangements within 0.1%."""
        cfg = MheConfig(space="full", distance="euclidean", s_power=1)
        started = time.perf_counter()
        for n in (2, 3, 4, 6, 12):
            best, points = minimize_energy(n, 3, cfg, steps=2000, restarts=8, seed=0)
            reference = reference_energy(shape_for_points(n), cfg)
            gap = abs(best - reference) / reference
            assert gap <= 1e-3, f"N={n}: energy {best} vs reference {reference} (gap {gap:.2e})"
            np.testing.assert_allclose(np.linalg.norm(points.points, axis=1), 1.0, atol=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"

    @_gated(4, "energy identities")
    def test_4_identity_suite(self):
        rng = np.random.default_rng(99)
        banks = [rng.standard_normal((int(rng.integers(3, 7)), int(rng.integers(3, 9)))) for _ in range(5)]
        for weights in banks:
            for cfg in all_configs():
                base = layer_energy(FilterBank(weights), cfg)
                for scale in (0.01, 3.7):
                    scaled = layer_energy(FilterBank(scale * weights), cfg)
                    np.testing.assert_allclose(scaled.energy, base.energy, rtol=1e-12)
                perm = rng.permutation(weights.shape[0])
                shuffled = layer_energy(FilterBank(weights[perm]), cfg)
                np.testing.assert_allclose(shuffled.energy, base.energy, rtol=1e-12)
            for distance in ("euclidean", "angular"):
                for s_power in (0, 1, 2):
                    half = MheConfig(space="half", distance=distance, s_power=s_power)
                    full = MheConfig(space="full", distance=distance, s_power=s_power)
                    stacked = np.vstack([weights, -weights])
                    a = layer_energy(FilterBank(weights), half)
                    b = layer_energy(FilterBank(stacked), full)
                    assert a.energy == b.energy
                    assert a.clamped_pairs == b.clamped_pairs
        for theta in np.linspace(0.05, math.pi - 0.05, 29):
            a = np.array([1.0, 0.0])
            b = np.array([math.cos(theta), math.sin(theta)])
            chord = pair_distance(a, b, "euclidean", 1e-12)
            assert abs(chord - 2.0 * math.sin(theta / 2.0)) < 1e-9

    @_gated(5, "network correctness")
    def test_5_network_correctness(self):
        config = NetConfig(depth=2, down_kernel=5, up_kernel=3, base_features=2, input_len=16, seed=3)
        net = init_net(config)
        rng = np.random.default_rng(86)
        batch = (rng.uniform(-1, 1, (2, 16)), rng.uniform(-0.5, 0.5, (2, 16)))
        cfg = TrainConfig(
            batch_size=2,
            learning_rate=1e-3,
            iterations_per_epoch=1,
            patience_epochs=2,
            lambda_mode="inv_L",
            mhe=MheConfig(space="half", distance="euclidean", s_power=1),
            finetune=FinetuneConfig(enabled=False),
            seed=0,
        )
        params = net.parameters()
        _, _, _, analytic = compute_loss(net, batch, cfg)

        def objective(_params):
            loss, _, _, _ = compute_loss(net, batch, cfg)
            return loss

        fd = oracles.finite_difference_flat(objective, params, h=1e-6)
        err = oracles.max_relative_error(analytic, fd)
        assert err < 1e-4, f"full-loss gradient relative error {err:.3e}"

        mixtures = rng.uniform(-1, 1, (10, 16))
        for mixture in mixtures:
            vocals, accompaniment = separate_signal(net, mixture)
            np.testing.assert_array_equal(accompaniment, mixture - vocals)
            assert np.max(np.abs((vocals + accompaniment) - mixture)) <= 2.3e-16

        twin = init_net(config)
        np.testing.assert_array_equal(net.parameters(), twin.parameters())
        vocals, _ = forward_batch(net, mixtures)
        twin_vocals, _ = forward_batch(twin, mixtures)
        np.testing.assert_array_equal(twin_vocals, vocals)
        r1 = train(init_net(config), _memory_split(7, length=128), cfg)
        r2 = train(init_net(config), _memory_split(7, length=128), cfg)
        np.testing.assert_array_equal(r1.net.parameters(), r2.net.parameters())

    @_gated(6, "distortion-ratio suite")
    def test_6_sdr_suite(self):
        rng = np.random.default_rng(5)
        ref = rng.uniform(-1, 1, 8000)
        half = segment_sdr(ref, 0.5 * ref)
        assert abs(half - 10.0 * math.log10(4.0)) < 1e-3

        for seed in range(10):
            seeded = np.random.default_rng(seed)
            clean = seeded.standard_normal(8000)
            noisy = clean + 0.1 * seeded.standard_normal(8000)
            sdr = segment_sdr(clean, noisy)
            assert abs(sdr - 20.0) < 0.3, f"seed {seed}: {sdr:.3f} dB"

        report = aggregate({"vocals": {"a": [1.0, 2.0, 100.0], "b": [1.0, 2.0, 3.0, 4.0]}}, {"vocals": 0})
        by_song = {s.song: s for s in report.songs}
        assert by_song["a"].median == 2.0
        assert by_song["a"].mad == 1.0
        assert by_song["b"].median == 2.5
        assert by_song["b"].mad == 1.0

    @_gated(7, "directional filter diversity")
    def test_7_directional_training(self, tmp_path):
        """Energy-regularized runs must reduce the logged penalty and spread
        first-layer filters further apart than unregularized twins."""
        started = time.perf_counter()
        manifest = generate_dataset(4, 6.0, 8000, seed=20, out_dir=tmp_path / "ds")
        data = load_split(manifest)
        angles = {"off": [], "inv_L": []}
        penalty_drops = []
        for lam_mode in ("off", "inv_L"):
            for seed in (0, 1, 2):
                net = init_net(
                    NetConfig(depth=3, down_kernel=15, up_kernel=5, base_features=8,
                              input_len=1024, seed=seed)
                )
                cfg = TrainConfig(
                    batch_size=8,
                    learning_rate=1e-3,
                    iterations_per_epoch=100,
                    patience_epochs=5,
                    max_epochs=12,
                    lambda_mode=lam_mode,
                    mhe=MheConfig(space="half", distance="euclidean", s_power=0),
                    finetune=FinetuneConfig(enabled=False),
                    seed=seed,
                )
                result = train(net, data, cfg)
                records = result.log.records
                assert len(records) <= 30
                first_bank = collect_filter_banks(result.net)[0]
                angles[lam_mode].append(_min_pairwise_angle(first_bank.weights))
                if lam_mode == "inv_L":
                    best = next(r for r in records if r.epoch == result.best_epoch)
                    penalty_drops.append((records[0].mhe_penalty, best.mhe_penalty))
        for first, best in penalty_drops:
            assert best < first, f"penalty did not drop: epoch1 {first} vs best {best}"
        mean_off = float(np.mean(angles["off"]))
        mean_reg = float(np.mean(angles["inv_L"]))
        assert mean_reg > mean_off, f"min angles: regularized {mean_reg:.4f} vs plain {mean_off:.4f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 1800.0, f"took {elapsed:.0f}s"

    @_gated(8, "protocol fidelity")
    def test_8_protocol_fidelity(self):
        assert resolve_lambda(TrainConfig(lambda_mode="half_inv_L"), 8) == 0.0625
        assert resolve_lambda(TrainConfig(lambda_mode="inv_L"), 8) == 0.125
        assert resolve_lambda(TrainConfig(lambda_mode="one"), 8) == 1.0

        data = _memory_split(99)
        stops = {}
        for patience in (10, 20):
            net = init_net(NetConfig(depth=2, down_kernel=5, up_kernel=3, base_features=2,
                                     input_len=64, seed=3))
            cfg = TrainConfig(
                batch_size=2,
                learning_rate=1e-2,
                iterations_per_epoch=10,
                patience_epochs=patience,
                max_epochs=80,
                lambda_mode="off",
                finetune=FinetuneConfig(enabled=False),
                seed=12,
            )
            result = train(net, data, cfg)
            stops[patience] = len(result.log.records)
        assert stops[20] >= stops[10], f"patience 20 stopped at {stops[20]} before {stops[10]}"

    @_gated(9, "end-to-end pipeline")
    def test_9_end_to_end(self, tmp_path, capsys):
        started = time.perf_counter()
        data = tmp_path / "ds"
        assert cli(["gen-data", "--songs", "4", "--seconds", "4", "--rate", "8000",
                    "--seed", "33", "--out", str(data)]) == 0
        config = {
            "net": {"depth": 2, "down_kernel": 15, "up_kernel": 5, "base_features": 6,
                    "input_len": 512, "seed": 7},
            "batch_size": 4,
            "learning_rate": 1e-3,
            "iterations_per_epoch": 50,
            "patience_epochs": 3,
            "max_epochs": 5,
            "lambda_mode": "inv_L",
            "mhe": {"space": "half", "distance": "euclidean", "s_power": 0},
            "finetune": {"enabled": True, "max_epochs": 2},
            "seed": 7,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        ckpt = tmp_path / "net.ckpt"
        log = tmp_path / "log.csv"
        report = tmp_path / "report.csv"
        assert cli(["train", "--config", str(cfg_path), "--data", str(data),
                    "--out", str(ckpt), "--log", str(log)]) == 0
        assert cli(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                    "--report", str(report)]) == 0
        capsys.readouterr()

        rows = report.read_text().strip().splitlines()
        assert rows[0] == "song,source,segments,mean,median,sd,mad"
        assert len(rows) >= 5  # at least one song plus the dataset summaries per source
        sources = set()
        for row in rows[1:]:
            fields = row.split(",")
            sources.add(fields[1])
            assert int(fields[2]) >= 1
            for value in fields[3:]:
                assert np.isfinite(float(value)), f"non-finite statistic in {row!r}"
        assert sources == {"vocals", "accompaniment"}
        log_rows = log.read_text().strip().splitlines()
        assert log_rows[0].startswith("epoch,mse,mhe_penalty")
        assert len(log_rows) >= 2
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
