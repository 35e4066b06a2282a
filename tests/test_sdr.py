"""SDR segmentation, per-segment values, and aggregation statistics."""

import math

import numpy as np
import pytest

from hypersep.errors import EmptySignal, InvalidConfig, LengthMismatch
from hypersep.net import NetConfig, init_net
from hypersep.sdr import (
    aggregate,
    evaluate_songs,
    segment,
    segment_sdr,
)

import oracles


class TestSegment:
    def test_partial_tail_dropped(self):
        frames = segment(np.zeros(20000), 8000)
        assert len(frames) == 2
        assert all(f.size == 8000 for f in frames)

    def test_exact_second_is_one_frame(self):
        assert len(segment(np.zeros(8000), 8000)) == 1

    def test_short_signal_gives_no_frames(self):
        assert segment(np.zeros(4000), 8000) == []

    def test_empty_signal_rejected(self):
        with pytest.raises(EmptySignal):
            segment(np.array([]), 8000)

    def test_bad_rate_rejected(self):
        with pytest.raises(InvalidConfig):
            segment(np.zeros(100), 0)

    def test_frames_are_consecutive(self):
        signal = np.arange(10.0)
        frames = segment(signal, 3)
        np.testing.assert_array_equal(frames[0], [0, 1, 2])
        np.testing.assert_array_equal(frames[2], [6, 7, 8])


class TestSegmentSdr:
    def test_perfect_estimate_clamps_high(self):
        ref = np.sin(np.linspace(0, 20, 500))
        assert segment_sdr(ref, ref.copy()) == 100.0

    def test_half_amplitude_estimate(self):
        """est = ref/2 leaves an error of ref/2: 10*log10(4) dB."""
        ref = np.sin(np.linspace(0, 20, 500))
        assert segment_sdr(ref, 0.5 * ref) == pytest.approx(10.0 * math.log10(4.0), rel=1e-12)

    def test_silent_reference_with_noise_clamps_low(self):
        est = 0.1 * np.random.default_rng(91).standard_normal(400)
        assert segment_sdr(np.zeros(400), est) == -100.0

    def test_both_silent_is_zero_db(self):
        assert segment_sdr(np.zeros(100), np.zeros(100)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            segment_sdr(np.zeros(10), np.zeros(11))

    def test_additive_noise_matches_power_ratio(self):
        """Unit sine plus sigma=0.1 noise lands near 10*log10(0.5/0.01) dB."""
        expected = 10.0 * math.log10(0.5 / 0.01)
        t = np.arange(8000) / 8000.0
        ref = np.sin(2 * np.pi * 440 * t)
        for seed in range(10):
            noise = 0.1 * np.random.default_rng(seed).standard_normal(8000)
            assert segment_sdr(ref, ref + noise) == pytest.approx(expected, abs=0.3)

    def test_common_scaling_invariance(self):
        rng = np.random.default_rng(92)
        ref = rng.standard_normal(300)
        est = ref + 0.2 * rng.standard_normal(300)
        base = segment_sdr(ref, est)
        for c in (1e-3, 0.5, 7.0, 1e3):
            assert abs(segment_sdr(c * ref, c * est) - base) < 1e-9

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(93)
        for _ in range(20):
            ref = rng.standard_normal(64)
            est = ref + rng.uniform(0.01, 1.0) * rng.standard_normal(64)
            assert segment_sdr(ref, est) == pytest.approx(
                oracles.scalar_sdr(ref, est), rel=1e-10
            )


class TestAggregate:
    def test_constant_segments(self):
        report = aggregate({"vocals": {"a": [6.0, 6.0]}})
        song = report.songs[0]
        assert (song.mean, song.median, song.sd, song.mad) == (6.0, 6.0, 0.0, 0.0)
        assert report.pooled["vocals"].count == 2

    def test_outlier_resistant_median_and_mad(self):
        report = aggregate({"vocals": {"a": [1.0, 2.0, 100.0]}})
        song = report.songs[0]
        assert song.median == 2.0
        assert song.mad == 1.0

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(94)
        per_song = {
            "vocals": {f"s{i}": rng.uniform(-30, 30, int(rng.integers(3, 12))).tolist() for i in range(5)}
        }
        report = aggregate(per_song)
        for song in report.songs:
            values = per_song["vocals"][song.song]
            assert song.mean == pytest.approx(oracles.scalar_mean(values), rel=1e-12)
            assert song.median == pytest.approx(oracles.sorted_median(values), rel=1e-12)
            assert song.sd == pytest.approx(oracles.scalar_sd(values), rel=1e-12)
            assert song.mad == pytest.approx(oracles.sorted_mad(values), rel=1e-12)
        pooled_values = [v for vals in per_song["vocals"].values() for v in vals]
        assert report.pooled["vocals"].median == pytest.approx(
            oracles.sorted_median(pooled_values), rel=1e-12
        )
        assert report.pooled["vocals"].mad == pytest.approx(
            oracles.sorted_mad(pooled_values), rel=1e-12
        )
        song_means = [oracles.scalar_mean(v) for v in per_song["vocals"].values()]
        song_medians = [oracles.sorted_median(v) for v in per_song["vocals"].values()]
        assert report.song_level["vocals"].mean == pytest.approx(
            oracles.scalar_mean(song_means), rel=1e-12
        )
        assert report.song_level["vocals"].median == pytest.approx(
            oracles.sorted_median(song_medians), rel=1e-12
        )
        assert report.song_level["vocals"].sd == pytest.approx(
            oracles.scalar_sd(song_means), rel=1e-12
        )
        assert report.song_level["vocals"].mad == pytest.approx(
            oracles.sorted_mad(song_medians), rel=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(95)
        values = {f"s{i}": rng.uniform(-10, 10, 7).tolist() for i in range(4)}
        report_a = aggregate({"vocals": values})
        shuffled = {name: list(reversed(vals)) for name, vals in reversed(values.items())}
        report_b = aggregate({"vocals": shuffled})
        assert report_a.song_level["vocals"].median == report_b.song_level["vocals"].median
        assert report_a.pooled["vocals"].mean == pytest.approx(
            report_b.pooled["vocals"].mean, rel=1e-12
        )

    def test_median_survives_minority_silence(self):
        """Clamped silent segments wreck the mean but not the median."""
        loud = [10.0, 11.0, 12.0, 13.0, 14.0]
        report = aggregate({"vocals": {"a": loud + [-100.0, -100.0]}})
        song = report.songs[0]
        assert 10.0 <= song.median <= 14.0
        assert song.mean < 0.0

    def test_empty_population_rejected(self):
        with pytest.raises(InvalidConfig):
            aggregate({"vocals": {}})
        with pytest.raises(InvalidConfig):
            aggregate({"vocals": {"a": []}})

    def test_silent_counts_carried(self):
        report = aggregate({"vocals": {"a": [1.0]}}, {"vocals": 3})
        assert report.silent_segments == {"vocals": 3}


class TestEvaluateAndCsv:
    @staticmethod
    def make_song(rng, name, seconds, rate):
        n = seconds * rate
        t = np.arange(n) / rate
        vocals = 0.4 * np.sin(2 * np.pi * 4.0 * t)
        vocals[: rate] = 0.0  # one silent reference second
        accomp = 0.2 * rng.standard_normal(n)
        from test_training import FakeSong

        return FakeSong(name, vocals, accomp, vocals + accomp, sample_rate=rate)

    def test_end_to_end_report_structure(self):
        rng = np.random.default_rng(96)
        net = init_net(NetConfig(depth=2, down_kernel=5, up_kernel=3, base_features=2, input_len=16, seed=0))
        songs = [self.make_song(rng, f"song{i}", seconds=3, rate=32) for i in range(2)]
        report = evaluate_songs(net, songs)
        assert {s.source for s in report.songs} == {"vocals", "accompaniment"}
        assert len(report.songs) == 4
        assert report.silent_segments["vocals"] == 2  # one per song
        for s in report.songs:
            assert s.segments == 3
            assert -100.0 <= s.median <= 100.0
        assert set(report.song_level) == {"vocals", "accompaniment"}

    def test_csv_layout(self, tmp_path):
        import csv

        report = aggregate({"vocals": {"a": [1.0, 2.0]}, "accompaniment": {"a": [3.0]}})
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["song", "source", "segments", "mean", "median", "sd", "mad"]
        labels = {(r[0], r[1]) for r in rows[1:]}
        assert ("a", "vocals") in labels
        assert ("dataset_song_level", "vocals") in labels
        assert ("dataset_pooled", "accompaniment") in labels
        assert len(rows) == 1 + 2 + 2 + 2

    def test_csv_float_cells_read_back_exactly(self, tmp_path):
        import csv

        report = aggregate({"vocals": {"a": [0.1 + 0.2, 1 / 3, -100.0], "b": [1e-300]},
                            "accompaniment": {"a": [2 / 3, 1e-300, 0.1]}})
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        expected = [(s.song, s.source, s.segments, s.mean, s.median, s.sd, s.mad) for s in report.songs]
        for label, table in (("dataset_song_level", report.song_level), ("dataset_pooled", report.pooled)):
            expected += [(label, source, t.count, t.mean, t.median, t.sd, t.mad) for source, t in table.items()]
        assert len(rows) == len(expected) == 2 + 1 + 2 + 2
        for row, want in zip(rows, expected):
            assert row[:2] == list(want[:2]) and int(row[2]) == want[2]
            assert [float(cell) for cell in row[3:]] == list(want[3:])
        # the cells need all 17 significant digits: a 15-digit round trip would lose them
        assert any(float(f"{value:.15g}") != value for want in expected for value in want[3:])
