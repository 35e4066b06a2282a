"""Dataset generation, manifest, and loader tests."""

import json

import numpy as np
import pytest

import hypersep
from hypersep.dataset import (
    Song,
    _assign_splits,
    build_manifest_from_dir,
    generate_dataset,
    load_manifest,
    load_song,
    load_split,
    save_manifest,
)
from hypersep.errors import InvalidConfig, IoError, LengthMismatch
from hypersep.wavio import write_wav


def song_bytes(root):
    """Concatenated bytes of every WAV under root, in sorted path order."""
    return b"".join(p.read_bytes() for p in sorted(root.rglob("*.wav")))


class TestSongInvariants:
    def test_accepts_exact_sum(self):
        v = np.array([0.1, 0.2])
        a = np.array([0.3, -0.1])
        Song("ok", v, a, v + a, 8000)

    def test_accepts_one_lsb_slack(self):
        v = np.array([0.1])
        a = np.array([0.2])
        Song("edge", v, a, v + a + 1.0 / 32768.0, 8000)

    def test_rejects_large_residual(self):
        v = np.array([0.1])
        a = np.array([0.2])
        with pytest.raises(InvalidConfig):
            Song("bad", v, a, v + a + 3.0 / 32768.0, 8000)

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            Song("short", np.zeros(3), np.zeros(4), np.zeros(4), 8000)


class TestGeneration:
    def test_seed_determinism_is_byte_identical(self, tmp_path):
        m1 = generate_dataset(2, 1.5, 4000, seed=9, out_dir=tmp_path / "a")
        m2 = generate_dataset(2, 1.5, 4000, seed=9, out_dir=tmp_path / "b")
        assert song_bytes(m1.root) == song_bytes(m2.root)
        assert m1.splits == m2.splits

    def test_different_seeds_differ(self, tmp_path):
        m1 = generate_dataset(1, 1.0, 4000, seed=1, out_dir=tmp_path / "a")
        m2 = generate_dataset(1, 1.0, 4000, seed=2, out_dir=tmp_path / "b")
        assert song_bytes(m1.root) != song_bytes(m2.root)

    def test_mixture_identity_is_exact(self, tmp_path):
        manifest = generate_dataset(3, 2.0, 4000, seed=3, out_dir=tmp_path / "ds")
        for name in manifest.songs:
            song = load_song(manifest, name)
            np.testing.assert_array_equal(song.mixture, song.vocals + song.accompaniment)

    def test_amplitudes_bounded(self, tmp_path):
        manifest = generate_dataset(2, 1.0, 4000, seed=4, out_dir=tmp_path / "ds")
        for name in manifest.songs:
            song = load_song(manifest, name)
            assert np.max(np.abs(song.mixture)) <= 1.0
            assert np.max(np.abs(song.vocals)) <= 0.5
            assert np.max(np.abs(song.accompaniment)) <= 0.55

    def test_vocals_have_silent_stretch(self, tmp_path):
        manifest = generate_dataset(3, 4.0, 4000, seed=5, out_dir=tmp_path / "ds")
        for name in manifest.songs:
            song = load_song(manifest, name)
            assert np.mean(song.vocals == 0.0) >= 0.10

    def test_vocals_not_trivial(self, tmp_path):
        manifest = generate_dataset(1, 2.0, 4000, seed=6, out_dir=tmp_path / "ds")
        song = load_song(manifest, "song000")
        assert np.max(np.abs(song.vocals)) > 0.3
        assert np.max(np.abs(song.accompaniment)) > 0.3

    def test_rejects_low_sample_rate(self, tmp_path):
        with pytest.raises(InvalidConfig):
            generate_dataset(1, 1.0, 1000, seed=0, out_dir=tmp_path / "ds")

    def test_rejects_zero_songs(self, tmp_path):
        with pytest.raises(InvalidConfig):
            generate_dataset(0, 1.0, 4000, seed=0, out_dir=tmp_path / "ds")

    @pytest.mark.parametrize("seconds, samples", [(0.001, 8), (0.000125, 1)])
    def test_songs_shorter_than_the_smoothing_window(self, tmp_path, seconds, samples):
        """At 8 kHz the accompaniment's Hann window is up to 27 samples wide; a shorter song keeps its length."""
        manifest = generate_dataset(1, seconds, 8000, seed=0, out_dir=tmp_path / "ds")
        (song,) = load_split(load_manifest(tmp_path / "ds")).train
        assert len(song.vocals) == len(song.accompaniment) == samples
        np.testing.assert_array_equal(song.mixture, song.vocals + song.accompaniment)
        assert set(manifest.songs) == {song.name}

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan"), float("inf"), 1e-9, 1e308])
    def test_rejects_durations_without_a_finite_sample_count(self, tmp_path, seconds):
        with pytest.raises(InvalidConfig, match="duration_s"):
            generate_dataset(1, seconds, 4000, seed=0, out_dir=tmp_path / "ds")
        assert not (tmp_path / "ds").exists()


class TestSplits:
    def test_single_song_goes_to_train(self):
        rng = np.random.default_rng(0)
        assert _assign_splits(["only"], rng) == {"train": ["only"], "validation": [], "test": []}

    def test_two_songs_skip_test(self):
        rng = np.random.default_rng(0)
        splits = _assign_splits(["a", "b"], rng)
        assert len(splits["train"]) == 1 and len(splits["validation"]) == 1
        assert splits["test"] == []

    def test_quarter_held_out(self):
        rng = np.random.default_rng(0)
        for n, held in [(3, 1), (4, 1), (8, 2), (12, 3)]:
            names = [f"s{i}" for i in range(n)]
            splits = _assign_splits(names, rng)
            assert len(splits["validation"]) == held
            assert len(splits["test"]) == held
            assert len(splits["train"]) == n - 2 * held

    def test_splits_partition_names(self):
        rng = np.random.default_rng(3)
        names = [f"s{i}" for i in range(10)]
        splits = _assign_splits(names, rng)
        combined = splits["train"] + splits["validation"] + splits["test"]
        assert sorted(combined) == names


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = generate_dataset(4, 1.0, 4000, seed=7, out_dir=tmp_path / "ds")
        loaded = load_manifest(manifest.root)
        assert loaded.sample_rate == 4000
        assert loaded.seed == 7
        assert loaded.songs == manifest.songs
        assert loaded.splits == manifest.splits

    def test_load_accepts_directory_or_file(self, tmp_path):
        manifest = generate_dataset(1, 1.0, 4000, seed=7, out_dir=tmp_path / "ds")
        by_dir = load_manifest(manifest.root)
        by_file = load_manifest(manifest.root / "manifest.json")
        assert by_dir.songs == by_file.songs

    def test_missing_stem_rejected(self, tmp_path):
        manifest = generate_dataset(1, 1.0, 4000, seed=7, out_dir=tmp_path / "ds")
        (manifest.root / "song000" / "vocals.wav").unlink()
        with pytest.raises(IoError):
            load_manifest(manifest.root)

    def test_overlapping_splits_rejected(self, tmp_path):
        manifest = generate_dataset(2, 1.0, 4000, seed=7, out_dir=tmp_path / "ds")
        manifest.splits = {"train": ["song000", "song001"], "validation": ["song001"], "test": []}
        save_manifest(manifest)
        with pytest.raises(InvalidConfig):
            load_manifest(manifest.root)

    def test_unknown_format_rejected(self, tmp_path):
        manifest = generate_dataset(1, 1.0, 4000, seed=7, out_dir=tmp_path / "ds")
        path = manifest.root / "manifest.json"
        payload = json.loads(path.read_text())
        payload["format"] = "who-knows-v9"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfig):
            load_manifest(manifest.root)

    def test_garbage_json_rejected(self, tmp_path):
        manifest = generate_dataset(1, 1.0, 4000, seed=7, out_dir=tmp_path / "ds")
        (manifest.root / "manifest.json").write_text("{not json")
        with pytest.raises(InvalidConfig):
            load_manifest(manifest.root)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: [payload],  # top level an array
            lambda payload: {**payload, "songs": {"song000": 0}},  # directory a number
            lambda payload: {**payload, "splits": {"train": [["song000"]]}},  # name a list
            lambda payload: {**payload, "splits": []},
            lambda payload: {**payload, "splits": "x"},
            lambda payload: {**payload, "splits": 5},
            lambda payload: {**payload, "splits": None},
        ],
        ids=["array", "number_dir", "list_name", "splits_array", "splits_string", "splits_number", "splits_null"],
    )
    def test_wrong_json_types_rejected(self, tmp_path, edit):
        manifest = generate_dataset(1, 1.0, 4000, seed=7, out_dir=tmp_path / "ds")
        path = manifest.root / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(InvalidConfig):
            load_manifest(manifest.root)

    def test_missing_manifest_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_manifest(tmp_path / "nowhere")


class TestLoaders:
    def test_load_split_partitions(self, tmp_path):
        manifest = generate_dataset(4, 1.0, 4000, seed=8, out_dir=tmp_path / "ds")
        data = load_split(manifest)
        assert len(data.train) == 2
        assert len(data.validation) == 1
        assert len(data.test) == 1
        names = {s.name for s in data.train + data.validation + data.test}
        assert names == set(manifest.songs)

    def test_missing_mixture_recomputed(self, tmp_path):
        manifest = generate_dataset(1, 1.0, 4000, seed=8, out_dir=tmp_path / "ds")
        (manifest.root / "song000" / "mixture.wav").unlink()
        song = load_song(manifest, "song000")
        np.testing.assert_array_equal(song.mixture, song.vocals + song.accompaniment)

    def test_unknown_song_rejected(self, tmp_path):
        manifest = generate_dataset(1, 1.0, 4000, seed=8, out_dir=tmp_path / "ds")
        with pytest.raises(InvalidConfig):
            load_song(manifest, "song999")

    def test_rate_mismatch_rejected(self, tmp_path):
        manifest = generate_dataset(1, 1.0, 4000, seed=8, out_dir=tmp_path / "ds")
        song = load_song(manifest, "song000")
        write_wav(manifest.root / "song000" / "vocals.wav", song.vocals, 8000)
        with pytest.raises(InvalidConfig):
            load_song(manifest, "song000")


class TestBuildFromDir:
    def test_discovers_song_directories(self, tmp_path):
        for name in ("x", "y", "z"):
            d = tmp_path / name
            d.mkdir()
            write_wav(d / "vocals.wav", np.zeros(100), 8000)
            write_wav(d / "accompaniment.wav", np.zeros(100), 8000)
        (tmp_path / "ignored").mkdir()  # no stems, should be skipped
        manifest = build_manifest_from_dir(tmp_path, seed=1)
        assert sorted(manifest.songs) == ["x", "y", "z"]
        assert manifest.sample_rate == 8000
        total = sum(len(v) for v in manifest.splits.values())
        assert total == 3

    def test_saved_manifest_loads_as_data(self, tmp_path):
        """The README's recipe for user stems: build and save a manifest for song directories without
        mixture.wav, then load it through load_manifest and load_split as --data does."""
        rng = np.random.default_rng(4)
        stems = {}
        for name in ("a", "b", "c", "d", "e"):
            d = tmp_path / name
            d.mkdir()
            stems[name] = rng.integers(-9000, 9000, size=(2, 300)) / 32768.0
            write_wav(d / "vocals.wav", stems[name][0], 8000)
            write_wav(d / "accompaniment.wav", stems[name][1], 8000)
        assert hypersep.save_manifest(hypersep.build_manifest_from_dir(tmp_path, seed=2)) == tmp_path / "manifest.json"
        data = load_split(load_manifest(tmp_path))
        songs = data.train + data.validation + data.test
        assert sorted(song.name for song in songs) == sorted(stems)
        assert data.train and data.validation and data.test
        for song in songs:
            assert song.sample_rate == 8000
            assert np.array_equal(song.vocals, stems[song.name][0])
            assert np.array_equal(song.accompaniment, stems[song.name][1])
            assert np.array_equal(song.mixture, song.vocals + song.accompaniment)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            build_manifest_from_dir(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(IoError):
            build_manifest_from_dir(tmp_path / "absent")
