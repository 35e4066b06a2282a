"""Synthetic two-source dataset generation and song/manifest loading.

Each generated song is a pair of mono stems: "vocals" made of one to
three harmonic tones with vibrato, a slow amplitude envelope, and hard
silent gaps covering at least a tenth of the duration; "accompaniment"
made of low-passed noise plus sustained low tones. Stems are quantized to
PCM16 once and the mixture is written as the sample-wise integer sum, so
the loaded mixture equals the loaded stems' sum exactly.

A dataset lives in a directory with one subdirectory per song (vocals.wav,
accompaniment.wav, mixture.wav) and a manifest.json recording generation
parameters and the seeded train/validation/test split. The same layout
minus mixture.wav works for user-supplied stems via build_manifest_from_dir.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, IoError, LengthMismatch
from .fileio import read_json_object, write_atomic
from .wavio import MAX_SAMPLE_RATE, quantize_pcm16, read_wav, write_wav

MANIFEST_FORMAT = "hypersep-dataset-v1"
MANIFEST_NAME = "manifest.json"

# Fraction of each vocal track forced to hard silence, and the minimum
# sample rate that keeps the highest tone comfortably below Nyquist.
SILENT_FRACTION = 0.12
MIN_SAMPLE_RATE = 1400

SPLIT_NAMES = ("train", "validation", "test")


@dataclass
class Song:
    """One song's stems; mixture must equal their sum to PCM16 precision."""

    name: str
    vocals: np.ndarray
    accompaniment: np.ndarray
    mixture: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if not (self.vocals.shape == self.accompaniment.shape == self.mixture.shape):
            raise LengthMismatch(
                f"song {self.name}: stem lengths differ "
                f"({self.vocals.shape}, {self.accompaniment.shape}, {self.mixture.shape})"
            )
        residual = np.max(np.abs(self.mixture - (self.vocals + self.accompaniment)), initial=0.0)
        if residual > 1.0 / 32768.0 + 1e-12:
            raise InvalidConfig(
                f"song {self.name}: mixture deviates from vocals + accompaniment "
                f"by {residual:.3e} (> 1 LSB)"
            )


@dataclass
class DatasetManifest:
    root: Path
    sample_rate: int
    duration_s: float
    seed: int
    songs: dict[str, str]  # name -> directory relative to root
    splits: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class LoadedDataset:
    train: list[Song]
    validation: list[Song]
    test: list[Song]


def _tone_stack(rng, n, rate):
    """One vibrato'd harmonic tone with a slow amplitude envelope."""
    t = np.arange(n) / rate
    f0 = rng.uniform(200.0, 600.0)
    vib_rate = rng.uniform(4.0, 7.0)
    vib_depth = rng.uniform(0.002, 0.01)
    inst_freq = f0 * (1.0 + vib_depth * np.sin(2.0 * np.pi * vib_rate * t))
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / rate + rng.uniform(0.0, 2.0 * np.pi)
    tone = np.zeros(n)
    for h in range(1, 4):
        if h * f0 * 1.02 >= 0.45 * rate:
            break  # keep every partial safely below Nyquist
        tone += (rng.uniform(0.6, 1.0) / h) * np.sin(h * phase)
    env_freq = rng.uniform(0.05, 0.3)
    envelope = 0.6 + 0.4 * np.sin(2.0 * np.pi * env_freq * t + rng.uniform(0.0, 2.0 * np.pi))
    return tone * envelope


def _carve_gaps(rng, signal, rate):
    """Zero out random spans until SILENT_FRACTION of the samples are silent."""
    n = signal.size
    target = int(SILENT_FRACTION * n)
    silent = 0
    # first gap is long enough to silence at least one full SDR second
    length = min(int(1.6 * rate), max(1, n // 3))
    guard = 0
    while silent < target and guard < 64:
        start = int(rng.integers(0, max(1, n - length + 1)))
        signal[start : start + length] = 0.0
        silent = int(np.count_nonzero(signal == 0.0))  # recount, gaps may overlap
        length = max(1, int(rng.uniform(0.3, 0.8) * rate))
        guard += 1
    return signal


def _lowpass(noise, rate, cutoff):
    """Crude FIR smoothing: normalized Hann window sized by the cutoff; the centred len(noise) samples of the full
    convolution, which mode="same" would widen to the window's length for a signal shorter than it."""
    width = max(3, 2 * int(rate / (2.0 * cutoff)) + 1)
    window = np.hanning(width)
    return np.convolve(noise, window / window.sum())[(width - 1) // 2 :][: len(noise)]


def _synthesize_song(rng, n, rate):
    vocals = np.zeros(n)
    for _ in range(int(rng.integers(1, 4))):
        vocals += _tone_stack(rng, n, rate)
    vocals = _carve_gaps(rng, vocals, rate)

    accomp = _lowpass(rng.standard_normal(n), rate, cutoff=rng.uniform(300.0, 800.0))
    t = np.arange(n) / rate
    for _ in range(int(rng.integers(1, 3))):
        f_low = rng.uniform(60.0, 150.0)
        slow = 0.7 + 0.3 * np.sin(2.0 * np.pi * rng.uniform(0.05, 0.2) * t + rng.uniform(0, 2 * np.pi))
        accomp += 0.8 * slow * np.sin(2.0 * np.pi * f_low * t + rng.uniform(0, 2 * np.pi))

    # scale so the integer mixture can never clip: 0.45 + 0.50 < 1
    v_peak = np.max(np.abs(vocals))
    a_peak = np.max(np.abs(accomp))
    vocals = vocals * (0.45 / v_peak) if v_peak > 0 else vocals
    accomp = accomp * (0.50 / a_peak) if a_peak > 0 else accomp
    return vocals, accomp


def _assign_splits(names: list[str], rng) -> dict[str, list[str]]:
    order = [names[i] for i in rng.permutation(len(names))]
    n = len(order)
    if n == 1:
        return {"train": order, "validation": [], "test": []}
    if n == 2:
        return {"train": order[:1], "validation": order[1:], "test": []}
    held = max(1, round(0.25 * n))
    return {
        "train": sorted(order[: n - 2 * held]),
        "validation": sorted(order[n - 2 * held : n - held]),
        "test": sorted(order[n - held :]),
    }


def generate_dataset(n_songs: int, duration_s: float, sample_rate: int, seed: int, out_dir) -> DatasetManifest:
    """Synthesize a seeded dataset under out_dir and write its manifest."""
    if n_songs < 1 or not 1 <= sample_rate <= MAX_SAMPLE_RATE or seed < 0:
        raise InvalidConfig(
            f"need n_songs >= 1, sample_rate in [1, {MAX_SAMPLE_RATE}], seed >= 0; got ({n_songs}, {sample_rate}, {seed})"
        )
    if sample_rate < MIN_SAMPLE_RATE:
        raise InvalidConfig(
            f"sample_rate must be >= {MIN_SAMPLE_RATE} Hz to carry tones up to 600 Hz, got {sample_rate}"
        )
    if not (np.isfinite(duration_s * sample_rate) and round(duration_s * sample_rate) >= 1):
        raise InvalidConfig(f"duration_s must be finite and last at least one sample, got {duration_s}")
    root = Path(out_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {root}: {exc}") from exc
    n = int(round(duration_s * sample_rate))
    master = np.random.SeedSequence(seed)
    song_seeds = master.spawn(n_songs + 1)  # last child seeds the split shuffle
    songs: dict[str, str] = {}
    for i in range(n_songs):
        rng = np.random.default_rng(song_seeds[i])
        vocals, accomp = _synthesize_song(rng, n, sample_rate)
        name = f"song{i:03d}"
        song_dir = root / name
        try:
            song_dir.mkdir(exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {song_dir}: {exc}") from exc
        v_int = quantize_pcm16(vocals)
        a_int = quantize_pcm16(accomp)
        write_wav(song_dir / "vocals.wav", v_int / 32768.0, sample_rate)
        write_wav(song_dir / "accompaniment.wav", a_int / 32768.0, sample_rate)
        # the mixture is the integer sum, so loaded stems add up exactly
        mix = (v_int.astype(np.int32) + a_int.astype(np.int32)) / 32768.0
        write_wav(song_dir / "mixture.wav", mix, sample_rate)
        songs[name] = name
    splits = _assign_splits(sorted(songs), np.random.default_rng(song_seeds[-1]))
    manifest = DatasetManifest(root, sample_rate, float(duration_s), seed, songs, splits)
    save_manifest(manifest)
    return manifest


def save_manifest(manifest: DatasetManifest, path=None) -> Path:
    path = Path(path) if path is not None else manifest.root / MANIFEST_NAME
    payload = {
        "format": MANIFEST_FORMAT,
        "sample_rate": manifest.sample_rate,
        "duration_s": manifest.duration_s,
        "seed": manifest.seed,
        "songs": manifest.songs,
        "splits": manifest.splits,
    }
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
    return path


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest and verify every referenced stem file exists."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    payload = read_json_object(path, "manifest")
    if payload.get("format") != MANIFEST_FORMAT:
        raise InvalidConfig(f"{path}: unknown manifest format {payload.get('format')!r}")
    if not isinstance(payload.get("splits"), dict):
        raise InvalidConfig(f"{path}: splits must be a JSON object, got {payload.get('splits')!r}")
    try:
        manifest = DatasetManifest(
            root=path.parent,
            sample_rate=int(payload["sample_rate"]),
            duration_s=float(payload["duration_s"]),
            seed=int(payload["seed"]),
            songs=dict(payload["songs"]),
            splits={k: list(v) for k, v in payload["splits"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"{path}: malformed manifest ({exc})") from exc
    listed = [name for names in manifest.splits.values() for name in names]
    if not all(isinstance(v, str) for v in [*manifest.songs.values(), *listed]):
        raise InvalidConfig(f"{path}: song names and directories must be strings")
    if len(listed) != len(set(listed)):
        raise InvalidConfig(f"{path}: splits overlap")
    unknown = set(listed) - set(manifest.songs)
    if unknown:
        raise InvalidConfig(f"{path}: splits reference unknown songs {sorted(unknown)}")
    for name, rel in manifest.songs.items():
        for stem in ("vocals.wav", "accompaniment.wav"):
            stem_path = manifest.root / rel / stem
            if not stem_path.exists():
                raise IoError(f"{path}: missing {stem_path}")
    return manifest


def load_song(manifest: DatasetManifest, name: str) -> Song:
    """Load one song's stems; a missing mixture.wav is recomputed as the sum."""
    rel = manifest.songs.get(name)
    if rel is None:
        raise InvalidConfig(f"manifest has no song named {name!r}")
    song_dir = manifest.root / rel
    vocals, v_rate = read_wav(song_dir / "vocals.wav")
    accomp, a_rate = read_wav(song_dir / "accompaniment.wav")
    if v_rate != a_rate:
        raise InvalidConfig(f"song {name}: stem sample rates differ ({v_rate} vs {a_rate})")
    mix_path = song_dir / "mixture.wav"
    if mix_path.exists():
        mixture, m_rate = read_wav(mix_path)
        if m_rate != v_rate:
            raise InvalidConfig(f"song {name}: mixture sample rate differs ({m_rate} vs {v_rate})")
    else:
        mixture = vocals + accomp
    return Song(name, vocals, accomp, mixture, v_rate)


def load_split(manifest: DatasetManifest) -> LoadedDataset:
    parts = {
        split: [load_song(manifest, name) for name in manifest.splits.get(split, [])]
        for split in SPLIT_NAMES
    }
    return LoadedDataset(parts["train"], parts["validation"], parts["test"])


def build_manifest_from_dir(root, seed: int = 0) -> DatasetManifest:
    """Manifest for user-supplied stems: subdirs holding vocals.wav + accompaniment.wav."""
    root = Path(root)
    if not root.is_dir():
        raise IoError(f"{root} is not a directory")
    songs: dict[str, str] = {}
    sample_rate = 0
    for entry in sorted(root.iterdir()):
        if entry.is_dir() and (entry / "vocals.wav").exists() and (entry / "accompaniment.wav").exists():
            songs[entry.name] = entry.name
            if not sample_rate:
                _, sample_rate = read_wav(entry / "vocals.wav")
    if not songs:
        raise InvalidConfig(f"{root}: no song directories with vocals.wav and accompaniment.wav")
    splits = _assign_splits(sorted(songs), np.random.default_rng(np.random.SeedSequence(seed)))
    return DatasetManifest(root, sample_rate, 0.0, seed, songs, splits)
