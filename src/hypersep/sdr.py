"""Segment-wise signal-to-distortion ratio and its aggregation statistics.

SDR here is the plain energy ratio 10*log10(sum(ref^2) / sum((ref-est)^2))
with a 1e-20 regularizer on both sides and a clamp to [-100, +100] dB; no
allowed-distortion projection is applied (references are sample-aligned by
construction). Signals are scored on consecutive non-overlapping one-second
segments, a trailing partial segment is dropped, and silent segments are
kept in every statistic: they are exactly the reason medians and MADs are
reported next to means and standard deviations.

Two dataset-level conventions are emitted side by side because pooling
order changes the numbers: song-level statistics (mean of song means,
median/MAD over song medians, SD over song means) and pooled statistics
over all segments of all songs.
"""

from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import EmptySignal, InvalidConfig, LengthMismatch
from .fileio import write_csv_rows
from .net import SepNet, separate_signal

SDR_EPS = 1e-20
SDR_CLAMP_DB = 100.0

# A reference segment below this RMS counts as silent in the report.
SILENCE_RMS = 1e-4

SOURCES = ("vocals", "accompaniment")


def segment(signal: np.ndarray, sample_rate: int) -> list[np.ndarray]:
    """Split a signal into consecutive one-second frames, dropping the tail.

    A signal shorter than one second yields an empty list; only a
    zero-length signal is an error.
    """
    if sample_rate < 1:
        raise InvalidConfig(f"sample_rate must be positive, got {sample_rate}")
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1 or signal.size == 0:
        raise EmptySignal(f"expected a non-empty 1-D signal, got shape {signal.shape}")
    n_frames = signal.size // sample_rate
    return [signal[i * sample_rate : (i + 1) * sample_rate] for i in range(n_frames)]


def segment_sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Energy-ratio SDR of one segment in dB, clamped to +/-100."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise LengthMismatch(f"reference {reference.shape} vs estimate {estimate.shape}")
    num = float(np.sum(reference * reference)) + SDR_EPS
    err = reference - estimate
    den = float(np.sum(err * err)) + SDR_EPS
    value = 10.0 * np.log10(num / den)
    return float(np.clip(value, -SDR_CLAMP_DB, SDR_CLAMP_DB))


@dataclass
class SourceStats:
    """Summary statistics of one SDR population (dB)."""

    count: int
    mean: float
    median: float
    sd: float
    mad: float


@dataclass
class SongStats:
    song: str
    source: str
    segments: int
    mean: float
    median: float
    sd: float
    mad: float


@dataclass
class SdrReport:
    """Per-song and dataset-level SDR summaries.

    song_level aggregates operate on song summaries (mean over song means,
    median and MAD over song medians, SD over song means); pooled
    aggregates treat every segment of every song as one population.
    """

    songs: list[SongStats]
    song_level: dict[str, SourceStats]
    pooled: dict[str, SourceStats]
    silent_segments: dict[str, int] = field(default_factory=dict)

    def write_csv(self, path) -> None:
        rows = [["song", "source", "segments", "mean", "median", "sd", "mad"]]
        rows += [astuple(s) for s in self.songs]
        for label, table in (("dataset_song_level", self.song_level), ("dataset_pooled", self.pooled)):
            rows += [[label, source, *astuple(stats)] for source, stats in table.items()]
        write_csv_rows(path, rows)


def _stats(values: list[float]) -> SourceStats:
    arr = np.asarray(values, dtype=np.float64)
    med = float(np.median(arr))
    mad = float(np.median(np.abs(arr - med)))
    # population SD (ddof=0); the populations here are complete, not samples
    return SourceStats(arr.size, float(np.mean(arr)), med, float(np.std(arr)), mad)


def aggregate(
    per_song: dict[str, dict[str, list[float]]],
    silent_segments: dict[str, int] | None = None,
) -> SdrReport:
    """Build an SdrReport from {source: {song: [segment SDRs]}}.

    Song entries with empty value lists are ignored; at least one segment
    overall is required.
    """
    songs: list[SongStats] = []
    song_level: dict[str, SourceStats] = {}
    pooled: dict[str, SourceStats] = {}
    for source in sorted(per_song):
        by_song = {name: vals for name, vals in sorted(per_song[source].items()) if len(vals) > 0}
        if not by_song:
            continue
        rows = [SongStats(name, source, *astuple(_stats(vals))) for name, vals in by_song.items()]
        songs += rows
        means, medians = _stats([r.mean for r in rows]), _stats([r.median for r in rows])
        song_level[source] = SourceStats(means.count, means.mean, medians.median, means.sd, medians.mad)
        pooled[source] = _stats([v for vals in by_song.values() for v in vals])
    if not songs:
        raise InvalidConfig("aggregate needs at least one segment")
    return SdrReport(songs, song_level, pooled, dict(silent_segments or {}))


def evaluate_songs(net: SepNet, songs) -> SdrReport:
    """Separate each song and score both sources segment by segment.

    Songs shorter than one second contribute no segments; silent reference
    segments (RMS below SILENCE_RMS) are counted per source but kept in
    all statistics.
    """
    per_song: dict[str, dict[str, list[float]]] = {source: {} for source in SOURCES}
    silent = dict.fromkeys(SOURCES, 0)
    for song in songs:
        for source, estimate in zip(SOURCES, separate_signal(net, song.mixture)):
            frames = list(zip(segment(getattr(song, source), song.sample_rate), segment(estimate, song.sample_rate)))
            per_song[source][song.name] = [segment_sdr(ref, est) for ref, est in frames]
            silent[source] += sum(float(np.sqrt(np.mean(ref * ref))) < SILENCE_RMS for ref, _ in frames)
    return aggregate(per_song, silent)
