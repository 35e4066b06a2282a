"""Minimal RIFF/WAV reader and writer for PCM 16-bit mono files.

Reading accepts exactly one layout: little-endian RIFF with a PCM fmt
chunk, one channel, 16 bits per sample. Unknown chunks are skipped (with
the RIFF odd-size pad byte). Samples map to float64 as value / 32768, so
the float range is [-1, 32767/32768]. Writing quantizes with
round-half-away-from-zero and clips to the same range; a full-scale 1.0
therefore comes back as 32767/32768, and -1.0 round-trips exactly.
"""

import struct

import numpy as np

from .errors import CorruptHeader, InvalidConfig, IoError, UnsupportedFormat
from .fileio import write_atomic

_SCALE = 32768.0

# The header's byte rate, 2 * sample_rate, is a uint32 field.
MAX_SAMPLE_RATE = (2**32 - 1) // 2


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a PCM16 mono WAV; returns (float64 samples, sample rate)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeader(f"{path}: not a RIFF/WAVE file")
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        if pos + size > len(data):
            raise CorruptHeader(f"{path}: chunk {chunk_id!r} claims {size} bytes past end of file")
        body = data[pos : pos + size]
        if chunk_id == b"fmt " and fmt is None:
            fmt = body
        elif chunk_id == b"data" and payload is None:
            payload = body
        pos += size + (size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise CorruptHeader(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise CorruptHeader(f"{path}: fmt chunk too short ({len(fmt)} bytes)")
    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if audio_format != 1:
        raise UnsupportedFormat(f"{path}: compressed or extensible format {audio_format}, want PCM")
    if channels != 1:
        raise UnsupportedFormat(f"{path}: {channels} channels, want mono")
    if bits != 16:
        raise UnsupportedFormat(f"{path}: {bits} bits per sample, want 16")
    if rate < 1:
        raise CorruptHeader(f"{path}: nonsensical sample rate {rate}")
    if len(payload) % 2:
        raise CorruptHeader(f"{path}: odd data chunk size {len(payload)}")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / _SCALE
    return samples, int(rate)


def quantize_pcm16(signal: np.ndarray) -> np.ndarray:
    """Float signal -> int16 samples, round-half-away-from-zero, clipped."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise InvalidConfig(f"signal must be 1-D, got shape {signal.shape}")
    if not np.all(np.isfinite(signal)):
        raise InvalidConfig("signal contains non-finite samples")
    scaled = signal * _SCALE
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    return np.clip(rounded, -32768.0, 32767.0).astype("<i2")


def write_wav(path, signal: np.ndarray, sample_rate: int) -> None:
    """Write a float signal as PCM16 mono; clips to [-1, 32767/32768]."""
    if not 1 <= sample_rate <= MAX_SAMPLE_RATE:
        raise InvalidConfig(f"sample_rate must be in [1, {MAX_SAMPLE_RATE}], got {sample_rate}")
    payload = quantize_pcm16(signal).tobytes()
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    write_atomic(path, header + payload)
