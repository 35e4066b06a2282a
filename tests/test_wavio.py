"""PCM16 WAV reader/writer tests, including hand-built byte fixtures."""

import struct

import numpy as np
import pytest

from hypersep.errors import CorruptHeader, InvalidConfig, UnsupportedFormat
from hypersep.wavio import MAX_SAMPLE_RATE, quantize_pcm16, read_wav, write_wav


def build_wav(samples, rate=8000, channels=1, bits=16, audio_format=1, extra_chunk=None):
    """Assemble a RIFF/WAVE byte string from raw int16 samples."""
    data = struct.pack(f"<{len(samples)}h", *samples)
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block, block, bits)
    body = b"WAVE"
    if extra_chunk is not None:
        body += b"junk" + struct.pack("<I", len(extra_chunk)) + extra_chunk
        if len(extra_chunk) % 2:
            body += b"\x00"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestQuantize:
    def test_exact_levels(self):
        x = np.array([0.0, 1.0 / 32768.0, -1.0 / 32768.0, 0.5])
        np.testing.assert_array_equal(quantize_pcm16(x), np.array([0, 1, -1, 16384], dtype=np.int16))

    def test_rounds_half_away_from_zero(self):
        x = np.array([0.5 / 32768.0, -0.5 / 32768.0, 2.5 / 32768.0, -2.5 / 32768.0])
        np.testing.assert_array_equal(quantize_pcm16(x), np.array([1, -1, 3, -3], dtype=np.int16))

    def test_clips_to_int16_range(self):
        x = np.array([1.5, -1.5, 1.0, -1.0])
        np.testing.assert_array_equal(
            quantize_pcm16(x), np.array([32767, -32768, 32767, -32768], dtype=np.int16)
        )

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidConfig):
            quantize_pcm16(np.array([0.0, np.nan]))

    def test_rejects_matrix(self):
        with pytest.raises(InvalidConfig):
            quantize_pcm16(np.zeros((3, 2)))


class TestRead:
    def test_known_bytes(self, tmp_path):
        path = tmp_path / "three.wav"
        path.write_bytes(build_wav([0, 16384, -32768], rate=4000))
        signal, rate = read_wav(path)
        assert rate == 4000
        np.testing.assert_array_equal(signal, np.array([0.0, 0.5, -1.0]))
        assert signal.dtype == np.float64

    def test_skips_unknown_chunks(self, tmp_path):
        path = tmp_path / "padded.wav"
        path.write_bytes(build_wav([100, -100], extra_chunk=b"xyz"))  # odd size forces padding
        signal, rate = read_wav(path)
        np.testing.assert_array_equal(signal, np.array([100.0, -100.0]) / 32768.0)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(build_wav([0, 0, 0, 0], channels=2))
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_rejects_float_format(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(build_wav([0, 0], audio_format=3))
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_rejects_8_bit(self, tmp_path):
        path = tmp_path / "bytes.wav"
        path.write_bytes(build_wav([0, 0], bits=8))
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFX" + build_wav([0])[4:])
        with pytest.raises(CorruptHeader):
            read_wav(path)

    def test_rejects_truncated_data(self, tmp_path):
        raw = build_wav([1, 2, 3, 4])
        path = tmp_path / "cut.wav"
        path.write_bytes(raw[:-4])
        with pytest.raises(CorruptHeader):
            read_wav(path)

    def test_rejects_missing_data_chunk(self, tmp_path):
        raw = build_wav([1, 2])
        cut = raw[: raw.index(b"data")]
        path = tmp_path / "nodata.wav"
        path.write_bytes(cut[:4] + struct.pack("<I", len(cut) - 8) + cut[8:])
        with pytest.raises(CorruptHeader):
            read_wav(path)


class TestRoundtrip:
    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(11)
        for trial in range(4):
            x = rng.uniform(-0.999, 0.999, size=500)
            ints = quantize_pcm16(x)
            recovered = ints / 32768.0
            assert np.max(np.abs(recovered - x)) <= 0.5 / 32768.0 + 1e-15

    def test_write_then_read(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, size=1234)
        path = tmp_path / "rt.wav"
        write_wav(path, x, 22050)
        y, rate = read_wav(path)
        assert rate == 22050
        assert y.size == x.size
        assert np.max(np.abs(y - x)) <= 0.5 / 32768.0 + 1e-15

    def test_quantized_values_survive_exactly(self, tmp_path):
        ints = np.array([-32768, -1, 0, 1, 32767], dtype=np.int16)
        path = tmp_path / "exact.wav"
        write_wav(path, ints / 32768.0, 8000)
        y, _ = read_wav(path)
        np.testing.assert_array_equal(quantize_pcm16(y), ints)
        np.testing.assert_array_equal(y, ints / 32768.0)

    def test_write_rejects_bad_rate(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_wav(tmp_path / "r.wav", np.zeros(4), 0)

    @pytest.mark.parametrize("rate", [2**31, 2**40])
    def test_write_rejects_a_rate_whose_byte_rate_overflows(self, tmp_path, rate):
        """The header's byte rate, 2 * rate, is a uint32: a rate of 2**31 or more raises InvalidConfig and writes
        nothing, instead of escaping as a struct.error."""
        with pytest.raises(InvalidConfig, match="sample_rate"):
            write_wav(tmp_path / "r.wav", np.zeros(4), rate)
        assert not (tmp_path / "r.wav").exists()

    def test_largest_rate_roundtrips(self, tmp_path):
        write_wav(tmp_path / "r.wav", np.zeros(4), MAX_SAMPLE_RATE)
        assert read_wav(tmp_path / "r.wav")[1] == MAX_SAMPLE_RATE == 2**31 - 1
