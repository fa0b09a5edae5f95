import struct

import numpy as np
import pytest

from pcgkit.errors import (
    CorruptHeader,
    InvalidFactor,
    PcgError,
    RateMismatch,
    UnsupportedFormat,
)
from pcgkit.ingest import (
    AudioRecord,
    Label,
    apply_filter,
    decimate,
    design_lowpass,
    fix_length,
    preprocess,
    read_csv_record,
    read_wav,
    write_wav,
)


def make_wav_bytes(ints, rate=2000, channels=1, bits=16, audio_format=1):
    payload = b"".join(struct.pack("<h", v) for v in ints)
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


def wav_mutations(raw, count, seed):
    """`count` seeded mutations of the bytes of a WAV file write_wav wrote,
    taking turns: one to three header bytes set at random, a cut at a
    random length, an odd data-chunk size, and a file cut to an odd length
    whose data-chunk size says so."""
    rng = np.random.default_rng(seed)
    mutants = []
    for i in range(count):
        b = bytearray(raw)
        kind = i % 4
        if kind == 0:
            for pos in rng.choice(44, size=rng.integers(1, 4), replace=False):
                b[pos] = rng.integers(256)
        elif kind == 1:
            del b[rng.integers(len(b)):]
        elif kind == 2:
            b[40:44] = struct.pack("<I", 2 * rng.integers((len(b) - 44) // 2) + 1)
        else:
            del b[45 + 2 * rng.integers((len(b) - 45) // 2):]
            b[40:44] = struct.pack("<I", len(b) - 44)
        mutants.append(bytes(b))
    return mutants


class TestReadWav:
    def test_one_second_of_zeros(self, tmp_path):
        path = tmp_path / "zeros.wav"
        path.write_bytes(make_wav_bytes([0] * 2000, rate=2000))
        rec = read_wav(path)
        assert rec.sample_rate_hz == 2000
        assert rec.samples.size == 2000
        assert np.all(rec.samples == 0.0)
        assert rec.label is Label.UNLABELED

    def test_pcm_scaling(self, tmp_path):
        path = tmp_path / "half.wav"
        path.write_bytes(make_wav_bytes([16384, -16384, 32767]))
        rec = read_wav(path)
        assert rec.samples[0] == 0.5
        assert rec.samples[1] == -0.5
        assert rec.samples[2] == 32767 / 32768

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = AudioRecord("r", rng.uniform(-0.9, 0.9, 500), 2000)
        write_wav(rec, tmp_path / "r.wav")
        back = read_wav(tmp_path / "r.wav")
        assert back.sample_rate_hz == 2000
        assert np.allclose(back.samples, rec.samples, atol=1.0 / 32768)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(make_wav_bytes([0, 0, 0, 0], channels=2))
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "w.wav"
        path.write_bytes(make_wav_bytes([0, 0], bits=8))
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "w.wav"
        path.write_bytes(make_wav_bytes([0, 0], audio_format=3))
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(CorruptHeader):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        raw = make_wav_bytes([1, 2, 3])
        path = tmp_path / "w.wav"
        path.write_bytes(raw[:44 - 8])  # cut before the data chunk header
        with pytest.raises(CorruptHeader):
            read_wav(path)

    @pytest.mark.parametrize("edit", [
        lambda raw: raw[:40] + struct.pack("<I", 5) + raw[44:49],  # odd size
        lambda raw: raw[:40] + struct.pack("<I", 0),  # no samples
        lambda raw: raw[:24] + struct.pack("<I", 0) + raw[28:],  # rate 0
    ], ids=["odd_data_size", "empty_data", "zero_rate"])
    def test_unreadable_data_is_a_corrupt_header(self, tmp_path, edit):
        path = tmp_path / "w.wav"
        path.write_bytes(edit(make_wav_bytes([1, 2, 3, 4])))
        with pytest.raises(CorruptHeader, match=str(path)):
            read_wav(path)

    def test_fuzzed_files_read_or_raise_pcg_error(self, tmp_path):
        path = tmp_path / "w.wav"
        rng = np.random.default_rng(70)
        write_wav(AudioRecord("w", rng.uniform(-1, 1, 600), 2000), path)
        read = 0
        for raw in wav_mutations(path.read_bytes(), 240, seed=71):
            path.write_bytes(raw)
            try:
                rec = read_wav(path)
            except PcgError as exc:
                assert str(path) in str(exc)
                continue
            assert rec.samples.size > 0 and rec.sample_rate_hz > 0
            read += 1
        assert 0 < read < 240  # both outcomes are exercised


def test_csv_record_roundtrip(tmp_path):
    rec = AudioRecord("c", np.array([0.25, -0.5, 0.125]), 500)
    np.savetxt(tmp_path / "c.csv", rec.samples, fmt="%.17g")
    back = read_csv_record(tmp_path / "c.csv", rate_hz=500)
    assert np.array_equal(back.samples, rec.samples)
    assert back.sample_rate_hz == 500


class TestDesignLowpass:
    def test_unit_dc_gain(self):
        fir = design_lowpass(2000)
        assert abs(fir.taps.sum() - 1.0) < 1e-6

    def test_taps_symmetric(self):
        fir = design_lowpass(2000)
        assert np.array_equal(fir.taps, fir.taps[::-1])
        assert fir.taps.size % 2 == 1

    def test_stopband_attenuation_at_500hz(self):
        # Independent oracle: evaluate the DFT of the taps directly.
        fir = design_lowpass(2000)
        n = np.arange(fir.taps.size)
        mag = abs(np.sum(fir.taps * np.exp(-2j * np.pi * 500 / 2000 * n)))
        assert 20 * np.log10(mag) < -40.0


class TestApplyFilter:
    def setup_method(self):
        self.fir = design_lowpass(2000)

    def test_zero_in_zero_out(self):
        rec = AudioRecord("z", np.zeros(1000), 2000)
        out = apply_filter(rec, self.fir)
        assert np.all(out.samples == 0.0)
        assert out.samples.size == 1000

    def test_constant_passes_at_unit_gain(self):
        rec = AudioRecord("c", np.full(1000, 0.3), 2000)
        out = apply_filter(rec, self.fir)
        interior = out.samples[50:-50]  # outside the edge transients
        assert np.allclose(interior, 0.3, atol=1e-9)

    def test_400hz_tone_attenuated(self):
        t = np.arange(4000) / 2000
        rec = AudioRecord("t", 0.5 * np.sin(2 * np.pi * 400 * t), 2000)
        out = apply_filter(rec, self.fir)
        steady = slice(100, -100)
        rms_in = np.sqrt(np.mean(rec.samples[steady] ** 2))
        rms_out = np.sqrt(np.mean(out.samples[steady] ** 2))
        assert rms_out <= 0.01 * rms_in

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        a, b = 0.7, -1.3
        fx = apply_filter(AudioRecord("x", x, 2000), self.fir).samples
        fy = apply_filter(AudioRecord("y", y, 2000), self.fir).samples
        fxy = apply_filter(AudioRecord("xy", a * x + b * y, 2000), self.fir).samples
        assert np.allclose(fxy, a * fx + b * fy, atol=1e-12)

    def test_rate_mismatch(self):
        rec = AudioRecord("r", np.zeros(100), 500)
        with pytest.raises(RateMismatch):
            apply_filter(rec, self.fir)


class TestDecimate:
    def test_factor_one_is_identity(self):
        rec = AudioRecord("d", np.arange(8.0), 2000)
        out = decimate(rec, 1)
        assert np.array_equal(out.samples, rec.samples)
        assert out.sample_rate_hz == 2000

    def test_2000_to_500(self):
        rec = AudioRecord("d", np.zeros(8000), 2000)
        out = decimate(rec, 4)
        assert out.sample_rate_hz == 500
        assert out.samples.size == 2000

    def test_keeps_every_other_sample(self):
        rec = AudioRecord("d", np.arange(8.0), 2000)
        out = decimate(rec, 2)
        assert np.array_equal(out.samples, [0, 2, 4, 6])

    def test_invalid_factor(self):
        rec = AudioRecord("d", np.arange(8.0), 2000)
        with pytest.raises(InvalidFactor):
            decimate(rec, 0)

    def test_composition(self):
        rng = np.random.default_rng(2)
        rec = AudioRecord("d", rng.normal(size=2400), 2400)
        once = decimate(rec, 6)
        twice = decimate(decimate(rec, 2), 3)
        assert np.array_equal(once.samples, twice.samples)
        assert once.sample_rate_hz == twice.sample_rate_hz == 400


class TestFixLength:
    def test_identity(self):
        rec = AudioRecord("f", np.arange(5000.0), 500)
        assert fix_length(rec) is rec

    def test_truncate(self):
        rec = AudioRecord("f", np.arange(12000.0), 500)
        out = fix_length(rec)
        assert np.array_equal(out.samples, np.arange(5000.0))

    def test_tile_then_truncate(self):
        base = np.arange(3000.0)
        rec = AudioRecord("f", base, 500)
        out = fix_length(rec)
        assert np.array_equal(out.samples[:3000], base)
        assert np.array_equal(out.samples[3000:], base[:2000])


def test_full_preprocess_shape_invariant():
    # Any >= 2.5 s record at 2000 Hz must come out as 5000 samples at 500 Hz.
    rng = np.random.default_rng(3)
    for n in (5000, 7100, 20000, 240000):
        rec = AudioRecord("p", rng.normal(size=n) * 0.1, 2000)
        out = preprocess(rec)
        assert out.sample_rate_hz == 500
        assert out.samples.size == 5000


def test_preprocess_skips_filter_at_target_rate():
    rec = AudioRecord("p", np.arange(6000.0), 500)
    out = preprocess(rec)
    assert out.samples.size == 5000
    assert np.array_equal(out.samples, np.arange(5000.0))


def test_audio_record_validation():
    with pytest.raises(ValueError):
        AudioRecord("bad", np.array([]), 2000)
    with pytest.raises(ValueError):
        AudioRecord("bad", np.array([1.0]), 0)


def test_real_corpus_recording_properties():
    # Only meaningful with a local heart-sound corpus: recordings should be
    # 2000 Hz and between 5 and 120 seconds long.
    import os
    corpus = os.environ.get("PCG_PHYSIONET_DIR")
    if not corpus:
        pytest.skip("PCG_PHYSIONET_DIR not set")
    from pathlib import Path
    wavs = sorted(Path(corpus).glob("*.wav"))
    assert wavs, f"no WAV files in {corpus}"
    rec = read_wav(wavs[0])
    assert rec.sample_rate_hz == 2000
    assert 5.0 <= rec.duration_s <= 120.0
