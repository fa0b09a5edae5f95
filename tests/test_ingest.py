import hashlib
import re
import struct

import numpy as np
import pytest

from pcgkit.errors import PcgError
from pcgkit.ingest import (
    AudioRecord,
    Label,
    preprocess,
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

    def test_write_returns_the_clipped_count(self, tmp_path):
        # 1.0 and 2.0 round above 32767 and -1.0001 below -32768; -1.0 and
        # 0.99998 fit.
        samples = np.array([1.0, -1.0, -1.0001, 0.99998, 2.0, 0.0])
        path = tmp_path / "r.wav"
        assert write_wav(AudioRecord("r", samples, 2000), path) == 3
        assert read_wav(path).samples.tolist() == [
            32767 / 32768, -1.0, -1.0, 32767 / 32768, 32767 / 32768, 0.0]

    def test_write_refuses_a_nan_sample(self, tmp_path):
        path = tmp_path / "r.wav"
        record = AudioRecord("r", [0.1, float("nan"), 0.2], 2000)
        message = f"record 'r' has a NaN at sample 1; {path} not written"
        with pytest.raises(PcgError, match=f"^{re.escape(message)}$"):
            write_wav(record, path)
        assert not path.exists()

    def test_write_clips_inf_to_full_scale(self, tmp_path):
        path = tmp_path / "r.wav"
        samples = [float("inf"), 0.5, -float("inf")]
        assert write_wav(AudioRecord("r", samples, 2000), path) == 2
        assert read_wav(path).samples.tolist() == [32767 / 32768, 0.5, -1.0]

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(make_wav_bytes([0, 0, 0, 0], channels=2))
        with pytest.raises(PcgError, match="channels, expected mono"):
            read_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "w.wav"
        path.write_bytes(make_wav_bytes([0, 0], bits=8))
        with pytest.raises(PcgError, match="-bit samples, expected 16"):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "w.wav"
        path.write_bytes(make_wav_bytes([0, 0], audio_format=3))
        with pytest.raises(PcgError, match="not PCM"):
            read_wav(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(PcgError, match="is not a RIFF/WAVE file"):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        raw = make_wav_bytes([1, 2, 3])
        path = tmp_path / "w.wav"
        path.write_bytes(raw[:44 - 8])  # cut before the data chunk header
        with pytest.raises(PcgError, match="missing fmt or data chunk"):
            read_wav(path)

    @pytest.mark.parametrize("edit", [
        lambda raw: raw[:40] + struct.pack("<I", 5) + raw[44:49],  # odd size
        lambda raw: raw[:40] + struct.pack("<I", 0),  # no samples
        lambda raw: raw[:24] + struct.pack("<I", 0) + raw[28:],  # rate 0
    ], ids=["odd_data_size", "empty_data", "zero_rate"])
    def test_unreadable_data_is_a_corrupt_header(self, tmp_path, edit):
        path = tmp_path / "w.wav"
        path.write_bytes(edit(make_wav_bytes([1, 2, 3, 4])))
        with pytest.raises(PcgError, match=str(path)):
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


def preprocessed(samples, rate=2000):
    """preprocess's output samples for a record of `samples` at `rate`."""
    out = preprocess(AudioRecord("p", samples, rate))
    assert out.sample_rate_hz == 500 and out.samples.size == 5000
    return out.samples


# Records of 10 s keep 5000 filtered samples, so no tiling seam; the
# filter's edge transients reach 50 input samples (25 output samples at
# 1000 Hz) in from each end.
INTERIOR = slice(30, -30)


class TestDesignLowpass:
    """The low-pass filter preprocess designs at each record's own rate."""

    def test_unit_dc_gain(self):
        for rate in (1000, 2000, 4000, 44000):
            out = preprocessed(np.full(10 * rate, 0.3), rate)
            assert np.allclose(out[INTERIOR], 0.3, rtol=0, atol=1e-12), rate

    def test_taps_symmetric(self):
        # Symmetric taps and a compensated delay give linear phase: the
        # reversed record comes out reversed.  19997 = 4 * 4999 + 1 samples
        # keep the same samples in the reversed decimation.
        x = np.random.default_rng(1).normal(size=19997)
        assert np.allclose(preprocessed(x[::-1]), preprocessed(x)[::-1],
                           rtol=0, atol=1e-12)

    def test_stopband_attenuation_at_500hz(self):
        # Decimation to 500 Hz aliases a 500 Hz cosine to DC: only the
        # filter's stop band keeps it out of the output.
        t = np.arange(20000) / 2000
        out = preprocessed(np.cos(2 * np.pi * 500 * t))
        assert 20 * np.log10(np.abs(out[INTERIOR]).max()) < -40.0


class TestApplyFilter:
    """preprocess's filter stage, seen through its output."""

    def test_zero_in_zero_out(self):
        assert np.all(preprocessed(np.zeros(1000)) == 0.0)

    def test_constant_passes_at_unit_gain(self):
        out = preprocessed(np.full(20000, -1.7))
        assert np.allclose(out[INTERIOR], -1.7, rtol=0, atol=1e-9)

    def test_400hz_tone_attenuated(self):
        t = np.arange(20000) / 2000
        x = 0.5 * np.sin(2 * np.pi * 400 * t)
        rms_in = np.sqrt(np.mean(x ** 2))
        rms_out = np.sqrt(np.mean(preprocessed(x)[INTERIOR] ** 2))
        assert rms_out <= 0.01 * rms_in

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=3000)
        y = rng.normal(size=3000)
        a, b = 0.7, -1.3
        assert np.allclose(preprocessed(a * x + b * y),
                           a * preprocessed(x) + b * preprocessed(y),
                           rtol=0, atol=1e-12)


class TestDecimate:
    """preprocess's decimation stage, seen through its output."""

    def test_factor_one_is_identity(self):
        x = np.random.default_rng(2).normal(size=5000)
        assert np.array_equal(preprocessed(x, 500), x)

    def test_2000_to_500(self):
        # 8000 samples at 2000 Hz keep 2000, which are tiled to 5000.
        out = preprocessed(np.random.default_rng(3).normal(size=8000))
        assert np.array_equal(out[2000:4000], out[:2000])
        assert np.array_equal(out[4000:], out[:1000])
        assert not np.array_equal(out[1:2001], out[:2000])

    def test_keeps_every_other_sample(self):
        # A 5 Hz tone at 1000 Hz is in the pass band: the output is the
        # tone at 500 Hz from index 0.  One input sample of lag would move
        # it by 0.03.
        x = np.sin(2 * np.pi * 5 * np.arange(10000) / 1000)
        out = preprocessed(x, 1000)
        assert np.allclose(out[INTERIOR], x[::2][INTERIOR], rtol=0, atol=1e-3)

    def test_invalid_factor(self):
        for rate in (250, 750, 1234, 44100):
            with pytest.raises(PcgError, match=f"rate {rate} is not"):
                preprocess(AudioRecord("d", np.zeros(8000), rate))


class TestFixLength:
    """preprocess's length stage: cut to 5000 samples, or tile and cut."""

    def test_truncate(self):
        assert np.array_equal(preprocessed(np.arange(12000.0), 500),
                              np.arange(5000.0))

    def test_tile_then_truncate(self):
        base = np.arange(3000.0)
        out = preprocessed(base, 500)
        assert np.array_equal(out[:3000], base)
        assert np.array_equal(out[3000:], base[:2000])


@pytest.mark.parametrize("rate, n, digest", [
    (2000, 21000,
     "09927ddb711eba31a54e27beca741d14ec61c5bddc13aaf86a8058ce29eef00d"),
    (4000, 30001,
     "e101abbe7159336bfffb87fdf3ee2a78424d9217819ba2a13ac7da4f5afb8574"),
    (500, 1234,
     "dccea8177a48009f171a4757d1c28e061198fc30d45a292fcee3ca7fbbf5b2de"),
])
def test_preprocess_output_is_pinned(rate, n, digest):
    # Digests of the output bytes when preprocess was five public steps:
    # the filter design, the delay slice, the decimation and the tiling
    # are fixed to the bit.
    out = preprocessed(np.random.default_rng(n).normal(size=n), rate)
    assert hashlib.sha256(out.astype("<f8").tobytes()).hexdigest() == digest


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
