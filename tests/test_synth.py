import hashlib
import math
import re

import numpy as np
import pytest

from pcgkit import synth
from pcgkit.errors import PcgError
from pcgkit.features import feature_matrix
from pcgkit.ingest import MAX_WAV_SAMPLES, Label, preprocess
from pcgkit.synth import SynthConfig, generate, generate_dataset
from pcgkit.windows import WindowShape, WindowSpec, frame_matrix


def rms(x):
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


def interval_rms(samples, intervals):
    return rms(np.concatenate([samples[a:b] for a, b in intervals]))


def cycle_intervals(config):
    """The sample intervals of each cycle's S1, systole, S2 and diastole,
    rebuilt from synth's documented layout: the heart rate is the first
    draw of np.random.default_rng(seed), and whole cycles follow from 0."""
    rate = config.rate_hz
    n = int(round(config.duration_s * rate))
    bpm = np.random.default_rng(config.seed).uniform(*synth.HEART_RATE_BPM)
    cycle = int(round(rate * 60.0 / bpm))
    s1_n = int(round(synth.S1_DURATION_S * rate))
    s2_n = int(round(synth.S2_DURATION_S * rate))
    iv = {"s1": [], "systole": [], "s2": [], "diastole": []}
    for pos in range(0, n - cycle + 1, cycle):
        s2_a = pos + int(round(synth.S2_CYCLE_FRACTION * cycle))
        iv["s1"].append((pos, pos + s1_n))
        iv["systole"].append((pos + s1_n, s2_a))
        iv["s2"].append((s2_a, s2_a + s2_n))
        iv["diastole"].append((s2_a + s2_n, pos + cycle))
    return iv


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(seed=7)
        a = generate(cfg, Label.HEALTHY)
        b = generate(cfg, Label.HEALTHY)
        assert np.array_equal(a.samples, b.samples)
        c = generate(SynthConfig(seed=8), Label.HEALTHY)
        assert not np.array_equal(a.samples, c.samples)

    def test_shape_and_metadata(self):
        cfg = SynthConfig(seed=1, duration_s=10.0, rate_hz=2000)
        rec = generate(cfg, Label.PATHOLOGICAL)
        assert rec.samples.size == 20000
        assert rec.sample_rate_hz == 2000
        assert rec.label is Label.PATHOLOGICAL

    def test_healthy_diastole_is_quiet(self):
        for seed in range(5):
            cfg = SynthConfig(seed=seed)
            rec, iv = generate(cfg, Label.HEALTHY), cycle_intervals(cfg)
            assert interval_rms(rec.samples, iv["diastole"]) <= 3 * cfg.noise_floor

    def test_murmur_raises_systolic_energy(self):
        for seed in range(5):
            cfg = SynthConfig(seed=seed, murmur_gain=0.3)
            rec_h = generate(cfg, Label.HEALTHY)
            rec_p = generate(cfg, Label.PATHOLOGICAL)
            iv = cycle_intervals(cfg)
            ratio_h = (interval_rms(rec_h.samples, iv["systole"])
                       / interval_rms(rec_h.samples, iv["diastole"]))
            ratio_p = (interval_rms(rec_p.samples, iv["systole"])
                       / interval_rms(rec_p.samples, iv["diastole"]))
            assert ratio_p >= 3 * ratio_h

    def test_burst_energy_confined_to_bands(self):
        # Isolate each burst at its documented place and measure its
        # spectrum; >= 95% of the energy must sit in band.
        cfg = SynthConfig(seed=3, noise_floor=0.0)
        rec, iv = generate(cfg, Label.HEALTHY), cycle_intervals(cfg)
        for part, fmax in (("s1", 200.0), ("s2", 250.0)):
            for a, b in iv[part]:
                burst = rec.samples[a:b]
                power = np.abs(np.fft.rfft(burst)) ** 2
                freqs = np.fft.rfftfreq(burst.size, 1.0 / cfg.rate_hz)
                assert power[freqs <= fmax].sum() / power.sum() >= 0.95


class TestGenerateDataset:
    def test_balanced_corpus(self):
        records = generate_dataset(150, 150, base_seed=0,
                                   config=SynthConfig(duration_s=2.5))
        assert len(records) == 300
        assert sum(1 for r in records if r.label is Label.HEALTHY) == 150
        assert sum(1 for r in records if r.label is Label.PATHOLOGICAL) == 150

    def test_distinct_seeds(self):
        records = generate_dataset(1, 1, base_seed=5)
        assert len(records) == 2
        assert records[0].id != records[1].id
        assert not np.array_equal(records[0].samples, records[1].samples)

    def test_negative_base_seed_is_its_64_bit_residue(self):
        config = SynthConfig(duration_s=2.5)
        a = generate_dataset(1, 1, base_seed=-1, config=config)
        b = generate_dataset(1, 1, base_seed=(1 << 64) - 1, config=config)
        for x, y in zip(a, b):
            assert np.array_equal(x.samples, y.samples)

    def test_records_survive_preprocessing(self):
        for rec in generate_dataset(2, 2, base_seed=6):
            out = preprocess(rec)
            assert out.sample_rate_hz == 500
            assert out.samples.size == 5000
            assert out.label is rec.label


def test_class_separability_knob():
    # With murmur_gain >= 0.3 the mean per-record variance feature must
    # differ between classes by at least 3 pooled standard deviations.
    records = [preprocess(r) for r in
               generate_dataset(12, 12, base_seed=77,
                                config=SynthConfig(murmur_gain=0.3))]
    spec = WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 30)
    per_class = {Label.HEALTHY: [], Label.PATHOLOGICAL: []}
    for rec in records:
        frames, _ = frame_matrix(rec.samples, spec, hop=25)
        per_class[rec.label].append(feature_matrix(frames)[:, 3].mean())
    h = np.array(per_class[Label.HEALTHY])
    p = np.array(per_class[Label.PATHOLOGICAL])
    pooled = np.sqrt((h.var(ddof=1) + p.var(ddof=1)) / 2)
    assert abs(p.mean() - h.mean()) >= 3 * pooled


class TestConfigValidation:
    def test_band_outside_nyquist(self):
        for rate in (400, 500):  # the S2 band reaches 250 Hz
            with pytest.raises(PcgError, match="at or above Nyquist"):
                SynthConfig(rate_hz=rate)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SynthConfig(seed=-1)

    def test_duration_too_short(self):
        with pytest.raises(PcgError, match="fewer than 2 cycles"):
            SynthConfig(duration_s=1.0)

    @pytest.mark.parametrize("name", ["duration_s", "murmur_gain",
                                      "noise_floor"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_number_rejected(self, name, value):
        # NaN is below nothing, so the range checks alone let it through.
        with pytest.raises(PcgError, match=f"^{name} must be finite"):
            SynthConfig(**{name: value})

    @pytest.mark.parametrize("duration, rate", [
        (10.0, 10**400),          # a huge int, never turned into a float
        (1e308, 2000),            # the product overflows to inf
        (1e300, 2000),
        (10.0, MAX_WAV_SAMPLES + 1),
        ((MAX_WAV_SAMPLES + 0.5) / 1024, 1024),  # round() takes the tie up
    ], ids=["huge-rate", "inf-product", "huge-duration", "rate-over",
            "tie-over"])
    def test_more_samples_than_a_wav_holds_rejected(self, duration, rate):
        # write_wav's 32-bit RIFF sizes: refused before any allocation.
        with pytest.raises(PcgError, match="^" + re.escape(
                f"duration {duration}s at rate {rate} Hz is more than the "
                f"{MAX_WAV_SAMPLES} samples a WAV file holds") + "$"):
            SynthConfig(duration_s=duration, rate_hz=rate)

    def test_largest_wav_accepted(self):
        config = SynthConfig(duration_s=MAX_WAV_SAMPLES / 1024, rate_hz=1024)
        assert round(config.duration_s * config.rate_hz) == MAX_WAV_SAMPLES

    def test_negative_gain(self):
        with pytest.raises(PcgError, match="must be >= 0"):
            SynthConfig(murmur_gain=-0.1)

    def test_unlabeled_rejected(self):
        with pytest.raises(PcgError, match="label must be"):
            generate(SynthConfig(), Label.UNLABELED)


@pytest.mark.parametrize("make, digest", [
    (lambda: generate_dataset(2, 2, base_seed=0),
     "d77431b2cef29f33edda08d6671741b799678a53c9c76e0173d28e7c7afbc59a"),
    (lambda: [generate(SynthConfig(seed=5, duration_s=3.0, rate_hz=1000,
                                   murmur_gain=0.0), Label.PATHOLOGICAL)],
     "ecfdc9675fd69677647a8651a76a3c570735c72941b769aa5a0f9f6da646c860"),
    (lambda: [generate(SynthConfig(seed=9, duration_s=12.5, rate_hz=4000,
                                   noise_floor=0.0, murmur_gain=0.05),
                       Label.PATHOLOGICAL)],
     "2988d983185e12640be2ac1062c2a0bbf928739a07732c0ff1c34c9aaae8c140"),
], ids=["dataset", "no_murmur", "no_noise"])
def test_records_are_pinned(make, digest):
    """SHA-256 of each case's samples as little-endian float64, records
    concatenated in list order.  The digests were taken from the per-cycle
    generator that drew three `uniform` calls and one `sin` per burst, so
    they hold the whole-record generator to the same bytes.  Only numpy 2.4
    is pinned: another numpy may round `sin` or draw differently."""
    sha = hashlib.sha256()
    for rec in make():
        sha.update(np.asarray(rec.samples, dtype="<f8").tobytes())
    assert sha.hexdigest() == digest
