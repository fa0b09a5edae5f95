import math

import numpy as np
import pytest

from pcgkit.errors import InvalidConfig
from pcgkit.features import feature_matrix
from pcgkit.ingest import Label, preprocess
from pcgkit.synth import (
    SynthConfig,
    generate,
    generate_dataset,
    generate_with_intervals,
)
from pcgkit.windows import WindowShape, WindowSpec, frame_matrix


def rms(x):
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


def interval_rms(samples, intervals):
    return rms(np.concatenate([samples[a:b] for a, b in intervals]))


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
            rec, iv = generate_with_intervals(cfg, Label.HEALTHY)
            assert interval_rms(rec.samples, iv["diastole"]) <= 3 * cfg.noise_floor

    def test_murmur_raises_systolic_energy(self):
        for seed in range(5):
            cfg = SynthConfig(seed=seed, murmur_gain=0.3)
            rec_h, iv_h = generate_with_intervals(cfg, Label.HEALTHY)
            rec_p, iv_p = generate_with_intervals(cfg, Label.PATHOLOGICAL)
            ratio_h = (interval_rms(rec_h.samples, iv_h["systole"])
                       / interval_rms(rec_h.samples, iv_h["diastole"]))
            ratio_p = (interval_rms(rec_p.samples, iv_p["systole"])
                       / interval_rms(rec_p.samples, iv_p["diastole"]))
            assert ratio_p >= 3 * ratio_h

    def test_burst_energy_confined_to_bands(self):
        # Isolate each burst with the generator's interval bookkeeping and
        # measure its spectrum; >= 95% of the energy must sit in band.
        cfg = SynthConfig(seed=3, noise_floor=0.0)
        rec, iv = generate_with_intervals(cfg, Label.HEALTHY)
        for part, fmax in (("s1", 200.0), ("s2", 250.0)):
            for a, b in iv[part]:
                burst = rec.samples[a:b]
                power = np.abs(np.fft.rfft(burst)) ** 2
                freqs = np.fft.rfftfreq(burst.size, 1.0 / cfg.rate_hz)
                assert power[freqs <= fmax].sum() / power.sum() >= 0.95

    def test_intervals_tile_each_cycle(self):
        cfg = SynthConfig(seed=4)
        _, iv = generate_with_intervals(cfg, Label.HEALTHY)
        cycles = len(iv["s1"])
        assert cycles >= 2
        for k in range(cycles):
            s1 = iv["s1"][k]
            sy = iv["systole"][k]
            s2 = iv["s2"][k]
            di = iv["diastole"][k]
            assert s1[1] == sy[0] and sy[1] == s2[0] and s2[1] == di[0]
            if k + 1 < cycles:
                assert di[1] == iv["s1"][k + 1][0]


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
            with pytest.raises(InvalidConfig):
                SynthConfig(rate_hz=rate)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SynthConfig(seed=-1)

    def test_duration_too_short(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(duration_s=1.0)

    @pytest.mark.parametrize("name", ["duration_s", "murmur_gain",
                                      "noise_floor"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_number_rejected(self, name, value):
        # NaN is below nothing, so the range checks alone let it through.
        with pytest.raises(InvalidConfig, match=f"^{name} must be finite"):
            SynthConfig(**{name: value})

    def test_negative_gain(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(murmur_gain=-0.1)

    def test_unlabeled_rejected(self):
        with pytest.raises(InvalidConfig):
            generate(SynthConfig(), Label.UNLABELED)
