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


def cycle_intervals(config, seed):
    """The sample intervals of each cycle's S1, systole, S2 and diastole,
    rebuilt from synth's documented layout: the heart rate is the first
    draw of np.random.default_rng(seed), and whole cycles follow from 0."""
    rate = synth.RATE_HZ
    n = int(round(config.duration_s * rate))
    bpm = np.random.default_rng(seed).uniform(*synth.HEART_RATE_BPM)
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
        a = generate(SynthConfig(), Label.HEALTHY, 7)
        b = generate(SynthConfig(), Label.HEALTHY, 7)
        assert np.array_equal(a.samples, b.samples)
        c = generate(SynthConfig(), Label.HEALTHY, 8)
        assert not np.array_equal(a.samples, c.samples)

    def test_shape_and_metadata(self):
        rec = generate(SynthConfig(duration_s=10.0), Label.PATHOLOGICAL, 1)
        assert rec.samples.size == 20000
        assert rec.sample_rate_hz == 2000
        assert rec.label is Label.PATHOLOGICAL

    def test_healthy_diastole_is_quiet(self):
        for seed in range(5):
            cfg = SynthConfig()
            rec = generate(cfg, Label.HEALTHY, seed)
            iv = cycle_intervals(cfg, seed)
            assert interval_rms(rec.samples, iv["diastole"]) <= 3 * cfg.noise_floor

    def test_murmur_raises_systolic_energy(self):
        for seed in range(5):
            cfg = SynthConfig(murmur_gain=0.3)
            rec_h = generate(cfg, Label.HEALTHY, seed)
            rec_p = generate(cfg, Label.PATHOLOGICAL, seed)
            iv = cycle_intervals(cfg, seed)
            ratio_h = (interval_rms(rec_h.samples, iv["systole"])
                       / interval_rms(rec_h.samples, iv["diastole"]))
            ratio_p = (interval_rms(rec_p.samples, iv["systole"])
                       / interval_rms(rec_p.samples, iv["diastole"]))
            assert ratio_p >= 3 * ratio_h

    def test_burst_energy_confined_to_bands(self):
        # Isolate each burst at its documented place and measure its
        # spectrum; >= 95% of the energy must sit in band.
        cfg = SynthConfig(noise_floor=0.0)
        rec, iv = generate(cfg, Label.HEALTHY, 3), cycle_intervals(cfg, 3)
        for part, fmax in (("s1", 200.0), ("s2", 250.0)):
            for a, b in iv[part]:
                burst = rec.samples[a:b]
                power = np.abs(np.fft.rfft(burst)) ** 2
                freqs = np.fft.rfftfreq(burst.size, 1.0 / synth.RATE_HZ)
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
    def test_bands_below_nyquist(self):
        # The rate is fixed, so no config can put a band at or above Nyquist.
        bands = (synth.S1_BAND_HZ, synth.S2_BAND_HZ, synth.MURMUR_BAND_HZ)
        assert 2 * max(hi for _, hi in bands) < synth.RATE_HZ

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            generate(SynthConfig(), Label.HEALTHY, -1)

    def test_seed_is_required(self):
        with pytest.raises(TypeError, match="seed"):
            generate(SynthConfig(), Label.HEALTHY)

    def test_duration_too_short(self):
        with pytest.raises(ValueError, match="fewer than 2 cycles"):
            SynthConfig(duration_s=1.0)

    @pytest.mark.parametrize("name", ["duration_s", "murmur_gain",
                                      "noise_floor"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 10**400, -10**400],
                             ids=["inf", "nan", "int-1e400", "int--1e400"])
    def test_non_finite_number_rejected(self, name, value):
        # NaN is below nothing, so the range checks alone let it through;
        # an int no float holds is not finite either.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SynthConfig(**{name: value})

    @pytest.mark.parametrize("name", ["duration_s", "murmur_gain",
                                      "noise_floor"])
    @pytest.mark.parametrize("value", [True, "10", None, 1j],
                             ids=["bool", "str", "none", "complex"])
    def test_non_number_rejected(self, name, value):
        # WindowSpec.alpha's rule: an int or float, and not a bool, which
        # would pass as 1.
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{name} must be a number, got {value!r}") + "$"):
            SynthConfig(**{name: value})

    # At 2000 Hz no duration's product is an exact tie: the largest below
    # MAX_WAV_SAMPLES + 0.5 is accepted and rounds down, the next is refused.
    TIE_BELOW = (MAX_WAV_SAMPLES + 0.5) / synth.RATE_HZ

    @pytest.mark.parametrize("duration", [
        1e308,                                # the product overflows to inf
        1e300,
        math.nextafter(TIE_BELOW, math.inf),  # round() would give one more
    ], ids=["inf-product", "huge-duration", "tie-over"])
    def test_more_samples_than_a_wav_holds_rejected(self, duration):
        # write_wav's 32-bit RIFF sizes: refused before any allocation.
        with pytest.raises(ValueError, match="^" + re.escape(
                f"duration {duration}s at rate 2000 Hz is more than the "
                f"{MAX_WAV_SAMPLES} samples a WAV file holds") + "$"):
            SynthConfig(duration_s=duration)

    def test_largest_wav_accepted(self):
        for duration in (MAX_WAV_SAMPLES / synth.RATE_HZ, self.TIE_BELOW):
            config = SynthConfig(duration_s=duration)
            assert round(config.duration_s * synth.RATE_HZ) == MAX_WAV_SAMPLES

    def test_negative_gain(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            SynthConfig(murmur_gain=-0.1)

    def test_unlabeled_rejected(self):
        with pytest.raises(PcgError, match="label must be"):
            generate(SynthConfig(), Label.UNLABELED, 0)


@pytest.mark.parametrize("make, digest", [
    (lambda: generate_dataset(2, 2, base_seed=0),
     "d77431b2cef29f33edda08d6671741b799678a53c9c76e0173d28e7c7afbc59a"),
    (lambda: [generate(SynthConfig(duration_s=3.0, murmur_gain=0.0),
                       Label.PATHOLOGICAL, 5)],
     "f07bb08cd48761e33a054146ab39e886ea870c88c1e0a16505866b684adb5d9d"),
    (lambda: [generate(SynthConfig(duration_s=12.5, noise_floor=0.0,
                                   murmur_gain=0.05), Label.PATHOLOGICAL, 9)],
     "aa4192700dc8739f0fa261acc183dbc60010793230f6297e7b791175545ea3d7"),
], ids=["dataset", "no_murmur", "no_noise"])
def test_records_are_pinned(make, digest):
    """SHA-256 of each case's samples as little-endian float64, records
    concatenated in list order.  The dataset digest was taken from the
    per-cycle generator that drew three `uniform` calls and one `sin` per
    burst, and the other two from the generator whose config still held the
    seed and the rate (set to 2000 Hz), so they hold today's generator to
    the same bytes.  Only numpy 2.4 is pinned: another numpy may round `sin`
    or draw differently."""
    sha = hashlib.sha256()
    for rec in make():
        sha.update(np.asarray(rec.samples, dtype="<f8").tobytes())
    assert sha.hexdigest() == digest
