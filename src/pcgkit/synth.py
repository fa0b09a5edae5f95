"""Deterministic synthetic heart-sound generator for desk-scale testing.

Each cardiac cycle holds a strong low-frequency S1 burst at the cycle
start, a quiet systolic gap, a weaker higher-frequency S2 burst at 35% of
the cycle, and a quiet diastolic gap.  Pathological records add
band-limited murmur energy inside the systolic gap, which is exactly the
cue the feature/classifier pipeline is supposed to pick up.  The output is
reproducible bit for bit from the seed.  The signal model is fixed by the
module constants; SynthConfig holds only what the CLI sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig, check_count
from .ingest import CLASS_INDEX, AudioRecord, Label
from .rng import mix_seed

S1_DURATION_S = 0.12
S2_DURATION_S = 0.10
S2_CYCLE_FRACTION = 0.35
S1_PEAK = 0.8
S2_PEAK = 0.5
HEART_RATE_BPM = (55.0, 95.0)
S1_BAND_HZ = (10.0, 200.0)
S2_BAND_HZ = (20.0, 250.0)
MURMUR_BAND_HZ = (60.0, 240.0)
TONES_PER_BURST = 8


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    duration_s: float = 10.0
    rate_hz: int = 2000
    murmur_gain: float = 0.3
    noise_floor: float = 0.01

    def __post_init__(self):
        check_count("seed", self.seed, 0)
        check_count("rate_hz", self.rate_hz, 1)
        for name in ("duration_s", "murmur_gain", "noise_floor"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(
                    f"{name} must be finite, got {getattr(self, name)}")
        top_hz = max(hi for _, hi in (S1_BAND_HZ, S2_BAND_HZ, MURMUR_BAND_HZ))
        if not top_hz < self.rate_hz / 2:
            raise InvalidConfig(
                f"rate {self.rate_hz} Hz puts the {top_hz} Hz band edge "
                f"at or above Nyquist")
        if self.duration_s < 2 * 60.0 / HEART_RATE_BPM[0]:
            raise InvalidConfig(
                f"duration {self.duration_s}s holds fewer than 2 cycles "
                f"at {HEART_RATE_BPM[0]} bpm")
        if self.murmur_gain < 0 or self.noise_floor < 0:
            raise InvalidConfig("murmur_gain and noise_floor must be >= 0")


def _tones(rng: np.random.Generator, t: np.ndarray, lo: float,
           hi: float) -> np.ndarray:
    """Sum at times t of TONES_PER_BURST sinusoids: frequencies uniform in
    [lo, hi), then phases, then amplitudes in [0.5, 1), in that draw order."""
    freqs = rng.uniform(lo, hi, TONES_PER_BURST)
    phases = rng.uniform(0.0, 2.0 * np.pi, TONES_PER_BURST)
    amps = rng.uniform(0.5, 1.0, TONES_PER_BURST)
    return (amps[:, None] * np.sin(2.0 * np.pi * freqs[:, None] * t
                                   + phases[:, None])).sum(axis=0)


def _tone_burst(rng: np.random.Generator, num: int, rate: int,
                band: tuple[float, float], peak: float) -> np.ndarray:
    """Gaussian-enveloped sum of random tones confined inside the band."""
    t = np.arange(num) / rate
    lo, hi = band
    margin = 0.1 * (hi - lo)
    sig = _tones(rng, t, lo + margin, hi - margin)
    center = 0.5 * num / rate
    sigma = (num / rate) / 6.0
    sig *= np.exp(-0.5 * ((t - center) / sigma) ** 2)
    return peak * sig / np.abs(sig).max()


def _murmur(rng: np.random.Generator, num: int, rate: int,
            rms: float) -> np.ndarray:
    """Band-limited murmur noise with the requested RMS, tapered at the ends."""
    sig = _tones(rng, np.arange(num) / rate, *MURMUR_BAND_HZ)
    ramp = max(1, num // 10)
    taper = np.ones(num)
    edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    taper[:ramp] = edge
    taper[-ramp:] = edge[::-1]
    sig *= taper
    return rms * sig / np.sqrt(np.mean(sig ** 2))


def generate(config: SynthConfig, label: Label) -> AudioRecord:
    """Generate one synthetic record.

    The heart rate is the first draw of np.random.default_rng(config.seed),
    uniform in HEART_RATE_BPM; it fixes the cycle length, and every cycle
    runs S1, systole, S2, diastole as the module docstring lays out.
    """
    if label not in CLASS_INDEX:
        raise InvalidConfig(
            f"label must be {' or '.join(l.name for l in CLASS_INDEX)}")
    rng = np.random.default_rng(config.seed)
    rate = config.rate_hz
    n = int(round(config.duration_s * rate))
    samples = np.zeros(n)

    bpm = rng.uniform(*HEART_RATE_BPM)
    cycle = int(round(rate * 60.0 / bpm))
    s1_n = int(round(S1_DURATION_S * rate))
    s2_n = int(round(S2_DURATION_S * rate))

    pos = 0
    while pos + cycle <= n:
        s1_a, s1_b = pos, pos + s1_n
        s2_a = pos + int(round(S2_CYCLE_FRACTION * cycle))
        s2_b = s2_a + s2_n
        samples[s1_a:s1_b] += _tone_burst(rng, s1_n, rate, S1_BAND_HZ, S1_PEAK)
        samples[s2_a:s2_b] += _tone_burst(rng, s2_n, rate, S2_BAND_HZ, S2_PEAK)
        if label is Label.PATHOLOGICAL and config.murmur_gain > 0:
            samples[s1_b:s2_a] += _murmur(rng, s2_a - s1_b, rate,
                                          config.murmur_gain)
        pos += cycle

    samples += rng.normal(0.0, config.noise_floor, n)
    return AudioRecord(id=f"synth_{label.value}_{config.seed:x}",
                       samples=samples, sample_rate_hz=rate, label=label)


def generate_dataset(n_healthy: int, n_pathological: int, base_seed: int = 0,
                     config: SynthConfig = SynthConfig()) -> list[AudioRecord]:
    """A balanced-or-not labeled corpus with per-record derived seeds;
    base_seed may be any integer, negative too."""
    check_count("base_seed", base_seed, -math.inf)
    check_count("n_healthy", n_healthy, 1)
    check_count("n_pathological", n_pathological, 1)
    records = []
    for i in range(n_healthy):
        cfg = replace(config, seed=mix_seed(base_seed, 0, i))
        rec = generate(cfg, Label.HEALTHY)
        rec.id = f"healthy_{i:03d}"
        records.append(rec)
    for i in range(n_pathological):
        cfg = replace(config, seed=mix_seed(base_seed, 1, i))
        rec = generate(cfg, Label.PATHOLOGICAL)
        rec.id = f"pathological_{i:03d}"
        records.append(rec)
    return records
