"""Deterministic synthetic heart-sound generator for desk-scale testing.

Each cardiac cycle holds a strong low-frequency S1 burst at the cycle
start, a quiet systolic gap, a weaker higher-frequency S2 burst at 35% of
the cycle, and a quiet diastolic gap.  Pathological records add
band-limited murmur energy inside the systolic gap, which is exactly the
cue the feature/classifier pipeline is supposed to pick up.  The output is
reproducible bit for bit from the seed.  The signal model is fixed by the
module constants; SynthConfig holds only what the CLI sets.

A record's random stream is the heart rate, then per cycle 24 uniforms
(8 frequencies, 8 phases, 8 amplitudes) for S1, for S2 and, when it is
pathological with a murmur, for the murmur, then the noise.  All tone
uniforms come in one draw and each burst kind is one `sin` call over all
cycles, so a record costs the same number of numpy calls however many
cycles it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PcgError, check_count
from .ingest import CLASS_INDEX, MAX_WAV_SAMPLES, AudioRecord, Label
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
                raise PcgError(
                    f"{name} must be finite, got {getattr(self, name)}")
        top_hz = max(hi for _, hi in (S1_BAND_HZ, S2_BAND_HZ, MURMUR_BAND_HZ))
        if not 2 * top_hz < self.rate_hz:  # no huge int becomes a float
            raise PcgError(
                f"rate {self.rate_hz} Hz puts the {top_hz} Hz band edge "
                f"at or above Nyquist")
        if self.duration_s < 2 * 60.0 / HEART_RATE_BPM[0]:
            raise PcgError(
                f"duration {self.duration_s}s holds fewer than 2 cycles "
                f"at {HEART_RATE_BPM[0]} bpm")
        # round(duration_s * rate_hz) > MAX_WAV_SAMPLES, which is odd, so a
        # tie at MAX_WAV_SAMPLES + 0.5 rounds up.  The rate is compared
        # first: a huge int would overflow in the product.
        if (self.rate_hz > MAX_WAV_SAMPLES
                or self.duration_s * self.rate_hz >= MAX_WAV_SAMPLES + 0.5):
            raise PcgError(
                f"duration {self.duration_s}s at rate {self.rate_hz} Hz is "
                f"more than the {MAX_WAV_SAMPLES} samples a WAV file holds")
        if self.murmur_gain < 0 or self.noise_floor < 0:
            raise PcgError("murmur_gain and noise_floor must be >= 0")


def _tones(u: np.ndarray, t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per row of u, the sum at times t of TONES_PER_BURST sinusoids whose
    frequencies in [lo, hi), phases and amplitudes in [0.5, 1) are that
    row's uniforms, in that order."""
    k = TONES_PER_BURST
    freqs = lo + (hi - lo) * u[:, :k, None]
    phases = 2.0 * np.pi * u[:, k:2 * k, None]
    amps = 0.5 + 0.5 * u[:, 2 * k:, None]
    arg = 2.0 * np.pi * freqs * t  # (cycles, k, t.size), updated in place
    arg += phases
    np.sin(arg, out=arg)
    arg *= amps
    return arg.sum(axis=1)


def _tone_burst(u: np.ndarray, num: int, rate: int,
                band: tuple[float, float], peak: float) -> np.ndarray:
    """Per row of u, a Gaussian-enveloped sum of random in-band tones."""
    t = np.arange(num) / rate
    lo, hi = band
    margin = 0.1 * (hi - lo)
    sig = _tones(u, t, lo + margin, hi - margin)
    center = 0.5 * num / rate
    sigma = (num / rate) / 6.0
    sig *= np.exp(-0.5 * ((t - center) / sigma) ** 2)
    return peak * sig / np.abs(sig).max(axis=1, keepdims=True)


def _murmur(u: np.ndarray, num: int, rate: int, rms: float) -> np.ndarray:
    """Per row of u, band-limited murmur with the requested RMS, tapered."""
    sig = _tones(u, np.arange(num) / rate, *MURMUR_BAND_HZ)
    ramp = max(1, num // 10)
    taper = np.ones(num)
    edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    taper[:ramp] = edge
    taper[-ramp:] = edge[::-1]
    sig *= taper
    return rms * sig / np.sqrt(np.mean(sig ** 2, axis=1, keepdims=True))


def generate(config: SynthConfig, label: Label) -> AudioRecord:
    """Generate one synthetic record.

    The stream of np.random.default_rng(config.seed) is laid out as: the
    heart rate, uniform in HEART_RATE_BPM, which fixes the cycle length;
    then per whole cycle 3 * TONES_PER_BURST uniforms for S1, as many for
    S2 and, in a pathological record with murmur_gain > 0, as many for the
    murmur; then one normal per sample for the noise floor.  Every cycle
    runs S1, systole, S2, diastole as the module docstring lays out.  The
    tone uniforms are one draw and each burst kind one `sin` call, so the
    number of numpy calls does not grow with the number of cycles.
    """
    if label not in CLASS_INDEX:
        raise PcgError(
            f"label must be {' or '.join(l.name for l in CLASS_INDEX)}")
    rng = np.random.default_rng(config.seed)
    rate = config.rate_hz
    n = int(round(config.duration_s * rate))
    samples = np.zeros(n)

    bpm = rng.uniform(*HEART_RATE_BPM)
    cycle = int(round(rate * 60.0 / bpm))
    s1_n = int(round(S1_DURATION_S * rate))
    s2_n = int(round(S2_DURATION_S * rate))
    s2_a = int(round(S2_CYCLE_FRACTION * cycle))
    murmur = label is Label.PATHOLOGICAL and config.murmur_gain > 0

    cycles = n // cycle
    u = rng.random(cycles * (3 if murmur else 2) * 3 * TONES_PER_BURST)
    u = u.reshape(cycles, -1, 3 * TONES_PER_BURST)
    # No two bursts overlap, so each lands on zeros and adds exactly.
    per_cycle = samples[:cycles * cycle].reshape(cycles, cycle)
    per_cycle[:, :s1_n] += _tone_burst(u[:, 0], s1_n, rate, S1_BAND_HZ,
                                       S1_PEAK)
    per_cycle[:, s2_a:s2_a + s2_n] += _tone_burst(u[:, 1], s2_n, rate,
                                                  S2_BAND_HZ, S2_PEAK)
    if murmur:
        per_cycle[:, s1_n:s2_a] += _murmur(u[:, 2], s2_a - s1_n, rate,
                                           config.murmur_gain)

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
