"""Deterministic synthetic heart-sound generator for desk-scale testing.

Each cardiac cycle holds a strong low-frequency S1 burst at the cycle
start, a quiet systolic gap, a weaker higher-frequency S2 burst at 35% of
the cycle, and a quiet diastolic gap.  Pathological records add
band-limited murmur energy inside the systolic gap, which is exactly the
cue the feature/classifier pipeline is supposed to pick up.  The output is
reproducible bit for bit from the seed passed to `generate`.  The signal
model, and the rate RATE_HZ of the paper's corpus, are fixed by the module
constants; SynthConfig holds only what the CLI sets.  `generate` lays
out a record's random stream.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import PcgError, check_count, check_real
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
# PhysioNet/CinC 2016's rate, above twice every band's top edge.
RATE_HZ = 2000


@dataclass(frozen=True)
class SynthConfig:
    """What `pcgkit synth` sets: the record duration in seconds, the murmur
    gain and the noise floor.  Each must pass `check_real`, the gain and
    the floor at least 0.  A duration must hold two cycles at the slowest
    heart rate, and at most MAX_WAV_SAMPLES samples at RATE_HZ, the most
    one WAV file holds.  Anything else raises ValueError."""

    duration_s: float = 10.0
    murmur_gain: float = 0.3
    noise_floor: float = 0.01

    def __post_init__(self):
        check_real("duration_s", self.duration_s)
        check_real("murmur_gain", self.murmur_gain, least=0)
        check_real("noise_floor", self.noise_floor, least=0)
        if self.duration_s < 2 * 60.0 / HEART_RATE_BPM[0]:
            raise ValueError(
                f"duration {self.duration_s}s holds fewer than 2 cycles "
                f"at {HEART_RATE_BPM[0]} bpm")
        # round(duration_s * RATE_HZ) > MAX_WAV_SAMPLES, which is odd, so a
        # tie at MAX_WAV_SAMPLES + 0.5 rounds up.
        if self.duration_s * RATE_HZ >= MAX_WAV_SAMPLES + 0.5:
            raise ValueError(
                f"duration {self.duration_s}s at rate {RATE_HZ} Hz is "
                f"more than the {MAX_WAV_SAMPLES} samples a WAV file holds")

    @property
    def num_samples(self) -> int:
        """Samples in each record: duration_s at RATE_HZ."""
        return round(self.duration_s * RATE_HZ)


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


def _tone_burst(u: np.ndarray, num: int, band: tuple[float, float],
                peak: float) -> np.ndarray:
    """Per row of u, a Gaussian-enveloped sum of random in-band tones."""
    t = np.arange(num) / RATE_HZ
    lo, hi = band
    margin = 0.1 * (hi - lo)
    sig = _tones(u, t, lo + margin, hi - margin)
    center = 0.5 * num / RATE_HZ
    sigma = (num / RATE_HZ) / 6.0
    sig *= np.exp(-0.5 * ((t - center) / sigma) ** 2)
    return peak * sig / np.abs(sig).max(axis=1, keepdims=True)


def _murmur(u: np.ndarray, num: int, rms: float) -> np.ndarray:
    """Per row of u, band-limited murmur with the requested RMS, tapered."""
    sig = _tones(u, np.arange(num) / RATE_HZ, *MURMUR_BAND_HZ)
    ramp = max(1, num // 10)
    taper = np.ones(num)
    edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    taper[:ramp] = edge
    taper[-ramp:] = edge[::-1]
    sig *= taper
    return rms * sig / np.sqrt(np.mean(sig ** 2, axis=1, keepdims=True))


def generate(config: SynthConfig, label: Label, seed: int) -> AudioRecord:
    """Generate one synthetic record at RATE_HZ.

    The stream of np.random.default_rng(seed) is laid out as: the
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
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n = config.num_samples
    samples = np.zeros(n)

    bpm = rng.uniform(*HEART_RATE_BPM)
    cycle = int(round(RATE_HZ * 60.0 / bpm))
    s1_n = int(round(S1_DURATION_S * RATE_HZ))
    s2_n = int(round(S2_DURATION_S * RATE_HZ))
    s2_a = int(round(S2_CYCLE_FRACTION * cycle))
    murmur = label is Label.PATHOLOGICAL and config.murmur_gain > 0

    cycles = n // cycle
    u = rng.random(cycles * (3 if murmur else 2) * 3 * TONES_PER_BURST)
    u = u.reshape(cycles, -1, 3 * TONES_PER_BURST)
    # No two bursts overlap, so each lands on zeros and adds exactly.
    per_cycle = samples[:cycles * cycle].reshape(cycles, cycle)
    per_cycle[:, :s1_n] += _tone_burst(u[:, 0], s1_n, S1_BAND_HZ, S1_PEAK)
    per_cycle[:, s2_a:s2_a + s2_n] += _tone_burst(u[:, 1], s2_n, S2_BAND_HZ,
                                                  S2_PEAK)
    if murmur:
        per_cycle[:, s1_n:s2_a] += _murmur(u[:, 2], s2_a - s1_n,
                                           config.murmur_gain)

    samples += rng.normal(0.0, config.noise_floor, n)
    return AudioRecord(id=f"synth_{label.value}_{seed:x}",
                       samples=samples, sample_rate_hz=RATE_HZ, label=label)


def generate_records(n_healthy: int, n_pathological: int, base_seed: int = 0,
                     config: SynthConfig = SynthConfig()) -> Iterator[AudioRecord]:
    """A balanced-or-not labeled corpus with per-record derived seeds, one
    record at a time, each made when it is asked for; base_seed may be any
    integer, negative too.  The counts and seed are checked by this call."""
    check_count("base_seed", base_seed, -math.inf)
    check_count("n_healthy", n_healthy, 1)
    check_count("n_pathological", n_pathological, 1)

    def records():
        for k, (label, count) in enumerate(((Label.HEALTHY, n_healthy),
                                            (Label.PATHOLOGICAL, n_pathological))):
            for i in range(count):
                rec = generate(config, label, mix_seed(base_seed, k, i))
                rec.id = f"{label.value}_{i:03d}"
                yield rec
    return records()


def generate_dataset(n_healthy: int, n_pathological: int, base_seed: int = 0,
                     config: SynthConfig = SynthConfig()) -> list[AudioRecord]:
    """generate_records' corpus as one list."""
    return list(generate_records(n_healthy, n_pathological, base_seed, config))
