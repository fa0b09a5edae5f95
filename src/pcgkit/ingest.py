"""Reading and preprocessing of heart-sound recordings.

A recording enters the pipeline as an :class:`AudioRecord`, read from a
mono 16-bit PCM WAV file by `read_wav` (`write_wav` writes one).
`preprocess`, the one preprocessing step, low-pass filters it at
CUTOFF_HZ (250 Hz) with a NUM_TAPS-tap (101) linear-phase windowed-sinc
FIR, keeps one sample in rate / TARGET_RATE_HZ (500 Hz) and cuts or tiles
it to TARGET_SAMPLES (5000, 10 s): the paper's fixed protocol, not
parameters.  It returns a new record.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import PcgError

TARGET_RATE_HZ = 500
TARGET_SAMPLES = 5000
CUTOFF_HZ = 250.0
NUM_TAPS = 101

PCM_FULL_SCALE = 32768.0  # int16 sample / 32768 -> float in [-1, 1)
# RIFF's 32-bit size field holds 36 + the data's bytes, 2 per sample.
MAX_WAV_SAMPLES = (2**32 - 37) // 2
# write_wav's RIFF, fmt and data chunk headers, ahead of the samples.
_WAV_HEADER = "<4sI4s4sIHHIIHH4sI"


class Label(enum.Enum):
    HEALTHY = "healthy"
    PATHOLOGICAL = "pathological"
    UNLABELED = "unlabeled"


# The two classes a classifier tells apart, by class index; class 1 is the
# positive class of every confusion tally.  UNLABELED is not a class.
CLASS_INDEX = {Label.HEALTHY: 0, Label.PATHOLOGICAL: 1}


@dataclass
class AudioRecord:
    """A labeled sampled waveform; amplitudes are dimensionless reals."""

    id: str
    samples: np.ndarray
    sample_rate_hz: int
    label: Label = Label.UNLABELED

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ValueError(f"record {self.id!r} has no samples")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"record {self.id!r} has non-positive sample rate")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


# ---------------------------------------------------------------------------
# WAV I/O (RIFF container, mono 16-bit PCM only)
# ---------------------------------------------------------------------------

def read_wav(path: str | Path, label: Label = Label.UNLABELED) -> AudioRecord:
    """Read a mono 16-bit PCM WAV file into an AudioRecord.

    Integer samples are mapped to reals by dividing by 32768.  Raises
    PcgError for multi-channel, non-PCM or non-16-bit data and for
    malformed containers: a zero sample rate, or a data
    chunk that is missing, truncated, empty or of odd byte count.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise PcgError(f"{path} is not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise PcgError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise PcgError(f"{path}: data chunk truncated")
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise PcgError(f"{path}: missing fmt or data chunk")

    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise PcgError(f"{path}: not PCM (format code {audio_format})")
    if channels != 1:
        raise PcgError(f"{path}: {channels} channels, expected mono")
    if bits != 16:
        raise PcgError(f"{path}: {bits}-bit samples, expected 16")
    if rate == 0:
        raise PcgError(f"{path}: sample rate is 0")
    if not data or len(data) % 2:
        raise PcgError(f"{path}: data chunk of {len(data)} bytes does "
                       "not hold whole 16-bit samples")

    ints = np.frombuffer(data, dtype="<i2")
    return AudioRecord(
        id=path.stem,
        samples=ints.astype(np.float64) / PCM_FULL_SCALE,
        sample_rate_hz=int(rate),
        label=label,
    )


def write_wav(record: AudioRecord, path: str | Path) -> int:
    """Write a record as mono 16-bit PCM WAV (inverse of read_wav's scaling)
    and return how many samples fell outside 16-bit full scale and were
    clipped to it, ±Inf included.  A NaN sample, which has no PCM value,
    raises PcgError before anything is written."""
    path = Path(path)
    nan = np.flatnonzero(np.isnan(record.samples))
    if nan.size:
        raise PcgError(f"record {record.id!r} has a NaN at sample {nan[0]}; "
                       f"{path} not written")
    ints = np.round(record.samples * PCM_FULL_SCALE)
    clipped = np.count_nonzero((ints < -32768) | (ints > 32767))
    payload = np.clip(ints, -32768, 32767).astype("<i2").tobytes()
    rate = int(record.sample_rate_hz)
    header = struct.pack(_WAV_HEADER, b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16,
                         b"data", len(payload))
    path.write_bytes(header + payload)
    return int(clipped)


def wav_bytes(num_samples: int) -> int:
    """The size of the file write_wav writes for num_samples samples."""
    return struct.calcsize(_WAV_HEADER) + 2 * num_samples


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def _lowpass_taps(rate_hz: int) -> np.ndarray:
    """NUM_TAPS taps of the CUTOFF_HZ windowed-sinc low-pass at rate_hz.

    The ideal sinc response is shaped by a raised-cosine taper and the taps
    are normalized so their sum (the DC gain) is exactly 1.  NUM_TAPS is
    odd and the taps are symmetric, so the filter has linear phase and an
    integer group delay.
    """
    half = NUM_TAPS // 2
    l = np.arange(-half, half + 1)
    fc = CUTOFF_HZ / rate_hz
    ideal = 2.0 * fc * np.sinc(2.0 * fc * l)
    taper = 0.5 + 0.5 * np.cos(np.pi * l / (half + 1))
    taps = ideal * taper
    return taps / taps.sum()


def preprocess(record: AudioRecord) -> AudioRecord:
    """The record low-passed, at TARGET_RATE_HZ and TARGET_SAMPLES long.

    Above the target rate, the delay-compensated filter output keeps every
    (rate // TARGET_RATE_HZ)-th sample from index 0; a rate that is not a
    multiple of TARGET_RATE_HZ raises PcgError.  The result is cut to
    TARGET_SAMPLES, or tiled and then cut: tiling preserves the periodic
    heartbeat statistics that zero padding would destroy.
    """
    samples, rate = record.samples, record.sample_rate_hz
    if rate != TARGET_RATE_HZ:
        if rate % TARGET_RATE_HZ != 0:
            raise PcgError(
                f"rate {rate} is not an integer multiple "
                f"of target {TARGET_RATE_HZ}")
        delay = NUM_TAPS // 2
        filtered = np.convolve(samples, _lowpass_taps(rate))
        samples = filtered[delay:delay + samples.size][::rate // TARGET_RATE_HZ]
    return replace(record, samples=np.resize(samples, TARGET_SAMPLES),
                   sample_rate_hz=TARGET_RATE_HZ)
