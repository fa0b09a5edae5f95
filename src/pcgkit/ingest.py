"""Reading and preprocessing of heart-sound recordings.

A recording enters the pipeline as an :class:`AudioRecord`, is low-pass
filtered at CUTOFF_HZ (250 Hz), decimated to TARGET_RATE_HZ (500 Hz), and
cut or tiled to TARGET_SAMPLES (5000, 10 s): the paper's fixed protocol,
not parameters.  All operations are pure functions returning new records.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CorruptHeader, InvalidFactor, RateMismatch, UnsupportedFormat

TARGET_RATE_HZ = 500
TARGET_SAMPLES = 5000
CUTOFF_HZ = 250.0
NUM_TAPS = 101

PCM_FULL_SCALE = 32768.0  # int16 sample / 32768 -> float in [-1, 1)


class Label(enum.Enum):
    HEALTHY = "healthy"
    PATHOLOGICAL = "pathological"
    UNLABELED = "unlabeled"


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


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR low-pass filter (odd, symmetric taps, unit DC gain)."""

    taps: np.ndarray
    design_rate_hz: float


# ---------------------------------------------------------------------------
# WAV I/O (RIFF container, mono 16-bit PCM only)
# ---------------------------------------------------------------------------

def read_wav(path: str | Path, label: Label = Label.UNLABELED) -> AudioRecord:
    """Read a mono 16-bit PCM WAV file into an AudioRecord.

    Integer samples are mapped to reals by dividing by 32768.  Raises
    UnsupportedFormat for multi-channel, non-PCM or non-16-bit data and
    CorruptHeader for malformed containers: a zero sample rate, or a data
    chunk that is missing, truncated, empty or of odd byte count.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptHeader(f"{path} is not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptHeader(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise CorruptHeader(f"{path}: data chunk truncated")
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise CorruptHeader(f"{path}: missing fmt or data chunk")

    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormat(f"{path}: not PCM (format code {audio_format})")
    if channels != 1:
        raise UnsupportedFormat(f"{path}: {channels} channels, expected mono")
    if bits != 16:
        raise UnsupportedFormat(f"{path}: {bits}-bit samples, expected 16")
    if rate == 0:
        raise CorruptHeader(f"{path}: sample rate is 0")
    if not data or len(data) % 2:
        raise CorruptHeader(f"{path}: data chunk of {len(data)} bytes does "
                            "not hold whole 16-bit samples")

    ints = np.frombuffer(data, dtype="<i2")
    return AudioRecord(
        id=path.stem,
        samples=ints.astype(np.float64) / PCM_FULL_SCALE,
        sample_rate_hz=int(rate),
        label=label,
    )


def write_wav(record: AudioRecord, path: str | Path) -> None:
    """Write a record as mono 16-bit PCM WAV (inverse of read_wav's scaling)."""
    path = Path(path)
    ints = np.clip(np.round(record.samples * PCM_FULL_SCALE), -32768, 32767)
    payload = ints.astype("<i2").tobytes()
    rate = int(record.sample_rate_hz)
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


def read_csv_record(path: str | Path, rate_hz: int,
                    label: Label = Label.UNLABELED) -> AudioRecord:
    """Read a headerless one-value-per-line CSV as an AudioRecord."""
    path = Path(path)
    samples = np.loadtxt(path, dtype=np.float64, ndmin=1)
    return AudioRecord(id=path.stem, samples=samples,
                       sample_rate_hz=rate_hz, label=label)


# ---------------------------------------------------------------------------
# Filtering and resampling
# ---------------------------------------------------------------------------

def design_lowpass(rate_hz: float) -> FirFilter:
    """Design the CUTOFF_HZ windowed-sinc FIR low-pass filter at rate_hz.

    The ideal sinc response is shaped by a raised-cosine taper and the taps
    are normalized so their sum (the DC gain) is exactly 1.  NUM_TAPS is
    odd, so the filter has an integer group delay.  rate_hz must exceed
    2 * CUTOFF_HZ, as every rate preprocess designs at does.
    """
    half = NUM_TAPS // 2
    l = np.arange(-half, half + 1)
    fc = CUTOFF_HZ / rate_hz
    ideal = 2.0 * fc * np.sinc(2.0 * fc * l)
    taper = 0.5 + 0.5 * np.cos(np.pi * l / (half + 1))
    taps = ideal * taper
    taps = taps / taps.sum()
    return FirFilter(taps=taps, design_rate_hz=float(rate_hz))


def apply_filter(record: AudioRecord, fir: FirFilter) -> AudioRecord:
    """Convolve and compensate group delay; output has the input's length."""
    if fir.design_rate_hz != record.sample_rate_hz:
        raise RateMismatch(
            f"filter designed at {fir.design_rate_hz} Hz, "
            f"record sampled at {record.sample_rate_hz} Hz")
    full = np.convolve(record.samples, fir.taps)
    delay = (fir.taps.size - 1) // 2
    out = full[delay:delay + record.samples.size]
    return replace(record, samples=out)


def decimate(record: AudioRecord, factor: int) -> AudioRecord:
    """Keep every factor-th sample starting at index 0; rate drops by factor.

    The record must already be band-limited below the new Nyquist rate.
    """
    if factor < 1 or int(factor) != factor:
        raise InvalidFactor(f"decimation factor must be a positive integer, got {factor}")
    factor = int(factor)
    if record.sample_rate_hz % factor != 0:
        raise InvalidFactor(
            f"factor {factor} does not divide rate {record.sample_rate_hz}")
    return replace(record, samples=record.samples[::factor],
                   sample_rate_hz=record.sample_rate_hz // factor)


def fix_length(record: AudioRecord) -> AudioRecord:
    """Cut long records to TARGET_SAMPLES; tile short ones, then cut.

    Tiling preserves the periodic heartbeat statistics that zero padding
    would destroy.
    """
    if record.samples.size == TARGET_SAMPLES:
        return record
    return replace(record, samples=np.resize(record.samples, TARGET_SAMPLES))


def preprocess(record: AudioRecord) -> AudioRecord:
    """Low-pass, decimate to TARGET_RATE_HZ, fix length to TARGET_SAMPLES.

    Records already at the target rate skip the filter/decimate stage.
    """
    if record.sample_rate_hz != TARGET_RATE_HZ:
        if record.sample_rate_hz % TARGET_RATE_HZ != 0:
            raise InvalidFactor(
                f"rate {record.sample_rate_hz} is not an integer multiple "
                f"of target {TARGET_RATE_HZ}")
        record = apply_filter(record, design_lowpass(record.sample_rate_hz))
        record = decimate(record, record.sample_rate_hz // TARGET_RATE_HZ)
    return fix_length(record)
