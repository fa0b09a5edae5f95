"""Sliding symmetric windows and their spectral diagnostics.

Three shapes are supported: rectangular, triangular, and Gaussian.  A
window covers the symmetric index set l = -L/2 .. L/2 (total length L+1,
always odd).  Spectral diagnostics (main-lobe width, peak side-lobe level)
are measured by grid search on a zero-padded DFT of max(MIN_NFFT,
8 * window length) points, the same way for every shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import PcgError, check_count, check_real

DEFAULT_ALPHA = 2.5
MIN_NFFT = 4096
DB_FLOOR = -300.0


class WindowShape(enum.Enum):
    RECTANGULAR = "rectangular"
    TRIANGULAR = "triangular"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class WindowSpec:
    """Shape + half length (L/2) + Gaussian width parameter.

    half_length is L/2, so the full window has 2*half_length + 1 points.
    alpha is only meaningful for the Gaussian shape; larger alpha narrows
    the window in time.  It must pass `check_real` and be > 0 for every
    shape, so every spec a feature file records reads back.
    """

    shape: WindowShape
    half_length: int
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        check_count("half_length", self.half_length, 1)
        check_real("alpha", self.alpha)
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    @property
    def L(self) -> int:
        return 2 * self.half_length

    @property
    def length(self) -> int:
        return self.L + 1

    @classmethod
    def from_nominal_length(cls, shape: WindowShape, nominal: int,
                            alpha: float = DEFAULT_ALPHA) -> "WindowSpec":
        """Build a spec from a nominal sample-count label (15, 30, 50, ...).

        Odd labels are taken as the full odd length L+1; even labels are
        taken as L itself (full length label+1).  Either way the window
        stays symmetric with an odd point count.
        """
        check_count("nominal length", nominal, 2)
        L = nominal - 1 if nominal % 2 else nominal
        return cls(shape=shape, half_length=L // 2, alpha=alpha)


def make_window(spec: WindowSpec) -> np.ndarray:
    """Window coefficients w[l] for l = -L/2 .. L/2."""
    half = spec.half_length
    l = np.arange(-half, half + 1, dtype=np.float64)
    if spec.shape is WindowShape.RECTANGULAR:
        return np.ones(2 * half + 1)
    if spec.shape is WindowShape.TRIANGULAR:
        return 1.0 - np.abs(2.0 * l) / spec.L
    return np.exp(-0.5 * (spec.alpha * l / half) ** 2)


def frame_centers(n_samples: int, spec: WindowSpec, hop: int) -> np.ndarray:
    """Frame centers L/2, L/2+hop, ... while the window fits; PcgError
    if that leaves fewer than two, the one rule of a usable window.  The
    frames are counted in Python integers before any array is made, so a
    window of any length gets that rule's message."""
    check_count("hop", hop, 1)
    bounds = spec.half_length, n_samples - spec.half_length, hop
    count = len(range(*bounds))
    if count < 2:
        raise PcgError(
            f"window length {spec.length} at hop {hop} leaves {count} "
            f"frame{'' if count == 1 else 's'} in a record of "
            f"{n_samples} samples; features need at least 2")
    return np.arange(*bounds)


def frame_matrix(samples: np.ndarray, spec: WindowSpec,
                 hop: int) -> tuple[np.ndarray, np.ndarray]:
    """All frames at once as a (num_frames, L+1) matrix plus their centers.

    Row t is the windowed segment y_n[l] = w[l] * x[n+l] centered at sample
    n = centers[t].

    Only fully covered (valid) frames are produced; the signal edges are
    never padded.
    """
    samples = np.asarray(samples, dtype=np.float64)
    centers = frame_centers(samples.size, spec, hop)
    segments = np.lib.stride_tricks.sliding_window_view(samples, spec.length)
    return segments[::hop] * make_window(spec), centers


# ---------------------------------------------------------------------------
# Spectral diagnostics
# ---------------------------------------------------------------------------

def window_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero-padded DFT magnitude in dB, peak at 0 dB: bins k = 0 .. nfft/2 at
    frequency k / nfft, where nfft = max(MIN_NFFT, 8 * w.size) is even."""
    w = np.asarray(w, dtype=np.float64)
    mag = np.abs(np.fft.rfft(w, max(MIN_NFFT, 8 * w.size)))
    peak = mag.max()
    floor = peak * 10.0 ** (DB_FLOOR / 20.0)
    return 20.0 * np.log10(np.maximum(mag, floor) / peak)


def _first_local_min(db: np.ndarray) -> int | None:
    """Index of the first local minimum after the main-lobe peak at bin 0."""
    for i in range(1, db.size - 1):
        if db[i] <= db[i - 1] and db[i] < db[i + 1]:
            return i
    return None


def peak_sidelobe_db(db: np.ndarray) -> float | None:
    """Highest side-lobe peak in dB relative to the main lobe (negative);
    None when there is no side lobe to measure: the spectrum decays
    monotonically, or every side lobe lies within 10 dB of DB_FLOOR."""
    null = _first_local_min(db)
    if null is None:
        return None
    peak = float(db[null + 1:].max())
    return None if peak <= DB_FLOOR + 10.0 else peak


def mainlobe_width(db: np.ndarray) -> float:
    """Main-lobe width in normalized frequency between the first nulls.

    The spectrum of a real symmetric window is even, so the width is twice
    the frequency of the first null above bin 0.  If the spectrum has no
    local minimum (a Gaussian narrow in time, large alpha, whose main lobe
    is very wide), the -60 dB crossing stands in for the null.  db spans
    bins 0 .. nfft/2 of an even nfft, so bin k is at k / (2 * (db.size - 1)).
    """
    null = _first_local_min(db)
    if null is None:
        below = np.nonzero(db < -60.0)[0]
        if below.size == 0:
            return 1.0  # never drops: main lobe covers the whole band
        null = int(below[0])
    return null / (db.size - 1)
