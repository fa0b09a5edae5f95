"""Sliding symmetric windows and their spectral diagnostics.

Three shapes are supported: rectangular, triangular, and Gaussian.  A
window covers the symmetric index set l = -L/2 .. L/2 (total length L+1,
always odd).  Spectral diagnostics (main-lobe width, peak side-lobe level)
are measured by grid search on a zero-padded DFT, the same way for every
shape.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSidelobe, WindowTooLong

DEFAULT_ALPHA = 2.5
DEFAULT_NFFT = 4096
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
    the window in time.  It must be finite and positive for every shape,
    so every spec a feature file records reads back.
    """

    shape: WindowShape
    half_length: int
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.half_length < 1:
            raise ValueError(f"half_length must be >= 1, got {self.half_length}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")

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
        if nominal < 2:
            raise ValueError(f"nominal length must be >= 2, got {nominal}")
        L = nominal - 1 if nominal % 2 else nominal
        return cls(shape=shape, half_length=L // 2, alpha=alpha)


@dataclass
class WindowSpectrum:
    """dB magnitude over normalized frequency [0, 0.5], peak pinned at 0 dB."""

    magnitudes_db: np.ndarray
    nfft: int

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.magnitudes_db.size) / self.nfft


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
    """Valid frame centers: L/2, L/2+hop, ... while the window fits."""
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if spec.length > n_samples:
        raise WindowTooLong(
            f"window length {spec.length} exceeds signal length {n_samples}")
    half = spec.half_length
    return np.arange(half, n_samples - half, hop)


def frame_matrix(samples: np.ndarray, spec: WindowSpec,
                 hop: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All frames at once as a (num_frames, L+1) matrix plus their centers.

    Row t is the windowed segment y_n[l] = w[l] * x[n+l] centered at sample
    n = centers[t].

    Only fully covered (valid) frames are produced; the signal edges are
    never padded.
    """
    samples = np.asarray(samples, dtype=np.float64)
    centers = frame_centers(samples.size, spec, hop)
    offsets = np.arange(-spec.half_length, spec.half_length + 1)
    frames = samples[centers[:, None] + offsets[None, :]] * make_window(spec)
    return frames, centers


# ---------------------------------------------------------------------------
# Spectral diagnostics
# ---------------------------------------------------------------------------

def window_spectrum(w: np.ndarray, nfft: int = DEFAULT_NFFT) -> WindowSpectrum:
    """Zero-padded DFT magnitude in dB, normalized so the peak is 0 dB."""
    w = np.asarray(w, dtype=np.float64)
    if nfft < 8 * w.size:
        raise ValueError(f"nfft {nfft} too coarse for window of length {w.size}")
    mag = np.abs(np.fft.rfft(w, nfft))
    peak = mag.max()
    floor = peak * 10.0 ** (DB_FLOOR / 20.0)
    db = 20.0 * np.log10(np.maximum(mag, floor) / peak)
    return WindowSpectrum(magnitudes_db=db, nfft=nfft)


def _first_local_min(db: np.ndarray) -> int | None:
    """Index of the first local minimum after the main-lobe peak at bin 0."""
    for i in range(1, db.size - 1):
        if db[i] <= db[i - 1] and db[i] < db[i + 1]:
            return i
    return None


def peak_sidelobe_db(spectrum: WindowSpectrum) -> float:
    """Highest side-lobe peak in dB relative to the main lobe (negative)."""
    db = spectrum.magnitudes_db
    null = _first_local_min(db)
    if null is None:
        raise NoSidelobe("spectrum decays monotonically; no side lobe found")
    peak = float(db[null + 1:].max())
    if peak <= DB_FLOOR + 10.0:
        raise NoSidelobe(f"side lobes below numerical floor ({peak:.1f} dB)")
    return peak


def mainlobe_width(spectrum: WindowSpectrum) -> float:
    """Main-lobe width in normalized frequency between the first nulls.

    The spectrum of a real symmetric window is even, so the width is twice
    the frequency of the first null above bin 0.  If the spectrum has no
    local minimum (very wide Gaussian), the -60 dB crossing stands in for
    the null.
    """
    db = spectrum.magnitudes_db
    null = _first_local_min(db)
    if null is None:
        below = np.nonzero(db < -60.0)[0]
        if below.size == 0:
            return 1.0  # never drops: main lobe covers the whole band
        null = int(below[0])
    return 2.0 * float(spectrum.frequencies[null])
