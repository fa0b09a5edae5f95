"""Per-frame statistical features and sequence normalization.

Ten features are computed inside each windowed frame: mean, median, mode,
variance, skewness, kurtosis, Shannon energy, Shannon entropy,
zero-crossing rate, and interquartile range.  A signal becomes a T x 10
feature sequence (one row per frame) which is z-scored per column before
classification.

Conventions, fixed once and used everywhere:
  * quantiles interpolate linearly at position (count - 1) * q;
  * mode and entropy share one histogram rule: numpy's equal-width rule
    (np.histogram with `bins` bins over the frame's [min, max]) applied
    row-wise to the frame matrix, ties resolved toward the lowest bin;
  * logarithms are natural, with 0 * log 0 = 0;
  * moments are population moments (divisor L+1), the third and fourth
    taken from products of the deviations, and skewness/kurtosis of a
    constant frame are 0 by guard.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import PcgError
from .ingest import Label
from .windows import WindowShape, WindowSpec

FEATURE_NAMES = (
    "mean",
    "median",
    "mode",
    "variance",
    "skewness",
    "kurtosis",
    "shannon_energy",
    "shannon_entropy",
    "zcr",
    "quantile_range",
)

DEFAULT_BINS = 10


@dataclass
class FeatureSequence:
    """T x 10 matrix of per-frame features plus its extraction config."""

    values: np.ndarray
    signal_id: str
    label: Label
    window: WindowSpec
    hop: int
    bins: int
    normalized: bool = False

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# Sequence extraction
# ---------------------------------------------------------------------------

def _mode_entropy_columns(frames: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                          bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode and entropy of every row from one equal-width histogram per row.

    np.histogram's equal-width rule applied to all rows at once: the same
    edges, the same float bin index and the same two edge corrections, so
    each row's counts equal np.histogram(row, bins, range=(lo, hi)).  A row
    whose span is under `bins` steps of the float grid, which np.histogram
    refuses, is binned by the same rule and gets a mode inside [lo, hi].
    """
    T, n = frames.shape
    constant = lo == hi
    span = np.where(constant, 1.0, hi - lo)  # constant rows are set below
    # np.linspace's formula per row; np.linspace over arrays switches every
    # row to its denormal-step formula as soon as one row needs it.
    edges = np.arange(bins + 1.0) * (span / bins)[:, None]
    edges += lo[:, None]
    edges[:, -1] = hi

    # Scaled in place to keep one (T, n) float temporary.
    scaled = frames - lo[:, None]
    scaled /= span[:, None]
    scaled *= bins
    idx = scaled.astype(np.intp)
    idx[idx == bins] -= 1
    idx[frames < np.take_along_axis(edges, idx, axis=1)] -= 1
    idx[(frames >= np.take_along_axis(edges, idx + 1, axis=1))
        & (idx != bins - 1)] += 1

    idx += np.arange(T)[:, None] * bins
    counts = np.bincount(idx.ravel(), minlength=T * bins).reshape(T, bins)

    rows = np.arange(T)
    best = counts.argmax(axis=1)  # lowest bin wins ties
    mode = 0.5 * (edges[rows, best] + edges[rows, best + 1])
    p = counts / n
    entropy = (p * np.log(p, out=np.zeros_like(p), where=counts > 0)).sum(axis=1)
    mode[constant] = frames[constant, 0]
    entropy[constant] = 0.0
    return mode, entropy


def feature_matrix(frames: np.ndarray, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Feature rows for a (T, L+1) frame matrix, columns in FEATURE_NAMES order."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError("need a non-empty (num_frames, frame_length) matrix")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo = frames.min(axis=1)
    hi = frames.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(hi - lo).all()  # False for NaN or Inf samples too
    if not finite:
        raise ValueError("frames must be finite, with a finite max - min")
    # The histogram runs before the (T, n) temporaries below exist.
    mode, entropy = _mode_entropy_columns(frames, lo, hi, bins)
    n = frames.shape[1]

    constant = lo == hi
    mu = frames.mean(axis=1)
    centered = frames - mu[:, None]
    c2 = centered * centered
    var = c2.mean(axis=1)
    var[constant] = 0.0
    # Third and fourth powers as products, in place: no pow, no new (T, n).
    m3 = np.multiply(centered, c2, out=centered).mean(axis=1)
    m4 = np.multiply(c2, c2, out=c2).mean(axis=1)
    del centered, c2  # freed before the energy temporaries: peak memory
    sigma = np.sqrt(var)
    ok = ~constant & (sigma > 0.0)
    skew = np.zeros_like(mu)
    kurt = np.zeros_like(mu)
    skew[ok] = m3[ok] / sigma[ok] ** 3
    kurt[ok] = m4[ok] / sigma[ok] ** 4 - 3.0

    y2 = frames ** 2
    logy2 = np.zeros_like(y2)
    nz = y2 > 0.0
    logy2[nz] = np.log(y2[nz])
    energy = (y2 * logy2).sum(axis=1)
    del y2, logy2, nz

    signs = np.where(frames >= 0.0, 1.0, -1.0)
    zcr = np.abs(np.diff(signs, axis=1)).sum(axis=1) / (2 * (n - 1) + 1)
    del signs

    median, q25, q75 = np.quantile(frames, [0.5, 0.25, 0.75], axis=1)

    return np.column_stack(
        [mu, median, mode, var, skew, kurt, energy, entropy, zcr, q75 - q25])


def extract_sequence(frames: np.ndarray,
                     bins: int = DEFAULT_BINS,
                     signal_id: str = "",
                     label: Label = Label.UNLABELED,
                     *,
                     window: WindowSpec,
                     hop: int = 1) -> FeatureSequence:
    """The T x 10 feature sequence of a (T, L+1) frame matrix cut with
    `window` at `hop`."""
    return FeatureSequence(
        values=feature_matrix(frames, bins),
        signal_id=signal_id,
        label=label,
        window=window,
        hop=hop,
        bins=bins,
    )


def normalize_sequence(seq: FeatureSequence) -> FeatureSequence:
    """Z-score each column over the sequence's own frames.

    Columns with zero spread become all zeros.  Applying this twice gives
    the same result as applying it once.
    """
    if seq.num_frames < 2:
        raise ValueError("normalization needs at least 2 frames")
    mu = seq.values.mean(axis=0)
    sigma = seq.values.std(axis=0)
    out = np.zeros_like(seq.values)
    ok = sigma > 0.0
    out[:, ok] = (seq.values[:, ok] - mu[ok]) / sigma[ok]
    return replace(seq, values=out, normalized=True)


# ---------------------------------------------------------------------------
# Feature files: CSV matrix + JSON sidecar with the extraction config
# ---------------------------------------------------------------------------

def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def write_features(seq: FeatureSequence, path: str | Path) -> None:
    """Write the feature matrix as CSV and its config as a .meta.json sidecar."""
    path = Path(path)
    np.savetxt(path, seq.values, fmt="%.17g", delimiter=",")
    meta = {
        "signal_id": seq.signal_id,
        "label": seq.label.value,
        "window_shape": seq.window.shape.value,
        "L": seq.window.L,
        "alpha": seq.window.alpha,
        "hop": seq.hop,
        "bins": seq.bins,
        "normalized": seq.normalized,
        "columns": list(FEATURE_NAMES),
    }
    _meta_path(path).write_text(json.dumps(meta, indent=2) + "\n")


def read_features(path: str | Path) -> FeatureSequence:
    """Read a feature CSV and its sidecar back into a FeatureSequence.

    Raises PcgError naming the file when the CSV is not a numeric matrix
    with one column per feature, or the sidecar is not one write_features
    could have written: a JSON object with every key, an even L, a known
    shape and label, and columns equal to FEATURE_NAMES.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on no rows
            values = np.loadtxt(path, delimiter=",", ndmin=2)
        if values.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"{values.shape[1]} columns, not {len(FEATURE_NAMES)}")
    except (ValueError, UserWarning) as exc:
        raise PcgError(f"{path}: {exc}") from None
    meta_path = _meta_path(path)
    try:
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict):
            raise TypeError("not a JSON object")
        if meta["columns"] != list(FEATURE_NAMES):
            raise ValueError(f"columns {meta['columns']!r} are not FEATURE_NAMES")
        if type(meta["L"]) is not int or meta["L"] % 2:
            raise ValueError(f"L must be an even int, got {meta['L']!r}")
        return FeatureSequence(
            values=values,
            signal_id=meta["signal_id"],
            label=Label(meta["label"]),
            window=WindowSpec(WindowShape(meta["window_shape"]),
                              meta["L"] // 2, meta["alpha"]),
            hop=meta["hop"],
            bins=meta["bins"],
            normalized=meta["normalized"],
        )
    except KeyError as exc:
        raise PcgError(f"{meta_path}: no {exc} key") from None
    except (TypeError, ValueError, RecursionError) as exc:  # also bad UTF-8
        raise PcgError(f"{meta_path}: {exc}") from None
