"""Per-frame statistical features and sequence normalization.

Ten features are computed inside each windowed frame: mean, median, mode,
variance, skewness, kurtosis, Shannon energy, Shannon entropy,
zero-crossing rate, and interquartile range.  A signal becomes a T x 10
feature sequence (one row per frame) which is z-scored per column before
classification.

Conventions, fixed once and used everywhere:
  * min, max and the quartiles come from one sort of the frame matrix's
    rows; the quartiles follow np.quantile's default ("linear") rule to
    the bit, interpolating at position (count - 1) * q;
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
import math
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


def _quartile_columns(frames: np.ndarray,
                      ranked: np.ndarray) -> list[np.ndarray]:
    """Median, q25 and q75 of every row, equal to the bit to
    np.quantile(frames, [0.5, 0.25, 0.75], axis=1), read from `ranked`,
    the rows of `frames` sorted.

    numpy's "linear" rule: virtual index v = (n - 1) q, neighbours
    floor(v) and floor(v) + 1 (both the last value, with t = v + 1, when v
    is past the last index: n = 1), weight t = v - floor, and the lerp
    a + (b - a) t, or b - (b - a)(1 - t) when t >= 0.5.  That second branch
    can hand on the sign of a zero b, and sort and np.partition may place
    -0.0 and 0.0 differently; those rows are re-ranked by the np.partition
    call np.quantile makes.
    """
    n = ranked.shape[1]
    picks = []
    for q in (0.5, 0.25, 0.75):
        v = (n - 1) * q
        below, above = (math.floor(v), math.floor(v) + 1) if v < n - 1 else (-1, -1)
        picks.append((below, above, v - below))
    zero_b = np.zeros(len(ranked), dtype=bool)
    for _, above, t in picks:
        if t >= 0.5:
            zero_b |= ranked[:, above] == 0.0
    if zero_b.any():
        kth = np.unique([0, -1, *(k for below, above, _ in picks
                                  for k in (below, above))])
        ranked[zero_b] = np.partition(frames[zero_b], kth, axis=1)
    out = []
    for below, above, t in picks:
        a, b = ranked[:, below], ranked[:, above]
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def feature_matrix(frames: np.ndarray, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Feature rows for a (T, L+1) frame matrix, columns in FEATURE_NAMES order."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError("need a non-empty (num_frames, frame_length) matrix")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    ranked = np.sort(frames, axis=1)
    lo = ranked[:, 0].copy()
    hi = ranked[:, -1].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(hi - lo).all()  # False for NaN or Inf samples too
    if not finite:
        raise ValueError("frames must be finite, with a finite max - min")
    median, q25, q75 = _quartile_columns(frames, ranked)
    del ranked  # freed before the histogram temporaries: peak memory
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

    y2 = frames * frames
    y2logy2 = np.log(y2, out=np.zeros_like(y2), where=y2 > 0.0)
    y2logy2 *= y2
    energy = y2logy2.sum(axis=1)
    del y2, y2logy2

    # zcr is sum |diff(sign)| / (2L + 1), sign = +-1: 2 per sign change.
    positive = frames >= 0.0
    changes = np.count_nonzero(positive[:, 1:] != positive[:, :-1], axis=1)
    zcr = 2.0 * changes / (2 * (n - 1) + 1)

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

    Raises PcgError naming the file when the CSV is not a finite numeric
    matrix with one column per feature, or the sidecar is not one
    write_features could have written: a JSON object with every key, an
    even L, a known shape and label, a positive int hop and bins, a finite
    positive alpha, a bool normalized, a string signal_id, and columns
    equal to FEATURE_NAMES.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on no rows
            values = np.loadtxt(path, delimiter=",", ndmin=2)
        if values.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"{values.shape[1]} columns, not {len(FEATURE_NAMES)}")
        if not np.isfinite(values).all():
            raise ValueError("holds NaN or infinite values")
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
        for key in ("hop", "bins"):
            if type(meta[key]) is not int or meta[key] < 1:
                raise ValueError(f"{key} must be a positive int, got {meta[key]!r}")
        if type(meta["alpha"]) not in (int, float):
            raise ValueError(f"alpha must be a number, got {meta['alpha']!r}")
        if type(meta["normalized"]) is not bool:
            raise ValueError(f"normalized must be true or false, "
                             f"got {meta['normalized']!r}")
        if type(meta["signal_id"]) is not str:
            raise ValueError(f"signal_id must be a string, got {meta['signal_id']!r}")
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
