"""Per-frame statistical features and sequence normalization.

Ten features are computed inside each windowed frame: mean, median, mode,
variance, skewness, kurtosis, Shannon energy, Shannon entropy,
zero-crossing rate, and interquartile range.  A signal becomes a T x 10
feature sequence (one row per frame) which is z-scored per column before
classification.  feature_matrix works through the frame matrix in fixed
blocks of rows, so its memory beyond the T x 10 result does not grow with T.

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
import operator
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import PcgError, check_count, json_object
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


@dataclass(frozen=True)
class FeatureSequence:
    """T x 10 matrix of per-frame features plus its extraction config,
    checked when made (ValueError), so that every sequence stacks and reads
    back from write_features' files.  The values are not scanned: their
    makers check that they are finite."""

    values: np.ndarray
    signal_id: str
    label: Label
    window: WindowSpec
    hop: int
    bins: int
    normalized: bool = False

    def __post_init__(self):
        if type(self.signal_id) is not str:
            raise ValueError(f"signal_id must be a string, got {self.signal_id!r}")
        shape = np.shape(self.values)
        if len(shape) != 2 or shape[0] < 1:
            raise ValueError(f"sequence {self.signal_id!r} has no frames")
        if shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"sequence {self.signal_id!r} has {shape[1]} "
                             f"features per frame, not {len(FEATURE_NAMES)}")
        for name, kind in (("label", Label), ("window", WindowSpec)):
            if not isinstance(value := getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        for name in ("hop", "bins"):
            check_count(name, getattr(self, name), 1)
        if type(self.normalized) is not bool:
            raise ValueError(f"normalized must be true or false, "
                             f"got {self.normalized!r}")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def config(self) -> dict:
        """The extraction config, keyed and ordered as in the sidecar: two
        sequences with equal configs were made the same way."""
        return {"window_shape": self.window.shape.value, "L": self.window.L,
                "alpha": self.window.alpha, "hop": self.hop, "bins": self.bins,
                "normalized": self.normalized}


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
    Beyond the edges and counts, it holds one float, one int and one bool
    array of the frames' shape.
    """
    T, n = frames.shape
    constant = lo == hi
    span = np.where(constant, 1.0, hi - lo)  # constant rows are set below
    # np.linspace's formula per row; np.linspace over arrays switches every
    # row to its denormal-step formula as soon as one row needs it.
    edges = np.arange(bins + 1.0) * (span / bins)[:, None]
    edges += lo[:, None]
    # The last edge is read only by the move-up test below, as the upper
    # edge of the last bin, out of which numpy moves no value; no finite
    # value reaches +inf either.  It is set to hi for the mode.
    edges[:, -1] = np.inf
    flat_edges = edges.ravel()

    scaled = frames - lo[:, None]
    scaled /= span[:, None]
    scaled *= bins
    idx = scaled.astype(np.intp)
    np.minimum(idx, bins - 1, out=idx)  # idx <= bins: numpy's idx == bins step
    # idx becomes the flat position of each value's lower edge in `edges`;
    # `scaled` takes the edges looked up ("clip" writes `out` unbuffered).
    idx += np.arange(0, T * (bins + 1), bins + 1)[:, None]
    step = np.empty(idx.shape, dtype=bool)
    np.take(flat_edges, idx, out=scaled, mode="clip")
    idx -= np.less(frames, scaled, out=step)
    np.take(flat_edges[1:], idx, out=scaled, mode="clip")
    idx += np.greater_equal(frames, scaled, out=step)
    edges[:, -1] = hi

    counts = np.bincount(idx.ravel(), minlength=T * (bins + 1))
    counts = counts.reshape(T, bins + 1)[:, :bins]
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


_TINY = np.finfo(np.float64).tiny  # the smallest normal float


def _central_moments(frames: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mean and second, third and fourth central moments of each row."""
    mu = frames.mean(axis=1)
    centered = frames - mu[:, None]
    c2 = centered * centered
    var = c2.mean(axis=1)
    # Third and fourth powers as products, in place: no pow, no new (T, n).
    m3 = np.multiply(centered, c2, out=centered).mean(axis=1)
    m4 = np.multiply(c2, c2, out=c2).mean(axis=1)
    return mu, var, m3, m4


# Rows per block of feature_matrix.  At L = 30 each float temporary of a
# block is about 254 KB, so the few alive at once stay in a core's L2 cache,
# and every block reuses the heap memory the one before it freed instead of
# mapping fresh pages for temporaries as large as the whole frame matrix.
_BLOCK_ROWS = 1024


# Large amplitudes overflow products and sums (m4 from about 1e77): m3 and
# m4 are then redone from rescaled rows, and any other overflow is refused.
@np.errstate(over="ignore", invalid="ignore")
def feature_matrix(frames: np.ndarray, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Feature rows for a (T, L+1) frame matrix, columns in FEATURE_NAMES order.

    Raises ValueError for non-finite frames, and when a feature overflows
    float64.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError("need a non-empty (num_frames, frame_length) matrix")
    check_count("bins", bins, 1)
    out = np.empty((frames.shape[0], len(FEATURE_NAMES)))
    for start in range(0, frames.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        _feature_rows(frames[block], bins, out[block])
    if not np.isfinite(out).all():
        raise ValueError("features overflow float64: the frames' amplitude "
                         "is too large")
    return out


def _feature_rows(frames: np.ndarray, bins: int, out: np.ndarray) -> None:
    """Write the feature rows of `frames` into `out`, one row each."""
    ranked = np.sort(frames, axis=1)
    lo = ranked[:, 0].copy()
    hi = ranked[:, -1].copy()
    if not np.isfinite(hi - lo).all():  # False for NaN or Inf samples too
        raise ValueError("frames must be finite, with a finite max - min")
    median, q25, q75 = _quartile_columns(frames, ranked)
    del ranked  # freed before the histogram temporaries: peak memory
    mode, entropy = _mode_entropy_columns(frames, lo, hi, bins)
    n = frames.shape[1]

    constant = lo == hi
    mu, var, m3, m4 = _central_moments(frames)
    var[constant] = 0.0
    sigma = np.sqrt(var)
    # Where m4 leaves the normal range (amplitudes near 1e-77 and below, or
    # 1e77 and above), sigma ** 3 and ** 4 can under- or overflow too; those
    # rows take the moments of the row divided by its max |x|, as skewness
    # and kurtosis are scale-free.
    rescale = ~constant & ~((m4 >= _TINY) & (m4 < np.inf))
    if rescale.any():
        peak = np.maximum(np.abs(lo[rescale]), np.abs(hi[rescale]))
        _, var_r, m3[rescale], m4[rescale] = _central_moments(
            frames[rescale] / peak[:, None])
        sigma[rescale] = np.sqrt(var_r)
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

    np.stack([mu, median, mode, var, skew, kurt, energy, entropy, zcr,
              q75 - q25], axis=1, out=out)


def extract_sequence(frames: np.ndarray,
                     bins: int = DEFAULT_BINS,
                     signal_id: str = "",
                     label: Label = Label.UNLABELED,
                     *,
                     window: WindowSpec,
                     hop: int) -> FeatureSequence:
    """The T x 10 feature sequence of a (T, L+1) frame matrix cut with
    `window` at `hop`; ValueError when the frames are not window.length
    points wide."""
    shape = np.shape(frames)
    if len(shape) == 2 and shape[1] != window.length:
        raise ValueError(f"frames are {shape[1]} points wide, but the "
                         f"window has {window.length}")
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
    the same result as applying it once.  A column whose mean or spread is
    not finite (NaN or Inf values, or a float64 overflow) raises ValueError.
    """
    if seq.num_frames < 2:
        raise ValueError("normalization needs at least 2 frames")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = seq.values.mean(axis=0)
        sigma = seq.values.std(axis=0)
    bad = ~(np.isfinite(mu) & np.isfinite(sigma))
    if bad.any():
        raise ValueError(f"sequence {seq.signal_id!r}: column {bad.argmax()} "
                         "has a mean or spread that is not finite (NaN or Inf "
                         "values, or a float64 overflow)")
    out = np.zeros_like(seq.values)
    ok = sigma > 0.0
    out[:, ok] = (seq.values[:, ok] - mu[ok]) / sigma[ok]
    return replace(seq, values=out, normalized=True)


# ---------------------------------------------------------------------------
# Feature files: CSV matrix + JSON sidecar with the extraction config
# ---------------------------------------------------------------------------

def sidecar_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def write_features(seq: FeatureSequence, path: str | Path) -> None:
    """Write the feature matrix as CSV and its config as a .meta.json
    sidecar, in which a numpy integer is a JSON integer."""
    path = Path(path)
    meta = {"signal_id": seq.signal_id, "label": seq.label.value,
            **seq.config, "columns": list(FEATURE_NAMES)}
    text = json.dumps(meta, indent=2, default=operator.index) + "\n"
    np.savetxt(path, seq.values, fmt="%.17g", delimiter=",")
    sidecar_path(path).write_text(text)


def record_sequence(record: dict, values: np.ndarray, signal_id: str = "",
                    label: Label = Label.UNLABELED) -> FeatureSequence:
    """The sequence of `values` made as `record` says, by its keys of
    `FeatureSequence.config`: the rule read_features holds a sidecar to,
    and load_model a model file's feature config.  L must be an even int,
    and the rest what WindowSpec and FeatureSequence accept; KeyError names
    a missing key and ValueError a bad value."""
    if type(record["L"]) is not int or record["L"] % 2:
        raise ValueError(f"L must be an even int, got {record['L']!r}")
    return FeatureSequence(  # which checks every other field
        values=values,
        signal_id=signal_id,
        label=label,
        window=WindowSpec(WindowShape(record["window_shape"]),
                          record["L"] // 2, record["alpha"]),
        hop=record["hop"],
        bins=record["bins"],
        normalized=record["normalized"],
    )


def read_features(path: str | Path) -> FeatureSequence:
    """Read a feature CSV and its sidecar back into a FeatureSequence.

    Raises PcgError naming the file when the CSV is not a finite numeric
    matrix with one column per feature, or the sidecar is not one
    write_features could have written: a JSON object with every key, an
    even L, a known shape and label, columns equal to FEATURE_NAMES, and
    fields that WindowSpec and FeatureSequence accept.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on no rows
            values = np.loadtxt(path, delimiter=",", ndmin=2)
        if values.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"{values.shape[1]} columns, "
                             f"not {len(FEATURE_NAMES)}")
        if not np.isfinite(values).all():
            raise ValueError("holds NaN or infinite values")
    except (ValueError, UserWarning) as exc:  # also bad UTF-8
        raise PcgError(f"{path}: {exc}") from None
    meta_path = sidecar_path(path)
    meta = json_object(meta_path.read_bytes(), meta_path)
    try:
        if meta["columns"] != list(FEATURE_NAMES):
            raise ValueError(f"columns {meta['columns']!r} are not FEATURE_NAMES")
        return record_sequence(meta, values, meta["signal_id"],
                               Label(meta["label"]))
    except KeyError as exc:
        raise PcgError(f"{meta_path}: no {exc} key") from None
    except ValueError as exc:
        raise PcgError(f"{meta_path}: {exc}") from None
