"""Confusion metrics, randomized 70/30 trials, and the experiment grid.

A trial stratified-splits the labeled feature sequences 70/30
(PROTOCOL_TRAIN_FRACTION, fixed by the paper's protocol), trains a fresh
classifier on the train side, and keeps the confusion counts of the test
side.  The grid (`grid_plan`) repeats that over window shape x window
length x hidden size, re-extracting features once per (shape, length),
and reports per-trial and mean sensitivity / specificity / accuracy
percentages derived from the counts (pathological is the positive class).
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import groupby
from pathlib import Path

import numpy as np

from . import nnet
from .errors import PcgError, check_count
from .features import FeatureSequence, extract_sequence, normalize_sequence
from .ingest import CLASS_INDEX, AudioRecord, Label
from .rng import mix_seed
from .windows import WindowShape, WindowSpec, frame_centers, frame_matrix

# The paper's protocol: every window shape at three nominal lengths, four
# hidden sizes, and 30 random 70/30 trials per cell.
PROTOCOL_SHAPES = (WindowShape.RECTANGULAR, WindowShape.TRIANGULAR,
                   WindowShape.GAUSSIAN)
PROTOCOL_LENGTHS = (15, 30, 50)
PROTOCOL_HIDDEN_SIZES = (5, 30, 50, 100)
PROTOCOL_TRIALS = 30
PROTOCOL_TRAIN_FRACTION = 0.7
PROTOCOL_HOP = 1


@dataclass
class Confusion:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class Metrics:
    """Percentages in [0, 100]; None marks a ratio with a zero denominator."""

    sensitivity: float | None
    specificity: float | None
    accuracy: float | None


@dataclass
class TrialResult:
    """A scored test side; `metrics` is derived from `confusion`."""

    confusion: Confusion
    predictions: np.ndarray

    @property
    def metrics(self) -> Metrics:
        return metrics(self.confusion)


@dataclass
class GridCell:
    """A measured cell; `mean` averages its trials' metrics, skipping None."""

    spec: WindowSpec
    length_label: int
    hidden: int
    trials: list[Confusion]

    @property
    def mean(self) -> Metrics:
        return _mean_metrics([metrics(c) for c in self.trials])


def confusion(predictions, labels) -> Confusion:
    """Tally a confusion matrix; class 1 (pathological) is positive."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise PcgError(
            f"{len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise PcgError("need at least one prediction")
    positive = CLASS_INDEX[Label.PATHOLOGICAL]
    p = np.asarray(predictions) == positive
    y = np.asarray(labels) == positive
    return Confusion(tp=int(np.sum(p & y)), tn=int(np.sum(~p & ~y)),
                     fp=int(np.sum(p & ~y)), fn=int(np.sum(~p & y)))


def metrics(c: Confusion) -> Metrics:
    """Sens = TP/(TP+FN), Spec = TN/(TN+FP), Accu = (TP+TN)/total, as %."""
    sens = 100.0 * c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else None
    spec = 100.0 * c.tn / (c.tn + c.fp) if c.tn + c.fp > 0 else None
    accu = 100.0 * (c.tp + c.tn) / c.total if c.total > 0 else None
    return Metrics(sensitivity=sens, specificity=spec, accuracy=accu)


def _train_size(n: int) -> int:
    """How many of a class's n sequences a 70/30 split trains on."""
    return int(n * PROTOCOL_TRAIN_FRACTION)


def split(dataset: list, seed: int = 0) -> tuple[list, list]:
    """Stratified random split of labeled sequences, class by class in
    CLASS_INDEX order; per class, floor(n * PROTOCOL_TRAIN_FRACTION) goes to
    train, and a class with no train item raises PcgError, as does an
    unlabeled sequence (see `nnet.class_indices`)."""
    indices = nnet.class_indices(dataset).tolist()
    if len(set(indices)) < 2:
        raise PcgError("split needs examples of both classes")

    rng = np.random.default_rng(seed)
    train: list = []
    test: list = []
    for label, index in CLASS_INDEX.items():
        items = [item for item, k in zip(dataset, indices) if k == index]
        n_train = _train_size(len(items))
        if n_train == 0:
            raise PcgError(
                f"fraction {PROTOCOL_TRAIN_FRACTION} leaves class "
                f"{label.value!r} with an empty train side")
        order = rng.permutation(len(items))
        train.extend(items[i] for i in order[:n_train])
        test.extend(items[i] for i in order[n_train:])
    return train, test


def score(model: nnet.BiLSTMModel, seqs: list[FeatureSequence]) -> TrialResult:
    """Predictions and confusion of a model on labeled sequences; one
    class alone is fine (its other ratio is None).  The one scoring path:
    trials, `pcgkit eval` and the demos all score through it."""
    labels = nnet.class_indices(seqs)
    predictions = nnet.predict_batch(model, seqs)
    return TrialResult(confusion(predictions, labels), predictions)


def run_trial(dataset: list[FeatureSequence], hidden: int,
              train_config: nnet.TrainConfig, seed: int) -> TrialResult:
    """One 70/30 split + train + test cycle, deterministic in the seed:
    the split's seed is mix_seed(seed, 0) and training's mix_seed(seed, 1)."""
    train_set, test_set = split(dataset, seed=mix_seed(seed, 0))
    model, _ = nnet.train(train_set, hidden, train_config, mix_seed(seed, 1))
    return score(model, test_set)


def _mean_metrics(trials: list[Metrics]) -> Metrics:
    def mean_of(vals):
        present = [v for v in vals if v is not None]
        return float(np.mean(present)) if present else None

    return Metrics(
        sensitivity=mean_of([t.sensitivity for t in trials]),
        specificity=mean_of([t.specificity for t in trials]),
        accuracy=mean_of([t.accuracy for t in trials]),
    )


def extract_dataset(records: list[AudioRecord], spec: WindowSpec,
                    hop: int = PROTOCOL_HOP) -> list[FeatureSequence]:
    """Frame + extract + normalize every record under one window config."""
    out = []
    for rec in records:
        frames, _ = frame_matrix(rec.samples, spec, hop)
        seq = extract_sequence(frames, signal_id=rec.id,
                               label=rec.label, window=spec, hop=hop)
        out.append(normalize_sequence(seq))
    return out


def grid_plan(shapes: list[WindowShape], lengths: list[int],
              hidden_sizes: list[int], trials: int, base_seed: int, hop: int,
              n_samples: int) -> Iterator[tuple]:
    """The grid's trials, lazily, as (spec, length_label, hidden, trial,
    seed) in run order, seed = mix_seed(base_seed, si, li, hi, trial), once
    this call has checked the grid: ValueError on an empty axis, a repeated
    axis value, or a bad length, hidden size, trial count or seed, or a
    hidden size whose smallest call does not fit `nnet.check_memory`; and
    `frame_centers` raises for a bad hop or for a window that leaves a
    record of `n_samples` fewer than two frames.  A window's frame count
    depends on its L, not its shape, so only the longest window, at the
    longest nominal length, is checked: it cuts the fewest frames."""
    if not (shapes and lengths and hidden_sizes):
        raise ValueError("grid axes must be non-empty")
    check_count("trials", trials, 1)
    check_count("base_seed", base_seed, -math.inf)
    specs = [[WindowSpec.from_nominal_length(shape, length)
              for length in lengths] for shape in shapes]
    for hidden in hidden_sizes:
        nnet.check_memory(hidden, 1, 1, 1)
    for axis, values in (("shape", [s.value for s in shapes]),
                         ("length", lengths), ("hidden size", hidden_sizes)):
        repeat = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeat is not None:
            raise ValueError(f"grid repeats {axis} {repeat}")
    frame_centers(n_samples, max(specs[0], key=lambda spec: spec.L), hop)
    return ((spec, length, hidden, t, mix_seed(base_seed, si, li, hi, t))
            for si, row in enumerate(specs)
            for li, (spec, length) in enumerate(zip(row, lengths))
            for hi, hidden in enumerate(hidden_sizes) for t in range(trials))


def run_grid(records: list[AudioRecord],
             shapes: list[WindowShape],
             lengths: list[int],
             hidden_sizes: list[int],
             trials: int = PROTOCOL_TRIALS,
             base_seed: int = 0,
             hop: int = PROTOCOL_HOP,
             train_config: nnet.TrainConfig = nnet.TrainConfig()) -> list[GridCell]:
    """One GridCell of Confusion trials per shape x length x hidden size, in
    that order; an empty record list is refused.  `grid_plan` checks every
    argument first, the longest window against the shortest record, and
    gives each trial a seed of its own, so no result depends on the trials
    before it.  Then the largest trial's train and predict calls are held
    to `nnet.check_memory`, before any features are extracted:
    `peak_bytes` never falls as H or T grows, so that is the largest hidden
    size at the T the shortest window cuts from the shortest record, on one
    split's train and test sides.  Features are extracted once per (shape,
    length), and only that dataset is held.
    """
    if not records:
        raise PcgError("the grid needs at least one record")
    n_samples = min(rec.samples.size for rec in records)
    plan = grid_plan(shapes, lengths, hidden_sizes, trials, base_seed, hop,
                     n_samples)
    counts = [sum(rec.label == label for rec in records)
              for label in CLASS_INDEX]
    n_train = sum(map(_train_size, counts))
    n_test = sum(counts) - n_train
    shortest = WindowSpec.from_nominal_length(shapes[0], min(lengths))
    T = frame_centers(n_samples, shortest, hop).size
    # predict_batch runs the test side in chunks of
    # TrainConfig().batch_size rows.
    for batch, n in ((train_config.batch_size, n_train),
                     (nnet.TrainConfig().batch_size, n_test)):
        nnet.check_memory(max(hidden_sizes), min(batch, n), T, n)
    cells = []
    for (spec, length), window in groupby(plan, key=lambda p: p[:2]):
        dataset = extract_dataset(records, spec, hop=hop)
        for hidden, cell in groupby(window, key=lambda p: p[2]):
            cells.append(GridCell(spec, length, hidden, [
                run_trial(dataset, hidden, train_config, seed).confusion
                for *_, seed in cell]))
    return cells


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------

def _round2(value: float | None) -> str:
    if value is None:
        return ""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), ROUND_HALF_UP))


def _write_csv(path: Path, header: list, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_results(cells: list[GridCell], out_dir: str | Path) -> dict[str, Path]:
    """Write results.csv (per trial), summary.csv (per cell), figure5.csv
    (per shape x length, averaged over hidden sizes).  Values are rounded
    half-up to 2 decimals."""
    if not cells:
        raise ValueError("no grid cells to write")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shape_order = list(WindowShape)  # declaration order
    ordered = sorted(cells, key=lambda c: (shape_order.index(c.spec.shape),
                                           c.length_label, c.hidden))

    def rounded(m: Metrics) -> list[str]:
        return [_round2(m.sensitivity), _round2(m.specificity),
                _round2(m.accuracy)]

    def key(cell: GridCell) -> list:
        return [cell.spec.shape.value, cell.length_label, cell.spec.L,
                cell.spec.alpha, cell.hidden]

    by_figure_cell: dict[tuple, list[Metrics]] = {}
    for cell in ordered:
        by_figure_cell.setdefault((cell.spec.shape, cell.length_label),
                                  []).append(cell.mean)
    return {
        "results": _write_csv(
            out_dir / "results.csv",
            ["shape", "length_label", "L", "alpha", "hidden", "trial",
             "sens", "spec", "accu"],
            ([*key(cell), t, *rounded(metrics(c))]
             for cell in ordered for t, c in enumerate(cell.trials))),
        "summary": _write_csv(
            out_dir / "summary.csv",
            ["shape", "length_label", "L", "alpha", "hidden", "trials",
             "sens", "spec", "accu"],
            ([*key(cell), len(cell.trials), *rounded(cell.mean)]
             for cell in ordered)),
        "figure5": _write_csv(
            out_dir / "figure5.csv",
            ["shape", "length_label", "sens", "spec", "accu"],
            ([shape.value, length, *rounded(_mean_metrics(means))]
             for (shape, length), means in by_figure_cell.items())),
    }
