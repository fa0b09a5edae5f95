from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from pcgkit import evaluate, nnet
from pcgkit.errors import PcgError
from pcgkit.evaluate import (
    Confusion,
    GridCell,
    Metrics,
    TrialResult,
    _mean_metrics,
    confusion,
    emit_results,
    extract_dataset,
    grid_plan,
    metrics,
    run_grid,
    run_trial,
    score,
    split,
)
from pcgkit.features import FeatureSequence
from pcgkit.ingest import AudioRecord, Label
from pcgkit.rng import mix_seed
from pcgkit.windows import WindowShape, WindowSpec

from test_nnet import forward_argmax, make_seq, toy_blobs


class TestConfusion:
    def test_all_correct(self):
        c = confusion([1] * 10 + [0] * 10, [1] * 10 + [0] * 10)
        assert (c.tp, c.tn, c.fp, c.fn) == (10, 10, 0, 0)

    def test_all_predicted_positive(self):
        c = confusion([1] * 10, [1] * 5 + [0] * 5)
        assert (c.tp, c.fp, c.tn, c.fn) == (5, 5, 0, 0)

    def test_random_counts_match_naive_tally(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            c = confusion(preds, labels)
            tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
            tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
            fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
            fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
            assert (c.tp, c.tn, c.fp, c.fn) == (tp, tn, fp, fn)
            assert c.total == n

    def test_length_mismatch(self):
        with pytest.raises(PcgError, match="predictions vs"):
            confusion([0, 1], [0])
        with pytest.raises(PcgError, match="need at least one prediction"):
            confusion([], [])


class TestMetrics:
    def test_reference_sensitivity(self):
        m = metrics(Confusion(tp=26, fn=2, tn=0, fp=1))
        assert m.sensitivity == pytest.approx(100 * 26 / 28)
        # reported as 92.90 after rounding to one decimal
        assert round(m.sensitivity, 1) == 92.9

    def test_reference_triple_consistency(self):
        # 28 positive / 27 negative test examples: sens 92.9, spec 85.2
        # imply an accuracy of 49/55 = 89.09, i.e. the published 89.10.
        c = Confusion(tp=26, fn=2, tn=23, fp=4)
        m = metrics(c)
        accu = Fraction(c.tp + c.tn, c.total) * 100
        assert m.accuracy == pytest.approx(float(accu))
        assert abs(accu - Fraction("89.10")) <= Fraction("0.05")

    def test_perfect(self):
        m = metrics(Confusion(tp=10, tn=10))
        assert (m.sensitivity, m.specificity, m.accuracy) == (100.0, 100.0, 100.0)

    def test_undefined_ratio_reported_absent(self):
        m = metrics(Confusion(tp=0, fn=0, tn=5, fp=1))
        assert m.sensitivity is None
        assert m.specificity == pytest.approx(100 * 5 / 6)

    def test_rational_arithmetic_on_random_confusions(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, 4))
            if tp + fn == 0 or tn + fp == 0:
                continue
            m = metrics(Confusion(tp=tp, tn=tn, fp=fp, fn=fn))
            assert m.sensitivity == pytest.approx(
                float(Fraction(100 * tp, tp + fn)), abs=1e-12)
            assert m.specificity == pytest.approx(
                float(Fraction(100 * tn, tn + fp)), abs=1e-12)
            assert m.accuracy == pytest.approx(
                float(Fraction(100 * (tp + tn), tp + tn + fp + fn)), abs=1e-12)

    def test_accuracy_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tp, tn, fp, fn = (int(v) for v in rng.integers(1, 40, 4))
            m = metrics(Confusion(tp=tp, tn=tn, fp=fp, fn=fn))
            P, N = tp + fn, tn + fp
            blended = (m.sensitivity * P + m.specificity * N) / (P + N)
            assert m.accuracy == pytest.approx(blended, abs=1e-9)
            assert min(m.sensitivity, m.specificity) <= m.accuracy \
                <= max(m.sensitivity, m.specificity)


class FakeItem:
    def __init__(self, label, key):
        self.label = label
        self.key = key


def fake_dataset(n_healthy, n_pathological):
    return ([FakeItem(Label.HEALTHY, f"h{i}") for i in range(n_healthy)]
            + [FakeItem(Label.PATHOLOGICAL, f"p{i}") for i in range(n_pathological)])


class TestSplit:
    def test_balanced_300(self):
        train, test = split(fake_dataset(150, 150), seed=0)
        assert len(train) == 210 and len(test) == 90
        for side, count in ((train, 105), (test, 45)):
            assert sum(1 for x in side if x.label is Label.HEALTHY) == count
            assert sum(1 for x in side if x.label is Label.PATHOLOGICAL) == count

    def test_floor_on_train_side(self):
        train, test = split(fake_dataset(10, 9), seed=0)
        healthy_train = sum(1 for x in train if x.label is Label.HEALTHY)
        path_train = sum(1 for x in train if x.label is Label.PATHOLOGICAL)
        assert healthy_train == 7  # floor(10 * 0.7)
        assert path_train == 6     # floor(9 * 0.7)
        assert len(test) == 3 + 3

    def test_fraction_bounds(self):
        with pytest.raises(PcgError, match="'healthy' with an empty "
                                             "train side$"):
            split(fake_dataset(1, 5), seed=0)

    def test_deterministic_and_disjoint(self):
        data = fake_dataset(20, 20)
        t1, s1 = split(data, seed=9)
        t2, s2 = split(data, seed=9)
        assert [x.key for x in t1] == [x.key for x in t2]
        assert [x.key for x in s1] == [x.key for x in s2]
        assert set(x.key for x in t1).isdisjoint(x.key for x in s1)
        assert len(t1) + len(s1) == 40
        t3, _ = split(data, seed=10)
        assert [x.key for x in t3] != [x.key for x in t1]

    def test_single_class_rejected(self):
        with pytest.raises(PcgError,
                           match="split needs examples of both classes"):
            split([FakeItem(Label.HEALTHY, "h")] * 4, seed=0)


    def test_unlabeled_sequence_refused_by_name(self):
        # Unlabeled is no third class: one is too few for a train side,
        # and five would put three in it.
        for n in (1, 5):
            data = toy_blobs(5) + [
                make_seq(np.zeros((5, 10)), label=Label.UNLABELED, sid=f"u{i}")
                for i in range(n)]
            with pytest.raises(PcgError,
                               match=r"^sequence 'u0' is unlabeled$"):
                split(data, seed=0)


class TestRunTrial:
    def setup_method(self):
        self.data = toy_blobs(10, seed=3)
        self.config = nnet.TrainConfig(epochs=25)

    def test_deterministic(self):
        r1 = run_trial(self.data, 3, self.config, seed=5)
        r2 = run_trial(self.data, 3, self.config, seed=5)
        assert r1.metrics == r2.metrics
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_separable_data_scores_perfectly(self):
        r = run_trial(self.data, 3, self.config, seed=6)
        assert r.metrics.accuracy == 100.0

    def test_metrics_recomputable_from_predictions(self):
        r = run_trial(self.data, 3, self.config, seed=7)
        labels = nnet.class_indices(split(self.data, seed=mix_seed(7, 0))[1])
        again = metrics(confusion(r.predictions, labels))
        assert again == r.metrics

    def test_predictions_match_per_sequence_forward(self):
        # run_trial scores its test side in one batch; retraining with the
        # trial's own seeds rebuilds its model for the per-sequence check.
        spec = WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 30)
        data = extract_dataset(tiny_corpus(6, seed=4), spec, hop=25)
        r = run_trial(data, 4, self.config, seed=8)
        train_set, test_set = split(data, seed=mix_seed(8, 0))
        model, _ = nnet.train(train_set, 4, self.config, mix_seed(8, 1))
        assert r.predictions.dtype == np.int64
        assert r.predictions.tolist() == forward_argmax(model, test_set)


class TestTrialResult:
    def test_fields_are_what_the_trial_measured(self):
        assert [f.name for f in fields(TrialResult)] == [
            "confusion", "predictions"]
        r = run_trial(toy_blobs(10, seed=3), 3, nnet.TrainConfig(epochs=2),
                      seed=5)
        assert r.metrics == metrics(r.confusion)
        with pytest.raises(TypeError):
            TrialResult(confusion=r.confusion, metrics=r.metrics,
                        predictions=r.predictions)


class TestScore:
    def test_healthy_only_has_no_sensitivity(self):
        # One class alone is scored: only train needs both.
        healthy = toy_blobs(4, seed=9)[:4]
        r = score(nnet.init_model(3, seed=9), healthy)
        labels = nnet.class_indices(healthy)
        assert labels.dtype == np.int64 and labels.tolist() == [0] * 4
        assert r.confusion.tp == r.confusion.fn == 0
        assert r.confusion.total == 4
        assert r.metrics.sensitivity is None
        assert r.metrics.specificity is not None


def tiny_corpus(n_per_class=4, seed=0):
    from pcgkit.ingest import preprocess
    from pcgkit.synth import SynthConfig, generate_dataset
    config = SynthConfig(duration_s=2.5)
    records = generate_dataset(n_per_class, n_per_class, base_seed=seed,
                               config=config)
    return [preprocess(r) for r in records]


FAST_TRAIN = nnet.TrainConfig(epochs=2)


class TestRunGrid:
    def test_cell_count_and_structure(self):
        records = tiny_corpus()
        cells = run_grid(records,
                         shapes=[WindowShape.RECTANGULAR, WindowShape.TRIANGULAR,
                                 WindowShape.GAUSSIAN],
                         lengths=[15, 30, 50],
                         hidden_sizes=[2, 3, 4, 5],
                         trials=1, base_seed=0, hop=400,
                         train_config=FAST_TRAIN)
        assert len(cells) == 36
        first = cells[0]
        # single trial: mean is trivial
        assert first.mean == metrics(first.trials[0])

    def test_mean_is_permutation_invariant(self):
        records = tiny_corpus()
        cells = run_grid(records, shapes=[WindowShape.GAUSSIAN], lengths=[30],
                         hidden_sizes=[3], trials=3, base_seed=1, hop=400,
                         train_config=FAST_TRAIN)
        cell = cells[0]
        reordered = list(reversed(cell.trials))
        assert np.mean([metrics(t).accuracy for t in reordered]) == \
            pytest.approx(cell.mean.accuracy)

    def test_deterministic_across_runs(self):
        records = tiny_corpus()
        kwargs = dict(shapes=[WindowShape.GAUSSIAN], lengths=[30],
                      hidden_sizes=[3], trials=4, base_seed=2, hop=400,
                      train_config=FAST_TRAIN)
        a = run_grid(records, **kwargs)
        b = run_grid(records, **kwargs)
        assert len(a) == len(b) == 1
        assert a[0].trials == b[0].trials

    @pytest.mark.parametrize("axes, error, message", [
        (dict(hidden_sizes=[5, 0]), ValueError,
         "hidden size must be >= 1, got 0"),
        (dict(lengths=[30, 1]), ValueError,
         "nominal length must be >= 2, got 1"),
        (dict(lengths=[30, 1200]), PcgError,
         "window length 1201 at hop 400 leaves 0 frames in a record of 1000 "
         "samples; features need at least 2"),
        (dict(lengths=[30, 700]), PcgError,
         "window length 701 at hop 400 leaves 1 frame in a record of 1000 "
         "samples; features need at least 2"),
        (dict(trials=1.5), ValueError, "trials must be an integer, got 1.5"),
        (dict(hop=2.5), ValueError, "hop must be an integer, got 2.5"),
        (dict(shapes=[WindowShape.GAUSSIAN, WindowShape.RECTANGULAR,
                      WindowShape.GAUSSIAN]), ValueError,
         "grid repeats shape gaussian"),
        (dict(lengths=[30, 15, 30]), ValueError, "grid repeats length 30"),
        (dict(hidden_sizes=[2, 2]), ValueError, "grid repeats hidden size 2"),
        (dict(lengths=[]), ValueError, "grid axes must be non-empty"),
        (dict(base_seed=2.5), ValueError,
         "base_seed must be an integer, got 2.5"),
        (dict(base_seed=True), ValueError,
         "base_seed must be an integer, got True"),
    ], ids=["hidden", "length", "window-fit", "one-frame", "trials", "hop",
            "repeated-shape", "repeated-length", "repeated-hidden",
            "empty-axis", "base-seed", "base-seed-bool"])
    def test_bad_axis_refused_before_any_work(self, monkeypatch, axes, error,
                                              message):
        calls = []
        for name in ("extract_dataset", "run_trial"):
            monkeypatch.setattr(evaluate, name,
                                lambda *args, name=name, **kw: calls.append(name))
        records = tiny_corpus()  # 1250 samples each; the shortest sets the fit
        records[-1] = replace(records[-1], samples=records[-1].samples[:1000])
        grid = dict(shapes=[WindowShape.GAUSSIAN], lengths=[30],
                    hidden_sizes=[5], trials=1, hop=400)
        with pytest.raises(error, match=f"^{message}$"):
            run_grid(records, **{**grid, **axes}, train_config=FAST_TRAIN)
        assert calls == []

    def test_labels_with_one_L_are_not_repeats(self):
        cells = run_grid(tiny_corpus(), shapes=[WindowShape.GAUSSIAN],
                         lengths=[30, 31], hidden_sizes=[3], trials=1,
                         hop=400, train_config=FAST_TRAIN)
        assert [(c.length_label, c.spec.L) for c in cells] == [(30, 30), (31, 30)]

    def test_no_records_refused_by_split(self):
        with pytest.raises(PcgError,
                           match="split needs examples of both classes"):
            run_grid([], shapes=[WindowShape.GAUSSIAN], lengths=[30],
                     hidden_sizes=[3], trials=1, train_config=FAST_TRAIN)


class TestGridPlan:
    SHAPES = [WindowShape.TRIANGULAR, WindowShape.GAUSSIAN]

    def test_order_and_seeds_are_the_nested_loop(self):
        lengths, hidden_sizes = [30, 15], [4, 2]
        plan = grid_plan(self.SHAPES, lengths, hidden_sizes, trials=3,
                         base_seed=9, hop=400, n_samples=1000)
        expected = [
            (WindowSpec.from_nominal_length(shape, length), length, hidden, t,
             mix_seed(9, si, li, hi, t))
            for si, shape in enumerate(self.SHAPES)
            for li, length in enumerate(lengths)
            for hi, hidden in enumerate(hidden_sizes)
            for t in range(3)]
        assert list(plan) == expected
        assert len(expected) == 24

    def test_too_long_window_refused_at_the_call(self):
        with pytest.raises(PcgError, match="^window length 1201 at hop 400 "):
            grid_plan(self.SHAPES, [30, 1200], [2], trials=1, base_seed=0,
                      hop=400, n_samples=1000)

    def test_trial_count_is_not_materialized(self):
        plan = grid_plan(self.SHAPES, [30], [2], trials=10**12, base_seed=0,
                         hop=400, n_samples=1000)
        spec = WindowSpec.from_nominal_length(WindowShape.TRIANGULAR, 30)
        assert next(plan) == (spec, 30, 2, 0, mix_seed(0, 0, 0, 0, 0))


class TestGridCell:
    def test_fields_are_what_the_grid_measured(self):
        assert [f.name for f in fields(GridCell)] == [
            "spec", "length_label", "hidden", "trials"]
        with pytest.raises(TypeError):
            GridCell(shape=WindowShape.GAUSSIAN, length_label=30, hidden=3,
                     trials=[])

    def test_mean_is_derived_from_the_trials(self):
        # Metrics (50.0, None, 50.0), (None, 20.0, 20.0), then
        # (100.0, 40.0, 62.5).
        cell = GridCell(WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 30),
                        30, 3, [Confusion(tp=1, fn=1, tn=0, fp=0),
                                Confusion(tp=0, fn=0, tn=1, fp=4)])
        assert cell.mean == _mean_metrics(
            [metrics(c) for c in cell.trials]) == Metrics(50.0, 20.0, 35.0)
        cell.trials.append(Confusion(tp=3, fn=0, tn=2, fp=3))
        assert cell.mean == Metrics(75.0, 30.0, 132.5 / 3)


class TestEmitResults:
    def _one_cell(self):
        records = tiny_corpus()
        return run_grid(records, shapes=[WindowShape.GAUSSIAN], lengths=[30],
                        hidden_sizes=[3], trials=1, base_seed=3, hop=400,
                        train_config=FAST_TRAIN)

    def test_no_cells_refused_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="^no grid cells to write$"):
            emit_results([], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_single_cell_files(self, tmp_path):
        paths = emit_results(self._one_cell(), tmp_path)
        results = paths["results"].read_text().strip().splitlines()
        summary = paths["summary"].read_text().strip().splitlines()
        assert len(results) == 2  # header + 1 trial row
        assert len(summary) == 2
        assert results[0] == "shape,length_label,L,alpha,hidden,trial,sens,spec,accu"

    def test_roundtrip_means_within_rounding(self, tmp_path):
        import csv
        records = tiny_corpus()
        cells = run_grid(records, shapes=[WindowShape.GAUSSIAN], lengths=[30],
                         hidden_sizes=[3], trials=5, base_seed=4, hop=400,
                         train_config=FAST_TRAIN)
        paths = emit_results(cells, tmp_path)
        with open(paths["results"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        mean_accu = np.mean([float(r["accu"]) for r in rows])
        assert mean_accu == pytest.approx(cells[0].mean.accuracy, abs=0.005)

    def test_hand_built_cells(self, tmp_path):
        # A None trial metric is left out of its cell's mean, and figure5
        # averages the two cell means, not the four trials (sens 75.0).
        spec = WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 31)
        # The trials' Metrics: (100.0, 40.0, 70.0), (75.0, 20.0, 47.5),
        # (50.0, 80.0, 65.0) and (None, 60.0, 60.0).
        cells = [
            GridCell(spec, 31, 5, [Confusion(tp=5, fn=0, tn=2, fp=3),
                                   Confusion(tp=15, fn=5, tn=4, fp=16)]),
            GridCell(spec, 31, 2, [Confusion(tp=10, fn=10, tn=16, fp=4),
                                   Confusion(tp=0, fn=0, tn=3, fp=2)]),
        ]
        paths = emit_results(cells, tmp_path)
        assert paths["summary"].read_text().splitlines() == [
            "shape,length_label,L,alpha,hidden,trials,sens,spec,accu",
            "gaussian,31,30,2.5,2,2,50.00,70.00,62.50",
            "gaussian,31,30,2.5,5,2,87.50,30.00,58.75",
        ]
        assert paths["figure5"].read_text().splitlines() == [
            "shape,length_label,sens,spec,accu",
            "gaussian,31,68.75,50.00,60.63",
        ]
        assert paths["results"].read_text().splitlines()[1:] == [
            "gaussian,31,30,2.5,2,0,50.00,80.00,65.00",
            "gaussian,31,30,2.5,2,1,,60.00,60.00",
            "gaussian,31,30,2.5,5,0,100.00,40.00,70.00",
            "gaussian,31,30,2.5,5,1,75.00,20.00,47.50",
        ]

    def test_summary_ordering(self, tmp_path):
        import csv
        records = tiny_corpus()
        cells = run_grid(records,
                         shapes=[WindowShape.GAUSSIAN, WindowShape.RECTANGULAR],
                         lengths=[30, 15], hidden_sizes=[3, 2], trials=1,
                         base_seed=5, hop=400, train_config=FAST_TRAIN)
        paths = emit_results(cells, tmp_path)
        with open(paths["summary"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        keys = [(r["shape"], int(r["length_label"]), int(r["hidden"]))
                for r in rows]
        assert keys == [("rectangular", 15, 2), ("rectangular", 15, 3),
                        ("rectangular", 30, 2), ("rectangular", 30, 3),
                        ("gaussian", 15, 2), ("gaussian", 15, 3),
                        ("gaussian", 30, 2), ("gaussian", 30, 3)]

    def test_rounding_is_half_up(self, tmp_path):
        from pcgkit.evaluate import _round2
        assert _round2(89.095) == "89.10"
        assert _round2(92.857142857142858) == "92.86"
        assert _round2(None) == ""
