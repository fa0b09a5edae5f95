"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import os
import time
from fractions import Fraction

import numpy as np
import pytest

from pcgkit import nnet
from pcgkit.evaluate import Confusion, extract_dataset, metrics, split
from pcgkit.features import FEATURE_NAMES, extract_sequence, normalize_sequence
from pcgkit.ingest import preprocess
from pcgkit.synth import SynthConfig, generate_dataset
from pcgkit.windows import (
    WindowShape,
    WindowSpec,
    mainlobe_width,
    make_window,
    peak_sidelobe_db,
    window_spectrum,
)

from naive_features import NAIVE_BY_NAME
from test_features import LIB_BY_NAME, RECT_31, edge_frames, random_frames
from test_nnet import grads_of


def report(number: int, title: str, elapsed: float | None = None) -> None:
    suffix = f"  ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\n[PASS] criterion {number}: {title}{suffix}")


def test_criterion_1_window_spectral_suite():
    start = time.perf_counter()

    # Rectangular peak side lobe: -13.3 dB +/- 0.15 dB for L >= 20.
    for L in (20, 30, 50, 100):
        s = window_spectrum(make_window(WindowSpec(WindowShape.RECTANGULAR, L // 2)))
        level = peak_sidelobe_db(s)
        assert abs(level - (-13.3)) <= 0.15, f"rect L={L}: {level:.3f} dB"
        # amplitude ratio approximately one-fifth of the main lobe
        assert 10 ** (level / 20) == pytest.approx(0.217, abs=0.01)

    # Triangular main-lobe half-width = 2x rectangular within one grid bin
    # at nfft=4096 (the doubling is asymptotic; L >= ~100 keeps the
    # measurement inside one bin).
    for L in (100, 128):
        st = window_spectrum(make_window(WindowSpec(WindowShape.TRIANGULAR, L // 2)))
        sr = window_spectrum(make_window(WindowSpec(WindowShape.RECTANGULAR, L // 2)))
        half_tri = mainlobe_width(st) / 2
        half_rect = mainlobe_width(sr) / 2
        assert abs(half_tri - 2 * half_rect) <= 1 / 4096

    # Triangular zero-phase spectrum is nonnegative (>= -1e-9).
    for L in (14, 20, 30, 50):
        w = make_window(WindowSpec(WindowShape.TRIANGULAR, L // 2))
        half = L // 2
        buf = np.zeros(4096)
        buf[:half + 1] = w[half:]
        buf[-half:] = w[:half]
        assert np.fft.rfft(buf).real.min() >= -1e-9

    # Gaussian side-lobe level strictly decreasing over alpha.
    levels = [peak_sidelobe_db(window_spectrum(
        make_window(WindowSpec(WindowShape.GAUSSIAN, 10, alpha=a))))
        for a in (2.5, 3.0, 3.5)]
    assert levels[0] > levels[1] > levels[2]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "window spectral suite", elapsed)


def test_criterion_2_feature_oracle_suite():
    start = time.perf_counter()

    rng = np.random.default_rng(2024)
    frames = random_frames(1000, rng)
    frames += edge_frames(300, np.random.default_rng(2025))
    for frame in frames:
        xs = frame.tolist()
        for name in FEATURE_NAMES:
            got = LIB_BY_NAME[name](frame)
            want = NAIVE_BY_NAME[name](xs)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12), name

    # Shift and scale behavior.
    for _ in range(50):
        frame = rng.normal(size=31)
        c_shift = rng.uniform(-4, 4)
        c_scale = rng.uniform(0.2, 5.0)
        shifted = frame + c_shift
        scaled = c_scale * frame
        assert LIB_BY_NAME["mean"](shifted) == pytest.approx(
            LIB_BY_NAME["mean"](frame) + c_shift, rel=1e-10, abs=1e-10)
        for name in ("variance", "skewness", "kurtosis", "quantile_range",
                     "shannon_entropy"):
            assert LIB_BY_NAME[name](shifted) == pytest.approx(
                LIB_BY_NAME[name](frame), rel=1e-9, abs=1e-10), name
        assert LIB_BY_NAME["variance"](scaled) == pytest.approx(
            c_scale ** 2 * LIB_BY_NAME["variance"](frame), rel=1e-10)
        assert LIB_BY_NAME["skewness"](scaled) == pytest.approx(
            LIB_BY_NAME["skewness"](frame), rel=1e-9, abs=1e-10)
        assert LIB_BY_NAME["kurtosis"](scaled) == pytest.approx(
            LIB_BY_NAME["kurtosis"](frame), rel=1e-9, abs=1e-10)
        assert LIB_BY_NAME["quantile_range"](scaled) == pytest.approx(
            c_scale * LIB_BY_NAME["quantile_range"](frame), rel=1e-10)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "feature oracle suite (1000 random frames, 300 on bin edges)",
           elapsed)


def test_criterion_3_normalization():
    rng = np.random.default_rng(3)
    frames = rng.standard_t(3, size=(300, 31))
    seq = extract_sequence(frames, window=RECT_31, hop=1)
    seq.values[:, 2] = 1.25  # force one constant column
    out = normalize_sequence(seq)

    for j in range(10):
        col = out.values[:, j]
        if j == 2:
            assert np.all(col == 0.0)
        else:
            assert abs(col.mean()) < 1e-10
            assert abs(col.std() - 1.0) < 1e-9

    twice = normalize_sequence(out)
    assert np.allclose(twice.values, out.values, atol=1e-9)
    report(3, "per-column normalization: zero mean, unit spread, idempotent")


def test_criterion_4_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    H, D, T, B = 3, 10, 7, 2
    model = nnet.init_model(H, seed=4)
    X = rng.normal(size=(B, T, D))
    labels = np.array([0, 1])

    grads = grads_of(model, X, labels)

    def mean_loss():
        p = nnet._forward_batch(model, X)[0]
        return float(-np.log(p[np.arange(B), labels]).mean())

    eps = 1e-5
    worst = 0.0
    for (name, theta), (_, g) in zip(model.blocks, grads.blocks):
        flat = theta.reshape(-1)
        numeric = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            lp = mean_loss()
            flat[k] = orig - eps
            lm = mean_loss()
            flat[k] = orig
            numeric[k] = (lp - lm) / (2 * eps)
        gf = g.reshape(-1)
        rel = np.linalg.norm(gf - numeric) / (
            np.linalg.norm(gf) + np.linalg.norm(numeric) + 1e-300)
        worst = max(worst, rel)
        assert rel < 1e-5, f"{name}: rel err {rel:.2e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"BPTT gradient check, worst block rel err {worst:.2e}", elapsed)


def test_criterion_5_training_sanity():
    start = time.perf_counter()

    records = generate_dataset(40, 40, base_seed=2024,
                               config=SynthConfig(murmur_gain=0.3))
    records = [preprocess(r) for r in records]
    spec = WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 30)
    dataset = extract_dataset(records, spec, hop=25)

    train_set, test_set = split(dataset, seed=42)
    model, _ = nnet.train(train_set, 30, nnet.TrainConfig(epochs=100), seed=42)
    predictions = nnet.predict_batch(model, test_set)
    labels = np.array([nnet.CLASS_INDEX[s.label] for s in test_set])
    accuracy = 100.0 * float(np.mean(predictions == labels))

    elapsed = time.perf_counter() - start
    assert accuracy >= 90.0, f"test accuracy {accuracy:.1f}%"
    assert elapsed < 600.0
    report(5, f"training sanity: desk-scale test accuracy {accuracy:.1f}%",
           elapsed)


def test_criterion_6_metrics_reference_consistency():
    # Exact rational check: sens 26/28 and spec 23/27 round to the reported
    # 92.90 / 85.20, and the implied accuracy 49/55 sits within 0.05 of the
    # published best accuracy 89.10.
    c = Confusion(tp=26, fn=2, tn=23, fp=4)
    sens = Fraction(100 * 26, 28)
    spec = Fraction(100 * 23, 27)
    accu = Fraction(100 * 49, 55)
    assert round(sens, 1) == Fraction("92.9")
    assert round(spec, 1) == Fraction("85.2")
    assert abs(accu - Fraction("89.10")) <= Fraction("0.05")

    m = metrics(c)
    assert m.sensitivity == pytest.approx(float(sens), abs=1e-9)
    assert m.specificity == pytest.approx(float(spec), abs=1e-9)
    assert m.accuracy == pytest.approx(float(accu), abs=1e-9)
    report(6, "metrics arithmetic matches the reference result triple")


def test_criterion_7_grid_determinism(tmp_path):
    from pcgkit.cli import main

    corpus = tmp_path / "corpus"
    assert main(["synth", "--healthy", "5", "--pathological", "5",
                 "--duration", "2.5", "--seed", "7",
                 "--out-dir", str(corpus)]) == 0
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(["grid", "--corpus", str(corpus),
                     "--shapes", "rectangular", "triangular", "gaussian",
                     "--lengths", "15", "30", "--hidden", "3", "5",
                     "--trials", "2", "--hop", "250", "--epochs", "2",
                     "--seed", "7", "--out-dir", str(out)])
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
    report(7, "two identically seeded grid runs give byte-identical results.csv")


def test_criterion_8_full_corpus_smoke_run():
    """Non-gating: absolute published accuracies are out of reach here.

    The reference results for the PhysioNet 2016 corpus (best accuracy
    about 89.1%) depend on an undisclosed 300-recording subset, private
    random splits, and unstated classifier internals, so this build is
    gated by criteria 1-7 instead.  If the corpus is available locally,
    point PCG_PHYSIONET_DIR at a directory of mono PCM16 WAV files plus a
    labels.csv manifest to run a small smoke grid; the published kNN
    baseline range 74.07-81.40 is context, not a gate.
    """
    corpus_dir = os.environ.get("PCG_PHYSIONET_DIR")
    if not corpus_dir:
        pytest.skip("PCG_PHYSIONET_DIR not set; absolute corpus accuracies "
                    "are explicitly not reproduced at desk scale "
                    "(criteria 1-7 gate this build)")

    from pcgkit.cli import main
    out = os.path.join(corpus_dir, "_smoke_results")
    code = main(["grid", "--corpus", corpus_dir,
                 "--shapes", "gaussian", "--lengths", "30",
                 "--hidden", "30", "--trials", "3", "--hop", "25",
                 "--epochs", "100", "--seed", "0", "--out-dir", out])
    assert code == 0
    report(8, f"non-gating corpus smoke run completed; see {out}")
