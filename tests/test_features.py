import functools
import math
import warnings

import numpy as np
import pytest

from pcgkit.features import (
    DEFAULT_BINS,
    _quartile_columns,
    FEATURE_NAMES,
    extract_sequence,
    feature_matrix,
    normalize_sequence,
    read_features,
    write_features,
)
from pcgkit.ingest import Label
from pcgkit.windows import WindowShape, WindowSpec, frame_matrix

from naive_features import NAIVE_BY_NAME, _naive_histogram

# The windows that cut 15- and 31-sample frames.
RECT_15 = WindowSpec(WindowShape.RECTANGULAR, 7)
RECT_31 = WindowSpec(WindowShape.RECTANGULAR, 15)


@functools.lru_cache(maxsize=16)
def _feature_row(frame_bytes, bins):
    return feature_matrix(np.frombuffer(frame_bytes)[None, :], bins)[0]


def feature(name, frame, bins=DEFAULT_BINS):
    """One feature of one frame, read from its row of feature_matrix.

    Rows are cached by frame content, so reading all ten features of a
    frame costs one feature_matrix call.
    """
    frame = np.asarray(frame, dtype=np.float64)
    return float(_feature_row(frame.tobytes(), bins)[FEATURE_NAMES.index(name)])


# The production path, one feature at a time; the oracle suites compare
# these against the independent implementations in naive_features.
LIB_BY_NAME = {name: functools.partial(feature, name) for name in FEATURE_NAMES}


def random_frames(count, rng):
    """Mixed-length frames from uniform and heavy-tailed distributions."""
    frames = []
    for _ in range(count):
        n = rng.choice([15, 31, 51])
        if rng.random() < 0.5:
            frames.append(rng.uniform(-1, 1, n))
        else:
            frames.append(rng.standard_t(2, n))
    return frames


def edge_frames(count, rng):
    """Frames whose inner values sit on one of np.histogram's bin edges, or
    one float step either side of it, at spans from 1e-3 to 1e3."""
    frames = []
    for _ in range(count):
        lo, hi = np.sort(rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=2))
        edges = np.linspace(lo, hi, DEFAULT_BINS + 1)
        inner = edges[rng.integers(1, DEFAULT_BINS, size=rng.choice([13, 29, 49]))]
        step = rng.integers(-1, 2, size=inner.size)
        inner = np.where(step == 0, inner,
                         np.nextafter(inner, np.where(step < 0, -np.inf, np.inf)))
        frames.append(rng.permutation(np.concatenate([[lo, hi], inner])))
    return frames


class TestSingleFrameExamples:
    def test_mean(self):
        assert feature("mean", np.array([1.0, 2.0, 3.0])) == 2.0
        assert feature("mean", np.zeros(7)) == 0.0

    def test_median(self):
        assert feature("median", np.array([3.0, 1.0, 2.0])) == 2.0
        assert feature("median", np.array([1.0, 2.0, 3.0, 4.0])) == 2.5

    def test_median_outlier_resistant(self):
        base = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        spiked = base.copy()
        spiked[4] = 1e6
        assert feature("median", spiked) == feature("median", base)

    def test_mode(self):
        assert feature("mode", np.array([5.0, 5.0, 5.0])) == 5.0
        assert feature("mode", np.array([0.0, 0.0, 0.0, 1.0]), bins=2) == 0.25
        # symmetric bimodal: tie resolves to the lowest bin center
        assert feature("mode", np.array([0.0, 0.0, 1.0, 1.0]), bins=2) == 0.25

    def test_variance(self):
        assert feature("variance", np.array([1.0, 2.0, 3.0])) == pytest.approx(2 / 3)
        assert feature("variance", np.full(5, 3.3)) == 0.0
        zero_mean = np.array([-0.4, 0.1, 0.3])
        assert feature("variance", zero_mean) == pytest.approx(
            np.mean(zero_mean ** 2))

    def test_skewness(self):
        assert feature("skewness", np.array([-1.0, 0.0, 1.0])) == 0.0
        assert feature("skewness", np.full(4, 2.0)) == 0.0

    def test_kurtosis(self):
        assert feature("kurtosis", np.array([-1.0, 1.0, -1.0, 1.0])) == (
            pytest.approx(-2.0))
        assert feature("kurtosis", np.full(4, 2.0)) == 0.0

    def test_kurtosis_of_gaussian_draws(self):
        x = np.random.default_rng(11).standard_normal(100_000)
        assert abs(feature("kurtosis", x)) < 0.3

    def test_shannon_energy(self):
        assert feature("shannon_energy", np.array([1.0, -1.0, 1.0])) == 0.0
        assert feature("shannon_energy", np.zeros(5)) == 0.0
        assert feature("shannon_energy", np.array([0.5])) == pytest.approx(
            0.25 * math.log(0.25))

    def test_shannon_entropy(self):
        assert feature("shannon_entropy", np.full(5, 1.0)) == 0.0
        assert feature("shannon_entropy", np.array([0.0, 1.0]),
                       bins=2) == pytest.approx(-math.log(2))
        # uniform over B bins reaches the extreme value -log B
        B = 5
        frame = np.arange(B) + 0.5
        assert feature("shannon_entropy", frame, bins=B) == pytest.approx(
            -math.log(B))

    def test_zcr(self):
        assert feature("zcr", np.array([0.3, 0.2, 0.9])) == 0.0
        alternating = np.array([1.0, -1.0, 1.0, -1.0, 1.0])  # L = 4
        assert feature("zcr", alternating) == pytest.approx(8 / 9)

    def test_zcr_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            frame = rng.normal(size=n)
            L = n - 1
            assert 0.0 <= feature("zcr", frame) <= 2 * L / (2 * L + 1)

    def test_quantile_range(self):
        assert feature("quantile_range", np.full(9, 2.0)) == 0.0
        assert feature("quantile_range", np.arange(101.0)) == 50.0

    def test_quantile_range_scales(self):
        rng = np.random.default_rng(13)
        frame = rng.normal(size=31)
        assert feature("quantile_range", 3.5 * frame) == pytest.approx(
            3.5 * feature("quantile_range", frame))


class TestOracleEquivalence:
    def test_thousand_random_frames(self):
        rng = np.random.default_rng(101)
        for frame in random_frames(1000, rng):
            xs = frame.tolist()
            for name in FEATURE_NAMES:
                got = LIB_BY_NAME[name](frame)
                want = NAIVE_BY_NAME[name](xs)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12), name

    def test_naive_histogram_counts_match_numpy(self):
        # The oracle's binning is numpy's, checked against numpy itself.
        rng = np.random.default_rng(103)
        for frame in edge_frames(200, rng) + random_frames(200, rng):
            counts, _ = _naive_histogram(frame.tolist(), DEFAULT_BINS)
            assert counts == np.histogram(frame, DEFAULT_BINS)[0].tolist()

    def test_mean_matches_naive_summation(self):
        rng = np.random.default_rng(14)
        frame = rng.normal(size=51)
        naive = 0.0
        for x in frame:
            naive += x
        naive /= frame.size
        assert feature("mean", frame) == pytest.approx(naive, abs=1e-12)


class TestShiftScaleBehavior:
    def setup_method(self):
        self.rng = np.random.default_rng(15)

    def test_shift(self):
        for _ in range(20):
            frame = self.rng.normal(size=31)
            c = self.rng.uniform(-5, 5)
            shifted = frame + c
            assert feature("mean", shifted) == pytest.approx(
                feature("mean", frame) + c, rel=1e-10, abs=1e-10)
            for name in ("variance", "skewness", "kurtosis", "quantile_range"):
                assert feature(name, shifted) == pytest.approx(
                    feature(name, frame), rel=1e-10, abs=1e-10), name
            # fixed bin count re-derived on the shifted range
            assert feature("shannon_entropy", shifted) == pytest.approx(
                feature("shannon_entropy", frame), rel=1e-10, abs=1e-10)

    def test_scale(self):
        for _ in range(20):
            frame = self.rng.normal(size=31)
            c = self.rng.uniform(0.1, 4.0)
            scaled = c * frame
            assert feature("variance", scaled) == pytest.approx(
                c * c * feature("variance", frame), rel=1e-10)
            assert feature("skewness", scaled) == pytest.approx(
                feature("skewness", frame), rel=1e-9, abs=1e-10)
            assert feature("kurtosis", scaled) == pytest.approx(
                feature("kurtosis", frame), rel=1e-9, abs=1e-10)
            assert feature("quantile_range", scaled) == pytest.approx(
                c * feature("quantile_range", frame), rel=1e-10)


class TestExtractSequence:
    def test_single_frame_shape(self):
        seq = extract_sequence(np.ones((1, 15)), window=RECT_15)
        assert seq.values.shape == (1, 10)

    def test_constant_signal_columns(self):
        frames = np.full((8, 15), 0.7)
        seq = extract_sequence(frames, window=RECT_15)
        cols = dict(zip(FEATURE_NAMES, seq.values.T))
        assert np.allclose(cols["mean"], 0.7, atol=1e-15)
        assert np.all(cols["variance"] == 0.0)
        assert np.all(cols["skewness"] == 0.0)
        assert np.all(cols["kurtosis"] == 0.0)
        assert np.all(cols["zcr"] == 0.0)
        assert np.all(cols["quantile_range"] == 0.0)

    def test_cells_match_per_frame_calls(self):
        rng = np.random.default_rng(16)
        frames = rng.standard_t(3, size=(40, 31))
        matrix = feature_matrix(frames, bins=10)
        for t in range(frames.shape[0]):
            for j, name in enumerate(FEATURE_NAMES):
                want = LIB_BY_NAME[name](frames[t])
                assert matrix[t, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_invariant_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            row = feature_matrix(rng.normal(size=(1, int(rng.integers(3, 60)))))[0]
            cols = dict(zip(FEATURE_NAMES, row))
            assert cols["variance"] >= 0.0
            assert 0.0 <= cols["zcr"] < 1.0
            assert cols["quantile_range"] >= 0.0


def histogram_mode_entropy(row, bins):
    """Mode and entropy of one row from np.histogram: the test reference."""
    if row.min() == row.max():
        return row[0], 0.0
    counts, edges = np.histogram(row, bins=bins, range=(row.min(), row.max()))
    centers = 0.5 * (edges[:-1] + edges[1:])
    p = counts[counts > 0] / row.size
    return centers[np.argmax(counts)], np.sum(p * np.log(p))


MEDIAN = FEATURE_NAMES.index("median")
MODE = FEATURE_NAMES.index("mode")
ENERGY = FEATURE_NAMES.index("shannon_energy")
ENTROPY = FEATURE_NAMES.index("shannon_entropy")
ZCR = FEATURE_NAMES.index("zcr")
QUANTILE_RANGE = FEATURE_NAMES.index("quantile_range")


def assert_matches_np_histogram(frames, bins):
    """Mode bit-equal and entropy within 1e-15 of per-row np.histogram."""
    matrix = feature_matrix(frames, bins)
    mode, entropy = matrix[:, MODE], matrix[:, ENTROPY]
    for t, row in enumerate(frames):
        want_mode, want_entropy = histogram_mode_entropy(row, bins)
        assert mode[t] == want_mode, (t, row)
        assert abs(entropy[t] - want_entropy) <= 1e-15, (t, row)


class TestRowHistogram:
    """The row-wise histogram against np.histogram, one row at a time."""

    @pytest.mark.parametrize("bins", [1, 2, 7, 10, 64])
    def test_values_on_and_next_to_edges(self, bins):
        # Values one step of the float grid below an edge are where the
        # float bin index overshoots and numpy's corrections act.
        rng = np.random.default_rng(30 + bins)
        rows = []
        for _ in range(50):
            lo, hi = np.sort(rng.normal(scale=rng.uniform(0.01, 100), size=2))
            edges = np.linspace(lo, hi, bins + 1)  # np.histogram's own edges
            rows.append(rng.permutation(np.concatenate(
                [edges, [hi], np.nextafter(edges[1:], -np.inf),
                 np.nextafter(edges[:-1], np.inf), rng.uniform(lo, hi, 12)])))
        assert_matches_np_histogram(np.array(rows), bins)

    @pytest.mark.parametrize("bins", [1, 2, 7, 10, 64])
    def test_random_rows_mixed_with_constant_rows(self, bins):
        rng = np.random.default_rng(40 + bins)
        frames = np.concatenate([rng.uniform(-1, 1, (100, 31)),
                                 rng.standard_t(2, (100, 31)),
                                 np.round(rng.normal(size=(100, 31)) * 4) / 4])
        frames[::9] = rng.normal(size=(frames[::9].shape[0], 1))  # constant
        assert_matches_np_histogram(frames, bins)

    @pytest.mark.parametrize("bins", [1, 2, 7, 10, 64])
    def test_spans_of_one_and_two_ulp(self, bins):
        rows = []
        for lo in (0.3, -2.5, 1e-300, 7e10):
            one = np.nextafter(lo, np.inf)
            two = np.nextafter(one, np.inf)
            rows += [[lo, one, lo, lo, one], [two, lo, one, one, lo]]
        frames = np.array(rows)
        matrix = feature_matrix(frames, bins)
        for t, row in enumerate(frames):
            try:
                want_mode, want_entropy = histogram_mode_entropy(row, bins)
            except ValueError:
                # np.histogram refuses a span narrower than `bins` steps of
                # the float grid; the row still gets an in-range mode.
                assert row.min() <= matrix[t, MODE] <= row.max()
                assert -math.log(3) - 1e-15 <= matrix[t, ENTROPY] <= 0.0
                continue
            assert matrix[t, MODE] == want_mode
            assert abs(matrix[t, ENTROPY] - want_entropy) <= 1e-15

    def test_hop_one_sized_matrix(self):
        x = np.random.default_rng(50).standard_t(3, size=5000)
        frames, _ = frame_matrix(x, WindowSpec(WindowShape.GAUSSIAN, 15), hop=1)
        assert frames.shape == (4970, 31)
        assert_matches_np_histogram(frames, DEFAULT_BINS)


class TestInputErrors:
    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf],
                                     [1e308, -1e308]])
    def test_non_finite_frames_rejected(self, bad):
        frames = np.random.default_rng(60).normal(size=(5, 31))
        frames[3, 7:7 + len(bad)] = bad
        with pytest.raises(ValueError, match="finite"):
            feature_matrix(frames)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_below_one_rejected(self, bins):
        with pytest.raises(ValueError, match="bins"):
            feature_matrix(np.random.default_rng(61).normal(size=(5, 31)), bins)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def sign_and_tie_frames(n, rng):
    """(160, n) frames: normal draws, tie-heavy rounded draws (which hold
    -0.0 where a negative draw rounds to zero), rows of mixed -0.0 and 0.0,
    and rows mixing signed zeros, +-1 and the smallest subnormals."""
    return np.concatenate([
        rng.standard_normal((40, n)),
        np.round(rng.standard_normal((40, n)), 1),
        rng.choice([-0.0, 0.0], size=(40, n)),
        rng.choice([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324], size=(40, n)),
    ])


class TestSortedRowStatistics:
    """Quartiles from sorted rows, zero crossings from sign booleans and the
    energy's masked log, each against the formula it replaced, to the bit."""

    def test_quartiles_match_np_quantile(self):
        rng = np.random.default_rng(90)
        for n in range(1, 65):
            frames = sign_and_tie_frames(n, rng)
            want = np.quantile(frames, [0.5, 0.25, 0.75], axis=1)
            got = _quartile_columns(frames, np.sort(frames, axis=1))
            for q, w, g in zip((0.5, 0.25, 0.75), want, got):
                assert np.array_equal(bits(g), bits(w)), (n, q)
            matrix = feature_matrix(frames)
            assert np.array_equal(bits(matrix[:, MEDIAN]), bits(want[0])), n
            assert np.array_equal(bits(matrix[:, QUANTILE_RANGE]),
                                  bits(want[2] - want[1])), n

    def test_zcr_and_energy_match_sign_and_masked_log_formulas(self):
        rng = np.random.default_rng(91)
        for n in range(1, 65):
            frames = sign_and_tie_frames(n, rng)
            signs = np.where(frames >= 0.0, 1.0, -1.0)
            zcr = np.abs(np.diff(signs, axis=1)).sum(axis=1) / (2 * (n - 1) + 1)
            y2 = frames ** 2
            logy2 = np.zeros_like(y2)
            nz = y2 > 0.0
            logy2[nz] = np.log(y2[nz])
            energy = (y2 * logy2).sum(axis=1)
            matrix = feature_matrix(frames)
            assert np.array_equal(bits(matrix[:, ZCR]), bits(zcr)), n
            assert np.array_equal(bits(matrix[:, ENERGY]), bits(energy)), n

    def test_both_infinities_raise_before_any_warning(self):
        # The median sits between -inf and +inf: interpolating it would warn.
        frames = np.random.default_rng(92).normal(size=(5, 31))
        frames[2] = np.where(np.arange(31) % 2, np.inf, -np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                feature_matrix(frames)


class TestNormalize:
    def test_example_column(self):
        seq = extract_sequence(np.ones((3, 15)), window=RECT_15)
        seq.values[:, 0] = [1.0, 2.0, 3.0]
        out = normalize_sequence(seq)
        root = math.sqrt(3 / 2)
        assert out.values[:, 0] == pytest.approx([-root, 0.0, root])

    def test_constant_columns_become_zero(self):
        seq = extract_sequence(np.full((5, 15), 0.3), window=RECT_15)
        out = normalize_sequence(seq)
        assert np.all(out.values[:, 3] == 0.0)  # variance column was constant

    def test_column_statistics(self):
        rng = np.random.default_rng(17)
        seq = extract_sequence(rng.normal(size=(200, 31)), window=RECT_31)
        out = normalize_sequence(seq)
        for j in range(10):
            col = out.values[:, j]
            if np.any(col != 0.0):
                assert abs(col.mean()) < 1e-10
                assert abs(col.std() - 1.0) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(18)
        seq = extract_sequence(rng.normal(size=(50, 15)), window=RECT_15)
        once = normalize_sequence(seq)
        twice = normalize_sequence(once)
        assert np.allclose(twice.values, once.values, atol=1e-9)

    def test_scale_invariance_after_normalization(self):
        # Positive rescaling of the raw signal leaves every normalized
        # column unchanged except the two logarithmic ones.
        rng = np.random.default_rng(19)
        x = rng.normal(size=400)
        spec = WindowSpec(WindowShape.GAUSSIAN, 15)
        for c in (0.5, 3.0):
            f1, _ = frame_matrix(x, spec, hop=5)
            f2, _ = frame_matrix(c * x, spec, hop=5)
            n1 = normalize_sequence(extract_sequence(f1, window=spec))
            n2 = normalize_sequence(extract_sequence(f2, window=spec))
            for j, name in enumerate(FEATURE_NAMES):
                if name in ("shannon_energy", "shannon_entropy"):
                    continue
                assert np.allclose(n1.values[:, j], n2.values[:, j],
                                   atol=1e-9), name

    def test_too_short_rejected(self):
        seq = extract_sequence(np.ones((1, 15)), window=RECT_15)
        with pytest.raises(ValueError):
            normalize_sequence(seq)


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    spec = WindowSpec(WindowShape.TRIANGULAR, 7)
    seq = extract_sequence(rng.normal(size=(12, 15)), bins=8,
                           signal_id="rec1", label=Label.PATHOLOGICAL,
                           window=spec, hop=3)
    path = tmp_path / "rec1.csv"
    write_features(seq, path)
    assert (tmp_path / "rec1.meta.json").is_file()
    back = read_features(path)
    assert np.array_equal(back.values, seq.values)
    assert back.signal_id == "rec1"
    assert back.label is Label.PATHOLOGICAL
    assert back.window == spec
    assert back.hop == 3 and back.bins == 8
