import dataclasses
import functools
import json
import math
import warnings

import numpy as np
import pytest

from pcgkit.features import (
    _BLOCK_ROWS,
    DEFAULT_BINS,
    _quartile_columns,
    FEATURE_NAMES,
    FeatureSequence,
    extract_sequence,
    feature_matrix,
    normalize_sequence,
    read_features,
    write_features,
)
from pcgkit.errors import PcgError
from pcgkit.ingest import Label
from pcgkit.windows import WindowShape, WindowSpec, frame_matrix

from naive_features import NAIVE_BY_NAME, _naive_histogram
from test_cli import FEATURE_FILE_MUTATIONS
from test_nnet import traced_peak

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

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
    def test_tiny_amplitudes(self, scale):
        # The fourth central moment of these rows underflows, and sigma ** 3
        # with it; skewness and kurtosis must still be the unscaled rows'.
        frames = np.random.default_rng(16).standard_normal((3, 31))
        got = feature_matrix(frames * scale)
        assert np.isfinite(got).all()
        for row, unscaled in zip(got, frames):
            for name in ("skewness", "kurtosis"):
                want = NAIVE_BY_NAME[name](unscaled.tolist())
                assert row[FEATURE_NAMES.index(name)] == pytest.approx(
                    want, rel=1e-10, abs=1e-12), name


    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e140])
    def test_large_amplitudes(self, scale):
        # m4 overflows from about 1e77 and is redone from rescaled rows,
        # without a warning; every feature stays finite.
        frames = np.random.default_rng(16).standard_normal((3, 31))
        got = feature_matrix(frames * scale)
        assert np.isfinite(got).all()
        for row, unscaled in zip(got, frames):
            for name in ("skewness", "kurtosis"):
                want = NAIVE_BY_NAME[name](unscaled.tolist())
                assert row[FEATURE_NAMES.index(name)] == pytest.approx(
                    want, rel=1e-10, abs=1e-12), name

    @pytest.mark.parametrize("frames", [
        np.random.default_rng(17).standard_normal((3, 31)) * 1e160,
        np.full((3, 31), 1.5e308) - np.arange(31) * 1e306,  # the mean's sum
    ])
    def test_overflowing_features_rejected(self, frames):
        with pytest.raises(ValueError, match="overflow"):
            feature_matrix(frames)


class TestExtractSequence:
    def test_single_frame_shape(self):
        seq = extract_sequence(np.ones((1, 15)), window=RECT_15, hop=1)
        assert seq.values.shape == (1, 10)

    def test_frames_not_cut_with_the_window_rejected(self):
        # The sequence records its window: frames of another width would
        # give it a config that did not make them.
        spec = WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 30)
        with pytest.raises(ValueError, match="^frames are 7 points wide, "
                                             "but the window has 31$"):
            extract_sequence(np.ones((20, 7)), window=spec, hop=1)
        seq = extract_sequence(np.ones((20, 31)), window=spec, hop=1)
        assert seq.window == spec

    def test_hop_is_required(self):
        # The sequence records its hop, which the frames do not show: a
        # default would record 1 for frames cut at another hop.
        spec = WindowSpec(WindowShape.RECTANGULAR, 7)
        with pytest.raises(TypeError, match="hop"):
            frame_matrix(np.ones(100), spec)
        frames, _ = frame_matrix(np.ones(100), spec, 25)
        with pytest.raises(TypeError, match="hop"):
            extract_sequence(frames, window=spec)

    def test_constant_signal_columns(self):
        frames = np.full((8, 15), 0.7)
        seq = extract_sequence(frames, window=RECT_15, hop=1)
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


def sequence_fields(**changes):
    """The fields of a valid 5-frame FeatureSequence, with `changes`."""
    return {"values": np.zeros((5, 10)), "signal_id": "s", "label": Label.HEALTHY,
            "window": RECT_15, "hop": 1, "bins": DEFAULT_BINS,
            "normalized": False, **changes}


class TestFeatureSequence:
    @pytest.mark.parametrize("field, value, message", [
        ("values", np.zeros(5), "sequence 's' has no frames"),
        ("values", np.zeros((0, 10)), "sequence 's' has no frames"),
        ("values", np.zeros((5, 4)), "sequence 's' has 4 features per frame, not 10"),
        ("signal_id", 7, "signal_id must be a string, got 7"),
        ("signal_id", None, "signal_id must be a string, got None"),
        ("label", "healthy", "label must be a Label, got 'healthy'"),
        ("window", None, "window must be a WindowSpec, got None"),
        ("hop", 0, "hop must be >= 1, got 0"),
        ("hop", -3, "hop must be >= 1, got -3"),
        ("hop", 2.5, "hop must be an integer, got 2.5"),
        ("hop", True, "hop must be an integer, got True"),
        ("bins", 0, "bins must be >= 1, got 0"),
        ("bins", 10.0, "bins must be an integer, got 10.0"),
        ("normalized", 1, "normalized must be true or false, got 1"),
        ("normalized", "yes", "normalized must be true or false, got 'yes'"),
    ])
    def test_refused_when_made(self, field, value, message):
        with pytest.raises(ValueError) as info:
            FeatureSequence(**sequence_fields(**{field: value}))
        assert str(info.value) == message

    def test_frozen(self):
        seq = FeatureSequence(**sequence_fields())
        with pytest.raises(dataclasses.FrozenInstanceError):
            seq.hop = 0

    def test_made_as_read_features_reads(self, tmp_path):
        # Every sidecar value of a checked field that read_features refuses
        # is refused, with the same text, when a sequence is made with it,
        # so extract_sequence writes no file that read_features refuses.
        frames = np.random.default_rng(23).normal(size=(5, 15))
        path = tmp_path / "f.csv"
        meta_path = path.with_suffix(".meta.json")
        write_features(extract_sequence(frames, window=RECT_15, hop=1), path)
        csv_raw, meta_raw = path.read_bytes(), meta_path.read_bytes()
        meta = json.loads(meta_raw)
        checked = {"hop", "bins", "alpha", "normalized", "signal_id"}
        seen = set()
        for name, mutation in sorted(FEATURE_FILE_MUTATIONS.items()):
            bad_csv, bad_meta = mutation(csv_raw, meta_raw)
            try:
                edited = json.loads(bad_meta)
            except (ValueError, RecursionError):
                continue
            if (bad_csv != csv_raw or not isinstance(edited, dict)
                    or edited.keys() != meta.keys()):
                continue
            changed = [key for key in meta if edited[key] != meta[key]]
            if len(changed) != 1 or changed[0] not in checked:
                continue
            key, value = changed[0], edited[changed[0]]
            meta_path.write_bytes(bad_meta)
            with pytest.raises(PcgError) as read:
                read_features(path)
            with pytest.raises(ValueError) as made:
                if key == "alpha":
                    extract_sequence(frames, window=WindowSpec(
                        RECT_15.shape, RECT_15.half_length, value), hop=1)
                elif key == "normalized":
                    dataclasses.replace(
                        extract_sequence(frames, window=RECT_15, hop=1),
                        normalized=value)
                else:
                    extract_sequence(frames, window=RECT_15,
                                     **{"hop": 1, key: value})
            assert str(read.value) == f"{meta_path}: {made.value}", name
            seen.add(key)
        assert seen == checked


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

    def test_no_frames_rejected(self):
        with pytest.raises(ValueError, match="^need a non-empty"):
            feature_matrix(np.zeros((0, 31)))

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_below_one_rejected(self, bins):
        with pytest.raises(ValueError, match="bins"):
            feature_matrix(np.random.default_rng(61).normal(size=(5, 31)), bins)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def boundary_rows(rng):
    """31-sample rows that take feature_matrix's special paths: constant,
    1e-160 and 1e140 scales (moments from rescaled rows), values on and one
    float step beside bin edges, and spans of one and two float steps."""
    rows = [np.full(31, 0.7), np.full(31, -3e-200),
            rng.standard_normal(31) * 1e-160, rng.standard_normal(31) * 1e140]
    for scale in (1e-3, 1.0, 1e3):
        lo, hi = np.sort(rng.normal(scale=scale, size=2))
        edges = np.linspace(lo, hi, DEFAULT_BINS + 1)
        inner = np.concatenate([edges[1:-1], np.nextafter(edges[1:-1], -np.inf),
                                np.nextafter(edges[1:-1], np.inf), [hi, lo]])
        rows.append(rng.permutation(np.concatenate([[lo, hi], inner])))
    for lo in (0.3, -2.5):
        one = np.nextafter(lo, np.inf)
        two = np.nextafter(one, np.inf)
        rows += [rng.choice([lo, one], 31), rng.choice([lo, one, two], 31)]
    return rows


class TestBlocks:
    """feature_matrix computes _BLOCK_ROWS rows at a time: every row, on
    either side of a block boundary too, gets the bits of a one-row call,
    and errors read the same from every block."""

    T = 2 * _BLOCK_ROWS + 300  # two full blocks and a partial one

    def frames(self, seed):
        rng = np.random.default_rng(seed)
        frames = rng.standard_t(3, size=(self.T, 31))
        special = boundary_rows(rng)
        for first in (_BLOCK_ROWS, 2 * _BLOCK_ROWS):  # a block's first row
            frames[first - len(special):first + len(special)] = special * 2
        frames[-len(special):] = special
        return frames

    @pytest.mark.parametrize("bins", [1, 10, 64])
    def test_rows_equal_one_row_calls(self, bins):
        frames = self.frames(70 + bins)
        matrix = feature_matrix(frames, bins)
        assert matrix.shape == (self.T, 10)
        for t, row in enumerate(frames):
            assert np.array_equal(bits(matrix[t]),
                                  bits(feature_matrix(row[None], bins)[0])), t

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "frames must be finite"),
        (1e160, "features overflow float64"),
    ])
    def test_errors_read_the_same_in_the_last_block(self, bad, message):
        errors = []
        for t in (0, self.T - 1):
            frames = self.frames(80)
            frames[t] = np.random.default_rng(81).standard_normal(31) * bad
            with pytest.raises(ValueError, match=message) as info:
                feature_matrix(frames)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_memory_beyond_the_output_does_not_grow_with_frames(self):
        x = np.random.default_rng(82).standard_t(3, size=5000)
        frames, _ = frame_matrix(x, WindowSpec(WindowShape.GAUSSIAN, 15), hop=1)
        doubled = np.concatenate([frames, frames])
        peak = traced_peak(lambda: feature_matrix(frames))
        peak_doubled = traced_peak(lambda: feature_matrix(doubled))
        extra_output = (len(doubled) - len(frames)) * len(FEATURE_NAMES) * 8
        assert peak_doubled - peak <= 1.5 * extra_output


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
        seq = extract_sequence(np.ones((3, 15)), window=RECT_15, hop=1)
        seq.values[:, 0] = [1.0, 2.0, 3.0]
        out = normalize_sequence(seq)
        root = math.sqrt(3 / 2)
        assert out.values[:, 0] == pytest.approx([-root, 0.0, root])

    def test_constant_columns_become_zero(self):
        seq = extract_sequence(np.full((5, 15), 0.3), window=RECT_15, hop=1)
        out = normalize_sequence(seq)
        assert np.all(out.values[:, 3] == 0.0)  # variance column was constant

    def test_column_statistics(self):
        rng = np.random.default_rng(17)
        seq = extract_sequence(rng.normal(size=(200, 31)), window=RECT_31,
                               hop=1)
        out = normalize_sequence(seq)
        for j in range(10):
            col = out.values[:, j]
            if np.any(col != 0.0):
                assert abs(col.mean()) < 1e-10
                assert abs(col.std() - 1.0) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(18)
        seq = extract_sequence(rng.normal(size=(50, 15)), window=RECT_15,
                               hop=1)
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
            n1 = normalize_sequence(extract_sequence(f1, window=spec, hop=5))
            n2 = normalize_sequence(extract_sequence(f2, window=spec, hop=5))
            for j, name in enumerate(FEATURE_NAMES):
                if name in ("shannon_energy", "shannon_entropy"):
                    continue
                assert np.allclose(n1.values[:, j], n2.values[:, j],
                                   atol=1e-9), name

    def test_overflowing_column_rejected(self):
        # At 1e80 the variance column is near 1e160: its spread overflows.
        frames = np.random.default_rng(21).normal(size=(20, 15)) * 1e80
        seq = extract_sequence(frames, signal_id="big", window=RECT_15, hop=1)
        with pytest.raises(ValueError, match="'big': column 3 .* overflow"):
            normalize_sequence(seq)

    def test_non_finite_values_rejected(self):
        seq = extract_sequence(np.random.default_rng(22).normal(size=(5, 15)),
                               window=RECT_15, hop=1)
        seq.values[2, 0] = np.nan
        with pytest.raises(ValueError, match="column 0"):
            normalize_sequence(seq)

    def test_too_short_rejected(self):
        seq = extract_sequence(np.ones((1, 15)), window=RECT_15, hop=1)
        with pytest.raises(ValueError):
            normalize_sequence(seq)


@pytest.mark.parametrize("hop, half_length", [
    (np.int64(25), 15), (25, np.int64(15))], ids=["hop", "half-length"])
def test_numpy_integers_written_as_json_integers(tmp_path, hop, half_length):
    rng = np.random.default_rng(21)
    frames = rng.normal(size=(4, 31))
    for name, h, half in (("numpy", hop, half_length), ("int", 25, 15)):
        write_features(extract_sequence(
            frames, signal_id="a", label=Label.HEALTHY, hop=h,
            window=WindowSpec(WindowShape.GAUSSIAN, half)), tmp_path / name)
    assert ((tmp_path / "numpy.meta.json").read_bytes()
            == (tmp_path / "int.meta.json").read_bytes())
    back = read_features(tmp_path / "numpy")
    assert back.config == read_features(tmp_path / "int").config
    assert (back.hop, back.window.half_length) == (25, 15)


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
