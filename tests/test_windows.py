import math

import numpy as np
import pytest

from pcgkit.errors import PcgError
from pcgkit.windows import (
    MIN_NFFT,
    WindowShape,
    WindowSpec,
    frame_centers,
    frame_matrix,
    mainlobe_width,
    make_window,
    peak_sidelobe_db,
    window_spectrum,
)

from test_nnet import traced_peak

R, T, G = WindowShape.RECTANGULAR, WindowShape.TRIANGULAR, WindowShape.GAUSSIAN


class TestWindowSpec:
    def test_invariants(self):
        spec = WindowSpec(T, 7)
        assert spec.L == 14
        assert spec.length == 15
        with pytest.raises(ValueError):
            WindowSpec(R, 0)
        with pytest.raises(ValueError):
            WindowSpec(G, 5, alpha=0.0)

    @pytest.mark.parametrize("alpha", [True, "x", None, np.int64(3)])
    def test_non_number_alpha_refused(self, alpha):
        # A sidecar records alpha as JSON, which has no np.int64.
        with pytest.raises(ValueError) as info:
            WindowSpec(G, 5, alpha=alpha)
        assert str(info.value) == f"alpha must be a number, got {alpha!r}"

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 10**400],
                             ids=["inf", "nan", "int-1e400"])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be finite"):
            WindowSpec(G, 5, alpha=alpha)

    @pytest.mark.parametrize("alpha", [np.float64(2.5), 3])
    def test_int_and_float_alpha_accepted(self, alpha):
        assert WindowSpec(G, 5, alpha=alpha).alpha == alpha

    @pytest.mark.parametrize("nominal,L", [(15, 14), (30, 30), (50, 50), (31, 30)])
    def test_nominal_lengths(self, nominal, L):
        spec = WindowSpec.from_nominal_length(G, nominal)
        assert spec.L == L
        assert spec.length == L + 1


class TestMakeWindow:
    def test_rectangular(self):
        assert np.array_equal(make_window(WindowSpec(R, 2)), np.ones(5))

    def test_triangular(self):
        w = make_window(WindowSpec(T, 2))
        assert np.array_equal(w, [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_gaussian(self):
        w = make_window(WindowSpec(G, 2, alpha=2.5))
        assert w[2] == 1.0
        assert w[0] == pytest.approx(np.exp(-0.5 * 2.5 ** 2), rel=1e-15)
        assert w[4] == w[0]

    @pytest.mark.parametrize("shape", [R, T, G])
    @pytest.mark.parametrize("half", [1, 7, 15, 25])
    def test_symmetry_and_bounds(self, shape, half):
        w = make_window(WindowSpec(shape, half, alpha=3.0))
        assert np.array_equal(w, w[::-1])
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert w[half] == w.max() == 1.0


class TestFrameSignal:
    def test_single_frame_boundary(self):
        # One frame is refused; one sample more gives the two features need.
        x = np.arange(6.0)
        with pytest.raises(PcgError, match="leaves 1 frame in a record "
                                             "of 5 samples"):
            frame_matrix(x[:5], WindowSpec(R, 2), hop=1)
        frames, centers = frame_matrix(x, WindowSpec(R, 2), hop=1)
        assert frames.shape == (2, 5)
        assert np.array_equal(centers, [2, 3])
        assert np.array_equal(frames[1], x[1:])

    def test_frame_count_hop_one(self):
        x = np.zeros(5000)
        frames, centers = frame_matrix(x, WindowSpec(G, 15), hop=1)
        assert frames.shape == (4970, 31)  # N - L valid centers
        assert centers[0] == 15 and centers[-1] == 4984

    def test_ones_signal_reproduces_window(self):
        spec = WindowSpec(T, 2)
        frames, _ = frame_matrix(np.ones(20), spec, hop=3)
        for row in frames:
            assert np.array_equal(row, make_window(spec))

    def test_rectangular_hop_one_reproduces_slices(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=64)
        frames, centers = frame_matrix(x, WindowSpec(R, 5), hop=1)
        for row, c in zip(frames, centers):
            assert np.array_equal(row, x[c - 5:c + 6])

    def test_window_too_long(self):
        with pytest.raises(PcgError, match="features need at least 2$"):
            frame_matrix(np.zeros(10), WindowSpec(R, 5), hop=1)

    @pytest.mark.parametrize("n_samples, hop, frames", [
        (10, 1, 0), (11, 1, 1), (12, 1, 2), (15, 5, 1), (16, 5, 2),
        (5000, 4989, 2), (5000, 4990, 1)])
    def test_fewer_than_two_frames_is_the_one_refusal(self, n_samples, hop,
                                                      frames):
        spec = WindowSpec(G, 5)  # 11 points
        if frames >= 2:
            centers = frame_centers(n_samples, spec, hop)
            assert centers.size == frames
            assert centers[-1] + 5 < n_samples <= centers[-1] + 5 + hop
            return
        message = (f"window length 11 at hop {hop} leaves {frames} "
                   f"frame{'' if frames == 1 else 's'} in a record of "
                   f"{n_samples} samples; features need at least 2")
        for call in (lambda: frame_centers(n_samples, spec, hop),
                     lambda: frame_matrix(np.zeros(n_samples), spec, hop)):
            with pytest.raises(PcgError, match=f"^{message}$"):
                call()

    def test_hop_is_checked_before_the_fit(self):
        with pytest.raises(ValueError, match="^hop must be >= 1, got 0$"):
            frame_centers(3, WindowSpec(G, 5), 0)

    def test_frame_values_match_definition(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        spec = WindowSpec(G, 4, alpha=3.0)
        w = make_window(spec)
        frames, centers = frame_matrix(x, spec, hop=7)
        assert np.array_equal(centers, np.arange(4, 36, 7))
        for row, c in zip(frames, centers):
            assert np.array_equal(row, w * x[c - 4:c + 5])

    def test_hop_one_memory_is_the_output(self):
        x = np.random.default_rng(6).normal(size=5000)
        spec = WindowSpec(G, 15)
        frames, _ = frame_matrix(x, spec, hop=1)
        peak = traced_peak(lambda: frame_matrix(x, spec, hop=1))
        assert peak <= 1.25 * frames.nbytes


class TestSpectrum:
    def test_peak_is_zero_db_at_bin_zero(self):
        for shape in (R, T, G):
            s = window_spectrum(make_window(WindowSpec(shape, 10)))
            assert s[0] == 0.0
            assert s.max() == 0.0

    def test_rectangular_first_null_position(self):
        L = 20
        s = window_spectrum(make_window(WindowSpec(R, L // 2)))
        width = mainlobe_width(s)
        assert width == pytest.approx(2 / (L + 1), abs=1 / MIN_NFFT)

    @pytest.mark.parametrize("size, bins", [(1, 2049), (512, 2049),
                                            (513, 2053), (1001, 4005)])
    def test_dft_size_is_eight_points_per_window_point(self, size, bins):
        # nfft = max(MIN_NFFT, 8 * size): a window of up to 512 points keeps
        # 4096, and the spectrum holds bins 0 .. nfft/2.
        assert window_spectrum(np.ones(size)).size == bins

    def test_triangular_zero_phase_transform_nonnegative(self):
        # Zero-phase DFT: rotate the symmetric window so its center sits at
        # index 0; the transform is then real and must be >= -1e-9.
        for L in (14, 20, 30, 50):
            w = make_window(WindowSpec(T, L // 2))
            half = L // 2
            buf = np.zeros(4096)
            buf[:half + 1] = w[half:]
            buf[-half:] = w[:half]
            assert np.fft.rfft(buf).real.min() >= -1e-9

    def test_dirichlet_squared_identity(self):
        # Self-convolving a length-L/2 rectangle gives the triangle interior.
        for L in (12, 20, 40):
            tri = make_window(WindowSpec(T, L // 2))
            conv = np.convolve(np.ones(L // 2), np.ones(L // 2))
            conv /= conv.max()
            assert np.abs(conv - tri[1:-1]).max() < 1e-12


class TestSidelobes:
    def test_rectangular_level(self):
        # Dense-grid measurement of the sinc side lobe; the classic value.
        level = peak_sidelobe_db(window_spectrum(make_window(WindowSpec(R, 10))))
        assert level == pytest.approx(-13.195, abs=0.01)
        ratio = 10 ** (level / 20)
        assert ratio == pytest.approx(1 / 5, abs=0.03)  # about one-fifth

    def test_triangular_is_double_in_db(self):
        # Triangle(L) spectrum is the squared spectrum of a length-L/2
        # rectangle, so its side-lobe level doubles in dB.
        for L in (20, 40):
            tri_level = peak_sidelobe_db(
                window_spectrum(make_window(WindowSpec(T, L // 2))))
            rect_level = peak_sidelobe_db(window_spectrum(np.ones(L // 2)))
            assert tri_level == pytest.approx(2 * rect_level, abs=0.05)

    def test_triangular_l20_value(self):
        level = peak_sidelobe_db(window_spectrum(make_window(WindowSpec(T, 10))))
        assert level == pytest.approx(-25.93, abs=0.05)

    def test_gaussian_alpha_ordering(self):
        levels = []
        for alpha in (2.5, 3.0, 3.5):
            s = window_spectrum(make_window(WindowSpec(G, 10, alpha=alpha)))
            levels.append(peak_sidelobe_db(s))
        assert levels[0] > levels[1] > levels[2]

    def test_no_sidelobe_for_very_wide_gaussian(self):
        s = window_spectrum(make_window(WindowSpec(G, 10, alpha=50.0)))
        assert peak_sidelobe_db(s) is None


class TestMainlobeWidth:
    def test_rectangular_value(self):
        for L in (20, 50):
            s = window_spectrum(make_window(WindowSpec(R, L // 2)))
            assert mainlobe_width(s) == pytest.approx(2 / (L + 1), abs=1 / MIN_NFFT)

    def test_triangular_vs_rectangular(self):
        # The doubling identity is asymptotic in L; at L=20 the exact ratio
        # is 2.1 because the L+1-point rectangle nulls at 1/(L+1), not 1/L.
        st = window_spectrum(make_window(WindowSpec(T, 10)))
        sr = window_spectrum(make_window(WindowSpec(R, 10)))
        ratio = mainlobe_width(st) / mainlobe_width(sr)
        assert ratio == pytest.approx(2.1, abs=0.02)
        for L in (100, 128):
            st = window_spectrum(make_window(WindowSpec(T, L // 2)))
            sr = window_spectrum(make_window(WindowSpec(R, L // 2)))
            assert abs(mainlobe_width(st) / 2 - mainlobe_width(sr)) <= 1 / 4096

    def test_gaussian_width_grows_with_alpha(self):
        widths = []
        for alpha in (2.5, 3.0, 3.5):
            s = window_spectrum(make_window(WindowSpec(G, 10, alpha=alpha)))
            widths.append(mainlobe_width(s))
        assert widths[0] < widths[1] < widths[2]
