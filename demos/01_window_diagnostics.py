"""
Window shapes and their spectral trade-offs
===========================================

Builds the three sliding windows at a few lengths and prints the two
numbers that matter for short-time feature extraction: main-lobe width
(frequency resolution) and peak side-lobe level (spectral leakage).
"""

import numpy as np

from pcgkit.windows import (WindowShape, WindowSpec, mainlobe_width,
                            make_window, peak_sidelobe_db, window_spectrum)

# The three shapes at a common length: note how the taper buys side-lobe
# suppression at the cost of a wider main lobe.
print(f"{'shape':<12} {'L':>4} {'alpha':>6} {'mainlobe':>10} {'sidelobe dB':>12}")
for shape in WindowShape:
    for nominal in (15, 30, 50):
        spec = WindowSpec.from_nominal_length(shape, nominal)
        spectrum = window_spectrum(make_window(spec))
        width = mainlobe_width(spectrum)
        peak = peak_sidelobe_db(spectrum)
        lobe = "      none" if peak is None else f"{peak:10.2f}"
        alpha = f"{spec.alpha:.1f}" if shape is WindowShape.GAUSSIAN else "  -"
        print(f"{shape.value:<12} {spec.L:>4} {alpha:>6} {width:>10.5f} {lobe:>12}")

# The Gaussian width parameter trades the same way: larger alpha narrows
# the window in time, widening the main lobe and sinking the side lobes.
print("\nGaussian side-lobe level vs alpha (L = 20):")
for alpha in (2.5, 3.0, 3.5):
    spec = WindowSpec(WindowShape.GAUSSIAN, 10, alpha=alpha)
    level = peak_sidelobe_db(window_spectrum(make_window(spec)))
    print(f"  alpha {alpha}: {level:7.2f} dB")

# The rectangular window's first side lobe sits near one-fifth of the main
# lobe (about -13.3 dB), which is what makes it the leakiest choice.
spec = WindowSpec(WindowShape.RECTANGULAR, 10)
level = peak_sidelobe_db(window_spectrum(make_window(spec)))
print(f"\nrectangular L=20 first side lobe: {level:.2f} dB "
      f"(amplitude ratio {10 ** (level / 20):.3f})")

# The triangular window is the self-convolution of a half-length rectangle,
# so its spectrum is the squared rectangle spectrum: double the dB.
tri = make_window(WindowSpec(WindowShape.TRIANGULAR, 10))
conv = np.convolve(np.ones(10), np.ones(10))
print("triangle equals normalized rect*rect convolution:",
      bool(np.abs(conv / conv.max() - tri[1:-1]).max() < 1e-12))
