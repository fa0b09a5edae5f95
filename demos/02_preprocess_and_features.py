"""
From raw recording to normalized feature sequence
==================================================

Generates one synthetic heart-sound record, preprocesses it (250 Hz
low-pass, resampling to 500 Hz, length fixed to 5000 samples), frames it
with a Gaussian window, and extracts the ten per-frame statistics.
"""

import numpy as np

from pcgkit.features import FEATURE_NAMES, extract_sequence, normalize_sequence
from pcgkit.ingest import Label, preprocess
from pcgkit.synth import SynthConfig, generate
from pcgkit.windows import WindowShape, WindowSpec, frame_matrix

record = generate(SynthConfig(), Label.PATHOLOGICAL, seed=42)
print(f"raw record: {record.samples.size} samples at {record.sample_rate_hz} Hz "
      f"({record.duration_s:.1f} s)")

clean = preprocess(record)
print(f"preprocessed: {clean.samples.size} samples at {clean.sample_rate_hz} Hz")

# Frame with a 31-point Gaussian window, hopping 25 samples (50 ms).
spec = WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 30)
frames, centers = frame_matrix(clean.samples, spec, hop=25)
print(f"frames: {frames.shape[0]} x {frames.shape[1]} "
      f"(centers {centers[0]}..{centers[-1]})")

seq = extract_sequence(frames, signal_id=clean.id, label=clean.label,
                       window=spec, hop=25)
print("\nraw feature ranges:")
for name, col in zip(FEATURE_NAMES, seq.values.T):
    print(f"  {name:<16} [{col.min():9.4f}, {col.max():9.4f}]")

# Z-score each column; this is the classifier's actual input.
normalized = normalize_sequence(seq)
means = normalized.values.mean(axis=0)
stds = normalized.values.std(axis=0)
print(f"\nafter normalization: |mean| <= {np.abs(means).max():.2e}, "
      f"std in [{stds.min():.6f}, {stds.max():.6f}]")

# The murmur sits in the systolic gaps, so the variance trace pulses at the
# heart rate; peek at a few frames around one second.
var_col = normalized.values[:, FEATURE_NAMES.index("variance")]
window = var_col[15:25]
print("normalized variance, frames 15..24:",
      np.array2string(window, precision=2))
