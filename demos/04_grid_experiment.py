"""
The shape x length x hidden-size experiment grid
================================================

Runs a scaled-down version of the full comparison: every window shape at
two lengths, two hidden sizes, two repeated random splits per cell.
Writes results.csv / summary.csv / figure5.csv into ./grid_demo_output.

With only 20 records each cell is scored on 6 held-out examples, so the
percentages move in coarse 16.7-point steps and bounce between cells;
the full-size protocol (lengths 15/30/50, hidden 5/30/50/100, 30 trials,
hop 1, 500 epochs) is the same call with bigger axes, or the CLI:

    pcgkit grid --corpus <dir> --out-dir <dir> --trials 30
"""

from pcgkit.evaluate import emit_results, run_grid
from pcgkit.ingest import preprocess
from pcgkit.nnet import TrainConfig
from pcgkit.synth import SynthConfig, generate_dataset
from pcgkit.windows import WindowShape

records = [preprocess(r) for r in
           generate_dataset(10, 10, base_seed=3,
                            config=SynthConfig(murmur_gain=0.3))]

cells = run_grid(
    records,
    shapes=[WindowShape.RECTANGULAR, WindowShape.TRIANGULAR,
            WindowShape.GAUSSIAN],
    lengths=[15, 30],
    hidden_sizes=[5, 30],
    trials=2,
    base_seed=3,
    hop=100,
    train_config=TrainConfig(epochs=40, batch_size=4),
)

print(f"{'shape':<12} {'len':>4} {'hidden':>6} {'sens':>7} {'spec':>7} {'accu':>7}")
for cell in cells:
    print(f"{cell.spec.shape.value:<12} {cell.length_label:>4} {cell.hidden:>6} "
          f"{cell.mean.sensitivity:>7.1f} {cell.mean.specificity:>7.1f} "
          f"{cell.mean.accuracy:>7.1f}")

paths = emit_results(cells, "grid_demo_output")
for name, path in paths.items():
    print(f"wrote {name}: {path}")
