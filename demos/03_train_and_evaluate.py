"""
Training the bidirectional LSTM on a synthetic corpus
=====================================================

Desk-scale version of the full experiment: 20 + 20 synthetic records,
Gaussian window, one stratified 70/30 split, 60 epochs of SGD with
momentum, then sensitivity / specificity / accuracy on the held-out side.
"""

from pcgkit.evaluate import extract_dataset, score, split
from pcgkit.ingest import preprocess
from pcgkit.nnet import TrainConfig, train
from pcgkit.synth import SynthConfig, generate_dataset
from pcgkit.windows import WindowShape, WindowSpec

records = [preprocess(r) for r in
           generate_dataset(20, 20, base_seed=7,
                            config=SynthConfig(murmur_gain=0.3))]
spec = WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 30)
dataset = extract_dataset(records, spec, hop=25)
print(f"dataset: {len(dataset)} sequences of shape "
      f"{dataset[0].values.shape}")

train_set, test_set = split(dataset, seed=1)
print(f"split: {len(train_set)} train / {len(test_set)} test (stratified)")

config = TrainConfig(epochs=60)
model, history = train(train_set, hidden=30, config=config, seed=1)
print(f"loss: {history.losses[0]:.4f} -> {history.losses[-1]:.4f}; "
      f"train accuracy {history.accuracies[-1]:.2%}")

m = score(model, test_set).metrics
print(f"test sensitivity {m.sensitivity:.1f}%  "
      f"specificity {m.specificity:.1f}%  accuracy {m.accuracy:.1f}%")

# Same seed, same data: training is fully deterministic.
model2, history2 = train(train_set, hidden=30, config=config, seed=1)
print("deterministic retrain:", history2.losses == history.losses)
