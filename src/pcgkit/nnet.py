"""Two-layer bidirectional LSTM classifier, trained from scratch.

The network stacks two bidirectional LSTM layers over a feature sequence;
the classifier head sees the concatenation of layer 2's forward final
state and backward final state and produces class probabilities through a
softmax.  Gradients come from exact backpropagation through time, and the
optimizer is stochastic gradient descent with momentum:

    v <- momentum * v + g
    theta <- theta - learning_rate * v

Everything is plain numpy in double precision, deterministic in the seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import EmptySequence, SingleClassDataset
from .features import FeatureSequence
from .ingest import Label

NUM_CLASSES = 2
CLASS_INDEX = {Label.HEALTHY: 0, Label.PATHOLOGICAL: 1}
# Gate order inside the stacked 4H dimension: input, forget, candidate, output.


@dataclass
class LstmDirectionParams:
    """Weights for one direction of one layer."""

    input_weights: np.ndarray      # (4H, D_in)
    recurrent_weights: np.ndarray  # (4H, H)
    bias: np.ndarray               # (4H,)


@dataclass
class BiLayer:
    forward: LstmDirectionParams
    backward: LstmDirectionParams


@dataclass
class BiLSTMModel:
    layers: list[BiLayer]      # exactly 2
    head_weights: np.ndarray   # (2, 2H)
    head_bias: np.ndarray      # (2,)
    hidden_size: int
    input_size: int


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.90
    epochs: int = 500
    batch_size: int = 16
    seed: int = 0
    clip_norm: float | None = None
    momentum_ramp: bool = False  # ramp 0.5 -> momentum over the first 10% of epochs

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not (0 <= self.momentum < 1):
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(
                f"clip_norm must be > 0 or None, got {self.clip_norm}")


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parameter bookkeeping
# ---------------------------------------------------------------------------

def param_blocks(model: BiLSTMModel) -> list[tuple[str, np.ndarray]]:
    """All trainable arrays with stable names, in a fixed order."""
    blocks = []
    for li, layer in enumerate(model.layers, start=1):
        for dname, d in (("fw", layer.forward), ("bw", layer.backward)):
            blocks.append((f"layer{li}.{dname}.input_weights", d.input_weights))
            blocks.append((f"layer{li}.{dname}.recurrent_weights", d.recurrent_weights))
            blocks.append((f"layer{li}.{dname}.bias", d.bias))
    blocks.append(("head.weights", model.head_weights))
    blocks.append(("head.bias", model.head_bias))
    return blocks


def zeros_like_model(model: BiLSTMModel) -> BiLSTMModel:
    """A model-shaped container of zeros (for gradients and velocity)."""
    def z(d: LstmDirectionParams) -> LstmDirectionParams:
        return LstmDirectionParams(
            input_weights=np.zeros_like(d.input_weights),
            recurrent_weights=np.zeros_like(d.recurrent_weights),
            bias=np.zeros_like(d.bias),
        )

    return BiLSTMModel(
        layers=[BiLayer(forward=z(l.forward), backward=z(l.backward))
                for l in model.layers],
        head_weights=np.zeros_like(model.head_weights),
        head_bias=np.zeros_like(model.head_bias),
        hidden_size=model.hidden_size,
        input_size=model.input_size,
    )


def init_model(hidden: int, seed: int, input_size: int = 10) -> BiLSTMModel:
    """Glorot-uniform weights, zero biases except forget-gate bias = 1."""
    if hidden < 1:
        raise ValueError("hidden size must be >= 1")
    rng = np.random.default_rng(seed)

    def glorot(shape):
        s = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-s, s, size=shape)

    def direction(d_in: int) -> LstmDirectionParams:
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0
        return LstmDirectionParams(
            input_weights=glorot((4 * hidden, d_in)),
            recurrent_weights=glorot((4 * hidden, hidden)),
            bias=b,
        )

    layers = []
    for d_in in (input_size, 2 * hidden):
        layers.append(BiLayer(forward=direction(d_in), backward=direction(d_in)))
    return BiLSTMModel(
        layers=layers,
        head_weights=glorot((NUM_CLASSES, 2 * hidden)),
        head_bias=np.zeros(NUM_CLASSES),
        hidden_size=hidden,
        input_size=input_size,
    )


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _run_direction(p: LstmDirectionParams, X: np.ndarray,
                   reverse: bool) -> tuple[np.ndarray, dict]:
    """Run one direction over a (B, T, D_in) batch; cache all activations."""
    B, T, _ = X.shape
    H = p.recurrent_weights.shape[1]
    XW = X @ p.input_weights.T  # (B, T, 4H), one matmul for all steps

    Hs = np.zeros((B, T, H))
    Cs = np.zeros((B, T, H))
    I = np.zeros((B, T, H))
    F = np.zeros((B, T, H))
    G = np.zeros((B, T, H))
    O = np.zeros((B, T, H))
    TC = np.zeros((B, T, H))

    order = range(T - 1, -1, -1) if reverse else range(T)
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    for t in order:
        z = XW[:, t] + h @ p.recurrent_weights.T + p.bias
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = _sigmoid(z[:, 3 * H:])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        I[:, t], F[:, t], G[:, t], O[:, t] = i, f, g, o
        Cs[:, t], TC[:, t], Hs[:, t] = c, tc, h

    cache = {"X": X, "Hs": Hs, "Cs": Cs, "I": I, "F": F, "G": G, "O": O,
             "TC": TC, "reverse": reverse}
    return Hs, cache


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(model: BiLSTMModel, X: np.ndarray) -> tuple[np.ndarray, dict]:
    """Probabilities (B, 2) and the full cache for a (B, T, D) batch."""
    if X.ndim != 3 or X.shape[1] < 1:
        raise EmptySequence("input batch must be (B, T>=1, D)")
    H = model.hidden_size

    l1, l2 = model.layers
    Hf1, cf1 = _run_direction(l1.forward, X, reverse=False)
    Hb1, cb1 = _run_direction(l1.backward, X, reverse=True)
    U = np.concatenate([Hf1, Hb1], axis=2)

    Hf2, cf2 = _run_direction(l2.forward, U, reverse=False)
    Hb2, cb2 = _run_direction(l2.backward, U, reverse=True)
    # Final state of each direction: forward ends at t = T-1, backward at t = 0.
    feat = np.concatenate([Hf2[:, -1], Hb2[:, 0]], axis=1)  # (B, 2H)

    logits = feat @ model.head_weights.T + model.head_bias
    probs = _softmax(logits)
    cache = {"cf1": cf1, "cb1": cb1, "cf2": cf2, "cb2": cb2,
             "feat": feat, "probs": probs, "H": H}
    return probs, cache


def forward(model: BiLSTMModel, seq: FeatureSequence) -> tuple[np.ndarray, dict]:
    """Class probabilities for one (preferably normalized) feature sequence."""
    values = np.asarray(seq.values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1:
        raise EmptySequence(f"sequence {seq.signal_id!r} has no frames")
    probs, cache = _forward_batch(model, values[None, :, :])
    return probs[0], cache


def loss(probabilities: np.ndarray, label: int) -> float:
    """Cross-entropy of the true class: -log p[label]."""
    return float(-np.log(probabilities[..., label]))


def predict(model: BiLSTMModel, seq: FeatureSequence) -> int:
    """Most probable class index; exact ties resolve to class 0 (healthy)."""
    probs, _ = forward(model, seq)
    return int(np.argmax(probs))


# ---------------------------------------------------------------------------
# Backward pass (BPTT)
# ---------------------------------------------------------------------------

def _direction_backward(p: LstmDirectionParams, cache: dict,
                        dH: np.ndarray) -> tuple[np.ndarray, LstmDirectionParams]:
    """Backprop one direction; dH holds output gradients at every step."""
    X, Hs, Cs = cache["X"], cache["Hs"], cache["Cs"]
    I, F, G, O, TC = cache["I"], cache["F"], cache["G"], cache["O"], cache["TC"]
    reverse = cache["reverse"]
    B, T, H = Hs.shape

    # States seen as "previous" by step t, zeros at the direction's start.
    Hprev = np.zeros_like(Hs)
    Cprev = np.zeros_like(Cs)
    if reverse:
        Hprev[:, :-1] = Hs[:, 1:]
        Cprev[:, :-1] = Cs[:, 1:]
        order = range(T)  # unwind opposite to the T-1..0 processing order
    else:
        Hprev[:, 1:] = Hs[:, :-1]
        Cprev[:, 1:] = Cs[:, :-1]
        order = range(T - 1, -1, -1)

    dZ = np.zeros((B, T, 4 * H))
    dh_carry = np.zeros((B, H))
    dc_carry = np.zeros((B, H))
    for t in order:
        dh = dH[:, t] + dh_carry
        i, f, g, o, tc = I[:, t], F[:, t], G[:, t], O[:, t], TC[:, t]
        do = dh * tc
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * Cprev[:, t]
        dc_carry = dc * f
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f),
             dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        dZ[:, t] = dz
        dh_carry = dz @ p.recurrent_weights

    flat_dZ = dZ.reshape(B * T, 4 * H)
    grads = LstmDirectionParams(
        input_weights=flat_dZ.T @ X.reshape(B * T, -1),
        recurrent_weights=flat_dZ.T @ Hprev.reshape(B * T, H),
        bias=dZ.sum(axis=(0, 1)),
    )
    dX = dZ @ p.input_weights
    return dX, grads


def _backward_batch(model: BiLSTMModel, cache: dict,
                    labels: np.ndarray) -> BiLSTMModel:
    """Gradients of the mean cross-entropy over the batch."""
    probs, feat = cache["probs"], cache["feat"]
    B = probs.shape[0]
    H = cache["H"]
    T = cache["cf2"]["Hs"].shape[1]

    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    grads = zeros_like_model(model)
    grads.head_weights[...] = dlogits.T @ feat
    grads.head_bias[...] = dlogits.sum(axis=0)

    dfeat = dlogits @ model.head_weights
    dHf2 = np.zeros((B, T, H))
    dHb2 = np.zeros((B, T, H))
    dHf2[:, -1] = dfeat[:, :H]
    dHb2[:, 0] = dfeat[:, H:]

    l1, l2 = model.layers
    g1, g2 = grads.layers
    dU_f, gf2 = _direction_backward(l2.forward, cache["cf2"], dHf2)
    dU_b, gb2 = _direction_backward(l2.backward, cache["cb2"], dHb2)
    dU = dU_f + dU_b

    _, gf1 = _direction_backward(l1.forward, cache["cf1"], dU[:, :, :H])
    _, gb1 = _direction_backward(l1.backward, cache["cb1"], dU[:, :, H:])

    for dst, src in ((g1.forward, gf1), (g1.backward, gb1),
                     (g2.forward, gf2), (g2.backward, gb2)):
        dst.input_weights[...] = src.input_weights
        dst.recurrent_weights[...] = src.recurrent_weights
        dst.bias[...] = src.bias
    return grads


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def global_grad_norm(grads: BiLSTMModel) -> float:
    total = 0.0
    for _, g in param_blocks(grads):
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def sgdm_step(model: BiLSTMModel, grads: BiLSTMModel, velocity: BiLSTMModel,
              config: TrainConfig) -> tuple[BiLSTMModel, BiLSTMModel]:
    """v <- momentum*v + g; theta <- theta - lr*v.  Updates in place."""
    scale = 1.0
    if config.clip_norm is not None:
        norm = global_grad_norm(grads)
        if norm > config.clip_norm:
            scale = config.clip_norm / norm
    for (_, theta), (_, g), (_, v) in zip(
            param_blocks(model), param_blocks(grads), param_blocks(velocity)):
        v *= config.momentum
        v += scale * g
        theta -= config.learning_rate * v
    return model, velocity


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def _label_indices(dataset: list[FeatureSequence]) -> np.ndarray:
    labels = []
    for seq in dataset:
        if seq.label not in CLASS_INDEX:
            raise SingleClassDataset(
                f"sequence {seq.signal_id!r} is unlabeled")
        labels.append(CLASS_INDEX[seq.label])
    arr = np.array(labels)
    if len(set(arr.tolist())) < 2:
        raise SingleClassDataset("training data must contain both classes")
    return arr


def train(dataset: list[FeatureSequence], hidden: int,
          config: TrainConfig) -> tuple[BiLSTMModel, TrainHistory]:
    """Train a fresh model; fully deterministic in (dataset order, seed)."""
    if len(dataset) < 2:
        raise SingleClassDataset("need at least 2 examples")
    labels = _label_indices(dataset)
    values = [np.asarray(s.values, dtype=np.float64) for s in dataset]

    model = init_model(hidden, seed=config.seed, input_size=values[0].shape[1])
    velocity = zeros_like_model(model)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    ramp_epochs = max(1, config.epochs // 10)

    history = TrainHistory()
    n = len(dataset)
    for epoch in range(config.epochs):
        momentum = config.momentum
        if config.momentum_ramp:
            frac = min(1.0, epoch / ramp_epochs)
            momentum = 0.5 + frac * (config.momentum - 0.5)
        epoch_config = replace(config, momentum=momentum)

        perm = shuffle_rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            total_loss_b, correct_b = _train_batch(
                model, velocity, [values[j] for j in idx], labels[idx],
                epoch_config)
            total_loss += total_loss_b
            correct += correct_b
        history.losses.append(total_loss / n)
        history.accuracies.append(correct / n)
    return model, history


def _train_batch(model, velocity, batch_values, batch_labels, config):
    """One optimizer step on a mini-batch; returns (summed loss, # correct)."""
    # Sequences of equal length run as one stacked batch; mixed lengths are
    # grouped so the gradient still averages over the whole mini-batch.
    B = len(batch_values)
    lengths = np.array([v.shape[0] for v in batch_values])
    grads = zeros_like_model(model)
    total_loss = 0.0
    correct = 0
    for T in np.unique(lengths):
        sel = np.nonzero(lengths == T)[0]
        X = np.stack([batch_values[j] for j in sel])
        y = batch_labels[sel]
        probs, cache = _forward_batch(model, X)
        total_loss += float(-np.log(probs[np.arange(sel.size), y]).sum())
        correct += int((probs.argmax(axis=1) == y).sum())
        group = _backward_batch(model, cache, y)
        weight = sel.size / B
        for (_, dst), (_, src) in zip(param_blocks(grads), param_blocks(group)):
            dst += weight * src
    sgdm_step(model, grads, velocity, config)
    return total_loss, correct


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"HWM1"


def save_model(model: BiLSTMModel, path: str | Path,
               config: TrainConfig | None = None) -> None:
    """Binary model file: magic, length-prefixed JSON descriptor, then all
    parameter matrices row-major as little-endian float64 in block order."""
    blocks = param_blocks(model)
    descriptor = {
        "input_size": model.input_size,
        "hidden_size": model.hidden_size,
        "num_layers": len(model.layers),
        "blocks": [[name, list(arr.shape)] for name, arr in blocks],
        "dtype": "<f8",
    }
    if config is not None:
        descriptor["train_config"] = asdict(config)
    header = json.dumps(descriptor).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path: str | Path) -> BiLSTMModel:
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    (hlen,) = struct.unpack_from("<I", raw, 4)
    descriptor = json.loads(raw[8:8 + hlen].decode("utf-8"))
    model = init_model(descriptor["hidden_size"], seed=0,
                       input_size=descriptor["input_size"])
    offset = 8 + hlen
    by_name = dict(param_blocks(model))
    for name, shape in descriptor["blocks"]:
        count = int(np.prod(shape))
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        by_name[name][...] = arr.reshape(shape)
        offset += count * 8
    return model
