"""Two-layer bidirectional LSTM classifier, trained from scratch.

The network stacks two bidirectional LSTM layers over a feature sequence;
the classifier head sees the concatenation of layer 2's forward final
state and backward final state and produces class probabilities through a
softmax.  Gradients come from exact backpropagation through time, and the
optimizer is stochastic gradient descent with momentum:

    v <- momentum * v + g
    theta <- theta - learning_rate * v

Each layer runs both directions in one Python time loop: step s is time s
forward and time T-1-s backward, so the state is (2, B, H) and the
recurrent step is one batched matmul with stacked (2, H, 4H) weights.  The
input projection is one matmul per direction into a (2, T, B, 4H) gate
buffer in step order, which the loop turns into activations in place and
BPTT into pre-activation gradients.  One tanh gives all four gates, since
sigma(x) = 0.5*tanh(x/2) + 0.5.

A model, its gradients and its velocity each own one float64 vector,
theta, laid out by `param_layout`; every weight matrix and bias is a view
of it, so an optimizer step is one vector operation.  A model file's body
is theta's bytes: load_model checks the descriptor against the layout and
the body for exactly 8 bytes per parameter.

Everything is plain numpy in double precision, deterministic in the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (CorruptModel, EmptySequence, NonFiniteLoss,
                     SingleClassDataset)
from .features import FeatureSequence
from .ingest import Label

NUM_CLASSES = 2
CLASS_INDEX = {Label.HEALTHY: 0, Label.PATHOLOGICAL: 1}
# Gate order inside the stacked 4H dimension: input, forget, candidate, output.


def param_layout(hidden_size: int, input_size: int) -> list[tuple[str, tuple]]:
    """(name, shape) of every parameter block, in theta order: the model's
    views, init_model and the model-file descriptor all follow it."""
    H = hidden_size
    layout = []
    for li, d_in in ((1, input_size), (2, 2 * H)):
        for dname in ("fw", "bw"):
            layout += [(f"layer{li}.{dname}.input_weights", (4 * H, d_in)),
                       (f"layer{li}.{dname}.recurrent_weights", (4 * H, H)),
                       (f"layer{li}.{dname}.bias", (4 * H,))]
    return layout + [("head.weights", (NUM_CLASSES, 2 * H)),
                     ("head.bias", (NUM_CLASSES,))]


@dataclass
class LstmDirectionParams:
    """Weights for one direction of one layer (views of a model's theta)."""

    input_weights: np.ndarray      # (4H, D_in)
    recurrent_weights: np.ndarray  # (4H, H)
    bias: np.ndarray               # (4H,)


@dataclass
class BiLayer:
    forward: LstmDirectionParams
    backward: LstmDirectionParams


class BiLSTMModel:
    """All parameters in one float64 vector, `theta` (zeros by default);
    `layers`, `head_weights`, `head_bias` and param_blocks are views of it."""

    def __init__(self, hidden_size: int, input_size: int,
                 theta: np.ndarray | None = None):
        self.hidden_size, self.input_size = hidden_size, input_size
        layout = param_layout(hidden_size, input_size)
        cuts = [0, *itertools.accumulate(math.prod(s) for _, s in layout)]
        self.theta = np.zeros(cuts[-1]) if theta is None else theta
        self._blocks = [(name, self.theta[a:b].reshape(shape))
                        for (name, shape), a, b in zip(layout, cuts, cuts[1:])]
        v = [block for _, block in self._blocks]
        d = [LstmDirectionParams(*v[k:k + 3]) for k in range(0, 12, 3)]
        self.layers = [BiLayer(d[0], d[1]), BiLayer(d[2], d[3])]
        self.head_weights, self.head_bias = v[12:]


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
        if not self.learning_rate >= 0:  # NaN fails this too
            raise ValueError(
                f"learning_rate must be >= 0, got {self.learning_rate}")
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
    """Every block of `model.theta` as (name, view), in layout order."""
    return list(model._blocks)


def zeros_like_model(model: BiLSTMModel) -> BiLSTMModel:
    """A model-shaped container of zeros (for gradients and velocity)."""
    return BiLSTMModel(model.hidden_size, model.input_size)


def init_model(hidden: int, seed: int, input_size: int = 10) -> BiLSTMModel:
    """Glorot-uniform weights, zero biases except forget-gate bias = 1."""
    if hidden < 1:
        raise ValueError("hidden size must be >= 1")
    rng = np.random.default_rng(seed)
    model = BiLSTMModel(hidden, input_size)
    for name, block in param_blocks(model):
        if block.ndim == 2:
            s = np.sqrt(6.0 / (block.shape[0] + block.shape[1]))
            block[...] = rng.uniform(-s, s, size=block.shape)
        elif name != "head.bias":
            block[hidden:2 * hidden] = 1.0
    return model


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _gate_scale(H: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column scale and offset: gates = scale*tanh(scale*z) + offset.

    That is sigma(z) = 0.5*tanh(z/2) + 0.5 on the sigmoid columns and tanh
    on the candidate's; halving is exact.
    """
    scale = np.full(4 * H, 0.5)
    scale[2 * H:3 * H] = 1.0
    return scale, 1.0 - scale


def _layer_forward(layer: BiLayer, U: np.ndarray) -> dict:
    """Both directions of one layer over a time-major (T, B, D) input.

    Step s runs time s of the forward direction and time T-1-s of the
    backward one, so the state is (2, B, H) and every buffer is
    (2, T, B, ...) in step order.  Z holds the gate activations; C and Hs
    hold the cell and hidden states, with the zero initial state at index 0.
    """
    T, B, _ = U.shape
    H = layer.forward.recurrent_weights.shape[1]
    scale, offset = _gate_scale(H)
    directions = (layer.forward, layer.backward)
    Z = np.empty((2, T, B, 4 * H))
    for d, (p, X) in enumerate(zip(directions, (U, U[::-1]))):
        np.matmul(X, (p.input_weights * scale[:, None]).T, out=Z[d])
        Z[d] += p.bias * scale
    W = np.stack([(p.recurrent_weights * scale[:, None]).T for p in directions])
    C = np.zeros((2, T + 1, B, H))
    Hs = np.zeros((2, T + 1, B, H))
    for s in range(T):
        z = Z[:, s]
        z += np.matmul(Hs[:, s], W)
        np.tanh(z, out=z)
        z *= scale
        z += offset
        c, h = C[:, s + 1], Hs[:, s + 1]
        np.multiply(z[..., :H], z[..., 2 * H:3 * H], out=c)
        c += z[..., H:2 * H] * C[:, s]
        np.tanh(c, out=h)
        h *= z[..., 3 * H:]
    return {"U": U, "Z": Z, "C": C, "Hs": Hs}


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(model: BiLSTMModel, X: np.ndarray) -> tuple[np.ndarray, dict]:
    """Probabilities (B, 2) and the full cache for a (B, T, D) batch."""
    if X.ndim != 3 or X.shape[1] < 1:
        raise EmptySequence("input batch must be (B, T>=1, D)")

    l1, l2 = model.layers
    c1 = _layer_forward(l1, X.transpose(1, 0, 2))
    Hs1 = c1["Hs"][:, 1:]
    # Layer 2 sees [forward h_t, backward h_t] at each time t.
    c2 = _layer_forward(l2, np.concatenate([Hs1[0], Hs1[1, ::-1]], axis=2))
    # Forward ends at t = T-1 and backward at t = 0: both on the last step.
    feat = np.concatenate(c2["Hs"][:, -1], axis=1)  # (B, 2H)

    logits = feat @ model.head_weights.T + model.head_bias
    probs = _softmax(logits)
    cache = {"layers": (c1, c2), "feat": feat, "probs": probs}
    return probs, cache


def forward(model: BiLSTMModel, seq: FeatureSequence) -> tuple[np.ndarray, dict]:
    """Class probabilities for one (preferably normalized) feature sequence."""
    values = np.asarray(seq.values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1:
        raise EmptySequence(f"sequence {seq.signal_id!r} has no frames")
    probs, cache = _forward_batch(model, values[None, :, :])
    return probs[0], cache


def predict(model: BiLSTMModel, seq: FeatureSequence) -> int:
    """Most probable class index; exact ties resolve to class 0 (healthy)."""
    probs, _ = forward(model, seq)
    return int(np.argmax(probs))


# ---------------------------------------------------------------------------
# Backward pass (BPTT)
# ---------------------------------------------------------------------------

def _layer_backward(layer: BiLayer, cache: dict, dHs: np.ndarray,
                    grads: BiLayer) -> None:
    """BPTT through both directions of one layer, in reverse step order.

    dHs holds the (2, T, B, H) output gradients in step order.  The gate
    buffer cache["Z"] is overwritten with the pre-activation gradients dZ,
    and the weight gradients are written into `grads`.
    """
    U, Z, C, Hs = cache["U"], cache["Z"], cache["C"], cache["Hs"]
    T, B, _ = U.shape
    H = C.shape[-1]
    scale, offset = _gate_scale(H)
    # (1 - a)(a + lo) is a(1 - a) on the sigmoid columns, 1 - a^2 on tanh's.
    lo = scale - offset
    W = np.stack([layer.forward.recurrent_weights,
                  layer.backward.recurrent_weights])  # (2, 4H, H)
    dh_carry = np.zeros((2, B, H))
    dc_carry = np.zeros((2, B, H))
    for s in range(T - 1, -1, -1):
        z = Z[:, s]
        i, f, g, o = (z[..., k * H:(k + 1) * H] for k in range(4))
        dh = dHs[:, s] + dh_carry
        tc = np.tanh(C[:, s + 1])
        dc = dh * o
        dc *= 1.0 - tc * tc
        dc += dc_carry
        slope = 1.0 - z
        slope *= z + lo
        # Gate slots turn into dZ; each is read before it is overwritten.
        dc_carry = dc * f
        di = dc * g
        np.multiply(dc, i, out=g)
        np.multiply(dc, C[:, s], out=f)
        np.multiply(dh, tc, out=o)
        i[...] = di
        z *= slope
        dh_carry = np.matmul(z, W)

    for d, (grad, X) in enumerate(zip((grads.forward, grads.backward),
                                      (U, U[::-1]))):
        dZ = Z[d].reshape(T * B, 4 * H)
        grad.input_weights[...] = dZ.T @ X.reshape(T * B, -1)
        grad.recurrent_weights[...] = dZ.T @ Hs[d, :-1].reshape(T * B, H)
        grad.bias[...] = dZ.sum(axis=0)


def _backward_batch(model: BiLSTMModel, cache: dict,
                    labels: np.ndarray) -> BiLSTMModel:
    """Gradients of the mean cross-entropy over the batch; consumes the cache."""
    probs, feat = cache["probs"], cache["feat"]
    B = probs.shape[0]
    H = model.hidden_size
    c1, c2 = cache["layers"]
    T = c2["U"].shape[0]

    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    grads = zeros_like_model(model)
    grads.head_weights[...] = dlogits.T @ feat
    grads.head_bias[...] = dlogits.sum(axis=0)

    dfeat = dlogits @ model.head_weights
    dHs = np.zeros((2, T, B, H))
    dHs[:, -1] = dfeat.reshape(B, 2, H).transpose(1, 0, 2)

    l1, l2 = model.layers
    _layer_backward(l2, c2, dHs, grads.layers[1])
    dZ = c2["Z"]
    dU = dZ[0] @ l2.forward.input_weights  # (T, B, 2H), time order
    dU += (dZ[1] @ l2.backward.input_weights)[::-1]
    _layer_backward(l1, c1, np.stack([dU[..., :H], dU[::-1, :, H:]]),
                    grads.layers[0])
    return grads


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def global_grad_norm(grads: BiLSTMModel) -> float:
    return float(np.linalg.norm(grads.theta))


def sgdm_step(model: BiLSTMModel, grads: BiLSTMModel, velocity: BiLSTMModel,
              config: TrainConfig) -> tuple[BiLSTMModel, BiLSTMModel]:
    """v <- momentum*v + g; theta <- theta - lr*v.  Updates in place."""
    scale = 1.0
    if config.clip_norm is not None:
        norm = global_grad_norm(grads)
        if norm > config.clip_norm:
            scale = config.clip_norm / norm
    v = velocity.theta
    v *= config.momentum
    v += scale * grads.theta
    model.theta -= config.learning_rate * v
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
        grads.theta += sel.size / B * group.theta
    if not np.isfinite(total_loss):
        raise NonFiniteLoss(
            f"training loss is {total_loss}: the features hold NaN or Inf, "
            "or the learning rate is too high")
    sgdm_step(model, grads, velocity, config)
    return total_loss, correct


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"HWM1"


def _descriptor(hidden_size: int, input_size: int) -> dict:
    blocks = [[name, list(shape)]
              for name, shape in param_layout(hidden_size, input_size)]
    return {"input_size": input_size, "hidden_size": hidden_size,
            "num_layers": 2, "blocks": blocks, "dtype": "<f8"}


def save_model(model: BiLSTMModel, path: str | Path,
               config: TrainConfig | None = None) -> None:
    """Binary model file: magic, length-prefixed JSON descriptor, then
    `model.theta` as little-endian float64 (every block row-major, in
    layout order)."""
    descriptor = _descriptor(model.hidden_size, model.input_size)
    if config is not None:
        descriptor["train_config"] = asdict(config)
    header = json.dumps(descriptor).encode("utf-8")
    Path(path).write_bytes(MODEL_MAGIC + struct.pack("<I", len(header))
                           + header + model.theta.astype("<f8").tobytes())


def load_model(path: str | Path) -> BiLSTMModel:
    """Read a model file; anything but a file save_model could have written
    from finite parameters raises CorruptModel."""
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise CorruptModel(f"{path}: not a model file (bad magic)")
    hlen = int.from_bytes(raw[4:8], "little")
    if len(raw) < 8 or 8 + hlen > len(raw):
        raise CorruptModel(f"{path}: the header runs past the end of the "
                           f"{len(raw)}-byte file")
    try:
        descriptor = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or nesting
        raise CorruptModel(f"{path}: header is not JSON ({exc})") from None
    if not isinstance(descriptor, dict):
        raise CorruptModel(f"{path}: header is not a JSON object")
    H, D = descriptor.get("hidden_size"), descriptor.get("input_size")
    if not all(type(n) is int and n > 0 for n in (H, D)):
        raise CorruptModel(f"{path}: hidden_size {H!r} and input_size {D!r} "
                           "must be positive ints")
    for key, want in _descriptor(H, D).items():
        if key not in descriptor:
            raise CorruptModel(f"{path}: descriptor has no {key!r}")
        got = descriptor[key]
        if got == want:
            continue
        if key == "blocks" and isinstance(got, list) and len(got) == len(want):
            got, want = next((g, w) for g, w in zip(got, want) if g != w)
        raise CorruptModel(f"{path}: {key} {got!r}, expected {want!r}")
    body = len(raw) - 8 - hlen
    size = sum(math.prod(shape) for _, shape in param_layout(H, D))
    if body != 8 * size:
        raise CorruptModel(f"{path}: body of {body} bytes, expected {8 * size}")
    theta = np.frombuffer(raw, dtype="<f8", offset=8 + hlen)
    if not np.isfinite(theta).all():
        raise CorruptModel(f"{path}: parameters hold NaN or infinite values")
    return BiLSTMModel(H, D, theta.astype(np.float64))
