"""Two-layer bidirectional LSTM classifier, trained from scratch.

The network stacks two bidirectional LSTM layers over a feature sequence;
the classifier head sees the concatenation of layer 2's forward final
state and backward final state and produces class probabilities through a
softmax.  Gradients come from exact backpropagation through time, and the
optimizer is stochastic gradient descent with momentum, at the
protocol's fixed LEARNING_RATE (0.01) and MOMENTUM (0.9):

    v <- MOMENTUM * v + g
    theta <- theta - LEARNING_RATE * v

Each layer runs both directions in one Python time loop: step s is time s
forward and time T-1-s backward, so the state is (B, 2, H) and the
recurrent step is one batched matmul over the layer's (2, 4H, H)
recurrent weights.  Every buffer is step-major: the gates are (T, B, 2, 4H)
and the cell and hidden states (T+1, B, 2, H), so each step's gates,
states and carries are one contiguous block, and each direction's
(T*B, ...) rows are one strided 2-D view for the weight-gradient matmuls.
The input projection fills the gate buffer before the loop, which turns
it into activations in place and BPTT into pre-activation gradients.  It
is one (T*B, D) GEMM per direction wherever that gives the bits of the T
per-step (B, D) products (`_one_gemm`): at every B >= 2 for D < 32
(layer 1's ten inputs, and layer 2's 2H below H = 16), and otherwise at
B*4H > 1200, below which OpenBLAS rounds each step's product in its
small-matrix kernel.  One tanh gives all four gates, since
sigma(x) = 0.5*tanh(x/2) + 0.5.

Training and prediction take sequences of INPUT_SIZE (the ten
`FEATURE_NAMES`) features per frame, one feature config and one shape, as
one (window, hop) gives every 10 s recording one length: a mini-batch is
one (B, T, INPUT_SIZE) array, and `predict_batch` runs forward passes over
chunks of `TrainConfig().batch_size` rows.

One optimizer step is `_batch_grads` (a mini-batch's forward pass, loss
and BPTT), then `sgdm_step`.  Only `train` and `predict_batch` make a
`_Workspace`, one per call, which `_forward_batch` and `_batch_grads` take
as their `ws`: an arena of exactly one batch's forward cache,
8*(16TBH + 8(T+1)BH) bytes: per layer the (T, B, 2, 4H) gates and the
(T+1, B, 2, H) cell and hidden states.  Every batch, a smaller last one
included, carves its buffers from it, and BPTT recomputes nothing and
puts each of its own buffers where a dead one was, so a call peaks at
that one cache: at T = 4970 and B = 16, 437 MiB at H = 30 and 1.42 GiB
at H = 100.  Layer 2's (T, B, 2H) input is not cached: the forward pass
builds it, one step order per direction, in layer 2's cell-state and
hidden-state buffers, where the input projection reads it before the loop
writes the states, and the backward pass rebuilds it in the cell-state
buffer once the cell states are dead, one direction at a time.  Only
layer 1's one GEMM copies its input, time-major: T*B*10 floats.

A model, its gradients and its velocity each own one float64 vector,
theta, laid out by `param_layout`; every weight matrix and bias is a view
of it, so an optimizer step is one vector operation.  A layer's input
weights, recurrent weights and bias are (2, ...) views of theta, index 0
forward and 1 backward: the direction axis of every compute buffer.  A
model file's body is theta's bytes: load_model checks the descriptor
against the layout and the body for exactly 8 bytes per parameter.  The
descriptor also records `FEATURE_NAMES`, which load_model checks, and the
model's `feature_config`, the `FeatureSequence.config` of the sequences it
was trained on, as it is, which load_model holds to the rule read_features
holds a sidecar to (`record_sequence`); `predict_batch` holds every
sequence to it, so a model refuses features made with another window,
hop, bins or normalization.

Everything is plain numpy in double precision, deterministic in the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PcgError, check_count, json_object
from .features import FEATURE_NAMES, FeatureSequence, record_sequence
from .ingest import CLASS_INDEX

LEARNING_RATE = 0.01
MOMENTUM = 0.90
NUM_CLASSES = len(CLASS_INDEX)
INPUT_SIZE = len(FEATURE_NAMES)
# Gate order inside the stacked 4H dimension: input, forget, candidate, output.


def param_layout(hidden_size: int) -> list[tuple[str, tuple]]:
    """(name, shape) of every parameter block, in theta order: the model's
    views, init_model and the model-file descriptor all follow it."""
    H = hidden_size
    layout = []
    for li, d_in in ((1, INPUT_SIZE), (2, 2 * H)):
        for dname in ("fw", "bw"):
            layout += [(f"layer{li}.{dname}.input_weights", (4 * H, d_in)),
                       (f"layer{li}.{dname}.recurrent_weights", (4 * H, H)),
                       (f"layer{li}.{dname}.bias", (4 * H,))]
    return layout + [("head.weights", (NUM_CLASSES, 2 * H)),
                     ("head.bias", (NUM_CLASSES,))]


@dataclass
class BiLayer:
    """One layer's weights, both directions on axis 0: index 0 is forward,
    1 backward."""

    input_weights: np.ndarray      # (2, 4H, D_in)
    recurrent_weights: np.ndarray  # (2, 4H, H)
    bias: np.ndarray               # (2, 4H)


class BiLSTMModel:
    """All parameters in one float64 vector, `theta` (zeros by default).

    `blocks` lists every block as (name, view of theta) in layout order;
    `layers`, `head_weights` and `head_bias` view the same memory by role.
    A layer's fw and bw blocks are two equal runs of theta, so each of its
    roles is one strided (2, ...) view across both.  `feature_config` is
    the `FeatureSequence.config` of the sequences the model was trained
    on, which `predict_batch` holds every sequence to; None (an untrained
    model) holds them to nothing.
    """

    def __init__(self, hidden_size: int, theta: np.ndarray | None = None,
                 feature_config: dict | None = None):
        self.hidden_size = hidden_size
        self.feature_config = feature_config
        layout = param_layout(hidden_size)
        cuts = [0, *itertools.accumulate(math.prod(s) for _, s in layout)]
        self.theta = np.zeros(cuts[-1]) if theta is None else theta
        self.blocks = [(name, self.theta[a:b].reshape(shape))
                       for (name, shape), a, b in zip(layout, cuts, cuts[1:])]
        v = [block for _, block in self.blocks]
        self.layers = []
        for k in (0, 6):  # a layer's six blocks: fw Wx, Wh, b, then bw's
            a = cuts[k]
            run = self.theta[a:cuts[k + 6]].reshape(2, -1)  # rows fw, bw
            self.layers.append(BiLayer(*(
                run[:, cuts[j] - a:cuts[j + 1] - a].reshape(2, *v[j].shape)
                for j in range(k, k + 3))))
        self.head_weights, self.head_bias = v[12:]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 16

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            check_count(name, getattr(self, name), 1)


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parameter bookkeeping
# ---------------------------------------------------------------------------

def init_model(hidden: int, seed: int) -> BiLSTMModel:
    """Glorot-uniform weights, zero biases except forget-gate bias = 1."""
    check_count("hidden size", hidden, 1)
    rng = np.random.default_rng(seed)
    model = BiLSTMModel(hidden)
    for name, block in model.blocks:
        if block.ndim == 2:
            s = np.sqrt(6.0 / (block.shape[0] + block.shape[1]))
            block[...] = rng.uniform(-s, s, size=block.shape)
        elif name != "head.bias":
            block[hidden:2 * hidden] = 1.0
    return model


# ---------------------------------------------------------------------------
# Workspace
# ---------------------------------------------------------------------------

class _Workspace:
    """The memory of one `train` or `predict_batch` call: batches of at most
    B sequences of length T at hidden size H.

    `arena` is one flat float64 array of exactly a batch's forward cache,
    16TBH + 8(T+1)BH floats; `caches(b)` carves both layers' buffers for a
    batch of b <= B sequences from it, each contiguous.  The rest is small
    and (B, 2, ...) in shape, so its first b rows are a contiguous (b, 2, ...)
    array: the step loops' `out=` buffers, two (B, 2, 4H) and five
    (B, 2, H), and three (B, 2, 4H) constants.  The gates are
    scale*tanh(scale*z) + offset: sigma(z) = 0.5*tanh(z/2) + 0.5 on the
    sigmoid columns and tanh on the candidate's; halving is exact.  BPTT's
    slope uses lo = scale - offset.  The constants come in the shape of one
    step's gates: a broadcast operand costs the step loops about twice as
    much per op.
    """

    def __init__(self, H: int, B: int, T: int):
        self.H, self.T = H, T
        self.arena = np.empty(16 * T * B * H + 8 * (T + 1) * B * H)
        self.scale = np.full((B, 2, 4 * H), 0.5)
        self.scale[..., 2 * H:3 * H] = 1.0
        self.offset = 1.0 - self.scale
        self.lo = self.scale - self.offset
        self.wide = np.empty((2, B, 2, 4 * H))
        self.narrow = np.empty((5, B, 2, H))

    def caches(self, b: int) -> tuple[dict, dict]:
        """Each layer's gates Z (T, b, 2, 4H) and cell and hidden states C
        and Hs (T+1, b, 2, H), in step order, carved in turn from the arena.
        Nothing is zeroed: the forward pass writes every row it reads but
        row 0 of C and Hs, which it zeroes itself."""
        T, H = self.T, self.H
        layers, start = [], 0
        for _ in range(2):
            layer = {}
            for key, shape in (("Z", (T, b, 2, 4 * H)), ("C", (T + 1, b, 2, H)),
                               ("Hs", (T + 1, b, 2, H))):
                size = math.prod(shape)
                layer[key] = self.arena[start:start + size].reshape(shape)
                start += size
            layers.append(layer)
        return tuple(layers)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _one_gemm(b: int, D: int, n: int) -> bool:
    """Whether the T per-step (b, D) @ (D, n) products of an input
    projection run as one (T*b, D) @ (D, n) GEMM: exactly where that
    gives the same bits.  OpenBLAS 0.3.31 runs a step's product as a GEMV
    at b = 1, and through its small-matrix kernel where D >= 32 and
    b*n <= 1200; both round unlike its general kernel, which the one GEMM
    and every other step's product take.  Measured on x86-64 with AVX-512
    at T in {7, 199, 1000, 4970}, b = 1 to 32, n = 4H for H in {5, 16,
    30, 50, 100} and D in {10, 2H}."""
    return b >= 2 and (D < 32 or b * n > 1200)


def _layer_forward(layer: BiLayer, input_of, cache: dict,
                   ws: _Workspace) -> None:
    """Both directions of one layer, into cache's buffers (see
    `_Workspace.caches`).  input_of(d) gives the layer's (T, b, D) input in
    direction d's step order.

    Step s runs time s of the forward direction and time T-1-s of the
    backward one, so the state is (b, 2, H) and each step's gates, states
    and carries are one contiguous block.  Z receives the gate activations;
    C and Hs the cell and hidden states, with the zero initial state at
    index 0.  Each direction's input is read only by its input projection,
    before C and Hs are written, so input_of may build it in them.  The
    projection is one GEMM per direction where `_one_gemm` allows, else
    one product per step.
    """
    Z, C, Hs = cache["Z"], cache["C"], cache["Hs"]
    T, b = Z.shape[:2]
    H = Hs.shape[-1]
    scale, offset = ws.scale[:b], ws.offset[:b]
    col = scale[0, 0]  # the per-column scale, folded into the weights
    Wx = layer.input_weights * col[:, None]
    for d in (0, 1):
        U, z = input_of(d), Z[:, :, d]
        if _one_gemm(b, U.shape[-1], 4 * H):
            # Copies only layer 1's input, a strided view of the batch.
            U = np.ascontiguousarray(U).reshape(T * b, -1)
            z = z.reshape(T * b, 4 * H)
        np.matmul(U, Wx[d].T, out=z)
    Z += layer.bias * col
    # Copied contiguous once: each step's matmul runs about twice as fast.
    W = np.ascontiguousarray(
        (layer.recurrent_weights * col[:, None]).transpose(0, 2, 1))
    C[0] = 0.0
    Hs[0] = 0.0
    rec, fc = ws.wide[0, :b], ws.narrow[0, :b]
    # Views made once: the matmul's operands direction-first, and each gate.
    HsT, recT = Hs.transpose(0, 2, 1, 3), rec.transpose(1, 0, 2)
    zi, zf, zg, zo = (Z[..., k * H:(k + 1) * H] for k in range(4))
    for s in range(T):
        z = Z[s]
        np.matmul(HsT[s], W, out=recT)
        z += rec
        np.tanh(z, out=z)
        z *= scale
        z += offset
        c, h = C[s + 1], Hs[s + 1]
        np.multiply(zi[s], zg[s], out=c)
        np.multiply(zf[s], C[s], out=fc)
        c += fc
        np.tanh(c, out=h)
        h *= zo[s]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _layer2_input(Hs1: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """Layer 2's (T, b, 2H) input in direction d's step order, written into
    the (T, b, 2, H) array out, from layer 1's (T, b, 2, H) step-order hidden
    states: [forward h_t, backward h_t] at each time t, in time order for
    d = 0 and reversed for d = 1."""
    step = 1 - 2 * d
    out[:, :, 0] = Hs1[::step, :, 0]
    out[:, :, 1] = Hs1[::-step, :, 1]
    return out.reshape(*out.shape[:2], -1)


def _forward_batch(model: BiLSTMModel, X: np.ndarray,
                   ws: _Workspace) -> tuple:
    """Probabilities (B, 2), the head's (B, 2H) input feat and the two
    layers' caches for a (B, T, D) batch; feat and the caches are views of
    ws.  No cache keeps a layer's input: layer 1's is X, and layer 2's
    lives in layer 2's C (forward step order) and Hs (backward) until its
    input projection has read it."""
    l1, l2 = model.layers
    B, T, _ = X.shape
    c1, c2 = ws.caches(B)
    U1, Hs1 = X.transpose(1, 0, 2), c1["Hs"][1:]
    _layer_forward(l1, lambda d: U1[::1 - 2 * d], c1, ws)
    U2 = c2["C"][:T], c2["Hs"][:T]  # where layer 2's input is built
    _layer_forward(l2, lambda d: _layer2_input(Hs1, d, U2[d]), c2, ws)
    # Forward ends at t = T-1 and backward at t = 0: both on the last step.
    feat = c2["Hs"][T].reshape(B, -1)  # (B, 2H): [forward, backward]

    logits = feat @ model.head_weights.T + model.head_bias
    return _softmax(logits), feat, c1, c2


def _stack(seqs: list[FeatureSequence],
           feature_config: dict | None = None) -> np.ndarray:
    """The (B, T, INPUT_SIZE) float64 batch of a non-empty list of
    sequences, each INPUT_SIZE wide with frames since it was made.  Every
    sequence must have seqs[0]'s shape and one feature `config`: a model's
    `feature_config` when it is given, else seqs[0]'s.  The first that
    differs is refused by name, with the first key that differs."""
    first = seqs[0]
    config = first.config if feature_config is None else feature_config
    want = {**config, "values shape": np.shape(first.values)}
    for k, seq in enumerate(seqs):
        got = {**seq.config, "values shape": np.shape(seq.values)}
        for name in {**got, **want}:  # a model file's record may lack a key
            if got.get(name) == want.get(name):
                continue
            if feature_config is None or name == "values shape":
                whose = f"sequence 0 ({first.signal_id!r})"
                rule = "a batch takes one feature config and one shape"
            else:
                whose = "the model"
                rule = "a model takes the features it was trained on"
            raise PcgError(
                f"sequence {k} ({seq.signal_id!r}) has {name} "
                f"{got.get(name)}, {whose} has {want.get(name)}: {rule}")
    return np.stack([seq.values for seq in seqs], dtype=np.float64)


def predict_batch(model: BiLSTMModel,
                  seqs: list[FeatureSequence]) -> np.ndarray:
    """Most probable class index of each sequence, in input order; exact
    ties resolve to class 0 (healthy).  The sequences are stacked as one
    batch, so they must share one shape and one feature config, the
    model's `feature_config` if it has one (see `_stack`).  They run in
    chunks of `TrainConfig().batch_size` rows, so prediction peaks at one
    training batch's forward cache however long the list is."""
    if not seqs:
        return np.zeros(0, dtype=np.int64)
    X = _stack(seqs, model.feature_config)
    n = TrainConfig().batch_size
    ws = _Workspace(model.hidden_size, min(n, len(X)), X.shape[1])
    return np.concatenate([
        _forward_batch(model, X[k:k + n], ws)[0].argmax(axis=1)
        for k in range(0, len(X), n)])


# ---------------------------------------------------------------------------
# Backward pass (BPTT)
# ---------------------------------------------------------------------------

def _layer_backward(layer: BiLayer, cache: dict, dHs: np.ndarray | None,
                    dh_carry: np.ndarray, grads: BiLayer, input_of,
                    ws: _Workspace) -> None:
    """BPTT through both directions of one layer, in reverse step order.

    dHs holds the (T, b, 2, H) output gradients in step order, or is None
    where they are zero, and dh_carry the (b, 2, H) gradient that reaches
    the last step's hidden state from outside dHs; the loop carries it back
    through the recurrence.  The gate buffer cache["Z"] is overwritten with
    the pre-activation gradients dZ, and the weight gradients are written
    into `grads`.  input_of(d) gives the layer's (T, b, D) input in
    direction d's step order; it is called once per direction, after the
    time loop, and each result is read before the next call, so an input
    built on demand may reuse cache["C"], whose last reader is the time
    loop.
    """
    Z, C, Hs = cache["Z"], cache["C"], cache["Hs"]
    T, b = Z.shape[:2]
    H = C.shape[-1]
    # (1 - a)(a + lo) is a(1 - a) on the sigmoid columns, 1 - a^2 on tanh's.
    lo = ws.lo[:b]
    slope, zlo = ws.wide[:, :b]
    dh, dc, tc, t, dc_carry = ws.narrow[:, :b]
    W = layer.recurrent_weights
    dh[...] = dh_carry
    dc_carry[...] = 0.0
    ZT, dhT = Z.transpose(0, 2, 1, 3), dh.transpose(1, 0, 2)
    zi, zf, zg, zo = (Z[..., k * H:(k + 1) * H] for k in range(4))
    for s in range(T - 1, -1, -1):
        z = Z[s]
        i, f, g, o = zi[s], zf[s], zg[s], zo[s]
        if dHs is not None:
            dh += dHs[s]  # dh holds the carry from step s + 1
        np.tanh(C[s + 1], out=tc)
        np.multiply(dh, o, out=dc)
        np.multiply(tc, tc, out=t)
        np.subtract(1.0, t, out=t)
        dc *= t
        dc += dc_carry
        np.subtract(1.0, z, out=slope)
        np.add(z, lo, out=zlo)
        slope *= zlo
        # Gate slots turn into dZ; each is read before it is overwritten.
        np.multiply(dc, f, out=dc_carry)
        np.multiply(dc, g, out=t)
        np.multiply(dc, i, out=g)
        np.multiply(dc, C[s], out=f)
        np.multiply(dh, tc, out=o)
        i[...] = t
        z *= slope
        np.matmul(ZT[s], W, out=dhT)

    for d in (0, 1):
        dZ = Z[:, :, d].reshape(T * b, 4 * H)
        grads.input_weights[d] = dZ.T @ input_of(d).reshape(T * b, -1)
        grads.recurrent_weights[d] = dZ.T @ Hs[:-1, :, d].reshape(T * b, H)
    # Down the rows in order, as a sum per direction would run.
    grads.bias[...] = Z.reshape(T * b, 2, 4 * H).sum(axis=0)


def _batch_grads(model: BiLSTMModel, X: np.ndarray, labels: np.ndarray,
                 ws: _Workspace) -> tuple[float, int, BiLSTMModel]:
    """Summed cross-entropy, number correct and the gradients of the mean
    cross-entropy of a (B, T, D) batch, its buffers carved from ws; a
    non-finite loss raises PcgError before BPTT.

    Layer 2's outputs reach the loss only through feat, on its last step,
    so the head's gradient seeds layer 2's carry and it has no other output
    gradient.  Every buffer after the forward cache goes into memory whose
    occupant is dead: layer 2's input, rebuilt one direction
    at a time for its weight gradients, and then the forward half of its
    input gradient into its C; the backward half into its Hs; and layer
    1's output gradient dHs1 into its Z.  A batch thus peaks at its
    forward cache.
    """
    probs, feat, c1, c2 = _forward_batch(model, X, ws)
    B, T, _ = X.shape
    H = model.hidden_size
    total_loss = float(-np.log(probs[np.arange(B), labels]).sum())
    correct = int((probs.argmax(axis=1) == labels).sum())
    if not np.isfinite(total_loss):
        raise PcgError(
            f"training loss is {total_loss}: the features hold NaN or Inf")

    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    grads = BiLSTMModel(H)
    grads.head_weights[...] = dlogits.T @ feat
    grads.head_bias[...] = dlogits.sum(axis=0)

    dfeat = dlogits @ model.head_weights  # (B, 2H): [forward, backward]

    l1, l2 = model.layers
    Hs1, C2, Hs2 = c1["Hs"][1:], c2["C"][:T], c2["Hs"][:T]
    _layer_backward(l2, c2, None, dfeat.reshape(B, 2, H), grads.layers[1],
                    lambda d: _layer2_input(Hs1, d, C2), ws)
    dZ = c2["Z"]
    # Layer 2's input gradient, one half per direction, the backward one in
    # reversed time order; layer 1's output gradients are their sums.
    fw = np.matmul(dZ[:, :, 0], l2.input_weights[0],
                   out=C2.reshape(T, B, 2 * H))
    bw = np.matmul(dZ[:, :, 1], l2.input_weights[1],
                   out=Hs2.reshape(T, B, 2 * H))
    dHs1 = dZ.reshape(-1)[:C2.size].reshape(C2.shape)
    np.add(fw[..., :H], bw[::-1, :, :H], out=dHs1[:, :, 0])
    np.add(fw[::-1, :, H:], bw[:, :, H:], out=dHs1[:, :, 1])
    U1 = X.transpose(1, 0, 2)
    _layer_backward(l1, c1, dHs1, np.zeros((B, 2, H)), grads.layers[0],
                    lambda d: U1[::1 - 2 * d], ws)
    return total_loss, correct, grads


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def sgdm_step(model: BiLSTMModel, grads: BiLSTMModel,
              velocity: BiLSTMModel) -> None:
    """v <- MOMENTUM*v + g; theta <- theta - LEARNING_RATE*v, in place."""
    v = velocity.theta
    v *= MOMENTUM
    v += grads.theta
    model.theta -= LEARNING_RATE * v


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def class_indices(seqs: list[FeatureSequence]) -> np.ndarray:
    """The int64 class index (`CLASS_INDEX`) of each sequence's label; the
    first unlabeled sequence is refused by name."""
    for seq in seqs:
        if seq.label not in CLASS_INDEX:
            raise PcgError(f"sequence {seq.signal_id!r} is unlabeled")
    return np.array([CLASS_INDEX[seq.label] for seq in seqs], dtype=np.int64)


def train(dataset: list[FeatureSequence], hidden: int, config: TrainConfig,
          seed: int) -> tuple[BiLSTMModel, TrainHistory]:
    """Train a fresh model, which records the dataset's feature config;
    fully deterministic in (dataset order, seed)."""
    check_count("seed", seed, 0)
    labels = class_indices(dataset)
    if len(set(labels.tolist())) < 2:
        raise PcgError("training data must contain both classes")
    X = _stack(dataset)

    model = init_model(hidden, seed=seed)
    model.feature_config = dataset[0].config
    velocity = BiLSTMModel(model.hidden_size)
    shuffle_rng = np.random.default_rng([seed, 1])
    ws = _Workspace(hidden, min(config.batch_size, len(X)), X.shape[1])

    history = TrainHistory()
    n = len(dataset)
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss_b, correct_b, grads = _batch_grads(model, X[idx], labels[idx],
                                                    ws)
            sgdm_step(model, grads, velocity)
            del grads  # not alive in the next batch's forward pass
            total_loss += loss_b
            correct += correct_b
        history.losses.append(total_loss / n)
        history.accuracies.append(correct / n)
    # Each step's loss is checked before the step: the last step's result
    # is checked here.
    if not np.isfinite(model.theta).all():
        raise PcgError("the parameters hold NaN or Inf after the last step")
    return model, history


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"HWM2"


def _descriptor(hidden_size: int) -> dict:
    """What load_model requires of a descriptor, key by key."""
    blocks = [[name, list(shape)] for name, shape in param_layout(hidden_size)]
    return {"input_size": INPUT_SIZE, "hidden_size": hidden_size,
            "num_layers": 2, "blocks": blocks, "dtype": "<f8",
            "feature_names": list(FEATURE_NAMES)}


def save_model(model: BiLSTMModel, path: str | Path,
               config: dict | None = None) -> None:
    """Binary model file: magic, length-prefixed JSON descriptor, then
    `model.theta` as little-endian float64 (every block row-major, in
    layout order).  The descriptor records the layout, `FEATURE_NAMES`
    and the model's `feature_config` (null for an untrained model);
    `config`, the settings the model was trained with, goes into it as
    its `train_config`.  A numpy integer is written as a JSON integer."""
    descriptor = {**_descriptor(model.hidden_size),
                  "feature_config": model.feature_config}
    if config is not None:
        descriptor["train_config"] = config
    header = json.dumps(descriptor, default=operator.index).encode("utf-8")
    Path(path).write_bytes(MODEL_MAGIC + struct.pack("<I", len(header))
                           + header + model.theta.astype("<f8").tobytes())


def load_model(path: str | Path) -> BiLSTMModel:
    """Read a model file; anything but a file save_model could have written
    from finite parameters raises PcgError, and so does a file of the old
    format, which records no feature config."""
    raw = Path(path).read_bytes()
    if raw[:4] == b"HWM1":  # MODEL_MAGIC up to pcgkit 0.10.0
        raise PcgError(f"{path}: an HWM1 model file, the old format of "
                       "pcgkit 0.10.0 and earlier, which records no feature "
                       "config: train the model again")
    if raw[:4] != MODEL_MAGIC:
        raise PcgError(f"{path}: not a model file (bad magic)")
    hlen = int.from_bytes(raw[4:8], "little")
    if len(raw) < 8 or 8 + hlen > len(raw):
        raise PcgError(f"{path}: the header runs past the end of the "
                       f"{len(raw)}-byte file")
    descriptor = json_object(raw[8:8 + hlen], f"{path}: header")
    H = descriptor.get("hidden_size")
    try:
        check_count("hidden_size", H, 1)
    except ValueError as exc:
        raise PcgError(f"{path}: {exc}") from None
    for key, want in _descriptor(H).items():
        if key not in descriptor:
            raise PcgError(f"{path}: descriptor has no {key!r}")
        got = descriptor[key]
        if json.dumps(got) == json.dumps(want):  # 10.0 and true are not 10, 1
            continue
        if key == "blocks" and isinstance(got, list) and len(got) == len(want):
            got, want = next((g, w) for g, w in zip(got, want)
                             if json.dumps(g) != json.dumps(w))
        raise PcgError(f"{path}: {key} {got!r}, expected {want!r}")
    if "feature_config" not in descriptor:
        raise PcgError(f"{path}: descriptor has no 'feature_config'")
    feature_config = descriptor["feature_config"]
    if feature_config is not None:
        if not isinstance(feature_config, dict):
            raise PcgError(f"{path}: feature_config {feature_config!r}, "
                           "expected an object or null")
        # The rule read_features holds a sidecar to, to the JSON text.
        try:
            config = record_sequence(feature_config,
                                     np.zeros((1, INPUT_SIZE))).config
        except KeyError as exc:
            raise PcgError(f"{path}: feature_config has no {exc} key") from None
        except ValueError as exc:
            raise PcgError(f"{path}: feature_config: {exc}") from None
        if json.dumps(config) != json.dumps(feature_config):
            raise PcgError(f"{path}: feature_config {feature_config!r}, "
                           f"expected {config!r}")
    body = len(raw) - 8 - hlen
    size = sum(math.prod(shape) for _, shape in param_layout(H))
    if body != 8 * size:
        raise PcgError(f"{path}: body of {body} bytes, expected {8 * size}")
    theta = np.frombuffer(raw, dtype="<f8", offset=8 + hlen)
    if not np.isfinite(theta).all():
        raise PcgError(f"{path}: parameters hold NaN or infinite values")
    return BiLSTMModel(H, theta.astype(np.float64), feature_config)
