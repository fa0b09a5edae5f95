import dataclasses
import hashlib
import json
import math
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest

from pcgkit import nnet
from pcgkit.errors import PcgError
from pcgkit.features import FEATURE_NAMES, FeatureSequence
from pcgkit.ingest import Label
from pcgkit.nnet import (
    BiLayer,
    BiLSTMModel,
    TrainConfig,
    init_model,
    load_model,
    save_model,
    sgdm_step,
    train,
)
from pcgkit.windows import WindowShape, WindowSpec


def make_seq(values, label=Label.HEALTHY, sid="s"):
    values = np.asarray(values, dtype=np.float64)
    return FeatureSequence(values=values, signal_id=sid, label=label,
                           window=WindowSpec(WindowShape.RECTANGULAR, 7),
                           hop=1, bins=10, normalized=True)


def toy_blobs(n_per_class=8, T=5, D=10, seed=0, gap=2.0):
    """Two well-separated blobs rendered as constant-in-time sequences."""
    rng = np.random.default_rng(seed)
    data = []
    for label, center in ((Label.HEALTHY, -gap / 2), (Label.PATHOLOGICAL, gap / 2)):
        for i in range(n_per_class):
            point = center + 0.3 * rng.normal(size=D)
            data.append(make_seq(np.tile(point, (T, 1)),
                                 label=label, sid=f"{label.value}{i}"))
    return data


def workspace(model, X):
    """A workspace for the one (B, T, D) batch X, made as `train` makes
    its own."""
    return nnet._Workspace(model.hidden_size, *X.shape[:2])


def probs_of(model, seq):
    """Class probabilities of one sequence: a forward pass at B = 1."""
    X = seq.values[None]
    return nnet._forward_batch(model, X, workspace(model, X))[0][0]


def grads_of(model, X, y):
    """Gradients of the mean cross-entropy of a (B, T, D) batch with class
    indices y, as a training step takes them."""
    return nnet._batch_grads(model, X, np.asarray(y), workspace(model, X))[2]


def layer_forward(layer, U):
    """`_layer_forward` over a time-major (T, B, D) array."""
    T, B = U.shape[:2]
    ws = nnet._Workspace(layer.recurrent_weights.shape[2], B, T)
    cache = ws.caches(B)[0]
    nnet._layer_forward(layer, lambda d: U[::1 - 2 * d], cache, ws)
    return cache


def zero_model(H=3):
    model = init_model(H, seed=0)
    for _, arr in model.blocks:
        arr[...] = 0.0
    return model


def forward_cache_bytes(H, B, T):
    """Bytes of a batch's forward cache: per layer, the (2, T, B, 4H) gates
    and the (2, T+1, B, H) cell states; layer 1's (2, T+1, B, H) hidden
    states and one (2, B, H) row of layer 2's."""
    return 8 * (16 * T * B * H + 6 * (T + 1) * B * H + 2 * B * H)


def traced_peak(call):
    """tracemalloc peak, in bytes, of call()'s second run: the first run
    takes numpy's one-time allocations (lazy imports, caches) out of it."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rewrite_header(raw, edit):
    """raw with its JSON header replaced by edit(header), length fixed up."""
    (hlen,) = struct.unpack_from("<I", raw, 4)
    header = edit(raw[8:8 + hlen])
    assert header != raw[8:8 + hlen]
    return raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + hlen:]


def _header_edit(old, new):
    return lambda raw: _rewrite_header(raw, lambda h: h.replace(old, new))


# A feature record as save_model writes one: FeatureSequence.config.
FEATURE_RECORD = {"window_shape": "gaussian", "L": 30, "alpha": 2.5,
                  "hop": 25, "bins": 10, "normalized": True}


def _feature_record_edit(record):
    """Puts `record` where an untrained model's file has a null one."""
    return _header_edit(b'"feature_config": null',
                        b'"feature_config": ' + json.dumps(record).encode())


# Ways to break the file that save_model writes for init_model(3, seed=...),
# whose input size is nnet.INPUT_SIZE, 10.
MODEL_FILE_MUTATIONS = {
    "trailing_8_bytes": lambda raw: raw + bytes(8),
    "cut_16_bytes": lambda raw: raw[:-16],
    "cut_to_6_bytes": lambda raw: raw[:6],
    "unknown_block_name": _header_edit(b"layer1.fw.bias", b"layer1.fw.gain"),
    "wrong_block_shape": _header_edit(b"[12, 10]", b"[10, 12]"),
    "wrong_input_size": _header_edit(b'"input_size": 10', b'"input_size": 11'),
    # Equal to what save_model writes under ==, but of another JSON type.
    "float_input_size": _header_edit(b'"input_size": 10', b'"input_size": 10.0'),
    "float_num_layers": _header_edit(b'"num_layers": 2', b'"num_layers": 2.0'),
    "float_block_shape": _header_edit(b"[12, 10]", b"[12.0, 10]"),
    "zero_hidden_size": _header_edit(b'"hidden_size": 3', b'"hidden_size": 0'),
    "bool_hidden_size": _header_edit(b'"hidden_size": 3', b'"hidden_size": true'),
    "missing_dtype": _header_edit(b', "dtype": "<f8"', b""),
    "other_feature_names": _header_edit(b'"zcr"', b'"zero_crossings"'),
    "missing_feature_config": _header_edit(b', "feature_config": null', b""),
    "feature_config_not_object":
        _header_edit(b'"feature_config": null', b'"feature_config": 250'),
    "empty_feature_config": _feature_record_edit({}),
    "feature_config_of_hop_only": _feature_record_edit({"hop": 25}),
    "float_feature_L": _feature_record_edit({**FEATURE_RECORD, "L": 30.0}),
    "bool_feature_hop": _feature_record_edit({**FEATURE_RECORD, "hop": True}),
    "feature_config_extra_key":
        _feature_record_edit({**FEATURE_RECORD, "signal_id": "a"}),
    "big_endian_dtype": _header_edit(b'"<f8"', b'">f8"'),
    "header_length_1e9":
        lambda raw: raw[:4] + struct.pack("<I", 10**9) + raw[8:],
    "non_json_header": lambda raw: _rewrite_header(raw, lambda h: b"not json"),
    "non_utf8_header":
        lambda raw: _rewrite_header(raw, lambda h: b"\xff" + h[1:]),
    "header_not_object":
        lambda raw: _rewrite_header(raw, lambda h: b"[" + h + b"]"),
    "deeply_nested_header": lambda raw: _rewrite_header(
        raw, lambda h: b"[" * 100_000 + b"]" * 100_000),
    "bad_magic": lambda raw: b"HWM0" + raw[4:],
    "nan_parameter": lambda raw: raw[:-8] + struct.pack("<d", math.nan),
    "inf_parameter": lambda raw: raw[:-8] + struct.pack("<d", -math.inf),
}


class TestInit:
    def test_deterministic(self):
        a = init_model(5, seed=42)
        b = init_model(5, seed=42)
        for (_, x), (_, y) in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)
        c = init_model(5, seed=43)
        assert not np.array_equal(a.layers[0].input_weights[0],
                                  c.layers[0].input_weights[0])

    def test_shapes_for_hidden_5(self):
        m = init_model(5, seed=0)
        assert m.layers[0].input_weights.shape == (2, 20, 10)
        assert m.layers[0].bias.shape == (2, 20)
        # layer 2 consumes the 2H-wide concatenation of layer 1
        assert m.layers[1].input_weights.shape == (2, 20, 10)
        assert m.layers[1].recurrent_weights.shape == (2, 20, 5)
        assert m.head_weights.shape == (2, 10)
        assert m.head_bias.shape == (2,)

    def test_forget_gate_bias_is_one(self):
        m = init_model(4, seed=0)
        for layer in m.layers:
            for bias in layer.bias:  # forward, then backward
                assert np.all(bias[4:8] == 1.0)
                assert np.all(bias[:4] == 0.0)
                assert np.all(bias[8:] == 0.0)

    def test_blocks_are_views_of_theta(self):
        m = init_model(3, seed=0)
        assert [name for name, _ in m.blocks] == [
            name for name, _ in nnet.param_layout(3)]
        m.layers[1].bias[1, 0] = 42.0
        m.theta[-1] = 7.0
        assert m.head_bias[-1] == 7.0
        assert np.count_nonzero(m.theta == 42.0) == 1
        assert np.array_equal(
            np.concatenate([b.ravel() for _, b in m.blocks]), m.theta)
        # Each direction of each role writes through to its named block
        # and nowhere else.
        blocks = dict(m.blocks)
        tag = 100.0
        for k, layer in enumerate(m.layers, start=1):
            for role in ("input_weights", "recurrent_weights", "bias"):
                for d, dname in enumerate(("fw", "bw")):
                    view = getattr(layer, role)[d]
                    assert np.shares_memory(view, m.theta)
                    tag += 1.0
                    view[...] = tag
                    assert np.all(blocks[f"layer{k}.{dname}.{role}"] == tag)
                    assert np.count_nonzero(m.theta == tag) == view.size

    @pytest.mark.parametrize("hidden, message", [
        (2.5, "hidden size must be an integer, got 2.5"),
        ("3", "hidden size must be an integer, got '3'"),
        (True, "hidden size must be an integer, got True"),
        (0, "hidden size must be >= 1, got 0")])
    def test_bad_hidden_size_rejected(self, hidden, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            init_model(hidden, seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(toy_blobs(2), hidden, TrainConfig(epochs=1), seed=0)

    def test_input_width_is_the_feature_count(self):
        assert nnet.INPUT_SIZE == len(FEATURE_NAMES) == 10
        assert init_model(3, seed=0).layers[0].input_weights.shape[2] == 10
        with pytest.raises(TypeError, match="input_size"):
            init_model(3, 0, input_size=4)

    def test_glorot_bounds(self):
        m = init_model(30, seed=1)
        W = m.layers[0].input_weights[0]
        s = np.sqrt(6.0 / (W.shape[0] + W.shape[1]))
        assert np.all(np.abs(W) <= s)


def _layer(fw, bw=None):
    """A BiLayer from per-direction (Wx, Wh, b) triples."""
    bw = fw if bw is None else bw
    return BiLayer(*(np.stack(pair) for pair in zip(fw, bw)))


def _random_layer(rng, H, D):
    """Normal draws: the forward direction's Wx, Wh, b, then the backward's."""
    return _layer(*((rng.normal(size=(4 * H, D)), rng.normal(size=(4 * H, H)),
                      rng.normal(size=4 * H)) for _ in range(2)))


class TestCellStep:
    """The LSTM step as production runs it: both directions of one layer.

    `_layer_forward` keeps its buffers step-major, (step, batch row,
    direction, ...): step s is time s of the forward direction and time
    T-1-s of the backward one, and step 0 of the state buffers holds the
    zero initial state.
    """

    def test_zero_params_give_zero_state(self):
        layer = BiLayer(np.zeros((2, 12, 10)), np.zeros((2, 12, 3)),
                        np.zeros((2, 12)))
        U = np.random.default_rng(0).normal(size=(4, 2, 10))  # (T, B, D)
        cache = layer_forward(layer, U)
        assert np.array_equal(cache["Hs"], np.zeros((5, 2, 2, 3)))
        assert np.array_equal(cache["C"], np.zeros((5, 2, 2, 3)))

    def test_saturated_forget_gate_carries_cell(self):
        rng = np.random.default_rng(1)
        H, D = 3, 4
        Wx = rng.normal(size=(4 * H, D)) * 0.1
        Wh = rng.normal(size=(4 * H, H)) * 0.1
        b = np.zeros(4 * H)
        b[H:2 * H] = 50.0  # forget gate pinned at 1
        U = rng.normal(size=(2, 1, D))
        cache = layer_forward(_layer((Wx, Wh, b)), U)
        # Step 2 sees time 1 in the forward direction, time 0 in the backward.
        for d, t in ((0, 1), (1, 0)):
            h_prev, c_prev = cache["Hs"][1, 0, d], cache["C"][1, 0, d]
            assert np.all(c_prev != 0.0)
            z = Wx @ U[t, 0] + Wh @ h_prev
            i = 1 / (1 + np.exp(-z[:H]))
            g = np.tanh(z[2 * H:3 * H])
            assert np.allclose(cache["C"][2, 0, d], c_prev + i * g, atol=1e-12)

    @staticmethod
    def _scalar_loop(layer, d, xs):
        """Hidden and cell states of direction d, one scalar at a time."""
        import math
        Wx, Wh, b = (layer.input_weights[d], layer.recurrent_weights[d],
                     layer.bias[d])
        H = Wh.shape[1]
        h, c = [0.0] * H, [0.0] * H
        states = []
        for x in xs:
            def z(row):
                return (sum(Wx[row, j] * x[j] for j in range(len(x)))
                        + sum(Wh[row, j] * h[j] for j in range(H))
                        + b[row])
            new_h, new_c = [], []
            for k in range(H):
                ik = 1 / (1 + math.exp(-z(k)))
                fk = 1 / (1 + math.exp(-z(H + k)))
                gk = math.tanh(z(2 * H + k))
                ok = 1 / (1 + math.exp(-z(3 * H + k)))
                new_c.append(fk * c[k] + ik * gk)
                new_h.append(ok * math.tanh(new_c[k]))
            h, c = new_h, new_c
            states.append((h, c))
        return states

    def test_matches_scalar_loop_oracle(self):
        # T = 2, so the second step starts from a non-zero (h, c); the
        # backward direction visits the times in the opposite order.
        rng = np.random.default_rng(2)
        H, D = 4, 6
        layer = _random_layer(rng, H, D)
        U = rng.normal(size=(2, 1, D))
        cache = layer_forward(layer, U)
        for d, order in enumerate(([0, 1], [1, 0])):
            states = self._scalar_loop(layer, d, [U[t, 0] for t in order])
            for s, (h, c) in enumerate(states):
                assert cache["Hs"][s + 1, 0, d] == pytest.approx(h, abs=1e-12)
                assert cache["C"][s + 1, 0, d] == pytest.approx(c, abs=1e-12)

    def test_backward_half_is_forward_half_on_reversed_input(self):
        rng = np.random.default_rng(3)
        H, D = 5, 7
        layer = _random_layer(rng, H, D)
        U = rng.normal(size=(9, 3, D))
        ours = layer_forward(layer, U)
        flipped = BiLayer(layer.input_weights[::-1],
                          layer.recurrent_weights[::-1], layer.bias[::-1])
        swapped = layer_forward(flipped, U[::-1])
        for key in ("Hs", "C", "Z"):
            assert np.allclose(ours[key][:, :, 1], swapped[key][:, :, 0],
                               rtol=0, atol=1e-14)
            assert np.allclose(ours[key][:, :, 0], swapped[key][:, :, 1],
                               rtol=0, atol=1e-14)

    def test_batch_rows_match_single_sequence_forward(self):
        rng = np.random.default_rng(4)
        model = init_model(4, seed=5)
        X = rng.normal(size=(5, 8, 10))
        probs = nnet._forward_batch(model, X, workspace(model, X))[0]
        for b in range(5):
            single = probs_of(model, make_seq(X[b]))
            assert np.allclose(probs[b], single, rtol=0, atol=1e-14)



class TestInputProjection:
    """`_layer_forward` runs a direction's input projection as one
    (T*b, D) GEMM only where `nnet._one_gemm` says that keeps the bits of
    the per-step products.  This checks the rule where it chooses the GEMM,
    with the operands laid out as production lays them out: weights as a
    (2, 4H, D) block, the input a time-major view of a (b, T, D) batch,
    the output one direction of a (T, b, 2, 4H) gate buffer."""

    @pytest.mark.parametrize("H, D", [(H, D) for H in (5, 16, 30, 50, 100)
                                      for D in sorted({10, 2 * H})])
    def test_one_gemm_gives_the_per_step_bits(self, H, D):
        T = 7
        rng = np.random.default_rng([H, D])
        Wx = rng.normal(size=(2, 4 * H, D))
        chosen = [b for b in range(1, 33) if nnet._one_gemm(b, D, 4 * H)]
        assert chosen
        for b in chosen:
            U = rng.normal(size=(b, T, D)).transpose(1, 0, 2)
            per_step = np.empty((T, b, 2, 4 * H))
            one = np.empty_like(per_step)
            for d in (0, 1):
                X = U[::1 - 2 * d]
                np.matmul(X, Wx[d].T, out=per_step[:, :, d])
                np.matmul(np.ascontiguousarray(X).reshape(T * b, D), Wx[d].T,
                          out=one[:, :, d].reshape(T * b, 4 * H))
            assert np.array_equal(one, per_step), f"b = {b}"


class TestForward:
    def test_zero_model_is_uninformative(self):
        seq = make_seq(np.random.default_rng(3).normal(size=(6, 10)))
        probs = probs_of(zero_model(), seq)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_probabilities_form_a_distribution(self):
        rng = np.random.default_rng(4)
        model = init_model(4, seed=5)
        for _ in range(10):
            seq = make_seq(rng.normal(size=(rng.integers(1, 12), 10)))
            probs = probs_of(model, seq)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0.0)

    def test_direction_swap_symmetry(self):
        # Reversing the input while swapping the forward/backward parameter
        # sets (and the matching column halves of the concatenation
        # consumers) must give identical probabilities.
        rng = np.random.default_rng(5)
        H = 4
        model = init_model(H, seed=6)

        def swap_cols(W):
            return np.concatenate([W[..., H:], W[..., :H]], axis=-1)

        swapped = BiLSTMModel(H)
        for dst, src in zip(swapped.layers, model.layers):
            for role in ("input_weights", "recurrent_weights", "bias"):
                getattr(dst, role)[...] = getattr(src, role)[::-1]
        s2 = swapped.layers[1]
        s2.input_weights[...] = swap_cols(s2.input_weights)
        swapped.head_weights[...] = swap_cols(model.head_weights)
        swapped.head_bias[...] = model.head_bias

        values = rng.normal(size=(9, 10))
        p1 = probs_of(model, make_seq(values))
        p2 = probs_of(swapped, make_seq(values[::-1]))
        assert np.allclose(p1, p2, atol=1e-14)


class TestLoss:
    """Cross-entropy of the true class, -log p[label], as training sums it."""

    def test_uniform(self):
        p = np.array([0.5, 0.5])
        assert -np.log(p[0]) == pytest.approx(np.log(2))
        assert -np.log(p[1]) == pytest.approx(np.log(2))

    def test_confident_limit(self):
        assert -np.log(np.array([1e-12, 1.0 - 1e-12])[1]) < 1e-9

    def test_mean_batch_loss_is_mean_of_losses(self):
        rng = np.random.default_rng(6)
        model = init_model(3, seed=7)
        seqs = [make_seq(rng.normal(size=(5, 10))) for _ in range(4)]
        labels = [0, 1, 1, 0]
        per_example = []
        for s, y in zip(seqs, labels):
            probs = probs_of(model, s)
            per_example.append(float(-np.log(probs[y])))
        X = np.stack([s.values for s in seqs])
        probs = nnet._forward_batch(model, X, workspace(model, X))[0]
        batch_mean = float(-np.log(probs[np.arange(4), labels]).mean())
        assert batch_mean == pytest.approx(np.mean(per_example), abs=1e-12)


class TestBackward:
    def test_zero_input_kills_input_weight_gradient(self):
        # With an all-zero input sequence, dW = sum_t dz_t x_t^T = 0 for the
        # first layer's input weights while other blocks stay nonzero.
        model = init_model(3, seed=8)
        grads = grads_of(model, np.zeros((1, 6, 10)), [1])
        assert grads.layers[0].input_weights.shape == (2, 12, 10)
        assert np.all(grads.layers[0].input_weights == 0.0)
        # the zero input also silences every hidden state, so only the head
        # bias sees a gradient
        assert np.any(grads.head_bias != 0.0)

    def test_gradient_check_small(self):
        rng = np.random.default_rng(9)
        model = init_model(2, seed=10)
        X = rng.normal(size=(2, 4, 10))
        labels = np.array([0, 1])
        grads = grads_of(model, X, labels)

        def total_loss():
            p = nnet._forward_batch(model, X, workspace(model, X))[0]
            return float(-np.log(p[np.arange(2), labels]).mean())

        eps = 1e-6
        for (name, theta), (_, g) in zip(model.blocks, grads.blocks):
            flat = theta.reshape(-1)
            num = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                lp = total_loss()
                flat[k] = orig - eps
                lm = total_loss()
                flat[k] = orig
                num[k] = (lp - lm) / (2 * eps)
            gf = g.reshape(-1)
            rel = np.linalg.norm(gf - num) / (np.linalg.norm(gf)
                                              + np.linalg.norm(num) + 1e-300)
            assert rel < 1e-6, name

    def test_gradient_check_at_the_protocols_length(self):
        # Criterion 4 checks BPTT at T = 7; this checks it at the protocol's
        # hop-1 length, T = 4970, where an error that grows with T would
        # show.  Each block is checked at its largest-|gradient| entry.
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        H, D, T, B = 5, 10, 4970, 2
        model = init_model(H, seed=4)
        X = rng.normal(size=(B, T, D))
        labels = np.array([0, 1])
        grads = dict(grads_of(model, X, labels).blocks)

        def mean_loss():
            p = nnet._forward_batch(model, X, workspace(model, X))[0]
            return float(-np.log(p[np.arange(B), labels]).mean())

        eps = 1e-5
        params = dict(model.blocks)
        for name in ("layer1.fw.recurrent_weights",
                     "layer1.bw.recurrent_weights",
                     "layer2.bw.input_weights", "head.bias"):
            flat, g = params[name].reshape(-1), grads[name].reshape(-1)
            k = int(np.argmax(np.abs(g)))
            orig = flat[k]
            flat[k] = orig + eps
            lp = mean_loss()
            flat[k] = orig - eps
            lm = mean_loss()
            flat[k] = orig
            numeric = (lp - lm) / (2 * eps)
            rel = abs(g[k] - numeric) / (abs(g[k]) + abs(numeric) + 1e-300)
            assert rel < 1e-5, f"{name}: rel err {rel:.2e}"
        assert time.perf_counter() - start < 30.0

    def test_mean_gradient_linearity(self):
        rng = np.random.default_rng(10)
        model = init_model(3, seed=11)
        a = rng.normal(size=(1, 5, 10))
        b = rng.normal(size=(1, 5, 10))

        g_joint = grads_of(model, np.concatenate([a, b]), [0, 1])
        g_a = grads_of(model, a, [0])
        g_b = grads_of(model, b, [1])
        for (_, gj), (_, ga), (_, gb) in zip(g_joint.blocks, g_a.blocks,
                                             g_b.blocks):
            assert np.allclose(gj, 0.5 * (ga + gb), atol=1e-14)

    @pytest.mark.parametrize("lengths", [(199,) * 16])
    def test_training_batch_peaks_at_its_forward_cache(self, lengths):
        # Each buffer is freed after its last reader, so one step holds no
        # more than the batch's forward cache, plus small per-step buffers
        # and the input (its copy out of the training set included).
        rng = np.random.default_rng(13)
        model = init_model(30, seed=13)
        values = [rng.normal(size=(T, 10)) for T in lengths]
        labels = np.arange(len(lengths)) % 2
        velocity = BiLSTMModel(30)
        peak = traced_peak(lambda: sgdm_step(
            model, grads_of(model, np.stack(values), labels), velocity))
        assert peak <= 1.10 * forward_cache_bytes(30, len(lengths), lengths[0])


class TestSgdm:
    def _scalar_model(self, value=0.0):
        model = zero_model(H=1)
        model.head_bias[0] = value
        return model

    def test_two_step_momentum_accumulation(self):
        model = self._scalar_model()
        grads = BiLSTMModel(1)
        grads.head_bias[0] = 1.0
        velocity = BiLSTMModel(1)
        sgdm_step(model, grads, velocity)
        assert model.head_bias[0] == pytest.approx(-0.01)
        grads.head_bias[0] = 1.0
        sgdm_step(model, grads, velocity)
        assert model.head_bias[0] == pytest.approx(-0.01 - 0.019)

    def test_velocity_decays_geometrically_without_gradient(self):
        model = self._scalar_model()
        velocity = BiLSTMModel(1)
        velocity.head_bias[0] = 1.0
        grads = BiLSTMModel(1)
        for step in range(1, 6):
            sgdm_step(model, grads, velocity)
            assert velocity.head_bias[0] == pytest.approx(0.9 ** step)

    @pytest.mark.parametrize("name, value", [("epochs", float("nan")),
                                             ("epochs", True),
                                             ("batch_size", 2.5),
                                             ("batch_size", True),
                                             ("seed", 2.5),
                                             ("seed", False)])
    def test_non_integer_count_rejected(self, name, value):
        # Each would otherwise fail later, inside train's range() or numpy's
        # seeding, or (a bool) run as 0 or 1.  The seed is train's argument.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            if name == "seed":
                train(toy_blobs(2), 3, TrainConfig(epochs=1), seed=value)
            else:
                TrainConfig(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            train(toy_blobs(2), 3, TrainConfig(epochs=1), seed=-1)

    def test_seed_is_an_argument_of_train(self):
        with pytest.raises(TypeError, match="seed"):
            TrainConfig(seed=0)
        with pytest.raises(TypeError, match="seed"):
            train(toy_blobs(2), 3, TrainConfig(epochs=1))

    def test_train_config_frozen(self):
        # A shared default, such as run_grid's, cannot be changed in place.
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().epochs = 0

    def test_numpy_integer_counts_accepted(self):
        config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(3))
        assert (config.epochs, config.batch_size) == (2, 3)


class TestTrain:
    def test_nan_in_sequence_stops_training(self):
        data = toy_blobs(4)
        data[0].values[2, 3] = np.nan
        with pytest.raises(PcgError, match="nan"):
            train(data, 3, TrainConfig(epochs=2), seed=20)

    def test_non_finite_parameters_after_last_step_refused(self, monkeypatch):
        # The loss is checked before each step, so no loss sees the last
        # step's result: with one batch, the one step is the last, and an
        # infinite learning rate leaves theta infinite.
        monkeypatch.setattr(nnet, "LEARNING_RATE", math.inf)
        with pytest.raises(PcgError, match="after the last step"):
            train(toy_blobs(4), 3, TrainConfig(epochs=1, batch_size=16),
                  seed=0)

    def test_zero_learning_rate_keeps_init(self, monkeypatch):
        monkeypatch.setattr(nnet, "LEARNING_RATE", 0.0)
        data = toy_blobs(4)
        config = TrainConfig(epochs=3)
        model, _ = train(data, 3, config, seed=21)
        fresh = init_model(3, seed=21)
        for (_, a), (_, b) in zip(model.blocks, fresh.blocks):
            assert np.array_equal(a, b)

    def test_separable_blobs_reach_full_accuracy(self):
        data = toy_blobs(8)
        config = TrainConfig(epochs=50)
        _, history = train(data, 4, config, seed=22)
        assert max(history.accuracies) == 1.0
        assert history.accuracies[-1] == 1.0

    def test_deterministic_history(self):
        data = toy_blobs(4)
        config = TrainConfig(epochs=5)
        m1, h1 = train(data, 3, config, seed=23)
        m2, h2 = train(data, 3, config, seed=23)
        assert h1.losses == h2.losses
        assert h1.accuracies == h2.accuracies
        for (_, a), (_, b) in zip(m1.blocks, m2.blocks):
            assert np.array_equal(a, b)

    def test_full_batch_small_lr_loss_non_increasing(self, monkeypatch):
        monkeypatch.setattr(nnet, "LEARNING_RATE", 1e-3)
        monkeypatch.setattr(nnet, "MOMENTUM", 0.0)
        data = toy_blobs(4)
        config = TrainConfig(epochs=20, batch_size=len(data))
        _, history = train(data, 3, config, seed=24)
        diffs = np.diff(history.losses)
        assert np.all(diffs <= 1e-9)

    def test_single_class_rejected(self):
        data = [make_seq(np.random.default_rng(i).normal(size=(4, 10)),
                         label=Label.HEALTHY, sid=str(i)) for i in range(4)]
        with pytest.raises(PcgError, match="both classes"):
            train(data, 3, TrainConfig(epochs=1), seed=0)

    def test_empty_sequence_named(self):
        # Refused when made, so no list that train takes holds one.
        with pytest.raises(ValueError, match="sequence 'void' has no frames"):
            make_seq(np.zeros((0, 10)), sid="void")

    def test_sequence_without_feature_columns_named(self):
        # Width 0 would train a model that sees no input, its loss at ln 2.
        with pytest.raises(ValueError,
                           match="^sequence 'z0' has 0 features per frame, "
                                 "not 10$"):
            make_seq(np.zeros((5, 0)), sid="z0")

    def test_unlabeled_sequence_named(self):
        data = toy_blobs(2) + [make_seq(np.ones((5, 10)), label=Label.UNLABELED,
                                        sid="u")]
        with pytest.raises(PcgError,
                           match="^sequence 'u' is unlabeled$"):
            train(data, 3, TrainConfig(epochs=1), seed=0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_sequences_refused(self, n):
        with pytest.raises(PcgError, match="both classes"):
            train(toy_blobs(1)[:n], 3, TrainConfig(epochs=1), seed=0)

    def test_mixed_lengths_refused(self):
        # One (window, hop) gives one length, so mixed lengths mean mixed
        # feature sets: the first sequence that differs is named.
        rng = np.random.default_rng(26)
        data = [make_seq(rng.normal(size=(T, 10)), label=label, sid=sid)
                for T, label, sid in ((4, Label.HEALTHY, "a"),
                                      (4, Label.PATHOLOGICAL, "b"),
                                      (6, Label.PATHOLOGICAL, "c"))]
        with pytest.raises(PcgError,
                           match=r"^sequence 2 \('c'\) has values shape "
                                 r"\(6, 10\), sequence 0 \('a'\) has \(4, 10\)"):
            train(data, 3, TrainConfig(epochs=1), seed=0)

    @pytest.mark.parametrize("field, value", [
        ("window", WindowSpec(WindowShape.GAUSSIAN, 7)),
        ("hop", 2),
        ("bins", 11),
        ("normalized", False)])
    def test_mixed_feature_config_refused(self, field, value):
        # Same shape, different provenance: still two feature sets.
        data = toy_blobs(4)
        data[5] = dataclasses.replace(data[5], **{field: value})
        key = "window_shape" if field == "window" else field  # sidecar key
        with pytest.raises(PcgError,
                           match=rf"^sequence 5 \('pathological1'\) has "
                                 rf"{key} "):
            train(data, 3, TrainConfig(epochs=1), seed=0)
        with pytest.raises(PcgError, match=r"^sequence 5 "):
            nnet.predict_batch(init_model(3, seed=0), data)


def forward_argmax(model, seqs):
    """The per-sequence reference for predict_batch."""
    return [int(np.argmax(probs_of(model, s))) for s in seqs]


class TestPredict:
    def test_argmax(self):
        data = toy_blobs(8, seed=1)
        model, _ = train(data, 3, TrainConfig(epochs=30), seed=26)
        got = nnet.predict_batch(model, data)
        assert got.dtype == np.int64
        assert got.tolist() == forward_argmax(model, data)

    def test_shuffled_input_keeps_input_order(self):
        # Shuffled classes: each prediction must stay at its sequence's
        # place in the input.
        data = toy_blobs(6, T=5, seed=5)
        model, _ = train(data, 3, TrainConfig(epochs=20), seed=31)
        np.random.default_rng(31).shuffle(data)
        want = forward_argmax(model, data)
        assert set(want) == {0, 1}
        assert nnet.predict_batch(model, data).tolist() == want

    def test_tie_resolves_to_class_zero(self):
        rng = np.random.default_rng(27)
        seqs = [make_seq(rng.normal(size=(5, 10))) for _ in range(3)]
        assert nnet.predict_batch(zero_model(), seqs).tolist() == [0, 0, 0]

    def test_logit_shift_invariance(self):
        model = init_model(3, seed=28)
        rng = np.random.default_rng(29)
        seqs = [make_seq(rng.normal(size=(6, 10))) for _ in range(4)]
        base = nnet.predict_batch(model, seqs)
        model.head_bias += 7.5  # shared offset on both logits
        assert np.array_equal(nnet.predict_batch(model, seqs), base)

    def test_empty_list(self):
        got = nnet.predict_batch(init_model(3, seed=30), [])
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_sequence_without_frames_is_named(self):
        with pytest.raises(ValueError, match="'e'"):
            make_seq(np.empty((0, 10)), sid="e")

    def test_model_width_mismatch_refused(self):
        # The network takes nnet.INPUT_SIZE features per frame; a sequence
        # of any other width is refused when made, before train or
        # predict_batch could take it.
        with pytest.raises(ValueError,
                           match=r"^sequence 'w' has 4 features per frame, "
                                 r"not 10$"):
            make_seq(np.ones((5, 4)), sid="w")

    def test_mixed_lengths_refused(self):
        seqs = [make_seq(np.ones((T, 10)), sid=sid)
                for T, sid in ((5, "a"), (5, "b"), (3, "c"))]
        with pytest.raises(PcgError,
                           match=r"^sequence 2 \('c'\) has values shape"):
            nnet.predict_batch(init_model(3, seed=30), seqs)
        model = init_model(3, seed=30)
        model.feature_config = seqs[0].config  # the lengths still differ
        with pytest.raises(PcgError, match=r"^sequence 2 \('c'\) has values "
                                           r"shape \(3, 10\), sequence 0 "):
            nnet.predict_batch(model, seqs)

    @pytest.mark.parametrize("field, value", [
        ("window", WindowSpec(WindowShape.GAUSSIAN, 7)),
        ("hop", 2),
        ("bins", 11),
        ("normalized", False)])
    def test_features_made_another_way_refused(self, field, value):
        # One feature config throughout, but not the one trained on.
        data = toy_blobs(4)
        model, _ = train(data, 3, TrainConfig(epochs=1), seed=0)
        assert model.feature_config == data[0].config
        other = [dataclasses.replace(seq, **{field: value}) for seq in data]
        key = "window_shape" if field == "window" else field  # sidecar key
        want = data[0].config[key]
        with pytest.raises(PcgError, match="^" + re.escape(
                f"sequence 0 ('healthy0') has {key} {other[0].config[key]}, "
                f"the model has {want}: a model takes the features it was "
                "trained on") + "$"):
            nnet.predict_batch(model, other)

    def test_feature_record_missing_a_key_refused(self):
        # A model file's record is read as it is; a key it lacks differs.
        data = toy_blobs(2)
        model = init_model(3, seed=0)
        model.feature_config = {k: v for k, v in data[0].config.items()
                                if k != "bins"}
        with pytest.raises(PcgError, match=r"^sequence 0 \('healthy0'\) has "
                                           r"bins 10, the model has None: "):
            nnet.predict_batch(model, data)

    def test_peaks_at_its_forward_cache(self):
        rng = np.random.default_rng(32)
        model = init_model(30, seed=32)
        seqs = [make_seq(rng.normal(size=(199, 10))) for _ in range(16)]
        peak = traced_peak(lambda: nnet.predict_batch(model, seqs))
        assert peak <= 1.10 * forward_cache_bytes(30, 16, 199)

    def test_long_list_runs_in_training_batch_chunks(self):
        # 64 sequences peak at one 16-sequence chunk's cache, not four, and
        # each chunk predicts as it would alone.
        rng = np.random.default_rng(33)
        model = init_model(30, seed=33)
        seqs = [make_seq(rng.normal(size=(199, 10)), sid=str(k))
                for k in range(64)]
        n = TrainConfig().batch_size
        assert n == 16
        want = np.concatenate([nnet.predict_batch(model, seqs[k:k + n])
                               for k in range(0, 64, n)])
        assert set(want.tolist()) == {0, 1}
        assert nnet.predict_batch(model, seqs).tolist() == want.tolist()
        # So does one 64-row forward pass.
        X = np.stack([s.values for s in seqs])
        probs = nnet._forward_batch(model, X, workspace(model, X))[0]
        assert probs.argmax(axis=1).tolist() == want.tolist()
        # The 48 more sequences cost their stacked rows, not three arenas.
        peak = traced_peak(lambda: nnet.predict_batch(model, seqs))
        first = traced_peak(lambda: nnet.predict_batch(model, seqs[:n]))
        assert peak - first <= 1.5 * 48 * 199 * nnet.INPUT_SIZE * 8


def uneven_train_set():
    """17 labelled sequences: batches of 5 leave a last batch of 2."""
    rng = np.random.default_rng(46)
    return [make_seq(rng.normal(size=(25, 10)) + (0.5 if k % 2 else -0.5),
                     label=(Label.HEALTHY, Label.PATHOLOGICAL)[k % 2],
                     sid=str(k)) for k in range(17)]


class TestWorkspace:
    """`train` and `predict_batch` carve every batch from one workspace per
    call, a smaller last batch included; that changes no bit."""

    def test_train_equals_steps_with_a_fresh_workspace_each(self):
        data = uneven_train_set()
        model, history = train(data, 30, TrainConfig(epochs=3, batch_size=5),
                               seed=46)
        # train's loop by hand, each batch in a workspace of its own.
        X = np.stack([seq.values for seq in data])
        y = nnet.class_indices(data)
        want = init_model(30, seed=46)
        velocity = BiLSTMModel(30)
        shuffle_rng = np.random.default_rng([46, 1])
        losses = []
        for _ in range(3):
            perm = shuffle_rng.permutation(17)
            total = 0.0
            for start in range(0, 17, 5):
                idx = perm[start:start + 5]
                loss, _, grads = nnet._batch_grads(
                    want, X[idx], y[idx], workspace(want, X[idx]))
                sgdm_step(want, grads, velocity)
                total += loss
            losses.append(total / 17)
        assert len(idx) == 2
        assert model.theta.tobytes() == want.theta.tobytes()
        assert np.array(history.losses).tobytes() == np.array(losses).tobytes()

    def test_predict_equals_one_call_per_chunk(self):
        rng = np.random.default_rng(47)
        model = init_model(30, seed=47)
        seqs = [make_seq(rng.normal(size=(50, 10)), sid=str(k))
                for k in range(40)]
        want = np.concatenate([nnet.predict_batch(model, seqs[k:k + 16])
                               for k in (0, 16, 32)])
        assert set(want.tolist()) == {0, 1}
        assert nnet.predict_batch(model, seqs).tolist() == want.tolist()
        # The last chunk's probabilities, carved from a workspace that a
        # full chunk used first, keep every bit.
        X = np.stack([seq.values for seq in seqs])
        ws = workspace(model, X[:16])
        nnet._forward_batch(model, X[:16], ws)
        probs = nnet._forward_batch(model, X[32:], ws)[0]
        assert probs.tobytes() == nnet._forward_batch(
            model, X[32:], workspace(model, X[32:]))[0].tobytes()

    def test_train_call_peaks_at_one_forward_cache(self):
        # Three batches (16, 16 and 8) share one arena, not one per batch or
        # per batch size; the call also holds its stacked training set.
        rng = np.random.default_rng(48)
        data = [make_seq(rng.normal(size=(199, 10)),
                         label=(Label.HEALTHY, Label.PATHOLOGICAL)[k % 2],
                         sid=str(k)) for k in range(40)]
        peak = traced_peak(lambda: train(
            data, 30, TrainConfig(epochs=1, batch_size=16), seed=48))
        assert peak <= (1.10 * forward_cache_bytes(30, 16, 199)
                        + 40 * 199 * 10 * 8)

    @pytest.mark.parametrize("call", ["train", "predict_batch"])
    def test_peak_bytes_is_the_traced_peak(self, call):
        # A train call whose last batch is uneven (16, 16 and 8), and a
        # predict_batch call over four 16-row chunks.
        n = {"train": 40, "predict_batch": 64}[call]
        rng = np.random.default_rng(50)
        data = [make_seq(rng.normal(size=(199, 10)),
                         label=(Label.HEALTHY, Label.PATHOLOGICAL)[k % 2],
                         sid=str(k)) for k in range(n)]
        model = init_model(30, seed=50)
        run = {"train": lambda: train(
                   data, 30, TrainConfig(epochs=1, batch_size=16), seed=50),
               "predict_batch": lambda: nnet.predict_batch(model, data)}[call]
        estimate = nnet.peak_bytes(30, 16, 199, n)
        assert abs(traced_peak(run) - estimate) <= 0.10 * estimate

    def test_peak_bytes_counts_a_train_batch_copies(self):
        # At H = 5 the arena is small: with one of the two batch copies
        # left uncounted, the estimate reads 9 % under the peak.
        rng = np.random.default_rng(50)
        data = [make_seq(rng.normal(size=(199, 10)),
                         label=(Label.HEALTHY, Label.PATHOLOGICAL)[k % 2],
                         sid=str(k)) for k in range(28)]
        peak = traced_peak(lambda: train(
            data, 5, TrainConfig(epochs=1, batch_size=16), seed=50))
        estimate = nnet.peak_bytes(5, 16, 199, 28)
        assert abs(peak - estimate) <= 0.05 * estimate

    def test_hidden_size_of_any_length_is_refused_by_name(self):
        with pytest.raises(ValueError, match=(
                "^hidden size an integer of 5001 digits at batch 1 and T = 1 "
                "needs an integer of 10003 digits bytes, ")):
            init_model(10**5000, seed=0)

    @pytest.mark.parametrize("H, B, T", [(30, 16, 199), (5, 3, 7), (100, 1, 2)])
    def test_arena_is_the_forward_cache(self, H, B, T):
        assert nnet._Workspace(H, B, T).arena.nbytes == forward_cache_bytes(
            H, B, T) == nnet.arena_bytes(H, B, T)

    def test_arena_of_nan_gives_the_bits_of_a_fresh_one(self):
        # A full batch, then a smaller last one, on one workspace whose
        # memory holds NaN: every row the passes read they wrote first,
        # layer 2's one hidden-state row and the reused rows included.
        rng = np.random.default_rng(49)
        model = init_model(30, seed=49)
        X = rng.normal(size=(21, 50, 10))
        y = rng.integers(0, 2, size=21)
        ws = workspace(model, X[:16])
        for rows in (slice(0, 16), slice(16, 21)):
            fresh = workspace(model, X[rows])
            for buffer in (ws.arena, ws.wide, ws.narrow):
                buffer[...] = np.nan
            probs = nnet._forward_batch(model, X[rows], ws)[0]
            assert probs.tobytes() == nnet._forward_batch(
                model, X[rows], fresh)[0].tobytes()
            ws.arena[...] = np.nan
            loss, correct, grads = nnet._batch_grads(model, X[rows], y[rows],
                                                     ws)
            want = nnet._batch_grads(model, X[rows], y[rows],
                                     workspace(model, X[rows]))
            assert (loss, correct) == want[:2]
            assert grads.theta.tobytes() == want[2].theta.tobytes()

    def test_arena_beyond_physical_memory_refused(self, monkeypatch):
        data = toy_blobs(2, T=9)
        model = init_model(3, seed=0)
        size = nnet.peak_bytes(3, 4, 9, 4)
        monkeypatch.setattr(nnet, "_physical_memory", lambda: size - 1)
        message = re.escape(
            f"hidden size 3 at batch 4 and T = 9 needs {size} bytes, more "
            f"than the {size - 1} bytes of memory")
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(data, 3, TrainConfig(epochs=1), seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            nnet.predict_batch(model, data)
        # An arena that fits, or memory that cannot be read, is not refused.
        for memory in (size, None):
            monkeypatch.setattr(nnet, "_physical_memory", lambda: memory)
            assert len(nnet.predict_batch(model, data)) == 4

    def test_physical_memory_is_read_where_sysconf_has_it(self, monkeypatch):
        memory = nnet._physical_memory()
        assert memory is None or memory > 2**20
        monkeypatch.delattr(nnet.os, "sysconf")
        assert nnet._physical_memory() is None


class TestPinnedBits:
    """Probabilities and gradients pinned bit for bit, so that a change
    meant to keep every output bit (a faster step loop, say) is checked to.
    The pins come from numpy 2.4 with OpenBLAS 0.3.31 on x86-64 at two
    BLAS threads (OPENBLAS_NUM_THREADS=2, as CI runs them); another BLAS
    may round its matmuls differently, and so does one thread, on the
    K = 3184 weight-gradient matmuls of the (30, 16, 199) case."""

    PROBS = [
        "0x1.f8526a5ef2968p-2", "0x1.d7a0da5dcaa88p-2", "0x1.fe14a55585612p-2",
        "0x1.ff48dd3594012p-2", "0x1.118494ba805aep-1", "0x1.f07fbca4f4befp-2",
        "0x1.04a9002474a23p-1", "0x1.ffb9a26418a36p-2", "0x1.faced624900afp-2",
        "0x1.fb47a0028b7f5p-2", "0x1.f14cf69ba2e5ep-2", "0x1.ffce80338b7f6p-2",
        "0x1.0bc728c6ea2c9p-1", "0x1.e8f83b221a736p-2", "0x1.08c02b68a9beep-1",
        "0x1.f4f0b003e2d16p-2"]
    # sha256 of the 1302 gradient values as little-endian float64.
    GRADS = "f5408ac12018963a8eb7b13fcd49547fe7a241aaf2a047d79b1a61069d121dbc"

    def test_batch_of_16_at_hidden_5(self):
        rng = np.random.default_rng(40)
        model = init_model(5, seed=40)
        X = rng.normal(size=(16, 6, 10))
        y = rng.integers(0, 2, size=16)
        probs = nnet._forward_batch(model, X, workspace(model, X))[0]
        grads = grads_of(model, X, y)
        assert [float.hex(float(p)) for p in probs[:, 1]] == self.PROBS
        theta = grads.theta.astype("<f8")
        assert theta.size == 1302
        assert hashlib.sha256(theta.tobytes()).hexdigest() == self.GRADS

    # sha256 of the _batch_grads gradients as little-endian float64, on
    # init_model(H, seed=H) and a batch drawn from default_rng([H, B, T]).
    BPTT_GRADS = {
        (5, 3, 7):
            "0224e6653bb587f07ed3d51974dfbc50b6425a2dda14fefe765094fe7be0ed2e",
        (30, 16, 199):
            "94c602b4915978a3d8d9ed8e8dece84dac2f1445bfeda5547f0a8d78721aaf92",
        (100, 4, 33):
            "097675d64da8586abdce896f5c63be43de7d7bdc847d6e911249670e25bf160c",
        # Each side of where layer 2's input projection becomes one GEMM
        # (nnet._one_gemm), pinned before it did.
        (30, 10, 199):
            "6be01a1c17ea43d990c8d482dc481bf9ab1818eb1281f2214223f87411f9d52f",
        (30, 11, 199):
            "e013f2cff026d396e634b37efbfd09da5c663c11edd223d4522c6dc506ee28c5",
        (50, 6, 33):
            "7ae702ecc7c00878e908996dd0fa3b1a790a00f14a9a3dfc601421e9df64325d",
        (50, 7, 33):
            "e8a55b745f5e35a2becafbeceb6a8c8cc5355df596262b6166f2b4b72cb2b99c",
    }
    # sha256 of a 5-epoch H = 30 train's theta followed by its losses.
    TRAIN = "3c3ab248d0a61b8a7f98f108677f66c2eaab0aebbca522f98a2815d7a2ab2a33"
    # The same for 3 epochs on uneven_train_set(), whose last batch is 2 of 5.
    UNEVEN_TRAIN = (
        "0152248569f8b8dcf7cc2f93cb03f26de16862d61870b471545663806f80b234")

    @pytest.mark.parametrize("H, B, T", list(BPTT_GRADS))
    def test_bptt_gradients(self, H, B, T):
        rng = np.random.default_rng([H, B, T])
        model = init_model(H, seed=H)
        X = rng.normal(size=(B, T, 10))
        y = rng.integers(0, 2, size=B)
        grads = grads_of(model, X, y)
        theta = grads.theta.astype("<f8")
        assert hashlib.sha256(theta.tobytes()).hexdigest() == (
            self.BPTT_GRADS[H, B, T])

    def test_trained_theta_and_losses(self):
        rng = np.random.default_rng(44)
        data = [make_seq(rng.normal(size=(9, 10)) + (0.5 if k % 2 else -0.5),
                         label=(Label.HEALTHY, Label.PATHOLOGICAL)[k % 2],
                         sid=str(k)) for k in range(12)]
        model, history = train(data, 30, TrainConfig(epochs=5, batch_size=4),
                               seed=45)
        bits = np.concatenate([model.theta, history.losses]).astype("<f8")
        assert hashlib.sha256(bits.tobytes()).hexdigest() == self.TRAIN

    def test_trained_theta_and_losses_with_an_uneven_last_batch(self):
        model, history = train(uneven_train_set(), 30,
                               TrainConfig(epochs=3, batch_size=5), seed=46)
        bits = np.concatenate([model.theta, history.losses]).astype("<f8")
        assert hashlib.sha256(bits.tobytes()).hexdigest() == self.UNEVEN_TRAIN


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = init_model(5, seed=30)
        path = tmp_path / "model.bin"
        save_model(model, path, config={"epochs": 7, "batch_size": 16,
                                        "seed": 30})
        back = load_model(path)
        assert back.hidden_size == 5
        for (na, a), (nb, b) in zip(model.blocks, back.blocks):
            assert na == nb
            assert np.array_equal(a, b)

    def test_hwm1_file_refused_as_old_format(self, tmp_path):
        # pcgkit 0.10.0 and earlier wrote HWM1 files, which record no
        # feature config: there is nothing to hold features to.
        path = tmp_path / "model.bin"
        save_model(init_model(3, seed=30), path)
        path.write_bytes(b"HWM1" + path.read_bytes()[4:])
        with pytest.raises(PcgError, match="^" + re.escape(
                f"{path}: an HWM1 model file, the old format of pcgkit "
                "0.10.0 and earlier")):
            load_model(path)

    def test_feature_record_roundtrip(self, tmp_path):
        data = toy_blobs(4)
        model, _ = train(data, 3, TrainConfig(epochs=1), seed=0)
        path = tmp_path / "model.bin"
        save_model(model, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 4)
        descriptor = json.loads(raw[8:8 + hlen])
        assert descriptor["feature_names"] == list(FEATURE_NAMES)
        assert descriptor["feature_config"] == data[0].config
        assert load_model(path).feature_config == data[0].config

    def test_feature_record_of_another_file_loads(self, tmp_path):
        # The record that MODEL_FILE_MUTATIONS breaks one key of is sound.
        path = tmp_path / "model.bin"
        save_model(init_model(3, seed=0), path)
        path.write_bytes(_feature_record_edit(FEATURE_RECORD)(
            path.read_bytes()))
        assert load_model(path).feature_config == FEATURE_RECORD

    @pytest.mark.parametrize("hidden, config", [
        (np.int64(3), None), (3, {"epochs": np.int64(2)})],
        ids=["hidden-size", "train-config"])
    def test_numpy_integers_written_as_json_integers(self, tmp_path, hidden,
                                                     config):
        save_model(init_model(hidden, seed=0), tmp_path / "numpy.bin", config)
        plain = config and {k: int(v) for k, v in config.items()}
        save_model(init_model(3, seed=0), tmp_path / "int.bin", plain)
        raw = (tmp_path / "numpy.bin").read_bytes()
        assert raw == (tmp_path / "int.bin").read_bytes()
        assert load_model(tmp_path / "numpy.bin").hidden_size == 3

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(PcgError, match="bad magic"):
            load_model(path)

    def test_header_format(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init_model(3, seed=31), path)
        raw = path.read_bytes()
        assert raw[:4] == b"HWM2"
        (hlen,) = struct.unpack_from("<I", raw, 4)
        descriptor = json.loads(raw[8:8 + hlen])
        assert descriptor["hidden_size"] == 3
        total = sum(int(np.prod(shape)) for _, shape in descriptor["blocks"])
        assert len(raw) == 8 + hlen + 8 * total

    def test_format_pinned(self, tmp_path):
        # Any change to the magic, the layout, the descriptor or the order
        # of the initializer's draws changes these bytes.
        path = tmp_path / "model.bin"
        save_model(init_model(2, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b9642c27b50c0f041bb35ccd6aabf183941f9a2efb68cd773343d4036772133c")
        save_model(load_model(path), tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("mutation", sorted(MODEL_FILE_MUTATIONS))
    def test_malformed_file_raises_corrupt_model(self, tmp_path, mutation):
        path = tmp_path / "model.bin"
        save_model(init_model(3, seed=32), path)
        path.write_bytes(MODEL_FILE_MUTATIONS[mutation](path.read_bytes()))
        with pytest.raises(PcgError, match=f"^{re.escape(str(path))}"):
            load_model(path)

    @pytest.mark.parametrize("mutation, message", [
        ("float_input_size", "input_size 10.0, expected 10"),
        ("float_num_layers", "num_layers 2.0, expected 2"),
        ("float_block_shape", "blocks ['layer1.fw.input_weights', [12.0, 10]], "
                              "expected ['layer1.fw.input_weights', [12, 10]]"),
        ("float_feature_L", "feature_config: L must be an even int, got 30.0"),
    ], ids=["input-size", "num-layers", "block-shape", "feature-L"])
    def test_header_value_of_another_json_type_named(self, tmp_path, mutation,
                                                     message):
        path = tmp_path / "model.bin"
        save_model(init_model(3, seed=33), path)
        path.write_bytes(MODEL_FILE_MUTATIONS[mutation](path.read_bytes()))
        with pytest.raises(PcgError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_bool_block_dimension_refused_at_hidden_1(self, tmp_path):
        # At H = 1 a recurrent block is [4, 1], and true == 1 in Python.
        path = tmp_path / "model.bin"
        save_model(init_model(1, seed=34), path)
        path.write_bytes(_header_edit(
            b'"layer1.fw.recurrent_weights", [4, 1]',
            b'"layer1.fw.recurrent_weights", [4, true]')(path.read_bytes()))
        with pytest.raises(PcgError, match=re.escape(
                f"{path}: blocks ['layer1.fw.recurrent_weights', [4, True]], "
                "expected ['layer1.fw.recurrent_weights', [4, 1]]")):
            load_model(path)
