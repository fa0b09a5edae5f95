import hashlib
import json
import math
import struct

import numpy as np
import pytest

from pcgkit import nnet
from pcgkit.errors import (CorruptModel, EmptySequence, NonFiniteLoss,
                           SingleClassDataset)
from pcgkit.features import FeatureSequence
from pcgkit.ingest import Label
from pcgkit.nnet import (
    BiLayer,
    LstmDirectionParams,
    TrainConfig,
    init_model,
    load_model,
    param_blocks,
    save_model,
    sgdm_step,
    train,
    zeros_like_model,
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


def zero_model(H=3, D=10):
    model = init_model(H, seed=0, input_size=D)
    for _, arr in param_blocks(model):
        arr[...] = 0.0
    return model


def _rewrite_header(raw, edit):
    """raw with its JSON header replaced by edit(header), length fixed up."""
    (hlen,) = struct.unpack_from("<I", raw, 4)
    header = edit(raw[8:8 + hlen])
    assert header != raw[8:8 + hlen]
    return raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + hlen:]


def _header_edit(old, new):
    return lambda raw: _rewrite_header(raw, lambda h: h.replace(old, new))


# Ways to break the file that save_model writes for init_model(3, seed=...)
# with the default input size of 10.
MODEL_FILE_MUTATIONS = {
    "trailing_8_bytes": lambda raw: raw + bytes(8),
    "cut_16_bytes": lambda raw: raw[:-16],
    "cut_to_6_bytes": lambda raw: raw[:6],
    "unknown_block_name": _header_edit(b"layer1.fw.bias", b"layer1.fw.gain"),
    "wrong_block_shape": _header_edit(b"[12, 10]", b"[10, 12]"),
    "wrong_input_size": _header_edit(b'"input_size": 10', b'"input_size": 11'),
    "zero_hidden_size": _header_edit(b'"hidden_size": 3', b'"hidden_size": 0'),
    "bool_hidden_size": _header_edit(b'"hidden_size": 3', b'"hidden_size": true'),
    "missing_dtype": _header_edit(b', "dtype": "<f8"', b""),
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
        for (_, x), (_, y) in zip(param_blocks(a), param_blocks(b)):
            assert np.array_equal(x, y)
        c = init_model(5, seed=43)
        assert not np.array_equal(a.layers[0].forward.input_weights,
                                  c.layers[0].forward.input_weights)

    def test_shapes_for_hidden_5(self):
        m = init_model(5, seed=0)
        assert m.layers[0].forward.input_weights.shape == (20, 10)
        # layer 2 consumes the 2H-wide concatenation of layer 1
        assert m.layers[1].forward.input_weights.shape == (20, 10)
        assert m.layers[1].backward.recurrent_weights.shape == (20, 5)
        assert m.head_weights.shape == (2, 10)
        assert m.head_bias.shape == (2,)

    def test_forget_gate_bias_is_one(self):
        m = init_model(4, seed=0)
        for layer in m.layers:
            for d in (layer.forward, layer.backward):
                assert np.all(d.bias[4:8] == 1.0)
                assert np.all(d.bias[:4] == 0.0)
                assert np.all(d.bias[8:] == 0.0)

    def test_blocks_are_views_of_theta(self):
        m = init_model(3, seed=0, input_size=4)
        blocks = param_blocks(m)
        assert [name for name, _ in blocks] == [
            name for name, _ in nnet.param_layout(3, 4)]
        m.layers[1].backward.bias[0] = 42.0
        m.theta[-1] = 7.0
        assert m.head_bias[-1] == 7.0
        assert np.count_nonzero(m.theta == 42.0) == 1
        assert np.array_equal(
            np.concatenate([b.ravel() for _, b in blocks]), m.theta)

    def test_glorot_bounds(self):
        m = init_model(30, seed=1)
        W = m.layers[0].forward.input_weights
        s = np.sqrt(6.0 / (W.shape[0] + W.shape[1]))
        assert np.all(np.abs(W) <= s)


def _layer(fw, bw=None):
    return BiLayer(forward=fw, backward=fw if bw is None else bw)


class TestCellStep:
    """The LSTM step as production runs it: both directions of one layer.

    `_layer_forward` keeps its buffers in step order: step s is time s of
    the forward direction and time T-1-s of the backward one, and index 0
    of the state buffers holds the zero initial state.
    """

    def test_zero_params_give_zero_state(self):
        p = LstmDirectionParams(np.zeros((12, 10)), np.zeros((12, 3)), np.zeros(12))
        U = np.random.default_rng(0).normal(size=(4, 2, 10))  # (T, B, D)
        cache = nnet._layer_forward(_layer(p), U)
        assert np.array_equal(cache["Hs"], np.zeros((2, 5, 2, 3)))
        assert np.array_equal(cache["C"], np.zeros((2, 5, 2, 3)))

    def test_saturated_forget_gate_carries_cell(self):
        rng = np.random.default_rng(1)
        H, D = 3, 4
        p = LstmDirectionParams(rng.normal(size=(4 * H, D)) * 0.1,
                                rng.normal(size=(4 * H, H)) * 0.1,
                                np.zeros(4 * H))
        p.bias[H:2 * H] = 50.0  # forget gate pinned at 1
        U = rng.normal(size=(2, 1, D))
        cache = nnet._layer_forward(_layer(p), U)
        # Step 2 sees time 1 in the forward direction, time 0 in the backward.
        for d, t in ((0, 1), (1, 0)):
            h_prev, c_prev = cache["Hs"][d, 1, 0], cache["C"][d, 1, 0]
            assert np.all(c_prev != 0.0)
            z = p.input_weights @ U[t, 0] + p.recurrent_weights @ h_prev
            i = 1 / (1 + np.exp(-z[:H]))
            g = np.tanh(z[2 * H:3 * H])
            assert np.allclose(cache["C"][d, 2, 0], c_prev + i * g, atol=1e-12)

    @staticmethod
    def _scalar_loop(p, xs):
        """Hidden and cell states of one direction, one scalar at a time."""
        import math
        H = p.recurrent_weights.shape[1]
        h, c = [0.0] * H, [0.0] * H
        states = []
        for x in xs:
            def z(row):
                return (sum(p.input_weights[row, j] * x[j] for j in range(len(x)))
                        + sum(p.recurrent_weights[row, j] * h[j] for j in range(H))
                        + p.bias[row])
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
        fw, bw = (LstmDirectionParams(rng.normal(size=(4 * H, D)),
                                      rng.normal(size=(4 * H, H)),
                                      rng.normal(size=4 * H)) for _ in range(2))
        U = rng.normal(size=(2, 1, D))
        cache = nnet._layer_forward(_layer(fw, bw), U)
        for d, (p, order) in enumerate(((fw, [0, 1]), (bw, [1, 0]))):
            states = self._scalar_loop(p, [U[t, 0] for t in order])
            for s, (h, c) in enumerate(states):
                assert cache["Hs"][d, s + 1, 0] == pytest.approx(h, abs=1e-12)
                assert cache["C"][d, s + 1, 0] == pytest.approx(c, abs=1e-12)

    def test_backward_half_is_forward_half_on_reversed_input(self):
        rng = np.random.default_rng(3)
        H, D = 5, 7
        fw, bw = (LstmDirectionParams(rng.normal(size=(4 * H, D)),
                                      rng.normal(size=(4 * H, H)),
                                      rng.normal(size=4 * H)) for _ in range(2))
        U = rng.normal(size=(9, 3, D))
        ours = nnet._layer_forward(_layer(fw, bw), U)
        swapped = nnet._layer_forward(_layer(bw, fw), U[::-1])
        for key in ("Hs", "C", "Z"):
            assert np.allclose(ours[key][1], swapped[key][0], rtol=0, atol=1e-14)
            assert np.allclose(ours[key][0], swapped[key][1], rtol=0, atol=1e-14)

    def test_batch_rows_match_single_sequence_forward(self):
        rng = np.random.default_rng(4)
        model = init_model(4, seed=5)
        X = rng.normal(size=(5, 8, 10))
        probs, _ = nnet._forward_batch(model, X)
        for b in range(5):
            single, _ = nnet.forward(model, make_seq(X[b]))
            assert np.allclose(probs[b], single, rtol=0, atol=1e-14)


class TestForward:
    def test_zero_model_is_uninformative(self):
        seq = make_seq(np.random.default_rng(3).normal(size=(6, 10)))
        probs, _ = nnet.forward(zero_model(), seq)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_probabilities_form_a_distribution(self):
        rng = np.random.default_rng(4)
        model = init_model(4, seed=5)
        for _ in range(10):
            seq = make_seq(rng.normal(size=(rng.integers(1, 12), 10)))
            probs, _ = nnet.forward(model, seq)
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
            return np.concatenate([W[:, H:], W[:, :H]], axis=1)

        l1, l2 = model.layers
        swapped = zeros_like_model(model)
        s1, s2 = swapped.layers
        for dst, src in ((s1.forward, l1.backward), (s1.backward, l1.forward),
                         (s2.forward, l2.backward), (s2.backward, l2.forward)):
            dst.input_weights[...] = src.input_weights
            dst.recurrent_weights[...] = src.recurrent_weights
            dst.bias[...] = src.bias
        for d in (s2.forward, s2.backward):
            d.input_weights[...] = swap_cols(d.input_weights)
        swapped.head_weights[...] = swap_cols(model.head_weights)
        swapped.head_bias[...] = model.head_bias

        values = rng.normal(size=(9, 10))
        p1, _ = nnet.forward(model, make_seq(values))
        p2, _ = nnet.forward(swapped, make_seq(values[::-1]))
        assert np.allclose(p1, p2, atol=1e-14)

    def test_empty_sequence_rejected(self):
        seq = make_seq(np.zeros((0, 10)))
        with pytest.raises(EmptySequence):
            nnet.forward(init_model(3, seed=0), seq)


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
            probs, _ = nnet.forward(model, s)
            per_example.append(float(-np.log(probs[y])))
        X = np.stack([s.values for s in seqs])
        probs, _ = nnet._forward_batch(model, X)
        batch_mean = float(-np.log(probs[np.arange(4), labels]).mean())
        assert batch_mean == pytest.approx(np.mean(per_example), abs=1e-12)


class TestBackward:
    def test_zero_input_kills_input_weight_gradient(self):
        # With an all-zero input sequence, dW = sum_t dz_t x_t^T = 0 for the
        # first layer's input weights while other blocks stay nonzero.
        model = init_model(3, seed=8)
        _, cache = nnet._forward_batch(model, np.zeros((1, 6, 10)))
        grads = nnet._backward_batch(model, cache, np.array([1]))
        assert np.all(grads.layers[0].forward.input_weights == 0.0)
        assert np.all(grads.layers[0].backward.input_weights == 0.0)
        # the zero input also silences every hidden state, so only the head
        # bias sees a gradient
        assert np.any(grads.head_bias != 0.0)

    def test_gradient_check_small(self):
        rng = np.random.default_rng(9)
        model = init_model(2, seed=10)
        X = rng.normal(size=(2, 4, 10))
        labels = np.array([0, 1])
        probs, cache = nnet._forward_batch(model, X)
        grads = nnet._backward_batch(model, cache, labels)

        def total_loss():
            p, _ = nnet._forward_batch(model, X)
            return float(-np.log(p[np.arange(2), labels]).mean())

        eps = 1e-6
        for (name, theta), (_, g) in zip(param_blocks(model), param_blocks(grads)):
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

    def test_mean_gradient_linearity(self):
        rng = np.random.default_rng(10)
        model = init_model(3, seed=11)
        a = rng.normal(size=(1, 5, 10))
        b = rng.normal(size=(1, 5, 10))

        def grads(X, labels):
            _, cache = nnet._forward_batch(model, X)
            return nnet._backward_batch(model, cache, np.array(labels))

        g_joint = grads(np.concatenate([a, b]), [0, 1])
        g_a = grads(a, [0])
        g_b = grads(b, [1])
        for (_, gj), (_, ga), (_, gb) in zip(param_blocks(g_joint),
                                             param_blocks(g_a),
                                             param_blocks(g_b)):
            assert np.allclose(gj, 0.5 * (ga + gb), atol=1e-14)


class TestSgdm:
    def _scalar_model(self, value=0.0):
        model = zero_model(H=1, D=1)
        model.head_bias[0] = value
        return model

    def test_zero_momentum_is_plain_sgd(self):
        model = init_model(2, seed=12)
        before = {n: a.copy() for n, a in param_blocks(model)}
        grads = zeros_like_model(model)
        for _, g in param_blocks(grads):
            g[...] = 1.0
        velocity = zeros_like_model(model)
        config = TrainConfig(learning_rate=0.05, momentum=0.0, epochs=1)
        sgdm_step(model, grads, velocity, config)
        for name, arr in param_blocks(model):
            assert np.allclose(arr, before[name] - 0.05, atol=1e-15)

    def test_two_step_momentum_accumulation(self):
        model = self._scalar_model()
        grads = zeros_like_model(model)
        grads.head_bias[0] = 1.0
        velocity = zeros_like_model(model)
        config = TrainConfig(learning_rate=0.01, momentum=0.9, epochs=1)
        sgdm_step(model, grads, velocity, config)
        assert model.head_bias[0] == pytest.approx(-0.01)
        grads.head_bias[0] = 1.0
        sgdm_step(model, grads, velocity, config)
        assert model.head_bias[0] == pytest.approx(-0.01 - 0.019)

    def test_velocity_decays_geometrically_without_gradient(self):
        model = self._scalar_model()
        velocity = zeros_like_model(model)
        velocity.head_bias[0] = 1.0
        grads = zeros_like_model(model)
        config = TrainConfig(learning_rate=0.1, momentum=0.9, epochs=1)
        for step in range(1, 6):
            sgdm_step(model, grads, velocity, config)
            assert velocity.head_bias[0] == pytest.approx(0.9 ** step)

    def test_clip_norm_rescales(self):
        model = self._scalar_model()
        grads = zeros_like_model(model)
        grads.head_bias[0] = 10.0
        velocity = zeros_like_model(model)
        config = TrainConfig(learning_rate=1.0, momentum=0.0, epochs=1,
                             clip_norm=1.0)
        sgdm_step(model, grads, velocity, config)
        assert model.head_bias[0] == pytest.approx(-1.0)

    def test_grad_norm_matches_blockwise_sum(self):
        # One reduction over theta sums in another order than block by
        # block: equal within a few ULP.
        model = init_model(4, seed=13)
        X = np.random.default_rng(13).normal(size=(3, 6, 10))
        _, cache = nnet._forward_batch(model, X)
        grads = nnet._backward_batch(model, cache, np.array([0, 1, 1]))
        blockwise = np.sqrt(sum(float(np.sum(g * g))
                                for _, g in param_blocks(grads)))
        assert nnet.global_grad_norm(grads) == pytest.approx(
            blockwise, rel=4 * np.finfo(float).eps, abs=0)

    @pytest.mark.parametrize("clip_norm", [-1.0, 0.0, float("nan")])
    def test_non_positive_clip_norm_rejected(self, clip_norm):
        # A negative bound would turn descent into ascent; zero freezes it.
        with pytest.raises(ValueError, match="clip_norm"):
            TrainConfig(clip_norm=clip_norm)


    @pytest.mark.parametrize("lr", [-1.0, float("nan")])
    def test_negative_or_nan_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)


class TestTrain:
    def test_nan_in_sequence_stops_training(self):
        data = toy_blobs(4)
        data[0].values[2, 3] = np.nan
        with pytest.raises(NonFiniteLoss, match="nan"):
            train(data, 3, TrainConfig(epochs=2, seed=20))

    def test_zero_learning_rate_keeps_init(self):
        data = toy_blobs(4)
        config = TrainConfig(learning_rate=0.0, epochs=3, seed=21)
        model, _ = train(data, 3, config)
        fresh = init_model(3, seed=21, input_size=10)
        for (_, a), (_, b) in zip(param_blocks(model), param_blocks(fresh)):
            assert np.array_equal(a, b)

    def test_separable_blobs_reach_full_accuracy(self):
        data = toy_blobs(8)
        config = TrainConfig(epochs=50, seed=22)
        _, history = train(data, 4, config)
        assert max(history.accuracies) == 1.0
        assert history.accuracies[-1] == 1.0

    def test_deterministic_history(self):
        data = toy_blobs(4)
        config = TrainConfig(epochs=5, seed=23)
        m1, h1 = train(data, 3, config)
        m2, h2 = train(data, 3, config)
        assert h1.losses == h2.losses
        assert h1.accuracies == h2.accuracies
        for (_, a), (_, b) in zip(param_blocks(m1), param_blocks(m2)):
            assert np.array_equal(a, b)

    def test_full_batch_small_lr_loss_non_increasing(self):
        data = toy_blobs(4)
        config = TrainConfig(learning_rate=1e-3, momentum=0.0, epochs=20,
                             batch_size=len(data), seed=24)
        _, history = train(data, 3, config)
        diffs = np.diff(history.losses)
        assert np.all(diffs <= 1e-9)

    def test_single_class_rejected(self):
        data = [make_seq(np.random.default_rng(i).normal(size=(4, 10)),
                         label=Label.HEALTHY, sid=str(i)) for i in range(4)]
        with pytest.raises(SingleClassDataset):
            train(data, 3, TrainConfig(epochs=1))

    def test_mixed_length_batch_weights_groups_by_size(self):
        # Lengths (4, 4, 6) run as two groups; the step must use their
        # gradients weighted by group size: 2/3 for T=4 and 1/3 for T=6.
        rng = np.random.default_rng(26)
        model = init_model(3, seed=26)
        values = [rng.normal(size=(T, 10)) for T in (4, 4, 6)]
        labels = np.array([0, 1, 1])
        config = TrainConfig(learning_rate=0.1, momentum=0.0, epochs=1)

        def group_grads(X, y):
            _, cache = nnet._forward_batch(model, X)
            return nnet._backward_batch(model, cache, y)

        g4 = group_grads(np.stack(values[:2]), labels[:2])
        g6 = group_grads(values[2][None], labels[2:])
        expected = [theta - 0.1 * (2 / 3 * a + 1 / 3 * b)
                    for (_, theta), (_, a), (_, b) in zip(
                        param_blocks(model), param_blocks(g4), param_blocks(g6))]
        nnet._train_batch(model, zeros_like_model(model), values, labels, config)
        for (name, theta), want in zip(param_blocks(model), expected):
            assert np.allclose(theta, want, rtol=0, atol=1e-15), name

    def test_momentum_ramp_changes_trajectory(self):
        data = toy_blobs(4)
        base = TrainConfig(epochs=30, seed=25)
        ramp = TrainConfig(epochs=30, seed=25, momentum_ramp=True)
        _, h_base = train(data, 3, base)
        _, h_ramp = train(data, 3, ramp)
        assert h_base.losses != h_ramp.losses


class TestPredict:
    def test_argmax(self):
        data = toy_blobs(8, seed=1)
        model, _ = train(data, 3, TrainConfig(epochs=30, seed=26))
        for seq in data:
            probs, _ = nnet.forward(model, seq)
            assert nnet.predict(model, seq) == int(np.argmax(probs))

    def test_tie_resolves_to_class_zero(self):
        seq = make_seq(np.random.default_rng(27).normal(size=(5, 10)))
        assert nnet.predict(zero_model(), seq) == 0

    def test_logit_shift_invariance(self):
        model = init_model(3, seed=28)
        seq = make_seq(np.random.default_rng(29).normal(size=(6, 10)))
        base = nnet.predict(model, seq)
        model.head_bias += 7.5  # shared offset on both logits
        assert nnet.predict(model, seq) == base


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = init_model(5, seed=30)
        config = TrainConfig(epochs=7, seed=30)
        path = tmp_path / "model.bin"
        save_model(model, path, config=config)
        back = load_model(path)
        assert back.hidden_size == 5 and back.input_size == 10
        for (na, a), (nb, b) in zip(param_blocks(model), param_blocks(back)):
            assert na == nb
            assert np.array_equal(a, b)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorruptModel, match="bad magic"):
            load_model(path)

    def test_header_format(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init_model(3, seed=31), path)
        raw = path.read_bytes()
        assert raw[:4] == b"HWM1"
        (hlen,) = struct.unpack_from("<I", raw, 4)
        descriptor = json.loads(raw[8:8 + hlen])
        assert descriptor["hidden_size"] == 3
        total = sum(int(np.prod(shape)) for _, shape in descriptor["blocks"])
        assert len(raw) == 8 + hlen + 8 * total

    def test_format_pinned(self, tmp_path):
        # Any change to the layout, the descriptor or the order of the
        # initializer's draws changes these bytes.
        path = tmp_path / "model.bin"
        save_model(init_model(2, seed=0, input_size=3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "18515c5d0b8467f014f20a4b4f6ffc07cc4486dc769a31dae0bc88e4ca886be2")
        save_model(load_model(path), tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("mutation", sorted(MODEL_FILE_MUTATIONS))
    def test_malformed_file_raises_corrupt_model(self, tmp_path, mutation):
        path = tmp_path / "model.bin"
        save_model(init_model(3, seed=32), path)
        path.write_bytes(MODEL_FILE_MUTATIONS[mutation](path.read_bytes()))
        with pytest.raises(CorruptModel):
            load_model(path)
