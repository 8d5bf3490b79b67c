"""Finite-difference checks for the hand-written layer primitives.

Every backward pass in ehrgen._nn is compared against central differences
on random inputs; these layers are the foundation the model-level gradient
tests build on, so tolerances here are tight (1e-6 relative).
"""

import warnings

import numpy as np
import pytest
from scipy.special import expit, log_softmax, softmax

from ehrgen import _nn

from oracles import (
    assert_tree_close,
    masked_lstm_backward,
    masked_lstm_forward,
    numerical_grad,
    numerical_grad_tree,
    rel_err,
    zero_grads,
)

TOL = 1e-6


def scalar_loss(out, probe):
    # fixed random projection turns any output tensor into a scalar
    return float(np.sum(out * probe))


class TestDense:
    def test_backward_matches_fd(self):
        rng = np.random.default_rng(0)
        for trial in range(3):
            params = _nn.dense_init(rng, 4, 3)
            x = rng.standard_normal((5, 4))
            probe = rng.standard_normal((5, 3))

            def run():
                out, _ = _nn.dense(params, x)
                return scalar_loss(out, probe)

            out, cache = _nn.dense(params, x)
            grads = zero_grads(params)
            dx = _nn.dense_backward(cache, grads, probe)
            assert_tree_close(grads, numerical_grad_tree(run, params), TOL, "dense")
            assert rel_err(dx, numerical_grad(run, x)) < TOL

    def test_batched_leading_dims(self):
        """dense flattens arbitrary leading dims; gradients must too."""
        rng = np.random.default_rng(1)
        params = _nn.dense_init(rng, 3, 2)
        x = rng.standard_normal((2, 4, 3))
        probe = rng.standard_normal((2, 4, 2))

        def run():
            out, _ = _nn.dense(params, x)
            return scalar_loss(out, probe)

        _, cache = _nn.dense(params, x)
        grads = zero_grads(params)
        dx = _nn.dense_backward(cache, grads, probe)
        assert_tree_close(grads, numerical_grad_tree(run, params), TOL, "dense3d")
        assert rel_err(dx, numerical_grad(run, x)) < TOL


class TestEmbedding:
    def test_backward_accumulates_repeats(self):
        """Gradient of a repeated id is the sum over its occurrences."""
        rng = np.random.default_rng(2)
        params = {"E": rng.standard_normal((6, 3))}
        ids = np.array([[0, 2, 2], [5, 0, 2]])
        probe = rng.standard_normal((2, 3, 3))

        def run():
            out, _ = _nn.embedding(params, ids)
            return scalar_loss(out, probe)

        _, cache = _nn.embedding(params, ids)
        grads = zero_grads(params)
        _nn.embedding_backward(cache, grads, probe)
        assert_tree_close(grads, numerical_grad_tree(run, params), TOL, "embedding")


class TestLstm:
    def test_backward_matches_fd(self):
        rng = np.random.default_rng(3)
        params = _nn.lstm_init(rng, 3, 4)
        x = rng.standard_normal((2, 5, 3))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        probe_seq = rng.standard_normal((2, 5, 4))
        probe_last = rng.standard_normal((2, 4))

        def run():
            h_seq, h_last, _ = _nn.lstm_forward(params, x, mask)
            return scalar_loss(h_seq, probe_seq) + scalar_loss(h_last, probe_last)

        _, _, cache = _nn.lstm_forward(params, x, mask)
        grads = zero_grads(params)
        dx = _nn.lstm_backward(cache, grads, dh_seq=probe_seq,
                               dh_last=probe_last)
        assert_tree_close(grads, numerical_grad_tree(run, params), TOL, "lstm")
        assert rel_err(dx, numerical_grad(run, x)) < TOL

    def test_masked_steps_carry_state(self):
        """Padding content must not leak into the final state."""
        rng = np.random.default_rng(4)
        params = _nn.lstm_init(rng, 3, 4)
        x = rng.standard_normal((1, 4, 3))
        mask = np.array([[1, 1, 0, 0]], dtype=float)
        _, h_last, _ = _nn.lstm_forward(params, x, mask)
        x2 = x.copy()
        x2[0, 2:] = 99.0
        _, h_last2, _ = _nn.lstm_forward(params, x2, mask)
        np.testing.assert_array_equal(h_last, h_last2)

    def test_forget_bias_initialised_positive(self):
        rng = np.random.default_rng(5)
        params = _nn.lstm_init(rng, 3, 4)
        assert np.all(params["b"][4:8] >= 1.0)


def prefix_mask(lengths, L):
    return (np.arange(L) < np.asarray(lengths)[:, None]).astype(float)


class TestActiveRowLstm:
    """The active-row LSTM against the masked all-rows reference."""

    CASES = {
        "ragged": prefix_mask([5, 2, 7, 1, 3, 7], 7),
        "reversed": prefix_mask([5, 2, 7, 1, 3, 7], 7)[:, ::-1],
        "full": np.ones((3, 5)),
        "one_live_step": prefix_mask([1, 4, 2], 4),
        "one_live_step_reversed": prefix_mask([1, 4, 2], 4)[:, ::-1],
        "single_row": prefix_mask([3], 6),
        "single_row_reversed": prefix_mask([3], 6)[:, ::-1],
        "empty_row": prefix_mask([4, 0, 2], 5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("upstream", ["seq", "last", "both"])
    def test_matches_masked_reference(self, case, upstream):
        mask = self.CASES[case]
        B, L = mask.shape
        rng = np.random.default_rng(20)
        params = _nn.lstm_init(rng, 3, 4)
        x = rng.standard_normal((B, L, 3))
        if case.endswith("reversed"):
            x = x[:, ::-1]  # reversed views, as encode_sequence passes them
        dh_seq = rng.standard_normal((B, L, 4)) if upstream != "last" else None
        dh_last = rng.standard_normal((B, 4)) if upstream != "seq" else None

        h_seq, h_last, cache = _nn.lstm_forward(params, x, mask)
        ref_seq, ref_last, ref_cache = masked_lstm_forward(params, x, mask)
        assert rel_err(h_seq, ref_seq) < 1e-12
        assert rel_err(h_last, ref_last) < 1e-12

        grads = zero_grads(params)
        dx = _nn.lstm_backward(cache, grads, dh_seq=dh_seq, dh_last=dh_last)
        ref_grads, ref_dx = masked_lstm_backward(ref_cache, dh_seq=dh_seq,
                                                 dh_last=dh_last)
        for key in ("Wx", "Wh", "b"):
            assert rel_err(grads[key], ref_grads[key]) < 1e-12, key
        assert rel_err(dx, ref_dx) < 1e-12

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cache_free_forward_bit_identical(self, case):
        """``keep_cache=False`` returns the same states, bit for bit, and
        no cache, under prefix and suffix masks."""
        mask = self.CASES[case]
        rng = np.random.default_rng(23)
        params = _nn.lstm_init(rng, 3, 4)
        x = rng.standard_normal(mask.shape + (3,))
        h_seq, h_last, _ = _nn.lstm_forward(params, x, mask)
        free_seq, free_last, cache = _nn.lstm_forward(params, x, mask,
                                                      keep_cache=False)
        np.testing.assert_array_equal(free_seq, h_seq)
        np.testing.assert_array_equal(free_last, h_last)
        assert cache is None

    def test_row_without_live_steps_stays_zero(self):
        """An all-masked row keeps h = c = 0 and adds nothing to the grads."""
        rng = np.random.default_rng(21)
        params = _nn.lstm_init(rng, 3, 4)
        x = rng.standard_normal((3, 5, 3))
        mask = prefix_mask([4, 0, 2], 5)
        dh_seq = rng.standard_normal((3, 5, 4))
        h_seq, h_last, cache = _nn.lstm_forward(params, x, mask)
        np.testing.assert_array_equal(h_seq[1], 0.0)
        np.testing.assert_array_equal(h_last[1], 0.0)
        grads = zero_grads(params)
        dx = _nn.lstm_backward(cache, grads, dh_seq=dh_seq)
        np.testing.assert_array_equal(dx[1], 0.0)

        keep = [0, 2]
        _, _, cache2 = _nn.lstm_forward(params, x[keep], mask[keep])
        grads2 = zero_grads(params)
        dx2 = _nn.lstm_backward(cache2, grads2, dh_seq=dh_seq[keep])
        for key in ("Wx", "Wh", "b"):
            assert rel_err(grads[key], grads2[key]) < 1e-12, key
        assert rel_err(dx[keep], dx2) < 1e-12

    @pytest.mark.parametrize("rows", [
        [[1, 0, 1]],                   # a hole
        [[1, 1, 0, 0], [0, 1, 1, 0]],  # a run touching neither end
        [[1, 1, 0], [0, 1, 1]],        # one run from the start, one to the end
    ])
    def test_mask_outside_the_contract_rejected(self, rows):
        rng = np.random.default_rng(22)
        params = _nn.lstm_init(rng, 3, 4)
        mask = np.array(rows, dtype=float)
        x = rng.standard_normal(mask.shape + (3,))
        with pytest.raises(ValueError, match="run"):
            _nn.lstm_forward(params, x, mask)


class TestConvolutions:
    def test_causal_conv_backward_matches_fd(self):
        rng = np.random.default_rng(6)
        # dilation 4 pads by 8 > L, so tap 0 reads only padding
        for dilation in (1, 2, 3, 4):
            params = _nn.conv1d_init(rng, 3, 2, 4)
            x = rng.standard_normal((3, 7, 2))
            probe = rng.standard_normal((3, 7, 4))

            def run():
                out, _ = _nn.causal_conv1d(params, x, dilation)
                return scalar_loss(out, probe)

            _, cache = _nn.causal_conv1d(params, x, dilation)
            grads = zero_grads(params)
            dx = _nn.causal_conv1d_backward(cache, grads, probe)
            assert_tree_close(grads, numerical_grad_tree(run, params), TOL,
                              f"conv d={dilation}")
            assert rel_err(dx, numerical_grad(run, x)) < TOL

    def test_causal_conv_is_causal(self):
        """out[t] must not react to x[t'] for t' > t."""
        rng = np.random.default_rng(7)
        params = _nn.conv1d_init(rng, 3, 2, 2)
        x = rng.standard_normal((1, 6, 2))
        out, _ = _nn.causal_conv1d(params, x, 2)
        x2 = x.copy()
        x2[0, 4] += 1.0
        out2, _ = _nn.causal_conv1d(params, x2, 2)
        np.testing.assert_array_equal(out[0, :4], out2[0, :4])
        assert np.any(out[0, 4:] != out2[0, 4:])

    def test_transpose_conv_backward_matches_fd(self):
        rng = np.random.default_rng(8)
        for L in (4, 1):
            params = _nn.conv_transpose1d_init(rng, 3, 2)
            x = rng.standard_normal((2, L, 3))
            probe = rng.standard_normal((2, 2 * L, 2))

            def run():
                out, _ = _nn.conv_transpose1d(params, x)
                return scalar_loss(out, probe)

            out, cache = _nn.conv_transpose1d(params, x)
            assert out.shape == (2, 2 * L, 2)
            grads = zero_grads(params)
            dx = _nn.conv_transpose1d_backward(cache, grads, probe)
            assert_tree_close(grads, numerical_grad_tree(run, params), TOL,
                              f"deconv L={L}")
            assert rel_err(dx, numerical_grad(run, x)) < TOL

    def test_transpose_conv_doubles_length(self):
        rng = np.random.default_rng(9)
        params = _nn.conv_transpose1d_init(rng, 2, 2)
        for L in (1, 3, 5):
            out, _ = _nn.conv_transpose1d(params, rng.standard_normal((1, L, 2)))
            assert out.shape[1] == 2 * L


def run_primitive(name, rng):
    """(params, out, cache) of one parametrized primitive on random input."""
    x = rng.standard_normal((3, 4, 2))
    if name == "dense":
        params = _nn.dense_init(rng, 2, 3)
        return params, *_nn.dense(params, x)
    if name == "embedding":
        params = _nn.embedding_init(rng, 5, 2)
        return params, *_nn.embedding(params, rng.integers(0, 5, (3, 4)))
    if name == "lstm":
        params = _nn.lstm_init(rng, 2, 3)
        mask = prefix_mask([4, 2, 3], 4)
        h_seq, _, cache = _nn.lstm_forward(params, x, mask)
        return params, h_seq, cache
    if name == "causal_conv1d":
        params = _nn.conv1d_init(rng, 3, 2, 3)
        return params, *_nn.causal_conv1d(params, x, 2)
    params = _nn.conv_transpose1d_init(rng, 2, 3)
    return params, *_nn.conv_transpose1d(params, x)


@pytest.mark.parametrize("name", ["dense", "embedding", "lstm",
                                  "causal_conv1d", "conv_transpose1d"])
def test_backward_adds_into_grads(name):
    """A pre-filled gradient tree ends at the pre-fill plus the gradient
    the same backward pass writes into zeros, with the same input gradient."""
    rng = np.random.default_rng(30)
    params, out, cache = run_primitive(name, rng)
    backward = getattr(_nn, f"{name}_backward")
    probe = rng.standard_normal(out.shape)
    fresh = zero_grads(params)
    dx = backward(cache, fresh, probe)
    prefill = {key: rng.standard_normal(arr.shape)
               for key, arr in params.items()}
    grads = {key: arr.copy() for key, arr in prefill.items()}
    dx2 = backward(cache, grads, probe)
    for key in params:
        assert rel_err(grads[key], prefill[key] + fresh[key]) < 1e-12, key
    if name == "embedding":
        assert dx is None and dx2 is None
    else:
        np.testing.assert_array_equal(dx2, dx)


class TestGated:
    def test_backward_matches_fd(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 6))
        probe = rng.standard_normal((2, 3, 3))

        def run():
            out, _ = _nn.gated(x)
            return scalar_loss(out, probe)

        out, cache = _nn.gated(x)
        assert out.shape == (2, 3, 3)
        dx = _nn.gated_backward(cache, probe)
        assert rel_err(dx, numerical_grad(run, x)) < TOL

    def test_value_is_tanh_times_sigmoid(self):
        x = np.array([[[0.3, -1.2, 0.8, 0.1]]])
        out, _ = _nn.gated(x)
        expect = np.tanh(x[..., :2]) / (1.0 + np.exp(-x[..., 2:]))
        np.testing.assert_allclose(out, expect, rtol=1e-12)


class TestActivations:
    def test_softplus_matches_reference_and_is_stable(self):
        x = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
        out = _nn.softplus(x)
        np.testing.assert_allclose(out[1:4], np.log1p(np.exp(x[1:4])), rtol=1e-12)
        assert out[0] >= 0.0 and np.isfinite(out[0])
        assert np.isclose(out[4], 800.0)  # asymptote, no overflow

    def test_sigmoid_within_2_ulp_of_expit(self):
        """Both compute 1 / (1 + exp(-x)), NumPy's exp and libm's differ
        in the last bit at times, and that bit passes through unchanged
        where exp(-x) is large. In the binade 2**53 <= exp(-x) < 2**54 it
        also decides how 1 + exp(-x) rounds, which can add 2 ulp there."""
        x = np.concatenate([np.linspace(-700.0, 700.0, 1_400_001),
                            np.linspace(-40.0, 40.0, 800_001)])
        ref = expit(x)
        ulps = np.abs(_nn.sigmoid(x) - ref) / np.spacing(ref)
        tie_binade = (-x >= 53 * np.log(2)) & (-x < 54 * np.log(2))
        assert ulps[~tie_binade].max() <= 2
        assert ulps[tie_binade].max() <= 4

    def test_sigmoid_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = _nn.sigmoid(np.array([-1000.0, 1000.0]))
        assert 0.0 <= lo <= 1e-300 and hi == 1.0

    def test_sigmoid_of_0d_input(self):
        for x in (np.float64(-2.5), np.array(-2.5), -2.5):
            out = _nn.sigmoid(x)
            assert np.shape(out) == ()
            assert abs(out - expit(-2.5)) <= 2 * np.spacing(expit(-2.5))


class TestSoftmaxXent:
    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4)],
                             ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("spread", [1.0, 1e3])
    def test_matches_scipy(self, shape, spread):
        """ll is the target's log-softmax and the gradient one-hot minus
        softmax, for 1-D, 2-D and 3-D targets; ±1e3 logits overflow a
        naive exp."""
        rng = np.random.default_rng(11)
        V = 6
        logits = rng.uniform(-spread, spread, size=shape + (V,))
        targets = rng.integers(0, V, size=shape)
        ll, grad = _nn.softmax_xent(logits, targets)
        assert ll.shape == shape and grad.shape == logits.shape
        assert np.all(np.isfinite(ll)) and np.all(np.isfinite(grad))
        ref_lp = log_softmax(logits, axis=-1)
        picked = np.take_along_axis(ref_lp, targets[..., None], axis=-1)
        np.testing.assert_allclose(ll, picked[..., 0], rtol=1e-12, atol=1e-12)
        one_hot = np.eye(V)[targets]
        np.testing.assert_allclose(grad, one_hot - softmax(logits, axis=-1),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-12)

    def test_leaves_logits_unchanged(self):
        logits = np.random.default_rng(12).standard_normal((4, 5))
        before = logits.copy()
        _nn.softmax_xent(logits, np.array([0, 1, 2, 3]))
        np.testing.assert_array_equal(logits, before)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((2, 3, 5)) * 3
        targets = rng.integers(0, 5, size=(2, 3))
        _, grad = _nn.softmax_xent(logits, targets)

        def total():
            return float(_nn.softmax_xent(logits, targets)[0].sum())

        assert rel_err(grad, numerical_grad(total, logits)) < TOL


class TestTreeUtilities:
    def test_iter_arrays_sorted_and_nested(self):
        tree = {"b": {"y": np.zeros(1), "x": np.zeros(1)}, "a": np.zeros(1)}
        paths = [p for p, _ in _nn.iter_arrays(tree)]
        assert paths == ["a", "b/x", "b/y"]

    def test_global_norm_and_clip(self):
        vec = np.array([3.0, 4.0])
        pre = _nn.clip_global_norm(vec, 2.5)  # clips in place, returns pre-clip norm
        assert np.isclose(pre, 5.0)
        assert np.isclose(np.linalg.norm(vec), 2.5)
        np.testing.assert_allclose(vec, [1.5, 2.0])  # direction kept
        # below the threshold nothing changes
        before = vec.copy()
        assert np.isclose(_nn.clip_global_norm(vec, 100.0), 2.5)
        np.testing.assert_array_equal(vec, before)


class TestLayout:
    def tree(self):
        return {"b": {"y": np.arange(6.0).reshape(2, 3), "x": np.array([7.0])},
                "a": np.array([[8.0], [9.0]])}

    def test_roundtrip_follows_iter_arrays_order(self):
        tree = self.tree()
        layout = _nn.Layout(tree)
        assert [(p, s) for p, s, _ in layout.entries] == [
            ("a", (2, 1)), ("b/x", (1,)), ("b/y", (2, 3))]
        assert [o for _, _, o in layout.entries] == [0, 2, 3]
        assert layout.size == 9
        vec = layout.flatten(tree)
        np.testing.assert_array_equal(
            vec, np.concatenate([a.ravel() for _, a in _nn.iter_arrays(tree)]))
        back = layout.views(vec)
        for (p1, a1), (p2, a2) in zip(_nn.iter_arrays(tree),
                                      _nn.iter_arrays(back)):
            assert p1 == p2
            np.testing.assert_array_equal(a1, a2)

    def test_views_share_memory_with_vector(self):
        layout = _nn.Layout(self.tree())
        vec = layout.flatten(self.tree())
        views = layout.views(vec)
        vec *= 2.0
        np.testing.assert_array_equal(views["b"]["x"], [14.0])
        views["a"][1, 0] = -1.0
        assert vec[1] == -1.0
        assert all(np.shares_memory(a, vec) for _, a in _nn.iter_arrays(views))

    def test_mismatch_rejected(self):
        layout = _nn.Layout(self.tree())
        renamed = self.tree()
        renamed["c"] = renamed.pop("a")
        reshaped = self.tree()
        reshaped["a"] = reshaped["a"].reshape(1, 2)
        for bad in (renamed, reshaped):
            with pytest.raises(ValueError, match="layout"):
                layout.flatten(bad)
        with pytest.raises(ValueError):
            layout.views(np.zeros(layout.size + 1))


class TestAdam:
    def test_ascends_concave_objective(self):
        """Adam here maximises: repeated steps on grad of -(x-3)^2 reach 3."""
        x = np.array([0.0])
        opt = _nn.Adam(x, lr=0.1)
        for _ in range(500):
            opt.step(x, -2.0 * (x - 3.0))
        np.testing.assert_allclose(x, [3.0], atol=1e-3)

    def test_rejects_mismatched_shape(self):
        x = np.zeros(2)
        opt = _nn.Adam(x, lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            opt.step(x, np.zeros(1))  # would broadcast silently
        np.testing.assert_array_equal(x, [0.0, 0.0])
