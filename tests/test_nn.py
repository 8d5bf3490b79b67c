"""Finite-difference checks for the hand-written layer primitives.

Every backward pass in ehrgen._nn is compared against central differences
on random inputs; these layers are the foundation the model-level gradient
tests build on, so tolerances here are tight (1e-6 relative).
"""

import numpy as np
import pytest

from ehrgen import _nn

from oracles import assert_tree_close, numerical_grad, numerical_grad_tree, rel_err

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
            grads, dx = _nn.dense_backward(cache, probe)
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
        grads, dx = _nn.dense_backward(cache, probe)
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
        grads = _nn.embedding_backward(cache, probe)
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
        grads, dx = _nn.lstm_backward(cache, dh_seq=probe_seq, dh_last=probe_last)
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


class TestConvolutions:
    def test_causal_conv_backward_matches_fd(self):
        rng = np.random.default_rng(6)
        for dilation in (1, 2, 3):
            params = _nn.conv1d_init(rng, 3, 2, 4)
            x = rng.standard_normal((2, 7, 2))
            probe = rng.standard_normal((2, 7, 4))

            def run():
                out, _ = _nn.causal_conv1d(params, x, dilation)
                return scalar_loss(out, probe)

            _, cache = _nn.causal_conv1d(params, x, dilation)
            grads, dx = _nn.causal_conv1d_backward(cache, probe)
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
        params = _nn.conv_transpose1d_init(rng, 3, 2)
        x = rng.standard_normal((2, 4, 3))
        probe = rng.standard_normal((2, 8, 2))

        def run():
            out, _ = _nn.conv_transpose1d(params, x)
            return scalar_loss(out, probe)

        out, cache = _nn.conv_transpose1d(params, x)
        assert out.shape == (2, 8, 2)
        grads, dx = _nn.conv_transpose1d_backward(cache, probe)
        assert_tree_close(grads, numerical_grad_tree(run, params), TOL, "deconv")
        assert rel_err(dx, numerical_grad(run, x)) < TOL

    def test_transpose_conv_doubles_length(self):
        rng = np.random.default_rng(9)
        params = _nn.conv_transpose1d_init(rng, 2, 2)
        for L in (1, 3, 5):
            out, _ = _nn.conv_transpose1d(params, rng.standard_normal((1, L, 2)))
            assert out.shape[1] == 2 * L


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

    def test_log_softmax_normalises(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 5)) * 50
        ls = _nn.log_softmax(x)
        np.testing.assert_allclose(np.exp(ls).sum(axis=-1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.exp(ls), _nn.softmax(x), rtol=1e-12)


class TestTreeUtilities:
    def test_iter_arrays_sorted_and_nested(self):
        tree = {"b": {"y": np.zeros(1), "x": np.zeros(1)}, "a": np.zeros(1)}
        paths = [p for p, _ in _nn.iter_arrays(tree)]
        assert paths == ["a", "b/x", "b/y"]

    def test_global_norm_and_clip(self):
        tree = {"a": np.array([3.0]), "b": {"c": np.array([4.0])}}
        assert np.isclose(_nn.global_norm(tree), 5.0)
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
        layout = _nn.Layout.of(tree)
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
        # the JSON-ready spec rebuilds the same layout
        assert _nn.Layout(layout.spec()).entries == layout.entries

    def test_views_share_memory_with_vector(self):
        layout = _nn.Layout.of(self.tree())
        vec = layout.flatten(self.tree())
        views = layout.views(vec)
        vec *= 2.0
        np.testing.assert_array_equal(views["b"]["x"], [14.0])
        views["a"][1, 0] = -1.0
        assert vec[1] == -1.0
        assert all(np.shares_memory(a, vec) for _, a in _nn.iter_arrays(views))

    def test_mismatch_rejected(self):
        layout = _nn.Layout.of(self.tree())
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
