"""Inference networks: PoE fusion against a numerical density oracle, PAD
invariance of the sequence expert, and FD checks on every backward pass."""

import numpy as np
import pytest

from ehrgen.encoders import (
    VAR_FLOOR,
    DiagGaussian,
    encode_conditions,
    encode_conditions_backward,
    encode_sequence,
    encode_sequence_backward,
    init_condition_encoder,
    init_sequence_encoder,
    poe_combine,
    poe_combine_backward,
    sample_with_eta,
    sample_with_eta_backward,
)

from oracles import assert_tree_close, numerical_grad_tree, rel_err, zero_grads

V, K, OUT = 9, 3, 4  # vocabulary, condition columns, output width


def init_seq(rng):
    return init_sequence_encoder(V, 5, 6, OUT, rng)


def init_cond(rng):
    return init_condition_encoder(K, 4, OUT, rng)


def make_batch(seed, B=3, L=6):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, V, size=(B, L))
    lengths = rng.integers(1, L + 1, size=B)
    mask = (np.arange(L)[None, :] < lengths[:, None]).astype(float)
    y = (rng.random((B, K)) < 0.5).astype(float)
    return tokens, mask, y


class TestDiagGaussian:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.zeros(3), np.ones(2))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.zeros(2), np.array([1.0, 0.0]))


class TestSequenceExpert:
    def test_output_shapes_and_floor(self):
        rng = np.random.default_rng(0)
        params = init_seq(rng)
        tokens, mask, _ = make_batch(1)
        g, _ = encode_sequence(params, tokens, mask)
        assert g.mean.shape == (3, OUT)
        assert np.all(g.var >= VAR_FLOOR)

    def test_pad_contents_do_not_matter(self):
        """Changing tokens under the mask must not move the posterior."""
        rng = np.random.default_rng(2)
        params = init_seq(rng)
        tokens, mask, _ = make_batch(3)
        g, _ = encode_sequence(params, tokens, mask)
        tokens2 = tokens.copy()
        tokens2[mask == 0] = (tokens2[mask == 0] + 1) % V
        g2, _ = encode_sequence(params, tokens2, mask)
        np.testing.assert_array_equal(g.mean, g2.mean)
        np.testing.assert_array_equal(g.var, g2.var)

    def test_empty_mask_rejected(self):
        rng = np.random.default_rng(4)
        params = init_seq(rng)
        tokens, mask, _ = make_batch(5)
        mask[1] = 0.0
        with pytest.raises(ValueError, match="unmasked"):
            encode_sequence(params, tokens, mask)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(6)
        params = init_seq(rng)
        tokens, mask, _ = make_batch(7, B=2, L=4)
        probe_m = rng.standard_normal((2, OUT))
        probe_v = rng.standard_normal((2, OUT))

        def run():
            g, _ = encode_sequence(params, tokens, mask)
            return float(np.sum(g.mean * probe_m) + np.sum(g.var * probe_v))

        _, cache = encode_sequence(params, tokens, mask)
        grads = zero_grads(params)
        encode_sequence_backward(cache, grads, probe_m, probe_v)
        assert_tree_close(grads, numerical_grad_tree(run, params), 1e-5, "seq-enc")


class TestConditionExpert:
    def test_backward_matches_fd(self):
        rng = np.random.default_rng(8)
        params = init_cond(rng)
        _, _, y = make_batch(9, B=4)
        probe_m = rng.standard_normal((4, OUT))
        probe_v = rng.standard_normal((4, OUT))

        def run():
            g, _ = encode_conditions(params, y)
            return float(np.sum(g.mean * probe_m) + np.sum(g.var * probe_v))

        _, cache = encode_conditions(params, y)
        grads = zero_grads(params)
        encode_conditions_backward(cache, grads, probe_m, probe_v)
        assert_tree_close(grads, numerical_grad_tree(run, params), 1e-6, "cond-enc")

    def test_variance_floor(self):
        rng = np.random.default_rng(10)
        params = init_cond(rng)
        # drive the pre-softplus head very negative
        params["head_var"]["b"][:] = -50.0
        params["head_var"]["W"][:] = 0.0
        g, _ = encode_conditions(params, np.zeros((1, K)))
        assert np.all(g.var >= VAR_FLOOR)
        assert np.all(g.var <= VAR_FLOOR * 2)


def product_moments_by_quadrature(m1, v1, m2, v2):
    """Numerically normalise N(m1,v1)*N(m2,v2) on a grid (independent oracle)."""
    lo = min(m1 - 8 * np.sqrt(v1), m2 - 8 * np.sqrt(v2))
    hi = max(m1 + 8 * np.sqrt(v1), m2 + 8 * np.sqrt(v2))
    x = np.linspace(lo, hi, 200001)
    dens = np.exp(-0.5 * (x - m1) ** 2 / v1) * np.exp(-0.5 * (x - m2) ** 2 / v2)
    dens /= np.trapezoid(dens, x)
    mean = np.trapezoid(x * dens, x)
    var = np.trapezoid((x - mean) ** 2 * dens, x)
    return mean, var


class TestProductOfExperts:
    def test_matches_quadrature_oracle(self):
        cases = [(0.3, 0.5, -1.2, 2.0), (1.0, 0.05, 1.5, 0.3), (-2.0, 4.0, 2.0, 4.0)]
        for m1, v1, m2, v2 in cases:
            out = poe_combine(
                DiagGaussian(np.array([m1]), np.array([v1])),
                DiagGaussian(np.array([m2]), np.array([v2])),
            )
            mean_ref, var_ref = product_moments_by_quadrature(m1, v1, m2, v2)
            np.testing.assert_allclose(out.mean[0], mean_ref, atol=1e-6)
            np.testing.assert_allclose(out.var[0], var_ref, atol=1e-6)

    def test_equal_experts_halve_variance(self):
        g = DiagGaussian(np.array([0.7, -0.1]), np.array([0.8, 1.6]))
        out = poe_combine(g, DiagGaussian(g.mean.copy(), g.var.copy()))
        np.testing.assert_allclose(out.mean, g.mean, rtol=1e-12)
        np.testing.assert_allclose(out.var, g.var / 2.0, rtol=1e-12)

    def test_sharp_expert_dominates(self):
        sharp = DiagGaussian(np.array([2.0]), np.array([1e-8]))
        broad = DiagGaussian(np.array([-5.0]), np.array([100.0]))
        out = poe_combine(sharp, broad)
        np.testing.assert_allclose(out.mean[0], 2.0, atol=1e-6)
        assert out.var[0] < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            poe_combine(
                DiagGaussian(np.zeros(2), np.ones(2)),
                DiagGaussian(np.zeros(3), np.ones(3)),
            )

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(11)
        m1 = rng.standard_normal(5)
        v1 = 0.2 + rng.random(5)
        m2 = rng.standard_normal(5)
        v2 = 0.2 + rng.random(5)
        probe_m = rng.standard_normal(5)
        probe_v = rng.standard_normal(5)
        params = {"m1": m1, "v1": v1, "m2": m2, "v2": v2}

        def run():
            out = poe_combine(DiagGaussian(params["m1"], params["v1"]),
                              DiagGaussian(params["m2"], params["v2"]))
            return float(np.sum(out.mean * probe_m) + np.sum(out.var * probe_v))

        g1 = DiagGaussian(m1, v1)
        g2 = DiagGaussian(m2, v2)
        out = poe_combine(g1, g2)
        dm1, dv1, dm2, dv2 = poe_combine_backward(g1, g2, out, probe_m, probe_v)
        num = numerical_grad_tree(run, params)
        assert rel_err(dm1, num["m1"]) < 1e-6
        assert rel_err(dv1, num["v1"]) < 1e-6
        assert rel_err(dm2, num["m2"]) < 1e-6
        assert rel_err(dv2, num["v2"]) < 1e-6


class TestReparam:
    def test_sample_moments(self):
        rng = np.random.default_rng(12)
        g = DiagGaussian(np.array([1.0, -2.0]), np.array([0.5, 2.0]))
        draws = sample_with_eta(g, rng.standard_normal((20000, 2)))
        np.testing.assert_allclose(draws.mean(axis=0), g.mean, atol=0.03)
        np.testing.assert_allclose(draws.var(axis=0), g.var, rtol=0.05)

    def test_fixed_eta_is_deterministic(self):
        g = DiagGaussian(np.array([0.5]), np.array([4.0]))
        out = sample_with_eta(g, np.array([1.5]))
        np.testing.assert_allclose(out, [0.5 + 2.0 * 1.5], rtol=1e-12)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(13)
        params = {"mean": rng.standard_normal(4), "var": 0.3 + rng.random(4)}
        eta = rng.standard_normal(4)
        probe = rng.standard_normal(4)

        def run():
            out = sample_with_eta(DiagGaussian(params["mean"], params["var"]), eta)
            return float(np.sum(out * probe))

        g = DiagGaussian(params["mean"], params["var"])
        dmean, dvar = sample_with_eta_backward(g, eta, probe)
        num = numerical_grad_tree(run, params)
        assert rel_err(dmean, num["mean"]) < 1e-6
        assert rel_err(dvar, num["var"]) < 1e-6
