"""Conditional latent hierarchy: density against scipy, gradients against FD,
prior draws against their analytic moments."""

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import multivariate_normal

from ehrgen.latent import (
    compose_intensities,
    latent_log_density_grads,
    sample_prior_eva,
    sample_prior_evac,
)

from oracles import latent_log_density, numerical_grad, rel_err

D, K = 5, 3


def make_inputs(seed, batch=None):
    rng = np.random.default_rng(seed)
    shape = (K,) if batch is None else (batch, K)
    zshape = (D,) if batch is None else (batch, D)
    H = rng.standard_normal((D, K))
    y = (rng.random(shape) < 0.6).astype(float)
    w = rng.standard_normal(shape)
    b = 0.3 * rng.standard_normal(zshape)
    z = rng.standard_normal(zshape)
    return H, y, w, b, z


class TestCompose:
    def test_masked_conditions_contribute_nothing(self):
        y = np.array([1.0, 0.0, 1.0])
        w = np.array([0.2, 5.0, -0.7])
        pi = compose_intensities(y, w)
        assert pi[1] == 0.0
        np.testing.assert_allclose(pi[[0, 2]], expit(w[[0, 2]]))

    def test_intensities_in_unit_interval(self):
        rng = np.random.default_rng(0)
        pi = compose_intensities(np.ones(50), rng.standard_normal(50) * 10)
        assert np.all(pi >= 0) and np.all(pi <= 1)


class TestLogDensity:
    """The reference density in ``oracles`` against scipy; the tests of
    ``latent_log_density_grads`` hold its value to that reference."""

    def test_matches_scipy(self):
        """Oracle: scipy's multivariate normal logpdf."""
        H, y, w, b, z = make_inputs(3)
        tau = 0.23
        pi = compose_intensities(y, w)
        ours = latent_log_density(z, H, pi, b, tau)
        ref = multivariate_normal.logpdf(z, mean=H @ pi + b, cov=tau * np.eye(D))
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_batch_shape(self):
        H, y, w, b, z = make_inputs(4, batch=7)
        pi = compose_intensities(y, w)
        out = latent_log_density(z, H, pi, b, 0.1)
        assert out.shape == (7,)
        for i in range(7):
            np.testing.assert_allclose(
                out[i], latent_log_density(z[i], H, pi[i], b[i], 0.1), rtol=1e-12
            )

    def test_rejects_bad_tau(self):
        H, y, w, b, z = make_inputs(5, batch=2)
        with pytest.raises(ValueError):
            latent_log_density_grads(z, H, y, w, b, 0.0)


class TestLogDensityGrads:
    def test_value_agrees_with_density(self):
        H, y, w, b, z = make_inputs(6, batch=4)
        ll, *_ = latent_log_density_grads(z, H, y, w, b, 0.1)
        pi = compose_intensities(y, w)
        np.testing.assert_allclose(ll, latent_log_density(z, H, pi, b, 0.1), rtol=1e-12)

    def test_grads_match_fd(self):
        tau = 0.17
        for seed in range(3):
            H, y, w, b, z = make_inputs(10 + seed, batch=3)

            def total():
                ll, *_ = latent_log_density_grads(z, H, y, w, b, tau)
                return float(ll.sum())

            ll, dz, dw, db, dH = latent_log_density_grads(z, H, y, w, b, tau)
            assert rel_err(dz, numerical_grad(total, z)) < 1e-6
            assert rel_err(dw, numerical_grad(total, w)) < 1e-6
            assert rel_err(db, numerical_grad(total, b)) < 1e-6
            # dH is already summed over the batch
            assert rel_err(dH, numerical_grad(total, H)) < 1e-6

    def test_masked_column_gets_zero_w_grad(self):
        H, y, w, b, z = make_inputs(20, batch=2)
        y[:, 1] = 0.0
        _, _, dw, _, _ = latent_log_density_grads(z, H, y, w, b, 0.1)
        np.testing.assert_array_equal(dw[:, 1], 0.0)


class TestPriorDraws:
    def test_eva_prior_moments(self):
        rng = np.random.default_rng(30)
        z = sample_prior_eva(4, rng, 20000)
        assert z.shape == (20000, 4)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=0.03)
        np.testing.assert_allclose(z.var(axis=0), 1.0, atol=0.05)

    def test_evac_prior_moments(self):
        """z | y has mean E[H pi] and var tau + gamma + sum_k y_k Var[H_dk s_k]."""
        rng = np.random.default_rng(32)
        H = rng.standard_normal((D, K))
        y = np.array([1.0, 0.0, 1.0])
        tau, gamma = 0.1, 0.2
        n = 40000
        w, b, z = sample_prior_evac(H, np.tile(y, (n, 1)), gamma, tau, rng)
        assert w.shape == (n, K) and b.shape == (n, D) and z.shape == (n, D)
        # E[sigmoid(w_k)] = 0.5 by symmetry of w ~ N(0,1)
        mean_expect = 0.5 * H @ y
        np.testing.assert_allclose(z.mean(axis=0), mean_expect, atol=0.05)
        # per-coordinate variance: tau + gamma + sum over active k of
        # H_dk^2 Var[sigmoid(w)]; Var[sigmoid(w)] estimated by quadrature
        wg = np.random.default_rng(0).standard_normal(200000)
        var_sig = expit(wg).var()
        var_expect = tau + gamma + (H**2) @ (y * var_sig)
        np.testing.assert_allclose(z.var(axis=0), var_expect, rtol=0.08)
