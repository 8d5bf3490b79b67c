"""Latent-variable priors: standard normal for the unconditional model and a
hierarchical composition for the conditional one.

The conditional hierarchy builds each patient representation as a noisy
sparse combination of per-condition columns of a shared matrix H:

    z = H @ pi + b + eps,   eps ~ N(0, tau I),   pi = y * sigmoid(w)

with per-patient weights w ~ N(0, I_K) and bias b ~ N(0, gamma I_D). The
binary indicator y masks out conditions the patient does not have, so z is
independent of unused columns of H. H itself gets an independent standard
normal prior per element, matching the treatment of the decoder weights.
"""

from __future__ import annotations

import math

import numpy as np

from ._nn import sigmoid

TAU = GAMMA = 0.1  # the variances of eps and of b in the hierarchy above


def compose_intensities(y, w):
    """pi = y * sigmoid(w), elementwise; entries stay in [0, 1]."""
    return np.asarray(y, dtype=float) * sigmoid(np.asarray(w, dtype=float))


def latent_log_density_grads(z, H, y, w, b, tau):
    """Log-density plus gradients w.r.t. z, w, b, and H.

    Used both by the local objective (gradients into the sampled latents)
    and by the global gradient step (gradient into H). Every argument but
    H has one row per record; the H gradient is summed over the rows.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    sig = sigmoid(w)
    pi = y * sig
    resid = z - (pi @ H.T + b)
    D = z.shape[-1]
    ll = -0.5 * D * math.log(2.0 * math.pi * tau) - np.sum(resid * resid, axis=-1) / (
        2.0 * tau
    )
    r_over_tau = resid / tau
    dz = -r_over_tau
    db = r_over_tau
    dpi = r_over_tau @ H
    dw = dpi * y * sig * (1.0 - sig)
    dH = r_over_tau.T @ pi
    return ll, dz, dw, db, dH


def sample_prior_eva(dim, rng, n):
    """z ~ N(0, I), one row per draw: (n, dim)."""
    return rng.standard_normal((n, dim))


def sample_prior_evac(H, y, gamma, tau, rng):
    """Full ancestral draw of (w, b, z) for the conditional hierarchy, one
    row per row of the (N, K) condition matrix ``y``."""
    n = len(y)
    D, K = H.shape
    w = rng.standard_normal((n, K))
    b = math.sqrt(gamma) * rng.standard_normal((n, D))
    pi = compose_intensities(y, w)
    z = pi @ H.T + b + math.sqrt(tau) * rng.standard_normal((n, D))
    return w, b, z
