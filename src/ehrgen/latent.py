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
from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid


@dataclass(frozen=True)
class HierarchyHyper:
    """Noise scale of z around H pi + b, and prior scale of the bias."""

    tau: float = 0.1
    gamma: float = 0.1

    def __post_init__(self):
        if self.tau <= 0 or self.gamma <= 0:
            raise ValueError("tau and gamma must be positive")


def compose_intensities(y, w):
    """pi = y * sigmoid(w), elementwise; entries stay in [0, 1]."""
    return np.asarray(y, dtype=float) * sigmoid(np.asarray(w, dtype=float))


def latent_log_density(z, H, pi, b, tau):
    """log N(z | H pi + b, tau I); supports leading batch axes."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = np.asarray(z, dtype=float)
    resid = z - (np.asarray(pi, dtype=float) @ H.T + np.asarray(b, dtype=float))
    D = z.shape[-1]
    return -0.5 * D * math.log(2.0 * math.pi * tau) - np.sum(resid * resid, axis=-1) / (
        2.0 * tau
    )


def latent_log_density_grads(z, H, y, w, b, tau):
    """Log-density plus gradients w.r.t. z, w, b, and H.

    Used both by the local objective (gradients into the sampled latents)
    and by the global gradient step (gradient into H). Batched over the
    leading axis; the H gradient is summed over the batch.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
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


def sample_prior_eva(dim, rng, n=None):
    """z ~ N(0, I); one row per draw when n is given."""
    shape = (dim,) if n is None else (n, dim)
    return rng.standard_normal(shape)


def sample_prior_evac(H, y, gamma, tau, rng):
    """Full ancestral draw of (w, b, z) for the conditional hierarchy.

    ``y`` may be a single K-vector or a batch (N, K); shapes of the returned
    latents follow it.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    y2 = np.atleast_2d(y)
    n = y2.shape[0]
    D, K = H.shape
    w = rng.standard_normal((n, K))
    b = math.sqrt(gamma) * rng.standard_normal((n, D))
    pi = compose_intensities(y2, w)
    z = pi @ H.T + b + math.sqrt(tau) * rng.standard_normal((n, D))
    if single:
        return w[0], b[0], z[0]
    return w, b, z
