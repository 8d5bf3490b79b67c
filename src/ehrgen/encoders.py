"""Amortized inference networks.

One pair of experts emits a diagonal Gaussian over all of a record's local
latents at once (z, then w and b for the conditional model): a bidirectional
LSTM over the token sequence and a feed-forward network over the binary
condition vector. The two are fused exactly by a product of experts
(precisions add, coordinate by coordinate), which sidesteps the question of
where a static condition vector should be concatenated into a sequence; no
concatenation path exists here.

Variances come from a softplus head plus the small floor ``VAR_FLOOR`` so
product-of-experts precisions cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _nn

VAR_FLOOR = 1e-6


@dataclass
class DiagGaussian:
    """Factorized Gaussian given by per-dimension mean and variance."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.var = np.asarray(self.var, dtype=float)
        if self.mean.shape != self.var.shape:
            raise ValueError("mean and variance shapes differ")
        if np.any(self.var <= 0):
            raise ValueError("variance must be strictly positive")

    def cols(self, sl):
        """The marginal over the columns ``sl`` of the last axis."""
        return DiagGaussian(self.mean[..., sl], self.var[..., sl])


def kl_diag_gaussians(q, prior_mean, prior_var):
    """KL(q || N(prior_mean, prior_var I)) summed over all dimensions."""
    pv = float(prior_var)
    if pv <= 0:
        raise ValueError("prior variance must be positive")
    d = q.mean - prior_mean
    return float(0.5 * np.sum(q.var / pv + d * d / pv - 1.0 + np.log(pv / q.var)))


def entropy_diag_gaussian(g):
    return float(0.5 * np.sum(1.0 + np.log(2.0 * np.pi * g.var)))


# ---------------------------------------------------------------------------
# sequence expert (bi-LSTM)
# ---------------------------------------------------------------------------

def init_sequence_encoder(vocab_size, embed_dim, hidden, out_dim, rng):
    return {
        "emb": _nn.embedding_init(rng, vocab_size, embed_dim),
        "fwd": _nn.lstm_init(rng, embed_dim, hidden),
        "bwd": _nn.lstm_init(rng, embed_dim, hidden),
        "head_mean": _nn.dense_init(rng, 2 * hidden, out_dim),
        "head_var": _nn.dense_init(rng, 2 * hidden, out_dim),
    }


def encode_sequence(params, tokens, mask, *, keep_cache=True):
    """Diagonal Gaussian from the concatenated final states of both
    directions, and its cache (None with ``keep_cache`` false). Masked
    (PAD) positions never influence the output."""
    mask = np.asarray(mask, dtype=float)
    if np.any(mask.sum(axis=-1) < 1):
        raise ValueError("sequence encoder needs at least one unmasked step")
    emb, emb_cache = _nn.embedding(params["emb"], tokens)
    _, h_f, cache_f = _nn.lstm_forward(params["fwd"], emb, mask,
                                       keep_cache=keep_cache)
    emb_rev = emb[:, ::-1]
    mask_rev = mask[:, ::-1]
    _, h_b, cache_b = _nn.lstm_forward(params["bwd"], emb_rev, mask_rev,
                                       keep_cache=keep_cache)
    pooled = np.concatenate([h_f, h_b], axis=1)
    mean, cache_m = _nn.dense(params["head_mean"], pooled)
    pre, cache_v = _nn.dense(params["head_var"], pooled)
    var = _nn.softplus(pre) + VAR_FLOOR
    cache = ((emb_cache, cache_f, cache_b, cache_m, cache_v, pre)
             if keep_cache else None)
    return DiagGaussian(mean, var), cache


def encode_sequence_backward(cache, grads, dmean, dvar):
    """Adds the parameter gradients into the parameter-shaped ``grads``."""
    emb_cache, cache_f, cache_b, cache_m, cache_v, pre = cache
    dpre = dvar * _nn.sigmoid(pre)
    dpool = (_nn.dense_backward(cache_m, grads["head_mean"], dmean)
             + _nn.dense_backward(cache_v, grads["head_var"], dpre))
    H = dpool.shape[1] // 2
    dx_f = _nn.lstm_backward(cache_f, grads["fwd"], dh_last=dpool[:, :H])
    dx_b = _nn.lstm_backward(cache_b, grads["bwd"], dh_last=dpool[:, H:])
    _nn.embedding_backward(emb_cache, grads["emb"], dx_f + dx_b[:, ::-1])


# ---------------------------------------------------------------------------
# condition expert (feed-forward)
# ---------------------------------------------------------------------------

def init_condition_encoder(cond_dim, hidden, out_dim, rng):
    return {
        "l1": _nn.dense_init(rng, cond_dim, hidden),
        "head_mean": _nn.dense_init(rng, hidden, out_dim),
        "head_var": _nn.dense_init(rng, hidden, out_dim),
    }


def encode_conditions(params, y):
    y = np.asarray(y, dtype=float)
    a, cache_1 = _nn.dense(params["l1"], y)
    h = np.tanh(a)
    mean, cache_m = _nn.dense(params["head_mean"], h)
    pre, cache_v = _nn.dense(params["head_var"], h)
    var = _nn.softplus(pre) + VAR_FLOOR
    cache = (cache_1, h, cache_m, cache_v, pre)
    return DiagGaussian(mean, var), cache


def encode_conditions_backward(cache, grads, dmean, dvar):
    """Adds the parameter gradients into the parameter-shaped ``grads``."""
    cache_1, h, cache_m, cache_v, pre = cache
    dpre = dvar * _nn.sigmoid(pre)
    dh = (_nn.dense_backward(cache_m, grads["head_mean"], dmean)
          + _nn.dense_backward(cache_v, grads["head_var"], dpre))
    _nn.dense_backward(cache_1, grads["l1"], dh * (1.0 - h * h))


# ---------------------------------------------------------------------------
# product of experts
# ---------------------------------------------------------------------------

def poe_combine(g1, g2):
    """Fuse two diagonal Gaussians by adding precisions.

    variance = 1 / (1/v1 + 1/v2); mean = variance * (m1/v1 + m2/v2).
    """
    if g1.mean.shape != g2.mean.shape:
        raise ValueError("experts must have equal dimensions")
    prec = 1.0 / g1.var + 1.0 / g2.var
    var = 1.0 / prec
    mean = var * (g1.mean / g1.var + g2.mean / g2.var)
    return DiagGaussian(mean, var)


def poe_combine_backward(g1, g2, out, dmean, dvar):
    """Gradients of the fused (mean, var) w.r.t. both experts' (mean, var)."""
    r1 = out.var / g1.var
    r2 = out.var / g2.var
    dm1 = dmean * r1
    dm2 = dmean * r2
    dv1 = dvar * r1 * r1 + dmean * (out.mean - g1.mean) * r1 / g1.var
    dv2 = dvar * r2 * r2 + dmean * (out.mean - g2.mean) * r2 / g2.var
    return dm1, dv1, dm2, dv2


# ---------------------------------------------------------------------------
# reparameterized sampling
# ---------------------------------------------------------------------------

def sample_with_eta(g, eta):
    """mean + sqrt(var) * eta; eta is the caller's standard-normal noise."""
    return g.mean + np.sqrt(g.var) * eta


def sample_with_eta_backward(g, eta, dout):
    """Gradients of the sample w.r.t. (mean, var) for fixed noise."""
    dmean = dout
    dvar = dout * eta / (2.0 * np.sqrt(g.var))
    return dmean, dvar
