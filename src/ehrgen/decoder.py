"""Autoregressive sequence likelihood conditioned on a patient latent.

The latent vector is upsampled with strided transposed convolutions into a
per-position context signal; token history enters through causal dilated
convolutions with gated activations and residual connections. The logit for
position t therefore depends on z and on tokens t-1 down to t-s only, where

    s = (kernel - 1) * sum(dilations) + 1.

All forward passes return caches so the hand-written backward passes can
produce exact gradients for both the decoder parameters and z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _nn


@dataclass(frozen=True)
class DecoderConfig:
    vocab_size: int
    latent_dim: int
    t_max: int
    channels: int = 48
    kernel: int = 3
    dilations: tuple = (1, 2, 4)
    n_upsample: int = 2

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        if self.latent_dim < 1 or self.t_max < 1 or self.channels < 1:
            raise ValueError("latent_dim, t_max and channels must be positive")
        if self.kernel < 1:
            raise ValueError("kernel must be at least 1")
        if not self.dilations or any(d < 1 for d in self.dilations):
            raise ValueError("dilations must be positive")
        if self.n_upsample < 0:
            raise ValueError("n_upsample must be non-negative")

    @property
    def receptive_field(self):
        """Number of past tokens that can influence one logit."""
        return (self.kernel - 1) * sum(self.dilations) + 1

    @property
    def seq_len(self):
        # one extra slot so the end-of-record token has a position
        return self.t_max + 1

    @property
    def seed_len(self):
        return max(1, math.ceil(self.seq_len / 2 ** self.n_upsample))


def init_decoder_params(cfg, rng):
    C = cfg.channels
    params = {
        "seed": _nn.dense_init(rng, cfg.latent_dim, cfg.seed_len * 2 * C),
        "emb": _nn.embedding_init(rng, cfg.vocab_size, C),
        "bos": rng.standard_normal(C) * 0.1,
        "head": _nn.dense_init(rng, C, cfg.vocab_size),
    }
    for i in range(cfg.n_upsample):
        params[f"up{i}"] = _nn.conv_transpose1d_init(rng, C, 2 * C)
    for i in range(len(cfg.dilations)):
        params[f"conv{i}"] = _nn.conv1d_init(rng, cfg.kernel, C, 2 * C)
    return params


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _latent_context(params, cfg, z, out_len):
    """Upsample z into (B, out_len, C) position-dependent context."""
    C = cfg.channels
    seed_flat, cache_seed = _nn.dense(params["seed"], z)
    h = seed_flat.reshape(z.shape[0], cfg.seed_len, 2 * C)
    h, cache_g0 = _nn.gated(h)
    up_caches = []
    for i in range(cfg.n_upsample):
        h, c_up = _nn.conv_transpose1d(params[f"up{i}"], h)
        h, c_g = _nn.gated(h)
        up_caches.append((c_up, c_g))
    if h.shape[1] < out_len:
        raise ValueError("upsampled context shorter than sequence")
    cropped_from = h.shape[1]
    h = h[:, :out_len]
    cache = (cache_seed, cache_g0, up_caches, cropped_from, z.shape)
    return h, cache


def _latent_context_backward(params, cfg, cache, dctx):
    cache_seed, cache_g0, up_caches, cropped_from, z_shape = cache
    grads = {}
    dh = np.zeros((dctx.shape[0], cropped_from, dctx.shape[2]))
    dh[:, :dctx.shape[1]] = dctx
    for i in reversed(range(cfg.n_upsample)):
        c_up, c_g = up_caches[i]
        dh = _nn.gated_backward(c_g, dh)
        g_up, dh = _nn.conv_transpose1d_backward(c_up, dh)
        grads[f"up{i}"] = g_up
    dh = _nn.gated_backward(cache_g0, dh)
    g_seed, dz = _nn.dense_backward(cache_seed, dh.reshape(z_shape[0], -1))
    grads["seed"] = g_seed
    return grads, dz


def decode_logits(params, cfg, z, tokens, out_len=None):
    """Per-position vocabulary logits (B, out_len, V).

    Inputs are shifted right: position 0 sees only a learned start vector,
    position t sees tokens[:, :t]. tokens may be shorter than out_len - 1
    only during incremental sampling, never for scoring.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError("tokens must be (batch, time)")
    if out_len is None:
        out_len = tokens.shape[1]
    if out_len > cfg.seq_len:
        raise ValueError("sequence longer than configured maximum")

    ctx, cache_ctx = _latent_context(params, cfg, z, out_len)
    n_in = min(out_len - 1, tokens.shape[1])
    emb, cache_emb = _nn.embedding(params["emb"], tokens[:, :n_in])
    x = np.empty((z.shape[0], out_len, cfg.channels))
    x[:, 0] = params["bos"]
    x[:, 1:1 + n_in] = emb
    x[:, 1 + n_in:] = 0.0
    h = x + ctx
    conv_caches = []
    for i, d in enumerate(cfg.dilations):
        pre, c_conv = _nn.causal_conv1d(params[f"conv{i}"], h, d)
        act, c_g = _nn.gated(pre)
        h = h + act
        conv_caches.append((c_conv, c_g))
    logits, cache_head = _nn.dense(params["head"], h)
    cache = (cfg, cache_ctx, cache_emb, n_in, conv_caches, cache_head,
             z.shape[0], out_len)
    return logits, cache


def decode_logits_backward(params, cfg, cache, dlogits):
    (_, cache_ctx, cache_emb, n_in, conv_caches, cache_head,
     batch, out_len) = cache
    grads = {}
    g_head, dh = _nn.dense_backward(cache_head, dlogits)
    grads["head"] = g_head
    for i in reversed(range(len(cfg.dilations))):
        c_conv, c_g = conv_caches[i]
        dpre = _nn.gated_backward(c_g, dh)
        g_conv, dh_in = _nn.causal_conv1d_backward(c_conv, dpre)
        grads[f"conv{i}"] = g_conv
        dh = dh + dh_in
    g_ctx, dz = _latent_context_backward(params, cfg, cache_ctx, dh)
    grads.update(g_ctx)
    grads["bos"] = dh[:, 0].sum(axis=0)
    grads["emb"] = _nn.embedding_backward(cache_emb, dh[:, 1:1 + n_in])
    return grads, dz


def sequence_log_likelihood(params, cfg, z, tokens, mask):
    """ln p(tokens | z) per record, masked positions excluded. Returns
    (ll (B,), cache)."""
    tokens = np.asarray(tokens)
    mask = np.asarray(mask, dtype=float)
    logits, cache_dec = decode_logits(params, cfg, z, tokens)
    logp = _nn.log_softmax(logits)
    B, T = tokens.shape
    picked = logp[np.arange(B)[:, None], np.arange(T)[None, :], tokens]
    ll = (picked * mask).sum(axis=1)
    cache = (cache_dec, logp, tokens, mask)
    return ll, cache


def ll_and_grads(params, cfg, z, tokens, mask, weights=None):
    """Gradients of sum_b weights_b * ll_b w.r.t. decoder params and z.

    Returns (ll (B,), theta_grads, dz (B, D)).
    """
    ll, cache = sequence_log_likelihood(params, cfg, z, tokens, mask)
    cache_dec, logp, tokens, mask = cache
    B, T = tokens.shape
    w = np.ones(B) if weights is None else np.asarray(weights, dtype=float)
    scale = (w[:, None] * mask)[..., None]
    dlogits = -np.exp(logp) * scale
    dlogits[np.arange(B)[:, None], np.arange(T)[None, :], tokens] += scale[..., 0]
    grads, dz = decode_logits_backward(params, cfg, cache_dec, dlogits)
    return ll, grads, dz


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def ancestral_sample(params, cfg, z, rng, eos_id, temperature=1.0,
                     forbid=()):
    """Draw token sequences position by position.

    The full stack is re-run over the whole prefix at each step, so the
    cost grows quadratically in the sequence length. Returns a list of B
    token lists with the end marker stripped.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    B = z.shape[0]
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    tokens = np.zeros((B, 0), dtype=int)
    alive = np.ones(B, dtype=bool)
    out = [[] for _ in range(B)]
    for t in range(cfg.seq_len):
        logits, _ = decode_logits(params, cfg, z, tokens, out_len=t + 1)
        step = logits[:, t] / temperature
        for tok in forbid:
            step[:, tok] = -np.inf
        step -= step.max(axis=1, keepdims=True)
        probs = np.exp(step)
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        u = rng.random(B)
        draws = np.minimum(
            (u[:, None] < cdf).argmax(axis=1), cfg.vocab_size - 1)
        for b in range(B):
            if not alive[b]:
                continue
            if draws[b] == eos_id:
                alive[b] = False
            else:
                out[b].append(int(draws[b]))
        if not alive.any():
            break
        tokens = np.concatenate([tokens, draws[:, None]], axis=1)
    return out
