"""Autoregressive sequence likelihood conditioned on a patient latent.

The latent vector is upsampled with strided transposed convolutions into a
per-position context signal; token history enters through causal dilated
convolutions with gated activations and residual connections. The logit for
position t therefore depends on z and on tokens t-1 down to t-s only, where

    s = (kernel - 1) * sum(dilations) + 1.

All forward passes return caches so the hand-written backward passes can
add exact decoder-parameter gradients into a caller's tree and return those
for z. The likelihood runs the stack per length bucket, cut to the bucket's
longest record, and the V-wide head and cross-entropy on live positions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _nn

_BUCKET_COLUMNS = 16  # a thinner bucket saves less than its extra pass costs


@dataclass(frozen=True)
class DecoderConfig:
    """The conv stack's settings; ``init_decoder_params`` takes the sizes."""

    t_max: int
    channels: int = 48
    kernel: int = 3
    dilations: tuple = (1, 2, 4)
    n_upsample: int = 2

    def __post_init__(self):
        if self.t_max < 1 or self.channels < 1:
            raise ValueError("t_max and channels must be positive")
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


def init_decoder_params(cfg, vocab_size, latent_dim, rng):
    C = cfg.channels
    params = {
        "seed": _nn.dense_init(rng, latent_dim, cfg.seed_len * 2 * C),
        "emb": _nn.embedding_init(rng, vocab_size, C),
        "bos": rng.standard_normal(C) * 0.1,
        "head": _nn.dense_init(rng, C, vocab_size),
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
    """Upsample z into (B, out_len, C) position-dependent context. Upsampling
    maps s to 2s and 2s + 1, so only seed positions below out_len are used."""
    C = cfg.channels
    seed_flat, cache_seed = _nn.dense(params["seed"], z)
    h = seed_flat.reshape(z.shape[0], cfg.seed_len, 2 * C)
    h, cache_g0 = _nn.gated(h[:, :-(-out_len // 2 ** cfg.n_upsample)])
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


def _latent_context_backward(cfg, cache, grads, dctx):
    cache_seed, cache_g0, up_caches, cropped_from, z_shape = cache
    dh = np.zeros((dctx.shape[0], cropped_from, dctx.shape[2]))
    dh[:, :dctx.shape[1]] = dctx
    for i in reversed(range(cfg.n_upsample)):
        c_up, c_g = up_caches[i]
        dh = _nn.gated_backward(c_g, dh)
        dh = _nn.conv_transpose1d_backward(c_up, grads[f"up{i}"], dh)
    dseed = np.zeros((z_shape[0], cfg.seed_len, 2 * cfg.channels))
    dseed[:, :dh.shape[1]] = _nn.gated_backward(cache_g0, dh)
    return _nn.dense_backward(cache_seed, grads["seed"],
                              dseed.reshape(z_shape[0], -1))


def _stack(params, cfg, z, tokens):
    """Hidden states (B, T, C) below the vocabulary head, and their cache."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError("tokens must be (batch, time)")
    T = tokens.shape[1]
    if T > cfg.seq_len:
        raise ValueError("sequence longer than configured maximum")
    ctx, cache_ctx = _latent_context(params, cfg, z, T)
    emb, cache_emb = _nn.embedding(params["emb"], tokens[:, :-1])
    x = np.empty((z.shape[0], T, cfg.channels))
    x[:, 0] = params["bos"]
    x[:, 1:] = emb
    h = x + ctx
    conv_caches = []
    for i, d in enumerate(cfg.dilations):
        pre, c_conv = _nn.causal_conv1d(params[f"conv{i}"], h, d)
        act, c_g = _nn.gated(pre)
        h = h + act
        conv_caches.append((c_conv, c_g))
    return h, (cache_ctx, cache_emb, conv_caches)


def _stack_backward(cfg, cache, grads, dh):
    """Adds the gradients of every parameter but the head's into ``grads``
    and returns dz, from dh."""
    cache_ctx, cache_emb, conv_caches = cache
    for i in reversed(range(len(cfg.dilations))):
        c_conv, c_g = conv_caches[i]
        dpre = _nn.gated_backward(c_g, dh)
        dh = dh + _nn.causal_conv1d_backward(c_conv, grads[f"conv{i}"], dpre)
    grads["bos"] += dh[:, 0].sum(axis=0)
    _nn.embedding_backward(cache_emb, grads["emb"], dh[:, 1:])
    return _latent_context_backward(cfg, cache_ctx, grads, dh)


def decode_logits(params, cfg, z, tokens):
    """Vocabulary logits (B, T, V) and the head's cache for tokens (B, T).

    Inputs are shifted right: position 0 sees only a learned start vector,
    position t sees tokens[:, :t], so the last column never enters. Position
    t does not depend on T either, so a prefix scores as it does inside the
    full record; ``ancestral_sample`` computes the same logits one position
    at a time.
    """
    return _nn.dense(params["head"], _stack(params, cfg, z, tokens)[0])


def sequence_log_likelihood(params, cfg, z, tokens, mask):
    """ln p(tokens | z) per record, each position weighted by ``mask``.
    Returns (ll (B,), cache). The rows, sorted by last live column, run the
    stack in equal-row buckets, one per ``_BUCKET_COLUMNS`` columns of the
    longest row, each cut, its latent context included, after its last live
    column; only the live positions (mask != 0) go through the head and the
    cross-entropy. The cache holds the buckets, the live indices, the head
    cache and logit gradient."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    tokens = np.asarray(tokens)
    mask = np.asarray(mask, dtype=float)
    # each row's last live column + 1, and 1 for a row with none
    reach = np.max((mask != 0) * np.arange(1, mask.shape[1] + 1), 1, initial=1)
    order = np.argsort(reach, kind="stable")
    h, buckets = np.zeros(mask.shape + (cfg.channels,)), []
    for rows in filter(len, np.array_split(
            order, math.ceil(reach.max() / _BUCKET_COLUMNS))):
        width = reach[rows[-1]]
        h[rows, :width], cache = _stack(params, cfg, z[rows],
                                        tokens[rows, :width])
        buckets.append((rows, width, cache))
    live = np.nonzero(mask)
    logits, cache_head = _nn.dense(params["head"], h[live])
    picked, dlogits = _nn.softmax_xent(logits, tokens[live])
    dlogits *= mask[live][:, None]
    ll = np.zeros(mask.shape)
    ll[live] = picked * mask[live]
    return ll.sum(axis=1), (buckets, live, cache_head, dlogits)


def ll_and_grads(params, cfg, z, tokens, mask, grads):
    """Gradients of sum_b ll_b w.r.t. decoder params and z.

    Adds the parameter gradients into ``grads``, a tree shaped like
    ``params``, one length bucket after another, and returns
    (ll (B,), dz (B, D)).
    """
    ll, (buckets, live, cache_head, dlogits) = sequence_log_likelihood(
        params, cfg, z, tokens, mask)
    dh = np.zeros(np.shape(mask) + (cfg.channels,))
    dh[live] = _nn.dense_backward(cache_head, grads["head"], dlogits)
    dz = np.zeros((len(ll), np.shape(z)[-1]))
    for rows, width, cache in buckets:
        dz[rows] = _stack_backward(cfg, cache, grads, dh[rows, :width])
    return ll, dz


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _grouped_affine(x, W, b, segments):
    """x @ W[g] + b[g] on each group's rows; ``segments`` lists the groups
    with rows as (g, lo, hi), a contiguous row range of ``x``."""
    out = np.empty((len(x), b[0].shape[0]))
    for g, lo, hi in segments:
        np.matmul(x[lo:hi], W[g], out=out[lo:hi])
        out[lo:hi] += b[g]
    return out


def _step_logits(layers, head, x, windows, t, segments):
    """Logits (n, V) at position t of the n records still drawing.

    ``x`` (n, C) is their input to the conv stack there, in group-major
    order, and ``segments`` gives each group's rows. ``layers`` holds each
    conv layer's ``(ring, Ws, bs)``, with group g's weights as
    ``(kernel * C, 2C)`` at ``Ws[g]``, and ``head`` its ``(Ws, bs)``.
    ``windows[i]`` is conv layer i's ring of its last (kernel - 1) * d + 1
    inputs: position t lives in slot t mod the ring size, and a slot not
    yet written is zero, as before the record starts. The new input is
    written at its slot, and ``ring[t mod size]`` reads the taps, every d-th
    position back from t, oldest first, into one GEMM per group, so the
    logits match ``decode_logits``.
    """
    h = x
    for (ring, W, b), win in zip(layers, windows):
        slot = t % win.shape[1]
        win[:, slot] = h
        taps = np.take(win, ring[slot], axis=1).reshape(len(h), -1)
        act, _ = _nn.gated(_grouped_affine(taps, W, b, segments))
        h = h + act
    return _grouped_affine(h, *head, segments)


def _segments(groups, n_groups):
    """(g, lo, hi) row ranges of the groups present in sorted ``groups``."""
    bounds = np.searchsorted(groups, np.arange(n_groups + 1)).tolist()
    return [(g, lo, hi) for g, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if hi > lo]


def ancestral_sample(params, cfg, z, rng, eos_id, forbid=(), t_max=None):
    """Draw one token sequence per latent row, position by position.

    ``params`` is a sequence of G decoder parameter trees (say, posterior
    snapshots) and ``z`` a matching sequence of G latent arrays: the rows
    of ``z[g]`` decode with ``params[g]``. Returns one token list per row,
    group-major (the rows of ``z[0]``, then of ``z[1]``, ...), each 1 to
    ``t_max`` tokens long (the smaller of ``t_max`` and ``cfg.t_max``;
    ``cfg.t_max`` when None), with the end marker stripped. ``forbid``
    tokens are never drawn, and EOS is masked at step 0, so the first visit
    comes from the step-0 distribution renormalised over the non-terminal
    tokens: a record never comes back empty, and z keeps its prior law (it
    is not reweighted toward records that would not have ended at once).
    Records stop at their EOS draw or after ``t_max`` visits.

    All groups run in one position-by-position loop. The caller draws the
    latents first (``generate_cohort``: group by group, in ascending
    snapshot order); the only draw here is one ``rng.random(n)`` per step
    over the n records still drawing, in group-major order. So a smaller
    ``t_max`` only stops the draws early.

    The latent context is computed for each group up to ``t_max``, in
    ``_nn.row_chunks`` of its rows, so the upsampling temporaries stay
    within ``_nn.POSITION_BUDGET`` positions whatever the request. The
    start vector or embedding row, each conv layer and the head give each
    group's rows that group's weights; everything else runs once per step
    over all rows. Each conv layer keeps a ring buffer of its inputs, one
    receptive field wide, for the records still drawing (the Fast WaveNet
    queue, Paine et al. 2016); one boolean mask drops ended records from
    every ring. So the cost is linear in the record length, and the step
    logits equal ``decode_logits``.
    """
    z = [np.atleast_2d(np.asarray(zg, dtype=float)) for zg in z]
    if len(params) != len(z) or not z:
        raise ValueError("need one latent array per parameter tree")
    n_steps = cfg.t_max if t_max is None else min(t_max, cfg.t_max)
    if n_steps < 1:
        raise ValueError("t_max must be >= 1")
    groups = np.repeat(np.arange(len(z)), [len(zg) for zg in z])
    segments = _segments(groups, len(z))
    k, C = cfg.kernel, cfg.channels
    ctx = np.empty((len(groups), n_steps, C))
    for g, lo, hi in segments:
        for rows in _nn.row_chunks(hi - lo, n_steps):
            ctx[lo + rows] = _latent_context(params[g], cfg, z[g][rows],
                                             n_steps)[0]
    layers = []
    for i, d in enumerate(cfg.dilations):
        size = (k - 1) * d + 1
        ring = np.arange(size)[:, None] - d * np.arange(k - 1, -1, -1)
        conv = [p[f"conv{i}"] for p in params]
        layers.append((ring % size, [c["W"].reshape(-1, 2 * C) for c in conv],
                       [c["b"] for c in conv]))
    head = ([p["head"]["W"] for p in params], [p["head"]["b"] for p in params])
    masked = list(forbid)
    masked_first = masked + [eos_id]
    buf = np.full((len(groups), n_steps), eos_id)  # ends at its first EOS
    rows = np.arange(len(groups))  # records still drawing, in order
    windows = [np.zeros((len(rows), len(ring), C)) for ring, _, _ in layers]
    for t in range(n_steps):
        x = ctx[rows, t]  # a copy, so each group adds its inputs in place
        for g, lo, hi in segments:
            p = params[g]
            x[lo:hi] += p["emb"]["E"][draws[lo:hi]] if t else p["bos"]
        step = _step_logits(layers, head, x, windows, t, segments)
        step[:, masked if t else masked_first] = -np.inf
        step -= step.max(axis=1, keepdims=True)
        cdf = np.cumsum(np.exp(step, out=step), axis=1, out=step)
        u = rng.random(len(rows)) * cdf[:, -1]
        # the first index whose cdf exceeds u
        draws = np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)
        buf[rows, t] = draws
        keep = draws != eos_id
        if not keep.all():
            rows, draws = rows[keep], draws[keep]
            if not rows.size:
                break
            windows = [win[keep] for win in windows]
            segments = _segments(groups[rows], len(z))
    return [s[:s.index(eos_id)] if eos_id in s else s for s in buf.tolist()]
