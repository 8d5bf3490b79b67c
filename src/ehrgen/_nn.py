"""Minimal neural-net primitives in numpy with hand-written backward passes.

Everything runs in float64. Each forward function returns ``(output, cache)``
and has a matching ``*_backward`` that returns the input gradient; a layer
with parameters takes ``(cache, grads, upstream)`` and adds its parameter
gradients into ``grads``, a tree shaped like the parameters. The one
exception is ``lstm_forward`` called with ``keep_cache=False``, as
evaluation calls it: it keeps no per-step arrays and returns None for its
cache. Parameter sets are plain dicts of named arrays; a ``Layout`` maps
such a dict onto one flat vector, so optimizers, clipping, checkpoints and
backward passes (through ``Layout.views`` of a zeroed vector) treat every
network as a single array.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

def sigmoid(x):
    """1 / (1 + exp(-x)), elementwise; -x is capped at 709 so that exp
    never overflows (sigmoid(-1000) is 1.2e-308, not 0)."""
    e = np.negative(x, out=np.empty(np.shape(x)))
    np.minimum(e, 709.0, out=e)
    np.exp(e, out=e)
    e += 1.0
    return np.reciprocal(e, out=e)


def softplus(x):
    """log(1 + exp(x)), overflow-safe."""
    return np.logaddexp(0.0, x)


def softmax_xent(logits, targets):
    """``(ll, dlogits)`` of a categorical over the last axis of ``logits``:
    ``ll = log softmax(logits)[targets]`` at every index of ``targets``, and
    ``dlogits = one_hot(targets) - softmax(logits)``, its gradient. One exp
    of the max-shifted logits (a naive softmax overflows) serves both."""
    g = logits - logits.max(axis=-1, keepdims=True)
    at = np.indices(targets.shape, sparse=True) + (targets,)
    picked = g[at]
    np.exp(g, out=g)
    norm = g.sum(axis=-1, keepdims=True)
    g /= -norm
    g[at] += 1.0
    return picked - np.log(norm[..., 0]), g


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def dense_init(rng, n_in, n_out):
    return {
        "W": rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out)),
        "b": np.zeros(n_out),
    }


def embedding_init(rng, n_tokens, dim):
    return {"E": rng.normal(0.0, 0.1, size=(n_tokens, dim))}


def lstm_init(rng, n_in, n_hidden):
    """Standard LSTM cell weights; forget-gate bias starts at +1."""
    s_x = 1.0 / math.sqrt(n_in)
    s_h = 1.0 / math.sqrt(n_hidden)
    b = np.zeros(4 * n_hidden)
    b[n_hidden:2 * n_hidden] = 1.0
    return {
        "Wx": rng.normal(0.0, s_x, size=(n_in, 4 * n_hidden)),
        "Wh": rng.normal(0.0, s_h, size=(n_hidden, 4 * n_hidden)),
        "b": b,
    }


def conv1d_init(rng, kernel, n_in, n_out):
    scale = 1.0 / math.sqrt(kernel * n_in)
    return {
        "W": rng.normal(0.0, scale, size=(kernel, n_in, n_out)),
        "b": np.zeros(n_out),
    }


def conv_transpose1d_init(rng, n_in, n_out):
    # each output position is fed by exactly one tap, so fan-in is n_in
    scale = 1.0 / math.sqrt(n_in)
    return {
        "W": rng.normal(0.0, scale, size=(2, n_in, n_out)),
        "b": np.zeros(n_out),
    }


# ---------------------------------------------------------------------------
# dense / embedding
# ---------------------------------------------------------------------------

def dense(params, x):
    out = x @ params["W"] + params["b"]
    return out, (params, x)


def dense_backward(cache, grads, dout):
    params, x = cache
    x2 = x.reshape(-1, x.shape[-1])
    d2 = dout.reshape(-1, dout.shape[-1])
    grads["W"] += x2.T @ d2
    grads["b"] += d2.sum(axis=0)
    return dout @ params["W"].T


def embedding(params, ids):
    out = params["E"][ids]
    return out, ids


def embedding_backward(cache, grads, dout):
    np.add.at(grads["E"], cache.reshape(-1), dout.reshape(-1, dout.shape[-1]))


# ---------------------------------------------------------------------------
# LSTM over contiguous runs: step t runs only on the rows still live at t
# ---------------------------------------------------------------------------

def _live_order(mask):
    """``(order, counts)``: the rows by run length, longest first, and the
    number of rows live at each step, which are the first ``counts[t]`` of
    that order whether the runs start at the first step or end at the last.
    """
    live = np.asarray(mask) != 0
    n = live.sum(axis=1)
    prefix = np.arange(live.shape[1]) < n[:, None]
    if not (np.array_equal(live, prefix)
            or np.array_equal(live, prefix[:, ::-1])):
        raise ValueError("unmasked steps must be one run per row, all "
                         "starting at the first step or all ending at the last")
    return np.argsort(-n, kind="stable"), live.sum(axis=0)


def lstm_forward(params, x, mask, *, keep_cache=True):
    """Run an LSTM over ``x`` (B, L, E) with a 0/1 step mask (B, L).

    Each row's unmasked steps must form one contiguous run, and the runs
    must all start at step 0 or all end at step L - 1 (a padded sequence or
    its reversal); any other mask raises ValueError. Masked steps leave
    (h, c) untouched, so the final state equals the state at each record's
    last unmasked step, a row with no unmasked step keeps h = c = 0, and
    the output is independent of the contents of masked positions.

    Rows are sorted once by run length, longest first, so that the rows
    live at step t are a prefix of that order; each step runs on that
    prefix only, so the cost scales with the number of unmasked steps, not
    with B * L.

    Returns (h_seq (B, L, H), h_last (B, H), cache). With ``keep_cache``
    false the cache is None, and each step's gates are freed at the next.
    """
    order, counts = _live_order(mask)
    B, L, _ = x.shape
    H = params["Wh"].shape[0]
    xs = x[order]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    h_seq = np.empty((B, L, H))
    steps = []
    for t, n in enumerate(counts):
        h_prev, c_prev = h[:n].copy(), c[:n].copy()
        a = xs[:n, t] @ params["Wx"] + h_prev @ params["Wh"] + params["b"]
        i_f = sigmoid(a[:, :2 * H])  # the input and forget gates
        i, f = i_f[:, :H], i_f[:, H:]
        g = np.tanh(a[:, 2 * H:3 * H])
        o = sigmoid(a[:, 3 * H:])
        c[:n] = f * c_prev + i * g
        tc = np.tanh(c[:n])
        h[:n] = o * tc
        if keep_cache:
            steps.append((h_prev, c_prev, i, f, g, o, tc))
        h_seq[:, t] = h
    inv = np.argsort(order)
    cache = (params, xs, order, counts, steps) if keep_cache else None
    return h_seq[inv], h[inv], cache


def lstm_backward(cache, grads, dh_seq=None, dh_last=None):
    """Backprop through ``lstm_forward``, on the live rows of each step.

    ``dh_seq`` is the gradient w.r.t. the full hidden sequence (may be None),
    ``dh_last`` w.r.t. the final state (may be None). Adds the parameter
    gradients into ``grads`` and returns dx.
    """
    params, xs, order, counts, steps = cache
    B, L, E = xs.shape
    H = params["Wh"].shape[0]
    dxs = np.zeros_like(xs)
    dh = np.zeros((B, H)) if dh_last is None else dh_last[order]
    dc = np.zeros((B, H))
    if dh_seq is not None:
        dh_seq = dh_seq[order]
    for t in range(L - 1, -1, -1):
        # a masked step carries (h, c), so its gradient flows on unchanged
        if dh_seq is not None:
            dh += dh_seq[:, t]
        n = counts[t]
        h_prev, c_prev, i, f, g, o, tc = steps[t]
        dh_n = dh[:n]
        do = dh_n * tc
        dc_n = dc[:n] + dh_n * o * (1.0 - tc * tc)
        df = dc_n * c_prev
        di = dc_n * g
        dg = dc_n * i
        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        grads["Wx"] += xs[:n, t].T @ da
        grads["Wh"] += h_prev.T @ da
        grads["b"] += da.sum(axis=0)
        dxs[:n, t] = da @ params["Wx"].T
        dh[:n] = da @ params["Wh"].T
        dc[:n] = dc_n * f
    return dxs[np.argsort(order)]


# ---------------------------------------------------------------------------
# 1-D convolutions
# ---------------------------------------------------------------------------

def causal_conv1d(params, x, dilation):
    """Causal dilated conv: out[t] depends on x[t], x[t-d], ... x[t-(u-1)d]."""
    W, b = params["W"], params["b"]
    u = W.shape[0]
    B, L, _ = x.shape
    pad = (u - 1) * dilation
    xp = np.concatenate([np.zeros((B, pad, x.shape[2])), x], axis=1)
    out = np.broadcast_to(b, (B, L, W.shape[2])).copy()
    for j in range(u):
        # tap j reaches back by (u - 1 - j) * dilation steps
        out += xp[:, j * dilation:j * dilation + L] @ W[j]
    return out, (params, xp, dilation, L)


def causal_conv1d_backward(cache, grads, dout):
    params, xp, dilation, L = cache
    W = params["W"]
    u, C, K = W.shape
    pad = (u - 1) * dilation
    d2 = dout.reshape(-1, K)
    dxp = np.zeros_like(xp)
    for j in range(u):
        sl = xp[:, j * dilation:j * dilation + L]
        # one BLAS GEMM over the flattened batch x time rows
        grads["W"][j] += sl.reshape(-1, C).T @ d2
        dxp[:, j * dilation:j * dilation + L] += dout @ W[j].T
    grads["b"] += dout.sum(axis=(0, 1))
    return dxp[:, pad:]


def conv_transpose1d(params, x):
    """Transposed conv, kernel 2 / stride 2: doubles the sequence length."""
    W, b = params["W"], params["b"]  # W: (2, C_in, C_out)
    B, L, _ = x.shape
    out = np.empty((B, 2 * L, W.shape[2]))
    out[:, 0::2] = x @ W[0]
    out[:, 1::2] = x @ W[1]
    out += b
    return out, (params, x)


def conv_transpose1d_backward(cache, grads, dout):
    params, x = cache
    W = params["W"]
    _, C, K = W.shape
    d_even = dout[:, 0::2]
    d_odd = dout[:, 1::2]
    x2 = x.reshape(-1, C)
    grads["W"][0] += x2.T @ d_even.reshape(-1, K)
    grads["W"][1] += x2.T @ d_odd.reshape(-1, K)
    grads["b"] += dout.sum(axis=(0, 1))
    return d_even @ W[0].T + d_odd @ W[1].T


# ---------------------------------------------------------------------------
# gated activation: tanh(a) * sigmoid(g) over a channel split
# ---------------------------------------------------------------------------

def gated(x):
    C = x.shape[-1] // 2
    ta = np.tanh(x[..., :C])
    sg = sigmoid(x[..., C:])
    return ta * sg, (ta, sg)


def gated_backward(cache, dout):
    ta, sg = cache
    da = dout * sg * (1.0 - ta * ta)
    dg = dout * ta * sg * (1.0 - sg)
    return np.concatenate([da, dg], axis=-1)


# ---------------------------------------------------------------------------
# forward passes bounded in padded positions
# ---------------------------------------------------------------------------

POSITION_BUDGET = 4096  # rows x padded width of one bounded forward pass
STEP_CHUNK = 256  # positions through a V-wide head at once


def row_chunks(n, width):
    """Index arrays that cover rows 0 .. n - 1 in order, as many rows at a
    time as fit ``POSITION_BUDGET`` at ``width`` positions each (at least
    one), so a pass's caches do not grow with the records' padded width."""
    size = max(1, POSITION_BUDGET // width)
    return (np.arange(a, min(a + size, n)) for a in range(0, n, size))


# ---------------------------------------------------------------------------
# parameter-tree helpers
# ---------------------------------------------------------------------------

def iter_arrays(tree, prefix=""):
    """Yield (path, array) leaves of a nested dict of arrays."""
    for key in sorted(tree):
        val = tree[key]
        path = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from iter_arrays(val, prefix=path + "/")
        else:
            yield path, val


class Layout:
    """Where each leaf of a parameter tree sits in one flat float64 vector.

    ``entries`` holds ``(path, shape, offset)`` in ``iter_arrays`` order."""

    def __init__(self, tree):
        self.entries, self.size = [], 0
        for path, arr in iter_arrays(tree):
            self.entries.append((path, arr.shape, self.size))
            self.size += arr.size

    def flatten(self, tree):
        """One new vector holding the leaves of ``tree``."""
        leaves = list(iter_arrays(tree))
        if ([(path, arr.shape) for path, arr in leaves]
                != [(path, shape) for path, shape, _ in self.entries]):
            raise ValueError("tree does not match the layout")
        return np.concatenate([arr.ravel() for _, arr in leaves])

    def views(self, vec):
        """The nested dict of ``vec``; each leaf is a view, not a copy."""
        if vec.shape != (self.size,):
            raise ValueError(f"vector {vec.shape} != layout ({self.size},)")
        tree = {}
        for path, shape, offset in self.entries:
            *parents, leaf = path.split("/")
            node = tree
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = vec[offset:offset + math.prod(shape)].reshape(shape)
        return tree


def clip_global_norm(vec, max_norm):
    """Scale the gradient vector in place so its norm is <= max_norm;
    returns the norm before clipping."""
    norm = math.sqrt(float(vec @ vec))
    if norm > max_norm > 0.0:
        vec *= max_norm / norm
    return norm


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class Adam:
    """Adam over one flat parameter vector; beta1 0.9, beta2 0.999 and
    eps 1e-8."""

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params, grads):
        """Ascent step (parameters move along +grads), in place."""
        if grads.shape != params.shape:
            raise ValueError(f"grads shape {grads.shape} != {params.shape}")
        self.t += 1
        b1, b2, m, v = 0.9, 0.999, self.m, self.v
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * grads * grads
        params += self.lr * (m / corr1) / (np.sqrt(v / corr2) + 1e-8)
