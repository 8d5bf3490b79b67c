"""Numerical oracles and hand-written data shared by the test modules.

The gradient-checking helpers here are the independent oracle used
throughout: central finite differences in float64, perturbing every
element of every parameter array.  Analytic backward passes are compared
against them with a relative max-norm error.

They live in a plain module rather than ``conftest.py`` so that test
modules can import them by name even when another test directory on the
same run has a ``conftest.py`` of its own.
"""

import numpy as np
from scipy.special import expit as sigmoid

from ehrgen import _nn
from ehrgen.corpus import PatientRecord
from ehrgen.decoder import decode_logits


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def numerical_grad(f, x, eps=1e-5):
    """Central-difference gradient of the scalar ``f()`` w.r.t. array ``x``.

    ``x`` is perturbed in place (and restored), so ``f`` must read it by
    reference — e.g. a closure over the parameter tree that contains it.
    """
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=float)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def numerical_grad_tree(f, tree, eps=1e-5):
    """Finite-difference gradients for every array in a parameter tree.

    Returns a flat dict path -> gradient array, paths as produced by
    ``_nn.iter_arrays``.
    """
    return {path: numerical_grad(f, arr, eps) for path, arr in _nn.iter_arrays(tree)}


def rel_err(approx, exact):
    """Max-norm relative error, guarded for all-zero exact gradients."""
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    scale = max(float(np.max(np.abs(exact))), 1e-8)
    return float(np.max(np.abs(approx - exact))) / scale


def assert_tree_close(analytic, numeric, tol, context=""):
    """Compare an analytic gradient tree against a flat numeric-grad dict."""
    analytic_flat = dict(_nn.iter_arrays(analytic))
    assert set(analytic_flat) == set(numeric), (
        f"{context}: gradient paths differ: "
        f"{sorted(set(analytic_flat) ^ set(numeric))}"
    )
    for path, num in numeric.items():
        err = rel_err(analytic_flat[path], num)
        assert err < tol, f"{context}: grad mismatch at {path}: rel err {err:.3g}"


# ---------------------------------------------------------------------------
# reference LSTM
# ---------------------------------------------------------------------------

def masked_lstm_forward(params, x, mask):
    """Reference for ``_nn.lstm_forward``: every step runs on all B rows and
    a masked step keeps the old state through the blend m * new + (1 - m) *
    old. Accepts any 0/1 mask."""
    B, L, _ = x.shape
    H = params["Wh"].shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    h_seq = np.zeros((B, L, H))
    steps = []
    for t in range(L):
        m = mask[:, t:t + 1]
        a = x[:, t] @ params["Wx"] + h @ params["Wh"] + params["b"]
        i = sigmoid(a[:, :H])
        f = sigmoid(a[:, H:2 * H])
        g = np.tanh(a[:, 2 * H:3 * H])
        o = sigmoid(a[:, 3 * H:])
        c_cand = f * c + i * g
        tc = np.tanh(c_cand)
        h_cand = o * tc
        c_new = m * c_cand + (1.0 - m) * c
        h_new = m * h_cand + (1.0 - m) * h
        steps.append((h, c, i, f, g, o, tc, m))
        h, c = h_new, c_new
        h_seq[:, t] = h
    return h_seq, h, (params, x, steps)


def masked_lstm_backward(cache, dh_seq=None, dh_last=None):
    """Backprop through ``masked_lstm_forward``; returns (grads, dx)."""
    params, x, steps = cache
    B, L, _ = x.shape
    H = params["Wh"].shape[0]
    dWx = np.zeros_like(params["Wx"])
    dWh = np.zeros_like(params["Wh"])
    db = np.zeros_like(params["b"])
    dx = np.zeros_like(x)
    dh = np.zeros((B, H)) if dh_last is None else dh_last.copy()
    dc = np.zeros((B, H))
    for t in range(L - 1, -1, -1):
        h_prev, c_prev, i, f, g, o, tc, m = steps[t]
        if dh_seq is not None:
            dh = dh + dh_seq[:, t]
        dh_cand = m * dh
        dh_carry = (1.0 - m) * dh
        dc_cand = m * dc + dh_cand * o * (1.0 - tc * tc)
        dc_carry = (1.0 - m) * dc
        do = dh_cand * tc
        df = dc_cand * c_prev
        di = dc_cand * g
        dg = dc_cand * i
        dc = dc_cand * f + dc_carry
        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dWx += x[:, t].T @ da
        dWh += h_prev.T @ da
        db += da.sum(axis=0)
        dx[:, t] = da @ params["Wx"].T
        dh = da @ params["Wh"].T + dh_carry
    return {"Wx": dWx, "Wh": dWh, "b": db}, dx


# ---------------------------------------------------------------------------
# reference sampler
# ---------------------------------------------------------------------------

def prefix_sample(params, cfg, z, rng, eos_id, temperature=1.0, forbid=()):
    """Quadratic reference for ``ancestral_sample``: rescore every live
    record's whole prefix with ``decode_logits`` at each step, with the same
    masking and the same uniform draws."""
    seqs, live = [[] for _ in z], list(range(len(z)))
    for t in range(cfg.t_max):
        prefix = np.array([seqs[b] + [0] for b in live])
        step = decode_logits(params, cfg, z[live], prefix)[0][:, t] / temperature
        step[:, list(forbid) + ([eos_id] if t == 0 else [])] = -np.inf
        cdf = np.cumsum(np.exp(step - step.max(axis=1, keepdims=True)), axis=1)
        u = rng.random(len(live)) * cdf[:, -1]
        draws = np.minimum((cdf <= u[:, None]).sum(axis=1), cfg.vocab_size - 1)
        for b, tok in zip(live, draws):
            seqs[b].append(int(tok))
        live = [b for b, tok in zip(live, draws) if tok != eos_id]
        if not live:
            break
    return [s[:-1] if s[-1] == eos_id else s for s in seqs]


# ---------------------------------------------------------------------------
# small corpora
# ---------------------------------------------------------------------------

def tiny_records():
    # four hand-written patients over a six-code alphabet
    return [
        PatientRecord("p0", (frozenset({"a"}), frozenset({"b", "c"}))),
        PatientRecord("p1", (frozenset({"a"}), frozenset({"b", "c"}), frozenset({"d"}))),
        PatientRecord("p2", (frozenset({"b", "c"}),)),
        PatientRecord("p3", (frozenset({"d"}), frozenset({"a"}), frozenset({"e", "f"}))),
    ]
