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
from scipy.special import expit as sigmoid, log_softmax, softmax

from ehrgen import _nn
from ehrgen.corpus import Cohort, PatientRecord, encode_cohort
from ehrgen import decoder
from ehrgen.decoder import decode_logits, sequence_log_likelihood
from ehrgen.evaluation import (PREDICTOR_EMBED, PREDICTOR_HIDDEN, PREDICTOR_LR,
                               PREDICTOR_MINIBATCH, NgramStats)
from ehrgen.latent import compose_intensities
from ehrgen.simulate import _length_tail, _occupancies
from ehrgen.trainer import encode_posteriors, kl_diag_gaussians


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
# reference latent density
# ---------------------------------------------------------------------------

def latent_log_density(z, H, pi, b, tau):
    """log N(z | H pi + b, tau I), the value that
    ``latent.latent_log_density_grads`` returns; any leading batch axes."""
    resid = z - (pi @ H.T + b)
    D = z.shape[-1]
    return (-0.5 * D * np.log(2.0 * np.pi * tau)
            - np.sum(resid * resid, axis=-1) / (2.0 * tau))


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
# reference decoder likelihood
# ---------------------------------------------------------------------------

def full_width_ll_and_grads(params, cfg, z, tokens, mask):
    """Reference for ``decoder.ll_and_grads``: the head and the
    cross-entropy run at every (B, T) position, padding included, and the
    mask weights the picked log-probabilities and the logit gradient."""
    h, cache_stack = decoder._stack(params, cfg, z, tokens)
    logits, cache_head = _nn.dense(params["head"], h)
    picked, dlogits = _nn.softmax_xent(logits, tokens)
    dlogits *= mask[..., None]
    g_head, dh = _nn.dense_backward(cache_head, dlogits)
    grads, dz = decoder._stack_backward(params, cfg, cache_stack, dh)
    grads["head"] = g_head
    return (picked * mask).sum(axis=1), grads, dz


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
# reference toy corpus
# ---------------------------------------------------------------------------

def looped_toy_transitions(n_conditions=4, background_groups=20,
                           groups_per_condition=20, structure_seed=7):
    """Reference for ``default_toy_spec``'s ``(transition, initial)``: every
    one of the K * G rows is tested for block membership in turn."""
    rng = np.random.default_rng(structure_seed)
    G = background_groups + n_conditions * groups_per_condition
    bg_block = tuple(range(background_groups))
    blocks = [
        tuple(range(background_groups + k * groups_per_condition,
                    background_groups + (k + 1) * groups_per_condition))
        for k in range(n_conditions)
    ]
    K = n_conditions + 1
    transition = np.zeros((K, G, G))
    initial = np.zeros((K, G))

    def sharp_row(own, cross, p_cross):
        row = np.zeros(G)
        own = np.asarray(own)
        picks = rng.choice(own, size=2, replace=False)
        row[picks[0]] = 0.50
        row[picks[1]] = 0.20
        rest = [g for g in own if g not in picks]
        if rest:
            row[rest] = (1.0 - 0.70 - p_cross) / len(rest)
        if cross is not None and p_cross > 0:
            jumps = rng.choice(np.asarray(cross), size=2, replace=False)
            row[jumps] = p_cross / 2.0
        return row / row.sum()

    for k in range(K):
        if k < n_conditions:
            own, bg = blocks[k], bg_block
            for g in range(G):
                if g in own:
                    transition[k, g] = sharp_row(own, bg, p_cross=0.10)
                elif g in bg:
                    transition[k, g] = sharp_row(bg, own, p_cross=0.25)
                else:
                    transition[k, g, own] = 1.0 / len(own)
            initial[k, own] = 1.0 / len(own)
        else:
            for g in range(G):
                if g in bg_block:
                    transition[k, g] = sharp_row(bg_block, None, p_cross=0.0)
                else:
                    transition[k, g, bg_block] = 1.0 / len(bg_block)
            initial[k, bg_block] = 1.0 / len(bg_block)
    return transition, initial


def analytic_group_bigram(spec):
    """Expected relative frequency of each ordered group pair under the
    toy spec, which the simulator's empirical bigrams are held to."""
    tail = _length_tail(spec)
    counts = np.zeros((spec.n_groups, spec.n_groups))
    for k in range(spec.n_conditions):
        occ = _occupancies(spec, k)
        P = spec.transition[k]
        # a pair starting at step t exists iff T > t + 1
        weights = tail[1:]
        counts += spec.mixture_weights[k] * np.einsum(
            "t,tg,gh->gh", weights, occ[: spec.len_max - 1], P
        )
    return counts / counts.sum()


# ---------------------------------------------------------------------------
# reference evaluation
# ---------------------------------------------------------------------------

def dict_independent_bigram_baseline(unigram):
    """Reference for ``independent_bigram_baseline``: every |S|^2 pair
    stored in a dict."""
    freqs = {
        (a, b): pa * pb
        for a, pa in unigram.freqs.items()
        for b, pb in unigram.freqs.items()
    }
    return NgramStats(n=2, freqs=freqs)


def dict_pearson_marginal(a, b):
    """Reference for ``pearson_marginal``: both maps laid out over the
    sorted union of keys and passed to ``np.corrcoef``."""
    keys = sorted(set(a.freqs) | set(b.freqs))
    if len(keys) < 2:
        raise ValueError("need at least 2 distinct keys")
    va = np.array([a.freqs.get(k, 0.0) for k in keys])
    vb = np.array([b.freqs.get(k, 0.0) for k in keys])
    if np.ptp(va) == 0.0 or np.ptp(vb) == 0.0:
        raise ValueError("degenerate (constant) frequency vector")
    return float(np.corrcoef(va, vb)[0, 1])


def _full_width_forward(params, batch):
    emb, c_emb = _nn.embedding(params["emb"], batch.tokens)
    h_seq, _, c_lstm = _nn.lstm_forward(params["lstm"], emb, batch.mask)
    logits, c_head = _nn.dense(params["head"], h_seq)
    return logits, (c_emb, c_lstm, c_head)


def full_width_predictor_params(cohort, seed=0, epochs=8):
    """Reference for ``train_next_visit_predictor``: the head runs on every
    position and a mask zeroes the gradient of the non-targets. Returns
    the flat parameter vector."""
    vocab = cohort.vocab
    t_max = max(len(r.visits) for r in cohort.records)
    batch = encode_cohort(cohort, vocab, t_max)
    rng = np.random.default_rng(seed)
    init = {
        "emb": _nn.embedding_init(rng, vocab.size, PREDICTOR_EMBED),
        "lstm": _nn.lstm_init(rng, PREDICTOR_EMBED, PREDICTOR_HIDDEN),
        "head": _nn.dense_init(rng, PREDICTOR_HIDDEN, vocab.size),
    }
    layout = _nn.Layout(init)
    vec = layout.flatten(init)
    params = layout.views(vec)
    adam = _nn.Adam(vec, lr=PREDICTOR_LR)
    n = len(batch)
    eos = vocab.eos_id
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, PREDICTOR_MINIBATCH):
            mb = batch.take(order[start:start + PREDICTOR_MINIBATCH])
            logits, (c_emb, c_lstm, c_head) = _full_width_forward(params, mb)
            tgt = mb.tokens[:, 1:]
            tgt_mask = mb.mask[:, 1:] * (tgt != eos)
            lp = log_softmax(logits[:, :-1], axis=-1)
            B, T1 = tgt.shape
            dlog = -np.exp(lp)
            dlog[np.arange(B)[:, None], np.arange(T1)[None, :], tgt] += 1.0
            dlog *= tgt_mask[..., None]
            dlogits = np.zeros_like(logits)
            dlogits[:, :-1] = dlog
            g_head, dh = _nn.dense_backward(c_head, dlogits)
            g_lstm, demb = _nn.lstm_backward(c_lstm, dh_seq=dh)
            g_emb = _nn.embedding_backward(c_emb, demb)
            adam.step(vec, layout.flatten(
                {"emb": g_emb, "lstm": g_lstm, "head": g_head}))
    return vec


def looped_topk_recall(predictor, cohort, k):
    """Reference for ``topk_recall``: dense (B, T, V) probabilities, a dense
    code matrix and a loop over records and steps."""
    vocab = predictor.vocab
    eligible = [r for r in cohort.records if len(r.visits) >= 2]
    sub = Cohort(records=eligible,
                 condition_names=list(cohort.condition_names), vocab=vocab)
    t_max = max(len(r.visits) for r in eligible)
    batch = encode_cohort(sub, vocab, t_max)
    logits, _ = _full_width_forward(predictor.params, batch)
    logits[:, :, vocab.eos_id] = -np.inf
    logits[:, :, vocab.pad_id] = -np.inf
    probs = softmax(logits, axis=-1)
    scores = probs @ predictor.code_matrix.toarray()
    kk = min(k, len(predictor.codes))
    recalls = []
    for b, rec in enumerate(eligible):
        for t in range(len(rec.visits) - 1):
            truth = set(rec.visits[t + 1])
            top = np.argpartition(-scores[b, t], kk - 1)[:kk]
            top_codes = {predictor.codes[j] for j in top}
            recalls.append(len(truth & top_codes) / len(truth))
    return float(np.mean(recalls))


def unchunked_elbo_holdout(model, cohort):
    """Reference for ``elbo_holdout``: the whole cohort encoded and scored
    in one pass."""
    snapshot = model.point_sample()
    batch = encode_cohort(cohort, model.vocab, model.dec_cfg.t_max)
    q = encode_posteriors(model, model.phi, batch)
    q_z = q.cols(model.local_slices[0])
    recon, _ = sequence_log_likelihood(
        snapshot["theta"], model.dec_cfg, q_z.mean, batch.tokens, batch.mask)
    score = float(recon.sum())
    if model.variant == "eva":
        score -= kl_diag_gaussians(q_z, 0.0, 1.0)
    else:
        q_w, q_b = (q.cols(sl) for sl in model.local_slices[1:])
        pi = compose_intensities(batch.conditions, q_w.mean)
        prior_mean = pi @ snapshot["H"].T + q_b.mean
        score -= kl_diag_gaussians(q_z, prior_mean, model.train_config.tau)
        score -= kl_diag_gaussians(q_b, 0.0, model.train_config.gamma)
        score -= kl_diag_gaussians(q_w, 0.0, 1.0)
    return score / len(batch)


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
