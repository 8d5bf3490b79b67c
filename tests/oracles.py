"""Numerical oracles and hand-written data shared by the test modules.

The gradient-checking helpers here are the independent oracle used
throughout: central finite differences in float64, perturbing every
element of every parameter array.  Analytic backward passes are compared
against them with a relative max-norm error.

They live in a plain module rather than ``conftest.py`` so that test
modules can import them by name even when another test directory on the
same run has a ``conftest.py`` of its own.
"""

from collections import Counter

import numpy as np
from scipy.special import expit as sigmoid, log_softmax, softmax

from ehrgen import _nn
from ehrgen.corpus import Cohort, EncodedBatch, PatientRecord, encode_cohort
from ehrgen import decoder
from ehrgen.decoder import decode_logits, sequence_log_likelihood
from ehrgen.evaluation import (PREDICTOR_EMBED, PREDICTOR_HIDDEN, PREDICTOR_LR,
                               PREDICTOR_MINIBATCH, NgramStats)
from ehrgen.encoders import kl_diag_gaussians
from ehrgen.latent import GAMMA, TAU, compose_intensities
from ehrgen.model import encode_posteriors, param_layouts
from ehrgen.simulate import _length_tail
from ehrgen.trainer import step_gradients


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


def zero_grads(tree):
    """A zero gradient tree shaped like the parameter tree ``tree``, for a
    backward pass to add into; its leaves are views of one flat vector."""
    layout = _nn.Layout(tree)
    return layout.views(np.zeros(layout.size))


def tree_step_gradients(parts, batch, theta, H, phi, noises, n_total):
    """``trainer.step_gradients`` on parameter trees; eva ignores H. The
    trees are flattened at each call, so a finite-difference perturbation
    of a leaf is seen, and both gradient vectors come back as view trees."""
    glob_layout, phi_layout = param_layouts(parts)
    globals_ = {"theta": theta}
    if parts.variant == "evac":
        globals_["H"] = H
    report, g_globals, g_phi = step_gradients(
        parts, batch, glob_layout.flatten(globals_), phi_layout.flatten(phi),
        noises, n_total)
    return report, glob_layout.views(g_globals), phi_layout.views(g_phi)


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
    grads = zero_grads(params)
    dh = _nn.dense_backward(cache_head, grads["head"], dlogits)
    dz = decoder._stack_backward(cfg, cache_stack, grads, dh)
    return (picked * mask).sum(axis=1), grads, dz


# ---------------------------------------------------------------------------
# reference sampler
# ---------------------------------------------------------------------------

def prefix_sample(params, cfg, z, rng, eos_id, forbid=()):
    """Quadratic reference for ``ancestral_sample``: rescore every live
    record's whole prefix with ``decode_logits`` at each step, with the same
    masking and the same uniform draws."""
    seqs, live = [[] for _ in z], list(range(len(z)))
    for t in range(cfg.t_max):
        prefix = np.array([seqs[b] + [0] for b in live])
        step = decode_logits(params, cfg, z[live], prefix)[0][:, t]
        step[:, list(forbid) + ([eos_id] if t == 0 else [])] = -np.inf
        cdf = np.cumsum(np.exp(step - step.max(axis=1, keepdims=True)), axis=1)
        u = rng.random(len(live)) * cdf[:, -1]
        draws = np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)
        for b, tok in zip(live, draws):
            seqs[b].append(int(tok))
        live = [b for b, tok in zip(live, draws) if tok != eos_id]
        if not live:
            break
    return [s[:-1] if s[-1] == eos_id else s for s in seqs]


def grouped_prefix_sample(thetas, cfg, picks, draw_latents, rng, eos_id,
                          forbid=()):
    """Quadratic reference for sampling several snapshot groups in one loop,
    with ``generate_cohort``'s random stream after the snapshot picks: record
    r decodes with ``thetas[picks[r]]``. The latents come first,
    ``draw_latents(s, n, rng)`` for each snapshot s in ascending order; then,
    at each step, every live record's whole prefix is rescored, one record
    at a time, with ``decode_logits`` under its own snapshot, and one
    uniform vector is drawn over the live records ordered by snapshot, then
    by index. Returns the token lists in record order."""
    picks = [int(s) for s in picks]
    order = sorted(range(len(picks)), key=lambda r: (picks[r], r))
    z = {}
    for s in sorted(set(picks)):
        rows = [r for r in order if picks[r] == s]
        z.update(zip(rows, draw_latents(s, len(rows), rng)))
    seqs, live = {r: [] for r in order}, order
    for t in range(cfg.t_max):
        for r, u in zip(live, rng.random(len(live))):
            prefix = np.array([seqs[r] + [0]])
            step = decode_logits(thetas[picks[r]], cfg, z[r][None],
                                 prefix)[0][0, t]
            step[list(forbid) + ([eos_id] if t == 0 else [])] = -np.inf
            cdf = np.cumsum(np.exp(step - step.max()))
            seqs[r].append(min(int((cdf <= u * cdf[-1]).sum()), len(cdf) - 1))
        live = [r for r in live if seqs[r][-1] != eos_id]
        if not live:
            break
    return [seqs[r][:-1] if seqs[r][-1] == eos_id else seqs[r]
            for r in range(len(picks))]


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


def dense_transition(spec):
    """The (K, G, G) transition table that a spec's compact rows stand for:
    each row's home share on every group of its block, then its entries
    written over that, one (k, g) row at a time."""
    K, G = spec.n_conditions, spec.n_groups
    table = np.zeros((K, G, G))
    for k, g in np.ndindex(K, G):
        if spec.home[k, g] >= 0:
            block = list(spec.condition_groups[spec.home[k, g]])
            table[k, g, block] = spec.home_prob[k, g]
        for h, p in zip(spec.entry_group[k, g].tolist(),
                        spec.entry_prob[k, g].tolist()):
            if h >= 0:
                table[k, g, h] = p
    return table


def dense_occupancies(spec, k, transition):
    """pi_t = initial P^t for t = 0 .. len_max - 1, with P the dense
    ``transition[k]``."""
    out = np.zeros((spec.len_max, spec.n_groups))
    pi = spec.initial[k].copy()
    for t in range(spec.len_max):
        out[t] = pi
        pi = pi @ transition[k]
    return out


def dense_group_unigram(spec):
    """Reference for ``analytic_group_unigram`` on the dense table."""
    transition, tail = dense_transition(spec), _length_tail(spec)
    counts = np.zeros(spec.n_groups)
    for k in range(spec.n_conditions):
        occ = dense_occupancies(spec, k, transition)
        counts += spec.mixture_weights[k] * (tail[:, None] * occ).sum(axis=0)
    return counts / counts.sum()


def looped_toy_cohort(spec, seed):
    """Reference for ``simulate_toy_cohort``: each record walks its own chain
    to the end, one ``searchsorted`` per visit on a cumulative copy of the
    whole dense transition table."""
    rng = np.random.default_rng(seed)
    K, G = spec.n_conditions, spec.n_groups
    visit_sets = [frozenset(codes) for codes in spec.group_codes]
    trans_cdf = np.cumsum(dense_transition(spec), axis=2)
    init_cdf = np.cumsum(spec.initial, axis=1)
    mix_cdf = np.cumsum(spec.mixture_weights)
    records = []
    for i in range(spec.n_records):
        comp = min(int(np.searchsorted(mix_cdf, rng.random(), side="right")), K - 1)
        T = int(rng.integers(spec.len_min, spec.len_max + 1))
        u = rng.random(T)
        g = min(int(np.searchsorted(init_cdf[comp], u[0], side="right")), G - 1)
        groups = [g]
        for t in range(1, T):
            g = min(int(np.searchsorted(trans_cdf[comp, g], u[t], side="right")), G - 1)
            groups.append(g)
        cond = [0] * K
        cond[K - 1] = 1
        cond[comp] = 1
        records.append(PatientRecord(id=f"p{i:06d}",
                                     visits=tuple(visit_sets[g] for g in groups),
                                     conditions=tuple(cond)))
    return Cohort(records=records, condition_names=list(spec.condition_names))


def analytic_group_bigram(spec):
    """Expected relative frequency of each ordered group pair under the
    toy spec, which the simulator's empirical bigrams are held to."""
    transition, tail = dense_transition(spec), _length_tail(spec)
    counts = np.zeros((spec.n_groups, spec.n_groups))
    for k in range(spec.n_conditions):
        occ = dense_occupancies(spec, k, transition)
        P = transition[k]
        # a pair starting at step t exists iff T > t + 1
        weights = tail[1:]
        counts += spec.mixture_weights[k] * np.einsum(
            "t,tg,gh->gh", weights, occ[: spec.len_max - 1], P
        )
    return counts / counts.sum()


# ---------------------------------------------------------------------------
# reference evaluation
# ---------------------------------------------------------------------------

def counter_ngram_stats(cohort, n):
    """Reference for ``ngram_stats``: a ``Counter`` over each record's tokens
    (n=1) or consecutive token pairs (n=2)."""
    counts = Counter()
    for rec in cohort.records:
        toks = [cohort.vocab.token_of(visit) for visit in rec.visits]
        counts.update(toks if n == 1 else zip(toks, toks[1:]))
    total = counts.total()
    return NgramStats(n=n, freqs={k: v / total for k, v in counts.items()})


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


def looped_avg_jaccard_counts(cohort):
    """Reference for ``avg_jaccard_counts``: every consecutive pair of
    every record scored afresh."""
    per_record = []
    skipped = 0
    for rec in cohort.records:
        if len(rec.visits) < 2:
            skipped += 1
            continue
        sims = [len(a & b) / len(a | b)
                for a, b in zip(rec.visits, rec.visits[1:])]
        per_record.append(float(np.mean(sims)))
    return float(np.mean(per_record)), len(per_record), skipped


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
            grads = zero_grads(params)
            dh = _nn.dense_backward(c_head, grads["head"], dlogits)
            demb = _nn.lstm_backward(c_lstm, grads["lstm"], dh_seq=dh)
            _nn.embedding_backward(c_emb, grads["emb"], demb)
            adam.step(vec, layout.flatten(grads))
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
    membership = np.zeros((vocab.size, len(predictor.codes)))
    membership[np.divmod(predictor.members, len(predictor.codes))] = 1.0
    scores = probs @ membership
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
        score -= kl_diag_gaussians(q_z, prior_mean, TAU)
        score -= kl_diag_gaussians(q_b, 0.0, GAMMA)
        score -= kl_diag_gaussians(q_w, 0.0, 1.0)
    return score / len(batch)


def looped_encode_cohort(cohort, vocab, t_max):
    """Reference for ``encode_cohort``: one row written per record, from
    ``token_of`` on the record's first ``t_max`` visits."""
    n = len(cohort.records)
    tokens = np.full((n, t_max + 1), vocab.pad_id, dtype=np.int64)
    mask = np.zeros((n, t_max + 1))
    conds = np.zeros((n, len(cohort.condition_names)))
    for i, rec in enumerate(cohort.records):
        row = [vocab.token_of(v) for v in rec.visits[:t_max]] + [vocab.eos_id]
        tokens[i, :len(row)] = row
        mask[i, :len(row)] = 1.0
        if rec.conditions:
            conds[i, : len(rec.conditions)] = rec.conditions
    return EncodedBatch(tokens=tokens, mask=mask, conditions=conds)


def looped_best_replacement(visit, vocab):
    """Reference for ``corpus.replace_rare_visits``: the vocabulary entry
    maximizing |intersection| with the visit, found by scanning every entry.

    Ties break by larger Jaccard similarity, then higher frequency, then
    lexicographic order; a visit with zero overlap everywhere falls back to
    the most frequent entry.
    """
    codes = set(visit)
    best = None
    best_rank = None
    for e in vocab.entries:
        inter = len(codes.intersection(e.codes))
        if inter == 0:
            continue
        jac = inter / float(len(codes) + len(e.codes) - inter)
        rank = (-inter, -jac, -e.frequency, e.codes)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = e
    if best is None:
        # zero overlap everywhere: fall back to the most frequent entry
        best = min(vocab.entries, key=lambda e: (-e.frequency, e.codes))
    return frozenset(best.codes)


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
