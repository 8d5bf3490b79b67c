"""Cohort-level metrics: marginal fidelity, diversity, downstream utility,
and the presence-disclosure attack.

All metrics are pure functions of their inputs (plus explicit seeds for the
predictor) and do not care about record order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _nn
from .corpus import Cohort, encode_cohort, visit_key
from .trainer import encode_posteriors, kl_diag_gaussians
from .decoder import sequence_log_likelihood
from .latent import compose_intensities


# ---------------------------------------------------------------------------
# n-gram marginals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NgramStats:
    """Relative frequencies of visit-token n-grams, n in {1, 2}."""

    n: int
    freqs: dict

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only unigrams and bigrams are supported")
        if self.freqs:
            total = sum(self.freqs.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError("frequencies must sum to 1")


def _record_tokens(record, vocab):
    toks = []
    for visit in record.visits:
        tok = vocab.token_of(visit)
        if tok is None:
            raise ValueError(
                f"record {record.id!r} has an out-of-vocabulary visit; "
                "preprocess the cohort first")
        toks.append(tok)
    return toks


def ngram_stats(cohort, n):
    """Marginal frequency of each visit token (n=1) or ordered pair of
    consecutive visit tokens within a record (n=2)."""
    if cohort.vocab is None:
        raise ValueError("cohort has no vocabulary attached")
    counts = {}
    for rec in cohort.records:
        toks = _record_tokens(rec, cohort.vocab)
        grams = toks if n == 1 else list(zip(toks, toks[1:]))
        for g in grams:
            counts[g] = counts.get(g, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return NgramStats(n=n, freqs={})
    return NgramStats(n=n, freqs={k: v / total for k, v in counts.items()})


def independent_bigram_baseline(unigram):
    """Bigram table predicted by independence: f(a, b) = f(a) f(b)."""
    if unigram.n != 1:
        raise ValueError("baseline needs unigram statistics")
    freqs = {
        (a, b): pa * pb
        for a, pa in unigram.freqs.items()
        for b, pb in unigram.freqs.items()
    }
    return NgramStats(n=2, freqs=freqs)


def pearson_marginal(a, b):
    """Pearson correlation of two frequency maps over the union of keys."""
    keys = sorted(set(a.freqs) | set(b.freqs))
    if len(keys) < 2:
        raise ValueError("need at least 2 distinct keys")
    va = np.array([a.freqs.get(k, 0.0) for k in keys])
    vb = np.array([b.freqs.get(k, 0.0) for k in keys])
    if va.std() == 0.0 or vb.std() == 0.0:
        raise ValueError("degenerate (constant) frequency vector")
    return float(np.corrcoef(va, vb)[0, 1])


# ---------------------------------------------------------------------------
# diversity
# ---------------------------------------------------------------------------

def avg_jaccard_counts(cohort):
    """(value, n_used, n_skipped); records with a single visit are skipped."""
    per_record = []
    skipped = 0
    for rec in cohort.records:
        if len(rec.visits) < 2:
            skipped += 1
            continue
        sims = []
        for a, b in zip(rec.visits, rec.visits[1:]):
            sa, sb = set(a), set(b)
            sims.append(len(sa & sb) / len(sa | sb))
        per_record.append(float(np.mean(sims)))
    if not per_record:
        raise ValueError("no records with at least two visits")
    return float(np.mean(per_record)), len(per_record), skipped


def avg_jaccard(cohort):
    """Mean over records of the mean consecutive-visit Jaccard similarity."""
    value, _, _ = avg_jaccard_counts(cohort)
    return value


def unique_token_ratio(cohort):
    """Per-record distinct-visit fraction, averaged over records."""
    ratios = [
        len({visit_key(v) for v in rec.visits}) / len(rec.visits)
        for rec in cohort.records
    ]
    if not ratios:
        raise ValueError("empty cohort")
    return float(np.mean(ratios))


# ---------------------------------------------------------------------------
# cohort splitting
# ---------------------------------------------------------------------------

def split_cohort(cohort, test_frac=0.2, seed=0):
    """Deterministic shuffled (train, test) split."""
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(cohort.records))
    n_test = max(1, int(round(test_frac * len(order))))
    test_ids = set(order[:n_test].tolist())
    tr, te = [], []
    for i, rec in enumerate(cohort.records):
        (te if i in test_ids else tr).append(rec)
    mk = lambda recs: Cohort(records=recs,
                             condition_names=list(cohort.condition_names),
                             vocab=cohort.vocab)
    return mk(tr), mk(te)


# ---------------------------------------------------------------------------
# next-visit predictor (downstream utility proxy)
# ---------------------------------------------------------------------------

@dataclass
class NextVisitPredictor:
    """Small recurrent next-token model; scores codes for the next visit."""

    params: dict
    vocab: object
    hidden: int
    codes: tuple
    code_matrix: np.ndarray  # (vocab.size, n_codes) membership indicator


def _code_axis(vocab):
    codes = sorted({c for e in vocab.entries for c in e.codes})
    idx = {c: j for j, c in enumerate(codes)}
    M = np.zeros((vocab.size, len(codes)))
    for e in vocab.entries:
        for c in e.codes:
            M[e.token_id, idx[c]] = 1.0
    return tuple(codes), M


def _predictor_logits(params, batch):
    emb, _ = _nn.embedding(params["emb"], batch.tokens)
    h_seq, _, _ = _nn.lstm_forward(params["lstm"], emb, batch.mask)
    logits, _ = _nn.dense(params["head"], h_seq)
    return logits


def train_next_visit_predictor(cohort, seed=0, hidden=64, embed=32,
                               epochs=8, minibatch=64, lr=5e-3):
    """Fit next-token cross-entropy over the cohort's visit sequences.

    The position-t state predicts the token at t+1; end/padding slots are
    never targets, so the model only learns visit-to-visit structure.
    """
    if cohort.vocab is None:
        raise ValueError("cohort has no vocabulary attached")
    vocab = cohort.vocab
    t_max = max(len(r.visits) for r in cohort.records)
    batch = encode_cohort(cohort, vocab, t_max)
    rng = np.random.default_rng(seed)
    init = {
        "emb": _nn.embedding_init(rng, vocab.size, embed),
        "lstm": _nn.lstm_init(rng, embed, hidden),
        "head": _nn.dense_init(rng, hidden, vocab.size),
    }
    layout = _nn.Layout.of(init)
    vec = layout.flatten(init)
    params = layout.views(vec)
    adam = _nn.Adam(vec, lr=lr)
    n = len(batch)
    eos = vocab.eos_id
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, minibatch):
            mb = batch.take(order[start:start + minibatch])
            emb, c_emb = _nn.embedding(params["emb"], mb.tokens)
            h_seq, _, c_lstm = _nn.lstm_forward(params["lstm"], emb, mb.mask)
            logits, c_head = _nn.dense(params["head"], h_seq)
            # position t predicts token t+1; exclude EOS targets
            tgt = mb.tokens[:, 1:]
            tgt_mask = mb.mask[:, 1:] * (tgt != eos)
            lp = _nn.log_softmax(logits[:, :-1])
            B, T1 = tgt.shape
            probs = np.exp(lp)
            dlog = -probs
            dlog[np.arange(B)[:, None], np.arange(T1)[None, :], tgt] += 1.0
            dlog *= tgt_mask[..., None]
            dlogits = np.zeros_like(logits)
            dlogits[:, :-1] = dlog  # ascent on log-likelihood
            g_head, dh = _nn.dense_backward(c_head, dlogits)
            g_lstm, demb = _nn.lstm_backward(c_lstm, dh_seq=dh)
            g_emb = _nn.embedding_backward(c_emb, demb)
            adam.step(vec, layout.flatten(
                {"emb": g_emb, "lstm": g_lstm, "head": g_head}))
    codes, M = _code_axis(vocab)
    return NextVisitPredictor(params=params, vocab=vocab, hidden=hidden,
                              codes=codes, code_matrix=M)


def topk_recall(predictor, cohort, k):
    """Mean over prediction steps of |top-k codes ∩ next-visit codes| /
    |next-visit codes|. Records with fewer than two visits are skipped."""
    if k < 1:
        raise ValueError("k must be >= 1")
    vocab = predictor.vocab
    eligible = [r for r in cohort.records if len(r.visits) >= 2]
    if not eligible:
        raise ValueError("no records with at least two visits")
    sub = Cohort(records=eligible,
                 condition_names=list(cohort.condition_names), vocab=vocab)
    t_max = max(len(r.visits) for r in eligible)
    batch = encode_cohort(sub, vocab, t_max)
    logits = _predictor_logits(predictor.params, batch)
    # distribution over the next *visit*: terminal/padding ids cannot be it
    logits[:, :, vocab.eos_id] = -np.inf
    logits[:, :, vocab.pad_id] = -np.inf
    probs = np.exp(_nn.log_softmax(logits))
    scores = probs @ predictor.code_matrix  # (B, T, n_codes)
    kk = min(k, len(predictor.codes))
    recalls = []
    for b, rec in enumerate(eligible):
        for t in range(len(rec.visits) - 1):
            truth = set(rec.visits[t + 1])
            s = scores[b, t]
            top = np.argpartition(-s, kk - 1)[:kk]
            top_codes = {predictor.codes[j] for j in top}
            recalls.append(len(truth & top_codes) / len(truth))
    return float(np.mean(recalls))


# ---------------------------------------------------------------------------
# presence disclosure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackOutcome:
    sensitivity: float
    precision: float
    tp: int
    fp: int
    fn: int
    tn: int
    order_sensitive: bool

    def as_dict(self):
        return {
            "sensitivity": self.sensitivity, "precision": self.precision,
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "order_sensitive": self.order_sensitive,
        }


def _match_key(record, order_sensitive):
    keys = [visit_key(v) for v in record.visits]
    return tuple(keys) if order_sensitive else tuple(sorted(keys))


def presence_disclosure(synthetic, known, order_sensitive=False):
    """Membership attack: an attacker holding ``known`` records claims
    training membership whenever a synthetic record has the same visits.

    By default visit order is ignored (the stronger attacker); set
    ``order_sensitive`` for exact-sequence matching.
    """
    if not known:
        raise ValueError("known record list is empty")
    pool = {_match_key(r, order_sensitive) for r in synthetic.records}
    tp = fp = fn = tn = 0
    for record, in_training in known:
        claimed = _match_key(record, order_sensitive) in pool
        if claimed and in_training:
            tp += 1
        elif claimed:
            fp += 1
        elif in_training:
            fn += 1
        else:
            tn += 1
    sens = tp / (tp + fn) if tp + fn else 0.0
    prec = tp / (tp + fp) if tp + fp else 0.0
    return AttackOutcome(sensitivity=sens, precision=prec, tp=tp, fp=fp,
                         fn=fn, tn=tn, order_sensitive=order_sensitive)


# ---------------------------------------------------------------------------
# held-out score
# ---------------------------------------------------------------------------

def elbo_holdout(model, cohort):
    """Average per-record plug-in ELBO estimate on held-out records: the
    decoder scored at the encoder means with the last posterior sample of
    the globals, minus the closed-form KL terms. Scoring at the mean instead
    of averaging over q makes it no lower bound. Never exceeds 0."""
    snapshot = model.point_sample()
    parts = model.parts
    batch = encode_cohort(cohort, model.vocab, model.dec_cfg.t_max)
    qs = encode_posteriors(parts, model.phi, batch)
    q_z = qs["z"]
    recon, _ = sequence_log_likelihood(
        snapshot["theta"], model.dec_cfg, q_z.mean, batch.tokens, batch.mask)
    score = float(recon.sum())
    if model.variant == "eva":
        score -= kl_diag_gaussians(q_z, 0.0, 1.0)
    else:
        pi = compose_intensities(batch.conditions, qs["w"].mean)
        prior_mean = pi @ snapshot["H"].T + qs["b"].mean
        score -= kl_diag_gaussians(q_z, prior_mean, model.hyper.tau)
        score -= kl_diag_gaussians(qs["b"], 0.0, model.hyper.gamma)
        score -= kl_diag_gaussians(qs["w"], 0.0, 1.0)
    return score / len(batch)
