"""Cohort-level metrics: marginal fidelity, diversity, downstream utility,
and the presence-disclosure attack.

All metrics are pure functions of their inputs (plus explicit seeds for the
predictor) and do not care about record order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import sparse
from scipy.special import softmax

from . import _nn
from .corpus import Cohort, encode_cohort, visit_key
from .trainer import encode_posteriors, kl_diag_gaussians
from .decoder import sequence_log_likelihood
from .latent import compose_intensities


# ---------------------------------------------------------------------------
# n-gram marginals
# ---------------------------------------------------------------------------

class _IndependentPairs(Mapping):
    """Read-only bigram table f(a, b) = f(a) f(b) over the unigram support S.

    Entries are computed on demand; the |S|^2 pairs are never stored, and
    only iterating the mapping visits them.
    """

    def __init__(self, unigram_freqs):
        self.marginal = dict(unigram_freqs)
        self.f = np.fromiter(self.marginal.values(), float, len(self.marginal))

    def __getitem__(self, key):
        try:
            a, b = key
            return self.marginal[a] * self.marginal[b]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def get(self, key, default=None):
        # Mapping.get would add a __getitem__ call to each lookup
        try:
            a, b = key
            return self.marginal[a] * self.marginal[b]
        except (KeyError, TypeError, ValueError):
            return default

    def __iter__(self):
        return product(self.marginal, repeat=2)

    def __len__(self):
        return len(self.marginal) ** 2


@dataclass(frozen=True)
class NgramStats:
    """Relative frequencies of visit-token n-grams, n in {1, 2}."""

    n: int
    freqs: Mapping

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only unigrams and bigrams are supported")
        if self.freqs and abs(_table_sums(self.freqs)[0] - 1.0) > 1e-9:
            raise ValueError("frequencies must sum to 1")


def _table_sums(freqs):
    """(Σv, Σv², values held) of a frequency table. An independence table
    holds f(a) f(b), so Σv = (Σf)², Σv² = (Σf²)², and its marginal f stands
    in for the values held: they are constant, or all 0, exactly when f is."""
    if isinstance(freqs, _IndependentPairs):
        return freqs.f.sum() ** 2, (freqs.f @ freqs.f) ** 2, freqs.f
    v = np.fromiter(freqs.values(), float, len(freqs))
    return v.sum(), v @ v, v


def _record_tokens(record, vocab):
    toks = [vocab.token_of(visit) for visit in record.visits]
    if None in toks:
        raise ValueError(f"record {record.id!r} has an out-of-vocabulary "
                         "visit; preprocess the cohort first")
    return toks


def ngram_stats(cohort, n):
    """Marginal frequency of each visit token (n=1) or ordered pair of
    consecutive visit tokens within a record (n=2)."""
    if cohort.vocab is None:
        raise ValueError("cohort has no vocabulary attached")
    counts = Counter()
    for rec in cohort.records:
        toks = _record_tokens(rec, cohort.vocab)
        counts.update(toks if n == 1 else zip(toks, toks[1:]))
    total = counts.total()
    return NgramStats(n=n, freqs={k: v / total for k, v in counts.items()})


def independent_bigram_baseline(unigram):
    """Bigram table predicted by independence: f(a, b) = f(a) f(b). Its
    ``freqs`` is a read-only mapping over every pair of the unigram
    support, computed on demand in O(|S|) memory."""
    if unigram.n != 1:
        raise ValueError("baseline needs unigram statistics")
    return NgramStats(n=2, freqs=_IndependentPairs(unigram.freqs))


def pearson_marginal(a, b):
    """Pearson correlation of two frequency maps over the union of their n
    keys, a key missing from one map counting as 0 there:

        cov = Σxy - Σx Σy / n,  var = Σv² - (Σv)² / n,

    where Σxy runs over the shared keys, found by walking the shorter map,
    and the other sums come from ``_table_sums``. An independence table
    costs O(|S|) unless it is the shorter map."""
    short, long = sorted((a.freqs, b.freqs), key=len)
    xy = np.array([v * w for k, v in short.items()
                   if (w := long.get(k)) is not None])
    n = len(short) + len(long) - len(xy)
    if n < 2:
        raise ValueError("need at least 2 distinct keys")
    (sx, vx), (sy, vy) = (_sum_and_var(t, n) for t in (short, long))
    return float((xy.sum() - sx * sy / n) / np.sqrt(vx * vy))


def _sum_and_var(table, n):
    """Σv and n times the variance of ``table`` laid out over n keys."""
    s, ss, held = _table_sums(table)
    if n > len(table):  # the union holds keys this table is 0 on
        held = np.append(held, 0.0)
    if np.ptp(held) == 0.0:
        raise ValueError("degenerate (constant) frequency vector")
    return s, ss - s * s / n


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

PREDICTOR_HIDDEN = 64
PREDICTOR_EMBED = 32
PREDICTOR_MINIBATCH = 64
PREDICTOR_LR = 5e-3


@dataclass
class NextVisitPredictor:
    """Small recurrent next-token model; scores codes for the next visit."""

    params: dict
    vocab: object
    codes: tuple
    code_matrix: sparse.csr_matrix  # (vocab.size, n_codes) 0/1 membership


def _code_axis(vocab):
    """The sorted code axis and the sparse token -> code membership map;
    the EOS and PAD rows are empty."""
    codes = sorted({c for e in vocab.entries for c in e.codes})
    idx = {c: j for j, c in enumerate(codes)}
    cols = [idx[c] for e in vocab.entries for c in e.codes]
    indptr = np.cumsum([0] + [len(e.codes) for e in vocab.entries] + [0, 0])
    M = sparse.csr_matrix((np.ones(len(cols)), cols, indptr),
                          shape=(vocab.size, len(codes)))
    return tuple(codes), M


def _predictor_states(params, batch):
    """LSTM states (B, T, H) and the (embedding, LSTM) caches."""
    emb, c_emb = _nn.embedding(params["emb"], batch.tokens)
    h_seq, _, c_lstm = _nn.lstm_forward(params["lstm"], emb, batch.mask)
    return h_seq, (c_emb, c_lstm)


def _visit_targets(batch, vocab):
    """Mask (B, T - 1) of the positions t whose token t+1 is a visit (not
    EOS or padding), and those next tokens in row-major order."""
    nxt = batch.tokens[:, 1:]
    live = nxt < vocab.n_entries
    return live, nxt[live]


def train_next_visit_predictor(cohort, seed=0, epochs=8):
    """Fit next-token cross-entropy over the cohort's visit sequences.

    The position-t state predicts the token at t+1; end/padding slots are
    never targets, so the model only learns visit-to-visit structure. The
    head runs on the target positions only.
    """
    if cohort.vocab is None:
        raise ValueError("cohort has no vocabulary attached")
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
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, PREDICTOR_MINIBATCH):
            mb = batch.take(order[start:start + PREDICTOR_MINIBATCH])
            h_seq, (c_emb, c_lstm) = _predictor_states(params, mb)
            live, tgt = _visit_targets(mb, vocab)
            logits, c_head = _nn.dense(params["head"], h_seq[:, :-1][live])
            _, dlog = _nn.softmax_xent(logits, tgt)  # ascent on log-likelihood
            g_head, d_rows = _nn.dense_backward(c_head, dlog)
            dh = np.zeros_like(h_seq)
            dh[:, :-1][live] = d_rows
            g_lstm, demb = _nn.lstm_backward(c_lstm, dh_seq=dh)
            g_emb = _nn.embedding_backward(c_emb, demb)
            adam.step(vec, layout.flatten(
                {"emb": g_emb, "lstm": g_lstm, "head": g_head}))
    codes, M = _code_axis(vocab)
    return NextVisitPredictor(params=params, vocab=vocab, codes=codes,
                              code_matrix=M)


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
    h_seq, _ = _predictor_states(predictor.params, batch)
    live, nxt = _visit_targets(batch, vocab)
    logits, _ = _nn.dense(predictor.params["head"], h_seq[:, :-1][live])
    # distribution over the next *visit*: terminal/padding ids cannot be it
    logits[:, [vocab.eos_id, vocab.pad_id]] = -np.inf
    M = predictor.code_matrix
    scores = softmax(logits, axis=1) @ M  # (steps, n_codes)
    kk = min(k, len(predictor.codes))
    top = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
    # a visit's codes are its token's codes: encode_cohort rejects OOV visits
    hits = np.asarray(M[nxt[:, None], top].sum(axis=1)).ravel()
    return float(np.mean(hits / np.diff(M.indptr)[nxt]))


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

_HOLDOUT_CHUNK = 256  # records encoded and scored at once


def elbo_holdout(model, cohort):
    """Average per-record plug-in ELBO estimate on held-out records: the
    decoder scored at the encoder means with the last posterior sample of
    the globals, minus the closed-form KL terms. Scoring at the mean instead
    of averaging over q makes it no lower bound. Never exceeds 0.

    Records are scored in chunks of ``_HOLDOUT_CHUNK``, so memory does not
    grow with the held-out cohort."""
    snapshot = model.point_sample()
    batch = encode_cohort(cohort, model.vocab, model.dec_cfg.t_max)
    n = len(batch)
    score = 0.0
    for start in range(0, n, _HOLDOUT_CHUNK):
        chunk = batch.take(np.arange(start, min(start + _HOLDOUT_CHUNK, n)))
        score += _holdout_score(model, snapshot, chunk)
    return score / n


def _holdout_score(model, snapshot, batch):
    """Summed plug-in ELBO of one chunk of held-out records."""
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
    return score
