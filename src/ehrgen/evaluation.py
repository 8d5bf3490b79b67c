"""Cohort-level metrics: marginal fidelity, diversity, downstream utility,
and the presence-disclosure attack.

All metrics are pure functions of their inputs (plus explicit seeds for the
predictor) and do not care about record order. Token statistics read the
ids of ``corpus.token_ids``, so they share its out-of-vocabulary error.
``report`` assembles the metric set that ``ehrgen evaluate`` writes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _nn
from .corpus import Cohort, encode_cohort, token_ids
from .decoder import sequence_log_likelihood
from .encoders import kl_diag_gaussians
from .latent import GAMMA, TAU, compose_intensities
from .model import encode_posteriors


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


def ngram_stats(cohort, n):
    """Marginal frequency of each visit token (n=1) or ordered pair of
    consecutive visit tokens within a record (n=2)."""
    if cohort.vocab is None:
        raise ValueError("cohort has no vocabulary attached")
    ids, lengths = token_ids(cohort, cohort.vocab)
    V = cohort.vocab.size
    if n == 2:  # pair (a, b) has id a * V + b, and never spans two records
        same = np.diff(np.repeat(np.arange(len(lengths)), lengths)) == 0
        ids = ids[:-1][same] * V + ids[1:][same]
    # sorting, not np.bincount: a count array over pair ids has V^2 entries
    keys, counts = np.unique(ids, return_counts=True)
    freqs = (counts / counts.sum()).tolist()
    keys = (keys.tolist() if n == 1 else
            zip((keys // V).tolist(), (keys % V).tolist()))
    return NgramStats(n=n, freqs=dict(zip(keys, freqs)))


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
    costs O(|S|) unless it is the shorter map. Rounding can carry the
    quotient a few ulps past ±1 (a map against itself), so it is clipped
    to [-1, 1]."""
    short, long = sorted((a.freqs, b.freqs), key=len)
    xy = np.array([v * w for k, v in short.items()
                   if (w := long.get(k)) is not None])
    n = len(short) + len(long) - len(xy)
    if n < 2:
        raise ValueError("need at least 2 distinct keys")
    (sx, vx), (sy, vy) = (_sum_and_var(t, n) for t in (short, long))
    rho = (xy.sum() - sx * sy / n) / np.sqrt(vx * vy)
    return float(np.clip(rho, -1.0, 1.0))


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
    """(value, n_used, n_skipped): value is the mean over records of the
    mean consecutive-visit Jaccard similarity; records with a single visit
    are skipped. Each distinct pair of consecutive visits is scored once."""
    sim = {}  # (visit, next visit) -> their Jaccard similarity
    per_record = []
    skipped = 0
    for rec in cohort.records:
        if len(rec.visits) < 2:
            skipped += 1
            continue
        sims = []
        for pair in zip(rec.visits, rec.visits[1:]):
            s = sim.get(pair)
            if s is None:
                a, b = pair
                s = sim[pair] = len(a & b) / len(a | b)
            sims.append(s)
        per_record.append(float(np.mean(sims)))
    if not per_record:
        raise ValueError("no records with at least two visits")
    return float(np.mean(per_record)), len(per_record), skipped


def unique_token_ratio(cohort):
    """Per-record distinct-visit fraction, averaged over records."""
    ratios = [
        len(set(rec.visits)) / len(rec.visits)
        for rec in cohort.records
    ]
    if not ratios:
        raise ValueError("empty cohort")
    return float(np.mean(ratios))


# ---------------------------------------------------------------------------
# cohort splitting
# ---------------------------------------------------------------------------

TEST_FRAC = 0.2  # the held-out share of the real cohort


def split_cohort(cohort, seed=0):
    """Deterministic shuffled (train, test) split, ``TEST_FRAC`` held out."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(cohort.records))
    n_test = max(1, int(round(TEST_FRAC * len(order))))
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

_STEP_CHUNK = _nn.STEP_CHUNK  # prediction steps through the V-wide head


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
    members: np.ndarray  # token * len(codes) + code per membership, ascending

    def code_scores(self, probs):
        """(n, n_codes) code probabilities from (n, vocab.size) token ones.

        Pass k adds, for every code with more than k tokens, the probability
        of its k-th token in ascending id order, so each score is the sum
        that the CSR product ``probs @ membership`` forms, bit for bit."""
        tok, col = np.divmod(self.members, len(self.codes))
        by_code = np.argsort(col, kind="stable")
        tok, col = tok[by_code], col[by_code]
        rank = np.arange(len(col)) - np.searchsorted(col, col)
        # every code has a token, so pass 0 fills each column once, in order
        scores = probs.take(tok[rank == 0], axis=1)
        for k in range(1, rank.max(initial=0) + 1):
            at = rank == k
            scores[:, col[at]] += probs.take(tok[at], axis=1)
        return scores


def _code_axis(vocab):
    """The sorted code axis and the token -> code membership ids; the EOS
    and PAD tokens have none."""
    codes = sorted({c for e in vocab.entries for c in e.codes})
    idx = {c: j for j, c in enumerate(codes)}
    members = sorted(e.token_id * len(codes) + idx[c]
                     for e in vocab.entries for c in e.codes)
    return tuple(codes), np.array(members, dtype=np.int64)


def _predictor_states(params, batch, *, keep_cache=True):
    """LSTM states (B, T, H) and the (embedding, LSTM) caches; the LSTM's
    is None with ``keep_cache`` false."""
    emb, c_emb = _nn.embedding(params["emb"], batch.tokens)
    h_seq, _, c_lstm = _nn.lstm_forward(params["lstm"], emb, batch.mask,
                                        keep_cache=keep_cache)
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
    if not cohort.records:
        raise ValueError("cannot train a predictor on an empty cohort")
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
    vec, grad = layout.flatten(init), np.zeros(layout.size)
    params, grads = layout.views(vec), layout.views(grad)
    adam = _nn.Adam(vec, lr=PREDICTOR_LR)
    n = len(batch)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, PREDICTOR_MINIBATCH):
            grad.fill(0.0)
            _predictor_gradients(params, grads, vocab, batch.take(
                order[start:start + PREDICTOR_MINIBATCH]))
            adam.step(vec, grad)
    return NextVisitPredictor(params, vocab, *_code_axis(vocab))


def _predictor_gradients(params, grads, vocab, batch):
    """Adds the gradient of the minibatch's next-visit log-likelihood into
    ``grads``. Its caches die on return, so a training loop holds one
    minibatch's at a time."""
    h_seq, (c_emb, c_lstm) = _predictor_states(params, batch)
    live, tgt = _visit_targets(batch, vocab)
    logits, c_head = _nn.dense(params["head"], h_seq[:, :-1][live])
    _, dlog = _nn.softmax_xent(logits, tgt)  # ascent on log-likelihood
    dh = np.zeros_like(h_seq)
    dh[:, :-1][live] = _nn.dense_backward(c_head, grads["head"], dlog)
    demb = _nn.lstm_backward(c_lstm, grads["lstm"], dh_seq=dh)
    _nn.embedding_backward(c_emb, grads["emb"], demb)


def topk_recall(predictor, cohort, k):
    """Mean over prediction steps of |top-k codes ∩ next-visit codes| /
    |next-visit codes|. Records with fewer than two visits are skipped.

    The LSTM runs on ``_nn.row_chunks`` of the records, as many as fit
    ``_nn.POSITION_BUDGET`` padded positions, and the head, the code scores
    and the top-k on ``_STEP_CHUNK`` of their steps at a time, so memory
    grows neither with the test cohort nor with its records' length; the
    per-step ratios are kept and averaged in one ``np.mean``, as one pass
    would. One chunk holds its records' padded tokens and LSTM states,
    one step's gates at a time (the LSTM keeps no backward cache), and the
    states of its prediction steps; one slice of those steps holds their
    (steps, V) probabilities and (steps, codes) scores."""
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
    n_codes = len(predictor.codes)
    kk = min(k, n_codes)
    per_token = np.bincount(predictor.members // n_codes, minlength=vocab.size)
    ratios = []
    for rows in _nn.row_chunks(len(batch), t_max + 1):
        chunk = batch.take(rows)
        live, nxt = _visit_targets(chunk, vocab)
        # one expression: the padded states are gone before the next
        # chunk's are made
        h_live = _predictor_states(predictor.params, chunk,
                                   keep_cache=False)[0][:, :-1][live]
        for a in range(0, len(nxt), _STEP_CHUNK):
            at = slice(a, a + _STEP_CHUNK)
            logits = _nn.dense(predictor.params["head"], h_live[at])[0]
            # distribution over the next *visit*: terminal/padding ids
            # cannot be it
            logits[:, [vocab.eos_id, vocab.pad_id]] = -np.inf
            logits -= logits.max(axis=1, keepdims=True)
            probs = np.exp(logits, out=logits)
            probs /= probs.sum(axis=1, keepdims=True)
            scores = predictor.code_scores(probs)  # (steps, n_codes)
            top = np.argpartition(np.negative(scores, out=scores), kk - 1,
                                  axis=1)[:, :kk]
            # a visit's codes are its token's codes: encode_cohort rejects
            # OOV visits
            target = nxt[at]
            hits = np.isin(target[:, None] * n_codes + top,
                           predictor.members).sum(axis=1)
            ratios.append(hits / per_token[target])
    return float(np.mean(np.concatenate(ratios)))


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


def _match_key(record):
    """The multiset of the record's visits: order is ignored."""
    return frozenset(Counter(record.visits).items())


def presence_disclosure(synthetic, known):
    """Membership attack: an attacker holding ``known`` records claims
    training membership whenever a synthetic record has the same visits in
    any order, the stronger attacker: an order-sensitive one claims a
    subset of its records."""
    if not known:
        raise ValueError("known record list is empty")
    pool = {_match_key(r) for r in synthetic.records}
    tp = fp = fn = tn = 0
    for record, in_training in known:
        claimed = _match_key(record) in pool
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
                         fn=fn, tn=tn)


# ---------------------------------------------------------------------------
# held-out score
# ---------------------------------------------------------------------------

def elbo_holdout(model, cohort):
    """Average per-record plug-in ELBO estimate on held-out records: the
    decoder scored at the encoder means with the last posterior sample of
    the globals, minus the closed-form KL terms. Scoring at the mean instead
    of averaging over q makes it no lower bound. Never exceeds 0.

    Records are scored in ``_nn.row_chunks``, as many at a time as fit
    ``_nn.POSITION_BUDGET`` positions at the model's padded width, so
    memory grows neither with the held-out cohort nor with ``t_max``. The
    forward passes keep no backward caches, so one chunk holds its records'
    padded tokens, the encoders' arrays for one LSTM step at a time, the
    decoder's (rows, T, C) states, one length bucket's arrays for one
    upsampling or conv layer at a time, and the head's logits over
    ``_nn.STEP_CHUNK`` live positions at a time. An ``evac`` model needs
    the cohort's condition columns to be its own."""
    if not cohort.records:
        raise ValueError("cannot score an empty cohort")
    names = tuple(cohort.condition_names)
    if model.variant == "evac" and names != model.condition_names:
        raise ValueError(f"cohort condition columns {list(names)} are not "
                         f"the model's {list(model.condition_names)}")
    snapshot = model.point_sample()
    batch = encode_cohort(cohort, model.vocab, model.dec_cfg.t_max)
    score = sum(_holdout_score(model, snapshot, batch.take(rows))
                for rows in _nn.row_chunks(len(batch), model.dec_cfg.seq_len))
    return score / len(batch)


def _holdout_score(model, snapshot, batch):
    """Summed plug-in ELBO of one chunk of held-out records."""
    q = encode_posteriors(model, model.phi, batch)
    q_z = q.cols(model.local_slices[0])
    recon, _ = sequence_log_likelihood(
        snapshot["theta"], model.dec_cfg, q_z.mean, batch.tokens, batch.mask,
        keep_cache=False)
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
    return score


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

def report(real, synthetic, model=None, topk=(), seed=0):
    """The ``metrics`` that ``ehrgen evaluate`` writes: fidelity and
    diversity of ``synthetic`` against ``real``. A ``model`` adds its
    ``elbo_holdout`` and each k in ``topk`` the top-k recall of predictors
    trained on the rest of ``real`` and on ``synthetic``, all scored on a
    held-out split of ``real``, ``split_cohort(real, seed)``, made only
    then. Both cohorts need the same vocabulary attached."""
    if real.vocab != synthetic.vocab:
        raise ValueError("the real and synthetic vocabularies differ")
    uni_r, uni_s = ngram_stats(real, 1), ngram_stats(synthetic, 1)
    bi_r, bi_s = ngram_stats(real, 2), ngram_stats(synthetic, 2)
    jac_r, used_r, skip_r = avg_jaccard_counts(real)
    jac_s, used_s, skip_s = avg_jaccard_counts(synthetic)
    metrics = {
        "unigram_pearson": pearson_marginal(uni_r, uni_s),
        "bigram_pearson": pearson_marginal(bi_r, bi_s),
        "bigram_pearson_indep_baseline": pearson_marginal(
            bi_r, independent_bigram_baseline(uni_r)),
        "jaccard_real": jac_r,
        "jaccard_synthetic": jac_s,
        "jaccard_records_used": {"real": used_r, "synthetic": used_s},
        "jaccard_records_skipped": {"real": skip_r, "synthetic": skip_s},
        "unique_token_ratio_real": unique_token_ratio(real),
        "unique_token_ratio_synthetic": unique_token_ratio(synthetic),
    }
    if model is None and not topk:
        return metrics
    train_r, test_r = split_cohort(real, seed=seed)
    if model is not None:
        metrics["elbo_holdout"] = elbo_holdout(model, test_r)
    if topk:
        preds = {"real": train_next_visit_predictor(train_r, seed=seed),
                 "synth": train_next_visit_predictor(synthetic, seed=seed)}
    for k in topk:
        for name, pred in preds.items():
            metrics[f"top{k}_recall_{name}_trained"] = topk_recall(
                pred, test_r, k)
    return metrics
