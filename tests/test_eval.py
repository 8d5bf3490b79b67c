"""Evaluation metrics: hand-computed n-gram/correlation/Jaccard values,
rigged-predictor recall arithmetic, attack confusion-matrix cases, and the
sign of the held-out bound."""

import math

import numpy as np
import pytest

from ehrgen import _nn
from ehrgen.corpus import (
    Cohort,
    PatientRecord,
    VisitVocab,
    VocabEntry,
    build_visit_vocab,
    encode_cohort,
)
from ehrgen.decoder import DecoderConfig
from ehrgen.evaluation import (
    NextVisitPredictor,
    NgramStats,
    avg_jaccard,
    avg_jaccard_counts,
    elbo_holdout,
    independent_bigram_baseline,
    ngram_stats,
    pearson_marginal,
    presence_disclosure,
    split_cohort,
    topk_recall,
    train_next_visit_predictor,
    unique_token_ratio,
)
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import TrainConfig, train


def mini_cohort():
    vocab = VisitVocab([
        VocabEntry(codes=("a",), token_id=0, frequency=2),
        VocabEntry(codes=("b",), token_id=1, frequency=1),
    ])
    records = [
        PatientRecord("r1", (frozenset({"a"}), frozenset({"b"}))),
        PatientRecord("r2", (frozenset({"a"}),)),
    ]
    return Cohort(records=records, condition_names=[], vocab=vocab)


class TestNgramStats:
    def test_unigram_hand_counts(self):
        uni = ngram_stats(mini_cohort(), 1)
        assert uni.freqs == {0: 2 / 3, 1: 1 / 3}

    def test_bigram_hand_counts(self):
        big = ngram_stats(mini_cohort(), 2)
        assert big.freqs == {(0, 1): 1.0}

    def test_requires_vocab(self):
        c = mini_cohort()
        c.vocab = None
        with pytest.raises(ValueError, match="vocabulary"):
            ngram_stats(c, 1)

    def test_oov_mentions_preprocessing(self):
        c = mini_cohort()
        c.records.append(PatientRecord("rx", (frozenset({"zz"}),)))
        with pytest.raises(ValueError, match="preprocess"):
            ngram_stats(c, 1)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            NgramStats(n=3, freqs={})
        with pytest.raises(ValueError):
            NgramStats(n=1, freqs={0: 0.4})

    def test_independent_baseline_is_outer_product(self):
        uni = NgramStats(n=1, freqs={0: 2 / 3, 1: 1 / 3})
        base = independent_bigram_baseline(uni)
        np.testing.assert_allclose(base.freqs[(0, 0)], 4 / 9)
        np.testing.assert_allclose(base.freqs[(0, 1)], 2 / 9)
        np.testing.assert_allclose(base.freqs[(1, 1)], 1 / 9)
        assert np.isclose(sum(base.freqs.values()), 1.0)
        with pytest.raises(ValueError):
            independent_bigram_baseline(base)


class TestPearson:
    def test_hand_derived_value(self):
        """freqs (.5,.3,.2) vs (.4,.4,.2): covariance 2/75, variances 7/150
        and 2/75, so rho = 2/sqrt(7)."""
        a = NgramStats(n=1, freqs={0: 0.5, 1: 0.3, 2: 0.2})
        b = NgramStats(n=1, freqs={0: 0.4, 1: 0.4, 2: 0.2})
        np.testing.assert_allclose(pearson_marginal(a, b), 2 / math.sqrt(7),
                                   rtol=1e-12)

    def test_perfect_and_inverse(self):
        a = NgramStats(n=1, freqs={0: 0.9, 1: 0.1})
        assert np.isclose(pearson_marginal(a, a), 1.0)
        b = NgramStats(n=1, freqs={0: 0.1, 1: 0.9})
        assert np.isclose(pearson_marginal(a, b), -1.0)

    def test_union_of_keys_fills_zeros(self):
        """A key present on one side only counts as frequency 0 on the other."""
        a = NgramStats(n=1, freqs={0: 0.5, 1: 0.5})
        b = NgramStats(n=1, freqs={0: 0.5, 2: 0.5})
        rho = pearson_marginal(a, b)
        va = np.array([0.5, 0.5, 0.0])
        vb = np.array([0.5, 0.0, 0.5])
        np.testing.assert_allclose(rho, np.corrcoef(va, vb)[0, 1], rtol=1e-12)

    def test_degenerate_inputs_rejected(self):
        single = NgramStats(n=1, freqs={0: 1.0})
        with pytest.raises(ValueError, match="2 distinct"):
            pearson_marginal(single, single)
        const = NgramStats(n=1, freqs={0: 0.5, 1: 0.5})
        with pytest.raises(ValueError, match="constant"):
            pearson_marginal(const, const)


class TestDiversity:
    def test_jaccard_hand_value(self):
        # {a,b} vs {b,c}: intersection 1, union 3
        rec = PatientRecord("p", (frozenset({"a", "b"}), frozenset({"b", "c"})))
        c = Cohort([rec], [])
        np.testing.assert_allclose(avg_jaccard(c), 1 / 3, rtol=1e-12)

    def test_jaccard_identical_and_disjoint(self):
        same = PatientRecord("p", (frozenset({"a"}), frozenset({"a"})))
        disjoint = PatientRecord("q", (frozenset({"a"}), frozenset({"b"})))
        assert avg_jaccard(Cohort([same], [])) == 1.0
        assert avg_jaccard(Cohort([disjoint], [])) == 0.0
        both = avg_jaccard(Cohort([same, disjoint], []))
        np.testing.assert_allclose(both, 0.5)

    def test_jaccard_skips_single_visit_records(self):
        recs = [
            PatientRecord("p", (frozenset({"a"}), frozenset({"a"}))),
            PatientRecord("q", (frozenset({"b"}),)),
        ]
        value, used, skipped = avg_jaccard_counts(Cohort(recs, []))
        assert (value, used, skipped) == (1.0, 1, 1)
        with pytest.raises(ValueError):
            avg_jaccard(Cohort([recs[1]], []))

    def test_unique_token_ratio(self):
        rep = PatientRecord("p", (frozenset({"a"}), frozenset({"b"}),
                                  frozenset({"a"}), frozenset({"b"})))
        fresh = PatientRecord("q", (frozenset({"a"}), frozenset({"b"})))
        assert unique_token_ratio(Cohort([rep], [])) == 0.5
        assert unique_token_ratio(Cohort([fresh], [])) == 1.0
        np.testing.assert_allclose(unique_token_ratio(Cohort([rep, fresh], [])),
                                   0.75)


class TestSplit:
    def test_sizes_and_disjointness(self):
        spec = default_toy_spec(n_records=50, background_groups=3,
                                groups_per_condition=2, len_min=2, len_max=4)
        cohort = simulate_toy_cohort(spec, seed=0)
        tr, te = split_cohort(cohort, test_frac=0.2, seed=1)
        assert len(te) == 10 and len(tr) == 40
        ids_tr = {r.id for r in tr.records}
        ids_te = {r.id for r in te.records}
        assert not ids_tr & ids_te
        assert len(ids_tr | ids_te) == 50

    def test_deterministic_per_seed(self):
        spec = default_toy_spec(n_records=30, background_groups=3,
                                groups_per_condition=2, len_min=2, len_max=4)
        cohort = simulate_toy_cohort(spec, seed=0)
        a = split_cohort(cohort, seed=5)[1]
        b = split_cohort(cohort, seed=5)[1]
        c = split_cohort(cohort, seed=6)[1]
        assert [r.id for r in a.records] == [r.id for r in b.records]
        assert [r.id for r in a.records] != [r.id for r in c.records]

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_cohort(mini_cohort(), test_frac=0.0)


def rigged_predictor(vocab, bias_probs):
    """Predictor whose logits are a fixed bias: zero embeddings and a dead
    LSTM make the head bias the only signal."""
    embed, hidden = 2, 3
    params = {
        "emb": {"E": np.zeros((vocab.size, embed))},
        "lstm": {"Wx": np.zeros((embed, 4 * hidden)),
                 "Wh": np.zeros((hidden, 4 * hidden)),
                 "b": np.zeros(4 * hidden)},
        "head": {"W": np.zeros((hidden, vocab.size)),
                 "b": np.log(np.asarray(bias_probs))},
    }
    codes = sorted({c for e in vocab.entries for c in e.codes})
    idx = {c: j for j, c in enumerate(codes)}
    M = np.zeros((vocab.size, len(codes)))
    for e in vocab.entries:
        for c in e.codes:
            M[e.token_id, idx[c]] = 1.0
    return NextVisitPredictor(params=params, vocab=vocab, hidden=hidden,
                              codes=tuple(codes), code_matrix=M)


class TestTopkRecall:
    # vocab: t0={a}, t1={c}, t2={b}, t3={a,b}; code scores under the rig:
    # a = p0 + p3, b = p2 + p3, c = p1
    VOCAB = VisitVocab([
        VocabEntry(codes=("a",), token_id=0, frequency=4),
        VocabEntry(codes=("c",), token_id=1, frequency=3),
        VocabEntry(codes=("b",), token_id=2, frequency=2),
        VocabEntry(codes=("a", "b"), token_id=3, frequency=1),
    ])

    def cohort_one_step(self):
        rec = PatientRecord("p", (frozenset({"a"}), frozenset({"a", "b"})))
        return Cohort([rec], [], vocab=self.VOCAB)

    def test_partial_hit_is_half(self):
        """Token probs (.5,.3,.1,.1) give code scores a=.6, c=.3, b=.2, so
        top-2 = {a, c} and the true next visit {a, b} is half-covered."""
        pred = rigged_predictor(self.VOCAB, [0.5, 0.3, 0.1, 0.1, 1e-9, 1e-9])
        assert topk_recall(pred, self.cohort_one_step(), k=2) == 0.5

    def test_k_large_enough_recovers_everything(self):
        pred = rigged_predictor(self.VOCAB, [0.5, 0.3, 0.1, 0.1, 1e-9, 1e-9])
        assert topk_recall(pred, self.cohort_one_step(), k=3) == 1.0

    def test_top1_choice(self):
        pred = rigged_predictor(self.VOCAB, [0.5, 0.3, 0.1, 0.1, 1e-9, 1e-9])
        assert topk_recall(pred, self.cohort_one_step(), k=1) == 0.5

    def test_eos_pad_never_score(self):
        """Pushing all bias mass onto EOS/PAD must not change code ranking."""
        pred = rigged_predictor(self.VOCAB, [0.05, 0.03, 0.01, 0.01, 0.6, 0.3])
        assert topk_recall(pred, self.cohort_one_step(), k=2) == 0.5

    def test_short_records_skipped(self):
        pred = rigged_predictor(self.VOCAB, [0.5, 0.3, 0.1, 0.1, 1e-9, 1e-9])
        single = Cohort([PatientRecord("p", (frozenset({"a"}),))], [],
                        vocab=self.VOCAB)
        with pytest.raises(ValueError, match="two visits"):
            topk_recall(pred, single, k=1)

    def test_bad_k(self):
        pred = rigged_predictor(self.VOCAB, [0.5, 0.3, 0.1, 0.1, 1e-9, 1e-9])
        with pytest.raises(ValueError):
            topk_recall(pred, self.cohort_one_step(), k=0)

    def test_learns_deterministic_alternation(self):
        """On an a->b->a->b corpus a trained predictor gets recall 1."""
        records = []
        for i in range(20):
            start = i % 2
            seq = [frozenset({"a"}), frozenset({"b"})] * 3
            records.append(PatientRecord(f"p{i}", tuple(seq[start:start + 4])))
        cohort = Cohort(records, [])
        cohort.vocab = build_visit_vocab(cohort, max_size=4)
        pred = train_next_visit_predictor(cohort, seed=0, hidden=8, embed=4,
                                          epochs=40, minibatch=10, lr=1e-2)
        assert topk_recall(pred, cohort, k=1) > 0.99


class TestPresenceDisclosure:
    A, B, C, D = (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}),
                  frozenset({"d"}))

    def synth(self):
        return Cohort([PatientRecord("s0", (self.A, self.B))], [])

    def test_confusion_matrix_hand_case(self):
        known = [
            (PatientRecord("k0", (self.B, self.A)), True),   # reordered match
            (PatientRecord("k1", (self.D,)), True),          # member, missed
            (PatientRecord("k2", (self.A, self.B)), False),  # outsider, hit
            (PatientRecord("k3", (self.C,)), False),         # outsider, clean
        ]
        out = presence_disclosure(self.synth(), known)
        assert (out.tp, out.fn, out.fp, out.tn) == (1, 1, 1, 1)
        assert out.sensitivity == 0.5
        assert out.precision == 0.5

    def test_order_sensitive_mode(self):
        known = [(PatientRecord("k0", (self.B, self.A)), True)]
        loose = presence_disclosure(self.synth(), known)
        strict = presence_disclosure(self.synth(), known, order_sensitive=True)
        assert loose.tp == 1 and strict.tp == 0
        assert strict.fn == 1
        assert strict.order_sensitive is True

    def test_zero_rates_when_nothing_matches(self):
        known = [(PatientRecord("k0", (self.C,)), False)]
        out = presence_disclosure(self.synth(), known)
        assert out.sensitivity == 0.0 and out.precision == 0.0
        assert out.tn == 1

    def test_one_code_difference_breaks_match(self):
        known = [(PatientRecord("k0", (self.A, self.C)), True)]
        out = presence_disclosure(self.synth(), known)
        assert out.tp == 0 and out.fn == 1

    def test_empty_known_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            presence_disclosure(self.synth(), [])


class TestElboHoldout:
    @pytest.mark.parametrize("variant", ["eva", "evac"])
    def test_bound_is_nonpositive(self, variant):
        spec = default_toy_spec(n_records=14, background_groups=3,
                                groups_per_condition=2, len_min=2, len_max=4)
        cohort = simulate_toy_cohort(spec, seed=1)
        vocab = build_visit_vocab(cohort, max_size=32)
        batch = encode_cohort(cohort, vocab, t_max=4)
        cfg = TrainConfig(variant=variant, latent_dim=3, n_iters=8,
                          minibatch=7, embed_dim=4, hidden=5, cond_hidden=4,
                          burn_in=2, thin=2, reservoir_size=2, seed=1)
        dec_cfg = DecoderConfig(vocab_size=vocab.size, latent_dim=3, t_max=4,
                                channels=4, kernel=2, dilations=(1, 2),
                                n_upsample=1)
        model = train(cfg, batch, vocab,
                      condition_names=tuple(cohort.condition_names),
                      dec_cfg=dec_cfg)
        holdout = simulate_toy_cohort(spec, seed=2)
        bound = elbo_holdout(model, holdout)
        assert math.isfinite(bound)
        assert bound <= 0.0
