"""Evaluation metrics: hand-computed n-gram/correlation/Jaccard values,
rigged-predictor recall arithmetic, attack confusion-matrix cases, the sign
of the held-out bound, and the fast paths against the reference
implementations in ``oracles.py`` on a toy and a 1,500-visit-type cohort."""

import dataclasses
import math
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from scipy import sparse

from ehrgen import _nn, evaluation
from ehrgen.corpus import (
    Cohort,
    PatientRecord,
    VisitVocab,
    VocabEntry,
    build_visit_vocab,
    encode_cohort,
    replace_rare_visits,
)
from ehrgen.decoder import DecoderConfig
from ehrgen.evaluation import (
    NextVisitPredictor,
    NgramStats,
    _code_axis,
    avg_jaccard_counts,
    elbo_holdout,
    independent_bigram_baseline,
    ngram_stats,
    pearson_marginal,
    presence_disclosure,
    report,
    split_cohort,
    topk_recall,
    train_next_visit_predictor,
    unique_token_ratio,
)
from ehrgen.model import posterior_with_caches
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import TrainConfig, train

from oracles import (
    counter_ngram_stats,
    dict_independent_bigram_baseline,
    dict_pearson_marginal,
    full_width_predictor_params,
    looped_avg_jaccard_counts,
    looped_topk_recall,
    rel_err,
    unchunked_elbo_holdout,
)


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_counter_oracle(self, n):
        """Same keys, as Python ints or int pairs, and the same frequencies;
        no pair spans two records, and one-visit records add no pair."""
        vocab = VisitVocab([VocabEntry(codes=(f"c{i}",), token_id=i,
                                       frequency=1) for i in range(7)])
        rng = np.random.default_rng(n)
        records = [PatientRecord(f"r{i}", tuple(
            frozenset({f"c{t}"}) for t in rng.integers(0, 7, size=length)))
            for i, length in enumerate([1, 5, 1, 1, 12, 3, 30, 2])]
        cohort = Cohort(records=records, condition_names=[], vocab=vocab)
        got, want = ngram_stats(cohort, n), counter_ngram_stats(cohort, n)
        assert list(got.freqs) == sorted(want.freqs)
        assert all(type(k) is (int if n == 1 else tuple) for k in got.freqs)
        for key, freq in want.freqs.items():
            assert abs(got.freqs[key] - freq) <= 1e-12

    def test_no_ngrams(self):
        c = mini_cohort()
        assert ngram_stats(c, 2).freqs != {}
        c.records = [PatientRecord("r0", (frozenset({"a"}),))]
        assert ngram_stats(c, 2).freqs == {}
        c.records = []
        assert ngram_stats(c, 1).freqs == ngram_stats(c, 2).freqs == {}

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

    def test_independent_get_matches_mapping_get(self):
        """A hit, a miss on either side and keys that are not pairs."""
        table = independent_bigram_baseline(
            NgramStats(n=1, freqs={0: 2 / 3, 1: 1 / 3})).freqs
        keys = [(0, 1), (1, 1), (0, 9), (9, 0), 5, "ab", (0, 1, 1), ([0], 1)]
        for key in keys:
            for default in (None, -1.0):
                assert table.get(key, default) == Mapping.get(
                    table, key, default)
        assert table.get((0, 1)) == (2 / 3) * (1 / 3)
        assert table.get((0, 9)) is None


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

    def test_identical_cohorts_stay_within_one(self):
        """A cohort against itself: unclipped, rounding put both Pearsons of
        this cohort a few ulps above 1 (1.0000000000000004 and
        1.0000000000000009)."""
        cohort = simulate_toy_cohort(default_toy_spec(n_records=300), seed=3)
        cohort.vocab = build_visit_vocab(cohort, max_size=200)
        for n in (1, 2):
            stats = ngram_stats(cohort, n)
            rho = pearson_marginal(stats, stats)
            assert -1.0 <= rho <= 1.0 and rho > 1.0 - 1e-12

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
        np.testing.assert_allclose(avg_jaccard_counts(c)[0], 1 / 3, rtol=1e-12)

    def test_jaccard_identical_and_disjoint(self):
        same = PatientRecord("p", (frozenset({"a"}), frozenset({"a"})))
        disjoint = PatientRecord("q", (frozenset({"a"}), frozenset({"b"})))
        assert avg_jaccard_counts(Cohort([same], []))[0] == 1.0
        assert avg_jaccard_counts(Cohort([disjoint], []))[0] == 0.0
        both = avg_jaccard_counts(Cohort([same, disjoint], []))[0]
        np.testing.assert_allclose(both, 0.5)

    def test_jaccard_skips_single_visit_records(self):
        recs = [
            PatientRecord("p", (frozenset({"a"}), frozenset({"a"}))),
            PatientRecord("q", (frozenset({"b"}),)),
        ]
        value, used, skipped = avg_jaccard_counts(Cohort(recs, []))
        assert (value, used, skipped) == (1.0, 1, 1)
        with pytest.raises(ValueError):
            avg_jaccard_counts(Cohort([recs[1]], []))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_jaccard_matches_looped_oracle(self, seed):
        """Simulated records repeat their visits and visit pairs; records
        of one visit are mixed in, and equal visits that are distinct
        objects; the value and both counts equal the loop's."""
        spec = default_toy_spec(n_records=300, len_min=1, len_max=12)
        records = simulate_toy_cohort(spec, seed=seed).records
        copies = [PatientRecord(f"{r.id}-copy",
                                tuple(frozenset(v) for v in r.visits))
                  for r in records[:50]]
        cohort = Cohort(records + copies, [])
        assert any(len(r.visits) == 1 for r in cohort.records)
        assert avg_jaccard_counts(cohort) == looped_avg_jaccard_counts(cohort)

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
        cohort.extra = {"seed": 0}
        tr, te = split_cohort(cohort, seed=1)
        assert tr.extra == te.extra == {}  # splitting decides nothing
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
    return NextVisitPredictor(params, vocab, *_code_axis(vocab))


def csr_code_scores(pred, probs):
    """Reference for ``NextVisitPredictor.code_scores``: ``probs`` times a
    SciPy CSR token -> code membership matrix built from the vocabulary."""
    col = {c: j for j, c in enumerate(pred.codes)}
    rows = [(e.token_id, col[c]) for e in pred.vocab.entries for c in e.codes]
    tok, cols = np.array(rows).T
    M = sparse.csr_matrix((np.ones(len(rows)), (tok, cols)),
                          shape=(pred.vocab.size, len(pred.codes)))
    return probs @ M


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

    def test_code_scores_bit_identical_to_csr_product(self):
        """With a three-code entry, code a has three tokens and b two, so
        the scores take three passes; each equals the CSR product's sum."""
        vocab = VisitVocab(self.VOCAB.entries + (
            VocabEntry(codes=("a", "b", "c"), token_id=4, frequency=1),))
        pred = rigged_predictor(vocab, np.full(vocab.size, 1 / vocab.size))
        probs = np.random.default_rng(0).dirichlet(np.ones(vocab.size), 50)
        assert np.array_equal(pred.code_scores(probs),
                              csr_code_scores(pred, probs))

    def test_learns_deterministic_alternation(self):
        """On an a->b->a->b corpus a trained predictor gets recall 1."""
        records = []
        for i in range(20):
            start = i % 2
            seq = [frozenset({"a"}), frozenset({"b"})] * 3
            records.append(PatientRecord(f"p{i}", tuple(seq[start:start + 4])))
        cohort = Cohort(records, [])
        cohort.vocab = build_visit_vocab(cohort, max_size=4)
        pred = train_next_visit_predictor(cohort, seed=0)
        assert topk_recall(pred, cohort, k=1) > 0.99

    def test_predictor_refuses_empty_cohort(self):
        """No records means no padded width to train at: refused by name,
        not left to ``max()`` of nothing."""
        empty = Cohort([], [], vocab=self.VOCAB)
        with pytest.raises(ValueError, match="empty cohort"):
            train_next_visit_predictor(empty)


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

    def test_reordered_record_is_claimed(self):
        """Visit order is ignored: the known record's visits in the other
        order still match the synthetic one."""
        known = [(PatientRecord("k0", (self.B, self.A)), True)]
        out = presence_disclosure(self.synth(), known)
        assert (out.tp, out.fn) == (1, 0)

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
    SPEC = dict(n_records=14, background_groups=3, groups_per_condition=2,
                len_min=2, len_max=4)

    def tiny_model(self, variant):
        spec = default_toy_spec(**self.SPEC)
        cohort = simulate_toy_cohort(spec, seed=1)
        vocab = build_visit_vocab(cohort, max_size=32)
        batch = encode_cohort(cohort, vocab, t_max=4)
        cfg = TrainConfig(variant=variant, latent_dim=3, n_iters=8,
                          minibatch=7, hidden=5, burn_in=2, thin=2,
                          reservoir_size=2, seed=1)
        dec_cfg = DecoderConfig(t_max=4, channels=4, kernel=2,
                                dilations=(1, 2), n_upsample=1)
        return train(cfg, batch, vocab,
                     condition_names=tuple(cohort.condition_names),
                     dec_cfg=dec_cfg)

    @pytest.mark.parametrize("variant", ["eva", "evac"])
    def test_bound_is_nonpositive(self, variant):
        holdout = simulate_toy_cohort(default_toy_spec(**self.SPEC), seed=2)
        bound = elbo_holdout(self.tiny_model(variant), holdout)
        assert math.isfinite(bound)
        assert bound <= 0.0

    def test_empty_cohort_rejected(self):
        """An average over no records is refused as bad input, not left
        to divide by zero."""
        model = self.tiny_model("eva")
        empty = Cohort(records=[], condition_names=list(model.condition_names),
                       vocab=model.vocab)
        with pytest.raises(ValueError, match="empty cohort"):
            elbo_holdout(model, empty)

    @staticmethod
    def other_columns(cohort):
        """The cohort under a reversed header, its columns permuted to
        match, and with its last column dropped."""
        names = list(cohort.condition_names)
        return [Cohort([dataclasses.replace(r, conditions=pick(r.conditions))
                        for r in cohort.records], pick(names))
                for pick in (lambda x: x[::-1], lambda x: x[:-1])]

    def test_evac_refuses_other_condition_columns(self):
        """Reversed, the columns were scored against the wrong conditions
        with no error, and one short they died in a matrix product; both
        are refused, naming both lists."""
        model = self.tiny_model("evac")
        holdout = simulate_toy_cohort(default_toy_spec(**self.SPEC), seed=2)
        assert tuple(holdout.condition_names) == model.condition_names
        for cohort in self.other_columns(holdout):
            with pytest.raises(ValueError) as err:
                elbo_holdout(model, cohort)
            assert str(list(cohort.condition_names)) in str(err.value)
            assert str(list(model.condition_names)) in str(err.value)

    def test_eva_scores_other_condition_columns(self):
        """eva reads no conditions: the same records score the same under
        any header."""
        model = self.tiny_model("eva")
        holdout = simulate_toy_cohort(default_toy_spec(**self.SPEC), seed=2)
        expected = elbo_holdout(model, holdout)
        for cohort in self.other_columns(holdout):
            assert elbo_holdout(model, cohort) == expected


class TestReport:
    BASE_KEYS = {
        "unigram_pearson", "bigram_pearson", "bigram_pearson_indep_baseline",
        "jaccard_real", "jaccard_synthetic", "jaccard_records_used",
        "jaccard_records_skipped", "unique_token_ratio_real",
        "unique_token_ratio_synthetic"}

    def test_without_model_or_topk_no_split_and_no_optional_keys(
            self, monkeypatch):
        import ehrgen.evaluation

        def refuse(*a, **k):
            raise AssertionError("split or trained without a model or a k")

        monkeypatch.setattr(ehrgen.evaluation, "split_cohort", refuse)
        monkeypatch.setattr(ehrgen.evaluation, "train_next_visit_predictor",
                            refuse)
        real, other = _prepared(
            simulate_toy_cohort(default_toy_spec(n_records=60), seed=1),
            simulate_toy_cohort(default_toy_spec(n_records=30), seed=2),
            max_vocab=40)
        metrics = report(real, other)
        assert set(metrics) == self.BASE_KEYS
        assert metrics["unigram_pearson"] == pearson_marginal(
            ngram_stats(real, 1), ngram_stats(other, 1))
        assert metrics["jaccard_records_used"] == {
            "real": avg_jaccard_counts(real)[1],
            "synthetic": avg_jaccard_counts(other)[1]}

    def test_refuses_cohorts_with_different_vocabularies(self):
        """Token ids mean visits only under their vocabulary: two cohorts,
        each preprocessed on its own, are refused, where their bigram
        Pearson would mix two id spaces."""
        a, b = (simulate_toy_cohort(default_toy_spec(n_records=300), seed=s)
                for s in (1, 2))
        a = replace_rare_visits(a, build_visit_vocab(a, max_size=60))
        b = replace_rare_visits(b, build_visit_vocab(b, max_size=60))
        assert a.vocab != b.vocab
        with pytest.raises(ValueError, match="vocabularies differ"):
            report(a, b)
        b.vocab = None
        with pytest.raises(ValueError, match="vocabularies differ"):
            report(a, b)


# ---------------------------------------------------------------------------
# fast paths against the reference implementations
# ---------------------------------------------------------------------------

def _prepared(real, other, max_vocab):
    """``real`` and ``other`` over the vocabulary of ``real``."""
    vocab = build_visit_vocab(real, max_size=max_vocab)
    return replace_rare_visits(real, vocab), replace_rare_visits(other, vocab)


def _wide_cohort(n_records, seed, n_types=1500, n_codes=3000):
    """Records over ``n_types`` visit types of 1-3 codes each: every next
    visit repeats a fixed successor of the last one half of the time and is
    drawn uniformly otherwise, so a predictor has something to learn."""
    rng = np.random.default_rng(1234)  # the same visit types for every seed
    types = [frozenset(f"c{j:04d}" for j in
                       rng.choice(n_codes, size=rng.integers(1, 4),
                                  replace=False))
             for _ in range(n_types)]
    successor = rng.permutation(n_types)
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_records):
        toks = [int(rng.integers(n_types))]
        for _ in range(int(rng.integers(1, 16))):
            follow = rng.random() < 0.5
            toks.append(int(successor[toks[-1]]) if follow
                        else int(rng.integers(n_types)))
        records.append(PatientRecord(f"w{seed}-{i}",
                                     tuple(types[t] for t in toks)))
    return Cohort(records, [])


@pytest.fixture(scope="module", params=["toy", "wide"])
def eval_pair(request):
    """(real, other): ``other`` is smaller, so its unigram support misses
    tokens that ``real``'s bigrams use."""
    if request.param == "toy":
        spec = default_toy_spec(n_records=300)
        real = simulate_toy_cohort(spec, seed=11)
        other = simulate_toy_cohort(default_toy_spec(n_records=25), seed=12)
        return _prepared(real, other, max_vocab=100)
    real, other = _wide_cohort(1200, seed=1), _wide_cohort(150, seed=2)
    real, other = _prepared(real, other, max_vocab=1500)
    assert real.vocab.n_entries > 1400
    return real, other


class TestAgainstOracles:
    TOL = 1e-12

    def test_three_pearsons(self, eval_pair):
        real, other = eval_pair
        uni_r, uni_o = ngram_stats(real, 1), ngram_stats(other, 1)
        bi_r, bi_o = ngram_stats(real, 2), ngram_stats(other, 2)
        pairs = [
            (uni_r, uni_o, uni_r, uni_o),
            (bi_r, bi_o, bi_r, bi_o),
            (bi_r, independent_bigram_baseline(uni_r),
             bi_r, dict_independent_bigram_baseline(uni_r)),
        ]
        for a, b, ref_a, ref_b in pairs:
            expected = dict_pearson_marginal(ref_a, ref_b)
            assert abs(pearson_marginal(a, b) - expected) <= self.TOL
            assert abs(pearson_marginal(b, a) - expected) <= self.TOL

    def test_floor_walk_bit_identical_to_mapping_get(self, eval_pair):
        """The table's own ``get`` gives the floor Pearson bit for bit, for
        the real and for the other cohort's unigram."""
        real, other = eval_pair
        bi = ngram_stats(real, 2)
        for uni in (ngram_stats(real, 1), ngram_stats(other, 1)):
            base = independent_bigram_baseline(uni)
            inherited = type("Inherited", (type(base.freqs),),
                             {"get": Mapping.get})(uni.freqs)
            slow = NgramStats(n=2, freqs=inherited)
            assert pearson_marginal(bi, base) == pearson_marginal(bi, slow)
            assert pearson_marginal(base, bi) == pearson_marginal(slow, bi)

    def test_baseline_from_another_cohort(self, eval_pair):
        real, other = eval_pair
        bi_r, uni_o = ngram_stats(real, 2), ngram_stats(other, 1)
        support = set(uni_o.freqs)
        outside = [k for k in bi_r.freqs
                   if k[0] not in support or k[1] not in support]
        assert outside, "every real bigram lies in the other support"
        base = independent_bigram_baseline(uni_o)
        assert len(base.freqs) == len(support) ** 2
        expected = dict_pearson_marginal(
            bi_r, dict_independent_bigram_baseline(uni_o))
        assert abs(pearson_marginal(bi_r, base) - expected) <= self.TOL

    def test_one_epoch_predictor_parameters(self, eval_pair):
        real, _ = eval_pair
        pred = train_next_visit_predictor(real, seed=3, epochs=1)
        got = _nn.Layout(pred.params).flatten(pred.params)
        expected = full_width_predictor_params(real, seed=3, epochs=1)
        assert rel_err(got, expected) <= self.TOL

    def test_recall_at_k(self, eval_pair):
        real, _ = eval_pair
        train_part, test_part = split_cohort(real, seed=0)
        pred = train_next_visit_predictor(train_part, seed=0, epochs=2)
        probs = np.random.default_rng(0).dirichlet(np.ones(real.vocab.size), 20)
        assert np.array_equal(pred.code_scores(probs),
                              csr_code_scores(pred, probs))
        for k in (1, 5, 10, 20):
            expected = looped_topk_recall(pred, test_part, k)
            assert abs(topk_recall(pred, test_part, k) - expected) <= self.TOL


class TestIndependenceFloorErrors:
    """The closed form raises where the dict reference raises, and only
    there."""

    CASES = {
        # one token, one bigram: a union of 1 key
        "single key": (NgramStats(n=2, freqs={(0, 0): 1.0}),
                       NgramStats(n=1, freqs={0: 1.0}), "2 distinct"),
        # uniform unigram: the baseline is 1/4 on all four pairs
        "constant baseline": (
            NgramStats(n=2, freqs={(0, 1): 0.75, (1, 0): 0.25}),
            NgramStats(n=1, freqs={0: 0.5, 1: 0.5}), "constant"),
        # bigrams uniform over the same four pairs
        "constant bigrams": (
            NgramStats(n=2, freqs={(a, b): 0.25 for a in (0, 1)
                                   for b in (0, 1)}),
            NgramStats(n=1, freqs={0: 0.75, 1: 0.25}), "constant"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_value_error(self, case):
        bi, uni, match = self.CASES[case]
        with pytest.raises(ValueError, match=match):
            dict_pearson_marginal(bi, dict_independent_bigram_baseline(uni))
        with pytest.raises(ValueError, match=match):
            pearson_marginal(bi, independent_bigram_baseline(uni))

    @pytest.mark.parametrize("bi, uni", [
        # equal bigrams on two of the four pairs: zeros on the other two
        ({(0, 1): 0.5, (1, 0): 0.5}, {0: 0.75, 1: 0.25}),
        # uniform unigram, but a bigram outside S x S where the table is 0
        ({(0, 1): 0.5, (2, 2): 0.5}, {0: 0.5, 1: 0.5}),
    ])
    def test_constant_on_own_keys_only(self, bi, uni):
        bi, uni = NgramStats(n=2, freqs=bi), NgramStats(n=1, freqs=uni)
        expected = dict_pearson_marginal(
            bi, dict_independent_bigram_baseline(uni))
        got = pearson_marginal(bi, independent_bigram_baseline(uni))
        assert abs(got - expected) <= 1e-12


class TestPearsonEdgeCases:
    """The sums path against the ``np.corrcoef`` reference where the
    union of keys is unusual, in both argument orders."""

    TOL = 1e-12
    CASES = {
        "disjoint keys": ({0: 0.5, 1: 0.3, 2: 0.2}, {3: 0.6, 4: 0.4}),
        "one shared key": ({0: 0.7, 1: 0.3}, {1: 0.4, 2: 0.6}),
        "explicit zero entry": ({0: 0.6, 1: 0.4, 2: 0.0}, {0: 0.5, 2: 0.5}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dict_pairs(self, case):
        a, b = (NgramStats(n=1, freqs=f) for f in self.CASES[case])
        expected = dict_pearson_marginal(a, b)
        assert abs(pearson_marginal(a, b) - expected) <= self.TOL
        assert abs(pearson_marginal(b, a) - expected) <= self.TOL

    def test_uniform_table_is_constant(self):
        """1/7 on seven keys: ``np.std`` reads 2.8e-17, not 0, so only an
        exact range check raises; the code and the reference both use one."""
        uniform = NgramStats(n=1, freqs={k: 1 / 7 for k in range(7)})
        ramp = NgramStats(n=1, freqs={k: (k + 1) / 28 for k in range(7)})
        for a, b in ((uniform, ramp), (ramp, uniform)):
            for pearson in (pearson_marginal, dict_pearson_marginal):
                with pytest.raises(ValueError, match="constant"):
                    pearson(a, b)

    @pytest.mark.parametrize("uni", [
        {0: 0.7, 1: 0.3},
        {0: 0.7, 1: 0.3, 2: 0.0},  # an explicit 0 in the marginal
    ])
    def test_independence_table_shorter_than_bigrams(self, uni):
        """Nine bigrams against four or nine pairs, so the walk goes over
        the independence table (on a tie, when it is the first argument).
        Five bigrams lie outside S x S in the first case; the table holds
        zeros in the second."""
        bi = NgramStats(n=2, freqs={(p, q): (1 + p + 2 * q) / 36
                                    for p in range(3) for q in range(3)})
        uni = NgramStats(n=1, freqs=uni)
        base = independent_bigram_baseline(uni)
        assert len(base.freqs) <= len(bi.freqs)
        expected = dict_pearson_marginal(
            bi, dict_independent_bigram_baseline(uni))
        assert abs(pearson_marginal(bi, base) - expected) <= self.TOL
        assert abs(pearson_marginal(base, bi) - expected) <= self.TOL


def test_independence_floor_at_cli_default_vocab(monkeypatch):
    """A 20,000-token unigram (reachable at ``--max-vocab 50000``): the
    400 M-pair table is never iterated, and the floor matches a NumPy
    closed form over a sparse bigram matrix."""
    table_type = type(independent_bigram_baseline(
        NgramStats(n=1, freqs={0: 1.0})).freqs)

    def refuse(self):
        raise AssertionError("iterated the independence table")

    monkeypatch.setattr(table_type, "__iter__", refuse)
    rng = np.random.default_rng(0)
    S, V = 20_000, 20_500
    u = np.zeros(V)
    u[:S] = rng.gamma(0.5, size=S)
    u /= u.sum()
    uni = NgramStats(n=1, freqs={i: float(u[i]) for i in range(S)})
    base = independent_bigram_baseline(uni)
    assert len(base.freqs) == 400_000_000
    assert base.freqs[(3, 7)] == uni.freqs[3] * uni.freqs[7]
    assert (S, 0) not in base.freqs

    # 60,000 bigrams, a few hundred of them outside S x S
    rows = rng.choice(V, size=60_000, p=np.append(np.full(S, 0.995 / S),
                                                  np.full(V - S, 0.005 / (V - S))))
    cols = rng.integers(0, S, size=60_000)
    X = sparse.csr_matrix((rng.random(60_000), (rows, cols)), shape=(V, V))
    X.sum_duplicates()
    X /= X.sum()
    coo = X.tocoo()
    bi = NgramStats(n=2, freqs={(int(a), int(b)): float(x) for a, b, x
                                in zip(coo.row, coo.col, coo.data)})
    outside = int(np.count_nonzero(coo.row >= S))
    assert outside > 0

    n = S * S + outside
    sx, sxx = coo.data.sum(), coo.data @ coo.data
    sy, syy = u.sum() ** 2, (u @ u) ** 2
    sxy = u @ (X @ u)
    expected = (sxy - sx * sy / n) / np.sqrt((sxx - sx * sx / n)
                                             * (syy - sy * sy / n))
    assert abs(pearson_marginal(bi, base) - expected) <= 1e-12
    assert abs(pearson_marginal(base, bi) - expected) <= 1e-12


@pytest.fixture(scope="module")
def recall_rig():
    """A one-epoch predictor, and 1,024 records of the cohort it was
    trained on the first 100 of."""
    cohort = simulate_toy_cohort(default_toy_spec(n_records=1024), seed=21)
    cohort.vocab = build_visit_vocab(cohort, max_size=200)
    train_part = Cohort(cohort.records[:100], cohort.condition_names,
                        vocab=cohort.vocab)
    return train_next_visit_predictor(train_part, seed=0, epochs=1), cohort


def _first(cohort, n):
    return Cohort(cohort.records[:n], cohort.condition_names,
                  vocab=cohort.vocab)


def _traced_peak(fn, *args, **kwargs):
    """Bytes that ``fn(*args, **kwargs)`` holds at its traced peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_topk_recall_chunks_bit_identical(recall_rig, monkeypatch):
    """40 records hold hundreds of prediction steps; a position budget of
    1 and 3 records' padded width with step chunks of 1 and 3, the default
    and one chunk for all give one float."""
    pred, cohort = recall_rig
    test_part = _first(cohort, 40)
    width = max(len(r.visits) for r in test_part.records) + 1
    for k in (1, 5, 20):
        expected = topk_recall(pred, test_part, k)
        for chunk in (1, 3, 10**9):
            monkeypatch.setattr(_nn, "POSITION_BUDGET", chunk * width)
            monkeypatch.setattr(evaluation, "_STEP_CHUNK", chunk)
            assert topk_recall(pred, test_part, k) == expected
        monkeypatch.undo()


def test_topk_recall_memory_does_not_grow_with_the_cohort(recall_rig):
    """The traced peak on 4N test records stays under 1.5 times the peak on
    N, where one pass held every step's scores and LSTM cache at once."""
    pred, cohort = recall_rig
    peaks = [_traced_peak(topk_recall, pred, _first(cohort, n), 5)
             for n in (256, 1024)]
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize("variant", ["eva", "evac"])
def test_elbo_holdout_chunks_match_one_pass(variant, monkeypatch):
    """Under a budget of 256 records' padded width, 600 held-out records
    are scored in three chunks; the average equals the one-pass
    reference."""
    spec = default_toy_spec(n_records=40, background_groups=3,
                            groups_per_condition=2, len_min=2, len_max=5)
    cohort = simulate_toy_cohort(spec, seed=1)
    vocab = build_visit_vocab(cohort, max_size=64)
    batch = encode_cohort(cohort, vocab, t_max=5)
    cfg = TrainConfig(variant=variant, latent_dim=3, n_iters=8, minibatch=8,
                      hidden=5, burn_in=2, thin=2, reservoir_size=2, seed=1)
    dec_cfg = DecoderConfig(t_max=5, channels=4, kernel=2, dilations=(1, 2),
                            n_upsample=1)
    model = train(cfg, batch, vocab,
                  condition_names=tuple(cohort.condition_names),
                  dec_cfg=dec_cfg)
    holdout = replace_rare_visits(simulate_toy_cohort(
        default_toy_spec(n_records=600, background_groups=3,
                         groups_per_condition=2, len_min=2, len_max=5),
        seed=2), vocab)
    expected = unchunked_elbo_holdout(model, holdout)
    monkeypatch.setattr(_nn, "POSITION_BUDGET", 256 * dec_cfg.seq_len)
    chunk_rows = []
    holdout_score = evaluation._holdout_score

    def counting(model, snapshot, batch):
        chunk_rows.append(len(batch))
        return holdout_score(model, snapshot, batch)

    monkeypatch.setattr(evaluation, "_holdout_score", counting)
    assert abs(elbo_holdout(model, holdout) - expected) <= 1e-12 * abs(expected)
    assert chunk_rows == [256, 256, 88]


def _long_records(n_records, seed):
    """Records of 40 to 64 visits over a small vocabulary."""
    spec = default_toy_spec(n_records=n_records, background_groups=4,
                            groups_per_condition=3, len_min=40, len_max=64)
    cohort = simulate_toy_cohort(spec, seed=seed)
    cohort.vocab = build_visit_vocab(cohort, max_size=64)
    return cohort


def test_elbo_holdout_memory_does_not_grow_with_t_max():
    """256 records of up to 64 visits, scored by models of t_max 16 and
    64: chunks hold a fixed number of padded positions, so the traced
    peak at t_max 64 stays under 1.5 times the one at t_max 16, where 256
    records a chunk made it about 3 times."""
    cohort = _long_records(256, seed=3)
    cfg = TrainConfig(latent_dim=4, n_iters=1, minibatch=8, hidden=16,
                      burn_in=0, thin=1, reservoir_size=1, seed=0)
    peaks = []
    for t_max in (16, 64):
        model = train(cfg, encode_cohort(cohort, cohort.vocab, t_max),
                      cohort.vocab,
                      condition_names=tuple(cohort.condition_names),
                      dec_cfg=DecoderConfig(t_max=t_max, channels=8))
        peaks.append(_traced_peak(elbo_holdout, model, cohort))
    assert peaks[1] < 1.5 * peaks[0]


def test_elbo_holdout_keeps_no_backward_caches():
    """An ``evac`` model at the gate's shapes (t_max 16, C 48, LSTM hidden
    64, latent 16) scores 240 held-out records, one chunk: ``elbo_holdout``
    peaks under 0.6 times the caching encoder pass over the same records
    alone, which a scorer that keeps the per-step LSTM and the conv-layer
    caches exceeds."""
    cohort = simulate_toy_cohort(default_toy_spec(n_records=400), seed=5)
    vocab = build_visit_vocab(cohort, max_size=128)
    cfg = TrainConfig(variant="evac", latent_dim=16, n_iters=1, minibatch=32,
                      hidden=64, burn_in=0, thin=1, reservoir_size=1, seed=0)
    model = train(cfg, encode_cohort(cohort, vocab, 16), vocab,
                  condition_names=tuple(cohort.condition_names))
    holdout = replace_rare_visits(simulate_toy_cohort(
        default_toy_spec(n_records=240), seed=6), vocab)
    batch = encode_cohort(holdout, model.vocab, model.dec_cfg.t_max)
    assert len(list(_nn.row_chunks(len(batch), model.dec_cfg.seq_len))) == 1
    caching = _traced_peak(posterior_with_caches, model, model.phi, batch)
    assert _traced_peak(elbo_holdout, model, holdout) < 0.6 * caching


def test_topk_recall_keeps_no_backward_caches(recall_rig):
    """240 test records, one chunk: ``topk_recall`` peaks under 0.6 times
    the caching predictor LSTM over the same records alone, which a pass
    that keeps the per-step LSTM caches exceeds."""
    pred, cohort = recall_rig
    test_part = Cohort([r for r in cohort.records if len(r.visits) >= 2][:240],
                       cohort.condition_names, vocab=cohort.vocab)
    width = max(len(r.visits) for r in test_part.records) + 1
    assert _nn.POSITION_BUDGET // width >= 240
    batch = encode_cohort(test_part, cohort.vocab, width - 1)
    caching = _traced_peak(evaluation._predictor_states, pred.params, batch)
    assert _traced_peak(topk_recall, pred, test_part, 5) < 0.6 * caching


def test_elbo_holdout_head_memory_does_not_grow_with_live_positions():
    """At V 3,000 the head and cross-entropy run on ``_nn.STEP_CHUNK`` live
    positions at a time, so 4N held-out records in one chunk peak under
    1.5 times N; one pass over a chunk's live positions made two (live, V)
    arrays and about 3.7 times."""
    real = _wide_cohort(2000, seed=7, n_types=3000, n_codes=6000)
    vocab = build_visit_vocab(real, max_size=3000)
    assert vocab.size > 2500
    cfg = TrainConfig(latent_dim=4, n_iters=1, minibatch=8, hidden=8,
                      burn_in=0, thin=1, reservoir_size=1, seed=0)
    batch = encode_cohort(replace_rare_visits(real, vocab), vocab, 8)
    model = train(cfg, batch, vocab, dec_cfg=DecoderConfig(t_max=8,
                                                           channels=8))
    holdout = replace_rare_visits(_wide_cohort(160, seed=8, n_types=3000,
                                               n_codes=6000), vocab)
    peaks = [_traced_peak(elbo_holdout, model, _first(holdout, n))
             for n in (40, 160)]
    assert peaks[1] < 1.5 * peaks[0]


def test_predictor_holds_one_minibatch_at_a_time():
    """One epoch over 8 minibatches of long records peaks under 1.3 times
    one epoch over 1: a minibatch's forward and backward arrays are gone
    before the next one's forward pass, which held both at about 1.6."""
    cohort = _long_records(8 * evaluation.PREDICTOR_MINIBATCH, seed=4)
    peaks = [_traced_peak(train_next_visit_predictor, _first(cohort, n),
                          epochs=1)
             for n in (evaluation.PREDICTOR_MINIBATCH, len(cohort.records))]
    assert peaks[1] < 1.3 * peaks[0]
