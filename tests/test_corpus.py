"""Corpus handling: records, visit vocabulary, token encoding, disk round-trips."""

import json
from collections import Counter

import numpy as np
import pytest

from ehrgen.corpus import (
    Cohort,
    PatientRecord,
    VisitVocab,
    VocabEntry,
    build_visit_vocab,
    encode_cohort,
    load_cohort,
    replace_rare_visits,
    save_cohort,
    token_ids,
    visit_key,
)
from ehrgen.evaluation import ngram_stats, train_next_visit_predictor
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort

from oracles import looped_best_replacement, looped_encode_cohort, tiny_records


def small_vocab():
    return VisitVocab([
        VocabEntry(codes=("a",), token_id=0, frequency=5),
        VocabEntry(codes=("b", "c"), token_id=1, frequency=3),
        VocabEntry(codes=("d",), token_id=2, frequency=1),
    ])


class TestRecords:
    def test_visit_key_sorts(self):
        assert visit_key({"c", "a", "b"}) == ("a", "b", "c")

    def test_record_requires_visits(self):
        with pytest.raises(ValueError):
            PatientRecord("p", ())

    def test_record_rejects_empty_visit(self):
        with pytest.raises(ValueError):
            PatientRecord("p", (frozenset(),))

    def test_record_keeps_condition_tuple(self):
        rec = PatientRecord("p", (frozenset({"a"}),), conditions=(0, 1))
        assert rec.conditions == (0, 1)


class TestVocab:
    def test_build_orders_by_frequency_then_key(self):
        cohort = Cohort(records=tiny_records(), condition_names=[])
        vocab = build_visit_vocab(cohort, max_size=10)
        # counts: a=2, {b,c}=2, d=2, {e,f}=1 -> freq ties break on sorted key
        keys = [e.codes for e in vocab.entries]
        assert keys == [("a",), ("b", "c"), ("d",), ("e", "f")]
        assert [e.token_id for e in vocab.entries] == [0, 1, 2, 3]

    def test_special_ids_follow_entries(self):
        vocab = small_vocab()
        assert vocab.eos_id == 3
        assert vocab.pad_id == 4
        assert vocab.size == 5
        assert vocab.n_entries == 3

    def test_token_lookup_roundtrip(self):
        vocab = small_vocab()
        assert vocab.token_of(frozenset({"c", "b"})) == 1
        assert vocab.codes_of(1) == frozenset({"b", "c"})
        assert vocab.token_of(frozenset({"zz"})) is None
        assert frozenset({"a"}) in vocab

    @pytest.mark.parametrize("visit", [("c", "b"), ["b", "c"], {"c", "b"}])
    def test_lookup_takes_any_iterable_of_codes(self, visit):
        vocab = small_vocab()
        assert vocab.token_of(visit) == 1
        assert visit in vocab

    @pytest.mark.parametrize("codes", [(), ("a", "a"), ("b", "c", "b")])
    def test_entry_without_codes_or_with_a_repeated_code(self, codes):
        """A set-keyed lookup would match ("a", "a") for {"a"} while its
        Jaccard similarity counted two codes."""
        entries = [VocabEntry(codes=("x",), token_id=0, frequency=2),
                   VocabEntry(codes=codes, token_id=1, frequency=1)]
        with pytest.raises(ValueError, match="no codes or a repeated code"):
            VisitVocab(entries)

    def test_max_size_truncates(self):
        cohort = Cohort(records=tiny_records(), condition_names=[])
        vocab = build_visit_vocab(cohort, max_size=2)
        assert vocab.n_entries == 2


class TestRareReplacement:
    def test_best_intersection_wins(self):
        vocab = small_vocab()
        rec = PatientRecord("p", (frozenset({"b", "c", "x"}),))
        out = replace_rare_visits(Cohort([rec], []), vocab)
        assert out.records[0].visits[0] == frozenset({"b", "c"})

    def test_zero_overlap_falls_back_to_most_frequent(self):
        vocab = small_vocab()
        rec = PatientRecord("p", (frozenset({"zz"}),))
        out = replace_rare_visits(Cohort([rec], []), vocab)
        assert out.records[0].visits[0] == frozenset({"a"})

    def test_in_vocab_visits_untouched(self):
        vocab = small_vocab()
        recs = [PatientRecord("p", (frozenset({"d"}), frozenset({"q", "a"})))]
        out = replace_rare_visits(Cohort(recs, []), vocab)
        assert out.records[0].visits[0] == frozenset({"d"})
        assert out.records[0].visits[1] == frozenset({"a"})
        assert out.vocab is vocab

    def test_zero_overlap_fallback_reads_frequencies_not_token_order(self):
        """A loaded vocabulary need not list its entries by frequency; the
        fallback is the most frequent entry, ties broken on the codes."""
        vocab = VisitVocab([
            VocabEntry(codes=("a",), token_id=0, frequency=1),
            VocabEntry(codes=("c",), token_id=1, frequency=5),
            VocabEntry(codes=("b",), token_id=2, frequency=5),
        ])
        rec = PatientRecord("p", (frozenset({"zz"}),))
        out = replace_rare_visits(Cohort([rec], []), vocab)
        assert out.records[0].visits[0] == frozenset({"b"})

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            replace_rare_visits(Cohort(tiny_records(), []), None)

    def test_extra_counts_replacements(self):
        """Hand-checked: two entries keep {a} and {b}, three visits each.
        {a, c}, twice, shares a with {a} (Jaccard 1/2); {d} shares no code
        with either, so it takes the most frequent entry, {a} (the tie
        broken on the codes). With every visit type kept, nothing is
        replaced. Only the touched records are copied."""
        a, b, ac, d = (frozenset(v) for v in ("a", "b", "ac", "d"))
        cohort = Cohort([
            PatientRecord("p0", (a, b)), PatientRecord("p1", (a, ac)),
            PatientRecord("p2", (d, b, a)), PatientRecord("p3", (b, ac))], [])
        keys = ("replaced_visits", "records_touched", "zero_overlap_visits",
                "replacement_jaccard_mean")
        out = replace_rare_visits(cohort, build_visit_vocab(cohort, 2))
        assert list(out.extra) == list(keys)
        assert [out.extra[k] for k in keys] == [3, 3, 1, pytest.approx(1 / 3)]
        assert [r.visits for r in out.records] == [(a, b), (a, a),
                                                   (a, b, a), (b, a)]
        assert out.records[0] is cohort.records[0]
        kept = replace_rare_visits(cohort, build_visit_vocab(cohort, 50))
        assert [kept.extra[k] for k in keys] == [0, 0, 0, None]
        assert all(x is y for x, y in zip(kept.records, cohort.records))
        for kind in (tuple, list):  # visits given as other iterables of codes
            given = Cohort([PatientRecord(r.id, tuple(map(kind, r.visits)))
                            for r in cohort.records], [])
            got = replace_rare_visits(given, out.vocab)
            assert got.extra == out.extra
            assert [tuple(map(frozenset, r.visits)) for r in got.records] == [
                r.visits for r in out.records]
            assert got.records[0] is given.records[0]


def random_vocab(rng, alphabet, n_entries):
    """Distinct code-sets of 1-3 codes, each stored in a random code order,
    with small random frequencies (so ties are common) in no particular
    token order."""
    keys = {}
    while len(keys) < n_entries:
        codes = [str(c) for c in rng.choice(alphabet, rng.integers(1, 4),
                                            replace=False)]
        keys.setdefault(frozenset(codes), tuple(codes))
    return VisitVocab([
        VocabEntry(codes=codes, token_id=i, frequency=int(rng.integers(1, 5)))
        for i, codes in enumerate(keys.values())])


def deciding_level(visit, vocab):
    """Which part of the rank picks the replacement of ``visit``: the index
    (0 intersection, 1 Jaccard, 2 frequency, 3 codes) of the first part in
    which the best and second-best entries sharing a code differ, "only"
    for a single such entry, or ("zero", index) for the fallback, where 0 is
    the frequency and 1 the codes."""
    codes = set(visit)
    ranks = sorted(
        (-n, -n / float(len(codes) + len(e.codes) - n), -e.frequency, e.codes)
        for e in vocab.entries
        for n in [len(codes.intersection(e.codes))] if n)
    if not ranks:
        ranks = sorted((-e.frequency, e.codes) for e in vocab.entries)
        return "zero", int(ranks[0][0] == ranks[1][0])
    if len(ranks) == 1:
        return "only"
    return next(k for k in range(4) if ranks[0][k] != ranks[1][k])


class TestReplacementOracle:
    """``replace_rare_visits`` ranks only the entries on its code postings;
    the looped scan over every entry is the reference, and the records
    before and after are the reference for its counts."""

    def test_equals_looped_scan(self):
        rng = np.random.default_rng(20)
        alphabet = [f"c{i}" for i in range(9)]
        levels = Counter()
        for trial in range(40):
            vocab = random_vocab(rng, alphabet, int(rng.integers(2, 40)))
            pool = alphabet + [f"new{trial}_{j}" for j in range(3)]
            records = [
                PatientRecord(f"p{i}", tuple(
                    frozenset(str(c) for c in rng.choice(
                        pool, rng.integers(1, 5), replace=False))
                    for _ in range(int(rng.integers(1, 6)))))
                for i in range(12)]
            out = replace_rare_visits(Cohort(records, []), vocab)
            for rec, got in zip(records, out.records):
                want = tuple(v if v in vocab
                             else looped_best_replacement(v, vocab)
                             for v in rec.visits)
                assert got.visits == want
                levels.update(deciding_level(v, vocab)
                              for v in rec.visits if v not in vocab)
            # the counts, from the records before and after
            pairs = [(v, w) for rec, got in zip(records, out.records)
                     for v, w in zip(rec.visits, got.visits) if v != w]
            jac = [len(v & w) / len(v | w) for v, w in pairs]
            assert out.extra == {
                "replaced_visits": len(pairs),
                "records_touched": sum(rec.visits != got.visits for rec, got
                                       in zip(records, out.records)),
                "zero_overlap_visits": jac.count(0.0),
                "replacement_jaccard_mean":
                    sum(jac) / len(jac) if jac else None}
        # every tie-break level decided some replacement
        assert {0, 1, 2, 3, "only", ("zero", 0), ("zero", 1)} <= set(levels)

    def test_ranks_only_entries_sharing_a_code(self):
        """Entries sharing no code with the rare visits are read a fixed
        number of times per call, however many rare visits there are; an
        entry is ranked at most once per rare visit it shares a code with,
        plus once for the fallback, which is found once per call."""
        reads = Counter()

        class SpyEntry(VocabEntry):
            def __getattribute__(self, name):
                if name in ("codes", "frequency"):
                    reads[object.__getattribute__(self, "token_id"), name] += 1
                return object.__getattribute__(self, name)

        n = 3000  # entry i holds a group code shared by 50 entries, and u<i>
        order = np.random.default_rng(3).permutation(n)
        plain = VisitVocab([
            VocabEntry(codes=(f"g{i % 60}", f"u{i}"), token_id=i,
                       frequency=int(order[i]) // 2)
            for i in range(n)])
        vocab = VisitVocab([SpyEntry(e.codes, e.token_id, e.frequency)
                            for e in plain.entries])

        def rare_visits(k):
            return ([frozenset({f"x{j}", f"y{j}"}) for j in range(k)]
                    + [frozenset({f"g{j}", f"z{j}"}) for j in range(k // 10)]
                    + [frozenset({f"u{j}", "z"}) for j in range(k // 10)])

        def replace_counting(visits):
            reads.clear()
            out = replace_rare_visits(Cohort(
                [PatientRecord(f"p{i}", (v,)) for i, v in enumerate(visits)],
                []), vocab)
            seen = Counter(reads)
            assert [r.visits[0] for r in out.records] == [
                looped_best_replacement(v, plain) for v in visits]
            return seen

        many, few = replace_counting(rare_visits(200)), replace_counting(
            rare_visits(20))
        sharing = Counter(i for v in rare_visits(200) for i in range(n)
                          if v.intersection(plain.entries[i].codes))
        untouched = [i for i in range(n) if i not in sharing]
        assert len(untouched) == 2000
        for i in untouched:
            for name in ("codes", "frequency"):
                assert many[i, name] == few[i, name]
            assert many[i, "frequency"] <= 1
        for i in sharing:
            assert many[i, "frequency"] <= 1 + sharing[i]


class TestEncoding:
    def test_layout_eos_pad_mask(self):
        vocab = small_vocab()
        recs = [
            PatientRecord("p0", (frozenset({"a"}), frozenset({"b", "c"}))),
            PatientRecord("p1", (frozenset({"d"}),)),
        ]
        batch = encode_cohort(Cohort(recs, []), vocab, t_max=3)
        np.testing.assert_array_equal(batch.tokens[0], [0, 1, vocab.eos_id, vocab.pad_id])
        np.testing.assert_array_equal(batch.tokens[1], [2, vocab.eos_id, vocab.pad_id, vocab.pad_id])
        np.testing.assert_array_equal(batch.mask[0], [1, 1, 1, 0])
        np.testing.assert_array_equal(batch.mask[1], [1, 1, 0, 0])

    def test_truncation_at_t_max(self):
        vocab = small_vocab()
        recs = [PatientRecord("p", (frozenset({"a"}),) * 5)]
        batch = encode_cohort(Cohort(recs, []), vocab, t_max=2)
        np.testing.assert_array_equal(batch.tokens[0], [0, 0, vocab.eos_id])
        assert batch.mask[0].sum() == 3

    def test_oov_raises_with_patient_id(self):
        vocab = small_vocab()
        recs = [PatientRecord("bad-one", (frozenset({"zz"}),))]
        with pytest.raises(ValueError, match="bad-one"):
            encode_cohort(Cohort(recs, []), vocab, t_max=2)

    @pytest.mark.parametrize("records, names, t_max", [
        pytest.param([PatientRecord("long", (frozenset({"a"}), frozenset({"d"}),
                                             frozenset({"b", "c"}))),
                      PatientRecord("short", (frozenset({"d"}),))],
                     [], 2, id="longer than t_max"),
        pytest.param([PatientRecord(f"p{i}", (frozenset({c}),))
                      for i, c in enumerate("ada")], [], 3, id="one visit"),
        pytest.param([], ["x", "background"], 4, id="empty cohort"),
        pytest.param([PatientRecord("p0", (frozenset({"a"}),) * 3, (1, 1)),
                      PatientRecord("p1", (frozenset({"b", "c"}),), (0, 1))],
                     ["x", "background"], 2, id="conditions"),
        pytest.param([PatientRecord("none", (frozenset({"a"}),), ()),
                      PatientRecord("short", (frozenset({"d"}),), (1,)),
                      PatientRecord("full", (frozenset({"a"}),), (0, 1, 1))],
                     ["x", "y", "background"], 2, id="ragged conditions"),
        pytest.param([PatientRecord("p0", (("a",), ["c", "b"], ("d",))),
                      PatientRecord("p1", (["b", "c"], ("c", "b")))],
                     [], 3, id="tuple and list visits"),
    ])
    def test_matches_the_per_record_loop(self, records, names, t_max):
        vocab = small_vocab()
        cohort = Cohort(records, names)
        got = encode_cohort(cohort, vocab, t_max)
        want = looped_encode_cohort(cohort, vocab, t_max)
        for part in ("tokens", "mask", "conditions"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.shape == b.shape, part
            np.testing.assert_array_equal(a, b, err_msg=part)

    def test_token_ids_are_flat_with_lengths(self):
        cohort = Cohort(tiny_records(), [])
        vocab = build_visit_vocab(cohort, max_size=10)
        ids, lengths = token_ids(cohort, vocab)
        assert lengths.tolist() == [2, 3, 1, 3]
        assert ids.dtype == np.int64
        assert ids.tolist() == [vocab.token_of(v) for rec in tiny_records()
                                for v in rec.visits]

    def test_one_oov_message_for_every_reader(self):
        """Encoding, n-gram counting and predictor training all tokenize
        through ``token_ids`` and refuse an out-of-vocabulary visit alike;
        encoding refuses one past ``t_max`` too."""
        vocab = small_vocab()
        cohort = Cohort([PatientRecord("fine", (frozenset({"a"}),)),
                         PatientRecord("bad-one", (frozenset({"a"}),
                                                   frozenset({"zz"})))], [],
                        vocab=vocab)
        messages = set()
        for read in (lambda: encode_cohort(cohort, vocab, t_max=1),
                     lambda: ngram_stats(cohort, 2),
                     lambda: train_next_visit_predictor(cohort, epochs=1)):
            with pytest.raises(ValueError, match="preprocess") as err:
                read()
            messages.add(str(err.value))
        assert len(messages) == 1
        assert "'bad-one'" in messages.pop()

    def test_conditions_copied(self):
        vocab = small_vocab()
        recs = [PatientRecord("p", (frozenset({"a"}),), conditions=(1, 0, 1))]
        batch = encode_cohort(Cohort(recs, ["x", "y", "background"]), vocab, t_max=1)
        np.testing.assert_array_equal(batch.conditions, [[1.0, 0.0, 1.0]])

    def test_take_subsets_rows(self):
        cohort = Cohort(tiny_records(), [])
        vocab = build_visit_vocab(cohort, max_size=10)
        batch = encode_cohort(cohort, vocab, t_max=3)
        sub = batch.take(np.array([2, 0]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.tokens[0], batch.tokens[2])
        np.testing.assert_array_equal(sub.tokens[1], batch.tokens[0])
        np.testing.assert_array_equal(sub.mask, batch.mask[[2, 0]])
        np.testing.assert_array_equal(sub.conditions, batch.conditions[[2, 0]])


class TestDiskRoundTrip:
    def test_cohort_roundtrip(self, tmp_path):
        path = tmp_path / "cohort.jsonl"
        cohort = Cohort(
            records=[
                PatientRecord("p0", (frozenset({"a"}), frozenset({"b", "c"})),
                              conditions=(1, 0)),
                PatientRecord("p1", (frozenset({"d"}),), conditions=(0, 1)),
            ],
            condition_names=["cond_0", "background"],
            extra={"seed": 3},
        )
        save_cohort(path, cohort)
        assert json.loads(open(path).readline())["meta"]["seed"] == 3
        back = load_cohort(path)
        assert back.extra == {}  # loading decides nothing
        assert back.condition_names == ["cond_0", "background"]
        assert len(back) == 2
        assert back.records[0].visits == cohort.records[0].visits
        assert back.records[0].conditions == (1, 0)
        assert back.records[1].id == "p1"

    def test_vocab_roundtrip(self, tmp_path):
        """A cohort's vocabulary travels in its meta line, as the rows a
        checkpoint stores, after the cohort's ``extra``; a simulated cohort
        has none and loads raw."""
        path = tmp_path / "cohort.jsonl"
        vocab = small_vocab()
        assert VisitVocab.from_rows(vocab.rows()) == vocab
        cohort = Cohort(tiny_records(), [], vocab=vocab, extra={"seed": 3})
        save_cohort(path, cohort)
        meta = json.loads(open(path).readline())["meta"]
        assert list(meta) == ["format", "version", "condition_names", "seed",
                              "vocab"]
        assert meta["vocab"] == vocab.rows() == [
            {"codes": ["a"], "frequency": 5},
            {"codes": ["b", "c"], "frequency": 3},
            {"codes": ["d"], "frequency": 1}]
        back = load_cohort(path)
        assert back.extra == {}
        assert back.vocab == vocab
        assert back.vocab.eos_id == vocab.eos_id
        assert back.records == cohort.records
        save_cohort(path, simulate_toy_cohort(default_toy_spec(n_records=5),
                                              seed=1))
        assert "vocab" not in json.loads(open(path).readline())["meta"]
        assert load_cohort(path).vocab is None

    def test_equal_visits_share_one_object(self, tmp_path):
        """Loading keeps one frozenset per distinct visit of the file."""
        path = tmp_path / "c.jsonl"
        save_cohort(path, Cohort(tiny_records(), []))
        p0, p1, p2, p3 = (r.visits for r in load_cohort(path).records)
        assert p0[0] is p1[0] is p3[1] == frozenset({"a"})
        assert p0[1] is p1[1] is p2[0] == frozenset({"b", "c"})
        assert p1[2] is p3[0] == frozenset({"d"})

    def test_cohort_without_conditions(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_cohort(path, Cohort(tiny_records(), []))
        back = load_cohort(path)
        assert back.records[3].conditions == ()
        assert [r.id for r in back.records] == ["p0", "p1", "p2", "p3"]
