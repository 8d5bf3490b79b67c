"""Corpus handling: records, visit vocabulary, token encoding, disk round-trips."""

import numpy as np
import pytest

from ehrgen.corpus import (
    Cohort,
    PatientRecord,
    VisitVocab,
    VocabEntry,
    build_visit_vocab,
    decode_tokens,
    encode_cohort,
    load_cohort,
    load_vocab,
    replace_rare_visits,
    save_cohort,
    save_vocab,
    visit_key,
)

from oracles import tiny_records


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
        assert len(vocab) == 5  # __len__ includes EOS and PAD
        assert vocab.n_entries == 3

    def test_token_lookup_roundtrip(self):
        vocab = small_vocab()
        assert vocab.token_of(frozenset({"c", "b"})) == 1
        assert vocab.codes_of(1) == frozenset({"b", "c"})
        assert vocab.token_of(frozenset({"zz"})) is None
        assert frozenset({"a"}) in vocab

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

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            replace_rare_visits(Cohort(tiny_records(), []), None)


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
        assert batch.record_ids == ["p0", "p1"]

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
        assert sub.record_ids == ["p2", "p0"]

    def test_decode_tokens_stops_at_eos(self):
        vocab = small_vocab()
        row = np.array([1, 0, vocab.eos_id, 2])
        visits = decode_tokens(row, vocab)
        assert visits == (frozenset({"b", "c"}), frozenset({"a"}))


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
        )
        save_cohort(path, cohort, meta={"seed": 3})
        back = load_cohort(path)
        assert back.condition_names == ["cond_0", "background"]
        assert len(back) == 2
        assert back.records[0].visits == cohort.records[0].visits
        assert back.records[0].conditions == (1, 0)
        assert back.records[1].id == "p1"

    def test_vocab_roundtrip(self, tmp_path):
        path = tmp_path / "vocab.jsonl"
        vocab = small_vocab()
        save_vocab(path, vocab)
        back = load_vocab(path)
        assert back == vocab
        assert back.eos_id == vocab.eos_id

    def test_cohort_without_conditions(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_cohort(path, Cohort(tiny_records(), []))
        back = load_cohort(path)
        assert back.records[3].conditions == ()
        assert [r.id for r in back.records] == ["p0", "p1", "p2", "p3"]
