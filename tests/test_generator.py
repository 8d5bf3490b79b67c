"""Cohort generation: request validation, determinism, condition handling,
the no-empty-record guarantee, and case/control pairing."""

import numpy as np
import pytest

from ehrgen.corpus import build_visit_vocab, encode_cohort
from ehrgen.decoder import DecoderConfig
from ehrgen.generator import (
    GenerationRequest,
    condition_vector,
    generate_case_control,
    generate_cohort,
)
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import TrainConfig, train


def quick_model(variant="evac", seed=0, n_iters=8):
    spec = default_toy_spec(n_records=16, background_groups=3,
                            groups_per_condition=2, n_conditions=2,
                            len_min=2, len_max=4)
    cohort = simulate_toy_cohort(spec, seed=seed)
    vocab = build_visit_vocab(cohort, max_size=32)
    batch = encode_cohort(cohort, vocab, t_max=4)
    cfg = TrainConfig(variant=variant, latent_dim=3, n_iters=n_iters,
                      minibatch=8, embed_dim=4, hidden=5, cond_hidden=4,
                      burn_in=2, thin=2, reservoir_size=3, seed=seed)
    dec_cfg = DecoderConfig(vocab_size=vocab.size, latent_dim=3, t_max=4,
                            channels=4, kernel=2, dilations=(1, 2),
                            n_upsample=1)
    return train(cfg, batch, vocab,
                 condition_names=tuple(cohort.condition_names),
                 dec_cfg=dec_cfg)


EVAC = quick_model("evac")
EVA = quick_model("eva")


class TestRequestValidation:
    def test_bad_count(self):
        with pytest.raises(ValueError):
            GenerationRequest(count=0)

    def test_bad_mode_policy_temperature(self):
        with pytest.raises(ValueError):
            GenerationRequest(count=1, mode="both")
        with pytest.raises(ValueError):
            GenerationRequest(count=1, policy="median")
        with pytest.raises(ValueError):
            GenerationRequest(count=1, temperature=0.0)

    def test_conditional_needs_evac(self):
        req = GenerationRequest(count=2, mode="conditional",
                                conditions=("cond_0",))
        with pytest.raises(ValueError, match="evac"):
            generate_cohort(EVA, req)

    def test_empty_reservoir_rejected(self):
        import copy
        model = copy.copy(EVA)
        model.reservoir = []
        with pytest.raises(ValueError, match="reservoir"):
            generate_cohort(model, GenerationRequest(count=1))


class TestConditionVector:
    def test_background_always_on(self):
        y = condition_vector(EVAC, ())
        bg = EVAC.condition_names.index("background")
        assert y[bg] == 1.0
        assert y.sum() == 1.0

    def test_named_conditions_set(self):
        y = condition_vector(EVAC, ("cond_1",))
        assert y[EVAC.condition_names.index("cond_1")] == 1.0
        assert y.sum() == 2.0  # named + background

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown condition 'nope'"):
            condition_vector(EVAC, ("nope",))

    def test_explicit_y_overrides_names(self):
        y = tuple(1.0 if i == 0 else 0.0 for i in range(EVAC.cond_dim))
        out = generate_cohort(EVAC, GenerationRequest(count=2, y=y, seed=1))
        assert all(r.conditions == tuple(int(v) for v in y)
                   for r in out.records)

    def test_explicit_y_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            generate_cohort(EVAC, GenerationRequest(count=1, y=(1.0,)))


class TestGeneration:
    def test_count_ids_and_vocab(self):
        out = generate_cohort(EVA, GenerationRequest(count=7, seed=3))
        assert len(out) == 7
        assert [r.id for r in out.records] == [f"g{i:06d}" for i in range(7)]
        assert out.vocab is EVA.vocab
        for rec in out.records:
            for visit in rec.visits:
                assert visit in EVA.vocab

    def test_no_empty_records(self):
        """Every generated record has at least one visit, even when the
        decoder loves the end marker."""
        import copy

        model = copy.copy(EVA)
        model.reservoir = copy.deepcopy(EVA.reservoir)
        for snap in model.reservoir:
            snap["theta"]["head"]["W"][:] = 0.0
            snap["theta"]["head"]["b"][:] = -30.0
            snap["theta"]["head"]["b"][model.vocab.eos_id] = 30.0
        out = generate_cohort(model, GenerationRequest(count=10, seed=4))
        assert all(len(r.visits) >= 1 for r in out.records)

    def test_seed_reproducibility(self):
        a = generate_cohort(EVAC, GenerationRequest(count=6, seed=9))
        b = generate_cohort(EVAC, GenerationRequest(count=6, seed=9))
        c = generate_cohort(EVAC, GenerationRequest(count=6, seed=10))
        assert [r.visits for r in a.records] == [r.visits for r in b.records]
        assert [r.visits for r in a.records] != [r.visits for r in c.records]

    def test_t_max_caps_length(self):
        out = generate_cohort(EVA, GenerationRequest(count=20, seed=5, t_max=2))
        assert max(len(r.visits) for r in out.records) <= 2
        with pytest.raises(ValueError):
            generate_cohort(EVA, GenerationRequest(count=1, t_max=0))

    def test_point_policy_uses_last_snapshot_only(self):
        """Point generation must be reproducible from the last sample alone."""
        import copy
        trimmed = copy.copy(EVA)
        trimmed.reservoir = [EVA.reservoir[-1]]
        full = generate_cohort(EVA, GenerationRequest(count=5, seed=6,
                                                      policy="point"))
        only_last = generate_cohort(trimmed, GenerationRequest(count=5, seed=6,
                                                               policy="point"))
        assert [r.visits for r in full.records] == \
            [r.visits for r in only_last.records]

    def test_unconditional_records_carry_request_y(self):
        out = generate_cohort(EVAC, GenerationRequest(count=3, seed=7))
        bg = EVAC.condition_names.index("background")
        for rec in out.records:
            assert rec.conditions[bg] == 1
            assert sum(rec.conditions) == 1

    def test_eva_records_have_no_conditions(self):
        out = generate_cohort(EVA, GenerationRequest(count=3, seed=8))
        assert all(r.conditions == () for r in out.records)


class TestCaseControl:
    def test_sizes_and_labels(self):
        cases, controls = generate_case_control(EVAC, "cond_0", 4, 3, seed=1)
        assert len(cases) == 4 and len(controls) == 3
        k = EVAC.condition_names.index("cond_0")
        bg = EVAC.condition_names.index("background")
        for rec in cases.records:
            assert rec.conditions[k] == 1 and rec.conditions[bg] == 1
        for rec in controls.records:
            assert rec.conditions[k] == 0 and rec.conditions[bg] == 1

    def test_zero_counts_give_empty_cohorts(self):
        cases, controls = generate_case_control(EVAC, "cond_1", 0, 2, seed=2)
        assert len(cases) == 0 and len(controls) == 2
        assert cases.condition_names == list(EVAC.condition_names)

    def test_unknown_condition(self):
        with pytest.raises(ValueError, match="unknown condition"):
            generate_case_control(EVAC, "what", 1, 1, seed=0)

    def test_same_seed_reproduces_both_arms(self):
        a = generate_case_control(EVAC, "cond_0", 3, 3, seed=5)
        b = generate_case_control(EVAC, "cond_0", 3, 3, seed=5)
        for x, y in zip(a, b):
            assert [r.visits for r in x.records] == [r.visits for r in y.records]
