"""Cohort generation: request validation, determinism, condition handling,
the no-empty-record guarantee, and case/control pairing."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ehrgen import _nn, decoder
from ehrgen.corpus import build_visit_vocab, encode_cohort
from ehrgen.decoder import DecoderConfig
from ehrgen.generator import (
    GenerationRequest,
    condition_vector,
    generate_case_control,
    generate_cohort,
)
from ehrgen.latent import GAMMA, TAU, sample_prior_eva, sample_prior_evac
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import TrainConfig, train

from oracles import grouped_prefix_sample, prefix_sample


def quick_model(variant="evac", seed=0, n_iters=8, dec_cfg=None):
    spec = default_toy_spec(n_records=16, background_groups=3,
                            groups_per_condition=2, n_conditions=2,
                            len_min=2, len_max=4)
    cohort = simulate_toy_cohort(spec, seed=seed)
    vocab = build_visit_vocab(cohort, max_size=32)
    if dec_cfg is None:
        dec_cfg = DecoderConfig(t_max=4, channels=4, kernel=2,
                                dilations=(1, 2), n_upsample=1)
    batch = encode_cohort(cohort, vocab, t_max=dec_cfg.t_max)
    cfg = TrainConfig(variant=variant, latent_dim=3, n_iters=n_iters,
                      minibatch=8, hidden=5,
                      burn_in=2, thin=2, reservoir_size=3, seed=seed)
    return train(cfg, batch, vocab,
                 condition_names=tuple(cohort.condition_names),
                 dec_cfg=dec_cfg)


EVAC = quick_model("evac")
EVA = quick_model("eva")


def point_reference(seed, count):
    """``EVA``'s point-policy cohort for ``seed`` as visits, from the
    one-group prefix-rescoring reference."""
    rng = np.random.default_rng(seed)
    z = sample_prior_eva(EVA.train_config.latent_dim, rng, count)
    ref = prefix_sample(EVA.reservoir[-1]["theta"], EVA.dec_cfg, z, rng,
                        eos_id=EVA.vocab.eos_id, forbid=(EVA.vocab.pad_id,))
    return [tuple(EVA.vocab.codes_of(t) for t in seq) for seq in ref]


def ensemble_reference(model, seed, count, conditions=()):
    """``model``'s ensemble cohort for ``seed`` as visits, from the grouped
    prefix-rescoring reference; it checks that the picks hit more than one
    snapshot."""
    cfg = model.train_config
    y = None
    if model.variant == "evac":
        y = condition_vector(model, conditions)

    def draw_latents(s, n, rng):
        if y is None:
            return sample_prior_eva(cfg.latent_dim, rng, n)
        return sample_prior_evac(model.reservoir[s]["H"], np.tile(y, (n, 1)),
                                 GAMMA, TAU, rng)[2]

    rng = np.random.default_rng(seed)
    picks = rng.integers(len(model.reservoir), size=count)
    assert len(set(picks.tolist())) > 1
    ref = grouped_prefix_sample(
        [snap["theta"] for snap in model.reservoir], model.dec_cfg, picks,
        draw_latents, rng, eos_id=model.vocab.eos_id,
        forbid=(model.vocab.pad_id,))
    return [tuple(model.vocab.codes_of(t) for t in seq) for seq in ref]


class TestRequestValidation:
    def test_bad_count(self):
        with pytest.raises(ValueError):
            GenerationRequest(count=0)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            GenerationRequest(count=1, policy="median")

    @pytest.mark.parametrize("t_max", [0, -3])
    def test_bad_t_max(self, t_max):
        """Refused by the request, before any model is read."""
        with pytest.raises(ValueError, match="t_max"):
            GenerationRequest(count=1, t_max=t_max)
        GenerationRequest(count=1, t_max=1)

    def test_conditional_needs_evac(self):
        req = GenerationRequest(count=2, conditions=("cond_0",))
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


class TestGeneration:
    def test_count_ids_and_vocab(self):
        out = generate_cohort(EVA, GenerationRequest(count=7, seed=3))
        assert len(out) == 7
        assert [r.id for r in out.records] == [f"g{i:06d}" for i in range(7)]
        assert out.vocab is EVA.vocab
        for rec in out.records:
            assert 1 <= len(rec.visits) <= EVA.dec_cfg.t_max
            for visit in rec.visits:
                assert visit in EVA.vocab

    def test_no_empty_records(self):
        """Every generated record has at least one visit, even when the
        decoder loves the end marker: then it has exactly one."""
        import copy

        model = copy.copy(EVA)
        model.reservoir = copy.deepcopy(EVA.reservoir)
        for snap in model.reservoir:
            snap["theta"]["head"]["W"][:] = 0.0
            snap["theta"]["head"]["b"][:] = -30.0
            snap["theta"]["head"]["b"][model.vocab.eos_id] = 30.0
        out = generate_cohort(model, GenerationRequest(count=10, seed=4))
        assert all(len(r.visits) == 1 for r in out.records)

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

    def test_capped_point_cohort_is_truncated_uncapped(self):
        """Under the point policy (one snapshot group) the cap only stops the
        draws early."""
        full = generate_cohort(EVA, GenerationRequest(count=30, seed=8,
                                                      policy="point"))
        capped = generate_cohort(EVA, GenerationRequest(count=30, seed=8,
                                                        policy="point",
                                                        t_max=2))
        assert max(len(r.visits) for r in full.records) > 2
        assert ([r.visits for r in capped.records]
                == [r.visits[:2] for r in full.records])

    def test_capped_ensemble_cohort_is_truncated_uncapped(self):
        """All snapshot groups share one loop, so under the ensemble policy
        too the cap only stops the draws early."""
        full = generate_cohort(EVA, GenerationRequest(count=30, seed=8))
        capped = generate_cohort(EVA, GenerationRequest(count=30, seed=8,
                                                        t_max=2))
        assert max(len(r.visits) for r in full.records) > 2
        assert ([r.visits for r in capped.records]
                == [r.visits[:2] for r in full.records])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 8])
    def test_point_cohort_matches_single_group_oracle(self, seed):
        """The point policy draws no picks: the latents, then the single
        group's uniforms, as the one-group prefix-rescoring reference."""
        out = generate_cohort(EVA, GenerationRequest(
            count=12, seed=seed, policy="point"))
        assert [r.visits for r in out.records] == point_reference(seed, 12)

    @pytest.mark.parametrize("variant, seed", [("eva", 0), ("eva", 1),
                                               ("eva", 2), ("evac", 3)])
    def test_ensemble_cohort_matches_grouped_oracle(self, variant, seed):
        """The picks, then each snapshot group's latents in ascending
        order, then one uniform vector per step over the live records
        ordered by snapshot."""
        model = {"eva": EVA, "evac": EVAC}[variant]
        conditions = ("cond_1",) if variant == "evac" else ()
        out = generate_cohort(model, GenerationRequest(
            count=14, seed=seed, conditions=conditions))
        assert [r.visits for r in out.records] == ensemble_reference(
            model, seed, 14, conditions)

    @pytest.mark.parametrize("policy", ["point", "ensemble"])
    def test_context_row_chunks_match_oracles(self, policy, monkeypatch):
        """A budget of two rows' padded positions splits each snapshot
        group's latent context into chunks of at most two rows, three or
        more for the largest group; the draws still equal the
        prefix-rescoring references."""
        ref = (point_reference(5, 14) if policy == "point"
               else ensemble_reference(EVA, 5, 14))
        monkeypatch.setattr(_nn, "POSITION_BUDGET", 2 * EVA.dec_cfg.t_max)
        chunks = Counter()
        latent_context = decoder._latent_context

        def counting(params, cfg, z, out_len):
            assert len(z) <= 2
            chunks[id(params)] += 1
            return latent_context(params, cfg, z, out_len)

        monkeypatch.setattr(decoder, "_latent_context", counting)
        out = generate_cohort(EVA, GenerationRequest(count=14, seed=5,
                                                     policy=policy))
        assert [r.visits for r in out.records] == ref
        assert max(chunks.values()) >= 3

    def test_point_request_memory_bounded_at_t_max_64(self):
        """A 600-record request at t_max 64 keeps its (600, 64, C) latent
        context, but the upsampling runs in row chunks: the traced peak
        stays under 3 times that array, where all rows at once took about
        9 times."""
        model = quick_model("eva", n_iters=3,
                            dec_cfg=DecoderConfig(t_max=64))
        context_bytes = 600 * 64 * model.dec_cfg.channels * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            generate_cohort(model, GenerationRequest(count=600, seed=0,
                                                     policy="point"))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * context_bytes

    @pytest.mark.parametrize("policy, t_max", [("ensemble", None),
                                               ("ensemble", 2),
                                               ("point", 1)])
    def test_generation_counts(self, policy, t_max):
        request = GenerationRequest(count=25, seed=2, policy=policy,
                                    t_max=t_max)
        out = generate_cohort(EVA, request)
        counts = out.extra
        per_snapshot = counts["records_per_snapshot"]
        assert len(per_snapshot) == len(EVA.reservoir)
        assert sum(per_snapshot) == 25
        cap = t_max or EVA.dec_cfg.t_max
        assert counts["stopped_at_cap"] == sum(
            len(r.visits) == cap for r in out.records)
        assert counts["stopped_at_cap"] + counts["stopped_at_eos"] == 25
        if policy == "point":
            assert per_snapshot[-1] == 25
            assert counts["stopped_at_cap"] == 25  # one visit each
        else:
            assert min(per_snapshot) > 0
            assert 0 < counts["stopped_at_cap"] < 25

    @pytest.mark.parametrize("policy", ["ensemble", "point"])
    def test_counts_describe_the_records(self, policy):
        """Snapshot 0 alone draws a marker token, and every other snapshot
        is forbidden it, so the records that start with the marker are
        those drawn from snapshot 0: as many as the counts give it."""
        import copy
        marked = copy.deepcopy(EVA)
        marker = 0
        for s, snap in enumerate(marked.reservoir):
            snap["theta"]["head"]["b"][marker] = 1e3 if s == 0 else -np.inf
        out = generate_cohort(marked, GenerationRequest(count=40, seed=3,
                                                        policy=policy))
        per_snapshot = out.extra["records_per_snapshot"]
        first = Counter(EVA.vocab.token_of(r.visits[0]) for r in out.records)
        assert first[marker] == per_snapshot[0]
        if policy == "ensemble":
            assert per_snapshot[0] > 0

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
