"""Toy-corpus simulator: determinism, structural guarantees, analytic statistics.

The simulator doubles as the ground-truth oracle for the end-to-end
acceptance runs, so its own closed-form unigram/bigram statistics are
checked here against empirical counts from a large sample.
"""

import tracemalloc

import numpy as np
import pytest

from ehrgen.corpus import visit_key
from ehrgen.simulate import (
    ToyCorpusSpec,
    _WalkCdfs,
    analytic_group_unigram,
    condition_codes,
    default_toy_spec,
    simulate_toy_cohort,
)

from oracles import (analytic_group_bigram, dense_group_unigram,
                     dense_transition, looped_toy_cohort,
                     looped_toy_transitions)

TWO_GROUP_TRANSITION = np.array([[[0.9, 0.1], [0.4, 0.6]]])


def two_group_spec(n_records=500, len_min=4, len_max=4):
    """Hand-solvable 2-group, background-only chain; its rows are entries
    only, with no home block."""
    initial = np.array([[1.0, 0.0]])
    return ToyCorpusSpec(
        n_records=n_records,
        condition_names=["background"],
        group_codes=(("g0.a",), ("g1.a", "g1.b")),
        condition_groups=((0, 1),),
        home=np.full((1, 2), -1),
        home_prob=np.zeros((1, 2)),
        entry_group=np.array([[[0, 1], [0, 1]]]),
        entry_prob=TWO_GROUP_TRANSITION.copy(),
        initial=initial,
        mixture_weights=np.array([1.0]),
        len_min=len_min,
        len_max=len_max,
    )


def mixed_rows_spec(n_records=300):
    """Hand-built 6-group spec whose component 0 mixes home rows, given an
    unsorted block, with general (home -1) rows: row 0 removes block member
    2 with an entry of probability 0 and jumps to groups 0 and 5 outside its
    block; row 2 overrides a member; row 5 jumps to group 2, which lies
    between its block's groups; background row 0 has an outside entry of
    probability 0."""
    third = 1.0 / 3.0
    entries = [  # (home, home_prob, [(group, probability), ...]) per row
        [(0, 0.3, [(2, 0.0), (5, 0.2), (0, 0.2)]), (-1, 0.0, [(4, 0.5), (1, 0.5)]),
         (1, 0.25, [(5, 0.5)]), (0, third, []), (-1, 0.0, [(3, 1.0)]),
         (1, 0.2, [(2, 0.4)])],
        [(1, third, [(3, 0.0)])] + [(1, third, [])] * 5,
    ]
    home, home_prob = np.full((2, 6), -1), np.zeros((2, 6))
    entry_group, entry_prob = np.full((2, 6, 3), -1), np.zeros((2, 6, 3))
    for k, rows in enumerate(entries):
        for g, (h, share, row) in enumerate(rows):
            home[k, g], home_prob[k, g] = h, share
            for e, (j, q) in enumerate(row):
                entry_group[k, g, e], entry_prob[k, g, e] = j, q
    return ToyCorpusSpec(
        n_records=n_records, condition_names=["cond_0", "background"],
        group_codes=tuple((f"g{g}",) for g in range(6)),
        condition_groups=((3, 1, 2), (0, 4, 5)),
        home=home, home_prob=home_prob, entry_group=entry_group,
        entry_prob=entry_prob,
        initial=np.array([[0.0, 0.5, 0.0, 0.5, 0.0, 0.0],
                          [0.5, 0.0, 0.0, 0.0, 0.25, 0.25]]),
        mixture_weights=np.array([0.5, 0.5]), len_min=3, len_max=8)


class TestSpecValidation:
    def test_rows_must_be_stochastic(self):
        spec = two_group_spec()
        spec.entry_prob = np.array([[[0.9, 0.2], [0.4, 0.6]]])
        with pytest.raises(ValueError, match="sum to 1"):
            simulate_toy_cohort(spec, seed=0)

    def test_block_rows_must_be_stochastic(self):
        """A row's sum counts its home share once per block group that no
        entry overrides."""
        spec = default_toy_spec(n_records=20, n_conditions=1,
                                background_groups=3, groups_per_condition=3)
        spec.home_prob = spec.home_prob * 1.01
        with pytest.raises(ValueError, match="sum to 1"):
            simulate_toy_cohort(spec, seed=0)

    @pytest.mark.parametrize("field, at, value, match", [
        ("home", (0, 0), 2, "in range"),
        ("home", (0, 0), -2, "in range"),
        ("entry_group", (0, 0, 0), 2, "in range"),
        ("entry_group", (0, 0, 1), 0, "distinct"),
        ("entry_prob", (0, 0, 1), -0.1, "negative"),
    ], ids=["home-past-blocks", "home-below-none", "entry-past-groups",
            "repeated-entry", "negative-entry"])
    def test_bad_rows_rejected(self, field, at, value, match):
        spec = two_group_spec()
        getattr(spec, field)[at] = value
        with pytest.raises(ValueError, match=match):
            simulate_toy_cohort(spec, seed=0)

    def test_padding_carries_no_probability(self):
        spec = two_group_spec()
        spec.entry_group = np.array([[[0, 1, -1], [0, 1, -1]]])
        spec.entry_prob = np.array([[[0.9, 0.1, 0.0], [0.4, 0.5, 0.1]]])
        with pytest.raises(ValueError, match="padding"):
            simulate_toy_cohort(spec, seed=0)

    def test_padded_rows_draw_the_unpadded_cohort(self):
        spec, padded = two_group_spec(), two_group_spec()
        padded.entry_group = np.array([[[-1, 0, 1], [1, -1, 0]]])
        padded.entry_prob = np.array([[[0.0, 0.9, 0.1], [0.6, 0.0, 0.4]]])
        assert [r.visits for r in simulate_toy_cohort(padded, 3).records] == \
            [r.visits for r in simulate_toy_cohort(spec, 3).records]

    def test_negative_entries_rejected(self):
        spec = two_group_spec()
        spec.initial = np.array([[1.5, -0.5]])
        with pytest.raises(ValueError, match="negative"):
            simulate_toy_cohort(spec, seed=0)

    def test_length_bounds(self):
        spec = two_group_spec()
        spec.len_min = 0
        with pytest.raises(ValueError):
            simulate_toy_cohort(spec, seed=0)

    def test_shape_mismatch(self):
        spec = two_group_spec()
        spec.initial = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="shape"):
            simulate_toy_cohort(spec, seed=0)


    @pytest.mark.parametrize("weights", [[1.5, -0.5], [1.0], [0.5, 0.25, 0.25]],
                             ids=["negative", "too-few", "too-many"])
    def test_bad_mixture_weights_rejected(self, weights):
        """Negative weights, or weights not one per component, are refused
        rather than silently drawing a skewed mixture."""
        spec = default_toy_spec(n_records=20, n_conditions=1,
                                background_groups=2, groups_per_condition=2)
        spec.mixture_weights = np.array(weights)
        with pytest.raises(ValueError, match="mixture_weights"):
            simulate_toy_cohort(spec, seed=0)

    def test_condition_groups_one_block_per_condition(self):
        spec = default_toy_spec(n_records=20, n_conditions=1,
                                background_groups=2, groups_per_condition=2)
        spec.condition_groups = spec.condition_groups[:1]
        with pytest.raises(ValueError, match="condition_groups"):
            simulate_toy_cohort(spec, seed=0)


class TestDraws:
    def test_same_seed_same_cohort(self):
        spec = default_toy_spec(n_records=30)
        a = simulate_toy_cohort(spec, seed=5)
        b = simulate_toy_cohort(spec, seed=5)
        assert [r.visits for r in a.records] == [r.visits for r in b.records]
        assert [r.conditions for r in a.records] == [r.conditions for r in b.records]

    def test_different_seed_differs(self):
        spec = default_toy_spec(n_records=30)
        a = simulate_toy_cohort(spec, seed=5)
        b = simulate_toy_cohort(spec, seed=6)
        assert [r.visits for r in a.records] != [r.visits for r in b.records]

    def test_lengths_respect_bounds(self):
        spec = default_toy_spec(n_records=200, len_min=3, len_max=7)
        cohort = simulate_toy_cohort(spec, seed=1)
        lengths = [len(r.visits) for r in cohort.records]
        assert min(lengths) >= 3 and max(lengths) <= 7
        assert len(set(lengths)) > 1  # actually varies

    def test_background_flag_always_set(self):
        spec = default_toy_spec(n_records=100)
        cohort = simulate_toy_cohort(spec, seed=2)
        bg = cohort.condition_names.index("background")
        assert all(r.conditions[bg] == 1 for r in cohort.records)

    def test_conditioned_records_visit_their_block(self):
        """A record carrying condition k must start inside k's code group."""
        spec = default_toy_spec(n_records=300)
        cohort = simulate_toy_cohort(spec, seed=3)
        for k, name in enumerate(spec.condition_names[:-1]):
            block = condition_codes(spec, name)
            for rec in cohort.records:
                if rec.conditions[k] == 1:
                    assert rec.visits[0] <= block

    def test_every_visit_is_a_group(self):
        spec = default_toy_spec(n_records=50)
        cohort = simulate_toy_cohort(spec, seed=4)
        group_keys = {visit_key(codes) for codes in spec.group_codes}
        for rec in cohort.records:
            for v in rec.visits:
                assert visit_key(v) in group_keys


class TestStepWalk:
    """All records walking together, one step at a time, draw the cohort that
    walking each record to its end draws."""

    @pytest.mark.parametrize("make, seed", [
        (lambda: default_toy_spec(), 1),
        (lambda: default_toy_spec(), 2),
        (lambda: default_toy_spec(background_groups=100, groups_per_condition=100), 3),
        (lambda: default_toy_spec(len_max=64), 4),
        (lambda: two_group_spec(), 5),
        (lambda: default_toy_spec(len_min=1, len_max=1), 6),
        (lambda: default_toy_spec(n_records=1), 7),
        (lambda: default_toy_spec(n_records=300, background_groups=400,
                                  groups_per_condition=400), 11),
        (lambda: default_toy_spec(n_records=300, background_groups=400,
                                  groups_per_condition=400), 12),
        (lambda: mixed_rows_spec(), 13),
    ], ids=["default-1", "default-2", "100-groups", "len-max-64", "two-group",
            "one-visit", "one-record", "wide-11", "wide-12", "mixed-rows"])
    def test_matches_looped_walk(self, make, seed):
        spec = make()
        got, want = simulate_toy_cohort(spec, seed), looped_toy_cohort(spec, seed)
        assert got.condition_names == want.condition_names
        assert [(r.id, r.visits, r.conditions) for r in got.records] == \
            [(r.id, r.visits, r.conditions) for r in want.records]

    @pytest.mark.parametrize("make", [mixed_rows_spec, two_group_spec,
                                      lambda: default_toy_spec(n_records=1)],
                             ids=["mixed-rows", "two-group", "default"])
    def test_draw_is_searchsorted_on_the_dense_row(self, make):
        """Every state's draw, for uniforms at 0, at and around each
        cumulative value, and at and past the row's total, is the dense
        row's ``searchsorted(side="right")``, capped at group G - 1."""
        spec = make()
        K, G = spec.n_conditions, spec.n_groups
        dense = np.concatenate([spec.initial[:, None], dense_transition(spec)], axis=1)
        cdfs = np.cumsum(dense, axis=2).reshape(K * (G + 1), G)
        us = [np.concatenate([c, np.nextafter(c, 0), np.nextafter(c, 2), [0.0, 1.0, 2.0]])
              for c in cdfs]
        want = [np.minimum(c.searchsorted(u, side="right"), G - 1) for c, u in zip(cdfs, us)]
        states = np.repeat(np.arange(K * (G + 1)), [u.size for u in us])
        got = _WalkCdfs(spec).draw(states, np.concatenate(us))
        np.testing.assert_array_equal(got, np.concatenate(want))

    def test_spec_and_walk_hold_no_dense_table(self):
        """Building the spec and walking it, at 400 groups per block (the
        benchmark's wide shape), peaks below a twentieth of the dense
        (K, G, G) float64 table: neither holds that table, nor one G x G
        slice of it. The walk keeps each visited state's CDF, over its
        block and entries only, and its successor ids in one flat store
        until it ends, so the cohort is kept small."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            spec = default_toy_spec(n_records=50, background_groups=400,
                                    groups_per_condition=400)
            simulate_toy_cohort(spec, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        K, G = spec.n_conditions, spec.n_groups
        assert peak < K * G * G * 8 / 20


class TestAnalyticStatistics:
    """The closed-form statistics must agree with large-sample counts."""

    def test_unigram_matches_empirical(self):
        spec = two_group_spec(n_records=20000)
        cohort = simulate_toy_cohort(spec, seed=9)
        counts = np.zeros(2)
        key_to_g = {visit_key(c): g for g, c in enumerate(spec.group_codes)}
        for rec in cohort.records:
            for v in rec.visits:
                counts[key_to_g[visit_key(v)]] += 1
        empirical = counts / counts.sum()
        np.testing.assert_allclose(analytic_group_unigram(spec), empirical, atol=0.01)

    def test_unigram_hand_value_fixed_length(self):
        # occupancies for P=[[.9,.1],[.4,.6]], pi0=(1,0), T=4:
        # t0 (1, 0); t1 (.9, .1); t2 (.85, .15); t3 (.825, .175)
        # average over 4 steps = (.89375, .10625)
        spec = two_group_spec()
        np.testing.assert_allclose(
            analytic_group_unigram(spec), [0.89375, 0.10625], rtol=1e-12
        )

    def test_bigram_matches_empirical(self):
        spec = two_group_spec(n_records=20000, len_min=2, len_max=5)
        cohort = simulate_toy_cohort(spec, seed=10)
        counts = np.zeros((2, 2))
        key_to_g = {visit_key(c): g for g, c in enumerate(spec.group_codes)}
        for rec in cohort.records:
            gs = [key_to_g[visit_key(v)] for v in rec.visits]
            for a, b in zip(gs, gs[1:]):
                counts[a, b] += 1
        empirical = counts / counts.sum()
        np.testing.assert_allclose(analytic_group_bigram(spec), empirical, atol=0.01)

    def test_bigram_rows_follow_transition(self):
        """bigram(g, .) normalised over successors equals the transition row."""
        spec = two_group_spec()
        big = analytic_group_bigram(spec)
        np.testing.assert_allclose(
            big[0] / big[0].sum(), TWO_GROUP_TRANSITION[0, 0], rtol=1e-12
        )
        np.testing.assert_allclose(
            big[1] / big[1].sum(), TWO_GROUP_TRANSITION[0, 1], rtol=1e-12
        )

    def test_distributions_normalised(self):
        spec = default_toy_spec(n_records=10)
        assert np.isclose(analytic_group_unigram(spec).sum(), 1.0)
        assert np.isclose(analytic_group_bigram(spec).sum(), 1.0)


class TestDefaultSpec:
    def test_shape_of_default(self):
        spec = default_toy_spec(n_records=2000)
        assert spec.n_conditions == 5  # 4 named + background
        assert spec.condition_names[-1] == "background"
        assert spec.n_groups == 20 + 4 * 20
        assert len(condition_codes(spec, "cond_2")) > 0

    def test_condition_codes_unknown_name(self):
        spec = default_toy_spec(n_records=10)
        with pytest.raises(ValueError):
            condition_codes(spec, "nope")

    # every shape the tests pass to default_toy_spec (n_records and the
    # lengths aside, which the rows do not depend on)
    SHAPES = [
        {},
        {"background_groups": 100, "groups_per_condition": 100},
        {"n_conditions": 2, "background_groups": 7,
         "groups_per_condition": 5, "structure_seed": 3},
        {"background_groups": 120, "groups_per_condition": 120},
        {"background_groups": 3, "groups_per_condition": 2},
        {"n_conditions": 1, "background_groups": 2, "groups_per_condition": 2},
        {"n_conditions": 3, "background_groups": 4, "groups_per_condition": 5},
        {"n_conditions": 1, "background_groups": 3, "groups_per_condition": 3},
        {"background_groups": 6, "groups_per_condition": 4},
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_looped_builder(self, shape):
        """The block-sliced builder draws the same rows from the same rng
        stream as the row-by-row reference, and its compact rows stand for
        that reference's dense table bit for bit."""
        spec = default_toy_spec(**shape)
        transition, initial = looped_toy_transitions(**shape)
        np.testing.assert_array_equal(dense_transition(spec), transition)
        np.testing.assert_array_equal(spec.initial, initial)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_unigram_matches_dense_oracle(self, shape):
        """Block shares plus entry corrections give the dense pi P."""
        spec = default_toy_spec(**shape, len_max=24)
        np.testing.assert_allclose(analytic_group_unigram(spec),
                                   dense_group_unigram(spec), rtol=1e-12)

    def test_hand_built_rows_are_their_table(self):
        spec = two_group_spec()
        np.testing.assert_array_equal(dense_transition(spec),
                                      TWO_GROUP_TRANSITION)
        np.testing.assert_allclose(analytic_group_unigram(spec),
                                   dense_group_unigram(spec), rtol=1e-12)

    @pytest.mark.parametrize("arg, size", [("background_groups", 1),
                                           ("background_groups", 0),
                                           ("groups_per_condition", 1)])
    def test_blocks_below_two_groups_rejected(self, arg, size):
        """Each sharp row picks two successors in its block."""
        with pytest.raises(ValueError, match=arg):
            default_toy_spec(**{arg: size})

    def test_blocks_partition_the_groups(self):
        spec = default_toy_spec(n_conditions=3, background_groups=4,
                                groups_per_condition=5)
        assert spec.condition_groups[-1] == tuple(range(4))
        assert spec.condition_groups[0] == tuple(range(4, 9))
        assert sorted(g for b in spec.condition_groups for g in b) == \
            list(range(spec.n_groups))
