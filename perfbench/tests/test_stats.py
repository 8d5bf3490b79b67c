import pytest

import hostspeed
from hostspeed import NOMINAL_S
from stats import samples_needed, tail_percentile
from workloads import WARMUP_ITERS, WORKLOADS, Plan, iters_per_round


def test_p90_of_100_samples_leaves_exactly_ten_beyond():
    samples = list(range(100, 0, -1))  # order must not matter
    assert tail_percentile(samples, 0.9) == 90


def test_p90_refused_with_fewer_than_ten_beyond():
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(range(1, 100), 0.9)


def test_higher_percentiles_need_more_samples():
    assert samples_needed(0.9) == 100
    assert samples_needed(0.99) == 1000
    assert tail_percentile(range(1, 1001), 0.99) == 990
    with pytest.raises(ValueError):
        tail_percentile(range(1, 1000), 0.99)


def test_rank_is_nearest_rank_not_interpolated():
    samples = [float(i) for i in range(1, 106)]  # 105 samples
    # ceil(0.9 * 105) = 95, so the 95th smallest value, 10 beyond
    assert tail_percentile(samples, 0.9) == 95.0


@pytest.mark.parametrize("seconds", [1, 10, 30, 45, 60])
def test_every_plan_trains_long_enough_for_p90(seconds):
    for workload in WORKLOADS.values():
        plan = workload.plan(seconds)
        # each round drops its warm-up and its first stamp
        pooled = plan.rounds * (plan.train_iters - WARMUP_ITERS - 1)
        assert pooled >= samples_needed(0.9)
        tail_percentile(range(pooled), 0.9)


def test_iters_per_round_is_the_smallest_that_suffices():
    for rounds in (1, 2, 3, 7):
        n = iters_per_round(rounds)
        assert rounds * (n - WARMUP_ITERS - 1) >= 100
        assert rounds * (n - 1 - WARMUP_ITERS - 1) < 100


@pytest.mark.parametrize("rounds,reps,expected", [
    (3, 1, [1]), (3, 2, [0, 2]), (3, 3, [0, 1, 2]), (6, 2, [1, 4]),
    (1, 1, [0])])
def test_evaluation_rounds_spread_over_the_run(rounds, reps, expected):
    plan = Plan(rounds=rounds, preprocess_reps=1, train_iters=40,
                gen_count=1, eval_reps=reps)
    assert plan.eval_rounds() == expected


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5])
def test_quantile_outside_open_interval_rejected(q):
    with pytest.raises(ValueError):
        tail_percentile(range(1000), q)


def test_host_speed_scale_is_nominal_over_mean_probe():
    assert hostspeed.scale(NOMINAL_S, NOMINAL_S) == pytest.approx(1.0)
    # a host twice as slow as nominal halves every wall time
    assert hostspeed.scale(NOMINAL_S, 3 * NOMINAL_S) == pytest.approx(0.5)
    assert hostspeed.scale(*[2 * NOMINAL_S] * 3) == pytest.approx(0.5)
