"""The benchmark's workloads and the amount of work each run does.

Work is a function of the workload and ``--seconds`` only, never of the
clock, so call counts, work counts and fingerprints repeat from run to run
of the same seed. The base amounts below take roughly ``REFERENCE_SECONDS``
of measured time per workload on a 2-vCPU Xeon with one BLAS thread; other
run lengths scale the number of rounds.

A run repeats the whole pipeline in rounds: preprocess, train a fresh model
(same seed, so the same model each round), generate, and in some rounds
evaluate. The machine's speed switches between levels every few seconds,
so a run is many short rounds: each metric takes its samples from every
part of the run rather than from a few stretches of it, and sees every
level in about the share of time the run spent there.
Per-iteration training times are pooled over the rounds after each round's
warm-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from stats import samples_needed

REFERENCE_SECONDS = 30
MIN_TRAIN_ITERS = 10  # per round, whatever the number of rounds
WARMUP_ITERS = 1  # per-iteration times dropped from each round's training
TOPK = 5
KNOWN_PER_SIDE = 150  # presence-disclosure records known in and out of training
PREDICTOR_EPOCHS = 1  # the CLI trains eight; one keeps wide-eva inside a run

END_TO_END = (
    # name, unit; every workload reports each of them
    ("setup_s", "s"),
    ("preprocess_s", "s"),
    ("train_ms_per_iter", "ms"),
    ("train_ms_per_iter_p90", "ms"),
    ("generate_records_per_s", "1/s"),
    ("evaluate_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # keyword arguments of default_toy_spec
    max_vocab: int
    t_max: int
    variant: str
    case_control: bool  # generate_case_control, else unconditional cohorts
    test_frac: float  # held-out share of the real cohort
    rounds: int  # at REFERENCE_SECONDS
    preprocess_reps: int  # per round
    gen_count: int  # records per round
    eval_reps: int  # rounds that evaluate, spread over the run

    def plan(self, seconds):
        rounds = max(1, round(self.rounds * seconds / REFERENCE_SECONDS))
        return Plan(
            rounds=rounds,
            preprocess_reps=self.preprocess_reps,
            train_iters=max(MIN_TRAIN_ITERS, iters_per_round(rounds)),
            gen_count=self.gen_count,
            eval_reps=min(rounds, self.eval_reps),
        )


@dataclass(frozen=True)
class Plan:
    rounds: int
    preprocess_reps: int
    train_iters: int
    gen_count: int
    eval_reps: int

    def eval_rounds(self):
        """``eval_reps`` round indices spread evenly over the run."""
        step = self.rounds / self.eval_reps
        return sorted({int(step * (i + 0.5)) for i in range(self.eval_reps)})


def iters_per_round(rounds):
    """Iterations each round trains so that the pooled samples, after each
    round's warm-up and first stamp, satisfy the p90 rule."""
    return WARMUP_ITERS + 1 + math.ceil(samples_needed(0.9) / rounds)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="toy-evac",
        why=("acceptance-gate shapes with the condition hierarchy: three "
             "bi-LSTM experts and fixed per-iteration optimizer cost "
             "dominate; case/control generation at t_max 16"),
        spec={"n_records": 2000},
        max_vocab=128, t_max=16, variant="evac", case_control=True,
        test_frac=0.2,
        rounds=12, preprocess_reps=2, gen_count=150, eval_reps=3,
    ),
    Workload(
        name="long-eva",
        why=("records up to 64 visits: the conv decoder dominates training "
             "and generation is quadratic in ancestral_sample at t_max 64"),
        spec={"n_records": 2000, "len_max": 64},
        max_vocab=128, t_max=64, variant="eva", case_control=False,
        test_frac=0.2,
        rounds=8, preprocess_reps=1, gen_count=15, eval_reps=2,
    ),
    Workload(
        name="wide-eva",
        why=("about 2,000 visit types, 1,500 kept: rare-visit replacement, "
             "the V^2 bigram baseline and a V-wide softmax head dominate"),
        spec={"n_records": 4000, "background_groups": 400,
              "groups_per_condition": 400},
        max_vocab=1500, t_max=16, variant="eva", case_control=False,
        test_frac=0.05,
        rounds=5, preprocess_reps=1, gen_count=50, eval_reps=1,
    ),
)}
