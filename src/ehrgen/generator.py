"""Synthetic-cohort generation from a trained model.

Records are generated by drawing one (theta, H) snapshot per record from the
posterior reservoir (ensemble policy) or reusing the last snapshot (point
policy), drawing latents from the prior, and ancestral-sampling tokens.
The records of every snapshot group are decoded in one position-by-position
loop, each group with its own snapshot's weights.

The random stream is, in order: the ensemble picks (the point policy draws
none); the latents of each group, in ascending snapshot order; then one
uniform per record still drawing at each step, the records ordered by
snapshot and then by index. So a request's t_max only stops the draws
early, under either policy: a capped cohort is the uncapped one truncated.

Each record has 1 to t_max visits (the model's t_max, or the request's when
smaller). The first visit is drawn with the end marker masked, so no record
comes back empty and no record is redrawn. The cohort's ``extra`` counts,
from the draws themselves, the records of each snapshot and how they ended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BACKGROUND, Cohort, PatientRecord
from .decoder import ancestral_sample
from .latent import GAMMA, TAU, sample_prior_eva, sample_prior_evac

POLICIES = ("ensemble", "point")


@dataclass(frozen=True)
class GenerationRequest:
    count: int
    conditions: tuple = ()  # names; evac models only
    t_max: int | None = None  # cap record length below the model maximum
    seed: int = 0
    policy: str = "ensemble"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.t_max is not None and self.t_max < 1:
            raise ValueError("t_max must be >= 1")


def condition_vector(model, names):
    """Binary y for the named conditions; the background coordinate, when
    the model has one, is always on."""
    index = {c: i for i, c in enumerate(model.condition_names)}
    y = np.zeros(len(model.condition_names))
    if BACKGROUND in index:
        y[index[BACKGROUND]] = 1.0
    for name in names:
        if name not in index:
            raise ValueError(f"unknown condition {name!r}")
        y[index[name]] = 1.0
    return y


def _draw_latents(model, snapshot, y, n, rng):
    if model.variant == "eva":
        return sample_prior_eva(model.train_config.latent_dim, rng, n)
    _, _, z = sample_prior_evac(snapshot["H"], np.tile(y, (n, 1)), GAMMA,
                                TAU, rng)
    return z


def generate_cohort(model, request):
    """Sample ``request.count`` records; returns a Cohort in the same shape
    the corpus loader produces, so it can replace real data downstream.
    Its ``extra`` counts the records drawn from each reservoir snapshot
    (``records_per_snapshot``) and those stopped at the length cap, the
    smaller of the request's and the model's t_max (``stopped_at_cap``),
    or by drawing the end marker (``stopped_at_eos``)."""
    if request.conditions and model.variant != "evac":
        raise ValueError("conditional generation requires evac")
    if not model.reservoir:
        raise ValueError("model has an empty posterior reservoir")
    vocab = model.vocab

    y = (condition_vector(model, request.conditions)
         if model.variant == "evac" else None)

    rng = np.random.default_rng(request.seed)
    n_snaps = len(model.reservoir)
    picks = (rng.integers(n_snaps, size=request.count)
             if request.policy == "ensemble"
             else np.full(request.count, n_snaps - 1))  # draws nothing
    snaps, sizes = np.unique(picks, return_counts=True)
    z = [_draw_latents(model, model.reservoir[s], y, n, rng)
         for s, n in zip(snaps, sizes)]
    sampled = ancestral_sample(
        [model.reservoir[s]["theta"] for s in snaps], model.dec_cfg, z, rng,
        eos_id=vocab.eos_id, forbid=(vocab.pad_id,), t_max=request.t_max)
    visits_out = [None] * request.count
    for row, toks in zip(np.argsort(picks, kind="stable"), sampled):
        visits_out[row] = toks

    conds = tuple(int(v) for v in y) if y is not None else ()
    records = [
        PatientRecord(
            id=f"g{i:06d}",
            visits=tuple(vocab.codes_of(t) for t in toks),
            conditions=conds,
        )
        for i, toks in enumerate(visits_out)
    ]
    cap = min(request.t_max or model.dec_cfg.t_max, model.dec_cfg.t_max)
    at_cap = sum(len(toks) == cap for toks in sampled)
    return Cohort(records=records,
                  condition_names=list(model.condition_names),
                  vocab=vocab,
                  extra={"records_per_snapshot":
                         np.bincount(picks, minlength=n_snaps).tolist(),
                         "stopped_at_cap": at_cap,
                         "stopped_at_eos": request.count - at_cap})


def generate_case_control(model, condition, n_case, n_control, seed):
    """Two cohorts: records conditioned on ``condition`` and background-only
    controls, with independent derived seeds."""
    if condition not in model.condition_names:
        raise ValueError(f"unknown condition {condition!r}")
    seeds = np.random.SeedSequence(seed).generate_state(2)
    empty = Cohort(records=[], condition_names=list(model.condition_names),
                   vocab=model.vocab)
    cases = empty
    if n_case > 0:
        cases = generate_cohort(model, GenerationRequest(
            count=n_case, conditions=(condition,), seed=int(seeds[0])))
    controls = empty
    if n_control > 0:
        controls = generate_cohort(model, GenerationRequest(
            count=n_control, seed=int(seeds[1])))
    return cases, controls
