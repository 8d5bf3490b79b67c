"""Ground-truth toy-corpus simulator for desk-scale experiments.

Each mixture component (one per condition, plus a background component) owns
a Markov transition matrix over "code groups"; a visit is the fixed code-set
of the group the chain currently occupies. Because visits map one-to-one to
groups, the corpus' unigram and bigram statistics follow in closed form from
the transition matrices, which makes the simulator its own oracle.

Condition-k patients start their chain inside condition k's dedicated group
block and keep returning to it, so conditioning signals are strong and easy
to audit. Every record carries the always-on background condition plus the
component that generated it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Cohort, PatientRecord

BACKGROUND = "background"


@dataclass
class ToyCorpusSpec:
    """Full generative description of the toy corpus.

    ``transition[k]`` is the G x G stochastic matrix of mixture component k,
    ``initial[k]`` its start distribution; component order matches
    ``condition_names`` (background last). Sequence lengths are uniform on
    [len_min, len_max].
    """

    n_records: int
    condition_names: list
    group_codes: tuple  # per group: sorted tuple of code strings
    condition_groups: tuple  # per condition: tuple of group indices
    transition: np.ndarray  # (K, G, G)
    initial: np.ndarray  # (K, G)
    mixture_weights: np.ndarray  # (K,)
    len_min: int = 6
    len_max: int = 16

    @property
    def n_groups(self):
        return len(self.group_codes)

    @property
    def n_conditions(self):
        return len(self.condition_names)


def _validate_spec(spec):
    K, G = spec.n_conditions, spec.n_groups
    if spec.transition.shape != (K, G, G):
        raise ValueError("transition must have shape (K, G, G)")
    if spec.initial.shape != (K, G):
        raise ValueError("initial must have shape (K, G)")
    if np.any(spec.transition < 0) or np.any(spec.initial < 0):
        raise ValueError("invalid stochastic matrix: negative entries")
    row_sums = spec.transition.sum(axis=2)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("invalid stochastic matrix: rows must sum to 1 within 1e-9")
    if np.max(np.abs(spec.initial.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("invalid stochastic matrix: initial rows must sum to 1 within 1e-9")
    if abs(float(spec.mixture_weights.sum()) - 1.0) > 1e-9:
        raise ValueError("mixture weights must sum to 1")
    if not (1 <= spec.len_min <= spec.len_max):
        raise ValueError("need 1 <= len_min <= len_max")
    if spec.n_records < 1:
        raise ValueError("n_records must be >= 1")


def default_toy_spec(
    n_records=2000,
    n_conditions=4,
    background_groups=20,
    groups_per_condition=20,
    len_min=6,
    len_max=16,
    structure_seed=7,
):
    """Desk-scale default: ~100 groups, 4 conditions + background, N=2000."""
    rng = np.random.default_rng(structure_seed)
    G = background_groups + n_conditions * groups_per_condition
    group_codes = tuple(
        tuple(f"C{g:03d}.{j}" for j in range(1 + g % 3)) for g in range(G)
    )
    bg_block = range(background_groups)
    blocks = [
        range(background_groups + k * groups_per_condition,
              background_groups + (k + 1) * groups_per_condition)
        for k in range(n_conditions)
    ]
    condition_names = [f"cond_{k}" for k in range(n_conditions)] + [BACKGROUND]
    condition_groups = tuple(tuple(b) for b in blocks + [bg_block])

    K = n_conditions + 1
    transition = np.zeros((K, G, G))
    initial = np.zeros((K, G))

    def sharp_row(own, cross, p_cross):
        """Row concentrated on two preferred own-block successors."""
        row = np.zeros(G)
        picks = rng.choice(own, size=2, replace=False)
        row[picks[0]] = 0.50
        row[picks[1]] = 0.20
        rest = np.setdiff1d(own, picks)
        if rest.size:
            row[rest] = (1.0 - 0.70 - p_cross) / rest.size
        if cross is not None and p_cross > 0:
            jumps = rng.choice(cross, size=2, replace=False)
            row[jumps] = p_cross / 2.0
        return row / row.sum()

    for k, own in enumerate(blocks + [bg_block]):
        transition[k, :, own] = 1.0 / len(own)  # by default, return home
        initial[k, own] = 1.0 / len(own)
        # sharp rows overwrite that in ascending order (background first),
        # the order in which they draw from rng
        sharp = ([(bg_block, own, 0.25), (own, bg_block, 0.10)]
                 if k < n_conditions else [(bg_block, None, 0.0)])
        for block, cross, p_cross in sharp:
            for g in block:
                transition[k, g] = sharp_row(block, cross, p_cross)

    weights = np.full(K, 1.0 / K)
    return ToyCorpusSpec(
        n_records=n_records,
        condition_names=condition_names,
        group_codes=group_codes,
        condition_groups=condition_groups,
        transition=transition,
        initial=initial,
        mixture_weights=weights,
        len_min=len_min,
        len_max=len_max,
    )


def simulate_toy_cohort(spec, seed):
    """Draw a cohort from the spec; byte-identical for identical seeds."""
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    K = spec.n_conditions
    bg_index = K - 1
    visit_sets = [frozenset(codes) for codes in spec.group_codes]
    trans_cdf = np.cumsum(spec.transition, axis=2)
    init_cdf = np.cumsum(spec.initial, axis=1)
    mix_cdf = np.cumsum(spec.mixture_weights)

    records = []
    for i in range(spec.n_records):
        comp = int(np.searchsorted(mix_cdf, rng.random(), side="right"))
        comp = min(comp, K - 1)
        T = int(rng.integers(spec.len_min, spec.len_max + 1))
        u = rng.random(T)
        G = spec.n_groups
        g = min(int(np.searchsorted(init_cdf[comp], u[0], side="right")), G - 1)
        groups = [g]
        for t in range(1, T):
            g = min(int(np.searchsorted(trans_cdf[comp, g], u[t], side="right")), G - 1)
            groups.append(g)
        cond = [0] * K
        cond[bg_index] = 1
        if comp != bg_index:
            cond[comp] = 1
        records.append(
            PatientRecord(
                id=f"p{i:06d}",
                visits=tuple(visit_sets[g] for g in groups),
                conditions=tuple(cond),
            )
        )
    return Cohort(records=records, condition_names=list(spec.condition_names))


def condition_codes(spec, name):
    """All codes belonging to a condition's dedicated group block."""
    k = spec.condition_names.index(name)
    codes = set()
    for g in spec.condition_groups[k]:
        codes.update(spec.group_codes[g])
    return frozenset(codes)


# ---------------------------------------------------------------------------
# closed-form corpus statistics (the simulator as its own oracle)
# ---------------------------------------------------------------------------

def _occupancies(spec, k):
    """pi_t = initial P^t for t = 0 .. len_max - 1, as rows of a matrix."""
    G = spec.n_groups
    out = np.zeros((spec.len_max, G))
    pi = spec.initial[k].copy()
    for t in range(spec.len_max):
        out[t] = pi
        pi = pi @ spec.transition[k]
    return out


def _length_tail(spec):
    """tail[t] = P(T > t) under the uniform length distribution."""
    lengths = np.arange(spec.len_min, spec.len_max + 1)
    p = np.full(lengths.size, 1.0 / lengths.size)
    tail = np.zeros(spec.len_max)
    for t in range(spec.len_max):
        tail[t] = p[lengths > t].sum()
    return tail


def analytic_group_unigram(spec):
    """Expected relative frequency of each group among all visits."""
    tail = _length_tail(spec)
    counts = np.zeros(spec.n_groups)
    for k in range(spec.n_conditions):
        occ = _occupancies(spec, k)
        counts += spec.mixture_weights[k] * (tail[:, None] * occ).sum(axis=0)
    return counts / counts.sum()
