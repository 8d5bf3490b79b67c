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

The spec's dense K x G x G transition table (160 MB at G = 2,000 and K = 5)
is the simulator's memory floor: the cohort walk, all records one step at a
time, adds only a cumulative row per visited (component, group) state.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if spec.transition.min() < 0 or spec.initial.min() < 0:
        raise ValueError("invalid stochastic matrix: negative entries")
    row_sums = spec.transition.sum(axis=2)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("invalid stochastic matrix: rows must sum to 1 within 1e-9")
    if np.max(np.abs(spec.initial.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("invalid stochastic matrix: initial rows must sum to 1 within 1e-9")
    w = spec.mixture_weights
    if np.shape(w) != (K,) or np.min(w) < 0 or abs(float(np.sum(w)) - 1.0) > 1e-9:
        raise ValueError("mixture_weights must be K non-negative weights summing to 1")
    if len(spec.condition_groups) != K:
        raise ValueError("condition_groups must hold one group block per condition")
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
    for name, size in [("background_groups", background_groups),
                       ("groups_per_condition", groups_per_condition)]:
        if size < 2:  # each sharp row picks two successors in its block
            raise ValueError(f"{name} must be >= 2, got {size}")
    rng = np.random.default_rng(structure_seed)
    G = background_groups + n_conditions * groups_per_condition
    group_codes = tuple(
        tuple(f"C{g:03d}.{j}" for j in range(1 + g % 3)) for g in range(G)
    )
    bg_block = np.arange(background_groups)
    blocks = [background_groups + k * groups_per_condition
              + np.arange(groups_per_condition) for k in range(n_conditions)]
    condition_names = [f"cond_{k}" for k in range(n_conditions)] + [BACKGROUND]
    condition_groups = tuple(tuple(b.tolist()) for b in blocks + [bg_block])

    K = n_conditions + 1
    transition = np.zeros((K, G, G))
    initial = np.zeros((K, G))
    for k, own in enumerate(blocks + [bg_block]):
        transition[k, :, own] = 1.0 / len(own)  # by default, return home
        initial[k, own] = 1.0 / len(own)
        # sharp rows, on two own-block picks and two cross-block jumps, overwrite
        # that in ascending order (background first), as they draw from rng
        sharp = ([(bg_block, own, 0.25), (own, bg_block, 0.10)]
                 if k < n_conditions else [(bg_block, None, 0.0)])
        for block, cross, p_cross in sharp:
            draws = [(rng.choice(block, size=2, replace=False), None if cross is None
                      else rng.choice(cross, size=2, replace=False)) for _ in block]
            rows, at = np.zeros((block.size, G)), np.arange(block.size)[:, None]
            # with a block of two the picks overwrite this share, hence the max
            rows[:, block] = (1.0 - 0.70 - p_cross) / max(block.size - 2, 1)
            rows[at, np.array([p for p, _ in draws])] = [0.50, 0.20]
            if cross is not None:
                rows[at, np.array([j for _, j in draws])] = p_cross / 2.0
            transition[k, block] = rows / rows.sum(axis=1, keepdims=True)

    return ToyCorpusSpec(
        n_records=n_records, condition_names=condition_names,
        group_codes=group_codes, condition_groups=condition_groups,
        transition=transition, initial=initial,
        mixture_weights=np.full(K, 1.0 / K), len_min=len_min, len_max=len_max)


def simulate_toy_cohort(spec, seed):
    """Draw a cohort from the spec; byte-identical for identical seeds.

    Each record draws its component, length and uniforms in turn; then all
    records walk together, a step at a time, and the records in one
    (component, group) state take one ``searchsorted`` on that state's CDF.
    The walk holds the CDFs of the visited states only, no (K, G, G) copy.
    """
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    K, G, N = spec.n_conditions, spec.n_groups, spec.n_records
    mix_cdf = np.cumsum(spec.mixture_weights)
    comps, lengths = np.empty(N, dtype=np.intp), np.empty(N, dtype=np.intp)
    u = np.zeros((spec.len_max, N))
    for i in range(N):
        comps[i] = min(np.searchsorted(mix_cdf, rng.random(), side="right"), K - 1)
        T = lengths[i] = rng.integers(spec.len_min, spec.len_max + 1)
        u[:T, i] = rng.random(T)

    # state k * (G + 1) + 1 + g is group g of component k; + 0 is its start
    state = comps * (G + 1)
    groups = np.zeros((spec.len_max, N), dtype=np.intp)
    cdfs = {}
    for t, (u_t, g_t) in enumerate(zip(u, groups)):
        live = np.flatnonzero(lengths > t)
        live = live[np.argsort(state[live])]
        keys, starts = np.unique(state[live], return_index=True)
        ends = starts[1:].tolist() + [live.size]
        for key, a, b in zip(keys.tolist(), starts.tolist(), ends):
            if key not in cdfs:  # a CDF over the nonzero entries only: equal to
                # the dense one there, exactly; a uniform past its end takes G - 1
                k, g = divmod(key, G + 1)
                p = spec.transition[k, g - 1] if g else spec.initial[k]
                support = p.nonzero()[0]
                cdfs[key] = p[support].cumsum(), np.append(support, G - 1)
            cdf, successors = cdfs[key]
            members = live[a:b]
            g_t[members] = successors[cdf.searchsorted(u_t[members], side="right")]
        state[live] = comps[live] * (G + 1) + 1 + g_t[live]

    visit_sets = [frozenset(codes) for codes in spec.group_codes]
    # background, and the component that drew the record
    conds = [tuple(int(j in (k, K - 1)) for j in range(K)) for k in range(K)]
    records = [PatientRecord(id=f"p{i:06d}", conditions=conds[k],
                             visits=tuple(visit_sets[g] for g in walk[:T]))
               for i, (k, T, walk) in enumerate(zip(
                   comps.tolist(), lengths.tolist(), groups.T.tolist()))]
    return Cohort(records=records, condition_names=list(spec.condition_names))


def condition_codes(spec, name):
    """All codes belonging to a condition's dedicated group block."""
    k = spec.condition_names.index(name)
    return frozenset(c for g in spec.condition_groups[k] for c in spec.group_codes[g])


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
    return np.array([p[lengths > t].sum() for t in range(spec.len_max)])


def analytic_group_unigram(spec):
    """Expected relative frequency of each group among all visits."""
    tail = _length_tail(spec)
    counts = np.zeros(spec.n_groups)
    for k in range(spec.n_conditions):
        occ = _occupancies(spec, k)
        counts += spec.mixture_weights[k] * (tail[:, None] * occ).sum(axis=0)
    return counts / counts.sum()
