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

The spec stores each transition row as the builder draws it: one shared
probability over a home block (one of ``condition_groups``) plus a few
entries that override it or lie outside it, so it grows with G and not
with G^2. The cohort walk moves all records one step at a time in
whole-array steps: a step lays out the rows of the (component, group)
states first reached at it, a slab per home block, as CDFs in one flat
store, and draws every live record's successor in one binary search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BACKGROUND, Cohort, PatientRecord

_SLAB = 64  # rows the spec builder and the walk lay out at once


@dataclass
class ToyCorpusSpec:
    """Full generative description of the toy corpus.

    Row g of mixture component k's G x G transition matrix is
    ``home_prob[k, g]`` on every group of block ``home[k, g]`` (an index
    into ``condition_groups``; -1 for none), overwritten or added to by
    the groups ``entry_group[k, g]`` with probabilities
    ``entry_prob[k, g]``; -1 pads a row's entries, with probability 0. A
    general row is entries only. ``initial[k]`` is component k's start
    distribution; component order matches ``condition_names``
    (background last). Sequence lengths are uniform on [len_min,
    len_max].
    """

    n_records: int
    condition_names: list
    group_codes: tuple  # per group: sorted tuple of code strings
    condition_groups: tuple  # per condition: tuple of distinct group indices
    home: np.ndarray  # (K, G) int
    home_prob: np.ndarray  # (K, G)
    entry_group: np.ndarray  # (K, G, E) int
    entry_prob: np.ndarray  # (K, G, E)
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
    if (spec.home.shape != (K, G) or spec.home_prob.shape != (K, G)
            or spec.entry_group.ndim != 3 or spec.entry_group.shape[:2] != (K, G)
            or spec.entry_prob.shape != spec.entry_group.shape):
        raise ValueError("transition rows must have shapes (K, G) and (K, G, E)")
    if spec.initial.shape != (K, G):
        raise ValueError("initial must have shape (K, G)")
    if len(spec.condition_groups) != K:
        raise ValueError("condition_groups must hold one group block per condition")
    if not all(0 <= g < G for block in spec.condition_groups for g in block):
        raise ValueError("condition_groups must name groups 0 .. G - 1")
    if any(len(set(block)) < len(block) for block in spec.condition_groups):
        raise ValueError("a condition_groups block names a group twice")
    if (np.any((spec.home < -1) | (spec.home >= K))
            or np.any((spec.entry_group < -1) | (spec.entry_group >= G))):
        raise ValueError("home blocks and entry groups must be in range, or -1")
    by_group = np.sort(spec.entry_group, axis=2)
    if np.any((np.diff(by_group, axis=2) == 0) & (by_group[..., 1:] >= 0)):
        raise ValueError("a row's entries must name distinct groups")
    if np.any(spec.entry_prob[spec.entry_group < 0] != 0):
        raise ValueError("padding entries (group -1) must have probability 0")
    if min(spec.home_prob.min(), spec.entry_prob.min(initial=0.0),
           spec.initial.min()) < 0:
        raise ValueError("invalid stochastic matrix: negative entries")
    sizes = np.array([len(b) for b in spec.condition_groups] + [0])
    on_home = sizes[spec.home] - _inside_home(spec).sum(axis=2)
    row_sums = spec.home_prob * on_home + spec.entry_prob.sum(axis=2)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("invalid stochastic matrix: rows must sum to 1 within 1e-9")
    if np.max(np.abs(spec.initial.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("invalid stochastic matrix: initial rows must sum to 1 within 1e-9")
    w = spec.mixture_weights
    if np.shape(w) != (K,) or np.min(w) < 0 or abs(float(np.sum(w)) - 1.0) > 1e-9:
        raise ValueError("mixture_weights must be K non-negative weights summing to 1")
    if not (1 <= spec.len_min <= spec.len_max):
        raise ValueError("need 1 <= len_min <= len_max")
    if spec.n_records < 1:
        raise ValueError("n_records must be >= 1")


def _inside_home(spec):
    """(K, G, E) mask of the entries that lie in their row's home block."""
    # the extra row and column read home -1 and entry group -1: never inside
    member = np.zeros((spec.n_conditions + 1, spec.n_groups + 1), dtype=bool)
    for b, block in enumerate(spec.condition_groups):
        member[b, list(block)] = True
    return member[spec.home[..., None], spec.entry_group]


def _lay_out_rows(spec, cols, inside, k, g, p, ids):
    """Write rows g of components k, whose home block is the ascending
    ``cols``, into ``p`` and their successor groups into ``ids``, both
    (R, m + E) views; ``inside`` marks the rows' entries in the block.

    A row is its block share on ``cols`` with its in-block entries written
    over it, merged in ascending group order with its other entries; the
    padding and in-block entry slots end the row as zero columns.
    """
    G, E = spec.n_groups, spec.entry_group.shape[2]
    eg, ep = spec.entry_group[k, g], spec.entry_prob[k, g]
    out = np.where(inside | (eg < 0), G, eg)  # the outside entries; G sorts last
    order = out.argsort(axis=1)
    out, out_p = (np.take_along_axis(out, order, axis=1),
                  np.take_along_axis(np.where(out < G, ep, 0.0), order, axis=1))
    # an outside entry's column: the block groups below it plus its rank
    is_entry = np.zeros(p.shape, dtype=bool)
    np.put_along_axis(is_entry, cols.searchsorted(out) + np.arange(E), True, axis=1)
    p[:] = spec.home_prob[k, g][:, None]
    p[is_entry], ids[is_entry] = out_p.ravel(), np.minimum(out, G - 1).ravel()
    ids[~is_entry] = np.tile(cols, len(k))
    # an in-block entry's column: its block rank plus the outside entries below it
    r, e = inside.nonzero()
    at = cols.searchsorted(eg[r, e]) + (out[r] < eg[r, e, None]).sum(axis=1)
    p[r, at] = ep[r, e]


class _WalkCdfs:
    """The CDFs of the walk's visited (component, group) states, in one
    flat store.

    State k * (G + 1) + 1 + g is group g of component k; k * (G + 1) is its
    start. A built state's CDF is ``cdf[first[s]:]``, ``widths[home[s]]``
    long, over the successor groups in ``succ`` beside it. It is the plain
    cumulative sum of the row in ascending group order: a zero column adds
    an exact 0.0, so it equals the dense row's cumulative sum wherever the
    row is nonzero. Its last column is inf, so a uniform past the row's
    total takes group G - 1. The store grows in place (``resize``, a
    realloc), so it is never held twice; no view of it outlives a call.
    """

    def __init__(self, spec):
        K, G, E = spec.n_conditions, spec.n_groups, spec.entry_group.shape[2]
        self.spec, self.inside = spec, _inside_home(spec)
        # each state's home block: K for a start, -1 for a general row
        self.home = np.hstack([np.full((K, 1), K), spec.home]).ravel()
        # home block b's groups; K, a start row's (all); -1, a general row's
        self.cols = [np.array(sorted(set(b)), dtype=np.int32) for b in spec.condition_groups]
        self.cols += [np.arange(G, dtype=np.int32), np.arange(0, dtype=np.int32)]
        self.widths = np.array([c.size + E + 1 for c in self.cols])
        self.widths[K] = G + 1  # a start row is initial[k], with no entries
        self.first = np.full(K * (G + 1), -1)
        self.cdf, self.succ = np.empty(0), np.empty(0, dtype=np.int32)

    def _add(self, states):
        """Build the CDFs of ``states`` (distinct, none built yet), _SLAB
        rows of one home block at a time."""
        spec, K, G = self.spec, self.spec.n_conditions, self.spec.n_groups
        k, g = np.divmod(states, G + 1)
        g -= 1
        home, used = self.home[states], self.cdf.size
        self.cdf.resize(used + self.widths[home].sum(), refcheck=False)
        self.succ.resize(self.cdf.size, refcheck=False)
        for h in sorted(set(home.tolist())):
            at, w = np.flatnonzero(home == h), self.widths[h]
            for lo in range(0, at.size, _SLAB):
                rows = at[lo:lo + _SLAB]
                self.first[states[rows]] = used + w * np.arange(rows.size)
                cdf = self.cdf[used:used + w * rows.size].reshape(rows.size, w)
                succ = self.succ[used:used + w * rows.size].reshape(rows.size, w)
                if h == K:
                    cdf[:, :-1], succ[:, :-1] = spec.initial[k[rows]], self.cols[K]
                else:
                    _lay_out_rows(spec, self.cols[h], self.inside[k[rows], g[rows]],
                                  k[rows], g[rows], cdf[:, :-1], succ[:, :-1])
                np.cumsum(cdf[:, :-1], axis=1, out=cdf[:, :-1])
                cdf[:, -1], succ[:, -1] = np.inf, G - 1
                used += w * rows.size

    def draw(self, states, u):
        """Each state's successor group for its uniform: the group at
        ``searchsorted(cdf, u, side="right")`` on the state's CDF, for all
        states in one binary search."""
        reached = np.zeros(self.first.size, dtype=bool)
        reached[states] = True
        new = np.flatnonzero(reached & (self.first < 0))
        if new.size:
            self._add(new)
        lo, n = self.first[states], self.widths[self.home[states]]
        while (n > 1).any():  # the first column above u is in [lo, lo + n]
            half = n // 2
            lo += half * (self.cdf[lo + half] <= u)
            n -= half
        return self.succ[lo + (self.cdf[lo] <= u)]


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
    home = np.empty((K, G), dtype=np.intp)
    home_prob = np.empty((K, G))
    entry_group = np.full((K, G, 4), -1, dtype=np.intp)
    entry_prob = np.zeros((K, G, 4))
    initial = np.zeros((K, G))
    for k, own in enumerate(blocks + [bg_block]):
        home[k], home_prob[k] = k, 1.0 / len(own)  # by default, return home
        initial[k, own] = 1.0 / len(own)
        # sharp rows, on two own-block picks and two cross-block jumps, overwrite
        # that in ascending order (background first), as they draw from rng
        sharp = ([(K - 1, bg_block, own, 0.25), (k, own, bg_block, 0.10)]
                 if k < n_conditions else [(K - 1, bg_block, None, 0.0)])
        for b, block, cross, p_cross in sharp:
            draws = [(rng.choice(block, size=2, replace=False), None if cross is None
                      else rng.choice(cross, size=2, replace=False)) for _ in block]
            picks, p_picks = np.array([p for p, _ in draws]), [0.50, 0.20]
            if cross is not None:
                picks = np.hstack([picks, [j for _, j in draws]])
                p_picks += [p_cross / 2.0] * 2
            # with a block of two the picks overwrite this share, hence the max
            share = (1.0 - 0.70 - p_cross) / max(block.size - 2, 1)
            # each row is normalised by its sum over all G groups, zeros
            # included, as a dense row sums, so the stored values are the
            # dense row's bit for bit; _SLAB rows are laid out at a time
            sums = np.empty(block.size)
            for lo in range(0, block.size, _SLAB):
                rows = np.zeros((min(_SLAB, block.size - lo), G))
                rows[:, block] = share
                rows[np.arange(len(rows))[:, None], picks[lo:lo + _SLAB]] = p_picks
                sums[lo:lo + _SLAB] = rows.sum(axis=1)
            home[k, block], home_prob[k, block] = b, share / sums
            entry_group[k, block, :len(p_picks)] = picks
            entry_prob[k, block, :len(p_picks)] = np.array(p_picks) / sums[:, None]

    return ToyCorpusSpec(
        n_records=n_records, condition_names=condition_names,
        group_codes=group_codes, condition_groups=condition_groups,
        home=home, home_prob=home_prob, entry_group=entry_group,
        entry_prob=entry_prob, initial=initial,
        mixture_weights=np.full(K, 1.0 / K), len_min=len_min, len_max=len_max)


def simulate_toy_cohort(spec, seed):
    """Draw a cohort from the spec; byte-identical for identical seeds.

    Each record draws its mixture uniform, length and visit uniforms in
    turn; then all records walk together, a step at a time. A step builds
    the CDFs of the states first reached at it, a slab of rows per home
    block at once, and draws every live record's successor in one binary
    search over them (``_WalkCdfs``).
    """
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    K, G, N = spec.n_conditions, spec.n_groups, spec.n_records
    mix_u, lengths = np.empty(N), np.empty(N, dtype=np.intp)
    u = np.zeros((spec.len_max, N))
    for i in range(N):
        mix_u[i] = rng.random()
        T = lengths[i] = rng.integers(spec.len_min, spec.len_max + 1)
        u[:T, i] = rng.random(T)
    mix_cdf = np.cumsum(spec.mixture_weights)
    comps = np.minimum(mix_cdf.searchsorted(mix_u, side="right"), K - 1)

    cdfs, state = _WalkCdfs(spec), comps * (G + 1)
    groups = np.zeros((spec.len_max, N), dtype=np.intp)
    for t, (u_t, g_t) in enumerate(zip(u, groups)):
        live = np.flatnonzero(lengths > t)
        g_t[live] = cdfs.draw(state[live], u_t[live])
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
    """pi_t = initial P^t for t = 0 .. len_max - 1, as rows of a matrix.

    pi P spreads each home block's pi-weighted share over the block, then
    corrects at every entry: its probability in, the block share it
    replaces (if it lies in the block) out."""
    G, home, at = spec.n_groups, spec.home[k], spec.entry_group[k] >= 0
    inside = _inside_home(spec)[k]
    correction = spec.entry_prob[k] - spec.home_prob[k][:, None] * inside
    blocks = [np.array(b, dtype=np.intp) for b in spec.condition_groups]
    out = np.zeros((spec.len_max, G))
    pi = spec.initial[k].copy()
    for t in range(spec.len_max):
        out[t] = pi
        shares = np.bincount(home[home >= 0], minlength=len(blocks),
                             weights=(pi * spec.home_prob[k])[home >= 0])
        pi = np.bincount(spec.entry_group[k][at], minlength=G,
                         weights=(pi[:, None] * correction)[at])
        for block, share in zip(blocks, shares):
            pi[block] += share
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
