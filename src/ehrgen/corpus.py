"""Patient-record data model, visit vocabulary construction, and cohort files.

A visit is a set of clinical code strings. Preprocessing maps each visit to a
single categorical token: the most frequent code-sets form the vocabulary and
every out-of-vocabulary visit is replaced by its best-overlapping entry. Two
reserved tokens (EOS, PAD) sit after the data tokens so generation has a
stopping rule and batches can be padded.

Cohorts are stored as line-delimited JSON, one patient per line, with an
optional leading meta line; vocabularies likewise with a header line carrying
the format version and the reserved-token ids.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

Visit = frozenset  # set of code strings

COHORT_FORMAT_VERSION = 1
VOCAB_FORMAT_VERSION = 1


def visit_key(codes) -> tuple:
    """Canonical (sorted) code tuple for a visit; the dictionary key."""
    return tuple(sorted(codes))


@dataclass(frozen=True)
class PatientRecord:
    """One patient: an ordered visit sequence plus a binary condition vector."""

    id: str
    visits: tuple  # tuple of frozenset[str], length T >= 1
    conditions: tuple = ()  # binary, length K

    def __post_init__(self):
        if len(self.visits) < 1:
            raise ValueError(f"record {self.id!r} has no visits")
        for v in self.visits:
            if len(v) == 0:
                raise ValueError(f"record {self.id!r} contains an empty visit")


@dataclass(frozen=True)
class VocabEntry:
    codes: tuple  # sorted code tuple
    token_id: int
    frequency: int


class VisitVocab:
    """Bidirectional map between frequent code-sets and dense token ids.

    Data tokens occupy [0, n_entries); EOS and PAD follow at n_entries and
    n_entries + 1, so ids are dense in [0, size).
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        self._by_key = {e.codes: e.token_id for e in self.entries}
        for i, e in enumerate(self.entries):
            if e.token_id != i:
                raise ValueError("token ids must be dense and ordered")

    @property
    def n_entries(self):
        return len(self.entries)

    @property
    def eos_id(self):
        return len(self.entries)

    @property
    def pad_id(self):
        return len(self.entries) + 1

    @property
    def size(self):
        """Total token count including EOS and PAD."""
        return len(self.entries) + 2

    def token_of(self, visit):
        return self._by_key.get(visit_key(visit))

    def codes_of(self, token_id):
        return frozenset(self.entries[token_id].codes)

    def __contains__(self, visit):
        return visit_key(visit) in self._by_key

    def __eq__(self, other):
        return isinstance(other, VisitVocab) and self.entries == other.entries

    def __len__(self):
        return self.size


@dataclass
class Cohort:
    """A list of patient records plus the condition-name axis they share."""

    records: list
    condition_names: list = field(default_factory=list)
    vocab: VisitVocab | None = None

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


# ---------------------------------------------------------------------------
# vocabulary construction and rare-visit replacement
# ---------------------------------------------------------------------------

def build_visit_vocab(cohort, max_size):
    """Keep the ``max_size`` most frequent distinct code-sets.

    Ties in frequency break lexicographically on the sorted code tuple, so
    identical corpora always produce identical vocabularies.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    counts = Counter()
    for rec in cohort.records:
        for visit in rec.visits:
            counts[visit_key(visit)] += 1
    if not counts:
        raise ValueError("empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = [
        VocabEntry(codes=key, token_id=i, frequency=freq)
        for i, (key, freq) in enumerate(ranked[:max_size])
    ]
    return VisitVocab(entries)


def _best_replacement(visit, vocab):
    """In-vocab entry maximizing |intersection| with the visit.

    Ties break by larger Jaccard similarity, then higher frequency, then
    lexicographic order; a visit with zero overlap everywhere falls back to
    the most frequent entry.
    """
    codes = set(visit)
    best = None
    best_rank = None
    for e in vocab.entries:
        inter = len(codes.intersection(e.codes))
        if inter == 0:
            continue
        jac = inter / float(len(codes) + len(e.codes) - inter)
        rank = (-inter, -jac, -e.frequency, e.codes)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = e
    if best is None:
        # zero overlap everywhere: fall back to the most frequent entry
        best = min(vocab.entries, key=lambda e: (-e.frequency, e.codes))
    return frozenset(best.codes)


def replace_rare_visits(cohort, vocab):
    """Map every out-of-vocab visit to its best-matching vocabulary entry."""
    if vocab is None or vocab.n_entries == 0:
        raise ValueError("empty vocabulary")
    cache = {}
    new_records = []
    for rec in cohort.records:
        visits = []
        changed = False
        for visit in rec.visits:
            if visit in vocab:
                visits.append(visit)
                continue
            key = visit_key(visit)
            if key not in cache:
                cache[key] = _best_replacement(visit, vocab)
            visits.append(cache[key])
            changed = True
        if changed:
            new_records.append(replace(rec, visits=tuple(visits)))
        else:
            new_records.append(rec)
    return Cohort(
        records=new_records,
        condition_names=list(cohort.condition_names),
        vocab=vocab,
    )


# ---------------------------------------------------------------------------
# token encoding
# ---------------------------------------------------------------------------

@dataclass
class EncodedBatch:
    """Token matrix (N, t_max + 1) with EOS/PAD and a validity mask."""

    tokens: np.ndarray  # int64
    mask: np.ndarray  # float64, 1.0 on real steps including EOS
    conditions: np.ndarray  # float64 (N, K)

    def __len__(self):
        return self.tokens.shape[0]

    def take(self, idx):
        """Row subset (minibatch view); arrays are copies via fancy indexing."""
        idx = np.asarray(idx)
        return EncodedBatch(
            tokens=self.tokens[idx],
            mask=self.mask[idx],
            conditions=self.conditions[idx],
        )


def encode_cohort(cohort, vocab, t_max):
    """Encode each record as [token_1 .. token_T, EOS, PAD ...] of fixed width.

    Sequences longer than ``t_max`` are truncated; the mask marks real steps
    including the EOS slot.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    n = len(cohort.records)
    width = t_max + 1
    K = len(cohort.condition_names)
    tokens = np.full((n, width), vocab.pad_id, dtype=np.int64)
    mask = np.zeros((n, width))
    conds = np.zeros((n, K))
    for i, rec in enumerate(cohort.records):
        body = rec.visits[:t_max]
        for t, visit in enumerate(body):
            tok = vocab.token_of(visit)
            if tok is None:
                raise ValueError(
                    f"out-of-vocabulary visit in patient {rec.id!r}; "
                    "run replace_rare_visits first"
                )
            tokens[i, t] = tok
        tokens[i, len(body)] = vocab.eos_id
        mask[i, : len(body) + 1] = 1.0
        if rec.conditions:
            conds[i, : len(rec.conditions)] = rec.conditions
    return EncodedBatch(tokens=tokens, mask=mask, conditions=conds)


# ---------------------------------------------------------------------------
# file I/O (line-delimited JSON)
# ---------------------------------------------------------------------------

def save_cohort(path, cohort, meta=None):
    """One patient per line: {id, visits: [[code, ...], ...], conditions: [name, ...]}."""
    header = {
        "meta": {
            "format": "cohort",
            "version": COHORT_FORMAT_VERSION,
            "condition_names": list(cohort.condition_names),
            **(meta or {}),
        }
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in cohort.records:
            names = [
                cohort.condition_names[k]
                for k, on in enumerate(rec.conditions)
                if on
            ]
            row = {
                "id": rec.id,
                "visits": [sorted(v) for v in rec.visits],
                "conditions": names,
            }
            fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def reading(path, what, *errors):
    """Re-raise what a malformed file makes its reader raise, and any of
    ``errors``, as one ValueError that names ``path``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, *errors) as exc:
        raise ValueError(f"{path}: not a valid {what}: "
                         f"{type(exc).__name__}: {exc}") from exc


def load_cohort(path):
    """Read a cohort file; a malformed one raises ValueError naming it."""
    with reading(path, "cohort"), open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
        names = None
        if rows and "meta" in rows[0]:
            names = rows.pop(0)["meta"].get("condition_names")
        for row in rows:
            if not isinstance(row, dict) or not {"id", "visits"} <= set(row):
                raise ValueError("a record has no 'id' or 'visits'")
        if names is None:
            names = sorted({n for r in rows for n in r.get("conditions", [])})
        index = {name: k for k, name in enumerate(names)}
        out = []
        for row in rows:
            cond = [0] * len(names)
            for name in row.get("conditions", []):
                if name not in index:
                    raise ValueError(f"record {row['id']} names condition "
                                     f"{name!r}, not listed in the header")
                cond[index[name]] = 1
            out.append(PatientRecord(
                id=row["id"], conditions=tuple(cond),
                visits=tuple(frozenset(v) for v in row["visits"])))
        return Cohort(records=out, condition_names=list(names))


def save_vocab(path, vocab, meta=None):
    """Header line carries the version and reserved ids, then one entry per line."""
    header = {
        "format": "visit_vocab",
        "version": VOCAB_FORMAT_VERSION,
        "eos_id": vocab.eos_id,
        "pad_id": vocab.pad_id,
        **(meta or {}),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for e in vocab.entries:
            fh.write(
                json.dumps(
                    {
                        "token_id": e.token_id,
                        "codes": list(e.codes),
                        "frequency": e.frequency,
                    }
                )
                + "\n"
            )


def load_vocab(path):
    """Read a vocabulary file; a malformed one raises ValueError naming it."""
    with reading(path, "vocabulary"), open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
        if not rows:
            raise ValueError("empty vocabulary file")
        header = rows[0]
        if not isinstance(header, dict) or header.get("format") != "visit_vocab":
            raise ValueError("not a visit vocabulary file")
        vocab = VisitVocab([
            VocabEntry(codes=tuple(row["codes"]), token_id=int(row["token_id"]),
                       frequency=int(row["frequency"]))
            for row in rows[1:]])
        if vocab.eos_id != header["eos_id"] or vocab.pad_id != header["pad_id"]:
            raise ValueError("reserved-token ids disagree with entries")
        return vocab
