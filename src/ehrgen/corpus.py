"""Patient-record data model, visit vocabulary construction, and cohort files.

A visit is a set of clinical code strings. Preprocessing maps each visit to a
single categorical token: the most frequent code-sets form the vocabulary and
every out-of-vocabulary visit is replaced by the entry sharing the most codes
with it (ties: larger Jaccard similarity, higher frequency, then the codes; no
shared code: the most frequent entry). Only the entries on the visit's codes'
postings (a code -> entries index built once per call) are ranked, and the
fallback is found once per call, so a rare visit costs its codes' postings,
not the vocabulary size; the replacement counts what it replaced in the
cohort's ``extra``. Two reserved tokens (EOS, PAD) sit after the data
tokens so generation has a stopping rule and batches can be padded. Visits
become token ids in one place, ``token_ids``, whose flat id array the padded
training matrix and the n-gram statistics read; an out-of-vocabulary visit
fails there, with one message.

Cohorts are stored as line-delimited JSON, one patient per line, after an
optional meta line: the condition names, the cohort's ``extra`` (never read
back), and a preprocessed or generated cohort's vocabulary, as the rows
``VisitVocab.rows`` gives and a checkpoint stores; a raw cohort has none.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

Visit = frozenset  # set of code strings
BACKGROUND = "background"  # the always-on condition of the toy corpus

COHORT_FORMAT_VERSION = 1


def visit_key(codes) -> tuple:
    """Canonical (sorted) code tuple for a visit, as built entries store it."""
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
    """Bidirectional map between frequent code-sets and dense token ids;
    lookups take any iterable of codes and match it as a set.

    Data tokens occupy [0, n_entries); EOS and PAD follow at n_entries and
    n_entries + 1, so ids are dense in [0, size).
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        self._codesets = tuple(frozenset(e.codes) for e in self.entries)
        self._by_key = {}
        for i, (e, key) in enumerate(zip(self.entries, self._codesets)):
            if e.token_id != i:
                raise ValueError("token ids must be dense and ordered")
            if not key or len(key) < len(e.codes):
                raise ValueError(f"entry {i} has no codes or a repeated code")
            self._by_key[key] = i
        if len(self._by_key) < len(self.entries):
            raise ValueError("two entries have the same code-set")

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
        return self._by_key.get(frozenset(visit))

    def codes_of(self, token_id):
        return self._codesets[token_id]

    def __contains__(self, visit):
        return frozenset(visit) in self._by_key

    def __eq__(self, other):
        return isinstance(other, VisitVocab) and self.entries == other.entries

    def rows(self):
        """The entries as JSON rows in token order, ``{"codes", "frequency"}``:
        what a cohort's meta line and a checkpoint store."""
        return [{"codes": list(e.codes), "frequency": e.frequency}
                for e in self.entries]

    @classmethod
    def from_rows(cls, rows):
        """The vocabulary whose ``rows()`` are ``rows``."""
        if not rows:
            raise ValueError("empty vocabulary")
        if not all(_strings(row["codes"]) for row in rows):
            raise TypeError("a row's codes is not a list of strings")
        return cls([VocabEntry(codes=tuple(row["codes"]), token_id=i,
                               frequency=int(row["frequency"]))
                    for i, row in enumerate(rows)])


@dataclass
class Cohort:
    """Patient records, the condition-name axis they share, and in ``extra``
    what the call that returned them reports (empty once loaded or derived)."""

    records: list
    condition_names: list = field(default_factory=list)
    vocab: VisitVocab | None = None
    extra: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.records)


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
    counts = Counter(map(frozenset, chain.from_iterable(
        rec.visits for rec in cohort.records)))
    if not counts:
        raise ValueError("empty corpus")
    ranked = sorted(((visit_key(v), n) for v, n in counts.items()),
                    key=lambda kv: (-kv[1], kv[0]))
    entries = [
        VocabEntry(codes=key, token_id=i, frequency=freq)
        for i, (key, freq) in enumerate(ranked[:max_size])
    ]
    return VisitVocab(entries)


def replace_rare_visits(cohort, vocab):
    """Map every out-of-vocab visit to its best-matching vocabulary entry.

    An entry sharing ``inter`` codes with the visit ranks by
    ``(-inter, -jaccard, -frequency, codes)``, lowest first; a visit that
    shares no code with any entry takes the most frequent one. The result's
    ``extra`` counts the ``replaced_visits``, the ``records_touched`` and
    the ``zero_overlap_visits`` (replaced by an entry sharing no code), and
    gives their ``replacement_jaccard_mean`` (None when there are none).
    Each record's visits are looked up in one C-level pass; a record with
    none rare is kept as it is, and only the others run a loop per visit.
    """
    if vocab is None or vocab.n_entries == 0:
        raise ValueError("empty vocabulary")
    entries = vocab.entries
    postings = {}  # code -> ids of the entries holding it
    for e in entries:
        for code in e.codes:
            postings.setdefault(code, []).append(e.token_id)
    fallback = min(entries, key=lambda e: (-e.frequency, e.codes)).token_id

    def best(codes):  # codes: a rare visit's frozenset
        shared = Counter(chain.from_iterable(postings.get(c, ()) for c in codes))
        inter = max(shared.values(), default=0)

        def rank(i):  # the rank of entry i, less its first part: -inter
            e = entries[i]
            jac = inter / float(len(codes) + len(e.codes) - inter)
            return (-jac, -e.frequency, e.codes)

        i = min((i for i, n in shared.items() if n == inter), key=rank,
                default=fallback)
        e = entries[i]  # its Jaccard as in rank; inter is 0 for the fallback
        return frozenset(e.codes), inter / (len(codes) + len(e.codes) - inter)

    known = vocab._by_key.__contains__
    cache = {}  # rare visit -> (its replacement, their Jaccard similarity)
    new_records, jaccard, touched = [], [], 0
    for rec in cohort.records:
        if all(map(known, map(frozenset, rec.visits))):
            new_records.append(rec)
            continue
        visits = []
        for visit in map(frozenset, rec.visits):
            if not known(visit):
                if visit not in cache:
                    cache[visit] = best(visit)
                visit, jac = cache[visit]
                jaccard.append(jac)
            visits.append(visit)
        touched += 1
        new_records.append(PatientRecord(rec.id, tuple(visits), rec.conditions))
    return Cohort(
        records=new_records,
        condition_names=list(cohort.condition_names),
        vocab=vocab,
        extra={"replaced_visits": len(jaccard), "records_touched": touched,
               "zero_overlap_visits": jaccard.count(0.0),
               "replacement_jaccard_mean":
                   sum(jaccard) / len(jaccard) if jaccard else None},
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


def token_ids(cohort, vocab):
    """(ids, lengths): every visit's token id, record after record, as one
    flat int64 array, and each record's visit count. An out-of-vocabulary
    visit raises a ValueError that names its record. Each record costs one
    Python step; its visits are looked up in a C-level pass."""
    records = cohort.records
    lengths = np.fromiter(map(len, (rec.visits for rec in records)), np.int64,
                          len(records))
    ids = np.fromiter(map(vocab._by_key.get, map(frozenset, chain.from_iterable(
        rec.visits for rec in records)), repeat(-1)), np.int64, lengths.sum())
    if (ids < 0).any():
        rec = next(r for r in records if not all(v in vocab for v in r.visits))
        raise ValueError(f"record {rec.id!r} has an out-of-vocabulary visit; "
                         "preprocess the cohort first (replace_rare_visits)")
    return ids, lengths


def encode_cohort(cohort, vocab, t_max):
    """Encode each record as [token_1 .. token_T, EOS, PAD ...] of fixed width.

    Sequences longer than ``t_max`` are truncated; the mask marks real steps
    including the EOS slot. The ids come from ``token_ids``, so every visit,
    kept or truncated, must be in the vocabulary. Past ``token_ids``, the
    only per-record step gathers the condition tuples, at most K long each.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    ids, lengths = token_ids(cohort, vocab)
    n, K = len(lengths), len(cohort.condition_names)
    kept, step = np.minimum(lengths, t_max), np.arange(t_max + 1)
    live = step < kept[:, None]
    tokens = np.full((n, t_max + 1), vocab.pad_id, dtype=np.int64)
    tokens[live] = ids[((np.cumsum(lengths) - lengths)[:, None] + step)[live]]
    tokens[np.arange(n), kept] = vocab.eos_id
    mask = (step <= kept[:, None]).astype(float)
    conds = np.zeros((n, K))
    given = np.fromiter(map(len, (r.conditions for r in cohort.records)),
                        np.int64, n)
    conds[np.arange(K) < given[:, None]] = np.fromiter(chain.from_iterable(
        r.conditions for r in cohort.records), float, given.sum())
    return EncodedBatch(tokens=tokens, mask=mask, conditions=conds)


# ---------------------------------------------------------------------------
# file I/O (line-delimited JSON)
# ---------------------------------------------------------------------------

def save_cohort(path, cohort):
    """A meta line (condition names, ``cohort.extra``, any vocabulary's rows),
    then one patient per line: {id, visits: [[code, ...], ...], conditions: [name, ...]}."""
    header = {
        "meta": {
            "format": "cohort",
            "version": COHORT_FORMAT_VERSION,
            "condition_names": list(cohort.condition_names),
            **cohort.extra,
        }
    }
    if cohort.vocab is not None:
        header["meta"]["vocab"] = cohort.vocab.rows()
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


def _strings(value):
    """Whether ``value`` is a JSON list of strings (a string is not one)."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_cohort(path):
    """Read a cohort file with its meta line's vocabulary, if any, and an
    empty ``extra``; a malformed one raises ValueError naming it."""
    with reading(path, "cohort"), open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
        names = vocab = None
        if rows and "meta" in rows[0]:
            meta = rows.pop(0)["meta"]
            names = meta.get("condition_names")
            if names is not None and not _strings(names):
                raise ValueError("condition_names is not a list of strings")
            if meta.get("vocab") is not None:
                vocab = VisitVocab.from_rows(meta["vocab"])
        for row in rows:
            if not isinstance(row, dict) or not {"id", "visits"} <= set(row):
                raise ValueError("a record has no 'id' or 'visits'")
            if not _strings(row.get("conditions", [])):
                raise TypeError(f"record {row['id']}: conditions is not a "
                                "list of strings")
            if not (isinstance(row["visits"], list)
                    and all(map(_strings, row["visits"]))):
                raise TypeError(f"record {row['id']}: visits is not a list "
                                "of lists of strings")
        if names is None:
            names = sorted({n for r in rows for n in r.get("conditions", [])})
        index = {name: k for k, name in enumerate(names)}
        if len(index) < len(names):
            raise ValueError("the header lists a condition name twice")
        out, seen = [], {}  # seen: one frozenset per distinct visit
        for row in rows:
            cond = [0] * len(names)
            for name in row.get("conditions", []):
                if name not in index:
                    raise ValueError(f"record {row['id']} names condition "
                                     f"{name!r}, not listed in the header")
                cond[index[name]] = 1
            out.append(PatientRecord(
                id=row["id"], conditions=tuple(cond),
                visits=tuple(seen.setdefault(v, v)
                             for v in map(frozenset, row["visits"]))))
        return Cohort(records=out, condition_names=list(names), vocab=vocab)

