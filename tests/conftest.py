"""Shared fixtures for the test suite; numerical oracles are in
``oracles.py``."""

import pytest

from ehrgen.corpus import Cohort, build_visit_vocab, encode_cohort
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort

from oracles import tiny_records


@pytest.fixture
def tiny_cohort():
    return Cohort(records=tiny_records(), condition_names=[])


@pytest.fixture(scope="session")
def toy_small():
    """A small simulated cohort + vocab + encoded batch, shared read-only."""
    spec = default_toy_spec(n_records=60, background_groups=6,
                            groups_per_condition=4, len_min=3, len_max=8)
    cohort = simulate_toy_cohort(spec, seed=11)
    vocab = build_visit_vocab(cohort, max_size=64)
    cohort.vocab = vocab
    batch = encode_cohort(cohort, vocab, t_max=8)
    return spec, cohort, vocab, batch
