"""BENCHMARK.json agrees with what the harness reports."""

import json
import re
from pathlib import Path

import layers
from workloads import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    bench = load()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200


def test_end_to_end_metrics_match():
    bench = load()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(END_TO_END)
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_per_layer_metrics_match():
    bench = load()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.per_layer_metrics()


def test_names_are_valid_and_unique():
    bench = load()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert len(bench["per_layer"]) <= 128
