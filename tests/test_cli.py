"""Command-line pipeline: artifact wiring, config files, digests, exit codes,
and the no-partial-outputs guarantee. Everything runs in process through
``main(argv)`` so monkeypatching and capture work normally."""

import hashlib
import inspect
import json
import os
from dataclasses import MISSING, fields

import numpy as np
import pytest

from ehrgen.cli import (CONFIG_SCHEMA_VERSION, build_parser, config_digest,
                        main, parse_config_file)
from ehrgen.corpus import load_cohort, load_vocab
from ehrgen.decoder import DecoderConfig
from ehrgen.generator import GenerationRequest
from ehrgen.simulate import default_toy_spec
from ehrgen.trainer import TrainConfig


def run(argv):
    return main(argv)


def read_stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


TRAIN_SMALL = [
    "--t-max", "4", "--latent-dim", "3", "--channels", "4", "--kernel", "2",
    "--dilations", "1,2", "--n-upsample", "1", "--hidden", "5",
    "--embed-dim", "4", "--cond-hidden", "4", "--iters", "6",
    "--minibatch", "8", "--burn-in", "2", "--thin", "2", "--reservoir", "2",
    "--log-every", "2",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole six-command pipeline once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipe")
    p = {
        "raw": str(root / "raw.jsonl"),
        "cohort": str(root / "cohort.jsonl"),
        "vocab": str(root / "vocab.jsonl"),
        "model": str(root / "model.npz"),
        "metrics": str(root / "metrics.jsonl"),
        "holdout": str(root / "holdout.jsonl"),
        "synth": str(root / "synth.jsonl"),
        "report": str(root / "eval.json"),
        "scatter": str(root / "scatter.tsv"),
        "attack": str(root / "attack.json"),
    }
    codes = []
    codes.append(run(["simulate", "--out", p["raw"], "--n-records", "30",
                      "--len-min", "2", "--len-max", "5", "--seed", "1"]))
    codes.append(run(["simulate", "--out", p["holdout"], "--n-records", "20",
                      "--len-min", "2", "--len-max", "5", "--seed", "2"]))
    codes.append(run(["preprocess", "--input", p["raw"],
                      "--out-cohort", p["cohort"],
                      "--out-vocab", p["vocab"]]))
    codes.append(run(["train", "--cohort", p["cohort"], "--vocab", p["vocab"],
                      "--out", p["model"], "--metrics", p["metrics"],
                      "--variant", "evac", "--seed", "3"] + TRAIN_SMALL))
    codes.append(run(["generate", "--model", p["model"], "--out", p["synth"],
                      "--count", "25", "--seed", "4"]))
    codes.append(run(["evaluate", "--real", p["cohort"],
                      "--synthetic", p["synth"], "--vocab", p["vocab"],
                      "--out", p["report"], "--scatter-out", p["scatter"],
                      "--model", p["model"], "--topk", "5",
                      "--seed", "5"]))
    codes.append(run(["attack", "--synthetic", p["synth"],
                      "--train-cohort", p["cohort"],
                      "--holdout-cohort", p["holdout"],
                      "--out", p["attack"], "--n-known", "20",
                      "--seed", "6"]))
    p["codes"] = codes
    return p


class TestPipeline:
    def test_all_commands_succeed(self, pipeline):
        assert pipeline["codes"] == [0] * 7

    def test_simulate_artifact(self, pipeline):
        cohort = load_cohort(pipeline["raw"])
        assert len(cohort) == 30
        assert cohort.condition_names[-1] == "background"
        header = json.loads(open(pipeline["raw"]).readline())
        assert "config_digest" in header["meta"]
        assert header["meta"]["seed"] == 1

    def test_preprocess_artifacts(self, pipeline):
        vocab = load_vocab(pipeline["vocab"])
        cohort = load_cohort(pipeline["cohort"])
        assert vocab.n_entries > 0
        for rec in cohort.records:
            for visit in rec.visits:
                assert visit in vocab

    def test_metrics_stream(self, pipeline):
        lines = [json.loads(l) for l in open(pipeline["metrics"])]
        assert lines[0]["schema"] == "metrics/1"
        assert lines[0]["seed"] == 3
        body = lines[1:]
        assert [row["iteration"] for row in body] == list(range(6))
        for row in body:
            assert {"recon", "total", "kl_fraction"} <= set(row)

    def test_model_checkpoint(self, pipeline):
        from ehrgen.model import TrainedModel
        model = TrainedModel.load(pipeline["model"])
        assert model.variant == "evac"
        assert len(model.reservoir) == 2
        assert model.extra["seed"] == 3

    def test_generated_cohort(self, pipeline):
        synth = load_cohort(pipeline["synth"])
        assert len(synth) == 25
        assert all(len(r.visits) >= 1 for r in synth.records)
        bg = synth.condition_names.index("background")
        assert all(r.conditions[bg] == 1 for r in synth.records)

    def test_eval_report(self, pipeline):
        report = json.load(open(pipeline["report"]))
        assert report["schema"] == "eval/1"
        m = report["metrics"]
        for key in ("unigram_pearson", "bigram_pearson",
                    "bigram_pearson_indep_baseline", "jaccard_real",
                    "jaccard_synthetic", "unique_token_ratio_real",
                    "unique_token_ratio_synthetic", "elbo_holdout",
                    "top5_recall_real_trained", "top5_recall_synth_trained"):
            assert key in m, key
        assert -1.0 <= m["bigram_pearson"] <= 1.0
        assert m["elbo_holdout"] <= 0.0

    def test_scatter_table(self, pipeline):
        lines = open(pipeline["scatter"]).read().splitlines()
        assert lines[0].startswith("# unigram scatter")
        assert lines[1] == "token\tfreq_real\tfreq_synth"
        rows = [l.split("\t") for l in lines[2:]]
        assert len(rows) > 0
        total_real = sum(float(r[1]) for r in rows)
        np.testing.assert_allclose(total_real, 1.0, atol=1e-9)

    def test_attack_report(self, pipeline):
        report = json.load(open(pipeline["attack"]))
        assert report["schema"] == "attack/1"
        assert report["n_known_in_training"] == 10
        assert report["n_known_outside"] == 10
        out = report["outcome"]
        assert 0.0 <= out["sensitivity"] <= 1.0
        assert out["tp"] + out["fn"] == 10


class TestDeterminism:
    def test_same_seed_same_records(self, tmp_path):
        # digest covers every argument (including --out), so compare the
        # record bodies across paths and the full bytes for identical argv
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert run(["simulate", "--out", a, "--n-records", "15",
                    "--seed", "7"]) == 0
        assert run(["simulate", "--out", b, "--n-records", "15",
                    "--seed", "7"]) == 0
        body = lambda p: open(p).read().splitlines()[1:]
        assert body(a) == body(b)
        first = hashlib.sha256(open(a, "rb").read()).hexdigest()
        assert run(["simulate", "--out", a, "--n-records", "15",
                    "--seed", "7"]) == 0
        again = hashlib.sha256(open(a, "rb").read()).hexdigest()
        assert first == again

    def test_seed_changes_records(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run(["simulate", "--out", a, "--n-records", "15", "--seed", "7"])
        run(["simulate", "--out", b, "--n-records", "15", "--seed", "8"])
        body = lambda p: open(p).read().splitlines()[1:]
        assert body(a) != body(b)

    def test_digest_tracks_arguments(self):
        import argparse
        ns1 = argparse.Namespace(seed=0, n=5, func=print, config=None)
        ns2 = argparse.Namespace(seed=0, n=5, func=open, config="x")
        ns3 = argparse.Namespace(seed=1, n=5, func=print, config=None)
        assert config_digest(ns1) == config_digest(ns2)  # func/config ignored
        assert config_digest(ns1) != config_digest(ns3)
        assert len(config_digest(ns1)) == 16


class TestConfigFile:
    def write_cfg(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body)
        return str(path)

    def test_values_and_comments(self, tmp_path):
        cfg = self.write_cfg(tmp_path, (
            f"schema_version = {CONFIG_SCHEMA_VERSION}\n"
            "# a comment\n"
            "n_records = 12\n"
            "\n"
            "seed = 9\n"
        ))
        values = parse_config_file(cfg)
        assert values == {"n_records": "12", "seed": "9"}

    def test_config_supplies_defaults(self, tmp_path):
        cfg = self.write_cfg(tmp_path, (
            f"schema_version = {CONFIG_SCHEMA_VERSION}\n"
            "n_records = 12\n"
        ))
        out = str(tmp_path / "c.jsonl")
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        assert len(load_cohort(out)) == 12

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = self.write_cfg(tmp_path, (
            f"schema_version = {CONFIG_SCHEMA_VERSION}\n"
            "n_records = 12\n"
        ))
        out = str(tmp_path / "c.jsonl")
        assert run(["simulate", "--config", cfg, "--out", out,
                    "--n-records", "8"]) == 0
        assert len(load_cohort(out)) == 8

    def test_missing_schema_version(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "n_records = 12\n")
        out = str(tmp_path / "c.jsonl")
        assert run(["simulate", "--config", cfg, "--out", out]) == 1
        err = read_stderr_json(capsys)
        assert "schema_version" in err["error"]

    def test_unknown_key(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, (
            f"schema_version = {CONFIG_SCHEMA_VERSION}\n"
            "records = 12\n"
        ))
        out = str(tmp_path / "c.jsonl")
        assert run(["simulate", "--config", cfg, "--out", out]) == 1
        assert "records" in read_stderr_json(capsys)["error"]

    @pytest.mark.parametrize("argv, line, flag", [
        (["train", "--cohort", "c", "--vocab", "v"], "dilations = 1,x",
         "--dilations"),
        (["simulate"], "n_records = x", "--n-records"),
    ])
    def test_bad_value_names_file_and_flag(self, tmp_path, capsys, argv,
                                           line, flag):
        cfg = self.write_cfg(
            tmp_path, f"schema_version = {CONFIG_SCHEMA_VERSION}\n{line}\n")
        out = str(tmp_path / "o")
        assert run(argv + ["--out", out, "--config", cfg]) == 1
        err = read_stderr_json(capsys)["error"]
        assert cfg in err and flag in err

    def test_config_file_missing(self, tmp_path, capsys):
        out = str(tmp_path / "c.jsonl")
        assert run(["simulate", "--config", str(tmp_path / "nope.cfg"),
                    "--out", out]) == 1


class TestErrorPaths:
    def test_unknown_flag_exits_1(self, capsys):
        assert run(["simulate", "--out", "x.jsonl", "--frobnicate"]) == 1
        err = read_stderr_json(capsys)
        assert err["exit_code"] == 1

    def test_missing_required_argument(self, capsys):
        assert run(["preprocess", "--input", "x"]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["preprocess", "--input", str(tmp_path / "ghost.jsonl"),
                    "--out-cohort", str(tmp_path / "c.jsonl"),
                    "--out-vocab", str(tmp_path / "v.jsonl")]) == 1
        assert "not found" in read_stderr_json(capsys)["error"]

    def test_conditional_generation_on_eva_model(self, pipeline, tmp_path,
                                                 capsys):
        # retrain a tiny unconditional model, then ask for conditions
        model = str(tmp_path / "eva.npz")
        assert run(["train", "--cohort", pipeline["cohort"],
                    "--vocab", pipeline["vocab"], "--out", model,
                    "--variant", "eva"] + TRAIN_SMALL) == 0
        out = str(tmp_path / "s.jsonl")
        assert run(["generate", "--model", model, "--out", out,
                    "--count", "2", "--mode", "conditional",
                    "--conditions", "cond_0"]) == 1
        assert "evac" in read_stderr_json(capsys)["error"]
        assert not os.path.exists(out)

    def test_bad_train_config_exits_1(self, pipeline, tmp_path, capsys):
        assert run(["train", "--cohort", pipeline["cohort"],
                    "--vocab", pipeline["vocab"],
                    "--out", str(tmp_path / "m.npz")]
                   + TRAIN_SMALL + ["--iters", "0"]) == 1
        assert "iters" in read_stderr_json(capsys)["error"]

    @pytest.mark.parametrize("extra, field", [
        (["--log-every", "0"], "log_every"),
        (["--iters", "5", "--burn-in", "10"], "burn_in"),
        (["--hidden", "0"], "hidden"),
        (["--embed-dim", "0"], "embed_dim"),
    ])
    def test_config_error_names_field(self, pipeline, tmp_path, capsys,
                                      extra, field):
        out = str(tmp_path / "m.npz")
        assert run(["train", "--cohort", pipeline["cohort"],
                    "--vocab", pipeline["vocab"], "--out", out]
                   + TRAIN_SMALL + extra) == 1
        assert field in read_stderr_json(capsys)["error"]
        assert not os.path.exists(out)

    def test_evac_without_conditions_exits_1(self, pipeline, tmp_path,
                                             capsys):
        """evac needs condition columns: refused before training, not
        after it, at generation."""
        bare = str(tmp_path / "bare.jsonl")
        with open(pipeline["cohort"]) as src, open(bare, "w") as dst:
            for line in src:
                row = json.loads(line)
                if "meta" in row:
                    row["meta"]["condition_names"] = []
                else:
                    row["conditions"] = []
                dst.write(json.dumps(row) + "\n")
        out = str(tmp_path / "m.npz")
        assert run(["train", "--cohort", bare, "--vocab", pipeline["vocab"],
                    "--out", out, "--variant", "evac"] + TRAIN_SMALL) == 1
        assert "condition" in read_stderr_json(capsys)["error"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, value", [
        (["train", "--variant", "vae"], "vae"),
        (["generate", "--mode", "joint"], "joint"),
        (["generate", "--policy", "mean"], "mean"),
    ])
    def test_unknown_name_exits_1(self, pipeline, tmp_path, capsys, argv,
                                  value):
        inputs = {"train": ["--cohort", pipeline["cohort"],
                            "--vocab", pipeline["vocab"]] + TRAIN_SMALL,
                  "generate": ["--model", pipeline["model"]]}[argv[0]]
        out = str(tmp_path / "o")
        assert run(argv + inputs + ["--out", out]) == 1
        assert value in read_stderr_json(capsys)["error"]
        assert not os.path.exists(out)

    def test_failure_removes_partial_outputs(self, pipeline, tmp_path,
                                             monkeypatch, capsys):
        """A runtime failure mid-train must not leave the metrics file."""
        import ehrgen.trainer as trainer_mod

        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(trainer_mod, "train", boom)
        metrics = str(tmp_path / "metrics.jsonl")
        model = str(tmp_path / "m.npz")
        code = run(["train", "--cohort", pipeline["cohort"],
                    "--vocab", pipeline["vocab"], "--out", model,
                    "--metrics", metrics] + TRAIN_SMALL)
        assert code == 2
        assert read_stderr_json(capsys)["exit_code"] == 2
        assert not os.path.exists(metrics)
        assert not os.path.exists(model)

    def test_failure_removes_checkpoint_snapshots(self, pipeline, tmp_path,
                                                  capsys):
        """Snapshots written before a failed save are removed with it, and
        so are the directories the run made for them."""
        snaps = tmp_path / "made" / "snaps"
        blocked = tmp_path / "taken"
        blocked.mkdir()  # saving the model onto a directory fails
        code = run(["train", "--cohort", pipeline["cohort"],
                    "--vocab", pipeline["vocab"], "--out", str(blocked),
                    "--checkpoint-dir", str(snaps)] + TRAIN_SMALL)
        assert code == 2
        assert read_stderr_json(capsys)["exit_code"] == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_failure_keeps_existing_checkpoint_dir(self, pipeline, tmp_path,
                                                   capsys):
        """A directory that existed before the run survives its cleanup,
        and so does a file in it that the run did not write."""
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        (snaps / "keep.txt").write_text("mine")
        blocked = tmp_path / "taken"
        blocked.mkdir()
        empty = tmp_path / "empty"
        empty.mkdir()
        for ckpt in (snaps, empty):
            code = run(["train", "--cohort", pipeline["cohort"],
                        "--vocab", pipeline["vocab"], "--out", str(blocked),
                        "--checkpoint-dir", str(ckpt)] + TRAIN_SMALL)
            assert code == 2
            assert read_stderr_json(capsys)["exit_code"] == 2
        assert [p.name for p in snaps.iterdir()] == ["keep.txt"]
        assert empty.is_dir() and not list(empty.iterdir())

    def test_checkpoint_snapshots_written(self, pipeline, tmp_path):
        snaps = tmp_path / "snaps"
        assert run(["train", "--cohort", pipeline["cohort"],
                    "--vocab", pipeline["vocab"],
                    "--out", str(tmp_path / "m.npz"),
                    "--checkpoint-dir", str(snaps)] + TRAIN_SMALL) == 0
        names = sorted(p.name for p in snaps.iterdir())
        assert names == ["snapshot_0000002.npz", "snapshot_0000004.npz"]


class TestMalformedInputs:
    """Bad input files exit 1 with a JSON error that names the file."""

    def expect_error(self, capsys, argv, path, text):
        assert run(argv) == 1
        err = read_stderr_json(capsys)
        assert err["exit_code"] == 1
        assert str(path) in err["error"] and text in err["error"]

    def test_empty_vocab(self, pipeline, tmp_path, capsys):
        vocab = tmp_path / "empty.jsonl"
        vocab.write_text("\n")
        self.expect_error(capsys, [
            "train", "--cohort", pipeline["cohort"], "--vocab", str(vocab),
            "--out", str(tmp_path / "m.npz")] + TRAIN_SMALL, vocab, "empty")

    @pytest.mark.parametrize("row", [{"visits": [["a"]]}, {"id": "p0"}, []])
    def test_record_without_id_or_visits(self, tmp_path, capsys, row):
        cohort = tmp_path / "c.jsonl"
        cohort.write_text(json.dumps(row) + "\n")
        self.expect_error(capsys, [
            "preprocess", "--input", str(cohort),
            "--out-cohort", str(tmp_path / "o.jsonl"),
            "--out-vocab", str(tmp_path / "v.jsonl")], cohort, "'visits'")
        assert not os.path.exists(tmp_path / "o.jsonl")

    @pytest.mark.parametrize("row, text", [
        ({"token_id": 0, "codes": ["a"]}, "'frequency'"),
        ([1, 2], "TypeError"),
        ("not json", "Expecting value"),
    ])
    def test_malformed_vocab_row(self, pipeline, tmp_path, capsys, row,
                                 text):
        vocab = tmp_path / "v.jsonl"
        lines = open(pipeline["vocab"]).read().splitlines()
        body = row if isinstance(row, str) else json.dumps(row)
        vocab.write_text("\n".join([lines[0], body, *lines[1:]]) + "\n")
        self.expect_error(capsys, [
            "train", "--cohort", pipeline["cohort"], "--vocab", str(vocab),
            "--out", str(tmp_path / "m.npz")] + TRAIN_SMALL, vocab, text)

    @pytest.mark.parametrize("line, text", [
        (json.dumps({"id": "p0", "visits": [["a"]], "conditions": 5}),
         "TypeError"),
        ("not json", "Expecting value"),
    ])
    def test_malformed_cohort_row(self, tmp_path, capsys, line, text):
        cohort = tmp_path / "c.jsonl"
        cohort.write_text(line + "\n")
        self.expect_error(capsys, [
            "preprocess", "--input", str(cohort),
            "--out-cohort", str(tmp_path / "o.jsonl"),
            "--out-vocab", str(tmp_path / "v.jsonl")], cohort, text)
        assert not os.path.exists(tmp_path / "o.jsonl")

    def test_unknown_condition(self, tmp_path, capsys):
        cohort = tmp_path / "c.jsonl"
        cohort.write_text(
            json.dumps({"meta": {"condition_names": ["cond_0"]}}) + "\n"
            + json.dumps({"id": "p7", "visits": [["a"]],
                          "conditions": ["cond_9"]}) + "\n")
        self.expect_error(capsys, [
            "preprocess", "--input", str(cohort),
            "--out-cohort", str(tmp_path / "o.jsonl"),
            "--out-vocab", str(tmp_path / "v.jsonl")], cohort, "'cond_9'")


# config edits that change a parameter shape the saved arrays have
SHAPE_EDITS = {
    "kernel_3": ("dec_cfg", "kernel", 3),
    "channels_6": ("dec_cfg", "channels", 6),
    "n_upsample_2": ("dec_cfg", "n_upsample", 2),
    "dilation_dropped": ("dec_cfg", "dilations", [1]),
    "hidden_7": ("train_config", "hidden", 7),
    "cond_hidden_9": ("train_config", "cond_hidden", 9),
}


def write_bad_checkpoint(kind, good, path):
    """A malformed copy of the real checkpoint ``good`` at ``path``."""
    bodies = {"empty": b"", "not_npz": b'{"id": "p0", "visits": [["a"]]}\n',
              "truncated": open(good, "rb").read()[:300]}
    if kind in bodies:
        open(path, "wb").write(bodies[kind])
        return
    with np.load(good) as data:
        meta = json.loads(str(data["meta"]))
        arrays = {k: data[k] for k in data.files if k != "meta"}
    if kind == "no_variant":
        del meta["train_config"]["variant"]
    elif kind == "no_kernel":
        del meta["dec_cfg"]["kernel"]
    elif kind == "short_vocab":  # one entry fewer than the decoder's head
        del meta["vocab"][-1]
    elif kind == "extra_train_config_key":
        meta["train_config"]["retired_option"] = 1.0
    elif kind == "meta_not_object":
        meta = [meta]
    elif kind == "extra_condition":
        meta["condition_names"].append("cond_extra")
    else:
        config, field, value = SHAPE_EDITS[kind]
        meta[config][field] = value
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


class TestMalformedCheckpoint:
    """A checkpoint that is not well formed exits 1 with a JSON error that
    names the file, from every command that reads one."""

    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    @pytest.mark.parametrize("kind, text", [
        # a default must not stand in for a field the model was trained with
        ("no_variant", "'variant'"),
        ("no_kernel", "'kernel'"),
        ("short_vocab", "vocab"),
        ("extra_train_config_key", "'retired_option'"),
        ("meta_not_object", "'list'"),
        ("not_npz", "pickled"),
        ("truncated", "zip"),
        ("empty", "EOFError"),
        # every shape comes from the configs and is checked against the
        # arrays
        *[(kind, "layout") for kind in SHAPE_EDITS],
        ("extra_condition", "layout"),
    ])
    def test_exits_1_naming_the_file(self, pipeline, tmp_path, capsys,
                                     command, kind, text):
        model = tmp_path / "bad.npz"
        write_bad_checkpoint(kind, pipeline["model"], model)
        out = tmp_path / "out"
        argv = {"generate": ["generate"],
                "evaluate": ["evaluate", "--real", pipeline["cohort"],
                             "--synthetic", pipeline["synth"],
                             "--vocab", pipeline["vocab"]]}[command]
        assert run(argv + ["--model", str(model), "--out", str(out)]) == 1
        err = read_stderr_json(capsys)
        assert err["exit_code"] == 1
        assert str(model) in err["error"] and text in err["error"]
        assert not out.exists()


# the two fields whose flag is not the field name in kebab case
FLAG_DESTS = {"n_iters": "iters", "reservoir_size": "reservoir"}
# (subcommand, config class, fields without a flag of their own)
CONFIG_FLAGS = [
    ("train", TrainConfig, ()),
    ("train", DecoderConfig, ("vocab_size", "latent_dim")),
    ("generate", GenerationRequest, ()),
]
# the only flags whose default is not their field's: those fields have none
CLI_DEFAULTS = {("train", "t_max"): 16, ("generate", "count"): 1000}
REQUIRED = {"train": ["--cohort", "c", "--vocab", "v", "--out", "o"],
            "generate": ["--model", "m", "--out", "o"]}
# a valid value other than the default for every field that has a flag
NON_DEFAULT = {
    TrainConfig: dict(
        variant="evac", latent_dim=3, n_iters=7, minibatch=5, lr_phi=2e-3,
        lr_global=3e-3, psgld_alpha=0.9, psgld_lambda=2e-5, temperature=0.5,
        burn_in=3, thin=2, reservoir_size=4, clip_norm=50.0, embed_dim=6,
        hidden=7, cond_hidden=8, tau=0.2, gamma=0.3, log_every=9, seed=11),
    DecoderConfig: dict(t_max=5, channels=6, kernel=2, dilations=(1, 3),
                        n_upsample=1),
    GenerationRequest: dict(
        count=12, mode="conditional", conditions=("cond_0", "cond_1"),
        temperature=0.7, t_max=3, seed=13, policy="point"),
}


def flag_dest(name):
    return FLAG_DESTS.get(name, name)


def text_of(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) \
        else str(value)


class _Stop(Exception):
    pass


class TestConfigFlags:
    """Every train / generate flag is a config field: it has the field's
    default, and a flag or a config-file key reaches the config built."""

    def test_every_field_has_a_flag_with_its_default(self):
        parser, subparsers = build_parser()
        for command, cls, skip in CONFIG_FLAGS:
            args = parser.parse_args([command] + REQUIRED[command])
            options = subparsers[command]._option_string_actions
            for f in fields(cls):
                if f.name in skip:
                    continue
                dest = flag_dest(f.name)
                assert "--" + dest.replace("_", "-") in options, f.name
                expected = (CLI_DEFAULTS[command, f.name]
                            if f.default is MISSING else f.default)
                assert getattr(args, dest) == expected, (command, f.name)

    def test_simulate_defaults_are_default_toy_spec_defaults(self):
        parser, _ = build_parser()
        args = parser.parse_args(["simulate", "--out", "o"])
        params = inspect.signature(default_toy_spec).parameters
        for name in ("n_records", "n_conditions", "len_min", "len_max",
                     "structure_seed"):
            assert getattr(args, name) == params[name].default, name

    def test_non_default_values_cover_every_field(self):
        for command, cls, skip in CONFIG_FLAGS:
            values = NON_DEFAULT[cls]
            assert set(values) == {f.name for f in fields(cls)} - set(skip)
            for f in fields(cls):
                if f.name in values:
                    assert values[f.name] != f.default, f.name

    @pytest.fixture
    def seen(self, monkeypatch):
        """Record the configs the train and generate commands build."""
        import ehrgen.generator
        import ehrgen.trainer
        seen = {}

        def fake_train(config, *args, dec_cfg, **kwargs):
            seen.update(config=config, dec_cfg=dec_cfg)
            raise _Stop

        def fake_generate(model, request):
            seen.update(request=request)
            raise _Stop

        monkeypatch.setattr(ehrgen.trainer, "train", fake_train)
        monkeypatch.setattr(ehrgen.generator, "generate_cohort",
                            fake_generate)
        return seen

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_values_reach_the_config(self, pipeline, tmp_path, seen,
                                     source, command):
        classes = [cls for c, cls, _ in CONFIG_FLAGS if c == command]
        values = {flag_dest(name): text_of(value) for cls in classes
                  for name, value in NON_DEFAULT[cls].items()}
        argv = [command, "--out", str(tmp_path / "o")] + {
            "train": ["--cohort", pipeline["cohort"],
                      "--vocab", pipeline["vocab"]],
            "generate": ["--model", pipeline["model"]]}[command]
        if source == "flags":
            for dest, text in values.items():
                argv += ["--" + dest.replace("_", "-"), text]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"schema_version = {CONFIG_SCHEMA_VERSION}\n"
                           + "".join(f"{k} = {v}\n"
                                     for k, v in values.items()))
            argv += ["--config", str(cfg)]
        with pytest.raises(_Stop):
            run(argv)
        if command == "train":
            train = NON_DEFAULT[TrainConfig]
            assert seen["config"] == TrainConfig(**train)
            assert seen["dec_cfg"] == DecoderConfig(
                vocab_size=load_vocab(pipeline["vocab"]).size,
                latent_dim=train["latent_dim"], **NON_DEFAULT[DecoderConfig])
        else:
            assert seen["request"] == GenerationRequest(
                **NON_DEFAULT[GenerationRequest])


class TestOutputDir:
    def test_relative_outputs_join_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EHRGEN_OUTPUT_DIR", str(tmp_path))
        assert run(["simulate", "--out", "nested/c.jsonl",
                    "--n-records", "5"]) == 0
        assert (tmp_path / "nested" / "c.jsonl").exists()

    def test_absolute_outputs_ignore_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EHRGEN_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        target = str(tmp_path / "direct.jsonl")
        assert run(["simulate", "--out", target, "--n-records", "5"]) == 0
        assert os.path.exists(target)
