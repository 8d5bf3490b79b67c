"""Command-line pipeline: artifact wiring, config files, digests, exit codes,
and the no-partial-outputs guarantee. Everything runs in process through
``main(argv)`` so monkeypatching and capture work normally."""

import hashlib
import inspect
import json
import os
import pathlib
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from ehrgen.cli import build_parser, config_digest, main
from ehrgen.corpus import (Cohort, PatientRecord, build_visit_vocab,
                           load_cohort, replace_rare_visits, save_cohort)
from ehrgen.decoder import DecoderConfig
from ehrgen.generator import GenerationRequest
from ehrgen.model import CHECKPOINT_VERSION
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
    "--iters", "6", "--minibatch", "8", "--burn-in", "2", "--thin", "2",
    "--reservoir", "2",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole six-command pipeline once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipe")
    p = {
        "raw": str(root / "raw.jsonl"),
        "cohort": str(root / "cohort.jsonl"),
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
                      "--out-cohort", p["cohort"]]))
    codes.append(run(["train", "--cohort", p["cohort"],
                      "--out", p["model"], "--metrics", p["metrics"],
                      "--variant", "evac", "--seed", "3"] + TRAIN_SMALL))
    codes.append(run(["generate", "--model", p["model"], "--out", p["synth"],
                      "--count", "25", "--seed", "4"]))
    codes.append(run(["evaluate", "--real", p["cohort"],
                      "--synthetic", p["synth"],
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
        """The preprocessed cohort carries its vocabulary, the one the
        model trained on; the simulated cohort is raw and carries none."""
        from ehrgen.model import TrainedModel
        cohort = load_cohort(pipeline["cohort"])
        vocab = cohort.vocab
        assert vocab.n_entries > 0
        assert vocab == TrainedModel.load(pipeline["model"]).vocab
        for rec in cohort.records:
            for visit in rec.visits:
                assert visit in vocab
        assert load_cohort(pipeline["raw"]).vocab is None
        header = json.loads(open(pipeline["raw"]).readline())
        assert "vocab" not in header["meta"]

    def test_meta_keys(self, pipeline):
        """Each meta line holds the condition names, then the run's digest
        and seed (preprocessing takes none), then the counts of the call
        that made the cohort, then its vocabulary."""
        head = ["format", "version", "condition_names", "config_digest"]
        want = {
            "raw": head + ["seed"],
            "cohort": head + ["replaced_visits", "records_touched",
                              "zero_overlap_visits",
                              "replacement_jaccard_mean", "vocab"],
            "synth": head + ["seed", "records_per_snapshot",
                             "stopped_at_cap", "stopped_at_eos", "vocab"],
        }
        for name, keys in want.items():
            meta = json.loads(open(pipeline[name]).readline())["meta"]
            assert list(meta) == keys, name

    def test_preprocess_replaces_rare_visits(self, pipeline, tmp_path):
        """With a vocabulary smaller than the distinct visits, the written
        cohort is the library's replacement and holds no rare visit."""
        cohort = tmp_path / "cohort.jsonl"
        assert run(["preprocess", "--input", pipeline["raw"],
                    "--max-vocab", "6", "--out-cohort", str(cohort)]) == 0
        assert os.listdir(tmp_path) == ["cohort.jsonl"]
        raw, got = load_cohort(pipeline["raw"]), load_cohort(cohort)
        written = got.vocab
        assert written == build_visit_vocab(raw, 6)
        want = replace_rare_visits(raw, written)
        assert got.records == want.records != raw.records
        assert got.condition_names == raw.condition_names
        assert all(v in written for rec in got.records for v in rec.visits)

    def test_preprocess_counts_replacements(self, tmp_path):
        """Hand-checked: ``--max-vocab 2`` keeps {a} and {b}, three visits
        each. {a, c}, twice, shares a with {a} (Jaccard 1/2); {d} shares no
        code with either, so it takes the most frequent entry, {a} (the
        tie broken on the codes). With every visit type kept, nothing is
        replaced."""
        a, b, ac, d = (frozenset(v) for v in ("a", "b", "ac", "d"))
        raw = tmp_path / "raw.jsonl"
        save_cohort(raw, Cohort([
            PatientRecord("p0", (a, b)), PatientRecord("p1", (a, ac)),
            PatientRecord("p2", (d, b, a)), PatientRecord("p3", (b, ac))],
            []))
        meta = {}
        for max_vocab in ("2", "50"):
            out = tmp_path / f"cohort-{max_vocab}.jsonl"
            assert run(["preprocess", "--input", str(raw), "--out-cohort",
                        str(out), "--max-vocab", max_vocab]) == 0
            meta[max_vocab] = json.loads(open(out).readline())["meta"]
        keys = ("replaced_visits", "records_touched", "zero_overlap_visits",
                "replacement_jaccard_mean")
        assert [meta["2"][k] for k in keys] == [3, 3, 1, pytest.approx(1 / 3)]
        assert [meta["50"][k] for k in keys] == [0, 0, 0, None]
        replaced = load_cohort(tmp_path / "cohort-2.jsonl").records
        assert [r.visits for r in replaced[1:4]] == [(a, a), (a, b, a),
                                                     (b, a)]

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

    def test_checkpoint_counts_truncated_records(self, pipeline):
        """``encode_cohort`` cuts records longer than ``--t-max`` (4 here,
        below the cohort's longest record); the checkpoint counts them."""
        from ehrgen.model import TrainedModel
        lengths = [len(r.visits)
                   for r in load_cohort(pipeline["cohort"]).records]
        assert max(lengths) > 4
        extra = TrainedModel.load(pipeline["model"]).extra
        assert extra["truncated_records"] == sum(n > 4 for n in lengths)

    def test_generated_cohort(self, pipeline):
        from ehrgen.model import TrainedModel
        synth = load_cohort(pipeline["synth"])
        assert len(synth) == 25
        assert synth.vocab == TrainedModel.load(pipeline["model"]).vocab
        assert all(len(r.visits) >= 1 for r in synth.records)
        bg = synth.condition_names.index("background")
        assert all(r.conditions[bg] == 1 for r in synth.records)

    def test_generate_meta_counts(self, pipeline, tmp_path):
        """The generated cohort's meta says how many records stopped at the
        length cap rather than by the end marker, and how many were drawn
        from each reservoir snapshot; each set sums to --count."""
        meta = json.loads(open(pipeline["synth"]).readline())["meta"]
        assert len(meta["records_per_snapshot"]) == 2  # --reservoir 2
        assert sum(meta["records_per_snapshot"]) == 25
        assert meta["stopped_at_cap"] + meta["stopped_at_eos"] == 25
        lengths = [len(r.visits)
                   for r in load_cohort(pipeline["synth"]).records]
        assert meta["stopped_at_cap"] == lengths.count(4)  # --t-max 4
        out = str(tmp_path / "one.jsonl")
        assert run(["generate", "--model", pipeline["model"], "--out", out,
                    "--count", "9", "--t-max", "1", "--policy", "point"]) == 0
        meta = json.loads(open(out).readline())["meta"]
        assert meta["records_per_snapshot"] == [0, 9]
        assert (meta["stopped_at_cap"], meta["stopped_at_eos"]) == (9, 0)

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

    def test_eval_report_is_the_library_report(self, pipeline):
        """The written metrics are ``report`` on the same files and
        arguments, key for key and value for value."""
        from ehrgen.evaluation import report
        from ehrgen.model import TrainedModel
        real, synth = (load_cohort(pipeline[k]) for k in ("cohort", "synth"))
        expected = report(real, synth,
                          model=TrainedModel.load(pipeline["model"]),
                          topk=(5,), seed=5)
        assert json.load(open(pipeline["report"]))["metrics"] == expected

    def test_raw_real_cohort_takes_the_synthetic_vocabulary(self, pipeline,
                                                             tmp_path):
        """A raw real cohort whose visits are all in the model's vocabulary
        is read in the synthetic cohort's ids: the written metrics are the
        library report's with that vocabulary attached."""
        from ehrgen.evaluation import report
        from ehrgen.model import TrainedModel
        synth, holdout = (load_cohort(pipeline[k]) for k in ("synth",
                                                             "holdout"))
        keep = [r for r in holdout.records
                if all(v in synth.vocab for v in r.visits)]
        assert len(keep) >= 5
        raw = tmp_path / "holdout.jsonl"
        save_cohort(raw, Cohort(keep, holdout.condition_names))
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--real", str(raw),
                    "--synthetic", pipeline["synth"],
                    "--model", pipeline["model"], "--topk", "5",
                    "--out", str(out)]) == 0
        real = load_cohort(raw)
        assert real.vocab is None
        real.vocab = synth.vocab
        expected = report(real, synth,
                          model=TrainedModel.load(pipeline["model"]),
                          topk=(5,))
        assert json.load(open(out))["metrics"] == expected

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
        assert report["schema"] == "attack/2"
        assert report["n_known_in_training"] == 10
        assert report["n_known_outside"] == 10
        out = report["outcome"]
        assert set(out) == {"sensitivity", "precision", "tp", "fp", "fn",
                            "tn"}
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
        ns1 = argparse.Namespace(seed=0, n=5, func=print)
        ns2 = argparse.Namespace(seed=0, n=5, func=open)
        ns3 = argparse.Namespace(seed=1, n=5, func=print)
        assert config_digest(ns1) == config_digest(ns2)  # func ignored
        assert config_digest(ns1) != config_digest(ns3)
        assert len(config_digest(ns1)) == 16


class TestErrorPaths:
    def test_unknown_flag_exits_1(self, capsys):
        assert run(["simulate", "--out", "x.jsonl", "--frobnicate"]) == 1
        err = read_stderr_json(capsys)
        assert err["exit_code"] == 1

    def test_missing_required_argument(self, capsys):
        assert run(["preprocess", "--input", "x"]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["preprocess", "--input", str(tmp_path / "ghost.jsonl"),
                    "--out-cohort", str(tmp_path / "c.jsonl")]) == 1
        assert "not found" in read_stderr_json(capsys)["error"]

    def test_conditional_generation_on_eva_model(self, pipeline, tmp_path,
                                                 capsys):
        # retrain a tiny unconditional model, then ask for conditions
        model = str(tmp_path / "eva.npz")
        assert run(["train", "--cohort", pipeline["cohort"], "--out", model,
                    "--variant", "eva"] + TRAIN_SMALL) == 0
        out = str(tmp_path / "s.jsonl")
        assert run(["generate", "--model", model, "--out", out,
                    "--count", "2", "--conditions", "cond_0"]) == 1
        assert "evac" in read_stderr_json(capsys)["error"]
        assert not os.path.exists(out)

    def test_generate_t_max_0_exits_1(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "s.jsonl")
        assert run(["generate", "--model", pipeline["model"], "--out", out,
                    "--count", "2", "--t-max", "0"]) == 1
        assert "t_max" in read_stderr_json(capsys)["error"]
        assert not os.path.exists(out)

    def test_topk_below_1_exits_1_before_training(self, pipeline, tmp_path,
                                                  capsys, monkeypatch):
        import ehrgen.evaluation

        def refuse(*a, **k):
            raise AssertionError("predictor trained before --topk was checked")

        monkeypatch.setattr(ehrgen.evaluation, "train_next_visit_predictor",
                            refuse)
        out = str(tmp_path / "eval.json")
        assert run(["evaluate", "--real", pipeline["cohort"],
                    "--synthetic", pipeline["synth"], "--out", out,
                    "--topk", "5,0"]) == 1
        assert "--topk" in read_stderr_json(capsys)["error"]
        assert not os.path.exists(out)

    def test_evaluate_other_vocabulary_exits_1(self, pipeline, tmp_path,
                                               capsys):
        """The holdout cohort preprocessed on its own carries a vocabulary
        of its own, whose ids mean other visits than the synthetic
        cohort's: evaluate refuses to compare them."""
        other = tmp_path / "holdout.jsonl"
        assert run(["preprocess", "--input", pipeline["holdout"],
                    "--out-cohort", str(other)]) == 0
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--real", str(other),
                    "--synthetic", pipeline["synth"],
                    "--out", str(out)]) == 1
        assert "vocabularies differ" in read_stderr_json(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("real", ["raw", "cohort"])
    def test_evaluate_raw_synthetic_exits_1(self, pipeline, tmp_path, capsys,
                                            real):
        """A raw synthetic cohort is refused by file name, as train refuses
        one, whether the real cohort is raw or preprocessed."""
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--real", pipeline[real],
                    "--synthetic", pipeline["holdout"],
                    "--out", str(out)]) == 1
        err = read_stderr_json(capsys)["error"]
        assert err.startswith(f"{pipeline['holdout']}: a raw cohort")
        assert not out.exists()

    @pytest.mark.parametrize("n_known", ["-4", "0", "1"])
    def test_attack_n_known_below_2_exits_1(self, pipeline, tmp_path, capsys,
                                            n_known):
        """The attack needs a known member and a known outsider: fewer than
        two known records is refused by name, where 1 reported a
        sensitivity over no members and -4 failed inside NumPy."""
        out = tmp_path / "attack.json"
        assert run(["attack", "--synthetic", pipeline["synth"],
                    "--train-cohort", pipeline["cohort"],
                    "--holdout-cohort", pipeline["holdout"],
                    "--out", str(out), "--n-known", n_known]) == 1
        assert "--n-known" in read_stderr_json(capsys)["error"]
        assert not out.exists()

    def test_bad_train_config_exits_1(self, pipeline, tmp_path, capsys):
        assert run(["train", "--cohort", pipeline["cohort"],
                    "--out", str(tmp_path / "m.npz")]
                   + TRAIN_SMALL + ["--iters", "0"]) == 1
        assert "iters" in read_stderr_json(capsys)["error"]

    @pytest.mark.parametrize("extra, field", [
        (["--reservoir", "0"], "reservoir_size"),
        (["--iters", "5", "--burn-in", "10"], "burn_in"),
        (["--hidden", "0"], "hidden"),
        (["--lr-global", "-1"], "lr_global"),
    ])
    def test_config_error_names_field(self, pipeline, tmp_path, capsys,
                                      extra, field):
        out = str(tmp_path / "m.npz")
        assert run(["train", "--cohort", pipeline["cohort"], "--out", out]
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
        assert run(["train", "--cohort", bare, "--out", out,
                    "--variant", "evac"] + TRAIN_SMALL) == 1
        assert "condition" in read_stderr_json(capsys)["error"]
        assert not os.path.exists(out)

    def test_evaluate_other_condition_columns_exits_1(self, pipeline,
                                                      tmp_path, capsys):
        """The training cohort under a reversed header, so its condition
        columns come in the reverse order: the evac model's held-out score
        refuses it, naming both lists, where it scored it silently."""
        flipped = str(tmp_path / "flipped.jsonl")
        with open(pipeline["cohort"]) as src, open(flipped, "w") as dst:
            header = json.loads(src.readline())
            names = header["meta"]["condition_names"]
            header["meta"]["condition_names"] = names[::-1]
            dst.write(json.dumps(header) + "\n" + src.read())
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--real", flipped,
                    "--synthetic", pipeline["synth"],
                    "--model", pipeline["model"], "--out", str(out)]) == 1
        error = read_stderr_json(capsys)["error"]
        assert str(names[::-1]) in error and str(names) in error
        assert not out.exists()

    @pytest.mark.parametrize("argv, value", [
        (["train", "--variant", "vae"], "vae"),
        (["generate", "--conditions", "cond_9"], "cond_9"),
        (["generate", "--policy", "mean"], "mean"),
    ])
    def test_unknown_name_exits_1(self, pipeline, tmp_path, capsys, argv,
                                  value):
        inputs = {"train": ["--cohort", pipeline["cohort"]] + TRAIN_SMALL,
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
        code = run(["train", "--cohort", pipeline["cohort"], "--out", model,
                    "--metrics", metrics] + TRAIN_SMALL)
        assert code == 2
        assert read_stderr_json(capsys)["exit_code"] == 2
        assert not os.path.exists(metrics)
        assert not os.path.exists(model)

    @pytest.fixture
    def failing_save(self, monkeypatch):
        """Training runs; saving the model fails after its path is made."""
        from ehrgen.model import TrainedModel

        def boom(self, path):
            raise OSError("synthetic save failure")

        monkeypatch.setattr(TrainedModel, "save", boom)

    def test_failure_removes_made_directories(self, pipeline, tmp_path,
                                              failing_save, capsys):
        """The metrics written before a failed save are removed with it,
        and so are the directories the run made for its outputs."""
        made = tmp_path / "made"
        code = run(["train", "--cohort", pipeline["cohort"],
                    "--out", str(made / "model" / "m.npz"),
                    "--metrics", str(made / "log" / "metrics.jsonl")]
                   + TRAIN_SMALL)
        assert code == 2
        assert read_stderr_json(capsys)["exit_code"] == 2
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_existing_directories(self, pipeline, tmp_path,
                                                failing_save, capsys):
        """A directory that existed before the run survives its cleanup,
        and so does a file in it that the run did not write."""
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "keep.txt").write_text("mine")
        empty = tmp_path / "empty"
        empty.mkdir()
        for where in (kept, empty):
            code = run(["train", "--cohort", pipeline["cohort"],
                        "--out", str(where / "m.npz"),
                        "--metrics", str(where / "metrics.jsonl")]
                       + TRAIN_SMALL)
            assert code == 2
            assert read_stderr_json(capsys)["exit_code"] == 2
        assert [p.name for p in kept.iterdir()] == ["keep.txt"]
        assert empty.is_dir() and not list(empty.iterdir())

    @pytest.mark.parametrize("argv", [
        ["train", "--cohort", "c", "--out", "o", "--checkpoint-dir", "d"],
        ["generate", "--model", "m", "--out", "o", "--temperature", "0.7"],
        *[["train", "--cohort", "c", "--out", "o", flag, "1"]
          for flag in ("--lr-phi", "--embed-dim", "--cond-hidden", "--tau",
                       "--gamma")],
        ["evaluate", "--real", "r", "--synthetic", "s", "--out", "o",
         "--test-frac", "0.5"],
        ["attack", "--synthetic", "s", "--train-cohort", "t",
         "--holdout-cohort", "h", "--out", "o", "--order-sensitive"],
        ["preprocess", "--input", "i", "--out-cohort", "c",
         "--out-vocab", "v"],
        ["train", "--cohort", "c", "--out", "o", "--vocab", "v"],
        ["evaluate", "--real", "r", "--synthetic", "s", "--out", "o",
         "--vocab", "v"],
        ["preprocess", "--input", "i", "--out-cohort", "c", "--seed", "5"],
    ])
    def test_deleted_flags_exit_1(self, capsys, argv):
        """Training writes no snapshot directory, and generation samples
        the model's own distribution: neither takes a flag for it. The
        encoders' rate and widths, tau, gamma and the held-out share are
        constants, and the attack always ignores visit order. A cohort
        carries its vocabulary, so no command reads or writes a vocabulary
        file. Preprocessing draws no random numbers and takes no seed."""
        assert run(argv) == 1
        assert "unrecognized arguments" in read_stderr_json(capsys)["error"]

    @pytest.mark.parametrize("flag", ["--lr", "--temp", "--iter"])
    def test_abbreviated_flag_exits_1(self, capsys, flag):
        """A flag is named in full: with ``--lr-phi`` gone, ``--lr`` would
        otherwise set ``--lr-global`` where it was ambiguous before."""
        assert run(["train", "--cohort", "c", "--out", "o", flag, "1"]) == 1
        assert "unrecognized arguments" in read_stderr_json(capsys)["error"]


class TestMalformedInputs:
    """Bad input files exit 1 with a JSON error that names the file."""

    def expect_error(self, capsys, argv, path, text):
        assert run(argv) == 1
        err = read_stderr_json(capsys)
        assert err["exit_code"] == 1
        assert str(path) in err["error"] and text in err["error"]

    def train_on_vocab(self, pipeline, tmp_path, capsys, rows, text):
        """Train on the preprocessed cohort with ``rows``, JSON text, as its
        meta line's vocabulary: exit 1, naming the cohort and ``text``."""
        cohort = tmp_path / "c.jsonl"
        header, *lines = open(pipeline["cohort"]).read().splitlines()
        header = json.loads(header)
        header["meta"]["vocab"] = "ROWS"
        cohort.write_text("\n".join([
            json.dumps(header).replace('"ROWS"', rows), *lines]) + "\n")
        self.expect_error(capsys, [
            "train", "--cohort", str(cohort),
            "--out", str(tmp_path / "m.npz")] + TRAIN_SMALL, cohort, text)
        assert not os.path.exists(tmp_path / "m.npz")

    @staticmethod
    def vocab_rows(pipeline):
        """The preprocessed cohort's vocabulary rows."""
        return json.loads(open(pipeline["cohort"]).readline())["meta"]["vocab"]

    def test_empty_vocab(self, pipeline, tmp_path, capsys):
        self.train_on_vocab(pipeline, tmp_path, capsys, "[]", "empty")

    def test_train_on_a_raw_cohort(self, pipeline, tmp_path, capsys):
        """A cohort whose meta line carries no vocabulary has no token ids
        to train on."""
        self.expect_error(capsys, [
            "train", "--cohort", pipeline["raw"],
            "--out", str(tmp_path / "m.npz")] + TRAIN_SMALL, pipeline["raw"],
            "preprocess")
        assert not os.path.exists(tmp_path / "m.npz")

    @pytest.mark.parametrize("row", [{"visits": [["a"]]}, {"id": "p0"}, []])
    def test_record_without_id_or_visits(self, tmp_path, capsys, row):
        cohort = tmp_path / "c.jsonl"
        cohort.write_text(json.dumps(row) + "\n")
        self.expect_error(capsys, [
            "preprocess", "--input", str(cohort),
            "--out-cohort", str(tmp_path / "o.jsonl")], cohort, "'visits'")
        assert not os.path.exists(tmp_path / "o.jsonl")

    def test_vocab_entries_share_a_code_set(self, pipeline, tmp_path,
                                            capsys):
        """Token 0 could never be encoded if a later entry had its codes."""
        rows = self.vocab_rows(pipeline)
        rows[1]["codes"] = rows[0]["codes"][::-1]
        self.train_on_vocab(pipeline, tmp_path, capsys, json.dumps(rows),
                            "same code-set")

    @pytest.mark.parametrize("codes", [[], ["a", "a"]])
    def test_vocab_entry_without_codes_or_with_a_repeated_code(
            self, pipeline, tmp_path, capsys, codes):
        """Looked up as a set, ["a", "a"] would stand for {"a"} while its
        Jaccard similarity counted two codes."""
        rows = self.vocab_rows(pipeline)
        rows[-1]["codes"] = codes
        self.train_on_vocab(pipeline, tmp_path, capsys, json.dumps(rows),
                            "no codes or a repeated code")

    @pytest.mark.parametrize("row, text", [
        ({"codes": ["a"]}, "'frequency'"),
        ([1, 2], "TypeError"),
        ("not json", "Expecting value"),
        ({"codes": "ab", "frequency": 1}, "codes is not a list of strings"),
    ])
    def test_malformed_vocab_row(self, pipeline, tmp_path, capsys, row,
                                 text):
        """A row without a frequency, a row that is not an object, a row
        that is not JSON, and a row whose codes, a string, would be read
        one code per character, before the good ones."""
        body = row if isinstance(row, str) else json.dumps(row)
        rows = json.dumps(self.vocab_rows(pipeline))
        self.train_on_vocab(pipeline, tmp_path, capsys,
                            f"[{body}, {rows[1:]}", text)

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
            "--out-cohort", str(tmp_path / "o.jsonl")], cohort, text)
        assert not os.path.exists(tmp_path / "o.jsonl")

    def test_unknown_condition(self, tmp_path, capsys):
        cohort = tmp_path / "c.jsonl"
        cohort.write_text(
            json.dumps({"meta": {"condition_names": ["cond_0"]}}) + "\n"
            + json.dumps({"id": "p7", "visits": [["a"]],
                          "conditions": ["cond_9"]}) + "\n")
        self.expect_error(capsys, [
            "preprocess", "--input", str(cohort),
            "--out-cohort", str(tmp_path / "o.jsonl")], cohort, "'cond_9'")

    @pytest.mark.parametrize("names", ["ab", ["a", 1], {"a": 1}])
    def test_condition_names_not_a_list_of_strings(self, tmp_path, capsys,
                                                   names):
        """A string header would be read as one condition per character."""
        cohort = tmp_path / "c.jsonl"
        cohort.write_text(
            json.dumps({"meta": {"condition_names": names}}) + "\n"
            + json.dumps({"id": "p0", "visits": [["a"]],
                          "conditions": ["a"]}) + "\n")
        self.expect_error(capsys, [
            "preprocess", "--input", str(cohort),
            "--out-cohort", str(tmp_path / "o.jsonl")], cohort,
            "list of strings")
        assert not os.path.exists(tmp_path / "o.jsonl")

    @pytest.mark.parametrize("field, value, text", [
        ("conditions", "ab", "conditions is not a list of strings"),
        ("conditions", ["a", 1], "conditions is not a list of strings"),
        ("conditions", {"a": 1}, "conditions is not a list of strings"),
        ("visits", ["E11", ["x", "y"]], "visits is not a list of lists"),
        ("visits", "E11", "visits is not a list of lists"),
        ("visits", [["x", 2]], "visits is not a list of lists"),
        ("visits", {"x": ["y"]}, "visits is not a list of lists"),
    ])
    def test_record_fields_not_lists_of_strings(self, tmp_path, capsys,
                                                field, value, text):
        """A string would be read as one condition or one code per
        character."""
        cohort = tmp_path / "c.jsonl"
        row = {"id": "p0", "visits": [["x"]], "conditions": ["a"]}
        row[field] = value
        cohort.write_text(
            json.dumps({"meta": {"condition_names": ["a", "b"]}}) + "\n"
            + json.dumps(row) + "\n")
        self.expect_error(capsys, [
            "preprocess", "--input", str(cohort),
            "--out-cohort", str(tmp_path / "o.jsonl")], cohort, text)
        assert not os.path.exists(tmp_path / "o.jsonl")

    def test_condition_listed_twice(self, tmp_path, capsys):
        """The first column of a repeated name would never be set."""
        cohort = tmp_path / "c.jsonl"
        cohort.write_text(
            json.dumps({"meta": {"condition_names": ["x", "x"]}}) + "\n"
            + json.dumps({"id": "p0", "visits": [["a"]],
                          "conditions": ["x"]}) + "\n")
        self.expect_error(capsys, [
            "preprocess", "--input", str(cohort),
            "--out-cohort", str(tmp_path / "o.jsonl")], cohort, "twice")
        assert not os.path.exists(tmp_path / "o.jsonl")


# config edits that change a parameter shape the saved arrays have
SHAPE_EDITS = {
    "kernel_3": ("dec_cfg", "kernel", 3),
    "channels_6": ("dec_cfg", "channels", 6),
    "n_upsample_2": ("dec_cfg", "n_upsample", 2),
    "dilation_dropped": ("dec_cfg", "dilations", [1]),
    "hidden_7": ("train_config", "hidden", 7),
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
    elif kind == "format_7":  # its train_config held five values now fixed
        meta["format_version"] = 7
        meta["train_config"].update(lr_phi=1e-3, embed_dim=32, cond_hidden=32,
                                    tau=0.1, gamma=0.1)
    elif kind == "format_6":  # its train_config held pSGLD's alpha and lambda
        meta["format_version"] = 6
        meta["train_config"].update(psgld_alpha=0.99, psgld_lambda=1e-5,
                                    log_every=50)
    elif kind == "format_5":  # its dec_cfg held the vocabulary and latent sizes
        meta["format_version"] = 5
        meta["dec_cfg"].update(vocab_size=len(meta["vocab"]) + 2,
                               latent_dim=meta["train_config"]["latent_dim"])
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
        ("format_7", "version 7"),
        ("format_6", "version 6"),
        ("format_5", "version 5"),
    ])
    def test_exits_1_naming_the_file(self, pipeline, tmp_path, capsys,
                                     command, kind, text):
        model = tmp_path / "bad.npz"
        write_bad_checkpoint(kind, pipeline["model"], model)
        out = tmp_path / "out"
        argv = {"generate": ["generate"],
                "evaluate": ["evaluate", "--real", pipeline["cohort"],
                             "--synthetic", pipeline["synth"]]}[command]
        assert run(argv + ["--model", str(model), "--out", str(out)]) == 1
        err = read_stderr_json(capsys)
        assert err["exit_code"] == 1
        assert str(model) in err["error"] and text in err["error"]
        assert not out.exists()


# the two fields whose flag is not the field name in kebab case
FLAG_DESTS = {"n_iters": "iters", "reservoir_size": "reservoir"}
# (subcommand, config class)
CONFIG_FLAGS = [
    ("train", TrainConfig),
    ("train", DecoderConfig),
    ("generate", GenerationRequest),
]
# the only flags whose default is not their field's: those fields have none
CLI_DEFAULTS = {("train", "t_max"): 16, ("generate", "count"): 1000}
REQUIRED = {"train": ["--cohort", "c", "--out", "o"],
            "generate": ["--model", "m", "--out", "o"]}
# a valid value other than the default for every field that has a flag
NON_DEFAULT = {
    TrainConfig: dict(
        variant="evac", latent_dim=3, n_iters=7, minibatch=5, lr_global=3e-3,
        temperature=0.5, burn_in=3, thin=2, reservoir_size=4, clip_norm=50.0,
        hidden=7, seed=11),
    DecoderConfig: dict(t_max=5, channels=6, kernel=2, dilations=(1, 3),
                        n_upsample=1),
    GenerationRequest: dict(
        count=12, conditions=("cond_0", "cond_1"), t_max=3, seed=13,
        policy="point"),
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
    default, and its value reaches the config built."""

    def test_every_field_has_a_flag_with_its_default(self):
        parser, subparsers = build_parser()
        for command, cls in CONFIG_FLAGS:
            args = parser.parse_args([command] + REQUIRED[command])
            options = subparsers[command]._option_string_actions
            for f in fields(cls):
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
        for command, cls in CONFIG_FLAGS:
            values = NON_DEFAULT[cls]
            assert set(values) == {f.name for f in fields(cls)}
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

    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_values_reach_the_config(self, pipeline, tmp_path, seen, command):
        classes = [cls for c, cls in CONFIG_FLAGS if c == command]
        values = {flag_dest(name): text_of(value) for cls in classes
                  for name, value in NON_DEFAULT[cls].items()}
        argv = [command, "--out", str(tmp_path / "o")] + {
            "train": ["--cohort", pipeline["cohort"]],
            "generate": ["--model", pipeline["model"]]}[command]
        for dest, text in values.items():
            argv += ["--" + dest.replace("_", "-"), text]
        with pytest.raises(_Stop):
            run(argv)
        if command == "train":
            train = NON_DEFAULT[TrainConfig]
            assert seen["config"] == TrainConfig(**train)
            assert seen["dec_cfg"] == DecoderConfig(
                **NON_DEFAULT[DecoderConfig])
        else:
            assert seen["request"] == GenerationRequest(
                **NON_DEFAULT[GenerationRequest])


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_format_and_flag_example_are_current():
    """The README's checkpoint format is the one ``save`` writes, and its
    kebab-case example names a field that has that ``train`` flag."""
    text = README.read_text()
    assert re.findall(r"A checkpoint \(format (\d+)\)", text) == [
        str(CHECKPOINT_VERSION)]
    (field, flag), = re.findall(r"in kebab case \(`(\w+)` is\s+`(--[\w-]+)`",
                                text)
    assert field in {f.name for f in fields(TrainConfig)}
    assert flag == "--" + field.replace("_", "-")
    assert flag in build_parser()[1]["train"]._option_string_actions
