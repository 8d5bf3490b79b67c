"""Command-line pipeline: simulate -> preprocess -> train -> generate ->
evaluate / attack.

Every artifact embeds the sha256 digest of the effective configuration and
any seed, so identical invocations produce identical files. The ``train`` /
``generate`` flags are the fields of ``TrainConfig`` and ``DecoderConfig`` /
``GenerationRequest`` in kebab case, except ``--iters`` and ``--reservoir``.
Exit codes: 0 success, 1 configuration error, 2 runtime/numerical failure.
``EHRGEN_THREADS`` is applied by the package, which this module's own
import loads first.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, fields

import numpy as np

from . import evaluation as ev, generator, simulate as sim, trainer
from .corpus import (build_visit_vocab, encode_cohort, load_cohort,
                     replace_rare_visits, save_cohort)
from .decoder import DecoderConfig
from .generator import GenerationRequest
from .model import TrainConfig, TrainedModel


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # runtime failures, so route parse problems through ConfigError instead
    def error(self, message):
        raise ConfigError(message)


def _fail(code, message):
    print(json.dumps({"error": str(message), "exit_code": code}),
          file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def config_digest(args):
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------

class _Outputs:
    """Registry of files the running command intends to write, and of the
    directories made for them; on failure the files are removed, then those
    directories, deepest first, if empty, so no partial artifacts survive
    and no directory that existed before the run is touched."""

    def __init__(self):
        self.paths = []
        self.dirs = []  # made by path(), each after its parent

    def path(self, p):
        missing = []
        parent = os.path.dirname(p)
        while parent and not os.path.isdir(parent):
            missing.append(parent)
            parent = os.path.dirname(parent)
        if missing:
            os.makedirs(missing[0], exist_ok=True)
            self.dirs.extend(reversed(missing))
        self.paths.append(p)
        return p

    def cleanup(self):
        # a removal that fails (a file never written, a directory that is
        # not empty) is skipped
        for remove, paths in ((os.remove, self.paths),
                              (os.rmdir, self.dirs[::-1])):
            for p in paths:
                with contextlib.suppress(OSError):
                    remove(p)


def _require_file(path, what):
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _json_report(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _int_list(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _name_list(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


# flag names that differ from their field, and the two missing defaults
_FLAG_DESTS = {"n_iters": "iters", "reservoir_size": "reservoir"}
_CLI_DEFAULTS = {"t_max": 16, "count": 1000}
_LIST_TYPES = {"dilations": _int_list, "conditions": _name_list}


def _add_config_flags(parser, cls):
    """One flag per field of ``cls`` but ``seed`` (``build_parser`` adds it),
    so each default lives only there; a ``None`` default takes an int."""
    for f in fields(cls):
        if f.name == "seed":
            continue
        default = _CLI_DEFAULTS[f.name] if f.default is MISSING else f.default
        kind = int if default is None else type(default)
        flag = "--" + _FLAG_DESTS.get(f.name, f.name).replace("_", "-")
        parser.add_argument(flag, type=_LIST_TYPES.get(f.name, kind),
                            default=default)


def _config(cls, args, **given):
    """``cls`` from ``given`` and, for every other field, its flag."""
    return cls(**given, **{
        f.name: getattr(args, _FLAG_DESTS.get(f.name, f.name))
        for f in fields(cls) if f.name not in given})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, out):
    spec = sim.default_toy_spec(
        n_records=args.n_records, n_conditions=args.n_conditions,
        len_min=args.len_min, len_max=args.len_max,
        structure_seed=args.structure_seed)
    cohort = sim.simulate_toy_cohort(spec, args.seed)
    cohort.extra = {"config_digest": config_digest(args), "seed": args.seed}
    save_cohort(out.path(args.out), cohort)
    return 0


def cmd_preprocess(args, out):
    cohort = load_cohort(_require_file(args.input, "input cohort"))
    vocab = build_visit_vocab(cohort, max_size=args.max_vocab)
    processed = replace_rare_visits(cohort, vocab)
    processed.extra = {"config_digest": config_digest(args),
                       **processed.extra}
    save_cohort(out.path(args.out_cohort), processed)
    return 0


def _preprocessed(path, what):
    cohort = load_cohort(_require_file(path, what))
    if cohort.vocab is None:
        raise ConfigError(f"{path}: a raw cohort, with no vocabulary; "
                          "run ehrgen preprocess on it first")
    return cohort


def cmd_train(args, out):
    cohort = _preprocessed(args.cohort, "cohort")
    config = _config(TrainConfig, args)
    dec_cfg = _config(DecoderConfig, args)
    batch = encode_cohort(cohort, cohort.vocab, args.t_max)

    digest = config_digest(args)
    metrics_fh = None
    metrics_sink = None
    if args.metrics:
        metrics_fh = open(out.path(args.metrics), "w")
        metrics_fh.write(json.dumps(
            {"schema": "metrics/1", "config_digest": digest,
             "seed": args.seed}) + "\n")

        def metrics_sink(it, report):
            metrics_fh.write(json.dumps(
                {"iteration": it, **asdict(report)}) + "\n")

    try:
        model = trainer.train(config, batch, cohort.vocab,
                              condition_names=cohort.condition_names,
                              dec_cfg=dec_cfg, metrics_sink=metrics_sink)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    # encode_cohort cuts records longer than --t-max; the count says how many
    truncated = sum(len(r.visits) > args.t_max for r in cohort.records)
    model.extra = {"config_digest": digest, "seed": args.seed,
                   "truncated_records": truncated}
    model.save(out.path(args.out))
    return 0


def cmd_generate(args, out):
    model = TrainedModel.load(_require_file(args.model, "model checkpoint"))
    cohort = generator.generate_cohort(model, _config(GenerationRequest, args))
    cohort.extra = {"config_digest": config_digest(args), "seed": args.seed,
                    **cohort.extra}
    save_cohort(out.path(args.out), cohort)
    return 0


def cmd_evaluate(args, out):
    if any(k < 1 for k in args.topk):
        raise ConfigError(f"--topk values must be >= 1, got {args.topk}")
    real = load_cohort(_require_file(args.real, "real cohort"))
    synth = _preprocessed(args.synthetic, "synthetic cohort")
    if real.vocab is None:  # a raw real cohort is read in the synthetic ids
        real.vocab = synth.vocab
    model = (TrainedModel.load(_require_file(args.model, "model"))
             if args.model else None)
    metrics = ev.report(real, synth, model=model, topk=args.topk,
                        seed=args.seed)

    digest = config_digest(args)
    if args.scatter_out:
        uni_r, uni_s = ev.ngram_stats(real, 1), ev.ngram_stats(synth, 1)
        with open(out.path(args.scatter_out), "w") as fh:
            fh.write(f"# unigram scatter\tconfig_digest={digest}"
                     f"\tseed={args.seed}\n")
            fh.write("token\tfreq_real\tfreq_synth\n")
            for key in sorted(set(uni_r.freqs) | set(uni_s.freqs)):
                fh.write(f"{key}\t{uni_r.freqs.get(key, 0.0)}"
                         f"\t{uni_s.freqs.get(key, 0.0)}\n")
    _json_report(out.path(args.out), {
        "schema": "eval/1", "config_digest": digest, "seed": args.seed,
        "metrics": metrics,
    })
    return 0


def cmd_attack(args, out):
    if args.n_known < 2:
        raise ConfigError(f"--n-known must be >= 2, got {args.n_known}")
    synth = load_cohort(_require_file(args.synthetic, "synthetic cohort"))
    members = load_cohort(_require_file(args.train_cohort, "training cohort"))
    outsiders = load_cohort(
        _require_file(args.holdout_cohort, "holdout cohort"))
    rng = np.random.default_rng(args.seed)
    n_in = min(args.n_known // 2, len(members.records))
    n_out = min(args.n_known - n_in, len(outsiders.records))
    if n_in == 0 and n_out == 0:
        raise ConfigError("no known records available")
    known = [
        (members.records[i], True)
        for i in rng.choice(len(members.records), size=n_in, replace=False)
    ] + [
        (outsiders.records[i], False)
        for i in rng.choice(len(outsiders.records), size=n_out,
                            replace=False)
    ]
    outcome = ev.presence_disclosure(synth, known)
    _json_report(out.path(args.out), {
        "schema": "attack/2", "config_digest": config_digest(args),
        "seed": args.seed, "n_known_in_training": n_in,
        "n_known_outside": n_out, "outcome": asdict(outcome),
    })
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="ehrgen",
                     description="Synthetic EHR sequence modeling pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, fn, help_):
        # no abbreviations: a prefix of a deleted flag must not set another
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(func=fn)
        subparsers[name] = p
        return p

    p = add("simulate", cmd_simulate, "write a toy ground-truth cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--n-records", type=int, default=2000)
    p.add_argument("--n-conditions", type=int, default=4)
    p.add_argument("--len-min", type=int, default=6)
    p.add_argument("--len-max", type=int, default=16)
    p.add_argument("--structure-seed", type=int, default=7)

    p = add("preprocess", cmd_preprocess,
            "build the visit vocabulary and map rare visits into it")
    p.add_argument("--input", required=True)
    p.add_argument("--out-cohort", required=True)
    p.add_argument("--max-vocab", type=int, default=50000)

    p = add("train", cmd_train, "fit a model on an encoded cohort")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    _add_config_flags(p, TrainConfig)
    _add_config_flags(p, DecoderConfig)

    p = add("generate", cmd_generate, "sample a synthetic cohort")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, GenerationRequest)

    p = add("evaluate", cmd_evaluate, "compare two cohorts (and a model)")
    p.add_argument("--real", required=True)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--scatter-out", default=None)
    p.add_argument("--topk", type=_int_list, default=())

    p = add("attack", cmd_attack, "presence-disclosure report")
    p.add_argument("--synthetic", required=True)
    p.add_argument("--train-cohort", required=True)
    p.add_argument("--holdout-cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-known", type=int, default=100)

    # preprocessing draws no random numbers, so it takes no seed
    for name in ("simulate", "train", "generate", "evaluate", "attack"):
        subparsers[name].add_argument("--seed", type=int, default=0)
    return parser, subparsers


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, _ = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        return _fail(1, exc)

    outputs = _Outputs()
    try:
        return args.func(args, outputs)
    except (ConfigError, ValueError) as exc:
        outputs.cleanup()
        return _fail(1, exc)
    except (ArithmeticError, RuntimeError, OSError) as exc:
        outputs.cleanup()
        return _fail(2, exc)


if __name__ == "__main__":
    sys.exit(main())
