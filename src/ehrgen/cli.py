"""Command-line pipeline: simulate -> preprocess -> train -> generate ->
evaluate / attack.

Every artifact embeds the sha256 digest of the effective configuration plus
the seed, so identical invocations produce identical files. Config files are
flat ``key=value`` lines (``#`` comments allowed) with a ``schema_version``
entry; command-line flags override file values. Exit codes: 0 success,
1 configuration error, 2 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

# Thread override must land before numpy initializes its BLAS thread pools,
# which is why this module avoids importing the numeric stack at top level.
_threads = os.environ.get("EHRGEN_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

CONFIG_SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "EHRGEN_OUTPUT_DIR"


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
# config files and digests
# ---------------------------------------------------------------------------

def parse_config_file(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    version = values.pop("schema_version", None)
    if version is None:
        raise ConfigError(f"{path}: missing schema_version")
    if version != str(CONFIG_SCHEMA_VERSION):
        raise ConfigError(f"{path}: unsupported schema_version {version}")
    return values


def _apply_config_defaults(subparser, values):
    """Convert file values with each flag's own type and install them as
    defaults, so explicit flags still win on the re-parse."""
    actions = {a.dest: a for a in subparser._actions}
    converted = {}
    for key, raw in values.items():
        if key not in actions:
            raise ConfigError(f"unknown config key: {key}")
        action = actions[key]
        if isinstance(action, (argparse._StoreTrueAction,
                               argparse._StoreFalseAction)):
            if raw.lower() not in ("true", "false", "1", "0"):
                raise ConfigError(f"config key {key}: expected a boolean")
            converted[key] = raw.lower() in ("true", "1")
        elif action.type is not None:
            try:
                converted[key] = action.type(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        else:
            converted[key] = raw
    subparser.set_defaults(**converted)


def config_digest(args):
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "config")}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------

def _resolve_out(path):
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


class _Outputs:
    """Registry of files the running command intends to write; on failure
    everything registered is removed so no partial artifacts survive."""

    def __init__(self):
        self.paths = []

    def path(self, p):
        resolved = _resolve_out(p)
        self.paths.append(resolved)
        return resolved

    def cleanup(self):
        for p in self.paths:
            try:
                if os.path.exists(p):
                    os.remove(p)
            except OSError:
                pass


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, out):
    from . import simulate as sim
    from .corpus import save_cohort

    spec = sim.default_toy_spec(
        n_records=args.n_records, n_conditions=args.n_conditions,
        len_min=args.len_min, len_max=args.len_max,
        structure_seed=args.structure_seed)
    cohort = sim.simulate_toy_cohort(spec, args.seed)
    save_cohort(out.path(args.out), cohort,
                meta={"config_digest": config_digest(args),
                      "seed": args.seed})
    return 0


def cmd_preprocess(args, out):
    from .corpus import (build_visit_vocab, load_cohort,
                         replace_rare_visits, save_cohort, save_vocab)

    cohort = load_cohort(_require_file(args.input, "input cohort"))
    vocab = build_visit_vocab(cohort, max_size=args.max_vocab)
    processed = replace_rare_visits(cohort, vocab)
    digest = config_digest(args)
    save_vocab(out.path(args.out_vocab), vocab,
               meta={"config_digest": digest, "seed": 0})
    save_cohort(out.path(args.out_cohort), processed,
                meta={"config_digest": digest, "seed": 0})
    return 0


def cmd_train(args, out):
    import numpy as np

    from . import _nn
    from .corpus import encode_cohort, load_cohort, load_vocab
    from .decoder import DecoderConfig
    from .trainer import TrainConfig, train

    cohort = load_cohort(_require_file(args.cohort, "cohort"))
    vocab = load_vocab(_require_file(args.vocab, "vocabulary"))
    try:
        config = TrainConfig(
            variant=args.variant, latent_dim=args.latent_dim,
            n_iters=args.iters, minibatch=args.minibatch,
            lr_phi=args.lr_phi, lr_global=args.lr_global,
            psgld_alpha=args.psgld_alpha, psgld_lambda=args.psgld_lambda,
            temperature=args.temperature, burn_in=args.burn_in,
            thin=args.thin, reservoir_size=args.reservoir,
            clip_norm=args.clip_norm, embed_dim=args.embed_dim,
            hidden=args.hidden, cond_hidden=args.cond_hidden,
            tau=args.tau, gamma=args.gamma, log_every=args.log_every,
            seed=args.seed)
        dec_cfg = DecoderConfig(
            vocab_size=vocab.size, latent_dim=args.latent_dim,
            t_max=args.t_max, channels=args.channels, kernel=args.kernel,
            dilations=args.dilations, n_upsample=args.n_upsample)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    batch = encode_cohort(cohort, vocab, args.t_max)

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
                {"iteration": it, **report.as_dict()}) + "\n")

    checkpoint_fn = None
    if args.checkpoint_dir:
        ckpt_dir = _resolve_out(os.path.join(args.checkpoint_dir, "x"))
        ckpt_dir = os.path.dirname(ckpt_dir)
        os.makedirs(ckpt_dir, exist_ok=True)

        def checkpoint_fn(it, snapshot):
            arrays = {p: a for p, a in _nn.iter_arrays(snapshot)}
            np.savez(os.path.join(ckpt_dir, f"snapshot_{it:07d}.npz"),
                     meta=np.array(json.dumps(
                         {"iteration": it, "config_digest": digest,
                          "seed": args.seed})),
                     **arrays)

    try:
        model = train(config, batch, vocab,
                      condition_names=cohort.condition_names,
                      dec_cfg=dec_cfg, metrics_sink=metrics_sink,
                      checkpoint_fn=checkpoint_fn)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    model.extra = {"config_digest": digest, "seed": args.seed}
    model.save(out.path(args.out))
    return 0


def cmd_generate(args, out):
    from .corpus import save_cohort
    from .generator import GenerationRequest, generate_cohort
    from .model import TrainedModel

    model = TrainedModel.load(_require_file(args.model, "model checkpoint"))
    try:
        request = GenerationRequest(
            count=args.count, mode=args.mode, conditions=args.conditions,
            temperature=args.temperature, t_max=args.t_max, seed=args.seed,
            policy=args.policy)
        cohort = generate_cohort(model, request)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    save_cohort(out.path(args.out), cohort,
                meta={"config_digest": config_digest(args),
                      "seed": args.seed})
    return 0


def cmd_evaluate(args, out):
    from . import evaluation as ev
    from .corpus import load_cohort, load_vocab

    real = load_cohort(_require_file(args.real, "real cohort"))
    synth = load_cohort(_require_file(args.synthetic, "synthetic cohort"))
    vocab = load_vocab(_require_file(args.vocab, "vocabulary"))
    real.vocab = vocab
    synth.vocab = vocab

    metrics = {}
    uni_r = ev.ngram_stats(real, 1)
    uni_s = ev.ngram_stats(synth, 1)
    bi_r = ev.ngram_stats(real, 2)
    bi_s = ev.ngram_stats(synth, 2)
    metrics["unigram_pearson"] = ev.pearson_marginal(uni_r, uni_s)
    metrics["bigram_pearson"] = ev.pearson_marginal(bi_r, bi_s)
    metrics["bigram_pearson_indep_baseline"] = ev.pearson_marginal(
        bi_r, ev.independent_bigram_baseline(uni_r))
    jac_r, used_r, skip_r = ev.avg_jaccard_counts(real)
    jac_s, used_s, skip_s = ev.avg_jaccard_counts(synth)
    metrics["jaccard_real"] = jac_r
    metrics["jaccard_synthetic"] = jac_s
    metrics["jaccard_records_used"] = {"real": used_r, "synthetic": used_s}
    metrics["jaccard_records_skipped"] = {"real": skip_r,
                                          "synthetic": skip_s}
    metrics["unique_token_ratio_real"] = ev.unique_token_ratio(real)
    metrics["unique_token_ratio_synthetic"] = ev.unique_token_ratio(synth)

    if args.model:
        from .model import TrainedModel

        model = TrainedModel.load(_require_file(args.model, "model"))
        _, test = ev.split_cohort(real, test_frac=args.test_frac,
                                  seed=args.seed)
        metrics["elbo_holdout"] = ev.elbo_holdout(model, test)

    if args.topk:
        train_r, test_r = ev.split_cohort(real, test_frac=args.test_frac,
                                          seed=args.seed)
        pred_real = ev.train_next_visit_predictor(train_r, seed=args.seed)
        pred_synth = ev.train_next_visit_predictor(synth, seed=args.seed)
        for k in args.topk:
            metrics[f"top{k}_recall_real_trained"] = ev.topk_recall(
                pred_real, test_r, k)
            metrics[f"top{k}_recall_synth_trained"] = ev.topk_recall(
                pred_synth, test_r, k)

    digest = config_digest(args)
    if args.scatter_out:
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
    import numpy as np

    from . import evaluation as ev
    from .corpus import load_cohort

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
    outcome = ev.presence_disclosure(synth, known,
                                     order_sensitive=args.order_sensitive)
    _json_report(out.path(args.out), {
        "schema": "attack/1", "config_digest": config_digest(args),
        "seed": args.seed, "n_known_in_training": n_in,
        "n_known_outside": n_out, "outcome": outcome.as_dict(),
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
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None,
                       help="key=value config file; flags override")
        p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--out-vocab", required=True)
    p.add_argument("--max-vocab", type=int, default=50000)

    p = add("train", cmd_train, "fit a model on an encoded cohort")
    p.add_argument("--cohort", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--variant", choices=("eva", "evac"), default="eva")
    p.add_argument("--t-max", type=int, default=16)
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--channels", type=int, default=48)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--dilations", type=_int_list, default=(1, 2, 4))
    p.add_argument("--n-upsample", type=int, default=2)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--minibatch", type=int, default=32)
    p.add_argument("--lr-phi", type=float, default=1e-3)
    p.add_argument("--lr-global", type=float, default=1e-3)
    p.add_argument("--psgld-alpha", type=float, default=0.99)
    p.add_argument("--psgld-lambda", type=float, default=1e-5)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thin", type=int, default=200)
    p.add_argument("--reservoir", type=int, default=10)
    p.add_argument("--clip-norm", type=float, default=10.0)
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--cond-hidden", type=int, default=32)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--log-every", type=int, default=50)

    p = add("generate", cmd_generate, "sample a synthetic cohort")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--mode", choices=("unconditional", "conditional"),
                   default="unconditional")
    p.add_argument("--conditions", type=_name_list, default=())
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--policy", choices=("ensemble", "point"),
                   default="ensemble")

    p = add("evaluate", cmd_evaluate, "compare two cohorts (and a model)")
    p.add_argument("--real", required=True)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--scatter-out", default=None)
    p.add_argument("--topk", type=_int_list, default=())
    p.add_argument("--test-frac", type=float, default=0.2)

    p = add("attack", cmd_attack, "presence-disclosure report")
    p.add_argument("--synthetic", required=True)
    p.add_argument("--train-cohort", required=True)
    p.add_argument("--holdout-cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-known", type=int, default=100)
    p.add_argument("--order-sensitive", action="store_true")

    return parser, subparsers


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config_defaults(subparsers[args.command],
                                   parse_config_file(args.config))
            args = parser.parse_args(argv)
    except ConfigError as exc:
        return _fail(1, exc)

    outputs = _Outputs()
    try:
        return args.func(args, outputs)
    except ConfigError as exc:
        outputs.cleanup()
        return _fail(1, exc)
    except ValueError as exc:
        outputs.cleanup()
        return _fail(1, exc)
    except (ArithmeticError, RuntimeError) as exc:
        outputs.cleanup()
        return _fail(2, exc)
    except OSError as exc:
        outputs.cleanup()
        return _fail(2, exc)


if __name__ == "__main__":
    sys.exit(main())
