"""One pass of the ehrgen user pipeline, with output checks.

A pass preprocesses the simulated cohort, trains, saves the model, loads it
back and generates synthetic cohorts, then computes the evaluation metric
set. Every call into ehrgen goes through a module attribute looked up at
call time, so a tracer that patches those attributes sees it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ehrgen import corpus, evaluation, generator, simulate, trainer
from ehrgen import model as model_mod

import hostspeed
from stats import tail_percentile
from workloads import KNOWN_PER_SIDE, PREDICTOR_EPOCHS, TOPK, WARMUP_ITERS

PEARSON_TOL = 1e-9


@dataclass(frozen=True)
class Seeds:
    simulate: int
    train: int
    generate: int
    split: int
    predictor: int
    condition: int  # index of the case condition for case/control runs

    @classmethod
    def derive(cls, seed):
        s = [int(v) for v in np.random.SeedSequence(seed).generate_state(6)]
        return cls(simulate=s[0], train=s[1], generate=s[2], split=s[3],
                   predictor=s[4], condition=s[5])


@dataclass
class Samples:
    """Timed samples of one stage: wall seconds, and the same scaled to the
    nominal host speed."""

    wall: list = field(default_factory=list)
    scaled: list = field(default_factory=list)

    def add(self, wall, factor):
        self.wall.append(wall)
        self.scaled.append(wall * factor)

    def extend(self, other, skip=0):
        self.wall.extend(other.wall[skip:])
        self.scaled.extend(other.scaled[skip:])


@dataclass
class Ops:
    """Output checks: each one is an operation, failed when it does not hold."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def make_inputs(workload, seeds):
    spec = simulate.default_toy_spec(**workload.spec)
    return simulate.simulate_toy_cohort(spec, seed=seeds.simulate)


def run_pass(workload, plan, seeds, raw, model_path, ops, tracer=None):
    """Run the pipeline once per round; returns a dict of measurements.

    Every round preprocesses, trains, saves, loads and generates; the rounds
    of ``plan.eval_rounds()`` also evaluate. Each timed repetition starts
    from a collected heap, so a garbage collection owed by earlier work does
    not land in one repetition and not another, and is probed with the
    host-speed reference before, during and after (see hostspeed.py): every
    timing is kept both as wall time and scaled to the nominal host speed.

    With a tracer, the pass first re-runs the setup inside a traced phase so
    the simulator's layer times are recorded too.
    """
    walls = {}

    @contextlib.contextmanager
    def phase(name):
        scope = tracer.phase(name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            yield
        walls[name] = walls.get(name, 0.0) + time.perf_counter() - t0

    def timed(fn, samples):
        gc.collect()
        before = hostspeed.probe()
        with hostspeed.Sampler() as inside:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0 - inside.spent
        samples.add(wall, hostspeed.scale(before, *inside.probes,
                                          hostspeed.probe()))
        return result

    if tracer is not None:
        with phase("setup"):
            raw = make_inputs(workload, seeds)

    out = {"walls": walls, "complete": False}
    prep, iters, gen, ev = Samples(), Samples(), Samples(), Samples()
    trajectories, synths, qualities = [], [], []
    eval_rounds = plan.eval_rounds()
    for rnd in range(plan.rounds):
        with phase("preprocess"):
            for _ in range(plan.preprocess_reps):
                vocab, prepped, batch = timed(
                    lambda: _preprocess(workload, raw), prep)

        if rnd == 0:
            distinct = {corpus.visit_key(v)
                        for rec in raw.records for v in rec.visits}
            out["rare_visit_types"] = sum(
                vocab.token_of(k) is None for k in distinct)
            train_rows, test_rows = _split_rows(
                len(prepped.records), workload.test_frac, seeds.split)

        with phase("train"):
            trained, round_iters, objective = _train(
                workload, plan, seeds, vocab, prepped,
                batch.take(train_rows), ops)
            if trained is not None:
                trained.save(model_path)
        iters.extend(round_iters, skip=WARMUP_ITERS)
        trajectories.append(objective)
        if trained is None:
            return out

        with phase("generate"):
            def generate():
                model = model_mod.TrainedModel.load(model_path)
                return model, _generate(workload, model, plan.gen_count,
                                        seeds.generate + rnd, seeds.condition)
            loaded, synth = timed(generate, gen)
            synths.append(synth)

        if rnd in eval_rounds:
            real_train = _subcohort(prepped, train_rows)
            real_test = _subcohort(prepped, test_rows)
            with phase("evaluate"):
                quality = timed(lambda: _evaluate(
                    prepped, real_train, real_test, synth, loaded,
                    seeds.predictor), ev)
            _check_quality(quality, prepped, synth, vocab, ops)
            qualities.append(quality)

    # same data, seed and iterations: every round trains the same model
    for it, value in enumerate(trajectories[0]):
        ops.check(math.isfinite(value), f"objective non-finite at {it}")
    ops.check(all(t == trajectories[0] for t in trajectories),
              "training differs between rounds with the same seed")
    out["objective_digest"] = _digest(np.asarray(trajectories[0]))
    out["final_objective"] = trajectories[0][-1]
    # The stage metrics below are means, not medians: where a sample's
    # probes do not follow the host all the way, a median of samples from
    # two speed levels jumps from one level to the other as the run's share
    # of slow time crosses a half, where a mean moves in proportion.
    clock = out["wall_clock"] = {}
    for key, values in (("scaled", out), ("wall", clock)):
        ms = [1e3 * t for t in getattr(iters, key)]
        values["train_ms_per_iter"] = float(np.median(ms))
        values["train_ms_per_iter_p90"] = float(tail_percentile(ms, 0.9))
        values["preprocess_s"] = statistics.fmean(getattr(prep, key))
    out["samples"] = {"train_iter_s": vars(iters), "preprocess_s": vars(prep),
                      "generate_s": vars(gen), "evaluate_s": vars(ev)}

    t_cap = min(loaded.dec_cfg.t_max, workload.t_max)
    token_rows = []
    for synth in synths:
        for rec in synth.records:
            toks = [vocab.token_of(v) for v in rec.visits]
            ok = (1 <= len(toks) <= t_cap
                  and all(t is not None and 0 <= t < vocab.n_entries
                          for t in toks))
            ops.check(ok, f"generated record {rec.id} invalid")
            token_rows.append([-1 if t is None else t for t in toks])
    out["generate_records_per_s"] = len(token_rows) / sum(gen.scaled)
    clock["generate_records_per_s"] = len(token_rows) / sum(gen.wall)
    out["generated_records"] = len(token_rows)
    out["generated_visits"] = sum(len(r) for r in token_rows)
    out["tokens_digest"] = _digest(np.concatenate(
        [np.asarray(r + [-1], dtype=np.int64) for r in token_rows]))

    out["evaluate_s"] = statistics.fmean(ev.scaled)
    clock["evaluate_s"] = statistics.fmean(ev.wall)
    out["quality"] = qualities
    out["complete"] = True
    return out


def _preprocess(workload, raw):
    vocab = corpus.build_visit_vocab(raw, workload.max_vocab)
    prepped = corpus.replace_rare_visits(raw, vocab)
    batch = corpus.encode_cohort(prepped, vocab, workload.t_max)
    return vocab, prepped, batch


def _train(workload, plan, seeds, vocab, prepped, train_batch, ops):
    """(model or None if training diverged, iteration samples, objective).

    Each ``metrics_sink`` call ends an iteration and probes the host-speed
    reference before the next one starts, so every iteration but the first,
    whose start the sink does not see, lies between two probes."""
    samples, objective = Samples(), []
    last = {}  # probe after the previous iteration, and when the next began

    def sink(iteration, report):
        ended = time.perf_counter()
        objective.append(report.total)
        after = hostspeed.probe()
        if last:
            samples.add(ended - last["resumed"],
                        hostspeed.scale(last["probe"], after))
        last["probe"] = after
        last["resumed"] = time.perf_counter()

    config = trainer.TrainConfig(
        variant=workload.variant, latent_dim=16, n_iters=plan.train_iters,
        minibatch=32, lr_global=2e-3, temperature=1.0, clip_norm=1e4,
        hidden=64, burn_in=plan.train_iters // 2,
        thin=max(1, (plan.train_iters - plan.train_iters // 2) // 5),
        reservoir_size=10, seed=seeds.train)
    trained = diverged_at = None
    try:
        trained = trainer.train(config, train_batch, vocab,
                                condition_names=prepped.condition_names,
                                metrics_sink=sink)
    except trainer.TrainingDiverged as exc:
        diverged_at = exc.iteration
    ops.check(diverged_at is None,
              f"training diverged at iteration {diverged_at}")
    return trained, samples, objective


def _check_quality(quality, real, synth, vocab, ops):
    elbo = quality["elbo_holdout"]
    ops.check(math.isfinite(elbo) and elbo <= 0.0,
              f"elbo_holdout {elbo!r} not finite and <= 0")
    for name, value in reference_pearsons(real, synth, vocab).items():
        ops.check(abs(quality[name] - value) <= PEARSON_TOL,
                  f"{name}: {quality[name]!r} vs recomputed {value!r}")


def _generate(workload, model, count, seed, condition_seed):
    if workload.case_control:
        names = [c for c in model.condition_names if c != generator.BACKGROUND]
        cases, controls = generator.generate_case_control(
            model, names[condition_seed % len(names)], count // 2,
            count - count // 2, seed=seed)
        return corpus.Cohort(records=cases.records + controls.records,
                             condition_names=list(model.condition_names),
                             vocab=model.vocab)
    return generator.generate_cohort(model, generator.GenerationRequest(
        count=count, t_max=workload.t_max, seed=seed))


def _evaluate(real, real_train, real_test, synth, model, seed):
    """The ``ehrgen evaluate`` metric set plus presence disclosure."""
    ev = evaluation
    uni_r, uni_s = ev.ngram_stats(real, 1), ev.ngram_stats(synth, 1)
    bi_r, bi_s = ev.ngram_stats(real, 2), ev.ngram_stats(synth, 2)
    q = {
        "unigram_pearson": ev.pearson_marginal(uni_r, uni_s),
        "bigram_pearson": ev.pearson_marginal(bi_r, bi_s),
        "bigram_pearson_indep_baseline": ev.pearson_marginal(
            bi_r, ev.independent_bigram_baseline(uni_r)),
        "jaccard_real": ev.avg_jaccard_counts(real)[0],
        "jaccard_synthetic": ev.avg_jaccard_counts(synth)[0],
        "unique_token_ratio_real": ev.unique_token_ratio(real),
        "unique_token_ratio_synthetic": ev.unique_token_ratio(synth),
        "elbo_holdout": ev.elbo_holdout(model, real_test),
    }
    pred_real = ev.train_next_visit_predictor(real_train, seed=seed,
                                              epochs=PREDICTOR_EPOCHS)
    pred_synth = ev.train_next_visit_predictor(synth, seed=seed,
                                               epochs=PREDICTOR_EPOCHS)
    q[f"top{TOPK}_recall_real_trained"] = ev.topk_recall(
        pred_real, real_test, TOPK)
    q[f"top{TOPK}_recall_synth_trained"] = ev.topk_recall(
        pred_synth, real_test, TOPK)
    known = ([(r, True) for r in real_train.records[:KNOWN_PER_SIDE]]
             + [(r, False) for r in real_test.records[:KNOWN_PER_SIDE]])
    attack = ev.presence_disclosure(synth, known)
    q["presence_sensitivity"] = attack.sensitivity
    q["presence_precision"] = attack.precision
    return q


# ---------------------------------------------------------------------------
# independent recomputation of the marginal Pearson metrics
# ---------------------------------------------------------------------------

def reference_pearsons(real, synth, vocab):
    """Unigram, bigram and independence-baseline Pearson from token-id
    arrays, without ehrgen's n-gram code.

    The baseline table f(a) f(b) covers every pair of the real unigram
    support S, and every real bigram lies in S x S, so the correlation over
    the union of keys has a closed form in the unigram vector u and the
    bigram matrix X (n = |S|^2, both tables sum to 1):

        r = (u'Xu - 1/n) / sqrt((sum X^2 - 1/n) ((sum u^2)^2 - 1/n))
    """
    V = vocab.size
    u_r, x_r = _ngram_counts(real, vocab)
    u_s, x_s = _ngram_counts(synth, vocab)
    u = u_r / u_r.sum()
    X = x_r / x_r.sum()
    n = float(np.count_nonzero(u)) ** 2
    num = u @ X.reshape(V, V) @ u - 1.0 / n
    den = math.sqrt((np.sum(X * X) - 1.0 / n) * (np.sum(u * u) ** 2 - 1.0 / n))
    return {
        "unigram_pearson": _pearson_union(u_r, u_s),
        "bigram_pearson": _pearson_union(x_r, x_s),
        "bigram_pearson_indep_baseline": float(num / den),
    }


def _ngram_counts(cohort, vocab):
    """Unigram counts (V,) and flattened bigram counts (V * V,)."""
    V = vocab.size
    singles, pairs = [], []
    for rec in cohort.records:
        ids = np.fromiter((vocab.token_of(v) for v in rec.visits),
                          dtype=np.int64, count=len(rec.visits))
        singles.append(ids)
        pairs.append(ids[:-1] * V + ids[1:])
    uni = np.bincount(np.concatenate(singles), minlength=V)
    bi = np.bincount(np.concatenate(pairs), minlength=V * V)
    return uni.astype(float), bi.astype(float)


def _pearson_union(a, b):
    keep = (a > 0) | (b > 0)
    return float(np.corrcoef(a[keep] / a.sum(), b[keep] / b.sum())[0, 1])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _split_rows(n, test_frac, seed):
    order = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(test_frac * n)))
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _subcohort(cohort, rows):
    return corpus.Cohort(records=[cohort.records[i] for i in rows],
                         condition_names=list(cohort.condition_names),
                         vocab=cohort.vocab)


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]
