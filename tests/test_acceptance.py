"""Shipping gate: one test per acceptance criterion.

Each test prints a single ``criterion NN ... PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output on failure) and then asserts. The
two model-quality criteria share one trained model per variant through
module-scoped fixtures, so the whole file stays inside the stated runtime
budgets on a single CPU.
"""

import itertools
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import logit

from ehrgen import _nn
from ehrgen import evaluation as ev
from ehrgen.corpus import build_visit_vocab, encode_cohort, replace_rare_visits
from ehrgen.decoder import (
    DecoderConfig,
    decode_logits,
    init_decoder_params,
    ll_and_grads,
    sequence_log_likelihood,
)
from ehrgen.encoders import DiagGaussian, poe_combine
from ehrgen.generator import (
    GenerationRequest,
    generate_case_control,
    generate_cohort,
)
from ehrgen.latent import latent_log_density_grads
from ehrgen.simulate import condition_codes, default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import (
    SamplerState,
    TrainConfig,
    build_parts,
    draw_local_noises,
    entropy_diag_gaussian,
    init_phi,
    kl_diag_gaussians,
    psgld_step,
    step_gradients,
    train,
)

from oracles import numerical_grad, numerical_grad_tree, rel_err


def report(num, name, ok, detail):
    line = f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def tiny_setup(variant, seed=0, n=6, t_max=4):
    """Small real batch plus freshly initialized parameters for FD work."""
    spec = default_toy_spec(n_records=n, background_groups=3,
                            groups_per_condition=2, len_min=2, len_max=4)
    cohort = simulate_toy_cohort(spec, seed=seed)
    vocab = build_visit_vocab(cohort, max_size=32)
    batch = encode_cohort(cohort, vocab, t_max=t_max)
    cfg = TrainConfig(variant=variant, latent_dim=3, embed_dim=4, hidden=5,
                      cond_hidden=4, seed=seed)
    dec = DecoderConfig(vocab_size=vocab.size, latent_dim=3, t_max=t_max,
                        channels=4, kernel=2, dilations=(1, 2), n_upsample=1)
    parts = build_parts(cfg, vocab.size, batch.conditions.shape[1], t_max, dec)
    rng = np.random.default_rng(seed + 5)
    theta = init_decoder_params(dec, rng)
    H = None
    if variant == "evac":
        H = 0.1 * rng.standard_normal((3, batch.conditions.shape[1]))
    phi = init_phi(parts, rng)
    return batch, parts, theta, H, phi, dec


# ---------------------------------------------------------------------------
# shared toy pipeline (criteria 6-11)
# ---------------------------------------------------------------------------

TOY_TRAIN = dict(latent_dim=16, n_iters=3000, minibatch=32, lr_global=2e-3,
                 temperature=1.0, clip_norm=1e4, burn_in=600, thin=260,
                 reservoir_size=10, log_every=25, seed=3)


@pytest.fixture(scope="module")
def toy():
    spec = default_toy_spec()
    real = simulate_toy_cohort(spec, seed=101)
    vocab = build_visit_vocab(real, max_size=128)
    prepped = replace_rare_visits(real, vocab)
    batch = encode_cohort(prepped, vocab, t_max=16)
    return {"spec": spec, "prepped": prepped, "vocab": vocab, "batch": batch}


@pytest.fixture(scope="module")
def eva_run(toy):
    t0 = time.time()
    model = train(TrainConfig(variant="eva", **TOY_TRAIN), toy["batch"],
                  toy["vocab"], condition_names=toy["prepped"].condition_names)
    train_secs = time.time() - t0
    t0 = time.time()
    synth = generate_cohort(model, GenerationRequest(count=2000, seed=7))
    gen_secs = time.time() - t0
    return {"model": model, "synth": synth, "train_secs": train_secs,
            "gen_secs": gen_secs}


@pytest.fixture(scope="module")
def evac_run(toy):
    t0 = time.time()
    model = train(TrainConfig(variant="evac", **TOY_TRAIN), toy["batch"],
                  toy["vocab"], condition_names=toy["prepped"].condition_names)
    return {"model": model, "train_secs": time.time() - t0}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_correctness():
    """poe_combine / kl / entropy / latent density vs independent oracles."""
    t0 = time.time()
    errs = {}

    # product of experts vs normalized grid product of the two densities
    x = np.linspace(-15.0, 15.0, 300_001)
    cases = [((0.0, 1.0), (0.0, 1.0)), ((1.5, 0.5), (-2.0, 3.0)),
             ((-0.7, 4.0), (0.9, 0.08))]
    worst = 0.0
    for (m1, v1), (m2, v2) in cases:
        out = poe_combine(DiagGaussian(np.array([m1]), np.array([v1])),
                          DiagGaussian(np.array([m2]), np.array([v2])))
        w = np.exp(-0.5 * (x - m1) ** 2 / v1 - 0.5 * (x - m2) ** 2 / v2)
        w /= np.trapezoid(w, x)
        mean = np.trapezoid(x * w, x)
        var = np.trapezoid((x - mean) ** 2 * w, x)
        worst = max(worst, abs(out.mean[0] - mean), abs(out.var[0] - var))
    errs["poe(grid)"] = worst

    # KL and entropy vs Monte Carlo under q
    rng = np.random.default_rng(11)
    q = DiagGaussian(np.array([[0.4, -1.2, 2.0]]),
                     np.array([[0.6, 1.8, 0.25]]))
    pm, pv = np.array([0.0, 0.5, -1.0]), 2.5  # isotropic prior
    draws = q.mean + np.sqrt(q.var) * rng.standard_normal((400_000, 3))
    lnq = (-0.5 * ((draws - q.mean) ** 2 / q.var + np.log(2 * np.pi * q.var))).sum(axis=1)
    lnp = (-0.5 * ((draws - pm) ** 2 / pv + np.log(2 * np.pi * pv))).sum(axis=1)
    kl_mc = float(np.mean(lnq - lnp))
    ent_mc = float(np.mean(-lnq))
    errs["kl(mc)"] = abs(float(kl_diag_gaussians(q, pm, pv)) - kl_mc) / abs(kl_mc)
    errs["entropy(mc)"] = abs(float(entropy_diag_gaussian(q)) - ent_mc) / abs(ent_mc)

    # hierarchical latent density vs an independent multivariate normal pdf
    rng = np.random.default_rng(12)
    D, K = 5, 3
    H = rng.standard_normal((D, K))
    pi = rng.random(K)
    b = rng.standard_normal(D)
    z = rng.standard_normal(D)
    tau = 0.1
    ref = stats.multivariate_normal(mean=H @ pi + b, cov=tau * np.eye(D))
    # the trainer's density; y = 1 and w = logit(pi) give sigmoid(w) = pi
    got = latent_log_density_grads(z[None], H, np.ones((1, K)),
                                   logit(pi)[None], b[None], tau)[0][0]
    errs["latent(analytic)"] = abs(got - ref.logpdf(z)) / abs(ref.logpdf(z))

    elapsed = time.time() - t0
    ok = (errs["poe(grid)"] < 1e-6 and errs["latent(analytic)"] < 1e-6
          and errs["kl(mc)"] < 1e-2 and errs["entropy(mc)"] < 1e-2
          and elapsed < 60)
    report(1, "closed-form correctness", ok,
           f"poe {errs['poe(grid)']:.1e}, latent {errs['latent(analytic)']:.1e}, "
           f"kl {errs['kl(mc)']:.1e}, entropy {errs['entropy(mc)']:.1e} "
           f"({elapsed:.1f}s)")


def test_criterion_02_causality_and_receptive_field():
    """Tokens at >= t or < t-s never reach the step-t logits."""
    t0 = time.time()
    cfg = DecoderConfig(vocab_size=8, latent_dim=4, t_max=27, channels=8,
                        kernel=3, dilations=(1, 2, 4), n_upsample=3)
    s = cfg.receptive_field
    assert s == 15
    rng = np.random.default_rng(2024)
    future_trials = window_trials = 0
    for trial in range(100):
        params = init_decoder_params(cfg, rng)
        z = rng.standard_normal((1, cfg.latent_dim))
        tokens = rng.integers(0, cfg.vocab_size, size=(1, cfg.seq_len))
        if trial % 2 == 0:
            t = int(rng.integers(1, cfg.seq_len))
            j = int(rng.integers(t, cfg.seq_len))  # at or after step t
            future_trials += 1
        else:
            t = int(rng.integers(s + 1, cfg.seq_len))
            j = int(rng.integers(0, t - s))  # strictly before the window
            window_trials += 1
        base, _ = decode_logits(params, cfg, z, tokens)
        mutated = tokens.copy()
        mutated[0, j] = (mutated[0, j] + 1 + rng.integers(cfg.vocab_size - 1)) % cfg.vocab_size
        moved, _ = decode_logits(params, cfg, z, mutated)
        assert np.array_equal(base[0, t], moved[0, t]), (trial, t, j)
    elapsed = time.time() - t0
    ok = future_trials > 0 and window_trials > 0 and elapsed < 60
    report(2, "causality & receptive field", ok,
           f"s={s}, {future_trials} future + {window_trials} out-of-window "
           f"perturbations, logits bit-identical ({elapsed:.1f}s)")


def test_criterion_03_gradient_fidelity():
    """Analytic gradients vs central finite differences, same noise."""
    t0 = time.time()
    worst = {}

    batch, parts, theta, H, phi, dec = tiny_setup("eva")
    rng = np.random.default_rng(1)
    z = rng.standard_normal((len(batch), dec.latent_dim))

    def ll_sum():
        return sequence_log_likelihood(theta, dec, z, batch.tokens,
                                       batch.mask)[0].sum()

    _, g_theta, dz = ll_and_grads(theta, dec, z, batch.tokens, batch.mask)
    flat = dict(_nn.iter_arrays(g_theta))
    fd = numerical_grad_tree(ll_sum, theta)
    worst["seq_ll"] = max(
        max(rel_err(flat[p], fd[p]) for p in fd),
        rel_err(dz, numerical_grad(ll_sum, z)),
    )

    for variant in ("eva", "evac"):
        batch, parts, theta, H, phi, dec = tiny_setup(variant)
        noises = draw_local_noises(np.random.default_rng(2), parts, len(batch))

        def total():
            return step_gradients(parts, batch, theta, H, phi, noises,
                                  len(batch))[0].total

        _, _, phi_grads = step_gradients(parts, batch, theta, H, phi, noises,
                                         len(batch))
        flat = dict(_nn.iter_arrays(phi_grads))
        fd = numerical_grad_tree(total, phi)
        worst[f"local/{variant}"] = max(rel_err(flat[p], fd[p]) for p in fd)

        # stochastic global gradient: FD the rescaled data terms plus prior
        idx = np.array([0, 2, 4])
        sub = batch.take(idx)
        nsub = noises[idx]
        scale = len(batch) / len(idx)
        _, g, _ = step_gradients(parts, sub, theta, H, phi, nsub,
                                 n_total=len(batch))
        g_theta, g_H = g["theta"], g.get("H")

        def recon_side():
            rep = step_gradients(parts, sub, theta, H, phi, nsub, len(idx))[0]
            return scale * rep.recon - 0.5 * sum(
                float(np.sum(a * a)) for _, a in _nn.iter_arrays(theta))

        flat = dict(_nn.iter_arrays(g_theta))
        fd = numerical_grad_tree(recon_side, theta)
        worst[f"global/{variant}"] = max(rel_err(flat[p], fd[p]) for p in fd)
        if variant == "evac":
            def cross_side():
                rep = step_gradients(parts, sub, theta, H, phi, nsub,
                                     len(idx))[0]
                return scale * rep.cross - 0.5 * float((H ** 2).sum())

            worst["global/H"] = rel_err(g_H, numerical_grad(cross_side, H))

    elapsed = time.time() - t0
    top = max(worst.values())
    ok = top < 1e-4 and elapsed < 300
    report(3, "gradient fidelity", ok,
           "worst rel err "
           + ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items()))
           + f" ({elapsed:.1f}s)")


def test_criterion_04_sampler_validity():
    """pSGLD reproduces a 1-D conjugate Gaussian posterior."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    y = rng.normal(0.5, 1.0, size=20)
    n = y.size
    post_mean = y.sum() / (n + 1)  # N(0,1) prior, unit-variance likelihood
    post_var = 1.0 / (n + 1)

    theta = np.array([0.0])
    state = SamplerState.create(theta, reservoir_size=1)
    srng = np.random.default_rng(7)
    burn, keep = 50_000, 50_000
    kept = np.empty(keep)
    # near-constant preconditioner: isolates the Langevin dynamics from the
    # state-dependence bias introduced by dropping the curvature term
    for it in range(burn + keep):
        g = y.sum() - (n + 1) * theta
        psgld_step(state, theta, g, 1e-2, 1.0, srng, alpha=0.9999)
        if it >= burn:
            kept[it - burn] = theta[0]

    mean_err = abs(kept.mean() - post_mean)
    var_rel = abs(kept.var() / post_var - 1.0)
    elapsed = time.time() - t0
    ok = mean_err < 0.05 and var_rel < 0.10 and elapsed < 60
    report(4, "sampler validity", ok,
           f"mean err {mean_err:.4f} (<0.05), var rel dev {var_rel:.4f} "
           f"(<0.10), {keep} post-burn-in steps ({elapsed:.1f}s)")


def test_criterion_05_minibatch_unbiasedness():
    """All C(6,2) minibatches average exactly to the full-data gradient."""
    t0 = time.time()
    devs = {}
    for variant in ("eva", "evac"):
        batch, parts, theta, H, phi, dec = tiny_setup(variant, n=6)
        noises = draw_local_noises(np.random.default_rng(9), parts, 6)
        _, full, _ = step_gradients(parts, batch, theta, H, phi, noises,
                                    n_total=6)
        full_t, full_H = full["theta"], full.get("H")
        layout = _nn.Layout(full_t)
        acc_t = np.zeros(layout.size)
        acc_H = np.zeros_like(H) if H is not None else None
        pairs = list(itertools.combinations(range(6), 2))
        for pair in pairs:
            idx = np.array(pair)
            sub = batch.take(idx)
            nsub = noises[idx]
            _, g, _ = step_gradients(parts, sub, theta, H, phi, nsub,
                                     n_total=6)
            g_t, g_H = g["theta"], g.get("H")
            acc_t += 1.0 / len(pairs) * layout.flatten(g_t)
            if acc_H is not None:
                acc_H += g_H / len(pairs)
        dev = float(np.max(np.abs(acc_t - layout.flatten(full_t))))
        if acc_H is not None:
            dev = max(dev, float(np.max(np.abs(acc_H - full_H))))
        devs[variant] = dev
    elapsed = time.time() - t0
    ok = max(devs.values()) < 1e-10 and elapsed < 60
    report(5, "minibatch unbiasedness", ok,
           f"max |avg - full| eva {devs['eva']:.1e}, evac {devs['evac']:.1e} "
           f"over 15 minibatches ({elapsed:.1f}s)")


def test_criterion_06_end_to_end_fidelity(toy, eva_run):
    """Generated bigram statistics correlate with the training corpus."""
    t0 = time.time()
    prepped, synth = toy["prepped"], eva_run["synth"]
    rb = ev.ngram_stats(prepped, 2)
    ru = ev.ngram_stats(prepped, 1)
    sb = ev.ngram_stats(synth, 2)
    rho = ev.pearson_marginal(rb, sb)
    baseline = ev.pearson_marginal(rb, ev.independent_bigram_baseline(ru))
    elapsed = eva_run["train_secs"] + eva_run["gen_secs"] + time.time() - t0
    ok = rho > 0.5 and rho > baseline and elapsed < 900
    report(6, "end-to-end fidelity", ok,
           f"bigram rho {rho:.3f} (>0.5), independent-unigram baseline "
           f"{baseline:.3f} ({elapsed:.0f}s incl. training)")


def test_criterion_07_conditional_control(toy, evac_run):
    """Each condition's code block is enriched in its conditioned cohort."""
    t0 = time.time()
    spec, model = toy["spec"], evac_run["model"]
    worst_p, rates = 0.0, []
    for k, name in enumerate(spec.condition_names[:-1]):
        codes = condition_codes(spec, name)
        cases, controls = generate_case_control(model, name, 1000, 1000,
                                                seed=900 + k)
        def hits(cohort):
            return sum(1 for r in cohort.records
                       if any(set(v) & codes for v in r.visits))
        x, cx = hits(cases), hits(controls)
        p0 = max(cx / 1000.0, 1.0 / 1000.0)
        p = stats.binomtest(x, 1000, p0, alternative="greater").pvalue
        worst_p = max(worst_p, p)
        rates.append(f"{name} {x / 1000:.2f}vs{cx / 1000:.2f}")
    elapsed = evac_run["train_secs"] + time.time() - t0
    ok = worst_p < 0.01 and elapsed < 900
    report(7, "conditional control", ok,
           f"worst one-sided binomial p {worst_p:.2e} (<0.01); "
           + "; ".join(rates) + f" ({elapsed:.0f}s incl. training)")


def test_criterion_08_weight_uncertainty_ablation(eva_run):
    """Posterior-ensemble generation beats the point estimate on diversity."""
    model = eva_run["model"]
    ens, point = [], []
    for seed in range(100, 105):
        for policy, out in (("ensemble", ens), ("point", point)):
            cohort = generate_cohort(model, GenerationRequest(
                count=1000, seed=seed, policy=policy))
            out.append(ev.unique_token_ratio(cohort))
    gap = float(np.mean(ens) - np.mean(point))
    ok = np.mean(ens) > np.mean(point)
    report(8, "weight-uncertainty ablation", ok,
           f"mean unique-token ratio ensemble {np.mean(ens):.4f} > point "
           f"{np.mean(point):.4f} (gap {gap:+.4f}, 5 seeds)")


def test_criterion_09_utility(toy, eva_run):
    """Predictors trained on synthetic data stay close on real test data."""
    prepped, model = toy["prepped"], eva_run["model"]
    rels = []
    for seed in range(3):
        tr, te = ev.split_cohort(prepped, test_frac=0.2, seed=seed)
        real_pred = ev.train_next_visit_predictor(tr, seed=seed)
        r_real = ev.topk_recall(real_pred, te, 5)
        synth = generate_cohort(model, GenerationRequest(count=len(tr),
                                                         seed=60 + seed))
        synth_pred = ev.train_next_visit_predictor(synth, seed=seed)
        r_synth = ev.topk_recall(synth_pred, te, 5)
        rels.append(abs(r_synth - r_real) / r_real)
    mean_rel = float(np.mean(rels))
    ok = mean_rel <= 0.20
    report(9, "utility", ok,
           f"top-5 recall relative gap {mean_rel:.3f} (<=0.20) over 3 seeds "
           f"(per-seed {', '.join(f'{r:.3f}' for r in rels)})")


def test_criterion_10_privacy(toy, eva_run):
    """Membership attack with half the known records in training."""
    prepped, synth = toy["prepped"], eva_run["synth"]
    holdout = simulate_toy_cohort(default_toy_spec(n_records=300), seed=404)
    known = ([(r, True) for r in prepped.records[:150]]
             + [(r, False) for r in holdout.records[:150]])
    out = ev.presence_disclosure(synth, known)
    se_sens = np.sqrt(0.25 / (out.tp + out.fn))
    se_prec = np.sqrt(0.25 / max(out.tp + out.fp, 1))
    ok = (out.sensitivity < 0.5 + 2 * se_sens
          and out.precision < 0.5 + 2 * se_prec)
    report(10, "privacy", ok,
           f"sensitivity {out.sensitivity:.3f} < {0.5 + 2 * se_sens:.3f}, "
           f"precision {out.precision:.3f} < {0.5 + 2 * se_prec:.3f} "
           f"(tp={out.tp}, fp={out.fp}, 150+150 known)")


def test_criterion_11_kl_non_collapse(eva_run):
    """KL share of the objective stays positive late in training."""
    late = [h for h in eva_run["model"].history if h["iteration"] >= 500]
    worst = min(h["kl_fraction"] for h in late)
    ok = len(late) > 0 and worst > 0.0
    report(11, "KL non-collapse", ok,
           f"min KL fraction {worst:.2e} over {len(late)} logged intervals "
           f"after iteration 500")
