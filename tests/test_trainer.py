"""Training machinery: closed-form Gaussian terms against Monte-Carlo
oracles, the objective decomposition identity, phi/theta/H gradients against
finite differences, the Langevin sampler update rule, and loop bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest

from ehrgen import _nn, trainer
from ehrgen.corpus import build_visit_vocab, encode_cohort
from ehrgen.encoders import (DiagGaussian, entropy_diag_gaussian,
                             kl_diag_gaussians)
from ehrgen.model import (ModelParts, TrainConfig, encode_posteriors, init_phi,
                          param_layouts)
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import (
    ElboReport,
    SamplerState,
    TrainingDiverged,
    draw_local_noises,
    psgld_step,
    step_gradients,
    train,
)

from oracles import (assert_tree_close, numerical_grad, numerical_grad_tree,
                     rel_err, tree_step_gradients)


def small_training_setup(variant, seed=0, n=8, t_max=5):
    """Tiny everything: a real encoded batch plus freshly initialized parts."""
    spec = default_toy_spec(n_records=n, background_groups=3,
                            groups_per_condition=2, len_min=2, len_max=4)
    cohort = simulate_toy_cohort(spec, seed=seed)
    vocab = build_visit_vocab(cohort, max_size=32)
    batch = encode_cohort(cohort, vocab, t_max=t_max)
    config = TrainConfig(variant=variant, latent_dim=3, hidden=5, minibatch=n,
                         seed=seed)
    from ehrgen.decoder import DecoderConfig
    dec_cfg = DecoderConfig(t_max=t_max, channels=4, kernel=2,
                            dilations=(1, 2), n_upsample=1)
    parts = ModelParts(config, dec_cfg, vocab.size, batch.conditions.shape[1])
    rng = np.random.default_rng(seed + 100)
    from ehrgen.decoder import init_decoder_params
    theta = init_decoder_params(dec_cfg, vocab.size, config.latent_dim, rng)
    H = 0.1 * rng.standard_normal((3, batch.conditions.shape[1]))
    phi = init_phi(parts, rng)
    return parts, batch, theta, H, phi, vocab, cohort


class TestClosedFormGaussians:
    def test_kl_zero_for_identical(self):
        q = DiagGaussian(np.zeros(4), np.ones(4))
        assert kl_diag_gaussians(q, 0.0, 1.0) == 0.0

    def test_kl_hand_formula(self):
        # KL(N(m, v) || N(0, 1)) = 0.5 (v + m^2 - 1 - ln v), per dimension
        q = DiagGaussian(np.array([0.5, -1.0]), np.array([0.3, 2.0]))
        expect = 0.5 * ((0.3 + 0.25 - 1 - math.log(0.3))
                        + (2.0 + 1.0 - 1 - math.log(2.0)))
        np.testing.assert_allclose(kl_diag_gaussians(q, 0.0, 1.0), expect,
                                   rtol=1e-12)

    def test_kl_against_monte_carlo(self):
        """MC oracle: average of log q - log p over draws from q."""
        rng = np.random.default_rng(0)
        q = DiagGaussian(np.array([0.7, -0.4, 1.2]), np.array([0.5, 1.5, 0.2]))
        pm, pv = 0.3, 0.8
        x = q.mean + np.sqrt(q.var) * rng.standard_normal((400000, 3))
        log_q = -0.5 * (np.log(2 * np.pi * q.var) + (x - q.mean) ** 2 / q.var)
        log_p = -0.5 * (np.log(2 * np.pi * pv) + (x - pm) ** 2 / pv)
        mc = (log_q - log_p).sum(axis=1).mean()
        np.testing.assert_allclose(kl_diag_gaussians(q, pm, pv), mc, atol=1e-2)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = DiagGaussian(rng.standard_normal(3), 0.1 + rng.random(3))
            assert kl_diag_gaussians(q, rng.standard_normal(), 0.5) >= 0.0

    def test_kl_rejects_bad_variances(self):
        q = DiagGaussian(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            kl_diag_gaussians(q, 0.0, 0.0)

    def test_entropy_hand_value_and_mc(self):
        q = DiagGaussian(np.array([3.0, -2.0]), np.array([1.0, 4.0]))
        expect = 0.5 * (1 + math.log(2 * math.pi)) * 2 + 0.5 * math.log(4.0)
        np.testing.assert_allclose(entropy_diag_gaussian(q), expect, rtol=1e-12)
        rng = np.random.default_rng(2)
        x = q.mean + np.sqrt(q.var) * rng.standard_normal((400000, 2))
        log_q = -0.5 * (np.log(2 * np.pi * q.var) + (x - q.mean) ** 2 / q.var)
        np.testing.assert_allclose(entropy_diag_gaussian(q),
                                   -log_q.sum(axis=1).mean(), atol=1e-2)

    def test_entropy_ignores_mean(self):
        v = np.array([0.2, 0.9])
        a = entropy_diag_gaussian(DiagGaussian(np.zeros(2), v))
        b = entropy_diag_gaussian(DiagGaussian(np.full(2, 17.0), v))
        assert a == b


class TestObjectiveDecomposition:
    def test_eva_negative_total_is_recon_minus_kl(self):
        """For the unconditional variant the bound is exact: -J = recon - KL."""
        parts, batch, theta, H, phi, _, _ = small_training_setup("eva")
        noises = draw_local_noises(np.random.default_rng(3), parts, len(batch))
        report, _, _ = tree_step_gradients(parts, batch, theta, None, phi,
                                           noises, len(batch))
        q = encode_posteriors(parts, phi, batch)
        kl = kl_diag_gaussians(q, 0.0, 1.0)
        np.testing.assert_allclose(-report.total, report.recon - kl, rtol=1e-10)
        assert report.kl_fraction > 0.0
        assert report.kl_b == 0.0 and report.kl_w == 0.0

    def test_evac_term_accounting(self):
        parts, batch, theta, H, phi, _, _ = small_training_setup("evac")
        noises = draw_local_noises(np.random.default_rng(4), parts, len(batch))
        report, _, _ = tree_step_gradients(parts, batch, theta, H, phi, noises,
                                           len(batch))
        np.testing.assert_allclose(
            report.total,
            -(report.recon + report.cross + report.entropy
              - report.kl_b - report.kl_w),
            rtol=1e-12,
        )
        assert report.kl_b > 0.0 and report.kl_w > 0.0

    def test_report_roundtrip(self):
        r = ElboReport.from_terms(-10.0, -2.0, 1.5, 0.3, 0.4)
        d = dataclasses.asdict(r)
        assert list(d) == ["recon", "cross", "entropy", "kl_b", "kl_w",
                           "total", "kl_fraction"]
        np.testing.assert_allclose(d["total"], -(-10.0 - 2.0 + 1.5 - 0.3 - 0.4))

    def test_same_noise_is_deterministic(self):
        """Bit-identical reports and gradient vectors: each call adds into
        freshly zeroed gradients, never into a reused buffer."""
        parts, batch, theta, H, phi, _, _ = small_training_setup("evac")
        noises = draw_local_noises(np.random.default_rng(5), parts, len(batch))
        n = len(batch)
        glob_layout, phi_layout = param_layouts(parts)
        vecs = (glob_layout.flatten({"theta": theta, "H": H}),
                phi_layout.flatten(phi))
        r1, gg1, g1 = step_gradients(parts, batch, *vecs, noises, n)
        r2, gg2, g2 = step_gradients(parts, batch, *vecs, noises, n)
        assert r1.total == r2.total
        assert gg1 is not gg2 and g1 is not g2
        np.testing.assert_array_equal(gg1, gg2)
        np.testing.assert_array_equal(g1, g2)


class TestPhiGradients:
    @pytest.mark.parametrize("variant", ["eva", "evac"])
    def test_local_objective_grads_match_fd(self, variant):
        parts, batch, theta, H, phi, _, _ = small_training_setup(variant, n=4,
                                                                 t_max=4)
        noises = draw_local_noises(np.random.default_rng(6), parts, len(batch))

        def objective():
            return tree_step_gradients(parts, batch, theta, H, phi, noises,
                                       len(batch))[0].total

        _, _, phi_grads = tree_step_gradients(parts, batch, theta, H, phi,
                                              noises, len(batch))
        numeric = numerical_grad_tree(objective, phi, eps=1e-5)
        assert_tree_close(phi_grads, numeric, 5e-4, f"phi[{variant}]")


class TestGlobalGradients:
    def test_theta_grad_is_scaled_data_term_plus_prior(self):
        parts, batch, theta, H, phi, _, _ = small_training_setup("eva", n=4,
                                                                 t_max=4)
        noises = draw_local_noises(np.random.default_rng(7), parts, len(batch))
        n_total = 20  # pretend the corpus is larger than the minibatch
        _, g, _ = tree_step_gradients(parts, batch, theta, None, phi, noises,
                                      n_total)
        assert set(g) == {"theta"}
        g_theta = g["theta"]
        scale = n_total / len(batch)

        # z samples depend only on phi and noises, so theta FD is legitimate
        def data_term():
            return tree_step_gradients(parts, batch, theta, None, phi, noises,
                                       len(batch))[0].recon

        numeric = numerical_grad_tree(data_term, theta, eps=1e-5)
        for path, arr in _nn.iter_arrays(g_theta):
            expect = scale * numeric[path] - dict(_nn.iter_arrays(theta))[path]
            assert rel_err(arr, expect) < 5e-4, path

    def test_H_grad_matches_fd(self):
        parts, batch, theta, H, phi, _, _ = small_training_setup("evac", n=4,
                                                                 t_max=4)
        noises = draw_local_noises(np.random.default_rng(8), parts, len(batch))
        n_total = 12
        _, g, _ = tree_step_gradients(parts, batch, theta, H, phi, noises,
                                      n_total)
        g_H = g["H"]

        def cross_term():
            return tree_step_gradients(parts, batch, theta, H, phi, noises,
                                       len(batch))[0].cross

        numeric = numerical_grad(cross_term, H, eps=1e-5)
        expect = (n_total / len(batch)) * numeric - H
        assert rel_err(g_H, expect) < 5e-4


class TestPsgld:
    def test_single_step_hand_computed(self):
        params = np.array([1.0])
        grad = np.array([2.0])
        state = SamplerState(np.zeros_like(params))
        psgld_step(state, params, grad, step_size=0.1, temperature=0.0,
                   rng=np.random.default_rng(0), alpha=0.9, lam=1e-5)
        G = 1.0 / (1e-5 + 2.0)  # V seeded with g^2 on the first step
        np.testing.assert_allclose(params, [1.0 + 0.05 * G * 2.0],
                                   rtol=1e-12)
        np.testing.assert_allclose(state.v, [4.0], rtol=1e-12)
        assert state.step == 1
        psgld_step(state, params, np.array([1.0]), step_size=0.1,
                   temperature=0.0, rng=np.random.default_rng(0),
                   alpha=0.9, lam=1e-5)
        v = 0.9 * 4.0 + 0.1 * 1.0  # the running average from then on
        np.testing.assert_allclose(state.v, [v], rtol=1e-12)
        G2 = 1.0 / (1e-5 + math.sqrt(v))
        np.testing.assert_allclose(
            params, [1.0 + 0.05 * G * 2.0 + 0.05 * G2 * 1.0], rtol=1e-12)

    def test_zero_step_size_freezes_params(self):
        rng = np.random.default_rng(1)
        params = np.array([3.0, -1.0])
        state = SamplerState(np.zeros_like(params))
        psgld_step(state, params, np.array([5.0, 5.0]), step_size=0.0,
                   temperature=1.0, rng=rng)
        np.testing.assert_array_equal(params, [3.0, -1.0])

    def test_noise_scales_with_temperature(self):
        """Tempered-posterior law: the noise variance is linear in T, so at
        zero gradient and the same seed the displacement at T is
        sqrt(T / T') times the displacement at T'."""
        def displacement(temp):
            rng = np.random.default_rng(2)
            params = np.zeros(5)
            state = SamplerState(np.zeros_like(params))
            for _ in range(3):
                psgld_step(state, params, np.zeros(5), step_size=1e-3,
                           temperature=temp, rng=rng)
            return params.copy()

        ref = displacement(1.0)
        assert np.all(ref != 0.0)
        for temp in (0.01, 0.5, 4.0):
            np.testing.assert_allclose(displacement(temp),
                                       np.sqrt(temp) * ref, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = np.zeros(2)
        state = SamplerState(np.zeros_like(params))
        for grad in (np.zeros(3), np.zeros(1)):  # (1,) would broadcast
            with pytest.raises(ValueError, match="shape"):
                psgld_step(state, params, grad, 0.1, 0.0,
                           np.random.default_rng(0))
        np.testing.assert_array_equal(state.v, [0.0, 0.0])

    def test_negative_step_rejected(self):
        params = np.zeros(1)
        state = SamplerState(np.zeros_like(params))
        with pytest.raises(ValueError):
            psgld_step(state, params, np.zeros(1), -0.1, 0.0,
                       np.random.default_rng(0))


class TestTrainConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="vae")
        with pytest.raises(ValueError):
            TrainConfig(lr_global=-1e-3)
        with pytest.raises(ValueError):
            TrainConfig(minibatch=0)
        with pytest.raises(ValueError):
            TrainConfig(temperature=-0.1)

    def test_burn_in_defaults_to_half(self):
        assert TrainConfig(n_iters=1000).burn_in_iters == 500
        assert TrainConfig(n_iters=1000, burn_in=10).burn_in_iters == 10

    @pytest.mark.parametrize("kw, field", [
        ({"reservoir_size": 0}, "reservoir_size"),
        ({"latent_dim": 0}, "latent_dim"),
        ({"n_iters": 0}, "n_iters"),
        ({"hidden": 0}, "hidden"),
        ({"thin": 0}, "thin"),
        ({"burn_in": -1}, "burn_in"),
        # no post-burn-in iteration is left to fill the reservoir
        ({"n_iters": 5, "burn_in": 5}, "burn_in"),
        ({"n_iters": 5, "burn_in": 10}, "burn_in"),
    ])
    def test_error_names_the_field(self, kw, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kw)

    def test_burn_in_bounds_accepted(self):
        assert TrainConfig(n_iters=5, burn_in=0).burn_in_iters == 0
        assert TrainConfig(n_iters=5, burn_in=4).burn_in_iters == 4
        assert TrainConfig(n_iters=1).burn_in_iters == 0


class TestTrainLoop:
    def make_batch_and_vocab(self, n=12, t_max=4, seed=0):
        spec = default_toy_spec(n_records=n, background_groups=3,
                                groups_per_condition=2, len_min=2, len_max=4)
        cohort = simulate_toy_cohort(spec, seed=seed)
        vocab = build_visit_vocab(cohort, max_size=32)
        return encode_cohort(cohort, vocab, t_max=t_max), vocab, cohort

    def small_config(self, **kw):
        base = dict(variant="eva", latent_dim=3, n_iters=10, minibatch=6,
                    hidden=5, burn_in=4, thin=2,
                    reservoir_size=2, seed=1)
        base.update(kw)
        return TrainConfig(**base)

    def small_dec_cfg(self, t_max=4):
        from ehrgen.decoder import DecoderConfig
        return DecoderConfig(t_max=t_max, channels=4, kernel=2,
                             dilations=(1, 2), n_upsample=1)

    def test_cohort_without_conditions(self):
        """No condition columns: eva trains and generates, evac refuses to
        train instead of failing later at generation."""
        from ehrgen.generator import GenerationRequest, generate_cohort

        _, vocab, cohort = self.make_batch_and_vocab()
        bare = dataclasses.replace(cohort, condition_names=[], records=[
            dataclasses.replace(r, conditions=()) for r in cohort.records])
        batch = encode_cohort(bare, vocab, t_max=4)
        assert batch.conditions.shape == (len(batch), 0)
        model = train(self.small_config(), batch, vocab,
                      dec_cfg=self.small_dec_cfg())
        out = generate_cohort(model, GenerationRequest(count=3, t_max=4))
        assert len(out.records) == 3
        with pytest.raises(ValueError, match="condition columns"):
            train(self.small_config(variant="evac"), batch, vocab,
                  dec_cfg=self.small_dec_cfg())

    def test_zero_rates_leave_parameters_at_init(self, monkeypatch):
        """lr 0 everywhere: training is the identity, regardless of length."""
        batch, vocab, cohort = self.make_batch_and_vocab()
        monkeypatch.setattr(trainer, "LR_PHI", 0.0)
        runs = []
        for n_iters in (6, 12):
            cfg = self.small_config(n_iters=n_iters, lr_global=0.0,
                                    burn_in=2, thin=3)
            runs.append(train(cfg, batch, vocab,
                              condition_names=cohort.condition_names,
                              dec_cfg=self.small_dec_cfg()))
        a, b = runs
        for (pa, xa), (pb, xb) in zip(_nn.iter_arrays(a.reservoir[0]),
                                      _nn.iter_arrays(b.reservoir[0])):
            assert pa == pb
            np.testing.assert_array_equal(xa, xb)
        for (pa, xa), (pb, xb) in zip(_nn.iter_arrays(a.phi),
                                      _nn.iter_arrays(b.phi)):
            np.testing.assert_array_equal(xa, xb)

    def test_reservoir_schedule(self):
        """burn_in=4, thin=2, size=2: samples at iterations 4, 6 and 8, of
        which the reservoir keeps the last two. For a fixed burn_in a run is
        a prefix of a longer one, so the 7- and 9-iteration runs' last
        samples are iterations 6 and 8, and the 5-iteration run's, 4, is
        not kept."""
        batch, vocab, cohort = self.make_batch_and_vocab()

        def samples(n_iters):
            model = train(self.small_config(n_iters=n_iters), batch, vocab,
                          condition_names=cohort.condition_names,
                          dec_cfg=self.small_dec_cfg())
            assert all(set(snap) == {"theta"} for snap in model.reservoir)
            return [np.concatenate([x.ravel() for _, x in
                                    _nn.iter_arrays(snap)])
                    for snap in model.reservoir]

        kept = samples(10)
        assert len(kept) == 2
        np.testing.assert_array_equal(kept[0], samples(7)[-1])
        np.testing.assert_array_equal(kept[1], samples(9)[-1])
        first = samples(5)[-1]
        assert not any(np.array_equal(first, snap) for snap in kept)

    def test_metrics_sink_every_iteration(self):
        batch, vocab, cohort = self.make_batch_and_vocab()
        rows = []
        cfg = self.small_config(n_iters=7)
        train(cfg, batch, vocab, condition_names=cohort.condition_names,
              dec_cfg=self.small_dec_cfg(),
              metrics_sink=lambda it, rep: rows.append((it, rep.total)))
        assert [r[0] for r in rows] == list(range(7))
        assert all(math.isfinite(t) for _, t in rows)

    def test_history_covers_first_and_last(self, monkeypatch):
        batch, vocab, cohort = self.make_batch_and_vocab()
        monkeypatch.setattr(trainer, "HISTORY_EVERY", 5)
        cfg = self.small_config(n_iters=11)
        model = train(cfg, batch, vocab,
                      condition_names=cohort.condition_names,
                      dec_cfg=self.small_dec_cfg())
        its = [h["iteration"] for h in model.history]
        assert its == [0, 5, 10]
        assert "kl_fraction" in model.history[0]

    def test_divergence_raises_with_iteration(self):
        batch, vocab, cohort = self.make_batch_and_vocab()
        batch.conditions[0, 0] = np.nan  # poisoned condition vector
        cfg = self.small_config(variant="evac", minibatch=12)
        with pytest.raises(TrainingDiverged) as err, \
                np.errstate(invalid="ignore"):
            train(cfg, batch, vocab, condition_names=cohort.condition_names,
                  dec_cfg=self.small_dec_cfg())
        assert err.value.iteration == 0
        assert err.value.last_report is None

    def test_empty_batch_rejected(self):
        batch, vocab, _ = self.make_batch_and_vocab()
        empty = batch.take(np.array([], dtype=int))
        with pytest.raises(ValueError, match="empty"):
            train(self.small_config(), empty, vocab,
                  dec_cfg=self.small_dec_cfg())

    @pytest.mark.parametrize("t_max", [2, 8])
    def test_decoder_t_max_must_match_batch(self, t_max):
        """A longer t_max would generate records from positions training
        never saw; a shorter one cannot score the batch's longer records."""
        batch, vocab, cohort = self.make_batch_and_vocab()
        assert batch.tokens.shape[1] - 1 == 4
        with pytest.raises(ValueError, match=f"t_max {t_max} .* t_max 4"):
            train(self.small_config(), batch, vocab,
                  condition_names=tuple(cohort.condition_names),
                  dec_cfg=self.small_dec_cfg(t_max=t_max))

    @pytest.mark.parametrize("n_names", [0, 1])
    def test_condition_names_must_label_every_column(self, n_names):
        """With no names an evac model trained and then failed at
        generation on a broadcast error; with one name its single entry
        was silently broadcast over all five columns of H."""
        batch, vocab, cohort = self.make_batch_and_vocab(n=20)
        assert batch.conditions.shape[1] == 5
        with pytest.raises(ValueError,
                           match=f"{n_names} condition_names for 5 "):
            train(self.small_config(variant="evac"), batch, vocab,
                  condition_names=tuple(cohort.condition_names[:n_names]),
                  dec_cfg=self.small_dec_cfg())

    def test_evac_needs_condition_columns(self):
        cfg = TrainConfig(variant="evac", latent_dim=3)
        with pytest.raises(ValueError, match="condition"):
            ModelParts(cfg, self.small_dec_cfg(), vocab_size=8, cond_dim=0)

    def test_objective_improves_on_tiny_corpus(self, monkeypatch):
        """Full-batch training on 12 records should lower J noticeably."""
        batch, vocab, cohort = self.make_batch_and_vocab(n=12)
        monkeypatch.setattr(trainer, "LR_PHI", 5e-3)
        cfg = self.small_config(n_iters=300, minibatch=12,
                                lr_global=5e-3, temperature=0.1,
                                burn_in=150, thin=50)
        totals = []
        train(cfg, batch, vocab, condition_names=cohort.condition_names,
              dec_cfg=self.small_dec_cfg(),
              metrics_sink=lambda it, rep: totals.append(rep.total))
        first = np.mean([totals[it] for it in (0, 10, 20)])
        last = np.mean([totals[it] for it in (280, 290, 299)])
        assert last < first - 10.0

    def test_default_clip_norm_does_not_diverge(self):
        """The globals gradient is scaled by n/B, so a tight default clip
        shrinks it by orders of magnitude every step, which shrinks pSGLD's
        preconditioner and inflates its noise; a clip of 10 took J from
        ~135 to over 15x that in 20 steps."""
        batch, vocab, cohort = self.make_batch_and_vocab(n=12)
        rows = []
        train(TrainConfig(n_iters=20, seed=0), batch, vocab,
              condition_names=cohort.condition_names,
              metrics_sink=lambda it, rep: rows.append(rep.total))
        assert all(math.isfinite(t) for t in rows)
        assert max(rows) < 5.0 * rows[0]

    def test_trained_model_contents(self):
        batch, vocab, cohort = self.make_batch_and_vocab()
        cfg = self.small_config(variant="evac")
        model = train(cfg, batch, vocab,
                      condition_names=tuple(cohort.condition_names),
                      dec_cfg=self.small_dec_cfg())
        assert model.variant == "evac"
        assert set(model.reservoir[0]) == {"theta", "H"}
        assert model.reservoir[0]["H"].shape == (3, len(cohort.condition_names))
        assert model.point_sample() is model.reservoir[-1]
