"""Autoregressive decoder: exact causality window, likelihood arithmetic,
finite-difference gradients, ancestral sampling behaviour."""

import numpy as np
import pytest

from ehrgen import _nn
from ehrgen.decoder import (
    DecoderConfig,
    ancestral_sample,
    decode_logits,
    init_decoder_params,
    ll_and_grads,
    sequence_log_likelihood,
)

from oracles import assert_tree_close, numerical_grad, numerical_grad_tree, rel_err

# small everywhere: V=6, receptive field (2-1)*(1+2)+1 = 4
SMALL = DecoderConfig(vocab_size=6, latent_dim=3, t_max=7, channels=4,
                      kernel=2, dilations=(1, 2), n_upsample=1)


def make_case(seed, cfg=SMALL, B=2):
    rng = np.random.default_rng(seed)
    params = init_decoder_params(cfg, rng)
    z = rng.standard_normal((B, cfg.latent_dim))
    tokens = rng.integers(0, cfg.vocab_size, size=(B, cfg.seq_len))
    lengths = rng.integers(1, cfg.seq_len + 1, size=B)
    mask = (np.arange(cfg.seq_len)[None, :] < lengths[:, None]).astype(float)
    return rng, params, z, tokens, mask


class TestConfig:
    def test_receptive_field_formula(self):
        assert SMALL.receptive_field == 4
        cfg = DecoderConfig(vocab_size=8, latent_dim=4, t_max=16,
                            kernel=3, dilations=(1, 2, 4))
        assert cfg.receptive_field == 15
        degenerate = DecoderConfig(vocab_size=2, latent_dim=1, t_max=1,
                                   kernel=1, dilations=(1,))
        assert degenerate.receptive_field == 1

    def test_seed_len_covers_sequence(self):
        for t_max in (1, 3, 8, 16):
            for ups in (0, 1, 2):
                cfg = DecoderConfig(vocab_size=4, latent_dim=2, t_max=t_max,
                                    n_upsample=ups)
                assert cfg.seed_len * 2 ** ups >= cfg.seq_len

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            DecoderConfig(vocab_size=1, latent_dim=2, t_max=4)
        with pytest.raises(ValueError):
            DecoderConfig(vocab_size=4, latent_dim=2, t_max=4, dilations=())
        with pytest.raises(ValueError):
            DecoderConfig(vocab_size=4, latent_dim=2, t_max=4, n_upsample=-1)


class TestCausality:
    def test_future_tokens_never_leak(self):
        """logits[:, t] is a function of tokens[:, :t] only (exact equality)."""
        rng, params, z, tokens, _ = make_case(0)
        logits, _ = decode_logits(params, SMALL, z, tokens)
        for t_perturb in range(SMALL.seq_len):
            tokens2 = tokens.copy()
            tokens2[:, t_perturb] = (tokens2[:, t_perturb] + 1) % SMALL.vocab_size
            logits2, _ = decode_logits(params, SMALL, z, tokens2)
            np.testing.assert_array_equal(
                logits[:, : t_perturb + 1], logits2[:, : t_perturb + 1]
            )
            # and the very next position must feel the change
            assert np.any(logits[:, t_perturb + 1:] != logits2[:, t_perturb + 1:]) or \
                t_perturb + 1 >= SMALL.seq_len

    def test_receptive_field_cutoff(self):
        """Tokens older than the receptive field leave a logit untouched."""
        cfg = DecoderConfig(vocab_size=6, latent_dim=3, t_max=11, channels=4,
                            kernel=2, dilations=(1, 2), n_upsample=1)
        s = cfg.receptive_field  # 4
        rng, params, z, tokens, _ = make_case(1, cfg=cfg)
        logits, _ = decode_logits(params, cfg, z, tokens)
        t = 9
        oldest_relevant = t - s
        tokens2 = tokens.copy()
        tokens2[:, oldest_relevant - 1] = (tokens2[:, oldest_relevant - 1] + 3) % 6
        logits2, _ = decode_logits(params, cfg, z, tokens2)
        np.testing.assert_array_equal(logits[:, t], logits2[:, t])
        # the oldest in-window token still matters
        tokens3 = tokens.copy()
        tokens3[:, oldest_relevant] = (tokens3[:, oldest_relevant] + 3) % 6
        logits3, _ = decode_logits(params, cfg, z, tokens3)
        assert np.any(logits[:, t] != logits3[:, t])

    def test_latent_reaches_every_position(self):
        rng, params, z, tokens, _ = make_case(2)
        logits, _ = decode_logits(params, SMALL, z, tokens)
        z2 = z + 0.5
        logits2, _ = decode_logits(params, SMALL, z2, tokens)
        assert np.all(np.any(logits != logits2, axis=2))


class TestLikelihood:
    def test_matches_manual_log_softmax(self):
        rng, params, z, tokens, mask = make_case(3)
        ll, _ = sequence_log_likelihood(params, SMALL, z, tokens, mask)
        logits, _ = decode_logits(params, SMALL, z, tokens)
        manual = np.zeros(len(z))
        for b in range(len(z)):
            for t in range(SMALL.seq_len):
                if mask[b, t]:
                    row = logits[b, t]
                    manual[b] += row[tokens[b, t]] - np.log(np.exp(row).sum())
        np.testing.assert_allclose(ll, manual, rtol=1e-10)

    def test_zeroed_params_give_uniform(self):
        """All-zero head -> uniform next-token distribution -> ll = -T ln V."""
        rng, params, z, tokens, mask = make_case(4)
        params["head"]["W"][:] = 0.0
        params["head"]["b"][:] = 0.0
        ll, _ = sequence_log_likelihood(params, SMALL, z, tokens, mask)
        expect = -mask.sum(axis=1) * np.log(SMALL.vocab_size)
        np.testing.assert_allclose(ll, expect, rtol=1e-12)

    def test_masked_positions_do_not_count(self):
        rng, params, z, tokens, mask = make_case(5)
        mask2 = mask.copy()
        mask2[:, -1] = 0.0
        tokens2 = tokens.copy()
        tokens2[:, -1] = 0
        ll_a, _ = sequence_log_likelihood(params, SMALL, z, tokens2, mask2)
        tokens3 = tokens2.copy()
        tokens3[:, -1] = 3
        ll_b, _ = sequence_log_likelihood(params, SMALL, z, tokens3, mask2)
        np.testing.assert_array_equal(ll_a, ll_b)


class TestGradients:
    def test_theta_and_z_grads_match_fd(self):
        rng, params, z, tokens, mask = make_case(6)

        def total():
            ll, _ = sequence_log_likelihood(params, SMALL, z, tokens, mask)
            return float(ll.sum())

        ll, grads, dz = ll_and_grads(params, SMALL, z, tokens, mask)
        assert_tree_close(grads, numerical_grad_tree(total, params), 1e-5, "decoder")
        assert rel_err(dz, numerical_grad(total, z)) < 1e-5

    def test_weighted_grads(self):
        """Per-record weights scale each record's gradient contribution."""
        rng, params, z, tokens, mask = make_case(7)
        w = np.array([0.3, 2.0])

        def total():
            ll, _ = sequence_log_likelihood(params, SMALL, z, tokens, mask)
            return float((w * ll).sum())

        _, grads, dz = ll_and_grads(params, SMALL, z, tokens, mask, weights=w)
        assert_tree_close(grads, numerical_grad_tree(total, params), 1e-5, "weighted")
        assert rel_err(dz, numerical_grad(total, z)) < 1e-5


class TestAncestralSampling:
    def test_deterministic_under_seed(self):
        rng, params, z, _, _ = make_case(8)
        a = ancestral_sample(params, SMALL, z, np.random.default_rng(5), eos_id=4)
        b = ancestral_sample(params, SMALL, z, np.random.default_rng(5), eos_id=4)
        assert a == b

    def test_respects_length_cap_and_eos(self):
        rng, params, z, _, _ = make_case(9)
        out = ancestral_sample(params, SMALL, z, rng, eos_id=4)
        for seq in out:
            assert len(seq) <= SMALL.seq_len
            assert 4 not in seq  # the end marker is stripped

    def test_forbid_excludes_tokens(self):
        rng, params, z, _, _ = make_case(10)
        big = np.random.default_rng(0).standard_normal((40, SMALL.latent_dim))
        out = ancestral_sample(params, SMALL, big, rng, eos_id=4, forbid=(5,))
        assert all(5 not in seq for seq in out)

    def test_eos_everywhere_gives_empty(self):
        rng, params, z, _, _ = make_case(11)
        params["head"]["W"][:] = 0.0
        params["head"]["b"][:] = -40.0
        params["head"]["b"][4] = 40.0  # eos wins immediately
        out = ancestral_sample(params, SMALL, z, rng, eos_id=4)
        assert out == [[], []]

    def test_rejects_nonpositive_temperature(self):
        rng, params, z, _, _ = make_case(12)
        with pytest.raises(ValueError):
            ancestral_sample(params, SMALL, z, rng, eos_id=4, temperature=0.0)
