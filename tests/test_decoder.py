"""Autoregressive decoder: exact causality window, likelihood arithmetic,
finite-difference gradients, ancestral sampling behaviour."""

import numpy as np
import pytest
from scipy.special import softmax

from ehrgen import decoder
from ehrgen.decoder import (
    DecoderConfig,
    ancestral_sample,
    decode_logits,
    init_decoder_params,
    ll_and_grads,
    sequence_log_likelihood,
)

from oracles import (
    assert_tree_close,
    full_width_ll_and_grads,
    grouped_prefix_sample,
    numerical_grad,
    numerical_grad_tree,
    prefix_sample,
    rel_err,
    zero_grads,
)

# vocabulary and latent sizes, unless a case gives its own
V, D = 6, 3
# small everywhere: receptive field (2-1)*(1+2)+1 = 4
SMALL = DecoderConfig(t_max=7, channels=4, kernel=2, dilations=(1, 2),
                      n_upsample=1)
# t_max past the receptive field (3*(1+2)+1 = 10), two upsampling stages
LONG = DecoderConfig(t_max=17, channels=4, kernel=4, dilations=(1, 2),
                     n_upsample=2)


def make_case(seed, cfg=SMALL, B=2, sizes=(V, D)):
    rng = np.random.default_rng(seed)
    params = init_decoder_params(cfg, *sizes, rng)
    z = rng.standard_normal((B, sizes[1]))
    tokens = rng.integers(0, sizes[0], size=(B, cfg.seq_len))
    lengths = rng.integers(1, cfg.seq_len + 1, size=B)
    mask = (np.arange(cfg.seq_len)[None, :] < lengths[:, None]).astype(float)
    return rng, params, z, tokens, mask


class TestConfig:
    def test_receptive_field_formula(self):
        assert SMALL.receptive_field == 4
        cfg = DecoderConfig(t_max=16, kernel=3, dilations=(1, 2, 4))
        assert cfg.receptive_field == 15
        degenerate = DecoderConfig(t_max=1, kernel=1, dilations=(1,))
        assert degenerate.receptive_field == 1

    def test_seed_len_covers_sequence(self):
        for t_max in (1, 3, 8, 16):
            for ups in (0, 1, 2):
                cfg = DecoderConfig(t_max=t_max, n_upsample=ups)
                assert cfg.seed_len * 2 ** ups >= cfg.seq_len

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            DecoderConfig(t_max=0)
        with pytest.raises(ValueError):
            DecoderConfig(t_max=4, dilations=())
        with pytest.raises(ValueError):
            DecoderConfig(t_max=4, n_upsample=-1)


class TestCausality:
    def test_future_tokens_never_leak(self):
        """logits[:, t] is a function of tokens[:, :t] only (exact equality)."""
        rng, params, z, tokens, _ = make_case(0)
        logits, _ = decode_logits(params, SMALL, z, tokens)
        for t_perturb in range(SMALL.seq_len):
            tokens2 = tokens.copy()
            tokens2[:, t_perturb] = (tokens2[:, t_perturb] + 1) % V
            logits2, _ = decode_logits(params, SMALL, z, tokens2)
            np.testing.assert_array_equal(
                logits[:, : t_perturb + 1], logits2[:, : t_perturb + 1]
            )
            # and the very next position must feel the change
            assert np.any(logits[:, t_perturb + 1:] != logits2[:, t_perturb + 1:]) or \
                t_perturb + 1 >= SMALL.seq_len

    def test_receptive_field_cutoff(self):
        """Tokens older than the receptive field leave a logit untouched."""
        cfg = DecoderConfig(t_max=11, channels=4, kernel=2, dilations=(1, 2),
                            n_upsample=1)
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

    def test_logits_do_not_depend_on_width(self):
        """decode_logits on tokens[:, :t + 1] gives the full-width logits at
        position t, past the receptive field and through the cropped
        latent context; ancestral_sample relies on this."""
        cfg = DecoderConfig(t_max=11, channels=4, kernel=2, dilations=(1, 2),
                            n_upsample=2)
        assert cfg.t_max > cfg.receptive_field
        rng, params, z, tokens, _ = make_case(15, cfg=cfg, B=3)
        full, _ = decode_logits(params, cfg, z, tokens)
        for t in range(cfg.seq_len):
            part, _ = decode_logits(params, cfg, z, tokens[:, :t + 1])
            assert part.shape == (3, t + 1, V)
            assert rel_err(part[:, t], full[:, t]) < 1e-12

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
        expect = -mask.sum(axis=1) * np.log(V)
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

        grads = zero_grads(params)
        ll, dz = ll_and_grads(params, SMALL, z, tokens, mask, grads)
        assert_tree_close(grads, numerical_grad_tree(total, params), 1e-5, "decoder")
        assert rel_err(dz, numerical_grad(total, z)) < 1e-5


class TestLivePositions:
    """The stack runs once per length bucket and the head and the
    cross-entropy on live positions only, and they give the full-width
    path's numbers."""

    # wide-eva's decoder: V 1,502, D 16, T 17
    WIDE, WIDE_SIZES = DecoderConfig(t_max=16), (1502, 16)
    # long-eva's record lengths: T 65, default kernel, dilations and
    # upsampling; V 30, D 4
    LONG, LONG_SIZES = DecoderConfig(t_max=64, channels=8), (30, 4)

    def ragged_case(self, seed, cfg, B=32, sizes=LONG_SIZES):
        """Ragged lengths, with row 0 full length and row 1 all padding."""
        rng, params, z, tokens, _ = make_case(seed, cfg=cfg, B=B,
                                              sizes=sizes)
        lengths = rng.integers(1, cfg.seq_len + 1, size=B)
        lengths[:2] = cfg.seq_len, 0
        mask = (np.arange(cfg.seq_len)[None, :]
                < lengths[:, None]).astype(float)
        return rng, params, z, tokens, mask

    def wide_case(self, seed):
        return self.ragged_case(seed, self.WIDE, sizes=self.WIDE_SIZES)

    def assert_matches_full_width(self, params, z, tokens, mask, cfg=WIDE):
        grads = zero_grads(params)
        ll, dz = ll_and_grads(params, cfg, z, tokens, mask, grads)
        ref_ll, ref_grads, ref_dz = full_width_ll_and_grads(
            params, cfg, z, tokens, mask)
        assert rel_err(ll, ref_ll) < 1e-12
        assert rel_err(sequence_log_likelihood(
            params, cfg, z, tokens, mask)[0], ref_ll) < 1e-12
        assert_tree_close(grads, dict(decoder._nn.iter_arrays(ref_grads)),
                          1e-12, "live positions")
        assert rel_err(dz, ref_dz) < 1e-12
        dead = ~mask.any(axis=1)  # all-padding rows get no gradient
        assert not ll[dead].any() and not dz[dead].any()

    def test_matches_full_width_oracle(self):
        _, params, z, tokens, mask = self.wide_case(21)
        self.assert_matches_full_width(params, z, tokens, mask)

    def test_weighted_mask_matches_full_width_oracle(self):
        """A mask of 0.5 weights scales both the picked log-probabilities
        and the logit gradient, as in the full-width path."""
        rng, params, z, tokens, mask = self.wide_case(22)
        half = (mask > 0) & (rng.random(mask.shape) < 0.5)
        mask[half] = 0.5
        assert half.any() and (mask == 1.0).any()
        self.assert_matches_full_width(params, z, tokens, mask)

    @pytest.mark.parametrize("kind", ["ragged", "holes", "full", "one_row"])
    def test_long_records_match_full_width_oracle(self, kind):
        """t_max 64 runs several buckets; a mask with holes is cut at each
        row's last live column, not at its live count."""
        rng, params, z, tokens, mask = self.ragged_case(24, self.LONG)
        if kind == "holes":
            mask *= rng.random(mask.shape) < 0.6
            assert (np.diff(mask, axis=1) > 0).any()  # not a prefix
        elif kind == "full":
            mask[:] = 1.0
        elif kind == "one_row":  # 40 visits and the end, in 3 buckets
            z, tokens, mask = z[:1], tokens[:1], mask[:1]
            mask[0, 41:] = 0.0
        self.assert_matches_full_width(params, z, tokens, mask, cfg=self.LONG)

    def test_stack_runs_per_length_bucket(self, monkeypatch):
        """Every row runs in exactly one bucket, cut to the bucket's last
        live column, so the stack computes fewer positions than B * T."""
        B, T = 32, self.LONG.seq_len
        _, params, z, tokens, mask = self.ragged_case(25, self.LONG, B=B)
        row_of = {v: b for b, v in enumerate(z[:, 0])}
        calls = []
        stack = decoder._stack

        def spy(p, cfg, zb, tb):
            calls.append(([row_of[v] for v in zb[:, 0]], tb.shape[1]))
            return stack(p, cfg, zb, tb)

        monkeypatch.setattr(decoder, "_stack", spy)
        ll_and_grads(params, self.LONG, z, tokens, mask, zero_grads(params))
        reach = np.array([np.flatnonzero(m).max() + 1 if m.any() else 1
                          for m in mask])
        assert len(calls) > 1
        assert sorted(b for rows, _ in calls for b in rows) == list(range(B))
        assert all(width <= reach[rows].max() for rows, width in calls)
        assert sum(len(rows) * width for rows, width in calls) < B * T

    def test_buckets_add_into_grads(self):
        """Every length bucket adds into the caller's tree: a pre-filled
        tree ends at the pre-fill plus the gradient from zeros. Row 0 runs
        the full 65 columns, so the 32 rows fill 5 buckets."""
        rng, params, z, tokens, mask = self.ragged_case(26, self.LONG)
        fresh = zero_grads(params)
        ll, dz = ll_and_grads(params, self.LONG, z, tokens, mask, fresh)
        prefill, grads = zero_grads(params), zero_grads(params)
        for (_, pre), (_, leaf) in zip(decoder._nn.iter_arrays(prefill),
                                       decoder._nn.iter_arrays(grads)):
            pre[...] = leaf[...] = rng.standard_normal(pre.shape)
        ll2, dz2 = ll_and_grads(params, self.LONG, z, tokens, mask, grads)
        np.testing.assert_array_equal(ll2, ll)
        np.testing.assert_array_equal(dz2, dz)
        for (path, got), (_, pre), (_, new) in zip(
                *map(decoder._nn.iter_arrays, (grads, prefill, fresh))):
            assert rel_err(got, pre + new) < 1e-12, path

    def test_head_sees_live_rows_only(self, monkeypatch):
        _, params, z, tokens, mask = self.wide_case(23)
        head_rows = []
        dense = decoder._nn.dense

        def spy(p, x):
            if p is params["head"]:
                head_rows.append(x.shape)
            return dense(p, x)

        monkeypatch.setattr(decoder._nn, "dense", spy)
        sequence_log_likelihood(params, self.WIDE, z, tokens, mask)
        ll_and_grads(params, self.WIDE, z, tokens, mask, zero_grads(params))
        live = np.count_nonzero(mask)
        assert live < mask.size
        assert head_rows == [(live, self.WIDE.channels)] * 2


class TestAncestralSampling:
    def test_deterministic_under_seed(self):
        rng, params, z, _, _ = make_case(8)
        a = ancestral_sample([params], SMALL, [z], np.random.default_rng(5),
                             eos_id=4)
        b = ancestral_sample([params], SMALL, [z], np.random.default_rng(5),
                             eos_id=4)
        assert a == b

    def test_respects_length_cap_and_eos(self):
        rng, params, z, _, _ = make_case(9)
        out = ancestral_sample([params], SMALL, [z], rng, eos_id=4)
        for seq in out:
            assert 1 <= len(seq) <= SMALL.t_max
            assert 4 not in seq  # the end marker is stripped

    def test_forbid_excludes_tokens(self):
        rng, params, z, _, _ = make_case(10)
        big = np.random.default_rng(0).standard_normal((40, D))
        out = ancestral_sample([params], SMALL, [big], rng, eos_id=4,
                               forbid=(5,))
        assert all(5 not in seq for seq in out)

    def test_eos_everywhere_gives_one_visit(self):
        """EOS is masked at step 0 only: a decoder that always ends gives
        exactly one non-EOS visit per record, drawn from the remaining
        tokens."""
        rng, params, z, _, _ = make_case(11)
        params["head"]["W"][:] = 0.0
        params["head"]["b"][:] = -40.0
        params["head"]["b"][4] = 40.0  # eos wins whenever it is allowed
        params["head"]["b"][2] = 0.0  # the only likely non-EOS token
        out = ancestral_sample([params], SMALL, [z], rng, eos_id=4,
                               forbid=(5,))
        assert out == [[2], [2]]

    def test_runs_to_t_max_without_eos(self):
        rng, params, z, _, _ = make_case(13)
        params["head"]["b"][4] = -np.inf  # the end marker is never drawn
        out = ancestral_sample([params], SMALL, [z], rng, eos_id=4)
        assert [len(seq) for seq in out] == [SMALL.t_max] * len(z)

    def test_samples_follow_step_distribution(self):
        """First-step draws match the EOS-masked softmax of the step-0
        logits, and second-step draws the softmax given the first token."""
        cfg = DecoderConfig(t_max=2, channels=3, kernel=2, dilations=(1,),
                            n_upsample=1)
        rng = np.random.default_rng(14)
        params = init_decoder_params(cfg, 4, 2, rng)
        params["head"]["W"] *= 20.0  # make the steps far from uniform
        n = 20000
        z = np.tile(rng.standard_normal(2), (n, 1))
        out = ancestral_sample([params], cfg, [z], rng, eos_id=0)
        first = np.array([seq[0] for seq in out])
        logits, _ = decode_logits(params, cfg, z[:1], np.zeros((1, 1), int))
        p0 = softmax(logits[0, 0])
        p0[0] = 0.0
        p0 /= p0.sum()
        freq0 = np.bincount(first, minlength=4) / n
        np.testing.assert_allclose(freq0, p0, atol=4 * np.sqrt(0.25 / n))
        tok = int(np.argmax(p0))
        seconds = [seq[1] if len(seq) > 1 else 0 for seq in out
                   if seq[0] == tok]
        logits, _ = decode_logits(params, cfg, z[:1], np.array([[tok, 0]]))
        p1 = softmax(logits[0, 1])
        freq1 = np.bincount(seconds, minlength=4) / len(seconds)
        np.testing.assert_allclose(
            freq1, p1, atol=4 * np.sqrt(0.25 / len(seconds)))

    def test_step_logits_match_decode_logits(self, monkeypatch):
        """Every step's logits equal decode_logits on the sampled record at
        that position, past the receptive field and after some records have
        left the batch."""
        assert LONG.t_max > LONG.receptive_field
        rng, params, z, _, _ = make_case(16, cfg=LONG, B=6)
        params["head"]["b"][4] = -1.0  # records end at different steps
        steps = []

        def recording(*args):
            logits = step_logits(*args)
            steps.append(logits.copy())
            return logits

        step_logits = decoder._step_logits
        monkeypatch.setattr(decoder, "_step_logits", recording)
        out = ancestral_sample([params], LONG, [z], rng, eos_id=4)
        tokens = np.zeros((len(z), LONG.seq_len), dtype=int)
        for b, seq in enumerate(out):
            tokens[b, :len(seq) + 1] = seq + [4]
        full, _ = decode_logits(params, LONG, z, tokens)
        assert len(steps) > LONG.receptive_field
        # the rows live at step t are the records with len(seq) >= t
        live = [[b for b, seq in enumerate(out) if len(seq) >= t]
                for t in range(len(steps))]
        # records left the batch at two or more different steps
        assert len({len(rows) for rows in live}) > 2
        for t, (rows, logits) in enumerate(zip(live, steps)):
            assert rel_err(logits, full[rows, t]) < 1e-12

    def test_steps_see_only_live_rows_through_windows(self, monkeypatch):
        """Each step runs on the records still drawing, in order, and each
        conv layer keeps one window of (kernel - 1) * d + 1 inputs."""
        rng, params, z, _, _ = make_case(21, cfg=LONG, B=7)
        params["head"]["b"][4] = -1.0
        shapes = []

        def spying(layers, head, x, windows, *rest):
            shapes.append((x.shape, [w.shape for w in windows]))
            return step_logits(layers, head, x, windows, *rest)

        step_logits = decoder._step_logits
        monkeypatch.setattr(decoder, "_step_logits", spying)
        out = ancestral_sample([params], LONG, [z], rng, eos_id=4)
        n_live = [sum(len(seq) >= t for seq in out)
                  for t in range(len(shapes))]
        assert n_live[-1] < len(z)  # some records had ended
        assert len(shapes) == min(LONG.t_max, max(map(len, out)) + 1)
        for n, (x_shape, window_shapes) in zip(n_live, shapes):
            assert x_shape == (n, LONG.channels)
            assert window_shapes == [
                (n, (LONG.kernel - 1) * d + 1, LONG.channels)
                for d in LONG.dilations]

    def test_capped_request_builds_context_to_the_cap(self, monkeypatch):
        rng, params, z, _, _ = make_case(22, cfg=LONG, B=3)
        widths = []

        def spying(params, cfg, z, out_len):
            widths.append(out_len)
            return latent_context(params, cfg, z, out_len)

        latent_context = decoder._latent_context
        monkeypatch.setattr(decoder, "_latent_context", spying)
        for cap in (1, 5, LONG.t_max + 4):
            ancestral_sample([params], LONG, [z], rng, eos_id=4, t_max=cap)
        assert widths == [1, 5, LONG.t_max]

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_matches_prefix_rescoring_oracle(self, seed):
        rng, params, z, _, _ = make_case(seed, cfg=LONG, B=5)
        params["head"]["b"][4] = 1.0
        kwargs = dict(eos_id=4, forbid=(5,))
        out = ancestral_sample([params], LONG, [z],
                               np.random.default_rng(seed), **kwargs)
        ref = prefix_sample(params, LONG, z,
                            np.random.default_rng(seed), **kwargs)
        assert out == ref
        assert len({len(seq) for seq in out}) > 1

    def test_length_cap_truncates(self):
        """A cap stops the draws early and leaves the earlier ones alone."""
        rng, params, z, _, _ = make_case(20, cfg=LONG, B=8)
        params["head"]["b"][4] = -np.inf
        full = ancestral_sample([params], LONG, [z], np.random.default_rng(3),
                                eos_id=4)
        for cap in (1, 5, LONG.t_max, LONG.t_max + 4):
            capped = ancestral_sample([params], LONG, [z],
                                      np.random.default_rng(3), eos_id=4,
                                      t_max=cap)
            assert capped == [seq[:cap] for seq in full]
        with pytest.raises(ValueError):
            ancestral_sample([params], LONG, [z], rng, eos_id=4, t_max=0)

    def test_rejects_unmatched_groups(self):
        rng, params, z, _, _ = make_case(12)
        with pytest.raises(ValueError, match="one latent array"):
            ancestral_sample([params, params], SMALL, [z], rng, eos_id=4)
        with pytest.raises(ValueError, match="one latent array"):
            ancestral_sample([], SMALL, [], rng, eos_id=4)

    @pytest.mark.parametrize("seed", range(8))
    def test_groups_match_grouped_oracle(self, seed):
        """One to five snapshot groups of unequal size, their records
        interleaved, draw in one loop what the grouped prefix-rescoring
        reference draws, token for token: the latents first, group by group
        in ascending snapshot order, then one uniform vector per step over
        the live records, group-major. Decoder settings are random."""
        rng = np.random.default_rng(seed)
        cfg = DecoderConfig(
            t_max=int(rng.integers(3, 14)), channels=int(rng.integers(2, 6)),
            kernel=int(rng.integers(1, 4)),
            dilations=tuple(int(d) for d in np.sort(rng.choice(
                4, size=rng.integers(1, 4), replace=False)) + 1),
            n_upsample=int(rng.integers(0, 3)))
        n_vocab, n_latent, eos = int(rng.integers(5, 9)), 2, 1
        thetas = [init_decoder_params(cfg, n_vocab, n_latent, rng)
                  for _ in range(6)]
        for theta in thetas:  # records end at several different steps
            theta["head"]["b"][eos] = rng.uniform(-1.0, 1.5)
        G = int(rng.integers(1, 6)) if seed else 5
        snaps = rng.choice(len(thetas), size=G, replace=False)
        sizes = rng.choice(np.arange(1, 8), size=G, replace=False)
        picks = rng.permutation(np.repeat(snaps, sizes))
        kwargs = dict(eos_id=eos, forbid=(0,))

        def draw_latents(s, n, rng):
            return rng.standard_normal((n, n_latent))

        draw = np.random.default_rng(100 + seed)
        groups = np.unique(picks)
        z = [draw_latents(s, np.count_nonzero(picks == s), draw)
             for s in groups]
        sampled = ancestral_sample([thetas[s] for s in groups], cfg, z, draw,
                                   **kwargs)
        out = [None] * len(picks)
        for r, seq in zip(np.argsort(picks, kind="stable"), sampled):
            out[r] = seq
        ref = grouped_prefix_sample(thetas, cfg, picks, draw_latents,
                                    np.random.default_rng(100 + seed),
                                    **kwargs)
        assert out == ref
        assert len({len(seq) for seq in out}) > 1
