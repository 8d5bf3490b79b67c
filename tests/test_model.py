"""Checkpoint round-trips and reservoir access on the model container."""

import json

import numpy as np
import pytest

from ehrgen import _nn
from ehrgen.corpus import build_visit_vocab, encode_cohort
from ehrgen.decoder import DecoderConfig
from ehrgen.model import CHECKPOINT_VERSION, TrainedModel
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import TrainConfig, train


def quick_model(variant="evac", seed=0):
    spec = default_toy_spec(n_records=10, background_groups=3,
                            groups_per_condition=2, len_min=2, len_max=4)
    cohort = simulate_toy_cohort(spec, seed=seed)
    vocab = build_visit_vocab(cohort, max_size=32)
    batch = encode_cohort(cohort, vocab, t_max=4)
    cfg = TrainConfig(variant=variant, latent_dim=3, n_iters=6, minibatch=5,
                      embed_dim=4, hidden=5, cond_hidden=4, burn_in=2, thin=2,
                      reservoir_size=2, seed=seed)
    dec_cfg = DecoderConfig(vocab_size=vocab.size, latent_dim=3, t_max=4,
                            channels=4, kernel=2, dilations=(1, 2),
                            n_upsample=1)
    return train(cfg, batch, vocab,
                 condition_names=tuple(cohort.condition_names),
                 dec_cfg=dec_cfg)


def trees_equal(a, b):
    fa, fb = dict(_nn.iter_arrays(a)), dict(_nn.iter_arrays(b))
    assert set(fa) == set(fb)
    for k in fa:
        np.testing.assert_array_equal(fa[k], fb[k])


def rewrite(path, edit):
    """Apply ``edit(meta, arrays)`` to a saved checkpoint in place."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        arrays = {k: data[k] for k in data.files if k != "meta"}
    edit(meta, arrays)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


class TestReservoirAccess:
    def test_point_sample_is_last(self):
        model = quick_model()
        assert model.point_sample() is model.reservoir[-1]

    def test_empty_reservoir_raises(self):
        model = quick_model()
        model.reservoir = []
        with pytest.raises(ValueError, match="reservoir"):
            model.point_sample()


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        model = quick_model()
        model.extra = {"config_digest": "abc123", "seed": 7}
        path = tmp_path / "model.npz"
        model.save(path)
        back = TrainedModel.load(path)

        assert back.variant == model.variant
        assert back.dec_cfg == model.dec_cfg
        assert isinstance(back.dec_cfg.dilations, tuple)
        assert back.enc_cfg == model.enc_cfg
        assert back.condition_names == model.condition_names
        assert back.vocab == model.vocab
        assert back.train_config == model.train_config
        assert back.extra == {"config_digest": "abc123", "seed": 7}
        assert len(back.history) == len(model.history)

        trees_equal(back.phi, model.phi)
        assert len(back.reservoir) == len(model.reservoir)
        for sa, sb in zip(model.reservoir, back.reservoir):
            trees_equal(sa, sb)

    def test_eva_roundtrip(self, tmp_path):
        model = quick_model(variant="eva")
        path = tmp_path / "m.npz"
        model.save(path)
        back = TrainedModel.load(path)
        assert back.variant == "eva"
        assert set(back.reservoir[0]) == {"theta"}

    def test_evac_roundtrip_generates_same_cohort(self, tmp_path):
        """One shared encoder config survives the round trip, and the
        reloaded model draws the same cohort for the same seed."""
        from ehrgen.generator import GenerationRequest, generate_cohort
        model = quick_model(variant="evac")
        path = tmp_path / "m.npz"
        model.save(path)
        back = TrainedModel.load(path)
        assert back.enc_cfg == model.enc_cfg
        assert set(back.phi) == {"seq", "cond"}
        case = next(c for c in model.condition_names if c != "background")
        request = GenerationRequest(count=6, mode="conditional",
                                    conditions=(case,), seed=11)
        a = generate_cohort(model, request)
        b = generate_cohort(back, request)
        assert [r.visits for r in a.records] == [r.visits for r in b.records]

    def test_version_check(self, tmp_path):
        """A newer format version, format 4 (both layouts stored beside the
        configs), format 3 (derived parts stored beside the training
        config), format 2 (one encoder config per latent) and format 1 (one
        array per leaf) are all refused."""
        model = quick_model(variant="eva")
        path = tmp_path / "m.npz"
        model.save(path)
        for version in (CHECKPOINT_VERSION + 1, 4, 3, 2, 1):
            rewrite(path, lambda meta, arrays: meta.update(
                format_version=version))
            with pytest.raises(ValueError, match="version"):
                TrainedModel.load(path)

    def test_meta_holds_no_shapes(self, tmp_path):
        model = quick_model()
        path = tmp_path / "m.npz"
        model.save(path)
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
        assert set(meta) == {"format_version", "train_config", "dec_cfg",
                             "condition_names", "history", "vocab", "extra"}

    @pytest.mark.parametrize("variant", ["eva", "evac"])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch,
                                          variant):
        model = quick_model(variant=variant)
        path = tmp_path / "m.npz"
        model.save(path)

        def refuse(*args, **kwargs):
            raise AssertionError("load made a random generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        back = TrainedModel.load(path)
        trees_equal(back.phi, model.phi)
        trees_equal(back.reservoir[-1], model.reservoir[-1])

    def test_save_refuses_trees_the_configs_do_not_give(self, tmp_path):
        model = quick_model()
        model.phi["cond"]["l1"]["b"] = np.zeros(5)
        with pytest.raises(ValueError, match="layout"):
            model.save(tmp_path / "m.npz")

    def test_mismatched_vector_length_rejected(self, tmp_path):
        model = quick_model()
        path = tmp_path / "m.npz"
        model.save(path)
        rewrite(path, lambda meta, arrays: arrays.update(
            phi=arrays["phi"][:-1]))
        with pytest.raises(ValueError, match="layout"):
            TrainedModel.load(path)
        model.save(path)
        for bad in (lambda r: r[:, :-1], np.ravel):
            model.save(path)
            rewrite(path, lambda meta, arrays: arrays.update(
                reservoir=bad(arrays["reservoir"])))
            with pytest.raises(ValueError, match="reservoir"):
                TrainedModel.load(path)

    def test_loaded_model_generates(self, tmp_path):
        """A reloaded checkpoint must be usable end to end."""
        from ehrgen.generator import GenerationRequest, generate_cohort
        model = quick_model()
        path = tmp_path / "m.npz"
        model.save(path)
        back = TrainedModel.load(path)
        out = generate_cohort(back, GenerationRequest(count=3, seed=5))
        assert len(out) == 3
