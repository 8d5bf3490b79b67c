"""Trained-model container and single-file checkpoints.

A format-6 checkpoint is one ``.npz``: the encoder vector ``phi``, the
reservoir of posterior (theta, H) samples as one (R, P) array, and JSON
metadata with the training and decoder configs, the vocabulary, condition
names, history and extras; no shape or size is stored. The vocabulary size
comes from the vocabulary, the condition count from the condition names,
the latent size and the encoder widths from the training config, and the
decoder's widths and length from its config. ``load`` rebuilds the parts
through ``build_parts``, derives every parameter shape from them and
refuses arrays of other lengths. Older formats are refused by version.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import VisitVocab, VocabEntry, reading
from .decoder import DecoderConfig

CHECKPOINT_VERSION = 6


@dataclass
class ModelParts:
    """Static description shared by the objective and evaluation code; the
    variant, latent size, tau and gamma are read from ``train_config``."""

    train_config: object  # trainer.TrainConfig
    dec_cfg: DecoderConfig
    vocab_size: int
    cond_dim: int  # condition columns

    @property
    def variant(self):
        return self.train_config.variant

    @property
    def local_slices(self):
        """Columns of z, then w and b for evac, in the encoder output."""
        d, k = self.train_config.latent_dim, self.cond_dim
        if self.variant == "eva":
            return (slice(0, d),)
        return slice(0, d), slice(d, d + k), slice(d + k, d + k + d)


@dataclass
class TrainedModel(ModelParts):
    """The parts plus what training learned."""

    phi: dict
    reservoir: list  # snapshots {"theta": tree} (+ "H" for the conditional)
    vocab: VisitVocab
    condition_names: tuple
    history: list = None
    extra: dict = None

    def point_sample(self):
        """Last retained posterior sample — the point-estimate ablation."""
        if not self.reservoir:
            raise ValueError("model has an empty posterior reservoir")
        return self.reservoir[-1]

    # -- persistence --------------------------------------------------------

    def save(self, path):
        from .trainer import param_layouts  # deferred: import cycle
        res_layout, phi_layout = param_layouts(self)
        reservoir = np.array([res_layout.flatten(s) for s in self.reservoir])
        reservoir = reservoir.reshape(len(self.reservoir), res_layout.size)
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "train_config": asdict(self.train_config),
            "dec_cfg": asdict(self.dec_cfg),
            "condition_names": list(self.condition_names),
            "history": self.history or [],
            "vocab": [
                {"codes": list(e.codes), "frequency": e.frequency}
                for e in self.vocab.entries
            ],
            "extra": self.extra or {},
        }
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)),
                     phi=phi_layout.flatten(self.phi), reservoir=reservoir)

    @classmethod
    def load(cls, path):
        """Read a checkpoint; a file that is not a well-formed one raises
        ValueError naming ``path``."""
        from .trainer import TrainConfig, build_parts, param_layouts  # cycle
        with (reading(path, "checkpoint", EOFError, zipfile.BadZipFile),
              np.load(path, allow_pickle=False) as data):
            meta = json.loads(str(data["meta"]))
            if meta.get("format_version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version "
                    f"{meta.get('format_version')!r}")
            phi_vec, res = data["phi"], data["reservoir"]
            vocab = VisitVocab([
                VocabEntry(codes=tuple(e["codes"]), token_id=i,
                           frequency=int(e["frequency"]))
                for i, e in enumerate(meta["vocab"])
            ])
            condition_names = tuple(meta["condition_names"])
            dec_cfg = _config_from(DecoderConfig, meta["dec_cfg"], "dec_cfg")
            parts = build_parts(
                _config_from(TrainConfig, meta["train_config"], "train_config"),
                vocab.size, len(condition_names), dec_cfg.t_max, dec_cfg)
            res_layout, phi_layout = param_layouts(parts)
            if res.ndim != 2 or res.shape[1] != res_layout.size:
                raise ValueError(f"reservoir shape {res.shape} does not match "
                                 "the layout the configs and vocab give")
            phi = phi_layout.views(phi_vec)  # raises on a length mismatch
            reservoir = [res_layout.views(row) for row in res]
            return cls(**vars(parts), phi=phi, reservoir=reservoir,
                       vocab=vocab, condition_names=condition_names,
                       history=meta["history"], extra=meta["extra"])


def _config_from(cls, values, what):
    """``cls(**values)`` with JSON lists as tuples. A missing field is
    refused: its default would stand in for what the model trained with."""
    missing = [f.name for f in fields(cls) if f.name not in values]
    if missing:
        raise ValueError(f"{what} lacks field {missing[0]!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in values.items()})
