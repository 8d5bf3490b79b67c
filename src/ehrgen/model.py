"""Trained-model container and single-file checkpoints.

A checkpoint is one ``.npz`` holding the encoder vector, the reservoir of
posterior (theta, H) samples as one (R, P) array, and a JSON metadata string
with both layouts, the configs, vocabulary, condition names, and training
history. The format is versioned so stale files fail loudly.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import _nn
from .corpus import VisitVocab, VocabEntry
from .decoder import DecoderConfig
from .encoders import EncoderConfig
from .latent import HierarchyHyper

CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class ModelParts:
    """Static description shared by the objective and evaluation code."""

    variant: str
    dec_cfg: DecoderConfig
    enc_cfg: EncoderConfig
    hyper: HierarchyHyper

    @property
    def local_slices(self):
        """Columns of z, then w and b for evac, in the encoder output."""
        d, k = self.dec_cfg.latent_dim, self.enc_cfg.cond_dim
        if self.variant == "eva":
            return (slice(0, d),)
        return slice(0, d), slice(d, d + k), slice(d + k, d + k + d)


@dataclass
class TrainedModel:
    variant: str
    dec_cfg: DecoderConfig
    enc_cfg: EncoderConfig
    hyper: HierarchyHyper
    phi: dict
    reservoir: list  # snapshots {"theta": tree} (+ "H" for the conditional)
    vocab: VisitVocab
    condition_names: tuple
    train_config: object = None
    history: list = None
    extra: dict = None

    @property
    def parts(self):
        return ModelParts(variant=self.variant, dec_cfg=self.dec_cfg,
                          enc_cfg=self.enc_cfg, hyper=self.hyper)

    def point_sample(self):
        """Last retained posterior sample — the point-estimate ablation."""
        if not self.reservoir:
            raise ValueError("model has an empty posterior reservoir")
        return self.reservoir[-1]

    # -- persistence --------------------------------------------------------

    def save(self, path):
        phi_layout = _nn.Layout.of(self.phi)
        res_layout = _nn.Layout.of(self.reservoir[0] if self.reservoir else {})
        reservoir = np.array([res_layout.flatten(s) for s in self.reservoir])
        reservoir = reservoir.reshape(len(self.reservoir), res_layout.size)
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "variant": self.variant,
            "dec_cfg": asdict(self.dec_cfg),
            "enc_cfg": asdict(self.enc_cfg),
            "hyper": asdict(self.hyper),
            "condition_names": list(self.condition_names),
            "n_reservoir": len(self.reservoir),
            "phi_layout": phi_layout.spec(),
            "globals_layout": res_layout.spec(),
            "train_config": (None if self.train_config is None
                             else asdict(self.train_config)),
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
        try:
            return cls._read(path)
        except (AttributeError, EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not a valid checkpoint: "
                             f"{type(exc).__name__}: {exc}") from exc

    @classmethod
    def _read(cls, path):
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("format_version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version "
                    f"{meta.get('format_version')!r}")
            phi_vec, res = data["phi"], data["reservoir"]
        phi_layout = _nn.Layout(meta["phi_layout"])
        res_layout = _nn.Layout(meta["globals_layout"])
        if res.shape != (meta["n_reservoir"], res_layout.size):
            raise ValueError(f"reservoir shape {res.shape} does not match "
                             "n_reservoir and the globals layout")
        phi = phi_layout.views(phi_vec)  # raises on a length mismatch
        reservoir = [res_layout.views(row) for row in res]
        vocab = VisitVocab([
            VocabEntry(codes=tuple(e["codes"]), token_id=i,
                       frequency=int(e["frequency"]))
            for i, e in enumerate(meta["vocab"])
        ])
        dec_cfg = meta["dec_cfg"]
        dec_cfg["dilations"] = tuple(dec_cfg["dilations"])
        train_config = None
        if meta["train_config"] is not None:
            from .trainer import TrainConfig  # deferred: avoids a cycle

            train_config = TrainConfig(**meta["train_config"])
        return cls(
            variant=meta["variant"],
            dec_cfg=DecoderConfig(**dec_cfg),
            enc_cfg=EncoderConfig(**meta["enc_cfg"]),
            hyper=HierarchyHyper(**meta["hyper"]),
            phi=phi,
            reservoir=reservoir,
            vocab=vocab,
            condition_names=tuple(meta["condition_names"]),
            train_config=train_config,
            history=meta["history"],
            extra=meta["extra"],
        )
