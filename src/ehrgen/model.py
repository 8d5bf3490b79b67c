"""The model: configs, parameter shapes and initialisation, the encoders'
posterior and the trained-model checkpoint; ``trainer`` fits it.

A format-8 checkpoint is one ``.npz``: the encoder vector ``phi``, the
reservoir of posterior (theta, H) samples as one (R, P) array, and JSON
metadata with the training and decoder configs, the vocabulary, condition
names, history and extras; no shape or size is stored. The vocabulary size
comes from the vocabulary, the condition count from the condition names,
the latent size and the LSTM width from the training config, the other
encoder widths from ``ENCODER_EMBED`` and ``CONDITION_HIDDEN``, and the
decoder's widths and length from its config. ``load`` rebuilds the
``ModelParts`` from them, derives every parameter shape from the parts and
refuses arrays of other lengths. Older formats are refused by version.
"""

from __future__ import annotations

import functools
import json
import zipfile
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import _nn
from .corpus import VisitVocab, reading
from .decoder import DecoderConfig, init_decoder_params
from .encoders import (
    encode_conditions,
    encode_sequence,
    init_condition_encoder,
    init_sequence_encoder,
    poe_combine,
)

VARIANTS = ("eva", "evac")

CHECKPOINT_VERSION = 8


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "eva"
    latent_dim: int = 16
    n_iters: int = 2000
    minibatch: int = 32
    lr_global: float = 1e-3
    temperature: float = 1.0  # pSGLD noise variance scales by T
    burn_in: int | None = None  # default: half the iteration budget
    thin: int = 200
    reservoir_size: int = 10
    clip_norm: float = 1e4  # globals grad is scaled by n/B; a tight clip diverges
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        # rate 0 is allowed so "no learning" degenerates to the identity
        if self.lr_global < 0:
            raise ValueError("lr_global must be non-negative")
        if self.minibatch < 1 or self.n_iters < 1:
            raise ValueError("minibatch and n_iters must be >= 1")
        if self.reservoir_size < 1 or self.thin < 1:
            raise ValueError("reservoir_size and thin must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        for name in ("latent_dim", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.burn_in_iters < self.n_iters:
            raise ValueError("burn_in must lie in [0, n_iters)")

    @property
    def burn_in_iters(self):
        return self.n_iters // 2 if self.burn_in is None else self.burn_in


@dataclass
class ModelParts:
    """Static description shared by the objective and evaluation code; the
    variant and the latent size are read from ``train_config``."""

    train_config: TrainConfig
    dec_cfg: DecoderConfig
    vocab_size: int
    cond_dim: int  # condition columns

    def __post_init__(self):
        if self.variant == "evac" and self.cond_dim < 1:
            raise ValueError("conditional variant needs condition columns")

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


def init_globals(parts, rng):
    """Decoder weights theta, then the condition embedding H for evac."""
    d = parts.train_config.latent_dim
    globals_ = {"theta": init_decoder_params(parts.dec_cfg, parts.vocab_size,
                                             d, rng)}
    if parts.variant == "evac":
        globals_["H"] = 0.1 * rng.standard_normal((d, parts.cond_dim))
    return globals_


ENCODER_EMBED = CONDITION_HIDDEN = 32  # the embedding and condition widths


def init_phi(parts, rng):
    """The encoders; both emit every local coordinate, ``local_slices``."""
    width = parts.local_slices[-1].stop
    phi = {"seq": init_sequence_encoder(parts.vocab_size, ENCODER_EMBED,
                                        parts.train_config.hidden, width, rng)}
    if parts.variant == "evac":
        phi["cond"] = init_condition_encoder(parts.cond_dim, CONDITION_HIDDEN,
                                             width, rng)
    return phi


# stands in for a Generator in the init functions: each draw is a read-only
# zero broadcast to its size, so nothing is drawn and nothing is allocated
_NO_DRAWS = SimpleNamespace(
    normal=lambda loc, scale, size: np.broadcast_to(0.0, size),
    standard_normal=lambda size: np.broadcast_to(0.0, size))


def param_layouts(parts):
    """``(globals_layout, phi_layout)``: the shapes the configs in ``parts``
    give theta, H and phi, from the init functions that draw them. They are
    derived once per set of configs."""
    return _layouts(parts.train_config, parts.dec_cfg, parts.vocab_size,
                    parts.cond_dim)


@functools.lru_cache(maxsize=16)
def _layouts(*fields):
    parts = ModelParts(*fields)
    return (_nn.Layout(init_globals(parts, _NO_DRAWS)),
            _nn.Layout(init_phi(parts, _NO_DRAWS)))


def encode_posteriors(parts, phi, batch):
    """Variational posterior over all locals (no caches); used at eval.
    Its columns are ``parts.local_slices``: z, then w and b for evac."""
    return posterior_with_caches(parts, phi, batch)[0]["q"]


def posterior_with_caches(parts, phi, batch):
    """The fused posterior ``q`` and each expert's, and their caches."""
    q_seq, c_seq = encode_sequence(phi["seq"], batch.tokens, batch.mask)
    if parts.variant == "eva":
        return {"q": q_seq, "q_seq": q_seq}, c_seq, None
    q_cond, c_cond = encode_conditions(phi["cond"], batch.conditions)
    q = poe_combine(q_seq, q_cond)
    return {"q": q, "q_seq": q_seq, "q_cond": q_cond}, c_seq, c_cond


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
        res_layout, phi_layout = param_layouts(self)
        reservoir = np.array([res_layout.flatten(s) for s in self.reservoir])
        reservoir = reservoir.reshape(len(self.reservoir), res_layout.size)
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "train_config": asdict(self.train_config),
            "dec_cfg": asdict(self.dec_cfg),
            "condition_names": list(self.condition_names),
            "history": self.history or [],
            "vocab": self.vocab.rows(),
            "extra": self.extra or {},
        }
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)),
                     phi=phi_layout.flatten(self.phi), reservoir=reservoir)

    @classmethod
    def load(cls, path):
        """Read a checkpoint; a file that is not a well-formed one raises
        ValueError naming ``path``."""
        with (reading(path, "checkpoint", EOFError, zipfile.BadZipFile),
              np.load(path, allow_pickle=False) as data):
            meta = json.loads(str(data["meta"]))
            if meta.get("format_version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version "
                    f"{meta.get('format_version')!r}")
            phi_vec, res = data["phi"], data["reservoir"]
            vocab = VisitVocab.from_rows(meta["vocab"])
            condition_names = tuple(meta["condition_names"])
            parts = ModelParts(
                _config_from(TrainConfig, meta["train_config"], "train_config"),
                _config_from(DecoderConfig, meta["dec_cfg"], "dec_cfg"),
                vocab.size, len(condition_names))
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
