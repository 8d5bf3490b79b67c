"""Hybrid training: SGMCMC over global weights, amortized VI for locals.

One iteration draws a minibatch, samples the local latents from their
variational posteriors, and then applies two updates computed from that same
forward pass: a preconditioned SGLD step on the global variables (decoder
weights theta and, for the conditional variant, the condition-embedding
matrix H), and an Adam step on the encoder parameters phi descending the
local objective J. After burn-in, thinned snapshots of (theta, H) are kept
in a small reservoir; generation later draws from it to realize weight
uncertainty.

Sign conventions: J is minimized; its negation is the per-batch evidence
lower bound. For the unconditional variant the latent cross term is the
closed-form E_q[ln N(z; 0, I)], so -J equals reconstruction minus
KL(q(z|x) || N(0, I)) exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from . import _nn
from .decoder import DecoderConfig, init_decoder_params, ll_and_grads
from .encoders import (
    EncoderConfig,
    encode_conditions,
    encode_conditions_backward,
    encode_sequence,
    encode_sequence_backward,
    init_condition_encoder,
    init_sequence_encoder,
    poe_combine,
    poe_combine_backward,
    sample_with_eta,
    sample_with_eta_backward,
)
from .latent import latent_log_density_grads
from .model import ModelParts, TrainedModel

VARIANTS = ("eva", "evac")

LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "eva"
    latent_dim: int = 16
    n_iters: int = 2000
    minibatch: int = 32
    lr_phi: float = 1e-3
    lr_global: float = 1e-3
    psgld_alpha: float = 0.99
    psgld_lambda: float = 1e-5
    temperature: float = 1.0  # pSGLD noise variance scales by T
    burn_in: int | None = None  # default: half the iteration budget
    thin: int = 200
    reservoir_size: int = 10
    clip_norm: float = 1e4  # globals grad is scaled by n/B; a tight clip diverges
    embed_dim: int = 32
    hidden: int = 64
    cond_hidden: int = 32
    tau: float = 0.1
    gamma: float = 0.1
    log_every: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        # rate 0 is allowed so "no learning" degenerates to the identity
        if self.lr_phi < 0 or self.lr_global < 0:
            raise ValueError("learning rates must be non-negative")
        if self.minibatch < 1 or self.n_iters < 1:
            raise ValueError("minibatch and n_iters must be >= 1")
        if self.reservoir_size < 1 or self.thin < 1:
            raise ValueError("reservoir_size and thin must be >= 1")
        if not (0.0 <= self.psgld_alpha <= 1.0):
            raise ValueError("psgld_alpha must lie in [0, 1]")
        for name in ("psgld_lambda", "tau", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        for name in ("latent_dim", "embed_dim", "hidden", "cond_hidden",
                     "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.burn_in_iters < self.n_iters:
            raise ValueError("burn_in must lie in [0, n_iters)")

    @property
    def burn_in_iters(self):
        return self.n_iters // 2 if self.burn_in is None else self.burn_in


@dataclass
class ElboReport:
    """Per-batch objective decomposition (sums over the batch records)."""

    recon: float
    cross: float
    entropy: float
    kl_b: float
    kl_w: float
    total: float
    kl_fraction: float

    @classmethod
    def from_terms(cls, recon, cross, entropy, kl_b, kl_w):
        total = -(recon + cross + entropy - kl_b - kl_w)
        # everything the bound loses to posterior divergence, as a fraction
        kl_total = total + recon
        frac = kl_total / max(abs(total), 1e-12)
        return cls(recon=float(recon), cross=float(cross),
                   entropy=float(entropy), kl_b=float(kl_b),
                   kl_w=float(kl_w), total=float(total),
                   kl_fraction=float(frac))


class TrainingDiverged(RuntimeError):
    """Objective became non-finite; carries the last finite report."""

    def __init__(self, iteration, last_report):
        super().__init__(f"objective non-finite at iteration {iteration}")
        self.iteration = iteration
        self.last_report = last_report


# ---------------------------------------------------------------------------
# closed-form Gaussian quantities
# ---------------------------------------------------------------------------

def kl_diag_gaussians(q, prior_mean, prior_var):
    """KL(q || N(prior_mean, prior_var I)) summed over all dimensions."""
    pv = float(prior_var)
    if pv <= 0:
        raise ValueError("prior variance must be positive")
    if np.any(q.var <= 0):
        raise ValueError("variance must be strictly positive")
    d = q.mean - prior_mean
    return float(0.5 * np.sum(q.var / pv + d * d / pv - 1.0 + np.log(pv / q.var)))


def entropy_diag_gaussian(g):
    if np.any(g.var <= 0):
        raise ValueError("variance must be strictly positive")
    return float(0.5 * np.sum(1.0 + np.log(2.0 * math.pi * g.var)))


# ---------------------------------------------------------------------------
# posterior assembly
# ---------------------------------------------------------------------------

def init_globals(parts, rng):
    """Decoder weights theta, then the condition embedding H for evac."""
    globals_ = {"theta": init_decoder_params(parts.dec_cfg, rng)}
    if parts.variant == "evac":
        globals_["H"] = 0.1 * rng.standard_normal(
            (parts.dec_cfg.latent_dim, parts.enc_cfg.cond_dim))
    return globals_


def init_phi(parts, rng):
    phi = {"seq": init_sequence_encoder(parts.enc_cfg, rng)}
    if parts.variant == "evac":
        phi["cond"] = init_condition_encoder(parts.enc_cfg, rng)
    return phi


# stands in for a Generator in the init functions: each draw is a read-only
# zero broadcast to its size, so nothing is drawn and nothing is allocated
_NO_DRAWS = SimpleNamespace(
    normal=lambda loc, scale, size: np.broadcast_to(0.0, size),
    standard_normal=lambda size: np.broadcast_to(0.0, size))


def param_layouts(parts):
    """``(globals_layout, phi_layout)``: the shapes the configs in ``parts``
    give theta, H and phi, from the init functions that draw them."""
    return (_nn.Layout(init_globals(parts, _NO_DRAWS)),
            _nn.Layout(init_phi(parts, _NO_DRAWS)))


def encode_posteriors(parts, phi, batch):
    """Variational posterior over all locals (no caches); used at eval.
    Its columns are ``parts.local_slices``: z, then w and b for evac."""
    return _posterior_with_caches(parts, phi, batch)[0]["q"]


def _posterior_with_caches(parts, phi, batch):
    cfg = parts.enc_cfg
    q_seq, c_seq = encode_sequence(phi["seq"], cfg, batch.tokens, batch.mask)
    if parts.variant == "eva":
        return {"q": q_seq, "q_seq": q_seq}, c_seq, None
    q_cond, c_cond = encode_conditions(phi["cond"], cfg, batch.conditions)
    q = poe_combine(q_seq, q_cond)
    return {"q": q, "q_seq": q_seq, "q_cond": q_cond}, c_seq, c_cond


def _posterior_backward(parts, qs, c_seq, c_cond, dmean, dvar):
    """Push (dmean, dvar) on the fused posterior back into encoder grads."""
    if parts.variant == "eva":
        return {"seq": encode_sequence_backward(c_seq, dmean, dvar)}
    dm_s, dv_s, dm_c, dv_c = poe_combine_backward(
        qs["q_seq"], qs["q_cond"], qs["q"], dmean, dvar)
    return {
        "seq": encode_sequence_backward(c_seq, dm_s, dv_s),
        "cond": encode_conditions_backward(c_cond, dm_c, dv_c),
    }


def draw_local_noises(rng, parts, n):
    """Fresh standard-normal reparameterization noise for all locals: one
    (n, out_dim) array whose columns are ``parts.local_slices``."""
    return rng.standard_normal((n, parts.enc_cfg.out_dim))


# ---------------------------------------------------------------------------
# step gradients (single forward/backward shared by both update rules)
# ---------------------------------------------------------------------------

def step_gradients(parts, batch, theta, H, phi, noises, n_total):
    """One forward/backward pass with common noise for both update rules.

    Returns ``(report, g_globals, g_phi)``: ``g_globals`` (``{"theta":
    tree}``, plus ``"H"`` for evac) estimates the log-posterior gradient as
    the data term times ``n_total / len(batch)`` plus the N(0, I) prior
    gradient; ``g_phi`` is the gradient of J for the encoders.
    """
    qs, c_seq, c_cond = _posterior_with_caches(parts, phi, batch)
    q = qs["q"]
    sample = sample_with_eta(q, noises)
    sz = parts.local_slices[0]

    z_s = sample[:, sz]
    ll, g_theta_data, dz_recon = ll_and_grads(
        theta, parts.dec_cfg, z_s, batch.tokens, batch.mask)
    recon = float(ll.sum())

    q_z = q.cols(sz)
    entropy = entropy_diag_gaussian(q_z)

    # gradients of J on the fused posterior (mean, var) and on the drawn
    # sample; each latent owns its columns
    dmean = np.zeros_like(q.mean)
    dvar = np.zeros_like(q.var)
    dsample = np.zeros_like(sample)

    # reconstruction enters J negatively
    dsample[:, sz] -= dz_recon
    # entropy enters J negatively
    dvar[:, sz] -= 0.5 / q_z.var

    if parts.variant == "eva":
        # closed-form E_q[ln N(z; 0, I)]
        cross = float(-0.5 * np.sum(LN_2PI + q_z.mean ** 2 + q_z.var))
        dmean[:, sz] += q_z.mean
        dvar[:, sz] += 0.5
        kl_b = kl_w = 0.0
        g_data = {"theta": g_theta_data}
    else:
        _, sw, sb = parts.local_slices
        tau, gamma = parts.train_config.tau, parts.train_config.gamma
        ll_z, dz_c, dw_c, db_c, dH_data = latent_log_density_grads(
            z_s, H, batch.conditions, sample[:, sw], sample[:, sb], tau)
        cross = float(ll_z.sum())
        g_data = {"theta": g_theta_data, "H": dH_data}
        dsample[:, sz] -= dz_c
        dsample[:, sw] -= dw_c
        dsample[:, sb] -= db_c
        q_w, q_b = q.cols(sw), q.cols(sb)
        kl_w = kl_diag_gaussians(q_w, 0.0, 1.0)
        kl_b = kl_diag_gaussians(q_b, 0.0, gamma)
        dmean[:, sw] += q_w.mean
        dvar[:, sw] += 0.5 * (1.0 - 1.0 / q_w.var)
        dmean[:, sb] += q_b.mean / gamma
        dvar[:, sb] += 0.5 * (1.0 / gamma - 1.0 / q_b.var)

    report = ElboReport.from_terms(recon, cross, entropy, kl_b, kl_w)

    dm_s, dv_s = sample_with_eta_backward(q, noises, dsample)
    g_phi = _posterior_backward(parts, qs, c_seq, c_cond, dmean + dm_s,
                                dvar + dv_s)

    g_globals = _log_posterior_grad(g_data, {"theta": theta, "H": H},
                                    n_total / len(batch))
    return report, g_globals, g_phi


def _log_posterior_grad(g_data, params, scale):
    """scale * g_data - params over the leaves of g_data (prior N(0, I))."""
    if isinstance(g_data, dict):
        return {k: _log_posterior_grad(g, params[k], scale)
                for k, g in g_data.items()}
    return scale * g_data - params


# ---------------------------------------------------------------------------
# preconditioned SGLD
# ---------------------------------------------------------------------------

@dataclass
class SamplerState:
    """Adaptive second-moment accumulator plus the kept posterior samples."""

    v: np.ndarray
    step: int = 0
    reservoir: deque = field(default_factory=deque)

    @classmethod
    def create(cls, params, reservoir_size):
        return cls(v=np.zeros_like(params), step=0,
                   reservoir=deque(maxlen=reservoir_size))


def psgld_step(state, params, grad, step_size, temperature, rng,
               alpha=0.99, lam=1e-5):
    """One preconditioned Langevin ascent step on a flat vector, in place.

    V <- alpha V + (1 - alpha) g^2, and V <- g^2 on the first step, so the
    first G is not inflated by V's zero start;  G <- 1 / (lam + sqrt(V));
    p <- p + (step/2) G g + N(0, temperature * step G).

    The noise variance is linear in temperature, the tempered-posterior law
    (Wenzel et al. 2020). temperature 0 gives deterministic preconditioned
    ascent. The curvature correction term of the original method is
    omitted, as is common.
    """
    if step_size < 0:
        raise ValueError("step_size must be non-negative")
    if grad.shape != params.shape:
        raise ValueError(f"grad shape {grad.shape} != {params.shape}")
    v = state.v
    if state.step == 0:
        v[:] = grad * grad
    else:
        v *= alpha
        v += (1.0 - alpha) * grad * grad
    G = 1.0 / (lam + np.sqrt(v))
    params += 0.5 * step_size * G * grad
    if temperature > 0:
        params += np.sqrt(temperature * step_size * G) * rng.standard_normal(
            params.shape)
    state.step += 1
    return state


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def build_parts(config, vocab_size, cond_dim, t_max, dec_cfg=None):
    if dec_cfg is None:
        dec_cfg = DecoderConfig(vocab_size=vocab_size,
                                latent_dim=config.latent_dim, t_max=t_max)
    if dec_cfg.vocab_size != vocab_size:
        raise ValueError("decoder vocab size does not match the vocabulary")
    if dec_cfg.latent_dim != config.latent_dim:
        raise ValueError(f"decoder latent_dim {dec_cfg.latent_dim} does not "
                         f"match the config's latent_dim {config.latent_dim}")
    # all locals share one encoder: z, then w and b for evac
    out_dim = config.latent_dim
    if config.variant == "evac":
        if cond_dim < 1:
            raise ValueError("conditional variant needs condition columns")
        out_dim += cond_dim + config.latent_dim
    enc_cfg = EncoderConfig(vocab_size=vocab_size, cond_dim=max(cond_dim, 1),
                            out_dim=out_dim, embed_dim=config.embed_dim,
                            hidden=config.hidden,
                            cond_hidden=config.cond_hidden)
    return ModelParts(train_config=config, dec_cfg=dec_cfg, enc_cfg=enc_cfg)


def train(config, batch, vocab, condition_names=(), dec_cfg=None,
          metrics_sink=None, checkpoint_fn=None):
    """Run the alternating scheme over an encoded cohort whose condition
    columns ``condition_names`` labels, one name per column.

    metrics_sink(iteration, ElboReport) is called every iteration;
    checkpoint_fn(iteration, snapshot) fires whenever a thinned posterior
    sample is stored. Raises TrainingDiverged on a non-finite objective.
    """
    n = len(batch)
    if n < 1:
        raise ValueError("empty training batch")
    t_max = batch.tokens.shape[1] - 1
    cond_dim = batch.conditions.shape[1]
    if len(condition_names) != cond_dim:
        raise ValueError(f"{len(condition_names)} condition_names for "
                         f"{cond_dim} condition columns")
    parts = build_parts(config, vocab.size, cond_dim, t_max, dec_cfg)

    rng = np.random.default_rng(config.seed)
    glob_layout, phi_layout = param_layouts(parts)
    # one vector per parameter set; theta, H and phi are views into them
    glob_vec = glob_layout.flatten(init_globals(parts, rng))
    phi_vec = phi_layout.flatten(init_phi(parts, rng))
    globals_, phi = glob_layout.views(glob_vec), phi_layout.views(phi_vec)
    theta, H = globals_["theta"], globals_.get("H")

    adam = _nn.Adam(phi_vec, lr=config.lr_phi)
    state = SamplerState.create(glob_vec, config.reservoir_size)
    burn_in = config.burn_in_iters
    history = []
    last_report = None

    for it in range(config.n_iters):
        idx = rng.choice(n, size=min(config.minibatch, n), replace=False)
        mb = batch.take(idx)
        noises = draw_local_noises(rng, parts, len(mb))

        report, g_globals, g_phi = step_gradients(
            parts, mb, theta, H, phi, noises, n)
        # any non-finite term makes the total non-finite
        if not math.isfinite(report.total):
            raise TrainingDiverged(it, last_report)

        # globals: ascend the rescaled log posterior
        g = glob_layout.flatten(g_globals)
        _nn.clip_global_norm(g, config.clip_norm)
        psgld_step(state, glob_vec, g, config.lr_global,
                   config.temperature, rng,
                   alpha=config.psgld_alpha, lam=config.psgld_lambda)

        # locals: descend J = ascend -J
        g = -phi_layout.flatten(g_phi)
        _nn.clip_global_norm(g, config.clip_norm)
        adam.step(phi_vec, g)

        if it >= burn_in and (it - burn_in) % config.thin == 0:
            snapshot = glob_vec.copy()
            state.reservoir.append(snapshot)
            if checkpoint_fn is not None:
                checkpoint_fn(it, glob_layout.views(snapshot))

        last_report = report
        if metrics_sink is not None:
            metrics_sink(it, report)
        if it % config.log_every == 0 or it == config.n_iters - 1:
            history.append({"iteration": it, **asdict(report)})

    return TrainedModel(
        **vars(parts), phi=phi, vocab=vocab, history=history,
        reservoir=[glob_layout.views(v) for v in state.reservoir],
        condition_names=tuple(condition_names))
