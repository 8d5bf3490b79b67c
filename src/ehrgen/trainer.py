"""The update scheme: SGMCMC over global weights, amortized VI for locals.

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
from dataclasses import asdict, dataclass

import numpy as np

from . import _nn
from .decoder import DecoderConfig, ll_and_grads
from .encoders import (
    encode_conditions_backward,
    encode_sequence_backward,
    entropy_diag_gaussian,
    kl_diag_gaussians,
    poe_combine_backward,
    sample_with_eta,
    sample_with_eta_backward,
)
from .latent import GAMMA, TAU, latent_log_density_grads
# perfbench/pipeline.py builds ``trainer.TrainConfig``, so it is kept here
from .model import (ModelParts, TrainConfig, TrainedModel, init_globals,
                    init_phi, param_layouts, posterior_with_caches)

LN_2PI = math.log(2.0 * math.pi)
HISTORY_EVERY = 50  # the history keeps every 50th iteration and the last
LR_PHI = 1e-3  # Adam's rate for the encoders


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


def draw_local_noises(rng, parts, n):
    """Fresh standard-normal reparameterization noise for all locals: one
    (n, width) array whose columns are ``parts.local_slices``."""
    return rng.standard_normal((n, parts.local_slices[-1].stop))


# ---------------------------------------------------------------------------
# step gradients (single forward/backward shared by both update rules)
# ---------------------------------------------------------------------------

def step_gradients(parts, batch, glob_vec, phi_vec, noises, n_total):
    """One forward/backward pass with common noise for both update rules.

    Reads the globals (theta, plus H for evac) and the encoders from the
    flat ``glob_vec`` and ``phi_vec``, and returns ``(report, g_globals,
    g_phi)``, new vectors in the same layouts that the backward passes add
    into: ``g_globals`` estimates the log-posterior gradient as the data
    term times ``n_total / len(batch)`` plus the N(0, I) prior gradient;
    ``g_phi`` is the gradient of J for the encoders.
    """
    glob_layout, phi_layout = param_layouts(parts)
    globals_ = glob_layout.views(glob_vec)
    g_globals, g_phi = np.zeros(glob_layout.size), np.zeros(phi_layout.size)
    g_glob_tree, g_enc = glob_layout.views(g_globals), phi_layout.views(g_phi)
    qs, c_seq, c_cond = posterior_with_caches(
        parts, phi_layout.views(phi_vec), batch)
    q = qs["q"]
    sample = sample_with_eta(q, noises)
    sz = parts.local_slices[0]

    z_s = sample[:, sz]
    ll, dz_recon = ll_and_grads(globals_["theta"], parts.dec_cfg, z_s,
                                batch.tokens, batch.mask, g_glob_tree["theta"])
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
    else:
        _, sw, sb = parts.local_slices
        ll_z, dz_c, dw_c, db_c, dH = latent_log_density_grads(
            z_s, globals_["H"], batch.conditions, sample[:, sw],
            sample[:, sb], TAU)
        cross = float(ll_z.sum())
        g_glob_tree["H"] += dH
        dsample[:, sz] -= dz_c
        dsample[:, sw] -= dw_c
        dsample[:, sb] -= db_c
        q_w, q_b = q.cols(sw), q.cols(sb)
        kl_w = kl_diag_gaussians(q_w, 0.0, 1.0)
        kl_b = kl_diag_gaussians(q_b, 0.0, GAMMA)
        dmean[:, sw] += q_w.mean
        dvar[:, sw] += 0.5 * (1.0 - 1.0 / q_w.var)
        dmean[:, sb] += q_b.mean / GAMMA
        dvar[:, sb] += 0.5 * (1.0 / GAMMA - 1.0 / q_b.var)

    report = ElboReport.from_terms(recon, cross, entropy, kl_b, kl_w)

    # push (dmean, dvar) on the fused posterior back into the encoders
    dm_s, dv_s = sample_with_eta_backward(q, noises, dsample)
    dmean, dvar = dmean + dm_s, dvar + dv_s
    if parts.variant == "evac":
        dmean, dvar, dm_c, dv_c = poe_combine_backward(
            qs["q_seq"], qs["q_cond"], q, dmean, dvar)
        encode_conditions_backward(c_cond, g_enc["cond"], dm_c, dv_c)
    encode_sequence_backward(c_seq, g_enc["seq"], dmean, dvar)

    # the N(0, I) prior contributes -params
    g_globals *= n_total / len(batch)
    g_globals -= glob_vec
    return report, g_globals, g_phi


# ---------------------------------------------------------------------------
# preconditioned SGLD
# ---------------------------------------------------------------------------

@dataclass
class SamplerState:
    """pSGLD's second-moment accumulator and the steps taken so far."""

    v: np.ndarray
    step: int = 0


def psgld_step(state, params, grad, step_size, temperature, rng,
               alpha=0.99, lam=1e-5):
    """One preconditioned Langevin ascent step on a flat vector, in place.

    V <- alpha V + (1 - alpha) g^2, and V <- g^2 on the first step, so the
    first G is not inflated by V's zero start;  G <- 1 / (lam + sqrt(V));
    p <- p + (step/2) G g + N(0, temperature * step G).

    ``train`` uses the method's alpha 0.99 and lambda 1e-5 (Li et al. 2016,
    arXiv:1512.07666); the keywords serve tests that need a near-constant
    preconditioner. The noise variance is linear in temperature, the
    tempered-posterior law (Wenzel et al. 2020). temperature 0 gives
    deterministic preconditioned ascent. The curvature correction term of
    the original method is omitted, as is common.
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

def train(config, batch, vocab, condition_names=(), dec_cfg=None,
          metrics_sink=None):
    """Run the alternating scheme over an encoded cohort whose condition
    columns ``condition_names`` labels, one name per column.

    metrics_sink(iteration, ElboReport) is called every iteration. Raises
    TrainingDiverged on a non-finite objective.
    """
    n = len(batch)
    if n < 1:
        raise ValueError("empty training batch")
    t_max = batch.tokens.shape[1] - 1
    if dec_cfg is not None and dec_cfg.t_max != t_max:
        raise ValueError(f"dec_cfg.t_max {dec_cfg.t_max} does not match the "
                         f"batch's t_max {t_max}")
    cond_dim = batch.conditions.shape[1]
    if len(condition_names) != cond_dim:
        raise ValueError(f"{len(condition_names)} condition_names for "
                         f"{cond_dim} condition columns")
    parts = ModelParts(config, dec_cfg or DecoderConfig(t_max=t_max),
                       vocab.size, cond_dim)

    rng = np.random.default_rng(config.seed)
    glob_layout, phi_layout = param_layouts(parts)
    # one vector per parameter set; the updates and gradients are flat
    glob_vec = glob_layout.flatten(init_globals(parts, rng))
    phi_vec = phi_layout.flatten(init_phi(parts, rng))

    adam = _nn.Adam(phi_vec, lr=LR_PHI)
    state = SamplerState(np.zeros_like(glob_vec))
    reservoir = deque(maxlen=config.reservoir_size)
    burn_in = config.burn_in_iters
    history = []
    last_report = None

    for it in range(config.n_iters):
        idx = rng.choice(n, size=min(config.minibatch, n), replace=False)
        mb = batch.take(idx)
        noises = draw_local_noises(rng, parts, len(mb))

        report, g_globals, g_phi = step_gradients(
            parts, mb, glob_vec, phi_vec, noises, n)
        # any non-finite term makes the total non-finite
        if not math.isfinite(report.total):
            raise TrainingDiverged(it, last_report)

        # globals: ascend the rescaled log posterior
        _nn.clip_global_norm(g_globals, config.clip_norm)
        psgld_step(state, glob_vec, g_globals, config.lr_global,
                   config.temperature, rng)

        # locals: descend J = ascend -J
        g_phi *= -1.0
        _nn.clip_global_norm(g_phi, config.clip_norm)
        adam.step(phi_vec, g_phi)

        if it >= burn_in and (it - burn_in) % config.thin == 0:
            reservoir.append(glob_vec.copy())

        last_report = report
        if metrics_sink is not None:
            metrics_sink(it, report)
        if it % HISTORY_EVERY == 0 or it == config.n_iters - 1:
            history.append({"iteration": it, **asdict(report)})

    return TrainedModel(
        **vars(parts), phi=phi_layout.views(phi_vec), history=history,
        vocab=vocab, reservoir=[glob_layout.views(v) for v in reservoir],
        condition_names=tuple(condition_names))
