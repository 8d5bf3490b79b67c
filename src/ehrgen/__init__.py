"""Generative models for longitudinal discrete-event (visit) sequences.

Two variants: an unconditional sequence VAE with an autoregressive
convolutional decoder, and a conditional hierarchy that ties patient latents
to binary condition labels so cohorts can be generated on demand. Training
mixes stochastic-gradient MCMC over the decoder weights with amortized
variational inference for the per-record latents.

Attribute access is lazy so that the command-line entry point can configure
threading before the numeric stack loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # corpus
    "PatientRecord": ".corpus", "Cohort": ".corpus", "VisitVocab": ".corpus",
    "VocabEntry": ".corpus", "EncodedBatch": ".corpus", "visit_key": ".corpus",
    "build_visit_vocab": ".corpus", "replace_rare_visits": ".corpus",
    "encode_cohort": ".corpus", "decode_tokens": ".corpus",
    "save_cohort": ".corpus", "load_cohort": ".corpus",
    "save_vocab": ".corpus", "load_vocab": ".corpus",
    # simulator
    "ToyCorpusSpec": ".simulate", "default_toy_spec": ".simulate",
    "simulate_toy_cohort": ".simulate", "condition_codes": ".simulate",
    "analytic_group_unigram": ".simulate", "analytic_group_bigram": ".simulate",
    # latent hierarchy
    "HierarchyHyper": ".latent", "compose_intensities": ".latent",
    "compose_patient_latent": ".latent", "latent_log_density": ".latent",
    "sample_prior_eva": ".latent", "sample_prior_evac": ".latent",
    # encoders
    "DiagGaussian": ".encoders", "EncoderConfig": ".encoders",
    "poe_combine": ".encoders", "reparam_sample": ".encoders",
    "sample_with_eta": ".encoders", "encode_sequence": ".encoders",
    "encode_conditions": ".encoders", "init_sequence_encoder": ".encoders",
    "init_condition_encoder": ".encoders",
    # decoder
    "DecoderConfig": ".decoder", "init_decoder_params": ".decoder",
    "decode_logits": ".decoder", "sequence_log_likelihood": ".decoder",
    "ancestral_sample": ".decoder",
    # trainer
    "TrainConfig": ".trainer", "ElboReport": ".trainer",
    "SamplerState": ".trainer", "TrainingDiverged": ".trainer",
    "kl_diag_gaussians": ".trainer", "entropy_diag_gaussian": ".trainer",
    "local_objective": ".trainer", "global_grad_estimate": ".trainer",
    "psgld_step": ".trainer", "train": ".trainer", "build_parts": ".trainer",
    "draw_local_noises": ".trainer", "encode_posteriors": ".trainer",
    "init_phi": ".trainer", "step_gradients": ".trainer",
    # model container
    "TrainedModel": ".model", "ModelParts": ".model",
    # generation
    "GenerationRequest": ".generator", "generate_cohort": ".generator",
    "generate_case_control": ".generator", "condition_vector": ".generator",
    # evaluation
    "NgramStats": ".evaluation", "AttackOutcome": ".evaluation",
    "ngram_stats": ".evaluation", "pearson_marginal": ".evaluation",
    "independent_bigram_baseline": ".evaluation", "avg_jaccard": ".evaluation",
    "avg_jaccard_counts": ".evaluation", "unique_token_ratio": ".evaluation",
    "split_cohort": ".evaluation", "NextVisitPredictor": ".evaluation",
    "train_next_visit_predictor": ".evaluation", "topk_recall": ".evaluation",
    "presence_disclosure": ".evaluation", "elbo_holdout": ".evaluation",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(target, __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return __all__
