"""Generative models for longitudinal discrete-event (visit) sequences.

Two variants: an unconditional sequence VAE with an autoregressive
convolutional decoder, and a conditional hierarchy that ties patient latents
to binary condition labels so cohorts can be generated on demand. Training
mixes stochastic-gradient MCMC over the decoder weights with amortized
variational inference for the per-record latents.

``EHRGEN_THREADS`` sets the BLAS thread variables it names below, unless
they are set already. BLAS reads them when NumPy loads, so the variable
takes effect only when this package is imported before NumPy.
"""

import os

_threads = os.environ.get("EHRGEN_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

# every submodule import loads NumPy, so all of them come after the block
from .corpus import (
    Cohort, EncodedBatch, PatientRecord, VisitVocab, VocabEntry,
    build_visit_vocab, encode_cohort, load_cohort, replace_rare_visits,
    save_cohort, visit_key)
from .simulate import (
    ToyCorpusSpec, analytic_group_unigram, condition_codes, default_toy_spec,
    simulate_toy_cohort)
from .latent import sample_prior_eva, sample_prior_evac
from .encoders import (
    DiagGaussian, encode_conditions, encode_sequence, poe_combine)
from .decoder import DecoderConfig, ancestral_sample, decode_logits
from .model import TrainConfig, TrainedModel
from .trainer import ElboReport, TrainingDiverged, psgld_step, train
from .generator import (
    GenerationRequest, condition_vector, generate_case_control,
    generate_cohort)
from .evaluation import (
    AttackOutcome, NextVisitPredictor, NgramStats, avg_jaccard_counts,
    elbo_holdout, independent_bigram_baseline, ngram_stats, pearson_marginal,
    presence_disclosure, report, topk_recall, train_next_visit_predictor,
    unique_token_ratio)

__version__ = "0.1.0"
