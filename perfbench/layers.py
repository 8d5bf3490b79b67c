"""The traced ehrgen functions and the exact work counts of the traced run.

Metric names drop the leading underscore of ``_nn`` (``nn.lstm_forward``)
because benchmark metric names must start with a letter or a digit.
"""

from __future__ import annotations

TRACED = (
    "simulate.default_toy_spec", "simulate.simulate_toy_cohort",
    "corpus.build_visit_vocab", "corpus.replace_rare_visits",
    "corpus.encode_cohort",
    "encoders.encode_sequence", "encoders.encode_sequence_backward",
    "encoders.encode_conditions", "encoders.encode_conditions_backward",
    "encoders.poe_combine", "encoders.poe_combine_backward",
    "latent.latent_log_density_grads", "latent.sample_prior_eva",
    "latent.sample_prior_evac",
    "decoder.ll_and_grads", "decoder.decode_logits",
    "decoder.decode_logits_backward", "decoder.ancestral_sample",
    "_nn.lstm_forward", "_nn.lstm_backward",
    "_nn.causal_conv1d", "_nn.causal_conv1d_backward",
    "_nn.conv_transpose1d", "_nn.conv_transpose1d_backward",
    "_nn.dense", "_nn.dense_backward", "_nn.gated", "_nn.gated_backward",
    "_nn.embedding_backward", "_nn.log_softmax", "_nn.clip_global_norm",
    "_nn.Adam.step",
    "trainer.train", "trainer.psgld_step",
    "model.TrainedModel.save", "model.TrainedModel.load",
    "generator.generate_cohort", "generator.generate_case_control",
    "generator._force_single_visit",
    "evaluation.ngram_stats", "evaluation.pearson_marginal",
    "evaluation.independent_bigram_baseline",
    "evaluation.avg_jaccard_counts", "evaluation.unique_token_ratio",
    "evaluation.train_next_visit_predictor", "evaluation.topk_recall",
    "evaluation.elbo_holdout", "evaluation.presence_disclosure",
)

# Reached by some workloads only (the conditional variant, case/control
# generation, the generator's retry fallback). They are traced and written
# to the results file, but kept out of the benchmark's per-layer list, whose
# metrics every workload must report with a measured value.
NOT_ON_EVERY_WORKLOAD = frozenset({
    "encoders.encode_conditions", "encoders.encode_conditions_backward",
    "encoders.poe_combine", "encoders.poe_combine_backward",
    "latent.latent_log_density_grads", "latent.sample_prior_eva",
    "latent.sample_prior_evac", "generator.generate_case_control",
    "generator._force_single_visit",
})

COUNTS = (
    # name, unit, better
    ("decoder.positions_per_generated_record", "count", "lower"),
    ("generator.sampled_rows_per_record", "count", "lower"),
    ("generator.useful_position_ratio", "ratio", "higher"),
    ("decoder.train_useful_position_ratio", "ratio", "higher"),
    ("nn.lstm_useful_step_ratio", "ratio", "higher"),
    ("trainer.clip_hits", "count", "lower"),
    ("evaluation.baseline_entries", "count", "lower"),
    ("corpus.rare_visit_types", "count", "lower"),
)

OVERHEAD = ("trace.overhead_pct", "%", "lower")


def metric_name(target):
    return target.lstrip("_")


def per_layer_metrics():
    """(name, unit, better) for every metric a traced run reports."""
    out = []
    for target in TRACED:
        if target not in NOT_ON_EVERY_WORKLOAD:
            out.append((f"{metric_name(target)}.calls", "count", "lower"))
            out.append((f"{metric_name(target)}.self_ms", "ms", "lower"))
    return out + list(COUNTS) + [OVERHEAD]


class WorkCounts:
    """Counts gathered by tracer hooks at the layer boundaries."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.gen_positions = 0  # rows x out_len of decode_logits in generation
        self.gen_rows = 0  # latent rows pushed through the samplers
        self.train_mask = [0.0, 0]  # (mask sum, mask entries) of minibatches
        self.lstm_mask = [0.0, 0]
        self.clip_calls = 0
        self.clip_hits = 0
        self.baseline_entries = 0
        self.missing = set()  # counts whose hook found no usable argument

    def hooks(self):
        return {
            "decoder.decode_logits": self._decode_logits,
            "decoder.ancestral_sample": self._ancestral_sample,
            "generator._force_single_visit": self._force_single_visit,
            "decoder.ll_and_grads": self._ll_and_grads,
            "_nn.lstm_forward": self._lstm_forward,
            "_nn.clip_global_norm": self._clip,
            "evaluation.independent_bigram_baseline": self._baseline,
        }

    def _in(self, phase):
        return self.tracer.phase_name == phase

    def _decode_logits(self, arguments, result):
        if self._in("generate"):
            logits = result[0]
            self.gen_positions += logits.shape[0] * logits.shape[1]

    def _ancestral_sample(self, arguments, result):
        if self._in("generate"):
            self.gen_rows += len(result)

    def _force_single_visit(self, arguments, result):
        if self._in("generate"):
            self.gen_rows += 1

    def _ll_and_grads(self, arguments, result):
        if self._in("train"):
            self._add_mask(self.train_mask, arguments, "decoder.ll_and_grads")

    def _lstm_forward(self, arguments, result):
        self._add_mask(self.lstm_mask, arguments, "_nn.lstm_forward")

    def _add_mask(self, acc, arguments, where):
        mask = arguments.get("mask")
        if mask is None:
            self.missing.add(where)
            return
        acc[0] += float(mask.sum())
        acc[1] += mask.size

    def _clip(self, arguments, result):
        if self._in("train"):
            self.clip_calls += 1
            limit = arguments.get("max_norm")
            if limit is None:
                self.missing.add("_nn.clip_global_norm")
            elif result > limit > 0.0:
                self.clip_hits += 1

    def _baseline(self, arguments, result):
        self.baseline_entries = len(result.freqs)

    def results(self, traced_pass):
        """The exact counts, keyed like ``COUNTS``, plus their bases."""
        records = traced_pass["generated_records"]
        useful = traced_pass["generated_visits"] + records  # + one end each
        values = {
            "decoder.positions_per_generated_record":
                self.gen_positions / records,
            "generator.sampled_rows_per_record": self.gen_rows / records,
            "generator.useful_position_ratio":
                useful / self.gen_positions if self.gen_positions else 0.0,
            "decoder.train_useful_position_ratio": _ratio(self.train_mask),
            "nn.lstm_useful_step_ratio": _ratio(self.lstm_mask),
            "trainer.clip_hits": self.clip_hits,
            "evaluation.baseline_entries": self.baseline_entries,
            "corpus.rare_visit_types": traced_pass["rare_visit_types"],
        }
        bases = {
            "generated_records": records,
            "generation_positions": self.gen_positions,
            "useful_generation_positions": useful,
            "train_mask_entries": self.train_mask[1],
            "lstm_mask_entries": self.lstm_mask[1],
            "clip_calls": self.clip_calls,
            "hooks_without_arguments": sorted(self.missing),
        }
        return values, bases


def _ratio(acc):
    return acc[0] / acc[1] if acc[1] else 0.0
