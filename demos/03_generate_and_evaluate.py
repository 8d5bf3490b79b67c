# Generate a synthetic cohort and compare its statistics against the real one.
#
# Loads the model written by 02_train_unconditional.py. The headline check is
# the Pearson correlation between real and synthetic bigram frequencies; an
# independent-unigram sampler (no sequential structure at all) gives the
# floor that any sequence model has to beat.

import sys

from ehrgen import evaluation as ev
from ehrgen.corpus import load_cohort
from ehrgen.generator import GenerationRequest, generate_cohort
from ehrgen.model import TrainedModel

try:
    model = TrainedModel.load("demos/output/eva_toy.npz")
    real = load_cohort("demos/output/toy_cohort.jsonl")
except FileNotFoundError:
    sys.exit("run demos/01_simulate_and_inspect.py and demos/02_train_unconditional.py first")

real.vocab = model.vocab  # token statistics need the shared vocabulary

synth = generate_cohort(model, GenerationRequest(count=2000, seed=7))
print(f"generated {len(synth)} records")
for rec in synth.records[:3]:
    print(f"  {rec.id}: " + " -> ".join("+".join(sorted(v)) for v in rec.visits[:4])
          + (" ..." if len(rec.visits) > 4 else ""))

real_uni = ev.ngram_stats(real, 1)
real_bi = ev.ngram_stats(real, 2)
synth_uni = ev.ngram_stats(synth, 1)
synth_bi = ev.ngram_stats(synth, 2)

rho_uni = ev.pearson_marginal(real_uni, synth_uni)
rho_bi = ev.pearson_marginal(real_bi, synth_bi)
floor = ev.pearson_marginal(real_bi, ev.independent_bigram_baseline(real_uni))
print(f"unigram pearson {rho_uni:.3f}")
print(f"bigram  pearson {rho_bi:.3f}  (independent-unigram floor {floor:.3f})")

print(f"avg jaccard between visits: real {ev.avg_jaccard_counts(real)[0]:.3f} synth {ev.avg_jaccard_counts(synth)[0]:.3f}")
print(f"unique-token ratio:         real {ev.unique_token_ratio(real):.3f} synth {ev.unique_token_ratio(synth):.3f}")

# ensemble vs point: averaging over posterior samples adds diversity
for policy in ("ensemble", "point"):
    c = generate_cohort(model, GenerationRequest(count=500, seed=11, policy=policy))
    print(f"unique-token ratio with {policy} policy: {ev.unique_token_ratio(c):.3f}")
