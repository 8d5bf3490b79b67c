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

# the metric set `ehrgen evaluate` writes; passing the model or topk adds the
# held-out numbers, from a split of the real cohort
for name, value in ev.report(real, synth).items():
    print(f"{name:30s} {value:.3f}" if isinstance(value, float)
          else f"{name:30s} {value}")

# ensemble vs point: averaging over posterior samples adds diversity
for policy in ("ensemble", "point"):
    c = generate_cohort(model, GenerationRequest(count=500, seed=11, policy=policy))
    print(f"unique-token ratio with {policy} policy: {ev.unique_token_ratio(c):.3f}")
