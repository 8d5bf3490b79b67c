# Train the unconditional model on the toy corpus, watching the objective.
#
# Short run for demonstration purposes (a few hundred iterations, ~1 min);
# the acceptance-grade run in tests/test_acceptance.py uses 3000 iterations.
# Expects demos/output/toy_cohort.jsonl from 01_simulate_and_inspect.py and
# falls back to simulating in place.

import os
import time

from ehrgen.corpus import build_visit_vocab, encode_cohort, load_cohort, replace_rare_visits
from ehrgen.simulate import default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import TrainConfig, train

if os.path.exists("demos/output/toy_cohort.jsonl"):
    cohort = load_cohort("demos/output/toy_cohort.jsonl")
else:
    cohort = simulate_toy_cohort(default_toy_spec(), seed=101)

vocab = build_visit_vocab(cohort, max_size=128)
cohort = replace_rare_visits(cohort, vocab)
batch = encode_cohort(cohort, vocab, t_max=16)
print(f"{len(batch)} records, vocab {vocab.size} (incl. end/pad), t_max 16")

config = TrainConfig(
    variant="eva",
    latent_dim=16,
    n_iters=600,
    minibatch=32,
    lr_global=2e-3,
    temperature=1.0,
    burn_in=200,
    thin=40,
    reservoir_size=10,
    seed=3,
)

t0 = time.time()
model = train(config, batch, vocab, condition_names=cohort.condition_names)
print(f"trained in {time.time() - t0:.0f}s, reservoir holds {len(model.reservoir)} posterior samples")

print(f"{'iter':>6} {'-elbo':>10} {'recon':>10} {'kl share':>9}")
for row in model.history:
    print(f"{row['iteration']:6d} {row['total']:10.1f} {row['recon']:10.1f} {row['kl_fraction']:9.4f}")

os.makedirs("demos/output", exist_ok=True)
model.save("demos/output/eva_toy.npz")
print("wrote demos/output/eva_toy.npz")
