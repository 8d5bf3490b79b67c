# Condition-controlled generation with the hierarchical variant.
#
# The conditional model routes a binary condition vector y through
# z = H(y * sigmoid(w)) + b + noise, so flipping one coordinate of y shifts
# the latent toward that condition's learned direction. After a short
# training run we generate case/control cohorts per condition and count how
# often each condition's own code block shows up.

import time

from ehrgen.corpus import build_visit_vocab, encode_cohort, replace_rare_visits
from ehrgen.generator import generate_case_control
from ehrgen.simulate import condition_codes, default_toy_spec, simulate_toy_cohort
from ehrgen.trainer import TrainConfig, train

spec = default_toy_spec()
real = simulate_toy_cohort(spec, seed=101)
vocab = build_visit_vocab(real, max_size=128)
real = replace_rare_visits(real, vocab)
batch = encode_cohort(real, vocab, t_max=16)

# full-length run (~1.5 min): the condition directions in H are the last
# thing to converge, so short runs leave some blocks unseparated
config = TrainConfig(variant="evac", latent_dim=16, n_iters=3000, minibatch=32,
                     lr_global=2e-3, temperature=1.0, burn_in=600,
                     thin=260, reservoir_size=10, seed=3)
t0 = time.time()
model = train(config, batch, vocab, condition_names=real.condition_names)
print(f"conditional model trained in {time.time() - t0:.0f}s")


def block_rate(cohort, codes):
    hits = sum(1 for r in cohort.records if any(set(v) & codes for v in r.visits))
    return hits / len(cohort)


print(f"{'condition':>10} {'case':>6} {'control':>8}")
for name in spec.condition_names[:-1]:  # skip the background column
    codes = condition_codes(spec, name)
    cases, controls = generate_case_control(model, name, 400, 400, seed=29)
    print(f"{name:>10} {block_rate(cases, codes):6.2f} {block_rate(controls, codes):8.2f}")
print("a case rate above its control rate means the condition signal got through")
