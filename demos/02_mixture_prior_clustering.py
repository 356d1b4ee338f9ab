"""Preference clustering: train the variational model and watch the
mixture prior recover the planted user groups.

Runs in well under a minute on a laptop CPU.
"""

import numpy as np

from moerec import (
    RunConfig,
    Rng,
    SynthSpec,
    Tensor,
    adjusted_rand_index,
    generate_synthetic,
    split_records,
)
from moerec.vae import gmm_posterior_batch
from moerec.verify import kl_closed_form, mc_kl_estimate
from moerec.training import train_stage1, vae_config_from

# A corpus with three planted user clusters: disjoint feature vocabularies,
# separated rating levels, template explanations. Labels ride in a sidecar
# and are used for scoring only.
records, labels = generate_synthetic(SynthSpec(n_users=120, n_items=40,
                                               records_per_user=10, seed=3))
split = split_records(records, seed=3)
print(f"{len(records)} records, {split.n_users} users, {split.n_items} items")

# smaller corpora see fewer optimizer steps per epoch, so give the
# warm-up a little longer before the mixture is fitted
run = RunConfig(seed=3, s1_warmup_epochs=10).validate()
vae, manifest = train_stage1(split, vae_config_from(run, split), run.stage1())
for row in manifest["epochs"][:3] + manifest["epochs"][-2:]:
    print(f"  {row['phase']:<7} epoch {row['epoch']:>2}  loss {row['loss']:.4f}"
          f"  occupancy {row['occupancy']}")

# Soft responsibilities per record, majority-voted into user labels.
users = split.user_ids(split.train)
items = split.item_ids(split.train)
gamma = vae.posteriors(users, items)
votes = {}
for rec, g in zip(split.train, gamma):
    votes.setdefault(rec.user, []).append(g)
names = sorted(votes)
predicted = [int(np.argmax(np.sum(votes[u], axis=0))) for u in names]
truth = [labels[u] for u in names]
print(f"adjusted rand index vs planted labels: "
      f"{adjusted_rand_index(predicted, truth):.3f}")
print("mixture weights:", vae.prior.pi().round(3))

# The closed-form KL matches an independent Monte Carlo estimate; this is
# the oracle that guards the loss implementation.
mu, log_var = vae.encode(users[:1], items[:1])
g0 = gmm_posterior_batch(vae.prior, mu.data)[0]
closed = kl_closed_form(Tensor(mu.data[0]), Tensor(log_var.data[0]), g0,
                        vae.prior).item()
estimate, stderr = mc_kl_estimate(mu.data[0], log_var.data[0], vae.prior,
                                  Rng(99), 100_000, gamma=g0)
print(f"closed-form KL {closed:.4f} vs monte-carlo {estimate:.4f} "
      f"(+/- {stderr:.4f})")
