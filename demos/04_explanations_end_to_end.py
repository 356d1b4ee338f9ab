"""The whole pipeline: synthesize, train both stages, explain, score.

Uses a reduced corpus so the demo finishes in about a minute; the package
defaults (300 users, 6000 records) are what the test suite exercises.
"""

from moerec import RunConfig, SynthSpec, generate_synthetic, split_records
from moerec.data import cluster_signature
from moerec.metrics import evaluate_model
from moerec.moe import tokenize
from moerec.training import train_stage1, train_stage2, vae_config_from

records, labels = generate_synthetic(SynthSpec(n_users=90, n_items=40,
                                               records_per_user=12, seed=7))
split = split_records(records, seed=7)
run = RunConfig(seed=7, s2_epochs=2).validate()

print("stage 1: collaborative preference learning")
vae, manifest1 = train_stage1(split, vae_config_from(run, split), run.stage1())
print(f"  final loss {manifest1['epochs'][-1]['loss']:.4f}, "
      f"occupancy {manifest1['epochs'][-1]['occupancy']}")

print("stage 2: gated expert explanation training")
bundle, manifest2 = train_stage2(split, vae, run, run.stage2())
for row in manifest2["epochs"]:
    print(f"  epoch {row['epoch']}  loss {row['loss']:.4f}")

print("\nheld-out generations (greedy):")
prompts = bundle.prompts(split.test[:5])
texts, gates, gammas = bundle.explain(split.test[:5], prompts=prompts)
for rec, prompt, text, gate, gamma in zip(split.test[:5], prompts, texts, gates, gammas):
    print(f"  user {rec.user} (planted cluster {labels[rec.user]}, gate {gate},"
          f" responsibilities {gamma.round(2)})")
    print(f"    prompt:    {bundle.prompt_text(prompt)}")
    print(f"    generated: {text}")
    print(f"    reference: {rec.explanation}")

report, rows = evaluate_model(bundle, split.test, train_records=split.train,
                              buckets=True)
print("\nmetric report:")
print(report.to_table())

hits = sum(bool(set(cluster_signature(labels[rec.user]))
                & set(tokenize(row["generated"])))
           for rec, row in zip(split.test, rows))
print(f"\nplanted-signature hit rate: {hits / len(split.test):.2%}")
