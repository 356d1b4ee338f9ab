"""Operator surface: one command with subcommands for the whole pipeline.

    moerec synth            write a planted synthetic corpus + label sidecar
    moerec train            run stage 1 or stage 2, write checkpoint + manifest
    moerec generate         explain one user-item pair from a checkpoint
    moerec evaluate         score a checkpoint on the test split
    moerec inspect-clusters report the learned latent cluster structure
    moerec verify           run the oracle/property verification suites

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 training or
numeric error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .checkpoint import read_manifest
from .config import RunConfig, load_config, read_fields
from .data import (
    InteractionRecord,
    SynthSpec,
    corpus_stats,
    generate_synthetic,
    index_ids,
    load_labels,
    load_records,
    save_labels,
    save_records,
    split_records,
)
from .errors import ConfigError, DataError, MoerecError, TrainingError, VerificationError
from .metrics import adjusted_rand_index, cluster_purity, evaluate_model
from . import tensor as tensor_mod
from .training import (
    load_bundle,
    load_stage1,
    save_bundle,
    save_stage1,
    train_stage1,
    train_stage2,
    vae_config_from,
)
from .verify import SUITES, run_suites


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_config_overrides(parser: _Parser) -> None:
    for f in dataclasses.fields(RunConfig):
        parser.add_argument(f"--{f.name}", default=None, metavar="V")


def _overrides_from(args) -> dict:
    return {f.name: getattr(args, f.name)
            for f in dataclasses.fields(RunConfig)
            if getattr(args, f.name) is not None}


def _run_config(args) -> RunConfig:
    run = load_config(args.config, _overrides_from(args))
    tensor_mod.set_default_dtype(run.precision)
    return run


def build_parser() -> _Parser:
    parser = _Parser(prog="moerec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--spec", default=None, help="key = value spec file")
    p_synth.add_argument("--out", required=True, help="dataset path (JSON lines)")
    p_synth.add_argument("--labels", default=None,
                         help="label sidecar path (default: <out>.labels.tsv)")
    p_synth.add_argument("--seed", default=None)

    p_train = sub.add_parser("train", help="run one training stage")
    p_train.add_argument("--stage", type=int, required=True, choices=(1, 2))
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.add_argument("--config", default=None)
    p_train.add_argument("--stage1-checkpoint", default=None)
    p_train.add_argument("--f64-checkpoint", action="store_true")
    _add_config_overrides(p_train)

    p_gen = sub.add_parser("generate", help="explain one user-item pair")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--user", required=True)
    p_gen.add_argument("--item", required=True)
    p_gen.add_argument("--rating", type=float, required=True)
    p_gen.add_argument("--features", default="", help="comma-separated")
    p_gen.add_argument("--mode", default="greedy", choices=("greedy", "sample"))
    p_gen.add_argument("--temperature", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-len", type=int, default=16)

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on test data")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", default="report", help="report path prefix")
    p_eval.add_argument("--buckets", action="store_true")
    p_eval.add_argument("--dump", action="store_true",
                        help="write per-record generations")
    p_eval.add_argument("--sentence-level", action="store_true",
                        help="average per-sentence BLEU instead of corpus BLEU")

    p_ins = sub.add_parser("inspect-clusters", help="report latent clusters")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.add_argument("--data", required=True)
    p_ins.add_argument("--labels", default=None, help="ground-truth sidecar")
    p_ins.add_argument("--pca-out", default=None, help="CSV of 2-D projections")

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", default="all",
                       choices=("all",) + tuple(sorted(SUITES)))
    return parser


# --- subcommand bodies ---

def cmd_synth(args) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}
    spec = SynthSpec(**read_fields(SynthSpec, args.spec, seed, kind="spec"))
    records, labels = generate_synthetic(spec)
    save_records(records, args.out)
    labels_path = args.labels or f"{args.out}.labels.tsv"
    save_labels(labels, labels_path)
    stats = corpus_stats(records)
    width = max(len(k) for k in stats) + 2
    print(f"wrote {args.out} and {labels_path}")
    for key in ("users", "items", "records", "features"):
        print(f"{key:<{width}}{stats[key]:>8}")
    return 0


def cmd_train(args) -> int:
    run = _run_config(args)
    records = load_records(args.data)
    split = split_records(records, run.seed)
    if args.stage == 1:
        vae, manifest = train_stage1(split, vae_config_from(run, split), run.stage1())
        save_stage1(args.out, vae, run, manifest, split.user_index,
                    split.item_index, f64=args.f64_checkpoint)
    else:
        if not args.stage1_checkpoint:
            raise TrainingError("stage 2 requires --stage1-checkpoint")
        vae, run1, _, user_index, item_index = load_stage1(args.stage1_checkpoint)
        if run.clusters != run1.clusters:
            raise ConfigError(
                f"stage-2 clusters ({run.clusters}) must match the stage-1 "
                f"checkpoint ({run1.clusters})")
        if set(user_index) != set(split.user_index) or set(item_index) != set(split.item_index):
            raise DataError("dataset entities differ from the stage-1 checkpoint")
        split.user_index = user_index
        split.item_index = item_index
        bundle, manifest = train_stage2(split, vae, run, run.stage2())
        save_bundle(args.out, bundle, run, manifest, f64=args.f64_checkpoint)
    with open(f"{args.out}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    final = manifest["epochs"][-1]["loss"] if manifest["epochs"] else float("nan")
    print(f"stage {args.stage} done: {len(manifest['epochs'])} epochs, "
          f"final loss {final:.5f}; wrote {args.out}")
    return 0


def cmd_generate(args) -> int:
    bundle, run, _ = load_bundle(args.checkpoint)
    features = [f for f in args.features.split(",") if f]
    record = InteractionRecord(args.user, args.item, args.rating, features, "")
    if args.user not in bundle.user_index:
        print(f"warning: unknown user {args.user!r}; routing via the fallback "
              "embedding row", file=sys.stderr)
    if args.item not in bundle.item_index:
        print(f"warning: unknown item {args.item!r}; routing via the fallback "
              "embedding row", file=sys.stderr)
    texts, gates, gamma = bundle.explain([record], max_len=args.max_len, mode=args.mode,
                                         temperature=args.temperature, seed=args.seed)
    print(f"gate: {gates[0]}")
    print("responsibilities: " + " ".join(f"{g:.4f}" for g in gamma[0]))
    print(f"explanation: {texts[0]}")
    return 0


def cmd_evaluate(args) -> int:
    bundle, run, _ = load_bundle(args.checkpoint)
    records = load_records(args.data)
    split = split_records(records, run.seed)
    if not split.test:
        raise DataError("test split is empty")
    report, rows = evaluate_model(
        bundle, split.test, train_records=split.train, buckets=args.buckets,
        corpus_level=not args.sentence_level)
    with open(f"{args.out}.json", "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    table = report.to_table()
    with open(f"{args.out}.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    if args.dump:
        with open(f"{args.out}.records.jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    print(table)
    return 0


def cmd_inspect_clusters(args) -> int:
    manifest = read_manifest(args.checkpoint)
    if manifest.get("stage") == "stage2":
        bundle, run, _ = load_bundle(args.checkpoint)
        vae, user_index, item_index = bundle.vae, bundle.user_index, bundle.item_index
    else:
        vae, run, _, user_index, item_index = load_stage1(args.checkpoint)
    records = load_records(args.data)
    if not records:
        raise DataError(f"{args.data} holds no records")
    users = index_ids(user_index, [r.user for r in records])
    items = index_ids(item_index, [r.item for r in records])
    latents = vae.latent_mu(users, items)
    gamma = vae.posteriors(users, items)
    hard = np.argmax(gamma, axis=1)
    clusters = vae.prior.clusters

    print(f"clusters: {clusters}")
    print("pi: " + " ".join(f"{p:.4f}" for p in vae.prior.pi()))
    occupancy = np.bincount(hard, minlength=clusters)
    for c in range(clusters):
        share = occupancy[c] / len(records) * 100.0
        members = latents[hard == c]
        if len(members):
            center = members.mean(axis=0)
            spread = float(np.mean(np.linalg.norm(members - center, axis=1)))
        else:
            spread = float("nan")
        print(f"cluster {c}: occupancy {occupancy[c]} ({share:.1f}%), "
              f"mean intra-cluster distance {spread:.4f}")
    centroids = vae.prior.mu.data
    print("inter-centroid distances:")
    for c in range(clusters):
        row = [float(np.linalg.norm(centroids[c] - centroids[d]))
               for d in range(clusters)]
        print("  " + " ".join(f"{v:8.4f}" for v in row))

    if args.pca_out:
        centered = latents - latents.mean(axis=0)
        cov = centered.T @ centered / max(len(centered) - 1, 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        proj = centered @ eigvecs[:, -2:][:, ::-1]
        with open(args.pca_out, "w", encoding="utf-8") as fh:
            fh.write("user,item,cluster,pc1,pc2\n")
            for rec, c, xy in zip(records, hard, proj):
                fh.write(f"{rec.user},{rec.item},{c},{xy[0]:.6f},{xy[1]:.6f}\n")
        print(f"wrote {args.pca_out}")

    if args.labels:
        truth = load_labels(args.labels)
        per_user_gamma = {}
        for rec, g in zip(records, gamma):
            per_user_gamma.setdefault(rec.user, []).append(g)
        users_sorted = sorted(u for u in per_user_gamma if u in truth)
        predicted = [int(np.argmax(np.sum(per_user_gamma[u], axis=0)))
                     for u in users_sorted]
        actual = [truth[u] for u in users_sorted]
        ari = adjusted_rand_index(predicted, actual)
        purity = cluster_purity(predicted, actual)
        print(f"ari: {ari:.4f}")
        print(f"purity: {purity:.4f}")
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'pass' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        raise VerificationError(f"{len(failed)} verification checks failed")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "inspect-clusters": cmd_inspect_clusters,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    # a command's --precision holds for that command only
    dtype = tensor_mod.default_dtype().name
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return COMMANDS[args.command](args)
    except MoerecError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    finally:
        tensor_mod.set_default_dtype(dtype)


if __name__ == "__main__":
    sys.exit(main())
