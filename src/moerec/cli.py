"""Operator surface: one command with subcommands for the whole pipeline.

    moerec synth            write a planted synthetic corpus + label sidecar
    moerec train            run stage 1 or stage 2, write checkpoint + manifest
    moerec generate         explain one user-item pair from a checkpoint
    moerec evaluate         score a checkpoint on the test split
    moerec inspect-clusters report the learned latent cluster structure
    moerec verify           run the oracle/property verification suites

Exit codes: 0 success, 1 usage or config error or an unwritable output, 2
data error, 3 training or numeric error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys

import numpy as np

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
from .training import (ExplainerBundle, load_bundle, save_bundle, train_stage1, train_stage2,
                       vae_config_from)
from .vae import gmm_posterior_batch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _overrides_from(args) -> dict:
    return {f.name: getattr(args, f.name)
            for f in dataclasses.fields(RunConfig)
            if getattr(args, f.name) is not None}


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
    for f in dataclasses.fields(RunConfig):
        p_train.add_argument(f"--{f.name}", default=None, metavar="V")

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

    p_ins = sub.add_parser("inspect-clusters", help="report latent clusters")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.add_argument("--data", required=True)
    p_ins.add_argument("--labels", default=None, help="ground-truth sidecar")
    p_ins.add_argument("--pca-out", default=None, help="CSV of 2-D projections")

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", default="all", help="a suite name, or all")
    return parser


# main's parser, built on first use and then kept for the process; calls share
# no state, since each parse_args returns a fresh namespace
_parser = functools.cache(build_parser)


def _check_writable(path: str) -> None:
    """Raise the OSError that opening `path` for writing would raise when
    its directory is missing or read-only, before any work is done."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(folder, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


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
    run = load_config(args.config, _overrides_from(args))
    _check_writable(args.out)
    records = load_records(args.data)
    split = split_records(records, run.seed)
    if args.stage == 1:
        vae, manifest = train_stage1(split, vae_config_from(run, split), run.stage1())
        bundle = ExplainerBundle(vae, None, None, split.user_index, split.item_index)
    else:
        if not args.stage1_checkpoint:
            raise TrainingError("stage 2 requires --stage1-checkpoint")
        stage1, run1, _ = load_bundle(args.stage1_checkpoint, "stage1")
        for field in ("clusters", "d_emb", "latent_dim", "enc_hidden"):   # vae_config_from's
            if getattr(run, field) != getattr(run1, field):
                raise ConfigError(
                    f"stage-2 {field} ({getattr(run, field)}) must match the stage-1 "
                    f"checkpoint ({getattr(run1, field)})")
        # both are rank maps of sorted ids: equal exactly when the id sets are
        if stage1.user_index != split.user_index or stage1.item_index != split.item_index:
            raise DataError("dataset entities differ from the stage-1 checkpoint")
        bundle, manifest = train_stage2(split, stage1.vae, run, run.stage2())
    save_bundle(args.out, bundle, run, manifest)
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
    _check_writable(f"{args.out}.json")
    records = load_records(args.data)
    split = split_records(records, run.seed)
    report, rows = evaluate_model(
        bundle, split.test, train_records=split.train, buckets=args.buckets)
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
    bundle, _, _ = load_bundle(args.checkpoint, None)
    if args.pca_out:
        _check_writable(args.pca_out)
    records = load_records(args.data)
    if not records:
        raise DataError(f"{args.data} holds no records")
    vae = bundle.vae
    latents = vae.latent_mu(index_ids(bundle.user_index, [r.user for r in records]),
                            index_ids(bundle.item_index, [r.item for r in records]))
    gamma = gmm_posterior_batch(vae.prior, latents)
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
        proj = np.pad(proj, ((0, 0), (0, 2 - proj.shape[1])))    # pc2 = 0 in one dimension
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
    from . import verify         # the oracles load for this command only

    if args.suite != "all" and args.suite not in verify.SUITES:
        raise ConfigError(f"unknown suite {args.suite!r}; expected all or one of "
                          f"{', '.join(sorted(verify.SUITES))}")
    results = verify.run_suites(sorted(verify.SUITES) if args.suite == "all" else [args.suite])
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
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return COMMANDS[args.command](args)
    except (MoerecError, OSError) as err:   # an OSError here is an unwritable output
        print(f"error: {err}", file=sys.stderr)
        return getattr(err, "exit_code", 1)
    except SystemExit as stop:      # --help exits from inside the parse, once printed
        return stop.code


if __name__ == "__main__":
    sys.exit(main())
