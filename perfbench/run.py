"""Run one benchmark workload, or all three, and print the result.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from the repository root or anywhere else; it imports moerec from
this checkout's ``src/``. With ``--trace 0`` the last line of standard
output is one JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans are written to ``.bench_out/``. ``--workload all`` runs each workload
untraced and traced in child processes, prints every metric, the tracing
overhead and whether the traced outputs equal the untraced ones. The exit
status is non-zero when a correctness gate fails.
"""

from __future__ import annotations

import os

# BLAS and OpenMP are pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("train", "explain-batch", "explain-interactive")
# the raw rate whose traced value against its untraced one gives the overhead
OVERHEAD_FIGURE = {"train": "s2_records_per_s", "explain-batch": "explain_per_s",
                   "explain-interactive": "requests_per_s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "moe.rows_per_expert_call":
        return "rows/call"
    return "count"


def environment(seed: int) -> dict:
    """What a result needs to be reproduced and compared."""
    import numpy as np
    from perfbench import workloads
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sources = sorted((ROOT / "src" / "moerec").rglob("*.py"))
    source_hash = hashlib.sha256()
    for path in sources:
        source_hash.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        source_hash.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_hash.hexdigest(),
    }


def git_commit():
    """HEAD of this checkout, or None when the checkout is not a repository."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, entry in rows.items():
        value = entry["value"]
        shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
        print(f"  {name:<32}{shown:>16} {entry['unit']}")


def run_one(args) -> int:
    from perfbench import workloads
    result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), smoke=args.smoke)
    tracer = result.pop("tracer", None)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if tracer is not None:
        spans_path = workloads.OUT_DIR / f"{stem}.spans.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": workloads.CONTRACT_UNITS[k]}
                   for k, v in result["contract"].items()}
    result["env"] = environment(args.seed)
    with open(workloads.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print_table("figures:", result["figures"])
    if tracer is not None:
        print_table("layers:", metrics)
    for name, gate in result["gates"].items():
        print(f"gate {'ok  ' if gate['ok'] else 'FAIL'} {name}: {gate['detail']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  digest {result['digest']}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics if result["correct"] else {}}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            status = status or done.returncode
            stem = f"{name}-seed{args.seed}-trace{trace}{'-smoke' if args.smoke else ''}"
            path = ROOT / ".bench_out" / f"{stem}.json"
            if done.returncode == 0 and path.exists():
                results[trace] = json.loads(path.read_text(encoding="utf-8"))
        if len(results) == 2:
            plain, traced = results[0], results[1]
            same = plain["digest"] == traced["digest"]
            rate = OVERHEAD_FIGURE[name]
            overhead = plain["figures"][rate]["value"] / traced["figures"][rate]["value"] - 1
            print(f"{name}: traced outputs {'equal' if same else 'DIFFER FROM'} untraced; "
                  f"tracing overhead {overhead:+.1%} on {rate}")
            status = status or (0 if same else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    try:
        import moerec
    except ImportError as err:
        print(f"error: cannot import moerec from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if not Path(moerec.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: moerec was imported from {moerec.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
