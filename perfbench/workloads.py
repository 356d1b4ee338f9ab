"""The benchmark's three workloads, their correctness gates and metrics.

Each workload is a closed loop driven by one client in one process: the
next operation starts only when the previous one has returned. The program
under test is reached only through moerec's public API, always looked up
through module attributes at call time, so that a traced run sees every
call through the tracer's wrappers.

- ``train``: the default corpus (``SynthSpec()``) under the default
  ``RunConfig``. Stage 1 runs in full, then stage 2 runs one optimizer step
  after another until the run's seconds are spent. No decoding happens.
- ``explain-batch``: set-up trains and saves a stage-2 checkpoint at demo
  scale; the timed phase loads it once and runs ``evaluate_model`` over
  batches of fresh queries (greedy decoding, ``max_len=16``).
- ``explain-interactive``: the same checkpoint and queries; each request
  runs ``moerec generate`` in-process through ``cli.main``, checkpoint
  loading included.

Queries are fresh records from the checkpoint corpus's user and item
universe, synthesized with the workload seed, so prompts stay in the
vocabulary. An untraced run keeps going until ``seconds`` have passed and
does at least a fixed quota of operations; a traced run does exactly the
quota, so its counts repeat from run to run, and the outputs of the quota
are digested so that traced and untraced runs can be compared byte for
byte.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import moerec  # noqa: E402  (the program under test, from this checkout)
import moerec.cli  # noqa: E402,F401  (not imported by the package itself)

from perfbench.tracer import Tracer, expectation_failures, layer_metrics  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
QUERY_SEED_BASE = 1_000_000
OVERFLOW_FEATURES = 256


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark measures, SMOKE is for tests."""

    train_spec: dict        # SynthSpec fields for train, the seed aside
    train_run: dict         # RunConfig fields for train
    s2_quota: int           # stage-2 steps every train run makes
    s2_repeat: int          # stage-2 steps trained twice by the determinism gate
    demo_spec: dict         # checkpoint corpus of the explain workloads
    demo_run: dict
    batch_size: int         # query records per evaluate_model call
    batch_quota: int        # evaluate_model calls per timed slice, at least
    request_quota: int      # CLI requests per timed slice, at least
    bleu4_floor: float      # explain-batch quality gate


FULL = Scale(
    train_spec={}, train_run={}, s2_quota=100, s2_repeat=24,
    demo_spec=dict(n_users=90, n_items=40, records_per_user=12, seed=7),
    demo_run=dict(seed=7, s2_epochs=2),
    batch_size=12, batch_quota=3, request_quota=34, bleu4_floor=0.6,
)

_SMOKE_MODEL = dict(d_emb=8, latent_dim=4, enc_hidden=16, model_dim=16,
                    blocks=2, heads=2, context=40, base_experts=2,
                    base_hidden=16, factor=2, active_experts=2, s1_epochs=2,
                    s1_warmup_epochs=1, s1_batch=16, s2_epochs=1, s2_batch=8)
SMOKE = Scale(
    train_spec=dict(n_users=12, n_items=8, records_per_user=6),
    train_run=_SMOKE_MODEL, s2_quota=3, s2_repeat=3,
    demo_spec=dict(n_users=12, n_items=8, records_per_user=6, seed=7),
    demo_run=dict(_SMOKE_MODEL, seed=7),
    batch_size=6, batch_quota=1, request_quota=2, bleu4_floor=0.0,
)

# Every workload reports these with tracing off; what each one means on
# each workload is in README.md.
CONTRACT_UNITS = {"setup_s": "s", "records_per_s": "records/s",
                  "latency_ms": "ms", "peak_rss_mb": "MB"}


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of `values`, 0 < q <= 1."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_floats(values) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def digest_texts(texts) -> str:
    return hashlib.sha256("\n\x00".join(texts).encode("utf-8")).hexdigest()


class SpeedProbe:
    """Machine speed, from a fixed kernel timed next to each timed operation.

    A shared machine can change speed by a third and more, over seconds to
    minutes, with load elsewhere on the host. So the benchmark times this
    kernel, which runs no moerec code, right next to every
    operation it times, and scales each operation's time by
    ``REFERENCE_S / kernel time``. The end-to-end metrics are therefore
    timings at a reference machine speed; the raw timings are kept in the
    result file. The kernel mixes small matrix products with per-call Python
    overhead, as moerec does.
    """

    REFERENCE_S = 0.0006    # the kernel's time on an unloaded 2-core x86-64 container

    def __init__(self):
        gen = np.random.default_rng(0)
        self.x = gen.random((16, 64))
        self.w = gen.random((64, 64))
        self.samples: list = []

    def measure(self, reps: int = 1) -> float:
        """Median kernel time over `reps` runs, in seconds."""
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(60):
                y = np.tanh(self.x @ self.w)
                if not np.isfinite(y).all():
                    raise ArithmeticError("reference kernel produced non-finite values")
            times.append(time.perf_counter() - start)
        value = median(times)
        self.samples.append(value)
        return value

    def scaled(self, seconds: float, probe_s: float) -> float:
        """`seconds` as they would read at the reference speed."""
        return seconds * self.REFERENCE_S / probe_s


class QueryStream:
    """Fresh queries in seeded shuffled order, one synthesized corpus at a time.

    Each corpus shares the checkpoint corpus's users, items and planted
    clusters but is drawn with a seed derived from the workload seed; a
    further corpus is synthesized only if a run outruns the first one.
    """

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.rounds = 0
        self.pending: list = []

    def refill(self) -> None:
        spec_seed = QUERY_SEED_BASE + 1000 * self.seed + self.rounds
        records, _ = moerec.data.generate_synthetic(
            moerec.data.SynthSpec(**dict(self.spec, seed=spec_seed)))
        random.Random(spec_seed).shuffle(records)
        self.pending.extend(records)
        self.rounds += 1

    def take(self, n: int) -> list:
        while len(self.pending) < n:
            self.refill()
        out, self.pending = self.pending[:n], self.pending[n:]
        return out


class Workload:
    """Set-up (repeated), the timed phase, then the correctness checks.

    The timed phase runs in ``slices`` parts, one after each of the last
    set-ups, so that its samples spread over the run: a shared machine
    changes speed over seconds, and spreading averages that out.
    """

    name = ""
    slices = 1

    def __init__(self, scale: Scale, seed: int, exact: bool,
                 inject_overflow: bool = False):
        self.scale = scale
        self.seed = seed
        self.exact = exact
        self.inject_overflow = inject_overflow
        self.attempted = 0
        self.failed = 0
        self.gates: dict = {}
        self.figures: dict = {}
        self.contract: dict = {}
        self.samples: dict = {}
        self.digest = ""
        self.probe = SpeedProbe()

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates[name] = {"ok": bool(ok), "detail": detail}

    def figure(self, name: str, value, unit: str) -> None:
        self.figures[name] = {"value": value, "unit": unit}

    def setup(self, rep: int):
        """One set-up. May return (seconds spent probing machine speed, the
        probe's median) when it measured speed itself."""
        raise NotImplementedError

    def timed(self, tracer, seconds: float) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --- train ---

class StageBudgetSpent(Exception):
    """Raised by the step clock to end stage 2 once its budget is spent."""


class StepClock:
    """Stamps every optimizer step and records every stage-2 loss.

    ``train_stage2`` has no step limit of its own, so in stage 2 the clock
    raises :class:`StageBudgetSpent` right after the step that spends the
    budget: at least ``min_steps``, and then until the deadline if one is
    set. It wraps ``AdamW.step`` and ``tensor.backward``, one call each per
    step, in traced and untraced runs alike. Given a probe, it also measures
    machine speed every ``probe_every[stage]`` steps; the stamps leave out
    the time the probe takes.
    """

    def __init__(self, tracer=None, probe: SpeedProbe = None, probe_every=None):
        self.tracer = tracer
        self.probe = probe
        self.probe_every = probe_every
        self.stage = 1
        self.stamps = {1: [], 2: []}
        self.probes = {1: [], 2: []}     # (steps so far, kernel seconds)
        self.paused = 0.0
        self.losses: list = []
        self.min_steps = 0
        self.deadline = None

    def start_stage(self, stage: int, min_steps: int = 0, deadline: float = None) -> None:
        self.stage = stage
        self.min_steps = min_steps
        self.deadline = deadline
        self._name_request()

    def _name_request(self) -> None:
        if self.tracer is not None:
            self.tracer.request = f"stage{self.stage}.step{len(self.stamps[self.stage]) + 1}"

    def __enter__(self) -> "StepClock":
        adamw = moerec.optim.AdamW
        self._step, self._backward = adamw.step, moerec.tensor.backward
        clock = self

        def step(opt, *args, **kwargs):
            result = clock._step(opt, *args, **kwargs)
            now = time.perf_counter()
            stamps = clock.stamps[clock.stage]
            stamps.append(now - clock.paused)
            if clock.probe is not None and len(stamps) % clock.probe_every[clock.stage] == 0:
                clock.probes[clock.stage].append((len(stamps), clock.probe.measure()))
                clock.paused += time.perf_counter() - now
            clock._name_request()
            if (clock.stage == 2 and len(stamps) >= clock.min_steps
                    and (clock.deadline is None or now >= clock.deadline)):
                raise StageBudgetSpent
            return result

        def backward(tape, loss):
            if clock.stage == 2:
                clock.losses.append(float(loss.data))
            return clock._backward(tape, loss)

        adamw.step = step
        moerec.tensor.backward = backward
        self._name_request()
        return self

    def __exit__(self, *exc) -> None:
        moerec.optim.AdamW.step = self._step
        moerec.tensor.backward = self._backward


class Train(Workload):
    name = "train"

    def setup(self, rep: int) -> None:
        spec = moerec.data.SynthSpec(**dict(self.scale.train_spec, seed=self.seed))
        records, _ = moerec.data.generate_synthetic(spec)
        self.run = moerec.config.RunConfig(**self.scale.train_run).validate()
        self.split = moerec.data.split_records(records, self.run.seed)

    def steps_per_epoch(self) -> int:
        return math.ceil(len(self.split.train) / self.run.s1_batch)

    def _stage2(self, vae, clock: StepClock, steps: int, deadline) -> None:
        clock.start_stage(2, steps, deadline)
        try:
            moerec.training.train_stage2(self.split, vae, self.run, self.run.stage2())
        except StageBudgetSpent:
            pass

    def timed(self, tracer, seconds: float) -> None:
        run, split = self.run, self.split
        # three probes per stage-1 epoch, one per stage-2 step
        every = max(1, self.steps_per_epoch() // 3)
        # probing inside the training loop would add to the traced stage's
        # self time, and a traced run reports no end-to-end timings
        probe = self.probe if tracer is None else None
        self.clock = clock = StepClock(tracer, probe, {1: every, 2: 1})
        self.s1_start = started = time.perf_counter()
        with clock:
            try:
                vae, manifest = moerec.training.train_stage1(
                    split, moerec.training.vae_config_from(run, split), run.stage1())
                self.s1_losses = [row["loss"] for row in manifest["epochs"]]
                self.snapshot = copy.deepcopy(vae)
                self._stage2(vae, clock, self.scale.s2_quota,
                             None if self.exact else started + seconds)
            except moerec.errors.MoerecError as err:
                self.failed += 1
                self.gate("training completes", False, f"{type(err).__name__}: {err}")
        self.attempted = len(clock.stamps[1]) + len(clock.stamps[2]) + self.failed

    def check(self) -> None:
        if "training completes" in self.gates:
            return
        quota = self.scale.s2_quota
        losses = self.clock.losses
        finite = all(math.isfinite(v) for v in self.s1_losses + losses)
        self.gate("losses finite", finite and len(losses) >= quota,
                  f"{len(losses)} stage-2 losses")
        repeat = self.scale.s2_repeat
        again = StepClock()
        with again:
            self._stage2(self.snapshot, again, repeat, None)
        same = digest_floats(again.losses) == digest_floats(losses[:repeat])
        self.gate("stage-2 losses repeat bit for bit", same,
                  f"first {repeat} steps trained twice from the same stage-1 model")
        self.digest = digest_floats(self.s1_losses + losses[:quota])

        clock = self.clock
        epochs = len(self.s1_losses)
        per_epoch = self.steps_per_epoch()
        ends = [self.s1_start] + clock.stamps[1][per_epoch - 1::per_epoch]

        def probe_between(first: int, last: int) -> float:
            found = [p for step, p in clock.probes[1] if first < step <= last]
            return median(found) if found else SpeedProbe.REFERENCE_S

        epoch_probes = [probe_between(e * per_epoch, (e + 1) * per_epoch)
                        for e in range(len(ends) - 1)]
        # the first step of stage 2 also paid for the stage's preparation,
        # so each later step is timed from the step before it
        step_probes = (_smoothed([p for _, p in clock.probes[2][1:]])
                       or [SpeedProbe.REFERENCE_S] * (len(clock.stamps[2]) - 1))
        self.samples["s1_epoch"] = list(zip(_intervals(ends), epoch_probes))
        self.samples["s2_step"] = list(zip(_intervals(clock.stamps[2]), step_probes))
        epoch_s = median(t for t, _ in self.samples["s1_epoch"])
        step_s = median(t for t, _ in self.samples["s2_step"])
        self.figure("s1_records_per_s", len(self.split.train) / epoch_s, "records/s")
        self.figure("s1_epochs", epochs, "count")
        self.figure("s2_records_per_s", self.run.s2_batch / step_s, "records/s")
        self.figure("s2_step_ms_p50", step_s * 1000.0, "ms")
        self.figure("s2_steps", len(clock.stamps[2]), "count")
        self.figure("s2_loss", statistics.fmean(losses[:quota]), "nats")
        scaled = self.probe.scaled
        self.contract.update(
            records_per_s=len(self.split.train) / median(
                scaled(t, p) for t, p in self.samples["s1_epoch"]),
            latency_ms=1000.0 * median(scaled(t, p) for t, p in self.samples["s2_step"]))


def _intervals(stamps: list) -> list:
    return [b - a for a, b in zip(stamps, stamps[1:])]


def _smoothed(probes: list, reach: int = 2) -> list:
    """Each probe replaced by the median of it and its `reach` neighbours
    on either side, so that one interrupted probe does not skew its unit."""
    return [median(probes[max(0, i - reach):i + reach + 1]) for i in range(len(probes))]


# --- explain workloads ---

class _Explain(Workload):
    """Checkpoint set-up and query stream shared by the explain workloads.

    Every set-up trains and saves the checkpoint and synthesizes the first
    query corpus; the timed slices use the first set-up's query stream.
    """

    slices = SETUP_REPS

    def setup(self, rep: int) -> tuple:
        if rep == 0:
            OUT_DIR.mkdir(exist_ok=True)
            self.workdir = Path(tempfile.mkdtemp(prefix="explain-", dir=OUT_DIR))
            self.checkpoints = []
        path = self.workdir / f"setup{rep}" / "demo.ckpt"
        path.parent.mkdir()
        command = [sys.executable, "-m", "perfbench.checkpoint_setup", "--out", str(path)]
        if self.scale is SMOKE:
            command.append("--smoke")
        done = subprocess.run(command, cwd=ROOT, env=pinned_environment(),
                              capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"checkpoint set-up failed:\n{done.stderr}")
        self.checkpoints.append(path)
        self.checkpoint = path
        queries = QueryStream(self.scale.demo_spec, self.seed)
        queries.refill()
        if rep == 0:
            self.queries = queries
        speed = json.loads(done.stdout.strip().splitlines()[-1])
        return speed["probe_time_s"], speed["probe_s"]

    def check_setup(self) -> None:
        blobs = {p.read_bytes() for p in self.checkpoints}
        self.gate("set-up checkpoints identical", len(blobs) == 1,
                  f"{len(self.checkpoints)} set-ups")

    def close(self) -> None:
        if getattr(self, "workdir", None) is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class _Batch:
    records: list
    wall: float
    probe_s: float
    tokens: int
    bleu4: float
    texts: list


class ExplainBatch(_Explain):
    name = "explain-batch"

    def timed(self, tracer, seconds: float) -> None:
        started = time.perf_counter()
        if not hasattr(self, "bundle"):
            self.bundle, _, _ = moerec.training.load_bundle(str(self.checkpoint))
            self.batches: list = []
            self.tried = 0
        tried = 0
        while tried < self.scale.batch_quota or (
                not self.exact and time.perf_counter() < started + seconds):
            records = self.queries.take(self.scale.batch_size)
            tried += 1
            self.tried += 1
            self.attempted += len(records)
            if tracer is not None:
                tracer.request = f"batch{self.tried}"
            before = self.probe.measure(3)
            start = time.perf_counter()
            try:
                report, rows = moerec.metrics.evaluate_model(self.bundle, records)
            except moerec.errors.MoerecError:
                self.failed += len(records)
                continue
            wall = time.perf_counter() - start
            probe_s = (before + self.probe.measure(3)) / 2
            texts = [row["generated"] for row in rows]
            self.batches.append(_Batch(records, wall, probe_s, sum(len(t.split()) for t in texts),
                                       report.values["bleu4"], texts))

    def check(self) -> None:
        self.check_setup()
        quota = self.batches[:self.scale.batch_quota * self.slices]
        if not quota:
            self.gate("batches evaluated", False, "every batch failed")
            return
        bleu4 = statistics.fmean(b.bleu4 for b in quota)
        self.gate("bleu4 at or above floor", bleu4 >= self.scale.bleu4_floor,
                  f"bleu4 {bleu4:.4f}, floor {self.scale.bleu4_floor}")
        _, rows = moerec.metrics.evaluate_model(self.bundle, quota[0].records)
        self.gate("generations repeat", [r["generated"] for r in rows] == quota[0].texts,
                  f"first batch of {len(rows)} records evaluated twice")
        self.digest = digest_texts([t for b in quota for t in b.texts])

        self.samples["batches"] = [[len(b.records), b.wall, b.probe_s, b.tokens]
                                   for b in self.batches]
        self.figure("explain_per_s", median(len(b.records) / b.wall for b in self.batches),
                    "records/s")
        self.figure("ms_per_token",
                    median(b.wall * 1000.0 / max(b.tokens, 1) for b in self.batches), "ms")
        self.figure("bleu4", bleu4, "ratio")
        self.figure("batches", len(self.batches), "count")
        self.figure("generated_tokens", sum(b.tokens for b in self.batches), "count")
        scaled = [(b, self.probe.scaled(b.wall, b.probe_s)) for b in self.batches]
        self.contract.update(
            records_per_s=median(len(b.records) / wall for b, wall in scaled),
            latency_ms=median(wall * 1000.0 / max(b.tokens, 1) for b, wall in scaled))


@dataclass
class _Request:
    record: object
    expected: int
    code: object            # exit code, or None when cli.main raised
    stdout: str
    ms: float
    probe_s: float          # mean of the kernel times just before and after


class ExplainInteractive(_Explain):
    name = "explain-interactive"

    def _argv(self, record) -> list:
        return ["generate", "--checkpoint", str(self.checkpoint),
                "--user", record.user, "--item", record.item,
                "--rating", repr(record.rating), "--features", ",".join(record.features)]

    def timed(self, tracer, seconds: float) -> None:
        if not hasattr(self, "requests"):
            self.requests: list = []
        deadline = time.perf_counter() + seconds
        done = 0
        last_probe = self.probe.measure()
        while done < self.scale.request_quota or (
                not self.exact and time.perf_counter() < deadline):
            done += 1
            record = self.queries.take(1)[0]
            expected = 0
            if self.inject_overflow and len(self.requests) == 1:
                record = dataclasses.replace(
                    record, features=[record.features[0]] * OVERFLOW_FEATURES)
                expected = moerec.errors.ContextLimitError.exit_code
            argv = self._argv(record)
            if tracer is not None:
                tracer.request = f"request{len(self.requests) + 1}"
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = moerec.cli.main(argv)
            except Exception as exc:  # a raw exception escaping the CLI is a program bug
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            ms = (time.perf_counter() - start) * 1000.0
            probe_s = self.probe.measure()
            self.requests.append(_Request(record, expected, code, out.getvalue(), ms,
                                          (last_probe + probe_s) / 2))
            last_probe = probe_s
        self.attempted = len(self.requests)
        self.failed = sum(1 for r in self.requests if r.code != 0)

    def check(self) -> None:
        self.check_setup()
        bundle, _, _ = moerec.training.load_bundle(str(self.checkpoint))
        wrong_code = [r for r in self.requests if r.code != r.expected]
        self.gate("exit codes as expected", not wrong_code,
                  f"{len(wrong_code)} of {len(self.requests)} requests")
        mismatched = 0
        for r in self.requests:
            if r.code == 0:
                text = _explanation_line(r.stdout)
                if text is None or text != bundle.generate_explanation(r.record):
                    mismatched += 1
        self.gate("explanations equal generate_explanation", mismatched == 0,
                  f"{mismatched} mismatches")
        quota = self.requests[:self.scale.request_quota * self.slices]
        self.digest = digest_texts([f"{r.code}\n{r.stdout}" for r in quota])

        for r, probe_s in zip(self.requests, _smoothed([r.probe_s for r in self.requests])):
            r.probe_s = probe_s
        self.samples["requests"] = [[r.ms, r.probe_s, r.code] for r in self.requests]
        ok = [r for r in self.requests if r.code == 0]
        self.gate("latency defined", 2 * len(ok) > len(self.requests),
                  f"{len(ok)} of {len(self.requests)} requests succeeded")
        if not ok:
            return

        def summary(ms_of):
            """p50, p90 and requests per second; a failure is infinitely slow."""
            latencies = [ms_of(r) if r.code == 0 else math.inf for r in self.requests]
            p90 = percentile(latencies, 0.9)
            return (median(latencies), p90 if math.isfinite(p90) else None,
                    len(ok) / (sum(ms_of(r) for r in ok) / 1000.0))

        p50, p90, rate = summary(lambda r: r.ms)
        self.figure("explain_ms_p50", p50, "ms")
        self.figure("explain_ms_p90", p90, "ms")
        self.figure("requests", len(self.requests), "count")
        self.figure("requests_per_s", rate, "records/s")
        p50, _, rate = summary(lambda r: self.probe.scaled(r.ms, r.probe_s))
        self.contract.update(records_per_s=rate, latency_ms=p50)


def _explanation_line(stdout: str):
    prefix = "explanation: "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


WORKLOADS = {w.name: w for w in (Train, ExplainBatch, ExplainInteractive)}


def pinned_environment() -> dict:
    return dict(os.environ, **{var: "1" for var in THREAD_VARS})


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, inject_overflow: bool = False) -> dict:
    """One benchmark run; returns everything the run measured and checked."""
    scale = SMOKE if smoke else FULL
    workload = WORKLOADS[name](scale, seed, exact=trace,
                               inject_overflow=inject_overflow)
    tracer = Tracer().install() if trace else None
    try:
        try:
            setup_times = []
            for rep in range(SETUP_REPS):
                if tracer is not None:
                    tracer.request = "setup"
                before = workload.probe.measure(3)
                start = time.perf_counter()
                measured = workload.setup(rep)
                wall = time.perf_counter() - start
                probing, probe_s = measured or (0.0, (before + workload.probe.measure(3)) / 2)
                setup_times.append((wall - probing, probe_s))
                if rep >= SETUP_REPS - workload.slices:
                    workload.timed(tracer, seconds / workload.slices)
            workload.peak_rss = peak_rss_mb()
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.check()
    finally:
        workload.close()

    probe = workload.probe
    workload.figure("setup_s", median(t for t, _ in setup_times), "s")
    workload.figure("peak_rss_mb", workload.peak_rss, "MB")
    workload.figure("failed_ratio", workload.failed / max(workload.attempted, 1), "ratio")
    workload.figure("probe_ms", 1000.0 * median(probe.samples), "ms")
    workload.contract.update(setup_s=median(probe.scaled(t, p) for t, p in setup_times),
                             peak_rss_mb=workload.peak_rss)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "attempted": max(workload.attempted, 1),
        "failed": workload.failed, "gates": workload.gates,
        "figures": workload.figures, "digest": workload.digest,
        "setup_times_s": setup_times, "samples": workload.samples,
    }
    if tracer is not None:
        called = tracer.called_spans()
        bad = expectation_failures(name, called)
        workload.gate("traced spans busy and absent as expected", not bad, "; ".join(bad))
        result["layers"] = layer_metrics(tracer)
        result["called"] = called
        result["tracer"] = tracer
    result["contract"] = {k: workload.contract.get(k) for k in CONTRACT_UNITS}
    result["correct"] = all(g["ok"] for g in workload.gates.values())
    return result
