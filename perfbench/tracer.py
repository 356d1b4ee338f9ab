"""Span tracer that wraps moerec's layers from outside the package.

Every public function and public method of each layer module is replaced,
for the duration of a traced run, by a wrapper that opens a span on entry
and closes it on exit. Functions imported by value into other modules (for
example ``training`` imports ``elbo_loss`` and ``load_checkpoint``, and
``cli`` keeps its command functions in a dict) are found by identity and
patched there too, so no call path reaches an unwrapped original.

A span has a name (``<layer>.<qualified name>``), a start and an end, the
span that called it, and a request id set by the workload. Spans
are kept in memory and written out when the run ends. Three times are
accumulated per name:

- ``total``: the span's duration;
- ``self``: the duration minus the time its child spans cover;
- ``layer_self``: the duration minus the time covered by the nearest
  descendant spans of the same layer, so that, say, a transformer block's
  layer-self time keeps the tensor ops it runs for attention but drops the
  router and experts it calls.

Tensor ops are far more numerous than everything else put together, so
they are aggregated only and never stored as individual spans; every other
name stores its first ``STORE_CAP`` spans and aggregates the rest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("rng", "vae", "tensor", "optim", "moe", "checkpoint", "training",
          "metrics", "data", "cli")
STORE_CAP = 2_000

# ``Tensor`` methods are sugar over the module-level ops, which are wrapped;
# wrapping both would count every op twice.
SKIPPED_CLASSES = {("tensor", "Tensor")}


def is_tensor_op(fn) -> bool:
    """Public tensor functions that produce a Tensor are the ops."""
    annotation = getattr(fn, "__annotations__", {}).get("return")
    return annotation in ("Tensor", "tensor.Tensor") or getattr(
        annotation, "__name__", None) == "Tensor"


class _Frame:
    __slots__ = ("span_id", "key", "layer", "start", "child", "layer_child",
                 "outer_same_layer")

    def __init__(self, span_id, key, layer, start, outer_same_layer):
        self.span_id = span_id
        self.key = key
        self.layer = layer
        self.start = start
        self.child = 0
        self.layer_child = 0
        self.outer_same_layer = outer_same_layer


class Tracer:
    """In-memory spans, per-name times, counters and per-layer errors."""

    def __init__(self):
        self.spans: list = []
        self.stats: dict = {}          # key -> [calls, total_ns, self_ns, layer_self_ns]
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)
        self.op_keys: set = set()
        self.request = "setup"
        self._stack: list = []
        self._innermost: dict = {}     # layer -> innermost open frame of that layer
        self._next_id = 1
        self._patches: list = []
        self.per_call_s = 0.0
        self._probes = {
            "tensor.backward": _probe_backward,
            "optim.AdamW.step": _probe_step,
            "moe.LanguageModel.forward_rows": _probe_forward_rows,
            "moe.LanguageModel.generate": _probe_generate,
            "moe.ExpertBank.run": _probe_expert_run,
        }

    # --- spans ---

    def _wrap(self, fn, key: str, layer: str, store: bool):
        tracer = self
        stack = self._stack
        innermost = self._innermost
        stat = self.stats.setdefault(key, [0, 0, 0, 0])
        probe = self._probes.get(key)
        clock = time.perf_counter_ns
        errors_type = _moerec_error_type()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(0, key, layer, 0, innermost.get(layer))
            if store and stat[0] < STORE_CAP:
                frame.span_id = tracer._next_id
                tracer._next_id += 1
            innermost[layer] = frame
            stack.append(frame)
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, stat, clock())
                if isinstance(exc, errors_type):
                    seen = exc.__dict__.setdefault("_perfbench_layers", set())
                    if layer not in seen:
                        seen.add(layer)
                        tracer.errors[layer] += 1
                raise
            tracer._close(frame, stat, clock())
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return traced

    def _close(self, frame: _Frame, stat: list, end: int) -> None:
        stack = self._stack
        stack.pop()
        self._innermost[frame.layer] = frame.outer_same_layer
        duration = end - frame.start
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame.child
        stat[3] += duration - frame.layer_child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        if frame.outer_same_layer is not None:
            frame.outer_same_layer.layer_child += duration
        if frame.span_id:
            self.spans.append((frame.span_id, parent.span_id if parent else 0,
                               frame.key, frame.start, end, self.request))

    def inside(self, key: str) -> bool:
        return any(f.key == key for f in self._stack)

    # --- installation ---

    def install(self) -> "Tracer":
        """Wrap every layer; call :meth:`uninstall` to restore the originals."""
        layer_modules = [importlib.import_module(f"moerec.{layer}") for layer in LAYERS]
        modules = [m for name, m in sys.modules.items()
                   if name == "moerec" or name.startswith("moerec.")]
        for layer, module in zip(LAYERS, layer_modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{attr}"
                    if layer == "tensor" and is_tensor_op(obj):
                        self.op_keys.add(key)
                    wrapped = self._wrap(obj, key, layer, store=key not in self.op_keys)
                    self._patch_everywhere(modules, obj, wrapped)
                elif inspect.isclass(obj) and (layer, attr) not in SKIPPED_CLASSES:
                    self._wrap_class(obj, layer)
        self.per_call_s = self._calibrate()
        return self

    def _calibrate(self, calls: int = 20_000) -> float:
        """Seconds one wrapped call adds to a call, measured on a no-op."""
        def noop():
            return None

        wrapped = self._wrap(noop, "trace.noop", "trace", store=False)
        best = []
        for fn in (noop, wrapped):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - start)
            best.append(min(times))
        del self.stats["trace.noop"]
        return max(best[1] - best[0], 0.0) / calls

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(raw.__func__, key, layer, True))
            elif inspect.isfunction(raw):
                replacement = self._wrap(raw, key, layer, True)
            else:
                continue
            self._patches.append((cls, attr, raw, "attr"))
            setattr(cls, attr, replacement)

    def _patch_everywhere(self, modules, original, wrapped) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original, "attr"))
                    setattr(module, name, wrapped)
                elif isinstance(value, dict) and not name.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original, "item"))
                            value[k] = wrapped

    def uninstall(self) -> None:
        for target, name, original, kind in reversed(self._patches):
            if kind == "attr":
                setattr(target, name, original)
            else:
                target[name] = original
        self._patches.clear()

    # --- results ---

    def total_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0, 0, 0))[1] for k in keys) / 1e9

    def self_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0, 0, 0))[2] for k in keys) / 1e9

    def layer_self_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0, 0, 0))[3] for k in keys) / 1e9

    def calls(self, *keys) -> int:
        return sum(self.stats.get(k, (0, 0, 0, 0))[0] for k in keys)

    def keys_of(self, layer: str) -> list:
        return [k for k in self.stats if k.split(".", 1)[0] == layer]

    def called_spans(self) -> dict:
        """Calls per wrapped name, zero for names never called."""
        return {k: s[0] for k, s in sorted(self.stats.items())}

    def write(self, path) -> None:
        """JSON lines: the span fields, one span per line as an array, then
        one summary line per called name."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_ns",
                                            "end_ns", "request"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for key, (calls, total, own, layer_own) in sorted(self.stats.items()):
                if calls:
                    fh.write(json.dumps({"summary": key, "calls": calls,
                                         "total_ns": total, "self_ns": own,
                                         "layer_self_ns": layer_own}) + "\n")


def _moerec_error_type():
    from moerec.errors import MoerecError
    return MoerecError


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Probes run after a wrapped call returns and record the hardware-independent
# counts that the per-layer metrics need.

def _probe_backward(tracer, args, kwargs, result) -> None:
    tracer.counts["tape_records"] += len(_arg(args, kwargs, 0, "tape").records)


def _probe_step(tracer, args, kwargs, result) -> None:
    tracer.counts["param_tensors"] = max(tracer.counts["param_tensors"],
                                         len(args[0].params))


def _probe_forward_rows(tracer, args, kwargs, result) -> None:
    import numpy as np
    positions = np.atleast_2d(_arg(args, kwargs, 1, "tokens")).size
    tracer.counts["forward_positions"] += positions
    if tracer.inside("moe.LanguageModel.generate"):
        tracer.counts["decode_steps"] += 1
        tracer.counts["decode_positions"] += positions


def _probe_generate(tracer, args, kwargs, result) -> None:
    prompt = _arg(args, kwargs, 1, "prompt")
    tracer.counts["decode_useful_positions"] += len(prompt) + len(result)


def _probe_expert_run(tracer, args, kwargs, result) -> None:
    tracer.counts["expert_evals"] += _arg(args, kwargs, 2, "rows").shape[0]


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, by name, from one traced run."""
    t = tracer
    c = t.counts
    expert_calls = t.calls("moe.ExpertBank.run")
    ops = sorted(t.op_keys)
    out = {
        "rng.shuffle_s": t.total_s("rng.Rng.shuffle"),
        "rng.shuffle_calls": t.calls("rng.Rng.shuffle"),
        "rng.normal_s": t.total_s("rng.Rng.normal"),
        "vae.elbo_s": t.total_s("vae.elbo_loss"),
        "vae.encode_s": t.total_s("vae.VaeGmm.encode"),
        "vae.kl_s": t.total_s("vae.kl_closed_form_batch"),
        "vae.gates_s": t.total_s("vae.VaeGmm.posteriors"),
        "tensor.ops": t.calls(*ops),
        "tensor.op_s": t.self_s(*ops),
        "tensor.backward_s": t.total_s("tensor.backward"),
        "tensor.backward_calls": t.calls("tensor.backward"),
        "tensor.tape_records": int(c["tape_records"]),
        "optim.step_s": t.total_s("optim.AdamW.step"),
        "optim.steps": t.calls("optim.AdamW.step"),
        "optim.clip_s": t.total_s("optim.clip_grad_norm"),
        "optim.param_tensors": int(c["param_tensors"]),
        "moe.forward_s": t.total_s("moe.LanguageModel.forward_rows"),
        "moe.forward_positions": int(c["forward_positions"]),
        "moe.block_s": t.total_s("moe.TransformerBlock.forward"),
        "moe.block_self_s": t.layer_self_s("moe.TransformerBlock.forward"),
        "moe.head_self_s": t.layer_self_s("moe.LanguageModel.forward_rows"),
        "moe.router_s": t.total_s("moe.GateRouter.scores"),
        "moe.topk_s": t.total_s("moe.top_k_select"),
        "moe.experts_s": t.total_s("moe.ExpertBank.run"),
        "moe.expert_calls": expert_calls,
        "moe.expert_evals": int(c["expert_evals"]),
        "moe.rows_per_expert_call": (c["expert_evals"] / expert_calls
                                     if expert_calls else 0.0),
        "moe.nll_s": t.total_s("moe.LanguageModel.batched_nll",
                               "moe.LanguageModel.explanation_nll"),
        "moe.generate_s": t.total_s("moe.LanguageModel.generate"),
        "moe.decode_steps": int(c["decode_steps"]),
        "moe.decode_useful_ratio": (c["decode_useful_positions"] / c["decode_positions"]
                                    if c["decode_positions"] else 0.0),
        "checkpoint.load_s": t.total_s("checkpoint.load_checkpoint"),
        "checkpoint.loads": t.calls("checkpoint.load_checkpoint"),
        "checkpoint.restore_s": t.total_s("checkpoint.restore_params"),
        "checkpoint.save_s": t.total_s("checkpoint.save_checkpoint"),
        "training.stage1_self_s": t.self_s("training.train_stage1"),
        "training.stage2_self_s": t.self_s("training.train_stage2"),
        "training.prepare_s": t.total_s("training.prepare_sequence"),
        "metrics.score_s": t.self_s(*t.keys_of("metrics")),
        "data.synth_s": t.total_s("data.generate_synthetic"),
        "data.split_s": t.total_s("data.split_records"),
        "cli.self_s": t.self_s(*t.keys_of("cli")),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = t.errors[layer]
    out["trace.calls"] = t.calls(*t.stats)
    out["trace.overhead_s"] = out["trace.calls"] * t.per_call_s
    return out


# The spans behind each per-layer metric, and the workloads on which they
# must be called (busy) or must not be called (absent). A wrapper bound to
# the wrong name would read zero on a busy workload and fail the check. The
# explain workloads save their checkpoint in an untraced set-up process, so
# no traced run calls save_checkpoint.
TRAIN = ("train",)
EXPLAIN = ("explain-batch", "explain-interactive")
ALL = TRAIN + EXPLAIN
SPAN_EXPECTATIONS = {
    "rng.Rng.shuffle": (TRAIN, ()),
    "rng.Rng.normal": (TRAIN, ()),
    "vae.elbo_loss": (TRAIN, EXPLAIN),
    "vae.VaeGmm.encode": (ALL, ()),
    "vae.kl_closed_form_batch": (TRAIN, EXPLAIN),
    "vae.VaeGmm.posteriors": (ALL, ()),
    "tensor.backward": (TRAIN, EXPLAIN),
    "tensor.matmul": (ALL, ()),
    "optim.AdamW.step": (TRAIN, EXPLAIN),
    "optim.clip_grad_norm": (TRAIN, EXPLAIN),
    "moe.LanguageModel.forward_rows": (ALL, ()),
    "moe.TransformerBlock.forward": (ALL, ()),
    "moe.GateRouter.scores": (ALL, ()),
    "moe.top_k_select": (ALL, ()),
    "moe.ExpertBank.run": (ALL, ()),
    "moe.LanguageModel.batched_nll": (TRAIN, EXPLAIN),
    "moe.LanguageModel.generate": (EXPLAIN, TRAIN),
    "checkpoint.load_checkpoint": (EXPLAIN, TRAIN),
    "checkpoint.restore_params": (EXPLAIN, TRAIN),
    "checkpoint.save_checkpoint": ((), ALL),
    "training.train_stage1": (TRAIN, EXPLAIN),
    "training.train_stage2": (TRAIN, EXPLAIN),
    "training.prepare_sequence": (TRAIN, EXPLAIN),
    "metrics.evaluate_model": (("explain-batch",), ("train", "explain-interactive")),
    "data.generate_synthetic": (ALL, ()),
    "data.split_records": (TRAIN, EXPLAIN),
    "cli.main": (("explain-interactive",), ("train", "explain-batch")),
}


def expectation_failures(workload: str, called: dict) -> list:
    """Names that break SPAN_EXPECTATIONS on `workload`, with their calls."""
    bad = []
    for key, (busy, absent) in SPAN_EXPECTATIONS.items():
        calls = called.get(key)
        if calls is None:
            bad.append(f"{key}: not wrapped")
        elif workload in busy and calls == 0:
            bad.append(f"{key}: no calls on {workload}")
        elif workload in absent and calls > 0:
            bad.append(f"{key}: {calls} calls on {workload}, expected none")
    return bad
