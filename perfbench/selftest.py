"""The benchmark's own tests, on tiny inputs (smoke mode).

Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's default test run;
they take about half a minute.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAMES = list(workloads.WORKLOADS)
HARDWARE_INDEPENDENT = ("tensor.ops", "tensor.tape_records", "moe.expert_evals",
                        "moe.forward_positions", "optim.steps", "rng.shuffle_calls")


def smoke(name: str, trace: bool, seed: int = 3, **kwargs) -> dict:
    return workloads.run_workload(name, seed, 0.5, trace, smoke=True, **kwargs)


@pytest.fixture(scope="module")
def runs() -> dict:
    """Each workload once untraced and twice traced, all with one seed."""
    return {name: (smoke(name, False), smoke(name, True), smoke(name, True))
            for name in NAMES}


def test_benchmark_json_names_the_workloads_and_the_run_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert END_TO_END == list(workloads.CONTRACT_UNITS)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == workloads.CONTRACT_UNITS[metric["name"]]


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_passes_its_gates_and_reports_every_end_to_end_metric(runs, name):
    plain = runs[name][0]
    assert plain["correct"], plain["gates"]
    assert plain["failed"] == 0
    assert set(plain["contract"]) == set(END_TO_END)
    assert all(value > 0 for value in plain["contract"].values()), plain["contract"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(runs, name):
    traced = runs[name][1]
    assert traced["correct"], traced["gates"]
    assert list(traced["layers"]) == PER_LAYER


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_are_byte_identical_to_untraced(runs, name):
    plain, traced, _ = runs[name]
    assert plain["digest"] and plain["digest"] == traced["digest"]


@pytest.mark.parametrize("name", NAMES)
def test_hardware_independent_counts_repeat_exactly(runs, name):
    _, first, second = runs[name]
    for key in HARDWARE_INDEPENDENT:
        assert first["layers"][key] == second["layers"][key], key
    assert first["layers"]["tensor.ops"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_spans_are_busy_and_absent_where_the_table_says(runs, name):
    traced = runs[name][1]
    gate = traced["gates"]["traced spans busy and absent as expected"]
    assert gate["ok"], gate["detail"]
    # elbo_loss and load_checkpoint are imported by value into training;
    # the tracer must reach them there
    if name == "train":
        assert traced["layers"]["vae.elbo_s"] > 0
        assert traced["layers"]["tensor.backward_calls"] > 0
    else:
        assert traced["layers"]["checkpoint.loads"] > 0
        assert traced["layers"]["tensor.backward_calls"] == 0
        assert traced["layers"]["optim.steps"] == 0


def test_tracer_and_step_clock_restore_every_original(runs):
    wrapper = Tracer()._wrap(lambda: None, "x.noop", "x", store=False).__code__
    moerec = workloads.moerec
    for layer in LAYERS:
        module = getattr(moerec, layer)
        for holder in [module] + [o for o in vars(module).values() if inspect.isclass(o)]:
            for attr, obj in vars(holder).items():
                code = getattr(getattr(obj, "__func__", obj), "__code__", None)
                assert code is not wrapper, f"{layer}.{attr}"
    assert moerec.optim.AdamW.step.__qualname__ == "AdamW.step"
    assert moerec.tensor.backward.__qualname__ == "backward"


def test_injected_context_overflow_counts_as_a_failure():
    result = smoke("explain-interactive", True, inject_overflow=True)
    assert result["correct"], result["gates"]
    assert result["failed"] == 1
    assert result["figures"]["failed_ratio"]["value"] > 0
    assert result["layers"]["moe.errors"] == 1
    assert result["layers"]["cli.errors"] == 1


def test_command_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "2",
         "--seconds", "0.5", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == workloads.CONTRACT_UNITS


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
