"""End-to-end CLI: every subcommand plus exit-code contracts."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from moerec import cli, tensor as T
from moerec.checkpoint import load_checkpoint, save_checkpoint
from moerec.cli import build_parser, main
from moerec.config import RunConfig
from moerec.data import InteractionRecord, index_ids, load_records, split_records
from moerec.errors import ConfigError
from moerec.metrics import evaluate_model
from moerec.training import load_bundle
from moerec.vae import VaeGmm


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny synthetic corpus + both training stages, shared by cli tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "corpus.jsonl"
    spec = root / "synth.cfg"
    spec.write_text(
        "planted_clusters = 2\nn_users = 24\nn_items = 12\n"
        "records_per_user = 6\nseed = 5\n", encoding="utf-8")
    assert run_cli("synth", "--spec", str(spec), "--out", str(data)) == 0

    cfg = root / "run.cfg"
    cfg.write_text(
        "clusters = 2\nd_emb = 8\nlatent_dim = 4\nenc_hidden = 12\n"
        "model_dim = 16\nblocks = 1\nheads = 2\ncontext = 32\n"
        "base_experts = 2\nbase_hidden = 16\nfactor = 2\n"
        "s1_epochs = 3\ns1_warmup_epochs = 2\ns1_batch = 32\n"
        "s2_epochs = 1\ns2_batch = 8\nseed = 5\n", encoding="utf-8")
    s1 = root / "stage1.ckpt"
    s2 = root / "stage2.ckpt"
    assert run_cli("train", "--stage", "1", "--data", str(data),
                   "--config", str(cfg), "--out", str(s1)) == 0
    assert run_cli("train", "--stage", "2", "--data", str(data),
                   "--config", str(cfg), "--out", str(s2),
                   "--stage1-checkpoint", str(s1)) == 0
    return {"root": root, "data": data, "cfg": cfg, "s1": s1, "s2": s2,
            "labels": data.with_name(data.name + ".labels.tsv")}


def test_synth_outputs_and_summary(workspace, capsys, tmp_path):
    data = tmp_path / "again.jsonl"
    spec = workspace["root"] / "synth.cfg"
    assert run_cli("synth", "--spec", str(spec), "--out", str(data)) == 0
    out = capsys.readouterr().out
    for key in ("users", "items", "records", "features"):
        assert key in out
    assert data.exists()
    assert (tmp_path / "again.jsonl.labels.tsv").exists()


def test_synth_byte_identical_given_seed(workspace, tmp_path):
    spec = workspace["root"] / "synth.cfg"
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_cli("synth", "--spec", str(spec), "--out", str(a))
    run_cli("synth", "--spec", str(spec), "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_synth_malformed_spec_field(tmp_path, capsys):
    spec = tmp_path / "bad.cfg"
    spec.write_text("bogus_field = 3\n", encoding="utf-8")
    code = run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl"))
    assert code == 1
    assert "bogus_field" in capsys.readouterr().err


@pytest.mark.parametrize("spec_text,extra,code,needle", [
    ("n_users = abc\n", (), 1, "n_users"),
    ("n_users = [1, 2]\n", (), 1, "n_users"),
    ("noise_rate = high\n", (), 1, "noise_rate"),
    ("n_users\n", (), 1, "spec line 1"),
    (None, ("--seed", "abc"), 1, "seed"),
    ("n_users = -3\n", (), 2, "n_users"),
    ("n_items = 0\n", (), 2, "n_items"),
    ("records_per_user = 0\n", (), 2, "records_per_user"),
    ("rating_noise = NaN\n", (), 1, "rating_noise"),          # retired: only 0.3 reads
    ("favorites_per_user = 1\n", (), 1, "favorites_per_user"),   # retired: only 3 reads
    (None, ("--seed", "Infinity"), 1, "seed"),
    ("n_users = 12.9\n", (), 1, "n_users"),
    ("favorites_per_user = 9\n", (), 1, "favorites_per_user"),
])
def test_synth_rejects_malformed_spec_values(tmp_path, capsys, spec_text, extra,
                                             code, needle):
    spec = tmp_path / "bad.cfg"
    spec.write_text(spec_text or "", encoding="utf-8")
    out = tmp_path / "x.jsonl"
    assert run_cli("synth", "--spec", str(spec), "--out", str(out), *extra) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not out.exists()


def test_synth_spec_values_read_like_run_config_values(tmp_path, capsys):
    spec = tmp_path / "quoted.cfg"
    spec.write_text('n_users = "12"\nn_items = 8\nrecords_per_user = 3\n', encoding="utf-8")
    assert run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl")) == 0
    assert re.search(r"^users\s+12$", capsys.readouterr().out, re.M)
    assert run_cli("synth", "--spec", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path / "y.jsonl")) == 1
    assert "cannot read spec file" in capsys.readouterr().err


def test_train_writes_checkpoint_and_manifest(workspace):
    manifest = json.loads(
        (workspace["root"] / "stage1.ckpt.manifest.json").read_text())
    assert manifest["stage"] == "stage1"
    assert manifest["epochs"]


def test_stage2_from_a_loaded_stage1_trains_as_from_owned_arrays(workspace, tmp_path):
    """The CLI's stage 2 trains a stage-1 model whose parameters are views
    of one loaded buffer; with each parameter owning a copy instead, the
    same training writes the same bytes."""
    from moerec.config import load_config
    from moerec.training import save_bundle, train_stage2
    run = load_config(workspace["cfg"])
    stage1, _, _ = load_bundle(workspace["s1"], "stage1")
    for tensor in stage1.vae.params().values():
        tensor.data = tensor.data.copy()
    split = split_records(load_records(workspace["data"]), run.seed)
    bundle, manifest = train_stage2(split, stage1.vae, run, run.stage2())
    path = tmp_path / "owned.ckpt"
    save_bundle(path, bundle, run, manifest)
    assert path.read_bytes() == workspace["s2"].read_bytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_library_and_cli_training_write_the_same_checkpoints(workspace, tmp_path, precision):
    """At either precision, `moerec train` and the library's train functions
    write the same bytes for one config. The library's stage 2 starts from the
    stage-1 checkpoint as `moerec train` loads it: its payload is in the run's
    precision, and the load keeps that dtype, so it is exact and stage 2 needs
    no cast."""
    from moerec.config import load_config
    from moerec.training import (ExplainerBundle, save_bundle, train_stage1, train_stage2,
                                 vae_config_from)
    common = ("--data", str(workspace["data"]), "--config", str(workspace["cfg"]),
              "--precision", precision)
    cli_s1, cli_s2 = tmp_path / "cli.s1", tmp_path / "cli.s2"
    assert run_cli("train", "--stage", "1", "--out", str(cli_s1), *common) == 0
    assert run_cli("train", "--stage", "2", "--out", str(cli_s2),
                   "--stage1-checkpoint", str(cli_s1), *common) == 0

    run = load_config(workspace["cfg"], {"precision": precision})
    split = split_records(load_records(workspace["data"]), run.seed)
    vae, manifest = train_stage1(split, vae_config_from(run, split), run.stage1())
    assert vae.encoder.w1.data.dtype == np.dtype(precision)
    save_bundle(tmp_path / "lib.s1", ExplainerBundle(vae, None, None, split.user_index,
                                                     split.item_index),
                run, manifest)
    assert (tmp_path / "lib.s1").read_bytes() == cli_s1.read_bytes()

    stage1, _, _ = load_bundle(cli_s1, "stage1")
    assert stage1.vae.encoder.w1.data.dtype == np.dtype(precision)
    assert T.default_dtype() == np.float64
    bundle, manifest = train_stage2(split, stage1.vae, run, run.stage2())
    assert bundle.lm.head.data.dtype == stage1.vae.encoder.w1.data.dtype == np.dtype(precision)
    save_bundle(tmp_path / "lib.s2", bundle, run, manifest)
    assert (tmp_path / "lib.s2").read_bytes() == cli_s2.read_bytes()
    # the workspace trained at the default precision
    assert (precision == "float32") == (cli_s2.read_bytes() == workspace["s2"].read_bytes())


def test_train_stage2_requires_stage1(workspace, tmp_path, capsys):
    code = run_cli("train", "--stage", "2", "--data", str(workspace["data"]),
                   "--config", str(workspace["cfg"]),
                   "--out", str(tmp_path / "x.ckpt"))
    assert code == 3
    assert "stage1" in capsys.readouterr().err.lower()


def test_stage2_checkpoint_is_one_self_contained_file(workspace, tmp_path, capsys):
    out = tmp_path / "train" / "model.ckpt"
    out.parent.mkdir()
    assert run_cli("train", "--stage", "2", "--data", str(workspace["data"]),
                   "--config", str(workspace["cfg"]), "--out", str(out),
                   "--stage1-checkpoint", str(workspace["s1"])) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["model.ckpt",
                                                            "model.ckpt.manifest.json"]
    moved = tmp_path / "elsewhere" / "copy.ckpt"
    moved.parent.mkdir()
    moved.write_bytes(out.read_bytes())
    query = ["--user", "u0001", "--item", "i0002", "--rating", "4", "--max-len", "6"]
    capsys.readouterr()
    assert run_cli("generate", "--checkpoint", str(out), *query) == 0
    here = capsys.readouterr().out
    assert run_cli("generate", "--checkpoint", str(moved), *query) == 0
    assert capsys.readouterr().out == here and "explanation: " in here
    assert sorted(p.name for p in moved.parent.iterdir()) == ["copy.ckpt"]


def test_train_rejects_gate_cluster_mismatch(workspace, tmp_path, capsys):
    code = run_cli("train", "--stage", "1", "--data", str(workspace["data"]),
                   "--config", str(workspace["cfg"]),
                   "--out", str(tmp_path / "x.ckpt"), "--gates", "5")
    assert code == 1
    assert "gates" in capsys.readouterr().err


def test_train_refuses_the_retired_encoder_attention_flag(workspace, tmp_path, capsys):
    code = run_cli("train", "--stage", "1", "--data", str(workspace["data"]),
                   "--config", str(workspace["cfg"]),
                   "--out", str(tmp_path / "x.ckpt"), "--encoder_attention", "false")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --encoder_attention" in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command,retired", [
    ("train", ("--renormalize_topk", "true")),
    ("train", ("--early_stop", "false")),
    ("evaluate", ("--sentence-level",)),
    ("train", ("--freeze_gmm", "false")),
    ("train", ("--r_max", "5")),
    ("train", ("--f64-checkpoint",)),
])
def test_retired_flags_are_usage_errors(workspace, tmp_path, capsys, command, retired):
    argv = {"train": ("--stage", "1", "--out", str(tmp_path / "x.ckpt")),
            "evaluate": ("--checkpoint", str(workspace["s2"]),
                         "--out", str(tmp_path / "report"))}[command]
    assert run_cli(command, "--data", str(workspace["data"]), *argv, *retired) == 1
    assert "unrecognized arguments: " + " ".join(retired) in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def rewrite_checkpoint(src, dest, config=None, stage=None):
    """`src` written again with save_checkpoint, its manifest's config
    extended by `config` and its stage tag replaced by `stage`."""
    manifest, arrays = load_checkpoint(src)
    save_checkpoint(dest, {name: T.Tensor(a) for name, a in arrays.items()},
                    config=manifest["config"] | (config or {}), seed=manifest["seed"],
                    stage=stage or manifest["stage"], extra=manifest["extra"])


def test_checkpoints_holding_retired_fields_at_their_defaults_load(workspace, tmp_path):
    old, retired = tmp_path / "old.ckpt", RunConfig.RETIRED_FIELDS.keys()
    assert not retired & load_checkpoint(workspace["s2"])[0]["config"].keys()
    records = split_records(load_records(workspace["data"]), 5).test[:6]
    clean, clean_run, _ = load_bundle(workspace["s2"])
    for top in (5.0, 5):                         # the five-star scale, as a float or an int
        rewrite_checkpoint(workspace["s2"], old, RunConfig.RETIRED_FIELDS | {"r_max": top})
        assert retired <= load_checkpoint(old)[0]["config"].keys()
        again, old_run, _ = load_bundle(old)
        assert old_run == clean_run
        assert again.explain(records)[0] == clean.explain(records)[0]


def test_a_config_naming_the_five_star_scale_trains_the_same_checkpoint(workspace, tmp_path,
                                                                        capsys):
    # r_max is retired at 5: a config file naming it there trains the bytes
    # one without it does, and any other value is refused before training
    for top, code in (("5", 0), ("10", 1)):
        cfg = tmp_path / f"top{top}.cfg"
        cfg.write_text(workspace["cfg"].read_text(encoding="utf-8") + f"r_max = {top}\n",
                       encoding="utf-8")
        assert run_cli("train", "--stage", "1", "--data", str(workspace["data"]),
                       "--config", str(cfg), "--out", str(tmp_path / f"top{top}.ckpt")) == code
    assert (tmp_path / "top5.ckpt").read_bytes() == workspace["s1"].read_bytes()
    assert not (tmp_path / "top10.ckpt").exists()
    assert "config field 'r_max' is retired" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("renormalize_topk", True), ("s1_grad_accum", 2), ("s2_grad_accum", 4),
    ("early_stop", True), ("patience", 5), ("freeze_gmm", True), ("r_max", 10.0),
])
def test_checkpoints_holding_a_retired_field_elsewhere_are_refused(workspace, tmp_path,
                                                                   capsys, field, value):
    old = tmp_path / "old.ckpt"
    rewrite_checkpoint(workspace["s2"], old, RunConfig.RETIRED_FIELDS | {field: value})
    with pytest.raises(ConfigError, match=field):
        load_bundle(old)
    assert run_cli("generate", "--checkpoint", str(old), "--user", "u0001",
                   "--item", "i0002", "--rating", "4") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_inspect_clusters_names_both_stages_for_another_tag(workspace, tmp_path, capsys):
    odd = tmp_path / "odd.ckpt"
    rewrite_checkpoint(workspace["s2"], odd, stage="stage3")
    assert run_cli("inspect-clusters", "--checkpoint", str(odd),
                   "--data", str(workspace["data"])) == 3
    assert "expected a stage1 or stage2 checkpoint, found 'stage3'" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,trained", [
    ("clusters", "3", 2), ("d_emb", "12", 8), ("latent_dim", "6", 4), ("enc_hidden", "10", 12),
])
def test_train_stage2_rejects_cluster_mismatch_with_checkpoint(workspace, tmp_path, capsys,
                                                               field, value, trained):
    """Every shape of the preference model must match the stage-1 checkpoint's,
    or stage 2 would write a file whose config no command can load."""
    code = run_cli("train", "--stage", "2", "--data", str(workspace["data"]),
                   "--config", str(workspace["cfg"]),
                   "--out", str(tmp_path / "x.ckpt"),
                   "--stage1-checkpoint", str(workspace["s1"]),
                   f"--{field}", value)
    assert code == 1
    assert capsys.readouterr().err == (f"error: stage-2 {field} ({value}) must match the "
                                       f"stage-1 checkpoint ({trained})\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field,value", [
    ("d_emb", "0"), ("model_dim", "0"), ("heads", "0"), ("factor", "0"),
    ("s1_clip", "0"), ("s2_clip", "0"), ("latent_dim", "0"), ("enc_hidden", "0"),
    ("s1_lr", "-1"), ("s1_epochs", "2.7"),
    ("s1_epochs", "1e400"),
])
def test_train_rejects_out_of_range_config(workspace, tmp_path, capsys, field, value):
    code = run_cli("train", "--stage", "1", "--data", str(workspace["data"]),
                   "--config", str(workspace["cfg"]),
                   "--out", str(tmp_path / "x.ckpt"), f"--{field}", value)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_rejects_malformed_data(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"user": "u", "item": "i", "rating": -1, "features": [], '
                   '"explanation": "x"}\n' * 12, encoding="utf-8")
    code = run_cli("train", "--stage", "1", "--data", str(bad),
                   "--config", str(workspace["cfg"]),
                   "--out", str(tmp_path / "x.ckpt"))
    assert code == 2


def test_generate_known_user(workspace, capsys):
    assert run_cli("generate", "--checkpoint", str(workspace["s2"]),
                   "--user", "u0000", "--item", "i0000", "--rating", "4.5",
                   "--features", "noodles,curry") == 0
    out = capsys.readouterr().out
    assert "gate:" in out and "responsibilities:" in out and "explanation:" in out


def test_generate_greedy_deterministic(workspace, capsys):
    args = ("generate", "--checkpoint", str(workspace["s2"]), "--user", "u0001",
            "--item", "i0002", "--rating", "3.0", "--features", "staff")
    run_cli(*args)
    first = capsys.readouterr().out
    run_cli(*args)
    second = capsys.readouterr().out
    assert first == second


def test_generate_unknown_user_warns_but_succeeds(workspace, capsys):
    code = run_cli("generate", "--checkpoint", str(workspace["s2"]),
                   "--user", "stranger", "--item", "i0001", "--rating", "2.0")
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err.lower()
    assert "explanation:" in captured.out


@pytest.mark.parametrize("extra,code,needle", [
    (("--rating", "nan"), 2, "rating"),
    (("--rating", "inf"), 2, "rating"),
    (("--rating", "-2.5"), 2, "rating"),
    (("--rating", "0"), 2, "rating"),
    (("--rating", "3", "--mode", "sample", "--temperature", "nan"), 1, "temperature"),
    (("--rating", "3", "--mode", "sample", "--temperature", "inf"), 1, "temperature"),
    (("--rating", "3", "--mode", "sample", "--temperature", "-0.5"), 1, "temperature"),
    (("--rating", "3", "--temperature", "nan"), 0, ""),
    (("--rating", "3", "--mode", "sample", "--temperature", "0"), 0, ""),
    (("--rating", "9"), 2, "R_MAX"),
    (("--rating", "5.5"), 2, "R_MAX"),
    (("--rating", "5"), 0, ""),
])
def test_generate_rejects_a_bad_rating_or_sampling_temperature(workspace, capsys, extra,
                                                               code, needle):
    assert run_cli("generate", "--checkpoint", str(workspace["s2"]), "--user", "u0001",
                   "--item", "i0002", *extra) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("error: ") and needle in captured.err
        assert captured.out == ""
    else:
        assert "<pad>" not in captured.out and "explanation:" in captured.out


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_generate_refuses_a_max_len_below_one(workspace, capsys, max_len):
    assert run_cli("generate", "--checkpoint", str(workspace["s2"]), "--user", "u0001",
                   "--item", "i0002", "--rating", "3", "--max-len", max_len) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "max_len" in captured.err
    assert captured.out == ""


def _unreadable_data(tmp_path):
    missing = tmp_path / "missing.jsonl"
    folder = tmp_path / "folder.jsonl"
    folder.mkdir()
    latin = tmp_path / "latin1.jsonl"
    latin.write_bytes('{"user": "caf\xe9"}\n'.encode("latin-1"))
    return missing, folder, latin


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("command", ["train", "evaluate", "inspect-clusters"])
def test_commands_report_an_unreadable_data_file(workspace, tmp_path, capsys, which,
                                                 command):
    path = _unreadable_data(tmp_path)[which]
    args = {"train": ("--stage", "1", "--config", str(workspace["cfg"]),
                      "--out", str(tmp_path / "x.ckpt")),
            "evaluate": ("--checkpoint", str(workspace["s2"]), "--out", str(tmp_path / "r")),
            "inspect-clusters": ("--checkpoint", str(workspace["s1"]))}[command]
    assert run_cli(command, "--data", str(path), *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read data file") and str(path) in err


@pytest.mark.parametrize("folder", [False, True])
@pytest.mark.parametrize("command", ["generate", "evaluate", "inspect-clusters", "train"])
def test_commands_report_an_unreadable_checkpoint(workspace, tmp_path, capsys, folder,
                                                  command):
    path = tmp_path / "missing.ckpt"
    if folder:
        path.mkdir()
    data = ("--data", str(workspace["data"]))
    args = {"generate": ("--user", "u0", "--item", "i0", "--rating", "4"),
            "evaluate": data + ("--out", str(tmp_path / "r")),
            "inspect-clusters": data,
            "train": data + ("--stage", "2", "--config", str(workspace["cfg"]),
                             "--out", str(tmp_path / "x.ckpt"))}[command]
    flag = "--stage1-checkpoint" if command == "train" else "--checkpoint"
    assert run_cli(command, flag, str(path), *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read checkpoint file") and str(path) in err


@pytest.mark.parametrize("command", ["synth", "train", "evaluate", "inspect-clusters"])
def test_commands_report_an_unwritable_output(workspace, tmp_path, capsys, monkeypatch,
                                              command):
    monkeypatch.setattr(cli, "load_records", lambda path: pytest.fail("data was read"))
    out = tmp_path / "no-such-dir" / "out"
    data = ("--data", str(workspace["data"]))
    args = {"synth": ("--spec", str(workspace["root"] / "synth.cfg"), "--out", str(out)),
            "train": data + ("--stage", "1", "--config", str(workspace["cfg"]),
                             "--out", str(out)),
            "evaluate": data + ("--checkpoint", str(workspace["s2"]), "--out", str(out)),
            "inspect-clusters": data + ("--checkpoint", str(workspace["s1"]),
                                        "--pca-out", str(out))}[command]
    assert run_cli(command, *args) == 1
    named = f"{out}.json" if command == "evaluate" else out
    assert capsys.readouterr().err == (f"error: [Errno 2] No such file or directory: "
                                       f"'{named}'\n")


def test_train_checks_its_output_before_reading_data(workspace, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(cli, "load_records", lambda path: pytest.fail("data was read"))
    out = tmp_path / "no-such-dir" / "s1.ckpt"
    assert run_cli("train", "--stage", "1", "--data", str(workspace["data"]),
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"error: [Errno 2] No such file or directory: "
                                       f"'{out}'\n")


def test_inspect_clusters_projects_one_latent_dimension(workspace, tmp_path, capsys):
    s1, pca = tmp_path / "d1.ckpt", tmp_path / "proj.csv"
    assert run_cli("train", "--stage", "1", "--data", str(workspace["data"]),
                   "--config", str(workspace["cfg"]), "--out", str(s1),
                   "--latent_dim", "1") == 0
    assert run_cli("inspect-clusters", "--checkpoint", str(s1),
                   "--data", str(workspace["data"]), "--pca-out", str(pca)) == 0
    rows = pca.read_text().splitlines()[1:]
    assert len(rows) == len(load_records(workspace["data"]))
    assert all(row.endswith(",0.000000") for row in rows)


@pytest.mark.parametrize("text,needle", [
    (None, "cannot read label file"),
    ("u0001\tabc\n", "line 1: cluster 'abc' is not an integer"),
    ("u0001\t0\nu0002\n", "line 2: expected user<TAB>cluster"),
])
def test_inspect_clusters_reports_a_bad_label_file(workspace, tmp_path, capsys, text, needle):
    labels = tmp_path / "labels.tsv"
    if text is not None:
        labels.write_text(text, encoding="utf-8")
    assert run_cli("inspect-clusters", "--checkpoint", str(workspace["s1"]),
                   "--data", str(workspace["data"]), "--labels", str(labels)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and str(labels) in err


def _count_posteriors(monkeypatch) -> list:
    calls = []
    original = VaeGmm.posteriors

    def counted(self, users, items):
        calls.append(len(users))
        return original(self, users, items)

    monkeypatch.setattr(VaeGmm, "posteriors", counted)
    return calls


def test_generate_gates_and_explains_in_one_encoder_pass(workspace, capsys, monkeypatch):
    calls = _count_posteriors(monkeypatch)
    assert run_cli("generate", "--checkpoint", str(workspace["s2"]), "--user", "u0003",
                   "--item", "i0004", "--rating", "4.0", "--features", "curry") == 0
    assert calls == [1]
    out = capsys.readouterr().out.splitlines()
    bundle, _, _ = load_bundle(workspace["s2"])
    texts, gates, gamma = bundle.explain(
        [InteractionRecord("u0003", "i0004", 4.0, ["curry"], "")])
    assert out == [f"gate: {gates[0]}",
                   "responsibilities: " + " ".join(f"{g:.4f}" for g in gamma[0]),
                   f"explanation: {texts[0]}"]


def test_evaluate_dump_gates_are_the_vae_gates(workspace, tmp_path, monkeypatch):
    calls = _count_posteriors(monkeypatch)
    assert run_cli("evaluate", "--checkpoint", str(workspace["s2"]), "--data",
                   str(workspace["data"]), "--out", str(tmp_path / "r"), "--dump") == 0
    bundle, run, _ = load_bundle(workspace["s2"])
    test = split_records(load_records(workspace["data"]), run.seed).test
    assert calls == [len(test)]
    rows = [json.loads(line)
            for line in (tmp_path / "r.records.jsonl").read_text().splitlines()]
    assert all(list(row) == ["user", "item", "prompt", "generated", "reference", "gate"]
               for row in rows)
    gates = bundle.vae.gates(index_ids(bundle.user_index, [r.user for r in test]),
                             index_ids(bundle.item_index, [r.item for r in test]))
    assert [row["gate"] for row in rows] == gates.tolist()
    calls.clear()
    evaluate_model(bundle, test[:5])
    assert calls == [5]


def test_evaluate_writes_reports(workspace, tmp_path, capsys):
    prefix = tmp_path / "report"
    code = run_cli("evaluate", "--checkpoint", str(workspace["s2"]),
                   "--data", str(workspace["data"]), "--out", str(prefix),
                   "--buckets", "--dump")
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload["buckets"]) >= {"ds1", "ds2", "ds3"}
    assert payload["clusters"] == 2 and payload["gates"] == 2
    table = (tmp_path / "report.txt").read_text()
    assert "bleu1" in table and "ds1" in table
    dump_lines = (tmp_path / "report.records.jsonl").read_text().splitlines()
    assert len(dump_lines) == payload["count"]
    assert "gate" in json.loads(dump_lines[0])


def test_inspect_clusters_stage1_and_labels(workspace, tmp_path, capsys):
    pca = tmp_path / "proj.csv"
    code = run_cli("inspect-clusters", "--checkpoint", str(workspace["s1"]),
                   "--data", str(workspace["data"]),
                   "--labels", str(workspace["labels"]),
                   "--pca-out", str(pca))
    assert code == 0
    out = capsys.readouterr().out
    assert "pi:" in out and "ari:" in out and "purity:" in out
    assert "inter-centroid" in out
    header = pca.read_text().splitlines()[0]
    assert header == "user,item,cluster,pc1,pc2"


def test_inspect_clusters_stage2_checkpoint(workspace, capsys):
    code = run_cli("inspect-clusters", "--checkpoint", str(workspace["s2"]),
                   "--data", str(workspace["data"]), "--labels", str(workspace["labels"]))
    assert code == 0
    out = capsys.readouterr().out
    bundle, _, _ = load_bundle(workspace["s2"])
    assert "clusters: 2\n" in out
    assert "pi: " + " ".join(f"{p:.4f}" for p in bundle.vae.prior.pi()) in out
    occupancy = [int(n) for n in re.findall(r"occupancy (\d+)", out)]
    assert len(occupancy) == 2
    assert sum(occupancy) == len(workspace["data"].read_text().splitlines())
    assert "ari:" in out and "purity:" in out


def test_inspect_clusters_reads_and_encodes_once(workspace, capsys, monkeypatch):
    from moerec import checkpoint, training
    calls = {"load": 0, "encode": 0}
    load, encode = checkpoint.load_checkpoint, VaeGmm.encode

    def counted_load(path):
        calls["load"] += 1
        return load(path)

    def counted_encode(self, users, items):
        calls["encode"] += 1
        return encode(self, users, items)

    monkeypatch.setattr(training, "load_checkpoint", counted_load)
    monkeypatch.setattr(VaeGmm, "encode", counted_encode)
    monkeypatch.setattr(checkpoint, "read_manifest", lambda path: pytest.fail("read twice"))
    assert run_cli("inspect-clusters", "--checkpoint", str(workspace["s2"]),
                   "--data", str(workspace["data"]), "--labels", str(workspace["labels"])) == 0
    assert calls == {"load": 1, "encode": 1} and not hasattr(cli, "read_manifest")


def test_inspect_distance_matrix_symmetric(workspace, capsys):
    run_cli("inspect-clusters", "--checkpoint", str(workspace["s1"]),
            "--data", str(workspace["data"]))
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("  ")]
    matrix = np.array([[float(v) for v in row.split()] for row in rows])
    assert np.allclose(matrix, matrix.T)
    assert np.allclose(np.diag(matrix), 0.0)


def test_inspect_single_cluster_occupancy(workspace, tmp_path, capsys):
    s1 = tmp_path / "k1.ckpt"
    code = run_cli("train", "--stage", "1", "--data", str(workspace["data"]),
                   "--config", str(workspace["cfg"]), "--out", str(s1),
                   "--clusters", "1")
    assert code == 0
    capsys.readouterr()
    assert run_cli("inspect-clusters", "--checkpoint", str(s1),
                   "--data", str(workspace["data"])) == 0
    out = capsys.readouterr().out
    assert "pi: 1.0000" in out
    assert "(100.0%)" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inspect_clusters_refuses_an_empty_data_file(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run_cli("inspect-clusters", "--checkpoint", str(workspace["s1"]),
                   "--data", str(empty)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(empty) in captured.err
    assert "occupancy" not in captured.out


def test_train_precision_holds_for_that_command_only(workspace, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "_default_dtype", T._default_dtype)   # restored at teardown
    assert T.default_dtype() == np.float64
    common = ("--data", str(workspace["data"]), "--config", str(workspace["cfg"]),
              "--precision", "float32")
    assert run_cli("train", "--stage", "1", "--out", str(tmp_path / "f32.ckpt"),
                   "--s1_epochs", "1", "--s1_warmup_epochs", "1", *common) == 0
    assert T.default_dtype() == np.float64
    # a load keeps its payload's dtype, the workspace run's float32, whatever the process's
    bundle, _, _ = load_bundle(workspace["s2"])
    assert bundle.vae.encoder.w1.data.dtype == np.float32
    # and when training fails
    assert run_cli("train", "--stage", "2", "--out", str(tmp_path / "x.ckpt"), *common) == 3
    assert T.default_dtype() == np.float64


def test_verify_moe_suite_passes(capsys):
    assert run_cli("verify", "--suite", "moe") == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out


def test_verify_failure_exits_four(monkeypatch, capsys):
    import moerec.verify as verify_mod
    monkeypatch.setattr(verify_mod, "run_suites", lambda names: [
        verify_mod.CheckResult("synthetic.fail", False, "rigged")])
    assert run_cli("verify", "--suite", "moe") == 4
    assert "FAIL" in capsys.readouterr().out


def test_verify_unknown_suite_is_a_usage_error(capsys):
    assert run_cli("verify", "--suite", "bogus") == 1
    err = capsys.readouterr().err
    assert "bogus" in err and all(name in err for name in ("grads", "kl", "moe", "vae"))


def test_only_verify_imports_the_oracles():
    code = "import sys, moerec.cli; print('moerec.verify' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_usage_error_exit_code(capsys):
    assert run_cli("train", "--stage", "7") == 1


def test_no_command_prints_help(capsys):
    assert run_cli() == 1
    assert capsys.readouterr().out == build_parser().format_help()


def test_main_builds_its_parser_once_per_process():
    # counts argparse parsers in a fresh process: none at import, one set on first use
    code = (
        "import argparse, json\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from moerec import cli\n"
        "counts = [len(built)]\n"
        "for argv in (['train', '--stage', '7'], [], ['verify', '--suite', 'bogus']):\n"
        "    cli.main(argv)\n"
        "    counts.append(len(built))\n"
        "cli.build_parser()\n"
        "print(json.dumps([counts, len(built) - counts[-1]]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    counts, one_build = json.loads(out.stdout.splitlines()[-1])
    assert one_build > 1 and counts == [0, one_build, one_build, one_build]


def test_calls_in_sequence_share_no_parsed_state(monkeypatch):
    seen = []
    for name in ("train", "generate"):
        monkeypatch.setitem(cli.COMMANDS, name, lambda args: seen.append(args) or 0)
    train = ["train", "--stage", "1", "--data", "d.jsonl", "--out", "o.ckpt"]
    gen = ["generate", "--checkpoint", "c.ckpt", "--user", "u0", "--item", "i0",
           "--rating", "4"]
    calls = (train + ["--s1_lr", "0.5"], gen, train)
    assert [main(argv) for argv in calls] == [0, 0, 0]
    assert [vars(args) for args in seen] == [vars(build_parser().parse_args(argv))
                                             for argv in calls]
    assert cli._overrides_from(seen[0]) == {"s1_lr": "0.5"}
    assert not hasattr(seen[1], "s1_lr") and cli._overrides_from(seen[2]) == {}


def test_a_usage_error_does_not_change_the_next_requests(workspace, capsys):
    gen = ("generate", "--checkpoint", str(workspace["s2"]), "--user", "u0001",
           "--item", "i0002", "--rating", "4")
    codes, outs = [], []
    for argv in (gen + ("--mode", "beam"), gen, gen):
        codes.append(run_cli(*argv))
        outs.append(capsys.readouterr().out)
    assert codes == [1, 0, 0]
    assert outs[1] == outs[2] and outs[1].startswith("gate: ")


@pytest.mark.parametrize("argv", [(), ("--help",), ("generate", "--help")])
def test_help_is_the_same_on_every_call(capsys, argv):
    printed = []
    for _ in range(3):
        printed.append((run_cli(*argv), capsys.readouterr().out))
    assert printed[0] == printed[1] == printed[2]
    assert printed[0][0] == (0 if argv else 1)
    assert printed[0][1].startswith("usage: moerec")
    if len(argv) < 2:
        assert printed[0][1] == build_parser().format_help()


def test_help_exits_zero_from_a_fresh_process():
    out = subprocess.run([sys.executable, "-m", "moerec.cli", "--help"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0 and out.stdout.startswith("usage: moerec") and not out.stderr
