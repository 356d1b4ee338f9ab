"""Checkpoint format: round-trips, version gating, payload validation."""

import contextlib
import json
import math
import struct

import numpy as np
import pytest

from moerec import tensor as T
from moerec.checkpoint import (
    FORMAT_VERSION,
    load_checkpoint,
    read_manifest,
    restore_params,
    save_checkpoint,
)
from moerec.errors import ConfigError, DataError
from moerec.rng import Rng
from moerec.tensor import Tensor


def sample_tensors(seed=0):
    rng = Rng(seed)
    return {
        "a.weight": Tensor(rng.normal(12).reshape(3, 4), requires_grad=True),
        "a.bias": Tensor(rng.normal(4), requires_grad=True),
        "b.scalarish": Tensor(rng.normal(1), requires_grad=True),
    }


def test_roundtrip_f64_bit_exact(tmp_path):
    tensors = sample_tensors()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors, config={"x": 1}, seed=7, stage="stage1", f64=True)
    manifest, arrays = load_checkpoint(path)
    assert manifest["seed"] == 7 and manifest["stage"] == "stage1"
    for name, t in tensors.items():
        assert arrays[name].tobytes() == t.data.tobytes(), name


def test_roundtrip_f32_is_stable_downcast(tmp_path):
    tensors = sample_tensors()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors, config={}, seed=0, stage="stage2")
    _, arrays = load_checkpoint(path)
    for name, t in tensors.items():
        assert np.array_equal(arrays[name],
                              t.data.astype(np.float32).astype(np.float64)), name
    # saving the loaded values again is byte-stable
    again = {k: Tensor(v) for k, v in arrays.items()}
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, again, config={}, seed=0, stage="stage2")
    _, arrays2 = load_checkpoint(path2)
    for name in arrays:
        assert arrays2[name].tobytes() == arrays[name].tobytes()


def test_f32_payload_size_is_four_bytes_per_value(tmp_path):
    tensors = sample_tensors()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors, config={}, seed=0, stage="stage1")
    manifest = read_manifest(path)
    total_values = sum(int(np.prod(s["shape"])) for s in manifest["tensors"].values())
    assert manifest["payload_bytes"] == 4 * total_values


def test_version_mismatch_fails_loudly(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), config={}, seed=0, stage="stage1")
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[:8])
    manifest = blob[8:8 + length].replace(FORMAT_VERSION.encode(), b"GVMC-9")
    path.write_bytes(blob[:8] + manifest + blob[8 + length:])
    with pytest.raises(ConfigError):
        read_manifest(path)


def test_truncated_payload_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), config={}, seed=0, stage="stage1")
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_restore_params_copies_values(tmp_path):
    tensors = sample_tensors(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors, config={}, seed=0, stage="stage1", f64=True)
    _, arrays = load_checkpoint(path)
    fresh = sample_tensors(seed=2)
    restore_params(fresh, arrays)
    for name in tensors:
        assert np.array_equal(fresh[name].data, tensors[name].data)


def reference_decode(path) -> dict:
    """The loader's oracle: the whole file read as bytes, and each tensor
    decoded on its own, in the dtype the file holds."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[:8])
    manifest = json.loads(blob[8:8 + length])
    payload = blob[8 + length:]
    return {name: np.frombuffer(payload, dtype={"f32": "<f4", "f64": "<f8"}[spec["dtype"]],
                                count=math.prod(spec["shape"]), offset=spec["offset"])
            .reshape(spec["shape"])
            for name, spec in manifest["tensors"].items()}


@contextlib.contextmanager
def working_dtype(name):
    T.set_default_dtype(name)
    try:
        yield
    finally:
        T.set_default_dtype("float64")


def varied_tensors():
    """Tensors of several ranks, one empty, with values float32 rounds,
    subnormals included."""
    rng = Rng(11)
    return {
        "a.stack": Tensor(rng.normal(60).reshape(3, 4, 5) * 1e3),
        "b.empty": Tensor(np.zeros((0, 4))),
        "c.row": Tensor(rng.normal(7) * 1e-30),
        "d.one": Tensor(np.array([math.pi])),
        "e.edge": Tensor(np.array([3e38, -3e38, 1e-45, -2.5e-40, -0.0])),
    }


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("f64", [False, True], ids=["f32-payload", "f64-payload"])
def test_loader_equals_the_reference_decode(tmp_path, f64, dtype):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, varied_tensors(), config={}, seed=0, stage="stage1", f64=f64)
    with working_dtype(dtype):
        expected = reference_decode(path)
        _, arrays = load_checkpoint(path)
    assert sorted(arrays) == sorted(expected)
    for name, want in expected.items():
        got = arrays[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def test_f64_payload_beyond_float32_loads_exactly_under_float32(tmp_path):
    # nothing is narrowed at load; stage 2 refuses such a stage-1 model when
    # it casts it (test_stage2_refuses_a_stage1_model_beyond_float32)
    path = tmp_path / "model.ckpt"
    tensors = dict(varied_tensors(), **{"f.huge": Tensor(np.array([1.0, 1e300]))})
    save_checkpoint(path, tensors, config={}, seed=0, stage="stage1", f64=True)
    with working_dtype("float32"):
        _, arrays = load_checkpoint(path)
    assert arrays["f.huge"].dtype == np.float64 and arrays["f.huge"].tolist() == [1.0, 1e300]


def test_loaded_arrays_are_disjoint_views_of_one_buffer(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, varied_tensors(), config={}, seed=0, stage="stage1")
    _, arrays = load_checkpoint(path)
    flat = arrays["a.stack"].base
    assert flat.ndim == 1 and flat.dtype == np.uint8
    assert all(array.base is flat and array.dtype == np.float32 for array in arrays.values())
    assert flat.size == sum(array.nbytes for array in arrays.values())
    spans = sorted((array.__array_interface__["data"][0], array.nbytes)
                   for array in arrays.values())
    assert all(start + size <= following
               for (start, size), (following, _) in zip(spans, spans[1:]))


def test_restore_params_adopts_the_loaded_arrays(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(seed=1), config={}, seed=0, stage="stage1")
    _, arrays = load_checkpoint(path)
    fresh = sample_tensors(seed=2)
    restore_params(fresh, arrays)
    for name, tensor in fresh.items():
        assert tensor.data is arrays[name], name


def test_restore_params_keeps_the_checkpoint_dtype(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(seed=1), config={}, seed=0, stage="stage1",
                    f64=True)
    _, arrays = load_checkpoint(path)
    with working_dtype("float32"):
        fresh = sample_tensors(seed=2)
    restore_params(fresh, arrays)
    for name, tensor in fresh.items():
        assert tensor.data is arrays[name] and tensor.data.dtype == np.float64, name


def test_restore_params_name_mismatch(tmp_path):
    tensors = sample_tensors()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors, config={}, seed=0, stage="stage1")
    _, arrays = load_checkpoint(path)
    del arrays["a.bias"]
    with pytest.raises(DataError):
        restore_params(sample_tensors(), arrays)


def test_manifest_records_offsets_in_name_order(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), config={}, seed=0, stage="stage1")
    manifest = read_manifest(path)
    names = sorted(manifest["tensors"])
    offsets = [manifest["tensors"][n]["offset"] for n in names]
    assert offsets == sorted(offsets)
    assert offsets[0] == 0


def rewrite_manifest(blob: bytes, edit) -> bytes:
    """The same payload under a manifest changed by `edit`."""
    (length,) = struct.unpack("<Q", blob[:8])
    manifest = json.loads(blob[8:8 + length])
    edit(manifest)
    encoded = json.dumps(manifest).encode("utf-8")
    return struct.pack("<Q", len(encoded)) + encoded + blob[8 + length:]


def _shift(name, by):
    def edit(manifest):
        manifest["tensors"][name]["offset"] += by
    return edit


def _length(blob):
    return struct.unpack("<Q", blob[:8])[0]


def _fill_manifest(blob, byte):
    """The manifest bytes all replaced by `byte`, lengths kept."""
    return blob[:8] + byte * _length(blob) + blob[8 + _length(blob):]


CORRUPTIONS = {
    "empty file": lambda blob: b"",
    "truncated header": lambda blob: blob[:5],
    "manifest overruns the file": lambda blob: struct.pack("<Q", len(blob)) + blob[8:],
    "truncated manifest": lambda blob: blob[:8 + _length(blob) // 2],
    "manifest not utf-8": lambda blob: _fill_manifest(blob, b"\xff"),
    "manifest not json": lambda blob: _fill_manifest(blob, b"{"),
    "manifest not an object": lambda blob: struct.pack("<Q", 2) + b"[]" + blob[8 + _length(blob):],
    "unknown dtype": lambda blob: rewrite_manifest(
        blob, lambda m: m["tensors"]["a.bias"].update(dtype="f16")),
    "missing offset": lambda blob: rewrite_manifest(
        blob, lambda m: m["tensors"]["a.bias"].pop("offset")),
    "negative dimension": lambda blob: rewrite_manifest(
        blob, lambda m: m["tensors"]["a.bias"].update(shape=[-4])),
    "gapped offsets": lambda blob: rewrite_manifest(blob, _shift("b.scalarish", 4)),
    "overlapping offsets": lambda blob: rewrite_manifest(blob, _shift("b.scalarish", -4)),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_raises_data_error(tmp_path, kind, capsys):
    from moerec.cli import main
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), config={}, seed=0, stage="stage2")
    path.write_bytes(CORRUPTIONS[kind](path.read_bytes()))
    with pytest.raises(DataError):
        load_checkpoint(path)
    code = main(["generate", "--checkpoint", str(path), "--user", "u0",
                 "--item", "i0", "--rating", "4"])
    assert code == DataError.exit_code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_other_format_version_is_a_config_error(tmp_path, capsys):
    from moerec.cli import main
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), config={}, seed=0, stage="stage1")
    path.write_bytes(rewrite_manifest(path.read_bytes(),
                                      lambda m: m.update(format="GVMC-2")))
    assert FORMAT_VERSION == "GVMC-3"
    with pytest.raises(ConfigError):
        load_checkpoint(path)
    assert main(["generate", "--checkpoint", str(path), "--user", "u0",
                 "--item", "i0", "--rating", "4"]) == ConfigError.exit_code == 1
    assert capsys.readouterr().err == "error: checkpoint format 'GVMC-2' is not GVMC-3\n"


def untrained_bundle_checkpoint(path, precision="float32"):
    """A tiny, well-formed stage-2 checkpoint of an untrained model, its
    payload in `precision`."""
    from moerec.config import RunConfig
    from moerec.moe import LanguageModel, Vocab
    from moerec.training import ExplainerBundle, lm_config_from, save_bundle
    from moerec.vae import VaeConfig, VaeGmm
    run = RunConfig(d_emb=4, latent_dim=2, clusters=1, enc_hidden=4, model_dim=8,
                    blocks=1, heads=1, base_experts=2, base_hidden=8,
                    active_experts=1, precision=precision).validate()
    vocab = Vocab.build([], ["u0"], ["i0"])
    vae = VaeGmm(VaeConfig(n_users=1, n_items=1, d_emb=run.d_emb,
                           latent_dim=run.latent_dim, hidden=run.enc_hidden,
                           clusters=run.clusters), Rng(0))
    lm = LanguageModel(lm_config_from(run, len(vocab)), Rng(1))
    bundle = ExplainerBundle(vae=vae, lm=lm, vocab=vocab, user_index={"u0": 0},
                             item_index={"i0": 0})
    save_bundle(path, bundle, run, {})


def _drop(*keys):
    def edit(manifest):
        node = manifest
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
    return edit


def _set(field, value):
    return lambda m: m["extra"].update({field: value})


def _edit_vocab(change):
    return lambda m: change(m["extra"]["vocab"])


# (manifest edit, error, text in the message)
BAD_BUNDLE_CONTENT = {
    "unknown config key": (lambda m: m["config"].update(depth=3), ConfigError, "depth"),
    "ill-typed config value": (lambda m: m["config"].update(d_emb="four"), ConfigError,
                               "d_emb"),
    "config not an object": (lambda m: m.update(config=[]), ConfigError, "config"),
    "encoder attention on": (lambda m: m["config"].update(encoder_attention=True),
                             ConfigError, "encoder_attention"),
    "no stage": (_drop("stage"), DataError, "'stage'"),
    "no config": (_drop("config"), DataError, "'config'"),
    "no extra": (_drop("extra"), DataError, "'extra'"),
    "no users": (_drop("extra", "users"), DataError, "'users'"),
    "no items": (_drop("extra", "items"), DataError, "'items'"),
    "no vocab": (_drop("extra", "vocab"), DataError, "'vocab'"),
    "users not a list": (_set("users", 3), DataError, "extra.users"),
    "items not strings": (_set("items", [0]), DataError, "extra.items"),
    "duplicate user": (_set("users", ["u0", "u0"]), DataError, "extra.users"),
    "unsorted items": (_set("items", ["i1", "i0"]), DataError, "extra.items"),
    "vocab not a list": (_set("vocab", "<pad>"), DataError, "extra.vocab"),
    "vocab not strings": (_edit_vocab(lambda v: v.append(7)), DataError, "extra.vocab"),
    "vocab without reserved prefix": (_edit_vocab(lambda v: v.pop(0)), DataError,
                                      "extra.vocab"),
    "duplicate vocab token": (_edit_vocab(lambda v: v.__setitem__(-1, v[0])), DataError,
                              "extra.vocab"),
    "vocab longer than the embedding": (_edit_vocab(lambda v: v.append("extra")),
                                        DataError, "lm.embed"),
    # the untrained model's vocabulary holds 16 tokens and its context 64
    "draft not a list": (_set("draft", {"9 9": 9}), DataError, "extra.draft"),
    "draft of a wrong length": (_set("draft", [9, 9, 9, 9]), DataError, "extra.draft"),
    "draft holds a float": (_set("draft", [9, 9, 9.0]), DataError, "extra.draft"),
    "draft holds a bool": (_set("draft", [9, 9, True]), DataError, "extra.draft"),
    "draft pair outside the vocabulary": (_set("draft", [9, 16, 9]), DataError,
                                          "extra.draft"),
    "draft pair below the vocabulary": (_set("draft", [-1, 9, 9]), DataError, "extra.draft"),
    "draft guess outside the vocabulary": (_set("draft", [9, 9, 16]), DataError,
                                           "extra.draft"),
    "draft slot past the feature count": (_set("draft", [9, 9, ~54]), DataError,
                                          "extra.draft"),
    "draft pair twice": (_set("draft", [9, 9, 9, 9, 9, 10]), DataError, "extra.draft"),
}


@pytest.mark.parametrize("kind", sorted(BAD_BUNDLE_CONTENT))
def test_bad_bundle_content_fails_with_its_exit_code(tmp_path, kind, capsys):
    from moerec.cli import main
    path = tmp_path / "model.ckpt"
    untrained_bundle_checkpoint(path)
    args = ["generate", "--checkpoint", str(path), "--user", "u0", "--item", "i0",
            "--rating", "4", "--max-len", "3"]
    assert main(args) == 0
    capsys.readouterr()
    edit, error, fragment = BAD_BUNDLE_CONTENT[kind]
    path.write_bytes(rewrite_manifest(path.read_bytes(), edit))
    assert main(args) == error.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_a_well_formed_draft_loads_and_changes_no_text(tmp_path, capsys):
    # the largest slot a 64-position context allows is 53, and a manifest
    # without the table loads none
    from moerec.cli import main
    from moerec.training import load_bundle
    path = tmp_path / "model.ckpt"
    untrained_bundle_checkpoint(path)
    assert load_bundle(path)[0].draft is None
    args = ["generate", "--checkpoint", str(path), "--user", "u0", "--item", "i0",
            "--rating", "4", "--features", "a,b", "--max-len", "6"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    table = [0, 8, 9, 8, 9, ~0, 9, 3, ~53, 15, 15, 2]
    path.write_bytes(rewrite_manifest(path.read_bytes(), _set("draft", table)))
    assert load_bundle(path)[0].draft.to_list() == table
    assert main(args) == 0
    assert capsys.readouterr().out == plain


def test_inspect_clusters_refuses_a_manifest_without_a_stage(tmp_path, capsys):
    from moerec.cli import main
    from moerec.data import InteractionRecord, save_records
    path, data = tmp_path / "model.ckpt", tmp_path / "data.jsonl"
    untrained_bundle_checkpoint(path)
    save_records([InteractionRecord("u0", "i0", 4.0, [], "fine")], data)
    path.write_bytes(rewrite_manifest(path.read_bytes(), _drop("stage")))
    assert main(["inspect-clusters", "--checkpoint", str(path), "--data", str(data)]) == 2
    assert "'stage'" in capsys.readouterr().err


def _write_value(path, name, index, value):
    """Overwrite value `index` of tensor `name` in a checkpoint's payload."""
    blob = bytearray(path.read_bytes())
    spec = read_manifest(path)["tensors"][name]
    fmt = {"f32": "<f", "f64": "<d"}[spec["dtype"]]
    at = 8 + _length(blob) + spec["offset"] + index * struct.calcsize(fmt)
    blob[at:at + struct.calcsize(fmt)] = struct.pack(fmt, value)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("command", ["generate", "inspect-clusters"])
@pytest.mark.parametrize("name", ["vae.gmm.pi_logits", "lm.head", "lm.block0.moe.w1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("precision", ["float32", "float64"],
                         ids=["f32-payload", "f64-payload"])
def test_a_non_finite_payload_fails_at_load(tmp_path, capsys, command, name, value, precision):
    from moerec.cli import main
    from moerec.data import InteractionRecord, save_records
    path, data = tmp_path / "model.ckpt", tmp_path / "data.jsonl"
    untrained_bundle_checkpoint(path, precision)
    save_records([InteractionRecord("u0", "i0", 4.0, [], "fine")], data)
    _write_value(path, name, 0, value)
    args = {"generate": ["generate", "--checkpoint", str(path), "--user", "u0",
                         "--item", "i0", "--rating", "4", "--max-len", "3"],
            "inspect-clusters": ["inspect-clusters", "--checkpoint", str(path),
                                 "--data", str(data)]}[command]
    assert main(args) == DataError.exit_code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: checkpoint tensor {name} holds a NaN or an infinity\n"


def _cuts(blob):
    """Lengths to cut a checkpoint to: around the header, the manifest's end
    and every tensor boundary, one byte either side included."""
    start = 8 + _length(blob)
    specs = json.loads(blob[8:start])["tensors"].values()
    marks = {0, 8, start, len(blob)} | {start + spec["offset"] for spec in specs}
    return sorted({mark + step for mark in marks for step in (-1, 0, 1)}
                  & set(range(len(blob))))


def test_a_damaged_checkpoint_exits_1_or_2_without_a_traceback(tmp_path, capsys):
    from moerec.cli import main
    path = tmp_path / "model.ckpt"
    untrained_bundle_checkpoint(path)
    blob = path.read_bytes()
    middle = sorted(json.loads(blob[8:8 + _length(blob)])["tensors"])[5]
    damaged = [blob[:cut] for cut in _cuts(blob)] + [
        blob + b"\0",
        rewrite_manifest(blob, lambda m: m.update(payload_bytes=m["payload_bytes"] ^ 1)),
        rewrite_manifest(blob, lambda m: m["tensors"][middle].update(
            offset=m["tensors"][middle]["offset"] ^ 4)),
    ]
    args = ["generate", "--checkpoint", str(path), "--user", "u0", "--item", "i0",
            "--rating", "4", "--max-len", "3"]
    for bad in damaged:
        path.write_bytes(bad)
        assert main(args) in (1, 2), len(bad)
        assert capsys.readouterr().err.startswith("error: ")


def test_two_loads_of_one_file_are_independent(tmp_path):
    from moerec.training import load_bundle
    path = tmp_path / "model.ckpt"
    untrained_bundle_checkpoint(path)
    first, _, _ = load_bundle(path)
    second, _, _ = load_bundle(path)
    before = {name: t.data.copy() for name, t in second.params().items()}
    for tensor in first.params().values():
        tensor.data += 1.0
    for name, tensor in second.params().items():
        assert np.array_equal(tensor.data, before[name]), name
