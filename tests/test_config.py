"""Config file parsing, overrides, and invariant enforcement."""

import json
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from moerec.config import RunConfig, load_config, read_fields, save_config
from moerec.data import SynthSpec
from moerec.errors import ConfigError


def test_defaults_validate():
    run = load_config()
    assert run.clusters == 3
    assert run.active_experts == 2
    assert run.beta == 0.1 and run.alpha == 0.1
    assert run.s1_clip == 0.3 and run.s2_clip == 0.3


def test_file_parsing_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "clusters = 2\n"
        "s1_lr = 0.001\n"
        "s2_epochs = 4\n"
        "precision = \"float64\"\n",
        encoding="utf-8")
    run = load_config(path)
    assert run.clusters == 2
    assert run.s1_lr == 0.001
    assert run.s2_epochs == 4 and run.precision == "float64"


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("clusters = 2\n", encoding="utf-8")
    run = load_config(path, {"clusters": "4"})
    assert run.clusters == 4


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(None, {"nonsense": "1"})


def test_gate_cluster_invariant():
    # one gate per cluster: the gate count is no field of its own
    from moerec.training import lm_config_from
    assert lm_config_from(load_config(None, {"clusters": "4"}), 20).moe.gates == 4
    for gates in ("2", "3", "-1"):
        with pytest.raises(ConfigError) as err:
            load_config(None, {"clusters": "3", "gates": gates})
        assert "gates" in str(err.value)


def test_factor_divisibility_checked():
    with pytest.raises(ConfigError):
        load_config(None, {"base_hidden": "10", "factor": "3"})


def test_mixing_weights_bounded():
    with pytest.raises(ConfigError):
        load_config(None, {"alpha": "1.5"})


def test_save_load_roundtrip(tmp_path):
    run = load_config(None, {"clusters": "2", "s2_lr": "0.0005"})
    path = tmp_path / "saved.cfg"
    save_config(run, path)
    again = load_config(path)
    assert again == run


def test_bad_boolean_rejected(tmp_path):
    # a retired bool field still reads its value as a bool before comparing
    with pytest.raises(ConfigError):
        load_config(None, {"freeze_gmm": "maybe"})


def test_bad_numeric_rejected():
    with pytest.raises(ConfigError):
        load_config(None, {"s1_lr": "fast"})
    with pytest.raises(ConfigError):
        load_config(None, {"blocks": "two"})


def test_every_field_is_range_checked():
    for field, value in [("blocks", "0"), ("context", "0"), ("base_experts", "0"),
                         ("active_experts", "0"), ("active_experts", "13"),
                         ("s1_batch", "0"), ("s2_batch", "0"), ("s1_epochs", "-1"),
                         ("s2_epochs", "-1"), ("s2_lr", "0"), ("s1_lr", "NaN"),
                         ("s1_joint_lr", "0"), ("weight_decay", "-0.1"),
                         ("beta", "2"), ("s1_warmup_beta", "-0.5"), ("model_dim", "63")]:
        with pytest.raises(ConfigError) as err:
            load_config(None, {field: value})
        assert field in str(err.value), field


def test_direct_construction_checks_types():
    from moerec.config import RunConfig
    with pytest.raises(ConfigError):
        RunConfig(d_emb=8.5).validate()
    with pytest.raises(ConfigError):
        RunConfig(precision=32).validate()
    with pytest.raises(ConfigError):
        RunConfig(clusters=True).validate()
    assert RunConfig(s1_lr=1).validate().s1_lr == 1


def test_encoder_attention_must_stay_off(tmp_path):
    # the retired encoder variant is no field at all: any value, in a file or
    # an override, is an unknown field
    path = tmp_path / "run.cfg"
    path.write_text("encoder_attention = false\n", encoding="utf-8")
    for source in ((path, None), (None, {"encoder_attention": "false"}),
                   (None, {"encoder_attention": "true"})):
        with pytest.raises(ConfigError) as err:
            load_config(*source)
        assert "encoder_attention" in str(err.value)


def test_retired_fields_load_only_at_their_old_defaults(tmp_path, capsys):
    # config files, spec files and checkpoint manifests written before these
    # fields went still name them; at the old default they are dropped, at
    # any other value refused with the field named
    retired = {"renormalize_topk": False, "s1_grad_accum": 1, "s2_grad_accum": 1,
               "early_stop": False, "patience": 3, "freeze_gmm": False, "r_max": 5.0}
    assert RunConfig.RETIRED_FIELDS == retired
    path = tmp_path / "run.cfg"
    path.write_text("clusters = 2\nearly_stop = false\npatience = 3\nfreeze_gmm = false\n",
                    encoding="utf-8")
    assert load_config(path) == load_config(None, {"clusters": "2"})
    for top in ("5", "5.0"):                # the five-star scale, as an int or a float
        path.write_text(f"clusters = 2\nr_max = {top}\n", encoding="utf-8")
        assert load_config(path) == load_config(None, {"clusters": "2"})
        assert load_config(None, {"r_max": top}) == RunConfig()
    assert load_config(None, retired) == RunConfig().validate()
    assert load_config(None, {key: json.dumps(v) for key, v in retired.items()}) == RunConfig()
    path.write_text("clusters = 2\npatience = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="config line 2: config field 'patience' is retired"):
        load_config(path)
    path.write_text("clusters = 2\nfreeze_gmm = true\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="config line 2: config field 'freeze_gmm' is retired"):
        load_config(path)
    path.write_text("clusters = 2\nr_max = 10\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="config line 2: config field 'r_max' is retired"):
        load_config(path)
    for name, value in (("early_stop", True), ("s1_grad_accum", "2"),
                        ("renormalize_topk", "maybe"), ("patience", 3.5),
                        ("freeze_gmm", "true"), ("freeze_gmm", 0), ("r_max", 10),
                        ("r_max", "Infinity"), ("r_max", 4.9)):
        with pytest.raises(ConfigError, match=name):
            load_config(None, {name: value})
    for name in retired:
        assert name not in RunConfig().to_dict()
        with pytest.raises(ConfigError, match=name):
            read_fields(SynthSpec, overrides={name: retired[name]}, kind="spec")

    spec_retired = {"noise_rate": 0.1, "rating_noise": 0.3, "favorites_per_user": 3}
    assert SynthSpec.RETIRED_FIELDS == spec_retired
    spec = tmp_path / "synth.cfg"
    spec.write_text("n_users = 12\nnoise_rate = 0.1\nrating_noise = 0.3\n"
                    "favorites_per_user = 3\n", encoding="utf-8")
    assert read_fields(SynthSpec, spec, kind="spec") == {"n_users": 12}
    assert read_fields(SynthSpec, overrides=spec_retired, kind="spec") == {}
    assert read_fields(SynthSpec, overrides={k: json.dumps(v) for k, v in spec_retired.items()},
                       kind="spec") == {}
    assert read_fields(SynthSpec, overrides={"favorites_per_user": 3.0}, kind="spec") == {}
    for name, value in (("noise_rate", "0.5"), ("noise_rate", 0.0), ("rating_noise", "NaN"),
                        ("favorites_per_user", 2), ("favorites_per_user", 3.5),
                        ("noise_rate", "high")):
        with pytest.raises(ConfigError, match=name):
            read_fields(SynthSpec, overrides={name: value}, kind="spec")
    for name in spec_retired:
        assert not hasattr(SynthSpec(), name)
        with pytest.raises(ConfigError, match=name):
            load_config(None, {name: json.dumps(spec_retired[name])})

    # `moerec synth --spec`: the retired fields at their old values write the
    # corpus the spec without them writes; another value writes nothing
    from moerec.cli import main
    plain = tmp_path / "plain.cfg"
    plain.write_text("n_users = 12\n", encoding="utf-8")
    outs = [tmp_path / "old.jsonl", tmp_path / "plain.jsonl"]
    for source, out in zip((spec, plain), outs):
        assert main(["synth", "--spec", str(source), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    spec.write_text("n_users = 12\nnoise_rate = 0.5\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl")]) == 1
    assert ("spec line 2: spec field 'noise_rate' is retired and takes only its old "
            "default 0.1, got 0.5") in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


_TYPES = {"int": int, "float": float, "bool": bool, "str": str}
_FIELDS = [(cls, f.name, _TYPES[f.type]) for cls in (RunConfig, SynthSpec)
           for f in fields(cls)]
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=12))


def _read_as(parsed, ftype):
    """What a field of `ftype` holds after reading `parsed`: a string is
    read as the number it holds, or as true/false for a bool field."""
    if isinstance(parsed, str) and ftype in (int, float):
        try:
            return json.loads(parsed)
        except ValueError:
            return parsed
    if isinstance(parsed, str) and ftype is bool:
        return {"true": True, "false": False}.get(parsed.lower(), parsed)
    return parsed


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(_FIELDS),
       text=st.one_of(_SCALARS.map(json.dumps), st.text(max_size=12)))
@example(field=(RunConfig, "s1_epochs", int), text="2.7")
@example(field=(RunConfig, "s1_epochs", int), text="Infinity")
@example(field=(RunConfig, "s1_epochs", int), text="1e400")
@example(field=(RunConfig, "clusters", int), text="3.9")
@example(field=(SynthSpec, "seed", int), text="Infinity")
@example(field=(SynthSpec, "n_users", int), text="12.9")
@example(field=(SynthSpec, "seed", int), text="1" * 5000)
@example(field=(RunConfig, "s1_lr", float), text=str(2 ** 53 + 1))
@example(field=(RunConfig, "s2_lr", float), text="1" + "0" * 400)
def test_every_field_reads_a_json_scalar_unchanged_or_raises_config_error(field, text):
    cls, name, ftype = field
    try:
        parsed = json.loads(text)
    except ValueError:
        parsed = text
    try:
        value = read_fields(cls, overrides={name: text})[name]
    except ConfigError:
        value = None
    else:
        assert type(value) is ftype
        assert _same(value, _read_as(parsed, ftype)), (value, parsed)
    if cls is RunConfig:
        try:
            run = load_config(overrides={name: text})
        except ConfigError:
            return
        assert value is not None
        assert _same(getattr(run, name), value)
