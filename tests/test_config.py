import json

import numpy as np
import pytest

from taylorlab import cli
from taylorlab.background import canonical_background
from taylorlab.config import (
    DEFAULT_TOLERANCES,
    RunConfig,
    load_config,
    resolve_background,
    validate,
)
from taylorlab.errors import ConfigError


def minimal(**extra):
    raw = {"kind": "spectral-check"}
    raw.update(extra)
    return raw


def test_defaults_fill_in():
    cfg = validate(minimal())
    assert cfg.truncation == 64
    assert cfg.band == 8
    assert cfg.modes == ((1, 0),)
    assert cfg.background == "canonical"
    assert cfg.jobs == 1


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ([1, 2, 3], "JSON object"),
        ({"kind": "spectral-check", "bogus": 1}, "unknown config keys"),
        ({}, "missing the required key"),
        ({"kind": "frobnicate"}, "unknown experiment kind"),
        (minimal(truncation=30, band=8), "too small for band"),
        (minimal(truncation="64"), "wrong type"),
        (minimal(modes=[]), "non-empty list"),
        (minimal(modes=[[1]]), "malformed mode entry"),
        (minimal(modes=[[1, 0.5]]), "malformed mode entry"),
        (minimal(modes=[[0, 0]]), "reserved for the averaged profile"),
        (minimal(eps_modes=[2, -8]), "positive integers"),
        (minimal(eps_modes="2,8"), "positive integers"),
        (minimal(background=42), "or a list of entries"),
        (minimal(background=[[3, 1, 1.0]]), "malformed background entry"),
        (minimal(background=[[1, 1]]), "malformed background entry"),
        (minimal(t_final=-1.0), "must be positive"),
        (minimal(output_step=0.0), "must be positive"),
        (minimal(t_final=0.1, output_step=0.2), "exceeds"),
        (minimal(tolerances=[1e-8]), "must be an object"),
        (minimal(tolerances={"no_such": 1e-8}), "unknown tolerance"),
        (minimal(tolerances={"resonance": -1.0}), "positive number"),
        (minimal(jobs=0), "at least 1"),
        # true/false are booleans, never the numbers 1/0
        (minimal(modes=[[True, 0]]), "malformed mode entry"),
        (minimal(eps_modes=[2, True]), "positive integers"),
        (minimal(background=[[True, 1, 1.0]]), "malformed background entry"),
        (minimal(background=[[1, 1, True]]), "malformed background entry"),
        (minimal(t_final=True), "wrong type"),
        (minimal(tolerances={"resonance": True}), "positive number"),
    ],
)
def test_rejects_bad_documents(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        validate(raw)


def test_truncation_band_boundary():
    # exactly at the limit is allowed
    cfg = validate(minimal(truncation=40, band=8))
    assert cfg.truncation == 40
    with pytest.raises(ConfigError):
        validate(minimal(truncation=39, band=8))


def test_tolerance_lookup():
    cfg = validate(minimal(tolerances={"resonance": 1e-4}))
    assert cfg.tolerance("resonance") == 1e-4
    assert cfg.tolerance("commutator") == DEFAULT_TOLERANCES["commutator"]
    with pytest.raises(KeyError):
        cfg.tolerance("nonexistent")


def test_config_hash_stable_and_sensitive():
    a = validate(minimal(seed=1))
    b = validate(minimal(seed=1))
    c = validate(minimal(seed=2))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # canonical form is valid JSON with sorted keys
    doc = json.loads(a.canonical_json())
    assert list(doc) == sorted(doc)


def test_config_hash_ignores_placement_and_threads():
    base = validate(minimal(seed=1))
    moved = validate(minimal(seed=1, out_dir="elsewhere", jobs=4))
    assert base.config_hash() == moved.config_hash()


def test_default_modes_depend_on_kind():
    sweep = validate({"kind": "abscissa-sweep"})
    assert sweep.modes == ((1, 0), (2, 0), (4, 0), (8, 0), (16, 0), (32, 0))
    evolve = validate({"kind": "evolve"})
    assert (2, 1) in evolve.modes


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal(seed=3, out_dir="results")))
    cfg = load_config(str(path))
    assert isinstance(cfg, RunConfig)
    assert cfg.seed == 3
    assert cfg.out_dir == "results"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_resolve_background():
    canonical = resolve_background(validate(minimal()))
    reference = canonical_background()
    assert np.allclose(canonical.gram, reference.gram)
    custom = resolve_background(
        validate(minimal(background=[[1, 1, 1.0], [2, -2, 1.0]]))
    )
    assert abs(custom.b2.coefficient(2)) > 0.0
    assert reference.b2.coefficient(2) == 0.0


def run_cli_on(tmp_path, raw) -> int:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return cli.main(["run", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_include_geostrophic_must_be_a_json_boolean(tmp_path, capsys, value):
    # bool("false") is True: a string would run with the balancing velocity on
    raw = {"kind": "abscissa-sweep", "include_geostrophic": value}
    with pytest.raises(ConfigError, match="include_geostrophic"):
        validate(raw)
    assert run_cli_on(tmp_path, raw) == 2
    assert "config error" in capsys.readouterr().err
    assert validate(dict(raw, include_geostrophic=False)).include_geostrophic is False


@pytest.mark.parametrize("key", ["seed", "truncation", "band", "jobs"])
@pytest.mark.parametrize("value", [True, False])
def test_integer_keys_reject_booleans(tmp_path, capsys, key, value):
    # true and false are not 1 and 0
    raw = minimal(**{key: value})
    with pytest.raises(ConfigError, match="wrong type"):
        validate(raw)
    assert run_cli_on(tmp_path, raw) == 2
    assert "config error" in capsys.readouterr().err
