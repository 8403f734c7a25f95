import json
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taylorlab
from taylorlab import cli
from taylorlab.background import DEFAULT_BACKGROUND_TRUNCATION, canonical_background
from taylorlab.checks import execute
from taylorlab.config import (
    DEFAULT_TOLERANCES,
    KINDS,
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
        # background modes lie in the nonzero part of the background window
        (minimal(background=[[1, 12, 1.0]]), "background window"),
        (minimal(background=[[1, 0, 1.0]]), "background window"),
        (minimal(background=[[2, -9, 1.0]]), "background window"),
        # a run stops only at t_final, and every mode is evolved once
        (minimal(t_final=0.5, output_step=0.2), "whole number of output steps"),
        (minimal(t_final=0.5, output_step=0.1 + 1e-12), "whole number of output steps"),
        (minimal(modes=[[1, 0], [0, 1], [1, 0]]), "duplicate mode entry"),
        # the field is real: -k repeats k, whatever the kind
        ({"kind": "evolve", "modes": [[1, 0], [-1, 0]]}, "k and -k are one mode"),
        ({"kind": "abscissa-sweep", "modes": [[2, -1], [1, 1], [-2, 1]]}, "k and -k"),
        ({"kind": "constraint-check", "modes": [[0, -3], [0, 3]]}, "k and -k"),
        # JSON parsers accept NaN and Infinity; the schema does not
        (minimal(t_final=float("nan")), "positive and finite"),
        (minimal(output_step=float("inf")), "positive and finite"),
        (minimal(tolerances={"resonance": float("inf")}), "positive number"),
        (minimal(background=[[1, 1, float("nan")]]), "malformed background entry"),
        # the single-mode kinds would ignore every mode after the first
        (minimal(modes=[[1, 0], [2, 0]]), "checks one mode"),
        ({"kind": "normalform-check", "modes": [[8, 0], [1, 0]]}, "checks one mode"),
        # numpy's generators take no negative seed
        (minimal(seed=-1), "nonnegative"),
        # a run checks at least one band, and the scaling study's sweep starts at 2
        (minimal(band=-3), "'band' must be at least 1"),
        (minimal(band=0), "'band' must be at least 1"),
        ({"kind": "scaling-study", "band": 1}, "sweeps the bands 2, 4"),
        # a background whose direction never turns has no per-mode reduction
        (minimal(background=[[1, 1, 1]]), "does not turn"),
        (minimal(background=[[1, 1, 1], [1, -1, 2]]), "does not turn"),
        # the eps modes are a set of points, and the scaling study fits a
        # slope through them: at least two distinct ones
        (minimal(eps_modes=[]), "non-empty list"),
        (minimal(eps_modes=[8, 2, 8]), "duplicate entry in 'eps_modes'"),
        ({"kind": "scaling-study", "truncation": 40, "band": 2, "eps_modes": []},
         "non-empty list"),
        ({"kind": "scaling-study", "eps_modes": [8]}, "needs at least two"),
        ({"kind": "scaling-study", "eps_modes": [8, 8]}, "duplicate entry in 'eps_modes'"),
        # the band rule holds for the kinds that read the band; every kind
        # takes a window of at least one mode
        ({"kind": "normalform-check", "truncation": 16}, "too small for band 8"),
        ({"kind": "scaling-study", "truncation": 16}, "too small for band 8"),
        ({"kind": "evolve", "truncation": 0}, "'truncation' must be at least 1"),
        (minimal(truncation=-4, band=1), "'truncation' must be at least 1"),
    ],
)
def test_rejects_bad_documents(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        validate(raw)


@pytest.mark.parametrize("t_final, output_step", [(0.3, 0.1), (1.1, 0.1), (1.0, 1 / 2048)])
def test_t_final_a_whole_number_of_steps_up_to_rounding(t_final, output_step):
    # 0.3 / 0.1 is 2.9999999999999996 in floating point
    cfg = validate(minimal(t_final=t_final, output_step=output_step))
    assert cfg.t_final == t_final


def test_one_eps_mode_is_enough_for_a_kind_that_does_not_fit_a_slope():
    assert validate(minimal(eps_modes=[8])).eps_modes == (8,)
    assert validate({"kind": "scaling-study", "eps_modes": [32, 2]}).eps_modes == (32, 2)


def test_truncation_band_boundary():
    # exactly at the limit is allowed
    cfg = validate(minimal(truncation=40, band=8))
    assert cfg.truncation == 40
    with pytest.raises(ConfigError):
        validate(minimal(truncation=39, band=8))


@pytest.mark.parametrize("kind", ["evolve", "constraint-check", "abscissa-sweep"])
def test_kinds_that_do_not_read_the_band_run_below_the_band_rule(tmp_path, kind):
    # truncation 16 is below 4*8 + 8 for the default band 8, a rule only for
    # the kinds that collocate the band's profiles
    cfg = validate({"kind": kind, "truncation": 16, "out_dir": str(tmp_path)})
    assert cfg.band == 8
    assert execute(cfg).passed
    assert validate({"kind": kind, "truncation": 1}).truncation == 1


def test_tolerance_lookup():
    cfg = validate(minimal(tolerances={"resonance": 1e-4}))
    assert cfg.tolerance("resonance") == 1e-4
    assert cfg.tolerance("commutator") == DEFAULT_TOLERANCES["commutator"]
    with pytest.raises(KeyError):
        cfg.tolerance("nonexistent")


def test_every_tolerance_name_is_read():
    # an override of a name no check reads would be accepted and then ignored
    read = set()
    for path in pathlib.Path(taylorlab.__file__).parent.glob("*.py"):
        read |= set(re.findall(r'tolerance\("(\w+)"\)', path.read_text(encoding="utf-8")))
    assert read == set(DEFAULT_TOLERANCES)


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


@pytest.mark.parametrize("entry", [[1, 12, 1.0], [1, 0, 1.0], [2, -9, 1.0]])
def test_background_mode_outside_the_window_exits_2(tmp_path, capsys, entry):
    raw = minimal(background=[entry])
    assert run_cli_on(tmp_path, raw) == 2
    assert "background window" in capsys.readouterr().err


def test_background_that_does_not_turn_exits_2(tmp_path, capsys):
    assert run_cli_on(tmp_path, {"kind": "evolve", "background": [[1, 1, 1]]}) == 2
    assert "does not turn" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_background_window_edges_are_accepted():
    # evolve collocates no band profiles, so only the background rule reads
    # these entries; a spectral-check at the default window is rejected for
    # its band instead (profile k=-8 has a tail of 1.2e-4 beyond it)
    n = DEFAULT_BACKGROUND_TRUNCATION
    cfg = validate({"kind": "evolve", "background": [[1, n, 1.0], [2, -n, 1.0]]})
    assert cfg.background == [[1, n, 1.0], [2, -n, 1.0]]


def test_single_mode_kind_with_two_modes_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kind": "normalform-check", "modes": [[8, 0], [2, 0]]}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "checks one mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


MIXED = [[1, 1, 1.0], [1, -2, 0.5], [2, -1, 1.0], [2, 3, 0.4]]


@pytest.mark.parametrize(
    "raw, smallest",
    [
        (minimal(truncation=16, band=2), 19),
        ({"kind": "normalform-check", "truncation": 16, "band": 2}, 19),
        # the scaling study's stored band grows with the window: 6 at 24 and 33
        ({"kind": "scaling-study", "truncation": 24, "band": 2}, 33),
        (minimal(background=[[1, 8, 1], [2, -8, 1]], truncation=48, band=4), 92),
        ({"kind": "scaling-study", "background": MIXED}, 89),
    ],
    ids=["spectral", "normalform", "scaling", "wide", "scaling_mixed"],
)
def test_unresolved_window_names_the_smallest_truncation_that_resolves(raw, smallest):
    with pytest.raises(ConfigError) as info:
        validate(raw)
    assert str(info.value).endswith(f"the smallest truncation that resolves it is {smallest}")
    # the named window validates, and the one below it is rejected
    validate({**raw, "truncation": smallest})
    with pytest.raises(ConfigError, match="does not resolve"):
        validate({**raw, "truncation": smallest - 1})


def test_unresolvable_band_says_no_truncation_resolves_it():
    # no collocation tail is below 1e-30 at any window
    raw = minimal(truncation=16, band=2, tolerances={"tail_gate": 1e-30})
    with pytest.raises(ConfigError, match="no truncation up to 64 resolves it$"):
        validate(raw)


# backgrounds of two or three entries inside the window, in both components
window = range(-DEFAULT_BACKGROUND_TRUNCATION, DEFAULT_BACKGROUND_TRUNCATION + 1)
backgrounds = st.lists(
    st.tuples(
        st.sampled_from([1, 2]), st.sampled_from([n for n in window if n]), st.floats(0.1, 1.5)
    ).map(list),
    min_size=2,
    max_size=3,
).filter(lambda entries: len({entry[0] for entry in entries}) == 2)
# one or two of the modes k > 0 with |k_i| <= 2, so never k with -k
modes = st.lists(
    st.sampled_from([[m1, m2] for m1 in range(3) for m2 in range(-2, 3) if (m1, m2) > (0, 0)]),
    min_size=1,
    max_size=2,
    unique_by=tuple,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.one_of(st.just("evolve"), st.sampled_from(KINDS)),
    background=backgrounds,
    truncation=st.integers(8, 24),
    band=st.integers(1, 2),
    modes=modes,
    include_geostrophic=st.booleans(),
)
def test_a_validated_config_runs_to_a_verdict(
    kind, background, truncation, band, modes, include_geostrophic
):
    # validation either refuses a config or lets it run to a report, passed
    # or failed: a run that validation accepted never stops partway.  Evolve,
    # whose expm oracle validation cannot foresee, is drawn about half the
    # time; the scaling study's stored band is never resolved at these
    # windows, so validation refuses it
    with tempfile.TemporaryDirectory() as out_dir:
        raw = {
            "kind": kind, "background": background, "truncation": truncation, "band": band,
            "modes": modes, "include_geostrophic": include_geostrophic, "out_dir": out_dir,
        }
        try:
            cfg = validate(raw)
        except ConfigError:
            return
        report = execute(cfg)
        assert isinstance(report.passed, bool)
        assert pathlib.Path(out_dir, "report.json").is_file()
