"""End-to-end runs through the command line entry point."""

import json
import os
import shutil

import pytest

from taylorlab import cli
from taylorlab.config import KINDS


def write_config(tmp_path, name="run.json", **overrides):
    doc = {"kind": "spectral-check", "truncation": 48, "band": 4, "modes": [[1, 0]]}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_passes_and_reports(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["run", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "PASS eigenvalue_relative_error" in printed
    assert printed.strip().endswith(os.path.join(out, "report.json"))
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["passed"] is True
    for artifact in report["artifacts"]:
        assert os.path.exists(os.path.join(out, artifact))


def test_run_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert cli.main(["run", cfg, "--out", out1]) == 0
    assert cli.main(["run", cfg, "--out", out2]) == 0
    for name in ("report.json", "spectral.csv"):
        b1 = open(os.path.join(out1, name), "rb").read()
        assert b1 == open(os.path.join(out2, name), "rb").read()


def test_tolerance_override_can_fail_the_run(tmp_path, capsys):
    # sqrt-of-roundoff floor on eigenvector alignment sits far above 1e-16,
    # so tightening the tolerance must flip the outcome, not be absorbed
    cfg = write_config(tmp_path, tolerances={"eigenvector": 1e-16})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "FAIL eigenvector_error" in capsys.readouterr().out


def test_tail_gate_override_is_read(tmp_path, capsys):
    # the default gate 1e-8 passes this window; no collocation tail is below
    # 1e-30, and validation collocates the band at the config's gate
    cfg = write_config(tmp_path, tolerances={"tail_gate": 1e-30})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gate 1.0e-30" in err
    assert not (tmp_path / "out").exists()


MIXED = [[1, 1, 1.0], [1, -2, 0.5], [2, -1, 1.0], [2, 3, 0.4]]


@pytest.mark.parametrize(
    "doc, fragment",
    [
        # each window passes the rule truncation >= 4*band + 8, but a profile
        # the run collocates has a tail beyond it
        ({"kind": "spectral-check", "truncation": 16, "band": 2}, "profile k=-2 has"),
        ({"kind": "normalform-check", "truncation": 16, "band": 2}, "profile k=-2 has"),
        # the scaling study collocates stored_band_for(2, 24) = 6 profiles each side
        ({"kind": "scaling-study", "truncation": 24, "band": 2}, "profile k=-6 has"),
        (
            {"kind": "spectral-check", "background": [[1, 8, 1], [2, -8, 1]],
             "truncation": 48, "band": 4},
            "profile k=-4 has",
        ),
        ({"kind": "scaling-study", "background": MIXED}, "profile k=-16 has"),
        # a real field's -k repeats k: two random draws would be no real field
        (
            {"kind": "evolve", "modes": [[1, 0], [-1, 0]], "truncation": 16},
            "k and -k are one mode",
        ),
    ],
    ids=[
        "spectral16", "normalform16", "scaling24", "spectral_wide48", "scaling_mixed",
        "evolve_plus_minus_k",
    ],
)
def test_config_that_would_stop_or_mislead_the_run_exits_2(tmp_path, capsys, doc, fragment):
    # bad input, not a failed check: one line, and no run directory
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert fragment in lines[0]
    assert not (tmp_path / "out").exists()


def test_evolve_without_balancing_reports_the_drift(tmp_path, capsys):
    # the flow without the balancing velocity leaves the constrained
    # subspace: the run still writes its report, and the Taylor residual
    # gate fails it
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kind": "evolve", "include_geostrophic": False}))
    out = str(tmp_path / "out")
    assert cli.main(["run", str(path), "--out", out]) == 1
    captured = capsys.readouterr()
    assert "check aborted" not in captured.err
    assert "FAIL taylor_residual_max" in captured.out
    report = json.load(open(os.path.join(out, "report.json")))
    outcomes = {o["name"]: o for o in report["outcomes"]}
    assert report["passed"] is False
    assert outcomes["taylor_residual_max"]["measured"] > 1e-7
    assert not outcomes["taylor_residual_max"]["passed"]
    assert all(o["passed"] for name, o in outcomes.items() if name != "taylor_residual_max")


def test_rejected_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, truncation=12, band=8)
    assert cli.main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, band", [("spectral-check", -3), ("spectral-check", 0), ("scaling-study", 1)]
)
def test_band_below_the_kinds_least_exits_2(tmp_path, capsys, kind, band):
    cfg = write_config(tmp_path, kind=kind, band=band)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "band" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("eps_modes", [[], [8], [8, 8]])
def test_eps_modes_that_fit_no_slope_exit_2(tmp_path, capsys, eps_modes):
    # the study fits the c2 slope through its eps modes, and none of these
    # gives two distinct points: bad input, not a failed check
    cfg = write_config(
        tmp_path, kind="scaling-study", truncation=40, band=2, eps_modes=eps_modes
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "eps_modes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_t_final_between_output_steps_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, kind="evolve", t_final=0.5, output_step=0.2)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "whole number of output steps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, typo_key=1)
    assert cli.main(["run", cfg]) == 2


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert cli.main(["run", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2


def test_directory_as_config_exits_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path)]) == 2
    assert "config error: config file cannot be read" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main(["run", str(path)]) == 2
    assert "config error: config file cannot be read" in capsys.readouterr().err


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert cli.main(["run", cfg, "--out", str(taken)]) == 2
    assert "config error: cannot make the output directory" in capsys.readouterr().err
    assert taken.read_text() == "kept"


def test_seed_override_changes_hash(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "s0"), str(tmp_path / "s9")
    assert cli.main(["run", cfg, "--out", out1]) == 0
    assert cli.main(["run", cfg, "--out", out2, "--seed", "9"]) == 0
    h1 = json.load(open(os.path.join(out1, "report.json")))["config_hash"]
    h2 = json.load(open(os.path.join(out2, "report.json")))["config_hash"]
    assert h1 != h2


def test_negative_seed_override_exits_2(tmp_path, capsys):
    # the override reaches the config after validate, and is checked all the same
    cfg = write_config(tmp_path, kind="constraint-check")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
    assert "'seed' must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_jobs_comes_from_the_flag_not_the_environment(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    # no environment variable sets the worker threads: this one is not read
    monkeypatch.setenv("TAYLORLAB_JOBS", "not-a-number")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0
    assert cli.main(["run", cfg, "--jobs", "0"]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"truncation": 24, "band": 2},
        {"background": [[1, 1, 1.0], [1, -2, 0.5], [2, -1, 1.0], [2, 3, 0.4]]},
    ],
    ids=["truncation24_band2", "mixed_background"],
)
def test_normalform_check_collocates_only_its_band(tmp_path, capsys, doc):
    # both windows resolve the band's profiles but not the headroom beyond
    # it (k = -6, tail 7.0e-5, and k = -16, tail 1.5e-4), which the normal
    # form does not read: the run reaches its verdict, and every gate passes
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "normalform-check", **doc}))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out
    assert "PASS resonance_rhs_max" in printed and "FAIL" not in printed


def small_config(root, kind):
    """The config file of ``kind`` at truncation 40, band 2 (the smallest
    window every kind resolves), written under ``root``."""
    cfg = root / f"{kind}.json"
    cfg.write_text(json.dumps({"kind": kind, "truncation": 40, "band": 2}))
    return str(cfg)


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """The run directory of every kind's :func:`small_config`, made through
    the command line."""
    root = tmp_path_factory.mktemp("small")
    dirs = {}
    for kind in KINDS:
        dirs[kind] = str(root / kind)
        assert cli.main(["run", small_config(root, kind), "--out", dirs[kind]]) == 0
    return dirs


@pytest.mark.parametrize("kind", KINDS)
def test_outputs_do_not_depend_on_the_output_directory(small_runs, tmp_path, kind):
    out = str(tmp_path / "another" / "place")
    assert cli.main(["run", small_config(tmp_path, kind), "--out", out]) == 0
    names = sorted(os.listdir(small_runs[kind]))
    assert sorted(os.listdir(out)) == names
    for name in names:
        first = open(os.path.join(small_runs[kind], name), "rb").read()
        assert open(os.path.join(out, name), "rb").read() == first, name


@pytest.mark.parametrize(
    "kind", ["spectral-check", "normalform-check", "evolve", "abscissa-sweep", "scaling-study"]
)
def test_plot_regenerates_charts(small_runs, tmp_path, capsys, kind):
    out = str(tmp_path / kind)
    shutil.copytree(small_runs[kind], out)
    svgs = [os.path.join(out, n) for n in os.listdir(out) if n.endswith(".svg")]
    assert svgs
    drawn = {}
    for path in svgs:
        drawn[path] = open(path, "rb").read()
        os.remove(path)
    capsys.readouterr()
    assert cli.main(["plot", out]) == 0
    assert sorted(capsys.readouterr().out.split()) == sorted(svgs)
    for path in svgs:
        assert open(path, "rb").read() == drawn[path]


@pytest.mark.parametrize("kind", KINDS)
def test_artifacts_list_the_run_directory(small_runs, kind):
    out = small_runs[kind]
    artifacts = json.load(open(os.path.join(out, "report.json")))["artifacts"]
    assert sorted(artifacts) == sorted(set(os.listdir(out)) - {"report.json"})


def test_plot_empty_directory_exits_1(tmp_path, capsys):
    assert cli.main(["plot", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "plot"])
def test_unexpected_error_exits_3(tmp_path, capsys, monkeypatch, command):
    # an error that is no verdict on the mathematics, such as running out of
    # memory, stops the command with one line and exit code 3
    def fail(*args):
        raise MemoryError("planted")

    monkeypatch.setattr(cli, "execute", fail)
    monkeypatch.setattr(cli, "emit_plots", fail)
    target = write_config(tmp_path) if command == "run" else str(tmp_path)
    assert cli.main([command, target]) == 3
    assert capsys.readouterr().err == "error: MemoryError: planted\n"
