import json

import numpy as np
import pytest

from taylorlab import svg
from taylorlab.errors import MissingData
from taylorlab.report import (
    RunReport,
    _format_cell,
    read_csv,
    write_csv,
    write_report,
    write_snapshot,
)


def test_format_cell_covers_the_types():
    assert _format_cell(True) == "true"
    assert _format_cell(np.bool_(False)) == "false"
    assert _format_cell(7) == "7"
    assert _format_cell(np.int64(-3)) == "-3"
    assert _format_cell(0.1) == "0.1"
    assert _format_cell(np.float64(1e-17)) == "1e-17"
    assert _format_cell(1.5 + 2.5j) == "1.5+2.5j"
    assert _format_cell(1.5 - 2.5j) == "1.5-2.5j"
    assert _format_cell("label") == "label"


def test_float_cells_round_trip():
    # repr round-trips doubles exactly
    for x in (np.pi, 1 / 3, 2.194e-16, -738.0856153494404):
        assert float(_format_cell(x)) == x


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "table.csv")
    header = ["k", "value", "ok"]
    rows = [(0, 0.5, True), (1, -2.25e-9, False)]
    write_csv(path, header, rows)
    got_header, got_rows = read_csv(path)
    assert got_header == header
    assert got_rows == [["0", "0.5", "true"], ["1", "-2.25e-09", "false"]]


def test_csv_rewrite_is_byte_identical(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    rows = [(i, np.sin(i) * 1e-7) for i in range(20)]
    write_csv(a, ["i", "x"], rows)
    write_csv(b, ["i", "x"], rows)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_read_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    header, rows = read_csv(str(path))
    assert header == [] and rows == []


def test_report_passed_aggregates():
    report = RunReport(kind="spectral-check", config_hash="x", package_version="0")
    report.add("one", True, 1e-12, 1e-8)
    assert report.passed
    report.add("two", False, 0.5, 1e-8, detail="went sideways")
    assert not report.passed
    doc = report.as_dict()
    assert doc["passed"] is False
    assert doc["outcomes"][1]["detail"] == "went sideways"


def test_write_report_deterministic(tmp_path):
    report = RunReport(kind="evolve", config_hash="abc", package_version="0.1.0")
    report.add("check", True, 3.5e-16, 1e-10)
    report.artifacts.append("diagnostics.csv")
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    write_report(report, p1)
    write_report(report, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    doc = json.load(open(p1))
    assert doc["kind"] == "evolve"
    assert doc["artifacts"] == ["diagnostics.csv"]
    assert doc["outcomes"][0]["measured"] == 3.5e-16


def test_non_finite_measurement_is_a_failed_null(tmp_path):
    report = RunReport(kind="evolve", config_hash="abc", package_version="0.1.0")
    report.add("finite", True, 1e-12, 1e-8)
    report.add("blown_up", True, float("nan"), 1e-8, detail="probe")
    report.add("overflowed", True, float("inf"), 1e-8)
    assert not report.passed
    path = str(tmp_path / "report.json")
    write_report(report, path)

    def reject(token):
        raise AssertionError(f"invalid JSON constant {token}")

    doc = json.loads(open(path).read(), parse_constant=reject)
    finite, blown_up, overflowed = doc["outcomes"]
    assert finite["passed"] and finite["measured"] == 1e-12
    assert blown_up["passed"] is False and blown_up["measured"] is None
    assert blown_up["detail"] == "non-finite measurement (nan); probe"
    assert overflowed["passed"] is False and overflowed["measured"] is None
    assert overflowed["tolerance"] == 1e-8


def test_write_snapshot_shape_and_values(tmp_path):
    real_path = str(tmp_path / "real.json")
    write_snapshot(real_path, np.ones((2, 3)))
    doc = json.load(open(real_path))
    assert doc["shape"] == [2, 3]
    assert "values" in doc and "real" not in doc


SPECIAL = [[-0.0, 5e-324, 1e300], [1.0 / 3.0, -2.5e-17, 0.0]]


@pytest.mark.parametrize(
    "values",
    [
        np.array(SPECIAL),
        np.array(SPECIAL)[0],
        np.array(-0.0),
        np.zeros((0, 3)),
    ],
    ids=["real", "vector", "0-d", "empty"],
)
def test_write_snapshot_bytes_match_the_pure_python_encoder(tmp_path, values):
    # signed zeros, subnormals and large exponents, written as json.dump
    # (the pure-Python encoder) writes them
    path = tmp_path / "snap.json"
    write_snapshot(str(path), values)
    payload = {"shape": list(values.shape), "values": values.tolist()}
    want = "".join(json.JSONEncoder(sort_keys=True).iterencode(payload)) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
    if values.size >= 3:
        assert "-0.0" in want and "5e-324" in want and "1e+300" in want


def test_line_chart_deterministic(tmp_path):
    series = [("energy", [0.0, 1.0, 2.0], [1.0, 0.5, 0.25])]
    p1 = str(tmp_path / "c1.svg")
    p2 = str(tmp_path / "c2.svg")
    svg.line_chart(series, "decay", "t", "E", p1)
    svg.line_chart(series, "decay", "t", "E", p2)
    body1 = open(p1, "rb").read()
    assert body1 == open(p2, "rb").read()
    assert body1.startswith(b"<svg")
    assert b"energy" in body1


def test_line_chart_log_scale_labels_axis(tmp_path):
    path = str(tmp_path / "log.svg")
    svg.line_chart(
        [("gap", [2.0, 4.0], [1e-2, 1e-3])], "gaps", "band", "gap", path, log_y=True
    )
    assert "log10(gap)" in open(path).read()


def test_line_chart_rejects_bad_series(tmp_path):
    path = str(tmp_path / "bad.svg")
    with pytest.raises(MissingData, match="mismatched lengths"):
        svg.line_chart([("a", [1.0, 2.0], [1.0])], "t", "x", "y", path)
    with pytest.raises(MissingData, match="no points"):
        svg.line_chart([("a", [], [])], "t", "x", "y", path)
    with pytest.raises(MissingData, match="positive values"):
        svg.line_chart([("a", [1.0], [0.0])], "t", "x", "y", path, log_y=True)


def test_line_chart_flat_series_still_renders(tmp_path):
    # a constant series must not divide by zero when scaling
    path = str(tmp_path / "flat.svg")
    svg.line_chart([("c", [0.0, 1.0], [2.0, 2.0])], "t", "x", "y", path)
    assert open(path).read().count("<circle") == 2
