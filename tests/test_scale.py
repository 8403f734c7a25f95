"""Opt-in scale profile: four configs at truncation 128, default evolve
there again at two OpenBLAS threads, and the exact restricted abscissa of
mode (1, 0) there.

Skipped unless TAYLORLAB_SCALE=1 is set, so the default suite does not
change.  Run it with

    TAYLORLAB_SCALE=1 PYTHONPATH=src python -m pytest -q tests/test_scale.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from taylorlab.background import canonical_background, lattice_mode_context
from taylorlab.checks import execute
from taylorlab.config import validate

from conftest import propagator

pytestmark = pytest.mark.skipif(
    os.environ.get("TAYLORLAB_SCALE") != "1",
    reason="scale profile; set TAYLORLAB_SCALE=1 to run it",
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MIXED = [[1, 1, 1.0], [1, -2, 0.5], [2, -1, 1.0], [2, 3, 0.4]]

PROFILE = {
    "evolve": {"kind": "evolve"},
    "abscissa-sweep": {
        "kind": "abscissa-sweep",
        "modes": [[2**k, 0] for k in range(8)],
    },
    "scaling-study": {"kind": "scaling-study", "band": 16, "eps_modes": [2, 8, 32, 128]},
    "scaling-study-mixed": {"kind": "scaling-study", "background": MIXED},
}


@pytest.mark.parametrize("name", list(PROFILE))
def test_profile_at_truncation_128_passes(tmp_path, name):
    cfg = validate({**PROFILE[name], "truncation": 128, "out_dir": str(tmp_path)})
    report = execute(cfg)
    assert report.outcomes
    assert [o.name for o in report.outcomes if not o.passed] == []


def test_evolve_at_truncation_128_passes_at_two_blas_threads(tmp_path):
    # the thread count is fixed when OpenBLAS loads, so the run is a fresh
    # interpreter; its squarings run in OpenBLAS's worker threads too
    config = tmp_path / "evolve.json"
    config.write_text(json.dumps({"kind": "evolve", "truncation": 128}))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "taylorlab", "run", str(config), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="2"),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout


def test_restricted_abscissa_of_the_first_mode_at_truncation_128():
    # the tier-1 suite checks -4 pi^2 at windows 16, 32 and 64; the
    # measured relative error here is 2.4e-13
    ctx = lattice_mode_context(canonical_background(), (1, 0))
    prop = propagator(ctx, 128)
    assert prop.restricted_abscissa == pytest.approx(-4 * np.pi**2, rel=1e-12, abs=0)
