"""Opt-in scale profile: the evolve kind at truncation 128.

Skipped unless TAYLORLAB_SCALE=1 is set, so the default suite does not
change.  Run it with

    TAYLORLAB_SCALE=1 PYTHONPATH=src python -m pytest -q tests/test_scale.py
"""

import os

import pytest

from taylorlab.checks import execute
from taylorlab.config import validate

pytestmark = pytest.mark.skipif(
    os.environ.get("TAYLORLAB_SCALE") != "1",
    reason="scale profile; set TAYLORLAB_SCALE=1 to run it",
)


def test_evolve_at_truncation_128_passes(tmp_path):
    cfg = validate({"kind": "evolve", "truncation": 128, "out_dir": str(tmp_path)})
    report = execute(cfg)
    assert report.outcomes
    assert [o.name for o in report.outcomes if not o.passed] == []
