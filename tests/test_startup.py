"""Cold start: no kind loads scipy.

The package runs on numpy alone, the matrix exponential of evolve included
(``evolution._expm``); scipy is a test-only reference.  Each kind runs in a
fresh interpreter, because the test process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys

import pytest

from taylorlab.config import KINDS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# truncation 40 / band 2 is the smallest window scaling-study resolves
PROBE = """
import json, sys
from taylorlab.checks import execute
from taylorlab.config import validate
report = execute(validate(json.loads(sys.argv[1])))
print(json.dumps([report.passed, "scipy" in sys.modules]))
"""


@pytest.mark.parametrize("kind", KINDS)
def test_no_kind_imports_scipy(tmp_path, kind):
    raw = {
        "kind": kind, "truncation": 40, "band": 2, "eps_modes": [2, 8], "modes": [[2, 0]],
        "t_final": 0.01, "output_step": 0.01, "out_dir": str(tmp_path),
    }
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(raw)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    passed, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert passed
    assert not loaded
