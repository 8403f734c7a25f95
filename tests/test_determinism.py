"""The BLAS-thread contract: constraint-check and abscissa-sweep write the
same bytes, in every output file, at one and at two OpenBLAS threads.

The thread count is fixed when OpenBLAS loads, so each run is a fresh
interpreter.  The runs use the kinds' defaults, the size the contract is
stated for: a small window can hide a difference in summation order.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_directory(tmp_path, kind, threads) -> dict:
    """Every file a default run of ``kind`` writes, by name, as bytes."""
    config = tmp_path / f"{kind}.json"
    config.write_text(json.dumps({"kind": kind}))
    out = tmp_path / f"{kind}-{threads}"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "taylorlab", "run", str(config), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("kind", ["constraint-check", "abscissa-sweep"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, kind):
    one = run_directory(tmp_path, kind, 1)
    two = run_directory(tmp_path, kind, 2)
    assert "report.json" in one and len(one) > 1
    assert list(one) == list(two)
    for name in one:
        assert one[name] == two[name], name
