"""A fixed burst of work that measures how fast the machine runs right now.

On a shared machine the same work does not take the same time: in a
four-minute trace of fixed 0.1 s chunks on a 2-vCPU Xeon sandbox, most
chunks took 0.10-0.11 s and stretches of 3-10 s took 0.15-0.19 s, and over
tens of minutes cold starts ran up to 60% slower.  run.py times a burst
before and after each cold start and scales the cold starts by
REFERENCE_S / fastest burst: the time they would take on a machine where
the burst takes REFERENCE_S.  A cold start lasts about as long as a burst,
so both see the same brief fast windows.  A change to the program moves
the cold start and not the burst, so it shows in full.

The mix follows the program's own: a dense LAPACK eigen-solve, many small
numpy calls driven from the interpreter, and matrix-vector products that
stream a matrix larger than a core's cache, on fixed inputs.
"""

from __future__ import annotations

import time

import numpy as np

# The burst's wall time in an uncontended stretch on the sandbox above.
REFERENCE_S = 0.09

_RNG = np.random.default_rng(20160511)
_MATRIX = _RNG.standard_normal((160, 160)) + 1j * _RNG.standard_normal((160, 160))
_SERIES = _RNG.standard_normal((2, 129)) + 1j * _RNG.standard_normal((2, 129))
_STREAMED = _RNG.standard_normal((768, 768)) + 1j * _RNG.standard_normal((768, 768))
_VECTOR = _RNG.standard_normal(768) + 1j * _RNG.standard_normal(768)


def burst() -> float:
    """Wall seconds of one burst."""
    start = time.perf_counter()
    np.linalg.eigvals(_MATRIX)
    f, g = _SERIES
    for _ in range(2000):
        np.convolve(f, g)[64:193].sum()
    for _ in range(100):
        _STREAMED @ _VECTOR
    return time.perf_counter() - start


def scale(bursts: list) -> float:
    """Factor from wall seconds to reference seconds, from a run's bursts."""
    return REFERENCE_S / min(bursts)
