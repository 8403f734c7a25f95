import numpy as np
import pytest

from taylorlab import operators as op
from taylorlab import spectral
from taylorlab.background import canonical_background, lattice_mode_context, make_background


@pytest.fixture(scope="session")
def bg():
    return canonical_background()


@pytest.fixture(scope="session")
def alt_bg():
    # second component winds twice as fast: the local symmetric part of the
    # drive no longer vanishes, which exercises code paths that are
    # identically zero for the circularly polarized background
    return make_background([(1, 1, 1.0), (2, -2, 1.0)])


@pytest.fixture(scope="session")
def ctx10(bg):
    return lattice_mode_context(bg, (1, 0))


@pytest.fixture(scope="session")
def basis64(ctx10):
    return spectral.build_eigenbasis(ctx10, 16, 64)


@pytest.fixture(scope="session")
def drive64(ctx10):
    return op.assemble_matrix(
        lambda b: op.symmetric_drive(ctx10, b, out_truncation=64), 64, label="drive"
    )


@pytest.fixture(scope="session")
def local64(ctx10):
    return op.assemble_matrix(
        lambda b: op.magnetostrophic_symmetric(ctx10, b, out_truncation=64), 64, label="local"
    )


@pytest.fixture(scope="session")
def v_con64(ctx10):
    return op.constraint_null_basis(ctx10, 64)


@pytest.fixture(scope="session")
def v_div64(ctx10):
    return op.divergence_null_basis(ctx10, 64)


def assemble_by_columns(fn, truncation):
    """Dense matrix of ``fn`` built one coefficient basis field at a time.

    The per-column route, kept as the oracle for the batched assembly: every
    call feeds a single (1-d) field, so it never touches the block code path.
    """
    from taylorlab.fourier import FourierSeries

    w = 2 * truncation + 1
    mat = np.zeros((3 * w, 3 * w), dtype=np.complex128)
    zero = FourierSeries.zeros(truncation)
    for comp in range(3):
        for idx in range(w):
            comps = [zero, zero, zero]
            comps[comp] = FourierSeries(np.eye(w)[idx])
            col = fn(op.ModeField(*comps))
            mat[:, comp * w + idx] = op.field_to_vector(col.resample(truncation))
    return mat


def random_series(truncation, rng, decay=1.5):
    from taylorlab.fourier import FourierSeries

    n = np.arange(-truncation, truncation + 1)
    scale = 1.0 / (1.0 + np.abs(n)) ** decay
    coeffs = scale * (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size))
    return FourierSeries(coeffs)


def random_field(truncation, rng, decay=1.5):
    return op.ModeField(
        random_series(truncation, rng, decay),
        random_series(truncation, rng, decay),
        random_series(truncation, rng, decay),
    )
