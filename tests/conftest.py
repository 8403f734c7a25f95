import numpy as np
import pytest

from taylorlab import evolution as evo
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
def mixed_bg():
    # cosines and sines mixed in one component: beta has even and odd
    # vertical modes, so no parity split of the generator survives
    return make_background([(1, 1, 1.0), (1, -2, 0.5), (2, -1, 1.0), (2, 3, 0.4)])


@pytest.fixture(scope="session")
def wide_bg():
    # profiles at the edge of the background's window
    return make_background([(1, 8, 1.0), (2, -8, 1.0)])


@pytest.fixture(scope="session")
def ctx10(bg):
    return lattice_mode_context(bg, (1, 0))


@pytest.fixture(scope="session")
def basis64(ctx10):
    return spectral.build_eigenbasis(ctx10, 16, 64)


@pytest.fixture(scope="session")
def drive64(ctx10):
    return op.assemble_matrix(lambda b: op.symmetric_drive(ctx10, b), 64)


@pytest.fixture(scope="session")
def local64(ctx10):
    return op.assemble_matrix(lambda b: op.magnetostrophic_symmetric(ctx10, b), 64)


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


def dense_high_mode_gap(basis, band, drive_matrix, divergence_free_basis):
    """The gap of :func:`spectral.high_mode_gap` by its defining formula: the
    2-norm of the Hermitian part of the full compression minus the band's,
    both formed at the divergence-free dimension.  Kept as the oracle for the
    factored route."""
    entries = getattr(drive_matrix, "entries", drive_matrix)
    band = min(band, basis.band)
    phi = spectral.band_matrix(basis, basis.band)
    y_full = phi.conj().T @ divergence_free_basis
    c_band = phi.conj().T @ (entries @ phi)
    full = y_full.conj().T @ c_band @ y_full
    lo = 2 * (basis.band - band)
    hi = lo + 4 * band + 2
    y_low = y_full[lo:hi]
    low = y_low.conj().T @ c_band[lo:hi, lo:hi] @ y_low
    diff = full - low
    herm = 0.5 * (diff + diff.conj().T)
    return float(np.linalg.norm(herm, ord=2))


def taylor_residual_curl_form(ctx, b):
    """Raw constraint residuals from the vertical average of the curled force.

    Returns the scalars (m_perp, m3) that int curl(curl b x B + curl B x b)
    dx3 encodes: the vertical average of the force itself along eta_perp
    and along the vertical.  Related to :func:`operators.taylor_residual` by
    an invertible diagonal 2x2 map; computed independently of it, as the
    oracle of that equivalence.
    """
    f = op._lorentz_average_integrand(ctx, b)
    p1, p2 = ctx.eta_perp
    # the curl's vertical average encodes the two scalar conditions as
    # (i xi2 m3, -i xi1 m3, i |xi| m_perp); report the underlying scalars
    m3 = complex(f.c3.mean())
    m_perp = complex(p1 * f.c1.mean() + p2 * f.c2.mean())
    return m_perp, m3


def magnetostrophic_velocity(ctx, b):
    """Interior velocity at b's window: the zero-mean vertical antiderivative
    of the curled force."""
    return op._magnetostrophic_velocity_exact(ctx, b).resample(b.truncation)


def geostrophic_velocity(ctx, b):
    """The constant balancing velocity of b, read from its unbalanced
    right-hand side."""
    return op._balancing_velocity(ctx, op.full_induction(ctx, b, include_geostrophic=False))


def _geostrophic_velocity_full_window(ctx, b, u_m):
    """The balancing velocity with g = curl(u_m x B) + (d33 - |xi|^2) b formed
    at the full windows of ``b`` and the interior velocity ``u_m``."""
    from taylorlab.fourier import multiply

    beta_xi = ctx.beta_xi
    bp1, bp2 = ctx.b_prime
    xi_norm_sq = ctx.xi_norm**2

    def g_comp(u_c, b_c, bp):
        out = op._sub(
            1j * multiply(beta_xi, u_c),
            op._sub(xi_norm_sq * b_c, b_c.derivative().derivative()),
        )
        if bp is not None:
            out = op._sub(out, multiply(u_m.c3, bp))
        return out

    g = (g_comp(u_m.c1, b.c1, bp1), g_comp(u_m.c2, b.c2, bp2), g_comp(u_m.c3, b.c3, None))
    return balancing_velocity_full_window(ctx, op.ModeField.from_components(g))


def balancing_velocity_full_window(ctx, g):
    """:func:`operators._balancing_velocity` with g kept at its full window:
    the oracle for the window the package cuts g to."""
    from taylorlab.fourier import multiply

    beta_xi = ctx.beta_xi
    bp1, bp2 = ctx.b_prime
    f1 = op._add(1j * multiply(beta_xi, g.c1), multiply(g.c3, bp1))
    f2 = op._add(1j * multiply(beta_xi, g.c2), multiply(g.c3, bp2))
    f3 = 1j * multiply(beta_xi, g.c3)

    v = np.array([f1.mean(), f2.mean(), f3.mean()]) / (ctx.beta_norm_sq * ctx.xi_norm**2)
    eta = np.asarray(ctx.eta)
    v[:2] -= np.multiply.outer(eta, eta @ v[:2])
    return v


def balanced_induction_by_velocity(ctx, b):
    """curl((u_m + u_g) x B) at b's window, with the velocity u_m + u_g
    formed first and u_g from full windows: the oracle for the balancing
    velocity as a correction of the unbalanced right-hand side."""
    from taylorlab.fourier import FourierSeries

    u = op._magnetostrophic_velocity_exact(ctx, b)
    v = _geostrophic_velocity_full_window(ctx, b, u)
    m = u.truncation
    u = op.ModeField(
        *(op._add(c, FourierSeries.constant(x)).resample(m) for c, x in zip(u.components, v))
    )
    return op._induction_term_exact(ctx, u).resample(b.truncation)


def generator(ctx, truncation, include_geostrophic=True):
    """The per-mode generator G that :func:`evolution.build_propagator` forms
    its propagator from; the propagator keeps only its pair-basis blocks."""
    (g,) = evo.lane_generators(ctx, truncation, (include_geostrophic,))
    return g


def constraint_invariance_defect(propagator):
    """||(Id - P) G P||, zero when the flow keeps constrained fields
    constrained; U is unitary, so it is the largest ||R_k C_k - C_k (C_k^T
    R_k C_k)|| over the propagator's ``generators`` and ``bases``."""
    pieces = zip(propagator.generators, propagator.bases)
    return max(float(np.linalg.norm(r @ c - c @ (c.T @ r @ c), 2)) for r, c in pieces)


def rk4_step(g, b, h):
    """Classical Runge-Kutta step with the generator ``g`` at b's window: the
    cross-check oracle for the exact flow."""
    y = op.field_to_vector(b)
    k1 = g @ y
    k2 = g @ (y + 0.5 * h * k1)
    k3 = g @ (y + 0.5 * h * k2)
    k4 = g @ (y + h * k3)
    return op.vector_to_field(y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), b.truncation)


def fourier_blocks(square, truncation):
    """:func:`operators.coupled_blocks` of a per-mode matrix's own Fourier
    pattern plus the pairs n, -n: the blocks its complex kernels split along."""
    return op.coupled_blocks(square, op.PairTransform(truncation).pair_rows())


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


def _j_reversal(truncation):
    """(reverse, s) with J v = s * conj(v[reverse]) for the symmetry
    J b_c(n) = s_c conj(b_c(-n)), s = (-1, -1, +1), of the stacked vectors."""
    w = 2 * truncation + 1
    reverse = np.concatenate([c * w + np.arange(w)[::-1] for c in range(3)])
    return reverse, np.repeat([-1.0, -1.0, 1.0], w)


def apply_j(truncation, vecs):
    """J applied to each column of ``vecs``."""
    reverse, s = _j_reversal(truncation)
    return s[:, None] * np.conj(vecs[reverse])


def conjugate_by_j(truncation, mat):
    """The matrix of J mat J: entry (i, j) is s_i s_j conj(mat[-i, -j])."""
    reverse, s = _j_reversal(truncation)
    return s[:, None] * s[None, :] * np.conj(mat[np.ix_(reverse, reverse)])
