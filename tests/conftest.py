import importlib
import pkgutil

import numpy as np
import pytest

import taylorlab
from taylorlab import evolution as evo
from taylorlab import operators as op
from taylorlab import spectral
from taylorlab.background import canonical_background, lattice_mode_context, make_background
from taylorlab.config import DEFAULT_TOLERANCES
from taylorlab.errors import TaylorLabError
from taylorlab.fourier import FourierSeries, multiply

# the gates a run reads from its config, at their defaults
TAIL_GATE = DEFAULT_TOLERANCES["tail_gate"]
RESONANCE_TOL = DEFAULT_TOLERANCES["resonance"]
PROJECTION_TOL = DEFAULT_TOLERANCES["taylor_projection"]


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
def double_zero_bg():
    # each D of mode (0, 1)'s split has a double zero eigenvalue, an exact
    # two-dimensional kernel
    return make_background([(1, 1, 1.0), (2, -1, 1.0), (1, 2, 0.3)])


@pytest.fixture(scope="session")
def ctx10(bg):
    return lattice_mode_context(bg, (1, 0))


@pytest.fixture(scope="session")
def basis64(ctx10):
    return spectral.build_eigenbasis(ctx10, 16, 64, TAIL_GATE)


@pytest.fixture(scope="session")
def drive64(ctx10):
    return op.assemble_matrix(lambda b: op.symmetric_drive(ctx10, b), 64)


@pytest.fixture(scope="session")
def local64(ctx10):
    return op.assemble_matrix(lambda b: op.magnetostrophic_symmetric(ctx10, b), 64)


@pytest.fixture(scope="session")
def v_con64(ctx10):
    return fourier_basis(op.constraint_null_basis, ctx10, 64)


@pytest.fixture(scope="session")
def v_div64(ctx10):
    return fourier_basis(op.divergence_null_basis, ctx10, 64)


def fourier_basis(factor, ctx, truncation):
    """The orthonormal J-fixed basis V = U C of a subspace in the stacked
    coefficients, lifted from the C of the (C, W) that ``factor``
    (:func:`operators.constraint_null_basis` or
    :func:`operators.divergence_null_basis`) gives."""
    c, _ = factor(ctx, truncation)
    return op.PairTransform(truncation).lift(c)


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


def propagator(ctx, truncation, include_geostrophic=True):
    """:func:`evolution.build_propagator` of the mode at ``truncation`` for
    one lane, with the constraint basis factored here."""
    basis = op.constraint_null_basis(ctx, truncation)
    (prop,) = evo.build_propagator(ctx, basis, (include_geostrophic,))
    return prop


def project(ctx, b):
    """:func:`evolution.project_constraints` of b onto the mode's
    constrained subspace at b's window, with the basis factored here."""
    return evo.project_constraints(b, fourier_basis(op.constraint_null_basis, ctx, b.truncation))


def start_state(bg, modes, truncation, seed=0):
    """:func:`evolution.initial_state` of the lattice ``modes`` at
    ``truncation``, with each mode's constraint basis factored here."""
    bases = {
        tuple(key): fourier_basis(
            op.constraint_null_basis, lattice_mode_context(bg, key), truncation
        )
        for key in modes
    }
    return evo.initial_state(bases.items(), seed)


def generator(ctx, truncation, include_geostrophic=True):
    """The per-mode generator G of one lane, assembled from its right-hand
    side: :func:`evolution.build_propagator`'s pair forms are bitwise this
    matrix's, and the propagator keeps only their blocks."""
    return op.assemble_matrix(
        lambda b: op.full_induction(ctx, b, include_geostrophic), truncation
    )


def propagator_from_matrices(ctx, g, basis):
    """:meth:`evolution.ModePropagator.from_pair_forms` of the whole pair
    form of a generator ``g`` on the constrained subspace ``basis`` = (C,
    W), with a cache of its own."""
    pairs = op.PairTransform(op._window(len(g)))
    return evo.ModePropagator.from_pair_forms(ctx, pairs.pair_form(g), basis, {})


def grad_energy(ctx, b):
    """Squared H1 seminorm of one mode, |xi|^2 ||b||^2 + ||d3 b||^2, by the
    functional route: the oracle for the seminorm
    :meth:`evolution.ModePropagator.diagnostics` reads from pair coordinates."""
    vertical = sum(c.derivative().norm() ** 2 for c in b.components)
    return float(ctx.xi_norm**2 * b.norm() ** 2 + vertical)


def induction_power(ctx, b, include_geostrophic=True):
    """Re <curl(u x B) b, b>, the mode-wise power input of the induction term,
    by the functional route: Re <L b, b> plus the (exactly known)
    dissipation.  The oracle for the power :func:`evolution.run_evolution`
    logs from each propagator's blocks."""
    lb = op.full_induction(ctx, b, include_geostrophic=include_geostrophic)
    return float(np.real(lb.inner(b.resample(lb.truncation))) + grad_energy(ctx, b))


def lower_field(b):
    """The pair coordinates y = U* x of one field, as a single column: the
    state that :meth:`evolution.ModePropagator.advance` moves."""
    return op.PairTransform(b.truncation).lower(op.field_to_vector(b)[:, None])


def lift_field(y):
    """The field x = U y of pair coordinates given as a single column."""
    return op.vector_to_field(op.PairTransform(op._window(len(y))).lift(y)[:, 0])


def dense_exponential(prop, h):
    """exp(h G) as one matrix, U exp(h R) U*: the identity lowered to pair
    coordinates, advanced by the propagator and lifted."""
    pairs = op.PairTransform(op._window(sum(len(idx) for idx in prop.blocks)))
    eye = np.eye(3 * (2 * pairs.truncation + 1))
    return pairs.lift(prop.advance(pairs.lower(eye), h))


def abscissa_sweep(bg, modes, truncation, include_geostrophic):
    """Rows (|xi|, restricted abscissa, unconstrained abscissa) per mode for
    one lane, each mode's propagator built on its own: the oracle for the
    lanes of :func:`evolution.abscissa_lanes`, which share one assembly and
    one block cache per mode."""
    props = [
        propagator(lattice_mode_context(bg, key), truncation, include_geostrophic)
        for key in modes
    ]
    return [(float(p.ctx.xi_norm), p.restricted_abscissa, p.unconstrained_abscissa) for p in props]


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
    return op.vector_to_field(y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


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


# ----------------------------------------------------------------------
# reference routes that only the tests read
# ----------------------------------------------------------------------


def allclose(f, g, tol=1e-12):
    """Coefficientwise comparison of two series after aligning windows."""
    m = max(f.truncation, g.truncation)
    return bool(np.max(np.abs(f.resample(m).coeffs - g.resample(m).coeffs)) <= tol)


def is_real(f, tol=1e-14):
    """Whether a single series represents a real function: c_{-n} = conj(c_n)."""
    return bool(np.max(np.abs(f.coeffs[::-1] - np.conj(f.coeffs))) <= tol)


def series_from_triples(triples, truncation=None):
    """The series with coefficient re + i im at mode n for each ``[n, re,
    im]`` row, on the window ``truncation`` (by default the widest |n|);
    repeated modes add."""
    triples = list(triples)
    if truncation is None:
        truncation = max((abs(int(t[0])) for t in triples), default=0)
    c = np.zeros(2 * truncation + 1, dtype=np.complex128)
    for n, re, im in triples:
        n = int(n)
        if abs(n) > truncation:
            raise ValueError(f"mode {n} outside window [-{truncation}, {truncation}]")
        c[n + truncation] += re + 1j * im
    return FourierSeries(c)


def remove_mean(f):
    """The series with its n = 0 coefficient zeroed."""
    out = np.array(f.coeffs)
    out[f.truncation] = 0.0
    return FourierSeries(out)


def multiplication_matrix(g, truncation):
    """Dense matrix of f -> multiply(f, g).resample(truncation) at f's window
    ``truncation``: Toeplitz, entry (m, n) is the coefficient of g at mode
    m - n."""
    n = np.arange(-truncation, truncation + 1)
    padded = g.resample(max(g.truncation, 2 * truncation))
    return padded.coeffs[(n[:, None] - n[None, :]) + padded.truncation]


def delta(background):
    """Uniform lower bound sqrt(lambda_min(Gram)) for ||beta|| over directions."""
    return float(np.sqrt(np.linalg.eigvalsh(background.gram)[0]))


# every taylorlab module but __main__, which runs the command line on import
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(taylorlab.__path__) if info.name != "__main__"
)


def count_calls(monkeypatch, fn):
    """Count the calls of ``fn`` from every taylorlab module: each module
    attribute bound to ``fn`` is replaced by a counting wrapper.  Returns the
    list that grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name in MODULES:
        module = importlib.import_module(f"taylorlab.{name}")
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def phi_family_gram(basis):
    """Gram matrix of the full stored Phi family (minus then plus)."""
    cols = [op.field_to_vector(basis.phi_minus(k)) for k in range(-basis.band, basis.band + 1)]
    cols += [op.field_to_vector(basis.phi_plus(j)) for j in basis.plus_indices]
    mat = np.column_stack(cols)
    return mat.conj().T @ mat


def verify_on_basis_by_fields(basis):
    """The residuals of :func:`spectral.verify_on_basis`, with the fast skew
    operator applied to one stored eigenfield per call: the per-field
    reference for the stacked-family route."""
    ctx = basis.ctx
    minus = max(
        op.fast_skew(ctx, basis.phi_minus(k)).norm() for k in range(-basis.band, basis.band + 1)
    )
    plus = max(
        (op.fast_skew(ctx, basis.phi_plus(j)) - basis.lam(j) * basis.phi_plus(j)).norm()
        for j in basis.plus_indices
    )
    return {"phi_minus_max_residual": minus, "phi_plus_max_residual": plus}


def proj_band(basis, band, b):
    """Orthogonal projection onto the low eigenfield band (span of phi_plus)."""
    phi = spectral.band_matrix(basis, band)
    vec = op.field_to_vector(b.resample(basis.truncation))
    return op.vector_to_field(phi @ (phi.conj().T @ vec))


def proj_band_complement(basis, band, b):
    """High-band complement: pointwise direction-orthogonal projection minus
    the low band."""
    b = b.resample(basis.truncation)
    return op.proj_direction_perp(basis.ctx, b) - proj_band(basis, band, b)


def dense_band_compressions(basis, band):
    """(Phi* D Phi, (P0 Phi)* L (P0 Phi)) from the assembled drive D, its
    assembled local part L and the dense componentwise profile projector P0:
    the dense-matrix oracle for the band matrices ``c_band`` and ``s`` of
    :func:`normal_form.build_normal_form`."""
    ctx, m = basis.ctx, basis.truncation
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx, b), m)
    local = op.assemble_matrix(lambda b: op.magnetostrophic_symmetric(ctx, b), m)
    e0 = ctx.e0.resample(m).coeffs
    projector = np.kron(np.eye(3), np.outer(e0, e0[::-1]))
    phi = spectral.band_matrix(basis, band)
    p0_phi = projector @ phi
    return phi.conj().T @ (drive @ phi), p0_phi.conj().T @ (local @ p0_phi)


def homological_rhs(basis, i, j):
    """Right-hand side scalar of the homological equation for the pair (i, j),
    through one operator application per eigenfield: the per-pair oracle for
    the band-block applications of :func:`normal_form.build_normal_form`."""
    ctx = basis.ctx
    phi_i = basis.phi_plus(i)
    phi_j = basis.phi_plus(j)
    first = -op.symmetric_drive(ctx, phi_i).inner(phi_j)
    local = op.magnetostrophic_symmetric(ctx, op.proj_profile(ctx, phi_i))
    second = local.inner(op.proj_profile(ctx, phi_j))
    return complex(first + second)


class RegimeViolation(TaylorLabError):
    """Near-identity conjugation requested outside its contraction regime."""


def check_regime(nf, eps):
    """Raise RegimeViolation unless eps ||Q|| < 1/2, where the change of
    unknown d = (Id + eps Q_N) b and its inverse are well conditioned."""
    if eps * nf.q_norm >= 0.5:
        raise RegimeViolation(
            f"eps * ||Q|| = {eps * nf.q_norm:.3f} >= 0.5; the conjugation "
            "is outside its perturbative regime"
        )


def conjugate(nf, b, eps=None):
    """d = b + eps * Q_N b with Q_N the band extension-by-zero of Q."""
    eps = nf.basis.ctx.eps if eps is None else eps
    check_regime(nf, eps)
    phi = spectral.band_matrix(nf.basis, nf.band)
    vec = op.field_to_vector(b.resample(nf.basis.truncation))
    out = vec + eps * (phi @ (nf.q @ (phi.conj().T @ vec)))
    return op.vector_to_field(out)


def unconjugate(nf, d, eps=None):
    """Invert :func:`conjugate` by a direct band-coordinate solve of
    (Id + eps Q) on the band coordinates, not by a series in eps Q."""
    eps = nf.basis.ctx.eps if eps is None else eps
    check_regime(nf, eps)
    phi = spectral.band_matrix(nf.basis, nf.band)
    vec = op.field_to_vector(d.resample(nf.basis.truncation))
    coords = phi.conj().T @ vec
    solved = np.linalg.solve(np.eye(nf.q.shape[0]) + eps * nf.q, coords)
    out = vec - eps * (phi @ (nf.q @ solved))
    return op.vector_to_field(out)


def laplacian_commutator_norm(nf):
    """Operator norm of [Q_N, d33] on the ambient window."""
    phi = spectral.band_matrix(nf.basis, nf.band)
    m = nf.basis.truncation
    d2 = np.tile((2j * np.pi * np.arange(-m, m + 1)) ** 2, 3)
    q_full = phi @ nf.q @ phi.conj().T
    comm = q_full * d2[None, :] - d2[:, None] * q_full
    return float(np.linalg.norm(comm, ord=2))
