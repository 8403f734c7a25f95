import numpy as np
import pytest
import scipy.linalg

from taylorlab import operators as op
from taylorlab.background import lattice_mode_context
from taylorlab.errors import ConstraintViolated
from taylorlab.fourier import FourierSeries

from conftest import (
    PROJECTION_TOL,
    allclose,
    apply_j,
    assemble_by_columns,
    conjugate_by_j,
    fourier_basis,
    balanced_induction_by_velocity,
    balancing_velocity_full_window,
    geostrophic_velocity,
    magnetostrophic_velocity,
    random_field,
    series_from_triples,
    taylor_residual_curl_form,
)

EXACT = 40  # window wide enough to hold every product in these tests exactly


def inner(a, b):
    return a.inner(b.resample(a.truncation))


# ----------------------------------------------------------------------
# the leading skew operator
# ----------------------------------------------------------------------


def test_skew_worked_example(ctx10):
    # b = (0, 0, e^{2 pi i x}): the cross product sends it to the second
    # component, and two multiplications by cos(2 pi x) with one zero-mean
    # antiderivative in between give coefficient 1/(16 pi) at modes 1 and 3
    b = op.ModeField(
        FourierSeries.zeros(8), FourierSeries.zeros(8), FourierSeries.exponential(1, 8)
    )
    out = op.magnetostrophic_skew(ctx10, b)
    expected = series_from_triples(
        [[1, 1.0 / (16 * np.pi), 0.0], [3, 1.0 / (16 * np.pi), 0.0]], truncation=8
    )
    assert out.c1.norm() < 1e-16
    assert allclose(out.c2, expected, tol=1e-15)
    assert out.c3.norm() < 1e-16


def test_skew_is_anti_hermitian(ctx10):
    rng = np.random.default_rng(0)
    a = random_field(8, rng)
    b = random_field(8, rng)
    left = inner(op.magnetostrophic_skew(ctx10, a.resample(EXACT)), b.resample(EXACT))
    right = inner(a.resample(EXACT), op.magnetostrophic_skew(ctx10, b.resample(EXACT)))
    assert abs(left + right) < 1e-13


def test_skew_annihilates_direction_aligned_fields(ctx10):
    rng = np.random.default_rng(1)
    s = random_field(8, rng).c1
    e1, e2 = ctx10.eta
    aligned = op.ModeField(e1 * s, e2 * s, FourierSeries.zeros(8))
    assert op.magnetostrophic_skew(ctx10, aligned.resample(EXACT)).norm() < 1e-15


def test_fast_skew_is_the_profile_orthogonal_compression(ctx10):
    rng = np.random.default_rng(2)
    b = random_field(10, rng)
    direct = op.fast_skew(ctx10, b.resample(EXACT))
    composed = op.proj_profile_perp(
        ctx10,
        op.magnetostrophic_skew(
            ctx10, op.proj_profile_perp(ctx10, b).resample(EXACT)
        ),
    )
    assert (direct - composed).norm() < 1e-14


def test_fast_skew_kills_profile_aligned_fields(ctx10):
    m = 10
    e0 = ctx10.e0.resample(m)
    b = op.ModeField(2.0 * e0, -1j * e0, 0.5 * e0)
    assert op.fast_skew(ctx10, b.resample(EXACT)).norm() < 1e-15


# ----------------------------------------------------------------------
# symmetric parts
# ----------------------------------------------------------------------


def test_local_symmetric_part_is_hermitian(ctx10):
    rng = np.random.default_rng(3)
    a = random_field(8, rng)
    b = random_field(8, rng)
    left = inner(op.magnetostrophic_symmetric(ctx10, a.resample(EXACT)), b.resample(EXACT))
    right = inner(a.resample(EXACT), op.magnetostrophic_symmetric(ctx10, b.resample(EXACT)))
    assert abs(left - right) < 1e-13


def test_local_symmetric_part_vanishes_at_canonical(ctx10):
    # the circularly polarized background has beta_perp' = 2 pi beta in
    # every direction, so the two Dinv terms cancel identically
    rng = np.random.default_rng(4)
    b = random_field(10, rng)
    assert op.magnetostrophic_symmetric(ctx10, b.resample(EXACT)).norm() < 1e-14


def test_local_symmetric_part_nonzero_at_alt(alt_bg):
    ctx = lattice_mode_context(alt_bg, (1, 0))
    rng = np.random.default_rng(5)
    b = random_field(10, rng)
    assert op.magnetostrophic_symmetric(ctx, b.resample(EXACT)).norm() > 1e-3


def test_drive_is_hermitian_only_on_the_constrained_subspace(ctx10):
    m = 16
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx10, b), m)
    gap_full = np.linalg.norm(drive - drive.conj().T, 2)
    assert gap_full > 0.1  # the constraint-substituted form is not globally symmetric
    v = fourier_basis(op.constraint_null_basis, ctx10, m)
    comp = v.conj().T @ drive @ v
    assert np.linalg.norm(comp - comp.conj().T, 2) < 1e-13


# ----------------------------------------------------------------------
# projections
# ----------------------------------------------------------------------


def test_profile_projection_properties(ctx10):
    rng = np.random.default_rng(6)
    b = random_field(12, rng)
    p = op.proj_profile(ctx10, b)
    assert (op.proj_profile(ctx10, p) - p).norm() < 1e-14
    q = op.proj_profile_perp(ctx10, b)
    assert abs(inner(p, q)) < 1e-13
    assert ((p + q) - b).norm() < 1e-15


def test_direction_projection_properties(ctx10):
    rng = np.random.default_rng(7)
    b = random_field(12, rng)
    p = op.proj_direction(ctx10, b)
    assert (op.proj_direction(ctx10, p) - p).norm() < 1e-14
    assert p.c3.norm() == 0
    assert abs(inner(p, op.proj_direction_perp(ctx10, b))) < 1e-13


def test_profile_and_direction_projections_commute(ctx10):
    rng = np.random.default_rng(8)
    b = random_field(12, rng)
    ab = op.proj_profile(ctx10, op.proj_direction(ctx10, b))
    ba = op.proj_direction(ctx10, op.proj_profile(ctx10, b))
    assert (ab - ba).norm() < 1e-14


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------


def test_taylor_residual_agrees_with_curl_form(bg):
    # the two independently computed residual pairs differ by the exact
    # diagonal map diag(|xi|, i |xi|)
    rng = np.random.default_rng(9)
    for m in [(1, 0), (0, 2), (3, 4)]:
        ctx = lattice_mode_context(bg, m)
        b = random_field(10, rng)
        r_perp, r_3 = op.taylor_residual(ctx, b)
        m_perp, m_3 = taylor_residual_curl_form(ctx, b)
        assert abs(m_perp - ctx.xi_norm * r_perp) < 1e-12
        assert abs(m_3 - 1j * ctx.xi_norm * r_3) < 1e-12


@pytest.mark.parametrize("key", [(1, 0), (2, 1)])
def test_residual_functionals_serve_a_block_column_by_column(bg, key):
    # a block of fields gives one residual per column, each the single
    # field's up to the rounding of its sums; a single field still gives
    # numbers, the divergence residual its series' norm
    ctx = lattice_mode_context(bg, key)
    rng = np.random.default_rng(13)
    m, k = 12, 3
    fields = [random_field(m, rng) for _ in range(k)]
    block = op.vector_to_field(np.column_stack([op.field_to_vector(b) for b in fields]))
    r_perp, r_3 = op.taylor_residual(ctx, block)
    div = op.divergence_residual(ctx, block)
    assert r_perp.shape == r_3.shape == div.shape == (k,)
    # sums of 2m + 1 products, each bounded by Cauchy-Schwarz
    bound = (2 * m + 1) * np.finfo(float).eps
    profiles = ctx.beta.norm() + ctx.eps * ctx.beta_perp_prime.norm()
    for j, b in enumerate(fields):
        single_perp, single_3 = op.taylor_residual(ctx, b)
        single_div = op.divergence_residual(ctx, b)
        assert np.ndim(single_perp) == np.ndim(single_3) == np.ndim(single_div) == 0
        assert single_div == op.divergence_series(ctx, b).norm()
        assert abs(r_perp[j] - single_perp) <= bound * profiles * b.norm()
        assert abs(r_3[j] - single_3) <= bound * profiles * b.norm()
        assert abs(div[j] - single_div) <= bound * single_div


def test_profile_projection_formula_on_constrained_fields(ctx10, v_con64):
    from taylorlab.evolution import project_constraints

    rng = np.random.default_rng(10)
    for _ in range(5):
        b = project_constraints(random_field(64, rng), v_con64)
        direct = op.proj_profile(ctx10, b)
        via = op.proj_profile_from_constraint(ctx10, b, PROJECTION_TOL)
        assert (direct - via).norm() < 1e-12 * b.norm()


def test_profile_projection_formula_rejects_unconstrained(ctx10):
    rng = np.random.default_rng(11)
    b = random_field(16, rng)
    with pytest.raises(ConstraintViolated):
        op.proj_profile_from_constraint(ctx10, b, PROJECTION_TOL)


def test_constraint_null_basis_shape_and_membership(ctx10):
    m = 12
    w = 2 * m + 1
    v = fourier_basis(op.constraint_null_basis, ctx10, m)
    assert v.shape == (3 * w, 2 * w - 2)
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12
    rows = op.constraint_matrix(ctx10, m)
    assert np.max(np.abs(rows @ v)) < 1e-12
    for col in (0, v.shape[1] // 2, v.shape[1] - 1):
        b = op.vector_to_field(v[:, col])
        r_perp, r_3 = op.taylor_residual(ctx10, b)
        assert max(abs(r_perp), abs(r_3)) < 1e-13
        assert op.divergence_residual(ctx10, b) < 1e-13


def test_coupled_blocks_recovers_a_permuted_block_diagonal_matrix():
    rng = np.random.default_rng(21)
    sizes = (4, 7, 1, 5)
    n = sum(sizes)
    mat = np.zeros((n, n), dtype=np.complex128)
    start = 0
    for size in sizes:
        mat[start : start + size, start : start + size] = rng.standard_normal((size, size))
        start += size
    perm = rng.permutation(n)
    shuffled = mat[np.ix_(perm, perm)]
    # unknown i of the shuffled matrix is unknown perm[i] of the ordered one
    owner = np.repeat(np.arange(len(sizes)), sizes)[perm]
    want = sorted(tuple(np.flatnonzero(owner == b)) for b in range(len(sizes)))

    got = op.coupled_blocks(shuffled)
    assert [tuple(idx) for idx in got] == want
    assert [tuple(idx) for idx in got] == sorted(tuple(idx) for idx in got)

    # any nonzero couples, however small: one entry merges two blocks
    i, j = want[0][0], want[-1][-1]
    shuffled[i, j] = 1e-300
    merged = op.coupled_blocks(shuffled)
    assert len(merged) == len(sizes) - 1
    assert tuple(merged[0]) == tuple(sorted(want[0] + want[-1]))


def test_coupled_blocks_joins_the_unknowns_of_each_row():
    rows = np.zeros((2, 6))
    rows[0, [0, 4]] = 1.0
    rows[1, [4, 2]] = -2.0
    got = op.coupled_blocks(rows=rows)
    assert [tuple(idx) for idx in got] == [(0, 2, 4), (1,), (3,), (5,)]
    square = np.eye(6)
    square[5, 4] = 3.0  # one direction of coupling is enough
    both = op.coupled_blocks(square, rows)
    assert [tuple(idx) for idx in both] == [(0, 2, 4, 5), (1,), (3,)]


@pytest.mark.parametrize("background,n_blocks", [("bg", 2), ("mixed_bg", 1)])
def test_compress_by_blocks_keeps_every_block(request, background, n_blocks):
    # V* A V is the direct sum of the blocks V_k* A_k V_k: the blocks hold
    # every column of V and all of its Frobenius norm.  The remainder splits
    # into the two parities at the canonical background and stays whole at
    # the mixed one.
    ctx = lattice_mode_context(request.getfixturevalue(background), (2, 0))
    m = 24
    rem = op.assemble_matrix(lambda b: op.induction_remainder(ctx, b), m)
    v = fourier_basis(op.constraint_null_basis, ctx, m)
    blocks = op.compression_blocks(rem, v)
    assert len(blocks) == n_blocks
    compressed = op.compress_by_blocks(rem, v, blocks)
    assert sum(c.shape[0] for c in compressed) == v.shape[1]
    whole = v.conj().T @ rem @ v
    frobenius = np.sqrt(sum(np.linalg.norm(c) ** 2 for c in compressed))
    assert abs(frobenius - np.linalg.norm(whole)) <= 1e-12 * np.linalg.norm(whole)
    assert max(np.linalg.norm(c, 2) for c in compressed) == pytest.approx(
        np.linalg.norm(whole, 2), rel=1e-12
    )


@pytest.mark.parametrize("background", ["bg", "mixed_bg"])
@pytest.mark.parametrize("m_eps", [2, 8, 32])
def test_drive_free_remainder_minus_drive_is_the_remainder(request, background, m_eps):
    ctx = lattice_mode_context(request.getfixturevalue(background), (m_eps, 0))
    m = 32

    def remainder_without_drive(b):
        # induction_remainder's field arithmetic before the drive is subtracted
        eps = ctx.eps
        return (eps**2) * op._balanced_induction(ctx, b) - (1.0 / eps) * op.fast_skew(ctx, b)

    remainder = op.assemble_matrix(lambda b: op.induction_remainder(ctx, b), m)
    drive_free = op.assemble_matrix(remainder_without_drive, m)
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx, b), m)
    assert np.array_equal(drive_free - drive, remainder)


@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1)])
def test_constraint_null_basis_matches_the_whole_matrix_null_space(request, background, mode):
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    m = 64
    rows = op.constraint_matrix(ctx, m)
    v = fourier_basis(op.constraint_null_basis, ctx, m)
    reference = scipy.linalg.null_space(rows)
    assert v.shape == reference.shape
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-13
    assert np.linalg.norm(rows @ v, 2) <= 1e-14 * np.linalg.norm(rows, 2)
    projector = v @ v.conj().T
    assert np.max(np.abs(projector - reference @ reference.conj().T)) < 1e-13


def test_divergence_null_basis_matches_the_whole_matrix_null_space(ctx10):
    rows = op.divergence_matrix(ctx10, 16)
    v = fourier_basis(op.divergence_null_basis, ctx10, 16)
    reference = scipy.linalg.null_space(rows)
    assert v.shape == reference.shape
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-13
    assert np.max(np.abs(v @ v.conj().T - reference @ reference.conj().T)) < 1e-13


def test_constraint_null_basis_columns_respect_the_parity_split(ctx10):
    # every column lives on one parity of the vertical wavenumber, so the
    # basis splits along the generator's blocks at the canonical background
    m = 16
    v = fourier_basis(op.constraint_null_basis, ctx10, m)
    n = np.tile(np.arange(-m, m + 1), 3)
    on_even = np.any(v[n % 2 == 0] != 0, axis=0)
    on_odd = np.any(v[n % 2 == 1] != 0, axis=0)
    assert not np.any(on_even & on_odd)


# ----------------------------------------------------------------------
# velocities and the induction right-hand side
# ----------------------------------------------------------------------


def test_interior_velocity_is_divergence_free_and_zero_mean(ctx10):
    rng = np.random.default_rng(12)
    b = random_field(10, rng)
    u = magnetostrophic_velocity(ctx10, b.resample(EXACT))
    x1, x2 = ctx10.xi
    div = 1j * x1 * u.c1 + 1j * x2 * u.c2 + u.c3.derivative()
    assert div.norm() < 1e-12
    for c in u.components:
        assert abs(c.mean()) < 1e-16


def test_balancing_velocity_is_constant_and_transverse(ctx10):
    rng = np.random.default_rng(13)
    b = random_field(10, rng)
    v = geostrophic_velocity(ctx10, b)
    assert v.shape == (3,)
    e = np.asarray(ctx10.eta)
    assert abs(e @ v[:2]) < 1e-14


def test_balancing_velocity_freezes_the_taylor_residual(ctx10, v_con64):
    # on constrained data the full right-hand side must keep both averaged
    # residuals at zero: that is what the balancing velocity is for
    from taylorlab.evolution import project_constraints

    rng = np.random.default_rng(14)
    b = project_constraints(random_field(64, rng), v_con64)
    rhs = op.full_induction(ctx10, b, include_geostrophic=True)
    r_perp, r_3 = op.taylor_residual(ctx10, rhs)
    assert max(abs(r_perp), abs(r_3)) < 1e-12
    # without it the horizontal residual leaks
    rhs_off = op.full_induction(ctx10, b, include_geostrophic=False)
    r_perp_off, _ = op.taylor_residual(ctx10, rhs_off)
    assert abs(r_perp_off) > 1e-6


def test_geostrophic_term_is_invisible_on_constrained_fields_at_canonical(ctx10):
    # special degeneracy of the circularly polarized background: the
    # constrained compression of the generator is identical with the
    # balancing velocity on or off (the pairing vanishes identically)
    m = 24
    v = fourier_basis(op.constraint_null_basis, ctx10, m)
    g_on = op.assemble_matrix(lambda b: op.full_induction(ctx10, b, True), m)
    g_off = op.assemble_matrix(lambda b: op.full_induction(ctx10, b, False), m)
    diff = g_on - g_off
    assert np.linalg.norm(diff, 2) > 1.0
    assert np.linalg.norm(v.conj().T @ diff @ v, 2) < 1e-12


def test_geostrophic_term_matters_at_alt_background(alt_bg):
    ctx = lattice_mode_context(alt_bg, (1, 0))
    m = 24
    v = fourier_basis(op.constraint_null_basis, ctx, m)
    g_on = op.assemble_matrix(lambda b: op.full_induction(ctx, b, True), m)
    g_off = op.assemble_matrix(lambda b: op.full_induction(ctx, b, False), m)
    diff = g_on - g_off
    assert np.linalg.norm(v.conj().T @ diff @ v, 2) > 1.0


def test_curl_of_gradient_vanishes(ctx10):
    rng = np.random.default_rng(15)
    f = random_field(8, rng).c1
    x1, x2 = ctx10.xi
    grad = op.ModeField.from_components((1j * x1 * f, 1j * x2 * f, f.derivative()))
    assert op.curl_mode(ctx10, grad).norm() < 1e-12


# ----------------------------------------------------------------------
# the scaled decomposition and dense assembly
# ----------------------------------------------------------------------


def test_scaled_decomposition_is_exact(bg):
    rng = np.random.default_rng(16)
    for m in [(1, 0), (2, 1)]:
        ctx = lattice_mode_context(bg, m)
        b = random_field(12, rng).resample(48)  # wide enough for every product
        lhs = (ctx.eps**3) * (op.full_induction(ctx, b) - op.diffusion_term(ctx, b))
        rhs = (
            op.fast_skew(ctx, b)
            + ctx.eps * op.symmetric_drive(ctx, b)
            + ctx.eps * op.induction_remainder(ctx, b)
        )
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


def test_assembled_matrix_reproduces_functional_application(ctx10):
    m = 16
    mat = op.assemble_matrix(lambda b: op.symmetric_drive(ctx10, b), m)
    rng = np.random.default_rng(17)
    for _ in range(5):
        b = random_field(m, rng)
        via_matrix = mat @ op.field_to_vector(b)
        direct = op.field_to_vector(op.symmetric_drive(ctx10, b))
        denom = max(1.0, float(np.linalg.norm(direct)))
        assert np.linalg.norm(via_matrix - direct) < 1e-11 * denom


def test_operator_matrix_apply_and_vector_round_trip(ctx10):
    m = 8
    mat = op.assemble_matrix(lambda b: op.fast_skew(ctx10, b), m)
    assert isinstance(mat, np.ndarray) and not mat.flags.writeable
    rng = np.random.default_rng(18)
    b = random_field(m, rng)
    via_matrix = op.vector_to_field(mat @ op.field_to_vector(b))
    assert (via_matrix - op.fast_skew(ctx10, b)).norm() < 1e-13
    assert op.field_to_vector(op.vector_to_field(op.field_to_vector(b))).size == 3 * (2 * m + 1)
    with pytest.raises(ValueError):
        op.vector_to_field(np.zeros(5))


def test_window_is_read_from_the_stacked_length():
    assert [op._window(3 * (2 * m + 1)) for m in (0, 1, 8, 64)] == [0, 1, 8, 64]
    # not a multiple of 3, or 3 times an even number: no window M fits
    for n in (0, 1, 5, 6, 12, 386, 388):
        with pytest.raises(ValueError, match="3\\(2M\\+1\\)"):
            op._window(n)
        with pytest.raises(ValueError):
            op.vector_to_field(np.zeros((n, 2)))


def test_vector_to_field_reads_the_window_of_a_block():
    m, k = 5, 4
    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((3 * (2 * m + 1), k)) + 1j * rng.standard_normal((3 * (2 * m + 1), k))
    block = op.vector_to_field(vecs)
    assert block.truncation == m
    assert all(c.coeffs.shape == (2 * m + 1, k) for c in block.components)
    assert np.array_equal(op.field_to_vector(block), vecs)


# ----------------------------------------------------------------------
# batched assembly against the per-column oracle
# ----------------------------------------------------------------------


def criterion_10_operators(ctx, include_geostrophic):
    """The nine operators of acceptance criterion 10."""
    return {
        "fast skew": lambda b: op.fast_skew(ctx, b),
        "symmetric drive": lambda b: op.symmetric_drive(ctx, b),
        "skew multiplication": lambda b: op.magnetostrophic_skew(ctx, b),
        "symmetric multiplication": lambda b: op.magnetostrophic_symmetric(ctx, b),
        "remainder": lambda b: op.induction_remainder(ctx, b),
        "full induction": lambda b: op.full_induction(
            ctx, b, include_geostrophic=include_geostrophic
        ),
        "diffusion": lambda b: op.diffusion_term(ctx, b),
        "profile projection": lambda b: op.proj_profile(ctx, b),
        "direction-orthogonal projection": lambda b: op.proj_direction_perp(ctx, b),
    }


@pytest.mark.parametrize("include_geostrophic", [True, False])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1), (32, 0)])
@pytest.mark.parametrize("background", ["bg", "alt_bg"])
def test_batched_assembly_matches_per_column_oracle(
    request, background, mode, include_geostrophic
):
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    m = 16  # the window of criterion 10
    single = random_field(m, np.random.default_rng(19))
    block = op.vector_to_field(np.column_stack([op.field_to_vector(single)] * 2))
    for name, fn in criterion_10_operators(ctx, include_geostrophic).items():
        if not include_geostrophic and name != "full induction":
            continue  # the lane only reaches the full induction operator
        # the window rule: an operator returns a field at its input's window
        assert fn(single).truncation == fn(block).truncation == m, name
        batched = op.assemble_matrix(fn, m)
        oracle = assemble_by_columns(fn, m)
        # relative with the floor of 1 that criterion 10 uses: symmetric
        # multiplication cancels to rounding noise at the canonical background
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(batched - oracle)) <= 1e-13 * scale, name


@pytest.mark.parametrize("m", [16, 40])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1), (0, 3)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg", "wide_bg"])
def test_narrowed_balancing_window_assembles_bitwise_equal_matrices(
    request, monkeypatch, background, mode, m
):
    # the balancing velocity reads the unbalanced right-hand side g only
    # within the background's window; reading all of g changes no bit.
    # wide_bg's profiles reach the edge of the background's window
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    operators = (
        lambda b: op.full_induction(ctx, b, include_geostrophic=True),
        lambda b: op.induction_remainder(ctx, b),
    )
    narrowed = [op.assemble_matrix(fn, m) for fn in operators]
    monkeypatch.setattr(op, "_balancing_velocity", balancing_velocity_full_window)
    for fn, mat in zip(operators, narrowed):
        assert np.array_equal(op.assemble_matrix(fn, m), mat)


@pytest.mark.parametrize("m", [16, 40])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1), (8, 0), (0, 3)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg", "wide_bg"])
def test_balancing_term_matches_the_velocity_route(request, background, mode, m):
    # the balancing velocity added to u_m before the induction term is
    # formed, read from g at full windows, against its term added to the
    # unbalanced right-hand side: equal to roundoff, and bitwise at the
    # canonical background's modes (m, 0)
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)

    def by_velocity(b):
        return balanced_induction_by_velocity(ctx, b) + op.diffusion_term(ctx, b)

    def remainder_by_velocity(b):
        ind = balanced_induction_by_velocity(ctx, b)
        drive_free = ind * ctx.eps**2 - op.fast_skew(ctx, b) * (1.0 / ctx.eps)
        return drive_free - op.symmetric_drive(ctx, b)

    pairs = (
        (lambda b: op.full_induction(ctx, b, include_geostrophic=True), by_velocity),
        (lambda b: op.induction_remainder(ctx, b), remainder_by_velocity),
    )
    for fn, oracle in pairs:
        got, want = op.assemble_matrix(fn, m), op.assemble_matrix(oracle, m)
        bound = np.abs(want).max() * len(want) * np.finfo(float).eps
        assert np.abs(got - want).max() <= bound
        if background == "bg" and mode[1] == 0:
            assert np.array_equal(got, want)


def test_assemble_matrix_applies_the_operator_once_per_component(ctx10):
    calls = []

    def counted(b):
        calls.append(b.c1.coeffs.shape)
        return op.full_induction(ctx10, b)

    op.assemble_matrix(counted, 12)
    assert calls == [(25, 25)] * 3


@pytest.mark.parametrize("mode", [(2, 0), (32, 0)])
def test_profile_projection_is_the_rank_3_product(bg, mode):
    # proj_profile = E G_hat: E holds e0 in each component slot, G_hat the
    # profile averages; the resonant-term radius relies on this factorization
    ctx = lattice_mode_context(bg, mode)
    m = 64
    e = op.field_to_vector(op.profile_fields(ctx, m))
    zero = FourierSeries.zeros(m)
    identity = FourierSeries(np.eye(2 * m + 1))
    g_hat = np.hstack(
        [
            op.profile_averages(ctx, op.ModeField(*(identity if j == c else zero for j in range(3))))
            for c in range(3)
        ]
    )
    assert e.shape == (3 * (2 * m + 1), 3) and g_hat.shape == (3, 3 * (2 * m + 1))
    profile = op.assemble_matrix(lambda b: op.proj_profile(ctx, b), m)
    assert np.array_equal(e @ g_hat, profile)


# ----------------------------------------------------------------------
# the pair transform and J-fixed constraint bases
# ----------------------------------------------------------------------


def test_pair_transform_is_a_unitary_onto_j_fixed_vectors():
    m = 4
    pairs = op.PairTransform(m)
    u = pairs.lift(np.eye(3 * (2 * m + 1)))
    assert np.allclose(u.conj().T @ u, np.eye(len(u)), rtol=0, atol=1e-15)
    assert np.array_equal(apply_j(m, u), u)
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((5, len(u))) + 1j * rng.standard_normal((5, len(u)))
    mixed = rows @ u
    expected = np.vstack([mixed.real, mixed.imag])
    assert np.allclose(pairs.real_rows(rows), expected, rtol=0, atol=1e-14)
    # each pair's row is true at n and -n of one component
    n = np.tile(np.arange(-m, m + 1), 3)
    component = np.repeat(np.arange(3), 2 * m + 1)
    for row in pairs.pair_rows():
        (i, j) = np.flatnonzero(row)
        assert n[i] == -n[j] != 0 and component[i] == component[j]
    assert len(pairs.pair_rows()) == 3 * m


def test_pair_transform_maps_into_and_out_of_the_unitary_basis():
    m = 4
    pairs = op.PairTransform(m)
    u = pairs.lift(np.eye(3 * (2 * m + 1)))
    rng = np.random.default_rng(5)
    a = rng.standard_normal((len(u), len(u))) + 1j * rng.standard_normal((len(u), len(u)))
    assert np.allclose(pairs.lower(a), u.conj().T @ a, rtol=0, atol=1e-14)
    # pair_form returns the real part and the largest |imaginary part| per row
    got, want = pairs.pair_form(a), u.conj().T @ a @ u
    assert np.allclose(got[0], want.real, rtol=0, atol=1e-13)
    assert np.allclose(got[1], np.abs(want.imag).max(axis=1), rtol=0, atol=1e-13)
    # complex coordinates are lifted by parts, and lower undoes lift
    assert np.allclose(pairs.lift(a), u @ a, rtol=0, atol=1e-14)
    assert np.allclose(pairs.lift(pairs.lower(a)), a, rtol=0, atol=1e-14)
    # an operator commuting with J is real in the unitary basis, and so are
    # the coordinates of J-fixed vectors
    sym = a + conjugate_by_j(m, a)
    assert pairs.pair_form(sym)[1].max() < 1e-14
    fixed = a + apply_j(m, a)
    assert np.abs(pairs.lower(fixed).imag).max() < 1e-14


@pytest.mark.parametrize("key", [(1, 0), (2, 1)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
@pytest.mark.parametrize("which", ["constraint", "divergence"])
def test_null_bases_are_fixed_by_j_bitwise(request, background, key, which):
    m = 64
    n = 3 * (2 * m + 1)
    eps = np.finfo(float).eps
    ctx = lattice_mode_context(request.getfixturevalue(background), key)
    rows = getattr(op, f"{which}_matrix")(ctx, m)
    c, w = getattr(op, f"{which}_null_basis")(ctx, m)
    pairs = op.PairTransform(m)
    basis = pairs.lift(c)
    assert np.array_equal(apply_j(m, basis), basis)
    assert basis.shape == scipy.linalg.null_space(rows).shape
    # C and its complement W, from one SVD per block, are together square and
    # orthonormal
    q = np.hstack([c, w])
    assert q.shape == (n, n)
    assert np.abs(q.T @ q - np.eye(n)).max() <= n * eps
    # C solves the real rows to the rank rule's floor, max(shape) eps sigma_1
    real = pairs.real_rows(rows)
    floor = max(real.shape) * eps * np.linalg.norm(real, 2)
    assert np.abs(real @ c).max() <= floor
