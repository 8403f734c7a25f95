import numpy as np
import pytest

from taylorlab import operators as op
from taylorlab.background import lattice_mode_context
from taylorlab.errors import ConstraintViolated
from taylorlab.fourier import FourierSeries, allclose

from conftest import assemble_by_columns, random_field

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
    out = op.magnetostrophic_skew(ctx10, b, out_truncation=8)
    expected = FourierSeries.from_triples(
        [[1, 1.0 / (16 * np.pi), 0.0], [3, 1.0 / (16 * np.pi), 0.0]], truncation=8
    )
    assert out.c1.norm() < 1e-16
    assert allclose(out.c2, expected, tol=1e-15)
    assert out.c3.norm() < 1e-16


def test_skew_is_anti_hermitian(ctx10):
    rng = np.random.default_rng(0)
    a = random_field(8, rng)
    b = random_field(8, rng)
    left = inner(op.magnetostrophic_skew(ctx10, a, out_truncation=EXACT), b.resample(EXACT))
    right = inner(a.resample(EXACT), op.magnetostrophic_skew(ctx10, b, out_truncation=EXACT))
    assert abs(left + right) < 1e-13


def test_skew_annihilates_direction_aligned_fields(ctx10):
    rng = np.random.default_rng(1)
    s = random_field(8, rng).c1
    e1, e2 = ctx10.eta
    aligned = op.ModeField(e1 * s, e2 * s, FourierSeries.zeros(8))
    assert op.magnetostrophic_skew(ctx10, aligned, out_truncation=EXACT).norm() < 1e-15


def test_fast_skew_is_the_profile_orthogonal_compression(ctx10):
    rng = np.random.default_rng(2)
    b = random_field(10, rng)
    direct = op.fast_skew(ctx10, b, out_truncation=EXACT)
    composed = op.proj_profile_perp(
        ctx10,
        op.magnetostrophic_skew(
            ctx10, op.proj_profile_perp(ctx10, b), out_truncation=EXACT
        ),
    )
    assert (direct - composed).norm() < 1e-14


def test_fast_skew_kills_profile_aligned_fields(ctx10):
    m = 10
    e0 = ctx10.e0.resample(m)
    b = op.ModeField(2.0 * e0, -1j * e0, 0.5 * e0)
    assert op.fast_skew(ctx10, b, out_truncation=EXACT).norm() < 1e-15


# ----------------------------------------------------------------------
# symmetric parts
# ----------------------------------------------------------------------


def test_local_symmetric_part_is_hermitian(ctx10):
    rng = np.random.default_rng(3)
    a = random_field(8, rng)
    b = random_field(8, rng)
    left = inner(op.magnetostrophic_symmetric(ctx10, a, out_truncation=EXACT), b.resample(EXACT))
    right = inner(a.resample(EXACT), op.magnetostrophic_symmetric(ctx10, b, out_truncation=EXACT))
    assert abs(left - right) < 1e-13


def test_local_symmetric_part_vanishes_at_canonical(ctx10):
    # the circularly polarized background has beta_perp' = 2 pi beta in
    # every direction, so the two Dinv terms cancel identically
    rng = np.random.default_rng(4)
    b = random_field(10, rng)
    assert op.magnetostrophic_symmetric(ctx10, b, out_truncation=EXACT).norm() < 1e-14


def test_local_symmetric_part_nonzero_at_alt(alt_bg):
    ctx = lattice_mode_context(alt_bg, (1, 0))
    rng = np.random.default_rng(5)
    b = random_field(10, rng)
    assert op.magnetostrophic_symmetric(ctx, b, out_truncation=EXACT).norm() > 1e-3


def test_drive_is_hermitian_only_on_the_constrained_subspace(ctx10):
    m = 16
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx10, b, out_truncation=m), m)
    gap_full = np.linalg.norm(drive.entries - drive.entries.conj().T, 2)
    assert gap_full > 0.1  # the constraint-substituted form is not globally symmetric
    v = op.constraint_null_basis(ctx10, m)
    comp = v.conj().T @ drive.entries @ v
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
        m_perp, m_3 = op.taylor_residual_curl_form(ctx, b)
        assert abs(m_perp - ctx.xi_norm * r_perp) < 1e-12
        assert abs(m_3 - 1j * ctx.xi_norm * r_3) < 1e-12


def test_profile_projection_formula_on_constrained_fields(ctx10, v_con64):
    from taylorlab.evolution import project_constraints

    rng = np.random.default_rng(10)
    for _ in range(5):
        b = project_constraints(ctx10, random_field(64, rng), v_con64)
        direct = op.proj_profile(ctx10, b)
        via = op.proj_profile_from_constraint(ctx10, b)
        assert (direct - via).norm() < 1e-12 * b.norm()


def test_profile_projection_formula_rejects_unconstrained(ctx10):
    rng = np.random.default_rng(11)
    b = random_field(16, rng)
    with pytest.raises(ConstraintViolated):
        op.proj_profile_from_constraint(ctx10, b)


def test_constraint_null_basis_shape_and_membership(ctx10):
    m = 12
    w = 2 * m + 1
    v = op.constraint_null_basis(ctx10, m)
    assert v.shape == (3 * w, 2 * w - 2)
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12
    rows = op.constraint_matrix(ctx10, m)
    assert np.max(np.abs(rows @ v)) < 1e-12
    for col in (0, v.shape[1] // 2, v.shape[1] - 1):
        b = op.vector_to_field(v[:, col], m)
        r_perp, r_3 = op.taylor_residual(ctx10, b)
        assert max(abs(r_perp), abs(r_3)) < 1e-13
        assert op.divergence_residual(ctx10, b) < 1e-13


# ----------------------------------------------------------------------
# velocities and the induction right-hand side
# ----------------------------------------------------------------------


def test_interior_velocity_is_divergence_free_and_zero_mean(ctx10):
    rng = np.random.default_rng(12)
    b = random_field(10, rng)
    u = op.magnetostrophic_velocity(ctx10, b, out_truncation=EXACT)
    x1, x2 = ctx10.xi
    div = 1j * x1 * u.c1 + 1j * x2 * u.c2 + u.c3.derivative()
    assert div.norm() < 1e-12
    for c in u.components:
        assert abs(c.mean()) < 1e-16


def test_balancing_velocity_is_constant_and_transverse(ctx10):
    rng = np.random.default_rng(13)
    b = random_field(10, rng)
    v = op.geostrophic_velocity(ctx10, b)
    assert v.shape == (3,)
    e = np.asarray(ctx10.eta)
    assert abs(e @ v[:2]) < 1e-14


def test_balancing_velocity_freezes_the_taylor_residual(ctx10, v_con64):
    # on constrained data the full right-hand side must keep both averaged
    # residuals at zero: that is what the balancing velocity is for
    from taylorlab.evolution import project_constraints

    rng = np.random.default_rng(14)
    b = project_constraints(ctx10, random_field(64, rng), v_con64)
    rhs = op.full_induction(ctx10, b, include_geostrophic=True, out_truncation=64)
    r_perp, r_3 = op.taylor_residual(ctx10, rhs)
    assert max(abs(r_perp), abs(r_3)) < 1e-12
    # without it the horizontal residual leaks
    rhs_off = op.full_induction(ctx10, b, include_geostrophic=False, out_truncation=64)
    r_perp_off, _ = op.taylor_residual(ctx10, rhs_off)
    assert abs(r_perp_off) > 1e-6


def test_geostrophic_term_is_invisible_on_constrained_fields_at_canonical(ctx10):
    # special degeneracy of the circularly polarized background: the
    # constrained compression of the generator is identical with the
    # balancing velocity on or off (the pairing vanishes identically)
    m = 24
    v = op.constraint_null_basis(ctx10, m)
    g_on = op.assemble_matrix(lambda b: op.full_induction(ctx10, b, True, out_truncation=m), m)
    g_off = op.assemble_matrix(lambda b: op.full_induction(ctx10, b, False, out_truncation=m), m)
    diff = g_on.entries - g_off.entries
    assert np.linalg.norm(diff, 2) > 1.0
    assert np.linalg.norm(v.conj().T @ diff @ v, 2) < 1e-12


def test_geostrophic_term_matters_at_alt_background(alt_bg):
    ctx = lattice_mode_context(alt_bg, (1, 0))
    m = 24
    v = op.constraint_null_basis(ctx, m)
    g_on = op.assemble_matrix(lambda b: op.full_induction(ctx, b, True, out_truncation=m), m)
    g_off = op.assemble_matrix(lambda b: op.full_induction(ctx, b, False, out_truncation=m), m)
    diff = g_on.entries - g_off.entries
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
        b = random_field(12, rng)
        out = 48
        lhs = (ctx.eps**3) * (
            op.full_induction(ctx, b, out_truncation=out)
            - op.diffusion_term(ctx, b.resample(out))
        )
        rhs = (
            op.fast_skew(ctx, b, out_truncation=out)
            + ctx.eps * op.symmetric_drive(ctx, b, out_truncation=out)
            + ctx.eps * op.induction_remainder(ctx, b, out_truncation=out)
        )
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


def test_assembled_matrix_reproduces_functional_application(ctx10):
    m = 16
    mat = op.assemble_matrix(lambda b: op.symmetric_drive(ctx10, b, out_truncation=m), m)
    rng = np.random.default_rng(17)
    for _ in range(5):
        b = random_field(m, rng)
        via_matrix = mat.entries @ op.field_to_vector(b)
        direct = op.field_to_vector(op.symmetric_drive(ctx10, b, out_truncation=m))
        denom = max(1.0, float(np.linalg.norm(direct)))
        assert np.linalg.norm(via_matrix - direct) < 1e-11 * denom


def test_operator_matrix_apply_and_vector_round_trip(ctx10):
    m = 8
    mat = op.assemble_matrix(lambda b: op.fast_skew(ctx10, b, out_truncation=m), m, label="fast")
    rng = np.random.default_rng(18)
    b = random_field(m, rng)
    assert (mat.apply(b) - op.fast_skew(ctx10, b, out_truncation=m)).norm() < 1e-13
    assert op.field_to_vector(op.vector_to_field(op.field_to_vector(b), m)).size == 3 * (2 * m + 1)
    with pytest.raises(ValueError):
        op.vector_to_field(np.zeros(5), m)


# ----------------------------------------------------------------------
# batched assembly against the per-column oracle
# ----------------------------------------------------------------------


def criterion_10_operators(ctx, m, include_geostrophic):
    """The nine operators of acceptance criterion 10 at window m."""
    return {
        "fast skew": lambda b: op.fast_skew(ctx, b, out_truncation=m),
        "symmetric drive": lambda b: op.symmetric_drive(ctx, b, out_truncation=m),
        "skew multiplication": lambda b: op.magnetostrophic_skew(ctx, b, out_truncation=m),
        "symmetric multiplication": lambda b: op.magnetostrophic_symmetric(
            ctx, b, out_truncation=m
        ),
        "remainder": lambda b: op.induction_remainder(ctx, b, out_truncation=m),
        "full induction": lambda b: op.full_induction(
            ctx, b, include_geostrophic=include_geostrophic, out_truncation=m
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
    for name, fn in criterion_10_operators(ctx, m, include_geostrophic).items():
        if not include_geostrophic and name != "full induction":
            continue  # the lane only reaches the full induction operator
        batched = op.assemble_matrix(fn, m).entries
        oracle = assemble_by_columns(fn, m)
        # relative with the floor of 1 that criterion 10 uses: symmetric
        # multiplication cancels to rounding noise at the canonical background
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(batched - oracle)) <= 1e-13 * scale, name


def test_assemble_matrix_applies_the_operator_once_per_component(ctx10):
    calls = []

    def counted(b):
        calls.append(b.c1.coeffs.shape)
        return op.full_induction(ctx10, b, out_truncation=12)

    op.assemble_matrix(counted, 12)
    assert calls == [(25, 25)] * 3
