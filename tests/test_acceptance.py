"""Acceptance suite: every primary numerical claim at its stated tolerance.

One criterion per test, one printed verdict line per criterion (visible
with ``pytest tests/test_acceptance.py -v -s``).  These tests recompute
each quantity from the library primitives; the per-module suites hold the
fine-grained oracle comparisons and frozen values.
"""

import numpy as np
import pytest

from taylorlab import evolution as evo
from taylorlab import operators as op
from taylorlab import spectral
from taylorlab.background import lattice_mode_context
from taylorlab.checks import fit_loglog_slope, hermitian_part_norm, no_upward_trend, numerical_radius
from taylorlab.fourier import FourierSeries
from taylorlab.normal_form import build_normal_form

from conftest import (
    PROJECTION_TOL,
    RESONANCE_TOL,
    TAIL_GATE,
    dense_exponential,
    fourier_basis,
    propagator,
    random_field,
    start_state,
)


def _verdict(name, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {text}")
    assert ok, f"{name}: {text}"


# ----------------------------------------------------------------------
# shared expensive objects
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def nf80(bg):
    ctx = lattice_mode_context(bg, (8, 0))
    basis = spectral.build_eigenbasis(ctx, 16, 64, TAIL_GATE)
    return build_normal_form(basis, 8, RESONANCE_TOL)


@pytest.fixture(scope="module")
def band_study(ctx10):
    basis = spectral.build_eigenbasis(ctx10, 40, 160, TAIL_GATE)
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx10, b), 160)
    v_div = fourier_basis(op.divergence_null_basis, ctx10, 160)
    return basis, drive, v_div


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_criterion_01_closed_form_eigenpairs(ctx10):
    basis = spectral.build_eigenbasis(ctx10, 8, 64, TAIL_GATE)
    core = spectral.assemble_core_matrix(ctx10, 64)
    w, vecs = np.linalg.eig(core)
    worst_val = worst_vec = 0.0
    for k in [k for k in range(-8, 9) if k != 0]:
        mu = basis.eigenvalue_mu(k)
        idx = int(np.argmin(np.abs(w - mu)))
        worst_val = max(worst_val, abs(w[idx] - mu) / abs(mu))
        numeric = vecs[:, idx] / np.linalg.norm(vecs[:, idx])
        overlap = abs(np.vdot(basis.profile(k).coeffs, numeric))
        worst_vec = max(worst_vec, np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
    residuals = spectral.verify_on_basis(basis)
    worst_res = max(residuals.values())
    mu1_err = abs(basis.eigenvalue_mu(1) - (-1j / (4 * np.pi)))
    ok = worst_val < 1e-8 and worst_vec < 1e-6 and worst_res < 1e-8 and mu1_err < 1e-15
    _verdict(
        "closed-form eigenpairs",
        ok,
        f"eigenvalue {worst_val:.3e} (tol 1e-8), eigenvector {worst_vec:.3e} "
        f"(tol 1e-6), basis residual {worst_res:.3e} (tol 1e-8), "
        f"gravest eigenvalue off closed form by {mu1_err:.3e}",
    )


def test_criterion_02_structural_identities(bg, alt_bg, ctx10, local64):
    fast = op.assemble_matrix(lambda b: op.fast_skew(ctx10, b), 64)
    anti = float(np.linalg.norm(fast + fast.conj().T, 2))

    herm = float(np.linalg.norm(local64 - local64.conj().T, 2))
    # the multiplication part is identically zero for the circularly
    # polarized background, so also measure at a background where it is not
    ctx_alt = lattice_mode_context(alt_bg, (1, 0))
    local_alt = op.assemble_matrix(lambda b: op.magnetostrophic_symmetric(ctx_alt, b), 32)
    herm_alt = float(np.linalg.norm(local_alt - local_alt.conj().T, 2))
    assert float(np.linalg.norm(local_alt, 2)) > 1e-3  # non-vacuous

    rng = np.random.default_rng(20)
    sandwich = commute = 0.0
    for _ in range(10):
        b = random_field(16, rng)
        mid = op.magnetostrophic_skew(ctx10, op.proj_profile(ctx10, b))
        sandwich = max(sandwich, op.proj_profile(ctx10, mid).norm() / b.norm())
        ab = op.proj_direction(ctx10, op.proj_profile(ctx10, b))
        ba = op.proj_profile(ctx10, op.proj_direction(ctx10, b))
        commute = max(commute, (ab - ba).norm() / b.norm())

    worst = max(anti, herm, herm_alt, sandwich, commute)
    _verdict(
        "structural identities",
        worst < 1e-12,
        f"skew anti-Hermiticity {anti:.3e}, multiplication Hermiticity {herm:.3e} "
        f"(also {herm_alt:.3e} at a background where it does not vanish), "
        f"profile-compressed skew {sandwich:.3e}, projector commutation "
        f"{commute:.3e} (all tol 1e-12)",
    )


def test_criterion_03_constrained_projection(bg):
    rng = np.random.default_rng(21)
    worst_res = worst_formula = 0.0
    per_mode = 34  # three directions, >= 100 fields total
    for key in [(1, 0), (0, 1), (1, 1)]:
        ctx = lattice_mode_context(bg, key)
        basis = fourier_basis(op.constraint_null_basis, ctx, 24)
        for _ in range(per_mode):
            proj = evo.project_constraints(evo.random_mode_field(24, rng), basis)
            r_perp, r_3 = op.taylor_residual(ctx, proj)
            worst_res = max(worst_res, abs(r_perp), abs(r_3), op.divergence_residual(ctx, proj))
            via = op.proj_profile_from_constraint(ctx, proj, PROJECTION_TOL)
            gap = (op.proj_profile(ctx, proj) - via).norm()
            worst_formula = max(worst_formula, gap / max(proj.norm(), 1e-300))
    ok = worst_res < 1e-10 and worst_formula < 1e-10
    _verdict(
        "constrained projection",
        ok,
        f"3x{per_mode} fields, residual {worst_res:.3e}, profile formula "
        f"{worst_formula:.3e} (tol 1e-10)",
    )


def test_criterion_04_resonance_vanishing(nf80):
    worst = max((row[4] for row in nf80.resonance_rows()), default=0.0)
    _verdict(
        "resonance vanishing",
        worst < 1e-8,
        f"max right-hand side over {len(list(nf80.resonance_rows()))} "
        f"coincident pairs {worst:.3e} (tol 1e-8)",
    )


def test_criterion_05_conjugation_commutator(nf80):
    res = nf80.commutator_residual
    _verdict("conjugation commutator", res < 1e-8, f"residual {res:.3e} (tol 1e-8)")


def test_criterion_06_remainder_and_drive_scalings(bg):
    rows = []
    for m in (2, 8, 32):
        ctx = lattice_mode_context(bg, (m, 0))
        drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx, b), 64)
        perp = op.assemble_matrix(lambda b: op.proj_direction_perp(ctx, b), 64)
        remainder = op.assemble_matrix(lambda b: op.induction_remainder(ctx, b), 64)
        local = op.assemble_matrix(lambda b: op.magnetostrophic_symmetric(ctx, b), 64)
        profile = op.assemble_matrix(lambda b: op.proj_profile(ctx, b), 64)
        v_div = fourier_basis(op.divergence_null_basis, ctx, 64)
        v_con = fourier_basis(op.constraint_null_basis, ctx, 64)
        diff = drive - perp @ drive @ perp
        c2 = float(np.linalg.norm(v_div.conj().T @ diff @ v_div, 2))
        rem_form = hermitian_part_norm(v_con.conj().T @ remainder @ v_con) / ctx.eps
        t_mat = (
            perp @ profile @ local @ profile @ perp
        ) / ctx.eps
        s_rad = numerical_radius(v_con.conj().T @ t_mat @ v_con)
        rows.append((ctx.eps, c2, rem_form, s_rad))
    slope = fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    rem_max, rem_bound = no_upward_trend([r[2] for r in rows], slack=1.25)
    s_max, s_bound = no_upward_trend([r[3] for r in rows], slack=1.25)
    rem_ok, s_ok = rem_max <= rem_bound, s_max <= s_bound
    ok = slope >= 0.7 and rem_ok and s_ok
    _verdict(
        "remainder and drive scalings",
        ok,
        f"off-direction slope {slope:.3f} (min 0.7), remainder/eps "
        f"{[round(r[2], 3) for r in rows]} bounded={rem_ok}, resonant-term radius "
        f"max {max(r[3] for r in rows):.3e} bounded={s_ok}",
    )


def test_criterion_07_band_projector_scalings(band_study):
    basis, drive, v_div = band_study
    gaps = spectral.high_mode_gap(basis, (2, 4, 8, 16, 32), drive, v_div)
    derivs = [spectral.band_derivative_norm(basis, n) for n in (4, 8, 16, 32)]
    slope = fit_loglog_slope([4, 8, 16, 32], derivs)
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ratio_ok = gaps[-1] < 0.2 * gaps[0]
    slope_ok = 1.0 <= slope <= 1.7
    ok = decreasing and ratio_ok and slope_ok
    _verdict(
        "band projector scalings",
        ok,
        f"gaps {[f'{g:.3e}' for g in gaps]} decreasing={decreasing}, "
        f"gap(32)/gap(2)={gaps[-1] / gaps[0]:.3f} (< 0.2), derivative slope "
        f"{slope:.3f} (window [1.0, 1.7])",
    )


def test_criterion_08_abscissa_uniform_boundedness(bg):
    modes = [(1, 0), (2, 0), (4, 0), (8, 0), (16, 0), (32, 0)]
    rows_on, rows_off = evo.abscissa_lanes(bg, modes, truncation=64, jobs=1)
    values = [r[1] for r in rows_on]
    head = max(values[:2])
    bound = head + 0.1 * abs(head)
    tail = max(values[2:])
    ok = tail <= bound
    off_tail = max(r[1] for r in rows_off[2:])
    _verdict(
        "abscissa uniform boundedness",
        ok,
        f"restricted tail max {tail:.4f} vs bound {bound:.4f} (head + 10%); "
        f"balancing-velocity-off lane recorded, tail max {off_tail:.4f} (no bound asserted)",
    )


def test_criterion_09_constrained_evolution(bg, ctx10):
    modes = [(1, 0), (0, 1), (1, 1), (2, 1)]
    state = evo.run_evolution(
        bg, modes, t_final=0.5, output_step=0.125, truncation=64, seed=3,
        include_geostrophic=True, jobs=1,
    )
    worst_tay = max(row[4] for row in state.mode_rows)
    worst_div = max(row[5] for row in state.mode_rows)
    prop = propagator(ctx10, 64)
    h = 0.125
    once, thrice = dense_exponential(prop, h), dense_exponential(prop, 3 * h)
    semi = np.linalg.norm(once @ once @ once - thrice, 2) / np.linalg.norm(thrice, 2)
    start = start_state(bg, modes, 64, seed=3)
    c0 = start.zero_mode[0].coefficient(1)
    c1 = state.zero_mode[0].coefficient(1)
    rate_err = abs(-np.log(abs(c1 / c0)) / state.time - 4 * np.pi**2) / (4 * np.pi**2)
    empty = evo.heat_zero_mode(tuple(FourierSeries.zeros(12) for _ in range(3)), 0.5)
    zero_stays = all(p.norm() == 0.0 for p in empty)
    ok = worst_tay < 1e-7 and worst_div < 1e-7 and semi < 1e-10 and rate_err < 1e-6 and zero_stays
    _verdict(
        "constrained evolution",
        ok,
        f"4 modes to t=0.5: constraint residuals {max(worst_tay, worst_div):.3e} "
        f"(tol 1e-7), semigroup {semi:.3e} (tol 1e-10), averaged-profile decay "
        f"rate error {rate_err:.3e} (tol 1e-6), empty average stays empty: {zero_stays}",
    )


def test_criterion_10_matrix_functional_agreement(bg, ctx10):
    m = 16
    operators = {
        "fast skew": lambda b: op.fast_skew(ctx10, b),
        "symmetric drive": lambda b: op.symmetric_drive(ctx10, b),
        "skew multiplication": lambda b: op.magnetostrophic_skew(ctx10, b),
        "symmetric multiplication": lambda b: op.magnetostrophic_symmetric(ctx10, b),
        "remainder": lambda b: op.induction_remainder(ctx10, b),
        "full induction": lambda b: op.full_induction(ctx10, b),
        "diffusion": lambda b: op.diffusion_term(ctx10, b),
        "profile projection": lambda b: op.proj_profile(ctx10, b),
        "direction-orthogonal projection": lambda b: op.proj_direction_perp(ctx10, b),
    }
    matrices = {name: op.assemble_matrix(fn, m) for name, fn in operators.items()}
    rng = np.random.default_rng(22)
    worst_mat = 0.0
    worst_name = ""
    for _ in range(50):
        b = random_field(m, rng)
        vec = op.field_to_vector(b)
        for name, fn in operators.items():
            direct = op.field_to_vector(fn(b))
            gap = np.linalg.norm(matrices[name] @ vec - direct)
            gap /= max(1.0, float(np.linalg.norm(direct)))
            if gap > worst_mat:
                worst_mat, worst_name = gap, name
    ctx21 = lattice_mode_context(bg, (2, 1))
    worst_dec = 0.0
    for _ in range(5):
        b = random_field(12, rng).resample(48)  # wide enough for every product
        lhs = (ctx21.eps**3) * (op.full_induction(ctx21, b) - op.diffusion_term(ctx21, b))
        rhs = (
            op.fast_skew(ctx21, b)
            + ctx21.eps * op.symmetric_drive(ctx21, b)
            + ctx21.eps * op.induction_remainder(ctx21, b)
        )
        worst_dec = max(worst_dec, (lhs - rhs).norm() / max(1.0, lhs.norm()))
    ok = worst_mat < 1e-11 and worst_dec < 1e-12
    _verdict(
        "matrix-functional agreement",
        ok,
        f"{len(operators)} operators x 50 fields, worst {worst_mat:.3e} "
        f"({worst_name}; tol 1e-11), splitting residual {worst_dec:.3e} (tol 1e-12)",
    )
