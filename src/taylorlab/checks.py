"""Experiment runners behind the CLI: one function per experiment kind.

:func:`execute` owns the run directory: it makes ``cfg.out_dir``, resolves
the background, opens the RunReport, calls the kind's runner and writes
``report.json``.  A runner computes its quantities and records outcomes
that carry the measured values next to the tolerances they were judged
against; every table it produces goes through :func:`_write_table`, which
writes the CSV and, for the tables in ``_PLOTTABLE``, draws the chart from
that CSV, the same drawer ``taylorlab plot`` uses.

The scaling study bounds the resonant term P_perp P_prof L P_prof P_perp / eps
of the normal form by its numerical radius on constrained fields.  The
profile projection P_prof has rank 3, so the term is computed from its
factors (:func:`resonant_term_radius`) and its radius from a matrix of size
at most 6 (:func:`factored_numerical_radius`), never as a dense operator
product; the acceptance tests keep the dense route as the oracle.

Its other two per-mode quantities are compressions of the drive D and the
remainder R on the divergence-free and constrained bases V.  The off-direction
drive c2 = ||V*(D - P_perp D P_perp)V|| takes P_perp D P_perp from P_perp
applied to D's columns and then to its rows
(:func:`direction_perp_compression`); no P_perp matrix is assembled.  D,
P_perp D P_perp and the fast skew S depend on the direction eta alone, and
every eps mode (m, 0) has eta = (1, 0), so the study assembles D and S and
forms P_perp D P_perp once, not once per mode.  Per mode it assembles only
the eps-dependent part IND (:func:`operators._balanced_induction`) and forms
R = eps^2 IND - S / eps - D with the elementwise operations of the field
arithmetic, bitwise equal to assembling :func:`operators.induction_remainder`.
Both compressions run per block of :func:`operators.compression_blocks`, the
exact nonzero patterns of the matrix and the basis, and read the largest
block norm (:func:`max_over_blocks`): the matrices are block diagonal up to
a permutation, so that is the whole matrix's norm.
"""

from __future__ import annotations

import os

import numpy as np

from . import __version__
from . import evolution as evo
from . import operators as op
from . import spectral
from .background import lattice_mode_context
from .config import RunConfig, resolve_background
from .errors import ConfigError, MissingData
from .normal_form import build_normal_form
from .report import RunReport, read_csv, write_csv, write_report, write_snapshot
from .svg import line_chart


# ----------------------------------------------------------------------
# small numeric helpers shared by runners and tests
# ----------------------------------------------------------------------


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(y) against log10(x)."""
    lx = np.log10(np.asarray(xs, dtype=float))
    ly = np.log10(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


# The absolute floor of a trend bound: it keeps identically-zero sequences
# (which arise for degenerate backgrounds) from failing on rounding noise.
TREND_FLOOR = 1e-12

# The numerical radius samples theta in steps of 2 pi / RADIUS_ANGLES over
# [0, pi]; Re(e^{i (theta + pi)} M) = -Re(e^{i theta} M) covers the rest.
RADIUS_ANGLES = 72


def no_upward_trend(values, slack: float) -> tuple[float, float]:
    """(measured, bound) of the trend rule: the largest of the later values
    (the first one when there is no other), and slack times the first one
    plus ``TREND_FLOOR``.  The values show no upward trend when measured
    <= bound."""
    vals = [float(v) for v in values]
    return max(vals[1:], default=vals[0]), slack * vals[0] + TREND_FLOOR


def numerical_radius(mat: np.ndarray) -> float:
    """max_theta lambda_max(Re(e^{i theta} M)), the field-of-values radius."""
    radius = 0.0
    for theta in np.linspace(0.0, np.pi, RADIUS_ANGLES // 2 + 1):
        z = np.exp(1j * theta) * mat
        herm = 0.5 * (z + z.conj().T)
        radius = max(radius, float(np.abs(np.linalg.eigvalsh(herm)).max()))
    return radius


def factored_numerical_radius(y: np.ndarray, k: np.ndarray, z: np.ndarray) -> float:
    """numerical_radius(y @ k @ z) for a thin n x r factor y and r x n factor z.

    Q from a thin QR of [y, z*] spans the ranges of M = y k z and of M*, so
    M = Q C Q* with C = (Q* y) k (z Q), and every Re(e^{i theta} M) is
    Q Re(e^{i theta} C) Q*: the same eigenvalues plus zeros.  The radius is
    therefore that of the 2r x 2r matrix C; QR needs no rank threshold.
    """
    q, _ = np.linalg.qr(np.hstack([y, z.conj().T]))
    return numerical_radius((q.conj().T @ y) @ k @ (z @ q))


def resonant_term_radius(ctx, v_con: np.ndarray) -> float:
    """Numerical radius of V* (P_perp P_prof L P_prof P_perp / eps) V.

    V = ``v_con`` spans the constrained fields, P_perp is the direction
    complement, L the self-adjoint local part and P_prof = E G_hat the rank-3
    profile projection (:func:`operators.profile_fields`,
    :func:`operators.profile_averages`).  The term factors as Y K Z with
    Y = V* P_perp E, K = G_hat L E / eps and Z = G_hat P_perp V, each built
    by applying the operators to the 3-field block E or to the block V, so
    no dense operator matrix is assembled.
    """
    v_fields = op.vector_to_field(v_con)
    e_block = op.profile_fields(ctx, v_fields.truncation)
    y = v_con.conj().T @ op.field_to_vector(op.proj_direction_perp(ctx, e_block))
    local = op.magnetostrophic_symmetric(ctx, e_block)
    k = op.profile_averages(ctx, local) / ctx.eps
    z = op.profile_averages(ctx, op.proj_direction_perp(ctx, v_fields))
    return factored_numerical_radius(y, k, z)


def hermitian_part_norm(mat: np.ndarray):
    """2-norm of the Hermitian part of a matrix, or of each matrix of a
    stack along the first axis."""
    herm = 0.5 * (mat + np.swapaxes(mat, -1, -2).conj())
    return np.abs(np.linalg.eigvalsh(herm)).max(axis=-1)


def spectral_norm(mat: np.ndarray):
    """2-norm of a matrix, or of each matrix of a stack along the first axis."""
    return np.linalg.norm(mat, 2, axis=(-2, -1))


def direction_perp_compression(ctx, mat: np.ndarray) -> np.ndarray:
    """P_perp A P_perp for a dense A, with P_perp the pointwise projection off
    (eta, 0).

    P_perp is applied to A's columns as one block of fields, then to the
    rows of the result: an orthogonal projector is Hermitian, so
    P_perp A P_perp = (P_perp (P_perp A)*)*.  No P_perp matrix is assembled.
    """

    # the block of fields is released once projected, before the result is
    # stacked, so no third dense matrix is alive
    def perp(cols):
        return op.field_to_vector(op.proj_direction_perp(ctx, op.vector_to_field(cols)))

    return perp(perp(mat).conj().T).conj().T


def max_over_blocks(norm, square: np.ndarray, basis: np.ndarray) -> float:
    """``norm`` of V* A V as the largest over its blocks V_k* A_k V_k
    (:func:`operators.compress_by_blocks`), for a norm of a block diagonal
    matrix that is the largest of its blocks' norms.  A block that holds no
    column of V adds nothing.

    ``norm`` takes a stack of matrices along the first axis and returns
    each one's norm, as :func:`spectral_norm` and
    :func:`hermitian_part_norm` do: the blocks are grouped by shape, and
    each group is one stacked call (3 shapes for 128 blocks at M = 64).
    """
    blocks = op.compression_blocks(square, basis)
    by_shape = {}
    for c in op.compress_by_blocks(square, basis, blocks):
        if c.size:
            by_shape.setdefault(c.shape, []).append(c)
    return max((float(norm(np.stack(group)).max()) for group in by_shape.values()), default=0.0)


# ----------------------------------------------------------------------
# spectral-check
# ----------------------------------------------------------------------


def run_spectral_check(cfg: RunConfig, bg, report: RunReport) -> None:
    ctx = lattice_mode_context(bg, cfg.modes[0])

    basis = spectral.build_eigenbasis(ctx, cfg.band, cfg.truncation, cfg.tolerance("tail_gate"))
    core = spectral.assemble_core_matrix(ctx, cfg.truncation)
    w, vecs = np.linalg.eig(core)

    rows = []
    worst_val = 0.0
    worst_vec = 0.0
    for k in [k for k in range(-cfg.band, cfg.band + 1) if k != 0]:
        mu = basis.eigenvalue_mu(k)
        idx = int(np.argmin(np.abs(w - mu)))
        rel = abs(w[idx] - mu) / abs(mu)
        numeric = vecs[:, idx] / np.linalg.norm(vecs[:, idx])
        closed = basis.profile(k).coeffs
        overlap = abs(np.vdot(closed, numeric))
        vec_err = float(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
        worst_val = max(worst_val, float(rel))
        worst_vec = max(worst_vec, vec_err)
        rows.append((k, mu.real, mu.imag, w[idx].real, w[idx].imag, float(rel), vec_err))

    _write_table(
        cfg,
        report,
        "spectral.csv",
        ["k", "mu_re", "mu_im", "numeric_re", "numeric_im", "rel_err", "vec_err"],
        rows,
    )

    tol_val = cfg.tolerance("eigenvalue_rel")
    tol_vec = cfg.tolerance("eigenvector")
    report.add("eigenvalue_relative_error", worst_val < tol_val, worst_val, tol_val)
    report.add("eigenvector_error", worst_vec < tol_vec, worst_vec, tol_vec)

    residuals = spectral.verify_on_basis(basis)
    for name, value in sorted(residuals.items()):
        report.add(name, value < tol_val, value, tol_val)


# ----------------------------------------------------------------------
# normalform-check
# ----------------------------------------------------------------------


def run_normalform_check(cfg: RunConfig, bg, report: RunReport) -> None:
    ctx = lattice_mode_context(bg, cfg.modes[0])

    # the normal form reads the band's eigenfields alone, so no profile
    # beyond the band is collocated
    basis = spectral.build_eigenbasis(ctx, cfg.band, cfg.truncation, cfg.tolerance("tail_gate"))
    nf = build_normal_form(basis, cfg.band, cfg.tolerance("resonance"))

    rows = [
        (i, j, lam_i.real, lam_i.imag, lam_j.real, lam_j.imag, float(rhs))
        for (i, j, lam_i, lam_j, rhs) in nf.resonance_rows()
    ]
    _write_table(
        cfg,
        report,
        "resonances.csv",
        ["i", "j", "lam_i_re", "lam_i_im", "lam_j_re", "lam_j_im", "rhs_mag"],
        rows,
    )

    tol_res = cfg.tolerance("resonance")
    tol_comm = cfg.tolerance("commutator")
    worst_res = max((r[6] for r in rows), default=0.0)
    report.add("resonance_rhs_max", worst_res < tol_res, worst_res, tol_res)
    report.add(
        "commutator_residual", nf.commutator_residual < tol_comm, nf.commutator_residual, tol_comm
    )
    margin = ctx.eps * nf.q_norm
    report.add(
        "conjugation_regime_margin",
        margin < 0.5,
        margin,
        0.5,
        detail="eps * ||Q|| must stay below 1/2 for the change of unknown to invert",
    )


# ----------------------------------------------------------------------
# constraint-check
# ----------------------------------------------------------------------


# random fields projected per mode by constraint-check
CONSTRAINT_FIELDS_PER_MODE = 10


def run_constraint_check(cfg: RunConfig, bg, report: RunReport) -> None:
    rng = np.random.default_rng(cfg.seed)
    tol_formula = cfg.tolerance("taylor_projection")

    rows = []
    worst_residual = 0.0
    worst_idem = 0.0
    worst_formula = 0.0
    for key in cfg.modes:
        ctx = lattice_mode_context(bg, key)
        null, _ = op.constraint_null_basis(ctx, cfg.truncation)
        basis = op.PairTransform(cfg.truncation).lift(null)
        for i in range(CONSTRAINT_FIELDS_PER_MODE):
            raw = evo.random_mode_field(cfg.truncation, rng)
            proj = evo.project_constraints(raw, basis)
            r_perp, r_3 = op.taylor_residual(ctx, proj)
            tay = max(abs(r_perp), abs(r_3))
            div = op.divergence_residual(ctx, proj)
            again = evo.project_constraints(proj, basis)
            idem = (again - proj).norm()
            direct = op.proj_profile(ctx, proj)
            via_constraint = op.proj_profile_from_constraint(ctx, proj, tol_formula)
            formula = (direct - via_constraint).norm() / max(proj.norm(), 1e-300)
            rows.append((key[0], key[1], i, float(tay), float(div), float(idem), float(formula)))
            worst_residual = max(worst_residual, float(tay), float(div))
            worst_idem = max(worst_idem, float(idem))
            worst_formula = max(worst_formula, float(formula))

    _write_table(
        cfg,
        report,
        "constraints.csv",
        ["m1", "m2", "field", "taylor_res", "div_res", "idempotence", "formula_gap"],
        rows,
    )

    tol_proj = cfg.tolerance("projection_residual")
    report.add("projection_residual_max", worst_residual < tol_proj, worst_residual, tol_proj)
    report.add("projection_idempotence", worst_idem < tol_proj, worst_idem, tol_proj)
    report.add(
        "profile_projection_formula", worst_formula < tol_formula, worst_formula, tol_formula
    )


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------


def run_evolve(cfg: RunConfig, bg, report: RunReport) -> None:
    state = evo.run_evolution(
        bg,
        list(cfg.modes),
        t_final=cfg.t_final,
        output_step=cfg.output_step,
        truncation=cfg.truncation,
        seed=cfg.seed,
        include_geostrophic=cfg.include_geostrophic,
        jobs=cfg.jobs,
    )

    _write_table(
        cfg,
        report,
        "diagnostics.csv",
        ["t", "mode_index", "energy", "grad_energy", "taylor_res", "div_res", "power"],
        state.mode_rows,
    )
    _write_table(
        cfg,
        report,
        "energy.csv",
        ["t", "energy", "grad_energy", "taylor_max", "div_max"],
        state.diagnostics_log,
    )
    write_snapshot(
        os.path.join(cfg.out_dir, "snapshot.json"),
        evo.assemble_full_field(state.modes, state.zero_mode),
    )
    report.artifacts.append("snapshot.json")

    # semigroup property on the first mode, with the propagator and initial
    # data of the evolution itself: three steps of h against one of 3h.  Not
    # 2h: at every default block _expm's scaling and squaring reaches
    # exp(2h G) by one more squaring of the matrix it squares for exp(h G),
    # the same scaled matrix 2^-s h G, so exp(2h G) is bitwise exp(h G)^2
    # and the probe would check only that two products associate.  At 3h
    # the scaled matrix differs.  The other modes' propagators (and their
    # cached exponentials) are released before the probe computes exp(3h G);
    # their oracle margins are kept for the table below
    first = tuple(cfg.modes[0])
    prop = state.propagators[first]
    margins = [p.oracle_margins for p in state.propagators.values()]
    state.propagators.clear()
    # in the pair coordinates that the run evolved the mode in
    pairs = op.PairTransform(cfg.truncation)
    probe = pairs.lower(op.field_to_vector(state.initial_modes[first])[:, None])
    h = cfg.output_step
    steps = [probe]
    for _ in range(3):
        steps.append(prop.advance(steps[-1], h))
    once = prop.advance(probe, 3 * h)
    semi = np.linalg.norm(steps[-1] - once) / max(np.linalg.norm(probe), 1e-300)

    # the residual gates read every state the run computed, the probe's too:
    # a flow that drifts off the constraints fails them in a written report
    tol_step = cfg.tolerance("step_residual")
    probed = prop.diagnostics(np.hstack(steps[1:] + [once]))
    worst_tay = max([row[4] for row in state.mode_rows] + probed[2].tolist())
    worst_div = max([row[5] for row in state.mode_rows] + probed[3].tolist())
    report.add("taylor_residual_max", worst_tay < tol_step, worst_tay, tol_step)
    report.add("divergence_residual_max", worst_div < tol_step, worst_div, tol_step)
    tol_semi = cfg.tolerance("semigroup")
    report.add("semigroup_composition", semi < tol_semi, semi, tol_semi)

    # the expm oracle's margins for every exponential computed, the probe's
    # included; no chart
    _write_table(
        cfg,
        report,
        "oracle.csv",
        ["mode_index", "h", "condition", "checked", "frobenius_error"],
        [
            (idx, h, cond, checked, "" if error is None else error)
            for idx, per_h in enumerate(margins)
            for h, (cond, checked, error) in per_h.items()
        ],
    )

    # zero-mode decay rate from the gravest vertical coefficient
    initial_zero = state.initial_zero_mode
    comp = max(range(3), key=lambda i: abs(initial_zero[i].coefficient(1)))
    c0 = abs(initial_zero[comp].coefficient(1))
    c1 = abs(state.zero_mode[comp].coefficient(1))
    rate = -np.log(c1 / c0) / state.time
    rate_err = abs(rate - 4 * np.pi**2) / (4 * np.pi**2)
    tol_rate = cfg.tolerance("zero_mode_rate_rel")
    report.add("zero_mode_decay_rate", rate_err < tol_rate, rate_err, tol_rate)


# ----------------------------------------------------------------------
# abscissa-sweep
# ----------------------------------------------------------------------


def _trend_margin(rows, slack: float) -> tuple[float, float]:
    """(max of later abscissas, bound from the first two) for sorted rows;
    the bound exceeds the head by ``slack`` times its magnitude."""
    values = [r[1] for r in sorted(rows, key=lambda r: r[0])]
    head = max(values[:2])
    tail = max(values[2:]) if len(values) > 2 else head
    return tail, head + slack * abs(head)


def run_abscissa_sweep(cfg: RunConfig, bg, report: RunReport) -> None:
    rows_on, rows_off = evo.abscissa_lanes(bg, list(cfg.modes), cfg.truncation, cfg.jobs)

    for lane, rows in (("on", rows_on), ("off", rows_off)):
        _write_table(
            cfg,
            report,
            f"abscissa_geostrophic_{lane}.csv",
            ["xi_norm", "abscissa_restricted", "abscissa_full"],
            rows,
        )

    slack = cfg.tolerance("abscissa_slack")
    tail_on, bound_on = _trend_margin(rows_on, slack)
    report.add(
        "abscissa_no_upward_trend",
        tail_on <= bound_on,
        tail_on,
        bound_on,
        detail="restricted abscissas with the balancing velocity enabled",
    )
    tail_off, bound_off = _trend_margin(rows_off, slack)
    report.add(
        "abscissa_demonstration_lane",
        True,
        tail_off,
        bound_off,
        detail="balancing velocity disabled; recorded for contrast, no bound asserted",
    )


# ----------------------------------------------------------------------
# scaling-study
# ----------------------------------------------------------------------


def run_scaling_study(cfg: RunConfig, bg, report: RunReport) -> None:
    m_trunc = cfg.truncation
    contexts = [lattice_mode_context(bg, (m, 0)) for m in cfg.eps_modes]
    # D, P_perp D P_perp and S depend on the direction eta alone, which is
    # (1, 0) at every mode (m, 0): each is formed once, from the first mode
    first = contexts[0]
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(first, b), m_trunc)
    diff = drive - direction_perp_compression(first, drive)

    def off_direction(ctx):
        v_div = op.PairTransform(m_trunc).lift(op.divergence_null_basis(ctx, m_trunc)[0])
        c2 = max_over_blocks(spectral_norm, diff, v_div)
        # the band sweep reads the first mode's basis; no other outlives its call
        return c2, (v_div if ctx is first else None)

    def remainder_terms(ctx):
        # R = eps^2 IND - S / eps - D, elementwise as the field arithmetic of
        # op.induction_remainder forms it, so bitwise equal to assembling it
        remainder = op.assemble_matrix(
            lambda b: op._balanced_induction(ctx, b), m_trunc
        ) * complex(ctx.eps**2)
        remainder -= skew * complex(1.0 / ctx.eps)
        remainder -= drive
        v_con = op.PairTransform(m_trunc).lift(op.constraint_null_basis(ctx, m_trunc)[0])
        rem_form = max_over_blocks(hermitian_part_norm, remainder, v_con) / ctx.eps
        del remainder
        return rem_form, resonant_term_radius(ctx, v_con)

    # diff, read by every c2, and the first mode's divergence-free basis, read
    # by the band sweep, are dropped before the skew is assembled: the
    # remainders run beside the drive and the skew alone
    with evo.thread_map(cfg.jobs, len(contexts)) as each:
        c2s, v_divs = zip(*each(off_direction, contexts))
    del diff

    # band sweep at the first eps mode's direction (band quantities are
    # direction-only, so any mode with the same direction gives the same
    # numbers)
    bands = []
    n = 2
    while n <= cfg.band:
        bands.append(n)
        n *= 2
    stored = spectral.stored_band_for(cfg.band, m_trunc)
    basis = spectral.build_eigenbasis(first, stored, m_trunc, cfg.tolerance("tail_gate"))
    gaps = spectral.high_mode_gap(basis, bands, drive, v_divs[0])
    band_rows = [
        (band, gap, spectral.band_derivative_norm(basis, band)) for band, gap in zip(bands, gaps)
    ]
    del v_divs

    skew = op.assemble_matrix(lambda b: op.fast_skew(first, b), m_trunc)
    with evo.thread_map(cfg.jobs, len(contexts)) as each:
        terms = list(each(remainder_terms, contexts))
    eps_rows = [(ctx.eps, c2, *t) for ctx, c2, t in zip(contexts, c2s, terms)]

    _write_table(
        cfg,
        report,
        "scaling_eps.csv",
        ["eps", "c2_offdirection", "remainder_herm_over_eps", "resonant_term_radius"],
        eps_rows,
    )

    slope = fit_loglog_slope([r[0] for r in eps_rows], [r[1] for r in eps_rows])
    tol_slope = cfg.tolerance("c2_slope_min")
    report.add("c2_loglog_slope", slope >= tol_slope, slope, tol_slope)
    slack = cfg.tolerance("trend_slack")
    rem_max, rem_bound = no_upward_trend([r[2] for r in eps_rows], slack)
    report.add(
        "remainder_form_bounded",
        rem_max <= rem_bound,
        rem_max,
        rem_bound,
        detail="Hermitian part of the remainder on constrained fields, scaled by 1/eps",
    )
    s_max, s_bound = no_upward_trend([r[3] for r in eps_rows], slack)
    report.add("resonant_term_bounded", s_max <= s_bound, s_max, s_bound)

    _write_table(
        cfg, report, "scaling_bands.csv", ["band", "high_mode_gap", "d3_band_norm"], band_rows
    )

    monotone = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    if len(bands) > 1:
        compared = f"gaps at bands {', '.join(map(str, bands))} must not increase along the sweep"
    else:
        compared = f"the sweep has one band ({bands[0]}): nothing to compare; band >= 4 gives two"
    report.add("high_mode_gap_decreasing", monotone, gaps[-1], gaps[0], detail=compared)
    if bands[-1] >= 32:
        ratio = cfg.tolerance("gap_ratio")
        report.add("high_mode_gap_ratio", gaps[-1] < ratio * gaps[0], gaps[-1], ratio * gaps[0])
    # the derivative-norm growth rate is asymptotic in the band; the
    # band-2 point sits below the asymptote, so fit from band 4 upward
    grown = [r for r in band_rows if r[0] >= 4]
    if len(grown) >= 2:
        d3_slope = fit_loglog_slope([r[0] for r in grown], [r[2] for r in grown])
        lo = cfg.tolerance("band_slope_low")
        hi = cfg.tolerance("band_slope_high")
        report.add(
            "band_derivative_slope",
            lo <= d3_slope <= hi,
            d3_slope,
            hi,
            detail=f"window [{lo}, {hi}], bands >= 4",
        )


# ----------------------------------------------------------------------
# dispatch, tables and charts
# ----------------------------------------------------------------------

_RUNNERS = {
    "spectral-check": run_spectral_check,
    "normalform-check": run_normalform_check,
    "constraint-check": run_constraint_check,
    "evolve": run_evolve,
    "abscissa-sweep": run_abscissa_sweep,
    "scaling-study": run_scaling_study,
}


def execute(cfg: RunConfig) -> RunReport:
    """Run ``cfg`` into ``cfg.out_dir``: every artifact, then ``report.json``.
    An ``out_dir`` that cannot be made a directory raises :class:`ConfigError`."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {cfg.out_dir!r}: {exc}") from exc
    bg = resolve_background(cfg)
    report = RunReport(kind=cfg.kind, config_hash=cfg.config_hash(), package_version=__version__)
    _RUNNERS[cfg.kind](cfg, bg, report)
    write_report(report, os.path.join(cfg.out_dir, "report.json"))
    return report


# The one source of chart metadata, for runs and for ``taylorlab plot``.
# Entries are (x_column (None = row index), x_label, y_label,
#  [(series_label, y_column), ...], title, log_y); the chart of x.csv is x.svg.
_PLOTTABLE = {
    "spectral.csv": (
        "k",
        "k",
        "mismatch",
        [("eigenvalue", "rel_err"), ("eigenvector", "vec_err")],
        "eigenpair agreement by profile index",
        True,
    ),
    "resonances.csv": (
        None,
        "pair index",
        "magnitude",
        [("resonant pairs", "rhs_mag")],
        "homological right-hand side at eigenvalue coincidences",
        False,
    ),
    "energy.csv": (
        "t",
        "t",
        "energy",
        [("total energy", "energy")],
        "energy of the evolution",
        False,
    ),
    **{
        f"abscissa_geostrophic_{lane}.csv": (
            "xi_norm",
            "|xi|",
            "abscissa",
            [("restricted", "abscissa_restricted"), ("full", "abscissa_full")],
            f"spectral abscissa sweep (balancing velocity {lane})",
            False,
        )
        for lane in ("on", "off")
    },
    "scaling_eps.csv": (
        "eps",
        "eps",
        "norm",
        [("off-direction drive", "c2_offdirection")],
        "drive compression error against eps",
        True,
    ),
    "scaling_bands.csv": (
        "band",
        "band",
        "value",
        [("gap", "high_mode_gap"), ("derivative norm", "d3_band_norm")],
        "band projector scalings",
        True,
    ),
}


def _write_table(cfg: RunConfig, report: RunReport, name: str, header: list, rows: list) -> None:
    """Write table ``name`` into the run directory and list it as an artifact,
    followed by its chart when ``_PLOTTABLE`` describes one."""
    csv_path = os.path.join(cfg.out_dir, name)
    write_csv(csv_path, header, rows)
    report.artifacts.append(name)
    if name in _PLOTTABLE:
        report.artifacts.append(os.path.basename(_draw_chart(csv_path)))


def _draw_chart(csv_path: str) -> str:
    """Draw the chart ``_PLOTTABLE`` describes for a CSV table; return its path.

    ``write_csv`` writes floats with ``repr``, so the values read back are the
    ones the run computed, and the chart is the same whether a run or
    ``taylorlab plot`` draws it.
    """
    name = os.path.basename(csv_path)
    x_col, x_label, y_label, columns, title, log_y = _PLOTTABLE[name]
    header, rows = read_csv(csv_path)
    if not rows:
        raise MissingData(f"{name} has no data rows")
    if x_col is None:
        xs = [float(i) for i in range(len(rows))]
    else:
        xi = header.index(x_col)
        xs = [float(r[xi]) for r in rows]
    series = []
    for label, col in columns:
        yi = header.index(col)
        ys = [float(r[yi]) for r in rows]
        if log_y:
            ys = [max(y, 1e-17) for y in ys]
        series.append((label, xs, ys))
    svg_path = os.path.splitext(csv_path)[0] + ".svg"
    return line_chart(series, title, x_label, y_label, svg_path, log_y=log_y)


def emit_plots(report_dir: str) -> list:
    """Regenerate SVG charts from the CSV files present in a report directory."""
    made = [
        _draw_chart(os.path.join(report_dir, name))
        for name in sorted(_PLOTTABLE)
        if os.path.exists(os.path.join(report_dir, name))
    ]
    if not made:
        raise MissingData(f"no plottable CSV files in {report_dir}")
    return made
