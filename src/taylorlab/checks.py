"""Experiment runners behind the CLI: one function per experiment kind.

Each runner computes its quantities, writes CSV/SVG artifacts into the
output directory, and returns a RunReport whose outcomes carry the
measured values next to the tolerances they were judged against.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import evolution as evo
from . import operators as op
from . import spectral
from .background import lattice_mode_context
from .config import RunConfig, resolve_background
from .errors import MissingData
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


def no_upward_trend(values, slack: float = 1.25, floor: float = 1e-12) -> bool:
    """True when later values stay within slack of the first one.

    The absolute floor keeps identically-zero sequences (which arise for
    degenerate backgrounds) from failing on rounding noise.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return True
    return max(vals[1:]) <= slack * vals[0] + floor


def numerical_radius(mat: np.ndarray, n_angles: int = 72) -> float:
    """max_theta lambda_max(Re(e^{i theta} M)), the field-of-values radius."""
    radius = 0.0
    for theta in np.linspace(0.0, np.pi, n_angles // 2 + 1):
        z = np.exp(1j * theta) * mat
        herm = 0.5 * (z + z.conj().T)
        radius = max(radius, float(np.abs(np.linalg.eigvalsh(herm)).max()))
    return radius


def hermitian_part_norm(mat: np.ndarray) -> float:
    herm = 0.5 * (mat + mat.conj().T)
    return float(np.abs(np.linalg.eigvalsh(herm)).max())


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _new_report(cfg: RunConfig) -> RunReport:
    return RunReport(kind=cfg.kind, config_hash=cfg.config_hash(), package_version=__version__)


# ----------------------------------------------------------------------
# spectral-check
# ----------------------------------------------------------------------


def run_spectral_check(cfg: RunConfig) -> RunReport:
    bg = resolve_background(cfg)
    ctx = lattice_mode_context(bg, cfg.modes[0])
    out = _outdir(cfg)
    report = _new_report(cfg)

    basis = spectral.build_eigenbasis(ctx, cfg.band, cfg.truncation)
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

    csv_path = os.path.join(out, "spectral.csv")
    write_csv(
        csv_path,
        ["k", "mu_re", "mu_im", "numeric_re", "numeric_im", "rel_err", "vec_err"],
        rows,
    )
    svg_path = line_chart(
        [
            ("eigenvalue", [r[0] for r in rows], [max(r[5], 1e-17) for r in rows]),
            ("eigenvector", [r[0] for r in rows], [max(r[6], 1e-17) for r in rows]),
        ],
        "eigenpair agreement by profile index",
        "k",
        "mismatch",
        os.path.join(out, "spectral.svg"),
        log_y=True,
    )
    report.artifacts += [os.path.basename(csv_path), os.path.basename(svg_path)]

    tol_val = cfg.tolerance("eigenvalue_rel")
    tol_vec = cfg.tolerance("eigenvector")
    report.add("eigenvalue_relative_error", worst_val < tol_val, worst_val, tol_val)
    report.add("eigenvector_error", worst_vec < tol_vec, worst_vec, tol_vec)

    residuals = spectral.verify_on_basis(ctx, basis)
    for name, value in sorted(residuals.items()):
        report.add(name, value < tol_val, value, tol_val)
    write_report(report, os.path.join(out, "report.json"))
    return report


# ----------------------------------------------------------------------
# normalform-check
# ----------------------------------------------------------------------


def run_normalform_check(cfg: RunConfig) -> RunReport:
    bg = resolve_background(cfg)
    ctx = lattice_mode_context(bg, cfg.modes[0])
    out = _outdir(cfg)
    report = _new_report(cfg)

    stored = spectral.stored_band_for(cfg.band, cfg.truncation)
    basis = spectral.build_eigenbasis(ctx, stored, cfg.truncation)
    nf = build_normal_form(ctx, basis, cfg.band, resonance_tol=cfg.tolerance("resonance"))

    rows = [
        (i, j, lam_i.real, lam_i.imag, lam_j.real, lam_j.imag, float(rhs))
        for (i, j, lam_i, lam_j, rhs) in nf.resonance_rows()
    ]
    csv_path = os.path.join(out, "resonances.csv")
    write_csv(
        csv_path,
        ["i", "j", "lam_i_re", "lam_i_im", "lam_j_re", "lam_j_im", "rhs_mag"],
        rows,
    )
    svg_path = line_chart(
        [("resonant pairs", list(range(len(rows))), [r[6] for r in rows])],
        "homological right-hand side at eigenvalue coincidences",
        "pair index",
        "magnitude",
        os.path.join(out, "resonances.svg"),
    )
    report.artifacts += [os.path.basename(csv_path), os.path.basename(svg_path)]

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
    write_report(report, os.path.join(out, "report.json"))
    return report


# ----------------------------------------------------------------------
# constraint-check
# ----------------------------------------------------------------------


def run_constraint_check(cfg: RunConfig, n_fields: int = 10) -> RunReport:
    bg = resolve_background(cfg)
    out = _outdir(cfg)
    report = _new_report(cfg)
    rng = np.random.default_rng(cfg.seed)

    rows = []
    worst_residual = 0.0
    worst_idem = 0.0
    worst_formula = 0.0
    for key in cfg.modes:
        ctx = lattice_mode_context(bg, key)
        basis = op.constraint_null_basis(ctx, cfg.truncation)
        for i in range(n_fields):
            raw = evo.random_mode_field(cfg.truncation, rng)
            proj = evo.project_constraints(ctx, raw, basis)
            r_perp, r_3 = op.taylor_residual(ctx, proj)
            tay = max(abs(r_perp), abs(r_3))
            div = op.divergence_residual(ctx, proj)
            again = evo.project_constraints(ctx, proj, basis)
            idem = (again - proj).norm()
            direct = op.proj_profile(ctx, proj)
            via_constraint = op.proj_profile_from_constraint(ctx, proj)
            formula = (direct - via_constraint).norm() / max(proj.norm(), 1e-300)
            rows.append((key[0], key[1], i, float(tay), float(div), float(idem), float(formula)))
            worst_residual = max(worst_residual, float(tay), float(div))
            worst_idem = max(worst_idem, float(idem))
            worst_formula = max(worst_formula, float(formula))

    csv_path = os.path.join(out, "constraints.csv")
    write_csv(
        csv_path,
        ["m1", "m2", "field", "taylor_res", "div_res", "idempotence", "formula_gap"],
        rows,
    )
    report.artifacts.append(os.path.basename(csv_path))

    tol_proj = cfg.tolerance("projection_residual")
    tol_formula = cfg.tolerance("taylor_projection")
    report.add("projection_residual_max", worst_residual < tol_proj, worst_residual, tol_proj)
    report.add("projection_idempotence", worst_idem < tol_proj, worst_idem, tol_proj)
    report.add(
        "profile_projection_formula", worst_formula < tol_formula, worst_formula, tol_formula
    )
    write_report(report, os.path.join(out, "report.json"))
    return report


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------


def _symmetrized(state: evo.SimulationState) -> evo.SimulationState:
    """Add conjugate partners so the exported snapshot is real."""
    from .fourier import FourierSeries

    modes = dict(state.modes)
    for key, b in state.modes.items():
        partner = (-key[0], -key[1])
        if partner not in modes:
            modes[partner] = op.ModeField(
                *(FourierSeries(np.conj(c.coeffs[::-1])) for c in b.components)
            )
    return evo.SimulationState(
        background=state.background,
        time=state.time,
        modes=modes,
        zero_mode=state.zero_mode,
    )


def run_evolve(cfg: RunConfig) -> RunReport:
    bg = resolve_background(cfg)
    out = _outdir(cfg)
    report = _new_report(cfg)

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

    csv_path = os.path.join(out, "diagnostics.csv")
    write_csv(
        csv_path,
        ["t", "mode_index", "energy", "grad_energy", "taylor_res", "div_res"],
        [row[:6] for row in state.mode_rows],
    )
    energy_csv = os.path.join(out, "energy.csv")
    write_csv(
        energy_csv,
        ["t", "energy", "grad_energy", "taylor_max", "div_max"],
        state.diagnostics_log,
    )
    energy_svg = line_chart(
        [
            (
                "total energy",
                [row[0] for row in state.diagnostics_log],
                [row[1] for row in state.diagnostics_log],
            )
        ],
        "energy decay of the constrained evolution",
        "t",
        "energy",
        os.path.join(out, "energy.svg"),
    )
    snapshot_path = os.path.join(out, "snapshot.json")
    write_snapshot(snapshot_path, evo.assemble_full_field(_symmetrized(state)))
    report.artifacts += [
        os.path.basename(p) for p in (csv_path, energy_csv, energy_svg, snapshot_path)
    ]

    tol_step = cfg.tolerance("step_residual")
    worst_tay = max(row[4] for row in state.mode_rows)
    worst_div = max(row[5] for row in state.mode_rows)
    report.add("taylor_residual_max", worst_tay < tol_step, worst_tay, tol_step)
    report.add("divergence_residual_max", worst_div < tol_step, worst_div, tol_step)

    # semigroup property on the first mode, with the propagator and initial
    # data of the evolution itself; the other modes' propagators (and their
    # cached exponentials) are released before the probe computes exp(2h G)
    first = tuple(cfg.modes[0])
    prop = state.propagators[first]
    state.propagators.clear()
    probe = state.initial_modes[first]
    h = cfg.output_step
    twice = evo.step(prop, evo.step(prop, probe, h), h)
    once = evo.step(prop, probe, 2 * h)
    semi = (twice - once).norm() / max(probe.norm(), 1e-300)
    tol_semi = cfg.tolerance("semigroup")
    report.add("semigroup_composition", semi < tol_semi, semi, tol_semi)

    # zero-mode decay rate from the gravest vertical coefficient
    initial_zero = state.initial_zero_mode
    comp = max(range(3), key=lambda i: abs(initial_zero[i].coefficient(1)))
    c0 = abs(initial_zero[comp].coefficient(1))
    c1 = abs(state.zero_mode[comp].coefficient(1))
    rate = -np.log(c1 / c0) / state.time
    rate_err = abs(rate - 4 * np.pi**2) / (4 * np.pi**2)
    tol_rate = cfg.tolerance("zero_mode_rate_rel")
    report.add("zero_mode_decay_rate", rate_err < tol_rate, rate_err, tol_rate)

    write_report(report, os.path.join(out, "report.json"))
    return report


# ----------------------------------------------------------------------
# abscissa-sweep
# ----------------------------------------------------------------------


def _trend_margin(rows) -> tuple[float, float]:
    """(max of later abscissas, bound from the first two) for sorted rows."""
    values = [r[1] for r in sorted(rows, key=lambda r: r[0])]
    head = max(values[:2])
    tail = max(values[2:]) if len(values) > 2 else head
    return tail, head + 0.1 * abs(head)


def run_abscissa_sweep(cfg: RunConfig) -> RunReport:
    bg = resolve_background(cfg)
    out = _outdir(cfg)
    report = _new_report(cfg)

    def lane(include_geostrophic: bool):
        return evo.abscissa_sweep(
            bg, list(cfg.modes), truncation=cfg.truncation,
            include_geostrophic=include_geostrophic,
        )

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=2) as pool:
            rows_on, rows_off = pool.map(lane, (True, False))
    else:
        rows_on, rows_off = lane(True), lane(False)

    header = ["xi_norm", "abscissa_restricted", "abscissa_full"]
    paths = []
    for label, rows in (("on", rows_on), ("off", rows_off)):
        csv_path = os.path.join(out, f"abscissa_geostrophic_{label}.csv")
        write_csv(csv_path, header, rows)
        svg_path = line_chart(
            [
                ("restricted", [r[0] for r in rows], [r[1] for r in rows]),
                ("full", [r[0] for r in rows], [r[2] for r in rows]),
            ],
            f"spectral abscissa sweep (balancing velocity {label})",
            "|xi|",
            "abscissa",
            os.path.join(out, f"abscissa_geostrophic_{label}.svg"),
        )
        paths += [csv_path, svg_path]
    report.artifacts += [os.path.basename(p) for p in paths]

    tail_on, bound_on = _trend_margin(rows_on)
    report.add(
        "abscissa_no_upward_trend",
        tail_on <= bound_on,
        tail_on,
        bound_on,
        detail="restricted abscissas with the balancing velocity enabled",
    )
    tail_off, bound_off = _trend_margin(rows_off)
    report.add(
        "abscissa_demonstration_lane",
        True,
        tail_off,
        bound_off,
        detail="balancing velocity disabled; recorded for contrast, no bound asserted",
    )
    write_report(report, os.path.join(out, "report.json"))
    return report


# ----------------------------------------------------------------------
# scaling-study
# ----------------------------------------------------------------------


def run_scaling_study(cfg: RunConfig) -> RunReport:
    bg = resolve_background(cfg)
    out = _outdir(cfg)
    report = _new_report(cfg)
    m_trunc = cfg.truncation

    def eps_point(m: int):
        ctx = lattice_mode_context(bg, (m, 0))
        drive = op.assemble_matrix(
            lambda b: op.symmetric_drive(ctx, b, out_truncation=m_trunc), m_trunc
        )
        perp = op.assemble_matrix(lambda b: op.proj_direction_perp(ctx, b), m_trunc)
        remainder = op.assemble_matrix(
            lambda b: op.induction_remainder(ctx, b, out_truncation=m_trunc), m_trunc
        )
        local = op.assemble_matrix(
            lambda b: op.magnetostrophic_symmetric(ctx, b, out_truncation=m_trunc), m_trunc
        )
        profile = op.assemble_matrix(lambda b: op.proj_profile(ctx, b), m_trunc)
        v_div = op.divergence_null_basis(ctx, m_trunc)
        v_con = op.constraint_null_basis(ctx, m_trunc)

        diff = drive.entries - perp.entries @ drive.entries @ perp.entries
        c2 = float(np.linalg.norm(v_div.conj().T @ diff @ v_div, 2))
        rem_form = hermitian_part_norm(v_con.conj().T @ remainder.entries @ v_con) / ctx.eps
        t_mat = (
            perp.entries @ profile.entries @ local.entries @ profile.entries @ perp.entries
        ) / ctx.eps
        s_rad = numerical_radius(v_con.conj().T @ t_mat @ v_con)
        return ctx.eps, c2, rem_form, s_rad

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            eps_rows = list(pool.map(eps_point, cfg.eps_modes))
    else:
        eps_rows = [eps_point(m) for m in cfg.eps_modes]

    eps_csv = os.path.join(out, "scaling_eps.csv")
    write_csv(
        eps_csv,
        ["eps", "c2_offdirection", "remainder_herm_over_eps", "resonant_term_radius"],
        eps_rows,
    )
    eps_svg = line_chart(
        [("off-direction drive", [r[0] for r in eps_rows], [max(r[1], 1e-17) for r in eps_rows])],
        "drive compression error against eps",
        "eps",
        "norm",
        os.path.join(out, "scaling_eps.svg"),
        log_y=True,
    )
    report.artifacts += [os.path.basename(eps_csv), os.path.basename(eps_svg)]

    slope = fit_loglog_slope([r[0] for r in eps_rows], [r[1] for r in eps_rows])
    tol_slope = cfg.tolerance("c2_slope_min")
    report.add("c2_loglog_slope", slope >= tol_slope, slope, tol_slope)
    slack = cfg.tolerance("trend_slack")
    rem_vals = [r[2] for r in eps_rows]
    report.add(
        "remainder_form_bounded",
        no_upward_trend(rem_vals, slack),
        max(rem_vals[1:], default=rem_vals[0]),
        slack * rem_vals[0] + 1e-12,
        detail="Hermitian part of the remainder on constrained fields, scaled by 1/eps",
    )
    s_vals = [r[3] for r in eps_rows]
    report.add(
        "resonant_term_bounded",
        no_upward_trend(s_vals, slack),
        max(s_vals[1:], default=s_vals[0]),
        slack * s_vals[0] + 1e-12,
    )

    # band sweep at the first eps mode's direction (band quantities are
    # direction-only, so any mode with the same direction gives the same
    # numbers)
    ctx = lattice_mode_context(bg, (cfg.eps_modes[0], 0))
    stored = spectral.stored_band_for(cfg.band, m_trunc)
    basis = spectral.build_eigenbasis(ctx, stored, m_trunc)
    drive = op.assemble_matrix(
        lambda b: op.symmetric_drive(ctx, b, out_truncation=m_trunc), m_trunc
    )
    v_div = op.divergence_null_basis(ctx, m_trunc)
    bands = []
    n = 2
    while n <= cfg.band:
        bands.append(n)
        n *= 2
    band_rows = []
    for band in bands:
        gap = spectral.high_mode_gap(basis, band, drive, v_div)
        deriv = spectral.band_derivative_norm(basis, band)
        band_rows.append((band, gap, deriv))

    band_csv = os.path.join(out, "scaling_bands.csv")
    write_csv(band_csv, ["band", "high_mode_gap", "d3_band_norm"], band_rows)
    band_svg = line_chart(
        [
            ("gap", [r[0] for r in band_rows], [max(r[1], 1e-17) for r in band_rows]),
            ("derivative norm", [r[0] for r in band_rows], [r[2] for r in band_rows]),
        ],
        "band projector scalings",
        "band",
        "value",
        os.path.join(out, "scaling_bands.svg"),
        log_y=True,
    )
    report.artifacts += [os.path.basename(band_csv), os.path.basename(band_svg)]

    gaps = [r[1] for r in band_rows]
    monotone = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    report.add(
        "high_mode_gap_decreasing",
        monotone,
        gaps[-1],
        gaps[0],
        detail="gap values must not increase along the band sweep",
    )
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

    write_report(report, os.path.join(out, "report.json"))
    return report


# ----------------------------------------------------------------------
# dispatch and plot regeneration
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
    return _RUNNERS[cfg.kind](cfg)


# Presentation metadata mirroring the charts the runners draw, so that a
# regenerated SVG is byte-identical to the original.  Entries are
# (svg_name, x_column (None = row index), x_label, y_label,
#  [(series_label, y_column), ...], title, log_y).
_PLOTTABLE = {
    "spectral.csv": (
        "spectral.svg",
        "k",
        "k",
        "mismatch",
        [("eigenvalue", "rel_err"), ("eigenvector", "vec_err")],
        "eigenpair agreement by profile index",
        True,
    ),
    "resonances.csv": (
        "resonances.svg",
        None,
        "pair index",
        "magnitude",
        [("resonant pairs", "rhs_mag")],
        "homological right-hand side at eigenvalue coincidences",
        False,
    ),
    "energy.csv": (
        "energy.svg",
        "t",
        "t",
        "energy",
        [("total energy", "energy")],
        "energy decay of the constrained evolution",
        False,
    ),
    "abscissa_geostrophic_on.csv": (
        "abscissa_geostrophic_on.svg",
        "xi_norm",
        "|xi|",
        "abscissa",
        [("restricted", "abscissa_restricted"), ("full", "abscissa_full")],
        "spectral abscissa sweep (balancing velocity on)",
        False,
    ),
    "abscissa_geostrophic_off.csv": (
        "abscissa_geostrophic_off.svg",
        "xi_norm",
        "|xi|",
        "abscissa",
        [("restricted", "abscissa_restricted"), ("full", "abscissa_full")],
        "spectral abscissa sweep (balancing velocity off)",
        False,
    ),
    "scaling_eps.csv": (
        "scaling_eps.svg",
        "eps",
        "eps",
        "norm",
        [("off-direction drive", "c2_offdirection")],
        "drive compression error against eps",
        True,
    ),
    "scaling_bands.csv": (
        "scaling_bands.svg",
        "band",
        "band",
        "value",
        [("gap", "high_mode_gap"), ("derivative norm", "d3_band_norm")],
        "band projector scalings",
        True,
    ),
}


def emit_plots(report_dir: str) -> list:
    """Regenerate SVG charts from the CSV files present in a report directory."""
    made = []
    for name in sorted(_PLOTTABLE):
        svg_name, x_col, x_label, y_label, columns, title, log_y = _PLOTTABLE[name]
        csv_path = os.path.join(report_dir, name)
        if not os.path.exists(csv_path):
            continue
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
        svg_path = os.path.join(report_dir, svg_name)
        made.append(line_chart(series, title, x_label, y_label, svg_path, log_y=log_y))
    if not made:
        raise MissingData(f"no plottable CSV files in {report_dir}")
    return made
