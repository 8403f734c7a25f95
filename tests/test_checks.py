"""The factored numerical radius of the scaling study against the dense route,
and the abscissa sweep's runner."""

import functools
import json

import numpy as np
import pytest

from taylorlab import evolution as evo
from taylorlab import operators as op
from taylorlab.background import lattice_mode_context, make_background
from taylorlab.checks import (
    direction_perp_compression,
    execute,
    factored_numerical_radius,
    hermitian_part_norm,
    max_over_blocks,
    numerical_radius,
    resonant_term_radius,
    spectral_norm,
)
from taylorlab.config import validate
from taylorlab.report import read_csv

from conftest import fourier_basis, induction_power, start_state


def test_factored_radius_matches_dense_on_random_rank_3():
    # the real backgrounds give a radius of exactly 0, so this is the check
    # that the compression to the ranges of M and M* loses nothing
    rng = np.random.default_rng(11)
    n = 256
    for _ in range(3):
        y, k, z = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((n, 3), (3, 3), (3, n))
        )
        dense = numerical_radius(y @ k @ z)
        assert dense > 1.0
        assert abs(factored_numerical_radius(y, k, z) - dense) <= 1e-12 * dense


def dense_resonant_term_radius(ctx, m):
    """The full-matrix route: five assembled 3(2M+1)^2 operators, V* T V."""
    perp = op.assemble_matrix(lambda b: op.proj_direction_perp(ctx, b), m)
    profile = op.assemble_matrix(lambda b: op.proj_profile(ctx, b), m)
    local = op.assemble_matrix(lambda b: op.magnetostrophic_symmetric(ctx, b), m)
    v_con = fourier_basis(op.constraint_null_basis, ctx, m)
    t_mat = (perp @ profile @ local @ profile @ perp) / ctx.eps
    return numerical_radius(v_con.conj().T @ t_mat @ v_con)


# [[1, 1, 1], [1, -2, .5], [2, -1, 1], [2, 3, .4]] mixes cosines and sines in
# one component, which is what makes the resonant term nonzero
MIXED_PARITY = [(1, 1, 1.0), (1, -2, 0.5), (2, -1, 1.0), (2, 3, 0.4)]


@pytest.mark.parametrize("m_eps", [2, 8, 32])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed"])
def test_resonant_term_radius_matches_full_matrix_route(request, background, m_eps):
    if background == "mixed":
        bg = make_background(MIXED_PARITY)
    else:
        bg = request.getfixturevalue(background)
    ctx = lattice_mode_context(bg, (m_eps, 0))
    m = 32
    dense = dense_resonant_term_radius(ctx, m)
    factored = resonant_term_radius(ctx, fourier_basis(op.constraint_null_basis, ctx, m))
    if background == "mixed":
        assert dense > 1e-3
        assert abs(factored - dense) <= 1e-12 * dense
    else:
        assert factored == dense == 0.0


def test_resonant_term_gate_measures_a_nonzero_radius(tmp_path):
    # the canonical and the default test backgrounds give a radius of exactly
    # 0, so this run is the one where resonant_term_bounded compares numbers;
    # the mixed background needs a window of 96 to pass the band sweep
    cfg = validate(
        {"kind": "scaling-study", "truncation": 96,
         "background": [list(entry) for entry in MIXED_PARITY], "out_dir": str(tmp_path)}
    )
    report = execute(cfg)
    assert report.passed
    gate = next(o for o in report.outcomes if o.name == "resonant_term_bounded")
    assert gate.measured > 1e-3 and gate.tolerance > gate.measured
    header, rows = read_csv(str(tmp_path / "scaling_eps.csv"))
    column = header.index("resonant_term_radius")
    radii = [float(row[column]) for row in rows]
    assert gate.measured == max(radii[1:])
    assert gate.tolerance == 1.25 * radii[0] + 1e-12
    bg = make_background(MIXED_PARITY)
    for m_eps, radius in zip(cfg.eps_modes, radii):
        dense = dense_resonant_term_radius(lattice_mode_context(bg, (m_eps, 0)), 96)
        assert abs(radius - dense) <= 1e-12 * dense


def dense_c2_and_remainder_form(ctx, m):
    """Criterion 06's dense route: the assembled P_perp, perp @ drive @ perp
    and whole-matrix compressions."""
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx, b), m)
    perp = op.assemble_matrix(lambda b: op.proj_direction_perp(ctx, b), m)
    remainder = op.assemble_matrix(lambda b: op.induction_remainder(ctx, b), m)
    v_div = fourier_basis(op.divergence_null_basis, ctx, m)
    v_con = fourier_basis(op.constraint_null_basis, ctx, m)
    diff = drive - perp @ drive @ perp
    c2 = float(np.linalg.norm(v_div.conj().T @ diff @ v_div, 2))
    rem_form = hermitian_part_norm(v_con.conj().T @ remainder @ v_con) / ctx.eps
    blocks = (
        len(op.compression_blocks(diff, v_div)),
        len(op.compression_blocks(remainder, v_con)),
    )
    return c2, rem_form, blocks


def test_stacked_block_norms_equal_the_per_block_loop(bg):
    # one stacked call per block shape gives each block's norm bitwise, so
    # the study's c2 and remainder form are those of the per-block loop
    ctx = lattice_mode_context(bg, (8, 0))
    m = 64
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx, b), m)
    diff = drive - direction_perp_compression(ctx, drive)
    remainder = op.assemble_matrix(lambda b: op.induction_remainder(ctx, b), m)
    # (stacked norm, the same norm of one block, matrix, basis, the number
    # of compressed blocks and of their shapes)
    cases = (
        (spectral_norm, lambda c: float(np.linalg.norm(c, 2)), diff,
         fourier_basis(op.divergence_null_basis, ctx, m), (128, 3)),
        (hermitian_part_norm, lambda c: float(np.abs(np.linalg.eigvalsh(0.5 * (c + c.conj().T))).max()),
         remainder, fourier_basis(op.constraint_null_basis, ctx, m), (2, 2)),
    )
    for stacked, single, square, basis, counts in cases:
        blocks = op.compression_blocks(square, basis)
        compressed = [c for c in op.compress_by_blocks(square, basis, blocks) if c.size]
        shapes = {c.shape for c in compressed}
        assert (len(compressed), len(shapes)) == counts
        for shape in shapes:
            group = [c for c in compressed if c.shape == shape]
            assert np.array_equal(stacked(np.stack(group)), [single(c) for c in group])
        loop = max(single(c) for c in compressed)
        assert max_over_blocks(stacked, square, basis) == loop


@pytest.mark.parametrize(
    "background,spec,remainder_blocks",
    [
        ("bg", "canonical", 2),
        ("alt_bg", [[1, 1, 1.0], [2, -2, 1.0]], 1),
        ("mixed_bg", [list(entry) for entry in MIXED_PARITY], 1),
    ],
)
def test_scaling_study_matches_the_dense_route(
    request, tmp_path, background, spec, remainder_blocks
):
    # the run compresses per coupled block, from P_perp applied to the
    # drive's columns and rows.  The drive's off-direction part splits into
    # many blocks at every background; the remainder splits into the two
    # parities at the canonical one and stays whole where the background
    # mixes parities.  48 is the smallest window at which the mixed
    # background resolves the band sweep
    m = 48
    cfg = validate(
        {"kind": "scaling-study", "truncation": m, "band": 2, "eps_modes": [2, 8, 32],
         "background": spec, "out_dir": str(tmp_path)}
    )
    assert execute(cfg).passed
    header, rows = read_csv(str(tmp_path / "scaling_eps.csv"))
    bg = request.getfixturevalue(background)
    for m_eps, row in zip(cfg.eps_modes, rows):
        c2, rem_form, blocks = dense_c2_and_remainder_form(lattice_mode_context(bg, (m_eps, 0)), m)
        assert blocks[0] > 1 and blocks[1] == remainder_blocks
        for column, dense in (("c2_offdirection", c2), ("remainder_herm_over_eps", rem_form)):
            assert dense > 0.0
            measured = float(row[header.index(column)])
            assert abs(measured - dense) <= 1e-12 * dense


@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_direction_only_matrices_are_bitwise_equal_at_every_eps_mode(request, background):
    # every eps mode (m, 0) has eta = (1, 0) exactly, so the drive D, its
    # off-direction part D - P_perp D P_perp and the fast skew S come out with
    # the same bits at each one: the scaling study forms them once
    bg = request.getfixturevalue(background)
    m = 32
    shared = []
    for m_eps in (2, 8, 32):
        ctx = lattice_mode_context(bg, (m_eps, 0))
        assert ctx.eta == (1.0, 0.0)
        drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx, b), m)
        diff = drive - direction_perp_compression(ctx, drive)
        skew = op.assemble_matrix(lambda b: op.fast_skew(ctx, b), m)
        shared.append((drive, diff, skew))
    for later in shared[1:]:
        for first, other in zip(shared[0], later):
            assert np.array_equal(first, other)
    assert np.count_nonzero(shared[0][1]) and np.count_nonzero(shared[0][2])


@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_remainder_from_the_shared_matrices_is_bitwise_the_assembled_one(request, background):
    # the study forms R = IND eps^2 - S / eps - D elementwise, with S and D
    # from the first eps mode; that is the assembled remainder to the bit
    bg = request.getfixturevalue(background)
    m = 32
    first = lattice_mode_context(bg, (2, 0))
    skew = op.assemble_matrix(lambda b: op.fast_skew(first, b), m)
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(first, b), m)
    for m_eps in (2, 8, 32):
        ctx = lattice_mode_context(bg, (m_eps, 0))
        ind = op.assemble_matrix(lambda b: op._balanced_induction(ctx, b), m)
        drive_free = ind * complex(ctx.eps**2) - skew * complex(1.0 / ctx.eps)
        drive_free -= drive
        assert np.array_equal(
            drive_free, op.assemble_matrix(lambda b: op.induction_remainder(ctx, b), m)
        )


def test_scaling_study_assembles_the_direction_only_matrices_once(tmp_path, monkeypatch):
    # D and S once per study, and one eps-dependent part per eps mode
    assembled = []
    real = op.assemble_matrix

    def counting(fn, truncation):
        assembled.append(truncation)
        return real(fn, truncation)

    monkeypatch.setattr(op, "assemble_matrix", counting)
    eps_modes = [2, 8, 32, 4]
    cfg = validate(
        {"kind": "scaling-study", "truncation": 40, "band": 2, "eps_modes": eps_modes,
         "out_dir": str(tmp_path)}
    )
    assert execute(cfg).passed
    assert len(assembled) == 2 + len(eps_modes)


def test_scaling_study_report_does_not_depend_on_jobs(tmp_path):
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        cfg = validate(
            {"kind": "scaling-study", "truncation": 48, "band": 4, "eps_modes": [2, 8, 32],
             "jobs": jobs, "out_dir": str(out)}
        )
        assert execute(cfg).passed
        outputs.append(
            [(out / name).read_bytes()
             for name in ("report.json", "scaling_eps.csv", "scaling_bands.csv")]
        )
    assert outputs[0] == outputs[1]


def test_direction_perp_compression_at_an_oblique_mode(alt_bg):
    # at (2, 1) the direction (eta, 0) is oblique, so P_perp couples the
    # first two components at each wavenumber
    ctx = lattice_mode_context(alt_bg, (2, 1))
    m = 32
    w = 2 * m + 1
    perp = op.assemble_matrix(lambda b: op.proj_direction_perp(ctx, b), m)
    assert np.count_nonzero(perp[:w, w : 2 * w]) == w
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx, b), m)
    dense = perp @ drive @ perp
    got = direction_perp_compression(ctx, drive)
    assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.parametrize(
    "truncation,band,detail",
    [
        (40, 3, "the sweep has one band (2): nothing to compare; band >= 4 gives two"),
        (48, 4, "gaps at bands 2, 4 must not increase along the sweep"),
    ],
)
def test_high_mode_gap_decreasing_names_its_bands(tmp_path, truncation, band, detail):
    # band 3 at truncation 40 sweeps the band 2 alone, and the gate compares
    # that gap with itself
    cfg = validate(
        {"kind": "scaling-study", "truncation": truncation, "band": band,
         "eps_modes": [2, 8], "out_dir": str(tmp_path)}
    )
    report = execute(cfg)
    assert report.passed
    gate = next(o for o in report.outcomes if o.name == "high_mode_gap_decreasing")
    assert gate.detail == detail
    header, rows = read_csv(str(tmp_path / "scaling_bands.csv"))
    gaps = [float(row[header.index("high_mode_gap")]) for row in rows]
    assert (gate.measured, gate.tolerance) == (gaps[-1], gaps[0])


def _sweep_report(tmp_path, name, **extra):
    raw = {
        "kind": "abscissa-sweep", "truncation": 16, "band": 2,
        "modes": [[1, 0], [2, 0], [4, 0]], "out_dir": str(tmp_path / name),
    }
    raw.update(extra)
    execute(validate(raw))
    with open(tmp_path / name / "report.json", "rb") as fh:
        data = fh.read()
    return data, {o["name"]: o for o in json.loads(data)["outcomes"]}


def test_abscissa_slack_sets_the_trend_bound(tmp_path):
    _, default = _sweep_report(tmp_path, "default")
    _, wide = _sweep_report(tmp_path, "wide", tolerances={"abscissa_slack": 0.5})
    for name in ("abscissa_no_upward_trend", "abscissa_demonstration_lane"):
        # bound = head + slack |head|, and the head is negative
        head = default[name]["tolerance"] / (1 - 0.1)
        assert wide[name]["tolerance"] == pytest.approx(head * (1 - 0.5), rel=1e-14)
        assert wide[name]["measured"] == default[name]["measured"]


def test_abscissa_sweep_report_does_not_depend_on_jobs(tmp_path):
    serial, _ = _sweep_report(tmp_path, "serial")
    pooled, _ = _sweep_report(tmp_path, "pooled", jobs=2)
    assert serial == pooled


def test_evolve_writes_the_induction_power(tmp_path, bg):
    cfg = validate(
        {"kind": "evolve", "truncation": 16, "band": 2, "modes": [[1, 0]],
         "t_final": 0.01, "output_step": 0.01, "out_dir": str(tmp_path)}
    )
    assert execute(cfg).passed
    header, rows = read_csv(str(tmp_path / "diagnostics.csv"))
    assert header[-1] == "power" and len(rows) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert "power" not in json.dumps(report)
    # at t = 0 the field is the seeded initial data
    start = start_state(bg, [(1, 0)], 16, seed=cfg.seed).modes[(1, 0)]
    want = induction_power(lattice_mode_context(bg, (1, 0)), start)
    assert float(rows[0][-1]) == pytest.approx(want, rel=1e-12)


def test_evolve_writes_the_oracle_margins(tmp_path):
    # one row per exponential, the semigroup probe's exp(3h G) on the first
    # mode included
    cfg = validate(
        {"kind": "evolve", "truncation": 12, "band": 1, "modes": [[1, 0], [0, 1]],
         "t_final": 0.01, "output_step": 0.01, "out_dir": str(tmp_path)}
    )
    report = execute(cfg)
    assert report.passed and report.artifacts[-1] == "oracle.csv"
    assert not (tmp_path / "oracle.svg").exists()
    header, rows = read_csv(str(tmp_path / "oracle.csv"))
    assert header == ["mode_index", "h", "condition", "checked", "frobenius_error"]
    assert [row[:2] for row in rows] == [["0", "0.01"], ["0", "0.03"], ["1", "0.01"]]
    for row in rows:
        assert float(row[2]) <= 300.0 and row[3] == "true"
        assert 0.0 < float(row[4]) <= 1e-10


def test_semigroup_probe_is_not_a_product_of_the_steps_exponentials(tmp_path, monkeypatch):
    # scaling and squaring forms exp(2h R_k) by squaring exp(h R_k) where it
    # picks the same Pade degree for both, as it does here: a probe whose
    # exponential is bitwise a product of the step's checks nothing
    computed = {}
    exponential = evo.ModePropagator.exponential

    def record(prop, h):
        outs = exponential(prop, h)
        computed.setdefault(prop, {})[h] = outs
        return outs

    monkeypatch.setattr(evo.ModePropagator, "exponential", record)
    cfg = validate(
        {"kind": "evolve", "truncation": 12, "band": 1, "modes": [[1, 0], [0, 1]],
         "t_final": 0.01, "output_step": 0.01, "out_dir": str(tmp_path)}
    )
    assert execute(cfg).passed
    (probed,) = [per_h for per_h in computed.values() if len(per_h) == 2]
    h, probe_h = sorted(probed)
    k = round(probe_h / h)
    assert k * h == probe_h
    for step, probe in zip(probed[h], probed[probe_h]):
        products = [functools.reduce(np.matmul, [step] * k)]
        products.append(functools.reduce(lambda a, b: b @ a, [step] * k))
        assert not any(np.array_equal(probe, p) for p in products)
