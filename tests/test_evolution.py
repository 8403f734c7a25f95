"""Time stepping: projection, exact flow, averaged profile, snapshots."""

import numpy as np
import pytest
import scipy.linalg

from taylorlab import evolution as evo
from taylorlab import operators as op
from taylorlab.background import lattice_mode_context
from taylorlab.config import validate
from taylorlab.errors import ConstraintDrift, IllConditioned, NonConjugateModes
from taylorlab.fourier import FourierSeries

from conftest import (
    conjugate_by_j,
    constraint_invariance_defect,
    fourier_blocks,
    generator,
    random_field,
    rk4_step,
)


def test_projection_matches_kkt_oracle(ctx10):
    # oracle: explicit least-squares correction x = v - A^H (A A^H)^{-1} A v
    # with A the stacked constraint rows, solved independently of the
    # null-space factorization used by the implementation
    rng = np.random.default_rng(3)
    a = op.constraint_matrix(ctx10, 16)
    gram = a @ a.conj().T
    for _ in range(5):
        b = evo.random_mode_field(16, rng)
        v = op.field_to_vector(b)
        x = v - a.conj().T @ np.linalg.solve(gram, a @ v)
        p = op.field_to_vector(evo.project_constraints(ctx10, b))
        assert np.linalg.norm(x - p) <= 1e-12 * np.linalg.norm(v)


def test_projection_output_satisfies_constraints(ctx10):
    rng = np.random.default_rng(8)
    b = evo.project_constraints(ctx10, random_field(20, rng))
    r_perp, r_3 = op.taylor_residual(ctx10, b)
    assert max(abs(r_perp), abs(r_3)) < 1e-13
    assert op.divergence_residual(ctx10, b) < 1e-13


def test_grad_energy_formula(ctx10):
    rng = np.random.default_rng(1)
    b = random_field(10, rng)
    expected = ctx10.xi_norm**2 * b.norm() ** 2
    expected += sum(c.derivative().norm() ** 2 for c in b.components)
    assert evo.grad_energy(ctx10, b) == pytest.approx(expected, rel=1e-14)


def test_heat_zero_mode_exact_factors():
    coeffs = np.zeros(9, dtype=np.complex128)
    coeffs[5] = 0.5 - 0.25j  # n = +1
    coeffs[3] = np.conj(coeffs[5])
    coeffs[6] = 2.0  # n = +2
    coeffs[2] = 2.0
    p = FourierSeries(coeffs)
    out = evo.heat_zero_mode((p, p, p), 0.1)
    for q in out:
        assert q.coefficient(1) == pytest.approx(
            (0.5 - 0.25j) * 0.01929630291101678, rel=1e-14
        )
        assert q.coefficient(2) == pytest.approx(
            2.0 * 1.3864251631056479e-07, rel=1e-12
        )
        assert q.is_real()


def test_heat_zero_mode_preserves_mean():
    coeffs = np.zeros(5, dtype=np.complex128)
    coeffs[2] = 3.0  # constant part, n = 0
    p = FourierSeries(coeffs)
    out = evo.heat_zero_mode((p, p, p), 2.0)
    assert out[0].coefficient(0) == 3.0


def _dense_exponential(prop, h):
    """exp(h G) as one matrix: the propagator applied to the identity."""
    return prop.propagate(np.eye(sum(len(idx) for idx in prop.blocks)), h)


def test_propagator_semigroup_property(ctx10):
    prop = evo.build_propagator(ctx10, 12)
    h = 0.01
    one = _dense_exponential(prop, h)
    two = _dense_exponential(prop, 2 * h)
    rel = np.linalg.norm(one @ one - two, 2) / np.linalg.norm(two, 2)
    assert rel < 1e-10


@pytest.mark.parametrize("h", [0.125, -0.125])
def test_blockwise_exponential_matches_the_whole_matrix(ctx10, h):
    # truncation 8 keeps the backward diffusion exp(4 pi^2 M^2 |h|) finite
    m = 8
    prop = evo.build_propagator(ctx10, m)
    n = np.tile(np.arange(-m, m + 1), 3)
    assert [len(idx) for idx in prop.blocks] == [3 * (m + 1), 3 * m]
    for idx in prop.blocks:
        assert len(set(n[idx] % 2)) == 1
    full = scipy.linalg.expm(h * generator(ctx10, m))
    rel = np.linalg.norm(_dense_exponential(prop, h) - full, 2) / np.linalg.norm(full, 2)
    assert rel < 1e-12


@pytest.mark.parametrize(
    "background,sizes", [("mixed_bg", [51]), ("alt_bg", [26, 25])], ids=["mixed_bg", "alt_bg"]
)
def test_single_block_exponential_matches_the_whole_matrix(request, background, sizes):
    # the Fourier pattern gives one block: the mixed background stays whole,
    # and takes the same pair-basis route as every other block; the real
    # pattern of [[1,1,1],[2,-2,1]] splits it
    m = 8
    ctx = lattice_mode_context(request.getfixturevalue(background), (1, 0))
    prop = evo.build_propagator(ctx, m)
    g = generator(ctx, m)
    assert [len(idx) for idx in fourier_blocks(g, m)] == [51]
    assert [len(idx) for idx in prop.blocks] == sizes
    for h in (0.125, -0.125):
        full = scipy.linalg.expm(h * g)
        rel = np.linalg.norm(_dense_exponential(prop, h) - full, 2) / np.linalg.norm(full, 2)
        assert rel < 1e-12


def test_exponential_is_cached_per_block_in_the_pair_basis(ctx10):
    prop = evo.build_propagator(ctx10, 16)
    prop.exponential(0.01)
    prop.exponential(-0.01)
    forward, backward = prop.propagator_cache[0.01], prop.propagator_cache[-0.01]
    sizes = [len(idx) for idx in prop.blocks]
    assert len(sizes) == 2 and len(forward) == len(backward) == 2
    assert [e.shape for e in forward] == [(n, n) for n in sizes]
    assert all(e.dtype == np.float64 for e in forward)
    assert all(e.dtype == np.complex128 for e in backward)
    assert sum(e.nbytes for e in forward) <= sum(n * n for n in sizes) * 8
    # the pair basis of each block: exp(h G_k) = U_k exp(h R_k) U_k*, with
    # U_k the block of U, which keeps the parity blocks
    g = generator(ctx10, 16)
    u = op.PairTransform(16).lift(np.eye(len(g)))
    for idx, e in zip(prop.blocks, forward):
        u_k = u[np.ix_(idx, idx)]
        want = scipy.linalg.expm(0.01 * g[np.ix_(idx, idx)])
        assert np.linalg.norm(u_k @ e @ u_k.conj().T - want, 2) < 1e-13 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("background,m", [("bg", 16), ("alt_bg", 8)], ids=["bg", "alt_bg"])
def test_blockwise_abscissas_match_the_whole_matrix(request, background, m):
    ctx = lattice_mode_context(request.getfixturevalue(background), (1, 0))
    prop = evo.build_propagator(ctx, m)
    assert len(prop.blocks) == 2
    g, v = generator(ctx, m), op.constraint_null_basis(ctx, m)
    restricted = np.linalg.eigvals(v.conj().T @ g @ v).real.max()
    assert prop.restricted_abscissa == pytest.approx(restricted, rel=1e-12)
    # the raw generator's abscissa is a zero eigenvalue up to roundoff
    assert abs(prop.unconstrained_abscissa - np.linalg.eigvals(g).real.max()) < 1e-12
    defect = np.linalg.norm(g @ v - v @ (v.conj().T @ g @ v), 2)
    assert constraint_invariance_defect(prop) == pytest.approx(defect, abs=1e-12)


def test_planted_oracle_disagreement_raises(ctx10):
    prop = evo.build_propagator(ctx10, 8)
    g = generator(ctx10, 8)
    blocks = [g[np.ix_(idx, idx)] for idx in prop.blocks]
    oracles = [evo._eigen_oracle(block) for block in blocks]
    evo._checked_expm(blocks, lambda: oracles, 0.01)  # honest oracles pass
    w, vecs, inverse, sigma = oracles[1]
    oracles[1] = (w + 1e-6, vecs, inverse, sigma)
    with pytest.raises(IllConditioned, match="disagrees with eigendecomposition"):
        evo._checked_expm(blocks, lambda: oracles, 0.01)


def test_planted_eigenvalue_error_raises_through_the_propagator(ctx10, monkeypatch):
    oracle = evo._eigen_oracle

    def planted(block):
        w, vecs, inverse, sigma = oracle(block)
        return w + 1e-6, vecs, inverse, sigma

    monkeypatch.setattr(evo, "_eigen_oracle", planted)
    prop = evo.build_propagator(ctx10, 8)
    with pytest.raises(IllConditioned, match="disagrees with eigendecomposition"):
        prop.exponential(0.01)
    # truncation 8 takes the complex route; 16 the real one
    assert prop._oracles[0] == "complex"
    prop = evo.build_propagator(ctx10, 16)
    with pytest.raises(IllConditioned, match="disagrees with eigendecomposition"):
        prop.exponential(0.01)
    assert prop._oracles[0] == "real"


def test_oracle_runs_on_the_default_evolve_modes(bg, monkeypatch):
    # the pair basis must not switch the cross-check off: every default mode
    # takes the real route, the eigenvector condition the gate reads stays
    # affordable, and the errors are taken
    errors = []
    measure = evo._oracle_error
    monkeypatch.setattr(
        evo, "_oracle_error", lambda *a: errors.append(measure(*a)) or errors[-1]
    )
    for key in validate({"kind": "evolve"}).modes:
        prop = evo.build_propagator(lattice_mode_context(bg, key), 64)
        prop.exponential(0.125)
        route, oracles = prop._oracles
        assert route == "real"
        sigma = np.concatenate([oracle[3] for oracle in oracles])
        assert sigma.max() / sigma.min() <= evo.EXPM_ORACLE_CONDITION
        for (_, vecs, inverse, sigma_k), idx in zip(oracles, prop.blocks):
            # the recorded singular values are those of W, and W^-1 inverts W
            assert np.allclose(np.linalg.svd(vecs, compute_uv=False), sigma_k, rtol=1e-12)
            assert np.linalg.norm(inverse @ vecs - np.eye(len(idx))) < 1e-10
        assert len(errors) == len(prop.blocks)
        assert max(errors) <= evo.EXPM_ORACLE_TOL
        assert prop.oracle_margins == {
            0.125: ("real", sigma.max() / sigma.min(), True, max(errors))
        }
        errors.clear()


@pytest.mark.parametrize("key", [(1, 0), (0, 1), (1, 1), (2, 1), (4, 0)])
@pytest.mark.parametrize("m", [8, 16, 40])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_oracle_passes_the_gate_wherever_the_complex_route_does(
    request, background, m, key
):
    ctx = lattice_mode_context(request.getfixturevalue(background), key)
    prop = evo.build_propagator(ctx, m)
    # the reference: complex eig of each block G_k of G's own Fourier
    # pattern, whose condition the gate read before the real route existed
    g = generator(ctx, m)
    sigma = np.concatenate(
        [
            np.linalg.svd(np.linalg.eig(g[np.ix_(idx, idx)])[1], compute_uv=False)
            for idx in fourier_blocks(g, m)
        ]
    )
    prop.exponential(0.125)
    route, condition, checked, error = prop.oracle_margins[0.125]
    if sigma.max() / sigma.min() <= evo.EXPM_ORACLE_CONDITION:
        assert checked and condition <= evo.EXPM_ORACLE_CONDITION
        # the largest of the blocks' Frobenius errors
        assert error <= evo.EXPM_ORACLE_TOL


def test_real_eigenvectors_beyond_the_gate_fall_back_to_the_complex_route(ctx10):
    # at truncation 8 real eig of the odd block of (1, 0) picks eigenvectors
    # of condition about 456; complex eig of the same R_k, about 89
    prop = evo.build_propagator(ctx10, 8)
    real = [evo._eigen_oracle(r) for r in prop.generators]
    assert evo._condition(real) > evo.EXPM_ORACLE_CONDITION
    prop.exponential(0.125)
    route, condition, checked, error = prop.oracle_margins[0.125]
    assert route == "complex" and checked
    assert condition <= evo.EXPM_ORACLE_CONDITION and error <= evo.EXPM_ORACLE_TOL


def _held_arrays(obj):
    """Every ndarray reachable from ``obj`` through tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _held_arrays(item)


@pytest.mark.parametrize("background", ["bg", "alt_bg"])
def test_propagator_holds_only_its_real_blocks(request, background):
    m = 16
    ctx = lattice_mode_context(request.getfixturevalue(background), (1, 0))
    prop = evo.build_propagator(ctx, m)
    g, v = generator(ctx, m), op.constraint_null_basis(ctx, m)
    held = list(_held_arrays(list(vars(prop).values())))
    # the index sets are the only arrays that are not float64 matrices
    index_ids = {id(idx) for idx in prop.blocks}
    assert all(idx.dtype.kind == "i" for idx in prop.blocks)
    matrices = [a for a in held if id(a) not in index_ids]
    assert all(a.dtype == np.float64 for a in matrices)
    assert not any(a.shape in (g.shape, v.shape) for a in held)
    sizes = [(len(r), c.shape[1]) for r, c in zip(prop.generators, prop.bases)]
    assert sum(a.nbytes for a in matrices) <= 8 * sum(n * n + n * c for n, c in sizes)
    assert all(not r.flags.writeable for r in prop.generators)


def test_propagator_forms_r_and_c_once(ctx10, monkeypatch):
    # one pair_form of G and one of V at construction; no kernel forms a
    # block again
    calls = []
    pair_form = op.PairTransform.pair_form
    monkeypatch.setattr(
        op.PairTransform,
        "pair_form",
        lambda self, a, square=True: calls.append(square) or pair_form(self, a, square),
    )
    prop = evo.build_propagator(ctx10, 16)
    assert calls == [True, False]
    prop.restricted_abscissa, prop.unconstrained_abscissa
    prop.exponential(0.01)
    prop.power(op.field_to_vector(evo.random_mode_field(16, np.random.default_rng(0))))
    assert calls == [True, False]


@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_power_from_the_blocks_matches_the_generator(request, background):
    m = 16
    rng = np.random.default_rng(11)
    for key in [(1, 0), (2, 1), (0, 3)]:
        ctx = lattice_mode_context(request.getfixturevalue(background), key)
        prop = evo.build_propagator(ctx, m)
        g = generator(ctx, m)
        bound_per_norm = 3 * (2 * m + 1) * np.finfo(float).eps * np.abs(g).max()
        for _ in range(3):
            x = rng.standard_normal(len(g)) + 1j * rng.standard_normal(len(g))
            want = np.vdot(x, g @ x).real
            assert abs(prop.power(x) - want) <= bound_per_norm * np.vdot(x, x).real


def test_induction_power_of_the_evolution_matches_the_functional_route(bg):
    modes = [(1, 0), (2, 1)]
    state = evo.run_evolution(
        bg, modes, t_final=0.01, output_step=0.005, truncation=16, seed=5
    )
    logged = {(row[0], row[1]): row[6] for row in state.mode_rows}
    for t, fields in ((0.0, state.initial_modes), (state.time, state.modes)):
        for idx, key in enumerate(modes):
            want = evo.induction_power(lattice_mode_context(bg, key), fields[key])
            assert logged[t, idx] == pytest.approx(want, rel=1e-12)


def test_oracle_is_skipped_for_a_defective_block():
    # a Jordan block has no eigenvector basis: the exponential is still
    # returned, unchecked, as when the condition exceeds the gate
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    oracle = evo._eigen_oracle(jordan)
    assert oracle[2] is None
    (out,), condition, error = evo._checked_expm([jordan], lambda: [oracle], 0.5)
    assert condition > evo.EXPM_ORACLE_CONDITION and error is None
    assert np.allclose(out, [[1.0, 0.5], [0.0, 1.0]], rtol=0, atol=1e-15)


def test_exact_flow_matches_rk4(ctx10):
    # independent integrator: 20 classical Runge-Kutta steps at h small
    # enough that the O(h^4) defect sits far below the comparison tolerance
    prop = evo.build_propagator(ctx10, 8)
    g = generator(ctx10, 8)
    rng = np.random.default_rng(4)
    b = evo.project_constraints(ctx10, evo.random_mode_field(8, rng))
    exact, rk = b, b
    for _ in range(20):
        exact = evo.step(prop, exact, 1e-5)
        rk = rk4_step(g, rk, 1e-5)
    assert (exact - rk).norm() / exact.norm() < 1e-9


def test_energy_identity_central_difference(ctx10):
    # d/dt ||b||^2 = 2 (power - grad_energy); the forward/backward flows give
    # a second-order difference quotient, so the mismatch must shrink ~h^2
    prop = evo.build_propagator(ctx10, 12)
    rng = np.random.default_rng(3)
    b = evo.project_constraints(ctx10, evo.random_mode_field(12, rng))
    v = op.field_to_vector(b)
    analytic = 2.0 * (evo.induction_power(ctx10, b) - evo.grad_energy(ctx10, b))
    errs = []
    for h in (1e-5, 1e-6):
        ep = np.linalg.norm(prop.propagate(v, h)) ** 2
        em = np.linalg.norm(prop.propagate(v, -h)) ** 2
        errs.append(abs((ep - em) / (2 * h) - analytic) / abs(analytic))
    assert errs[1] < 1e-5
    assert 50.0 < errs[0] / errs[1] < 200.0


def test_invariance_defect_distinguishes_balancing(ctx10):
    on = evo.build_propagator(ctx10, 24, include_geostrophic=True)
    off = evo.build_propagator(ctx10, 24, include_geostrophic=False)
    assert constraint_invariance_defect(on) < 1e-9
    assert constraint_invariance_defect(off) > 1.0


def test_step_without_balancing_drifts(ctx10):
    prop = evo.build_propagator(ctx10, 24, include_geostrophic=False)
    rng = np.random.default_rng(5)
    b = evo.project_constraints(ctx10, evo.random_mode_field(24, rng))
    with pytest.raises(ConstraintDrift, match="constraint residual"):
        evo.step(prop, b, 0.05)


def test_step_with_balancing_stays_constrained(ctx10):
    prop = evo.build_propagator(ctx10, 24)
    rng = np.random.default_rng(5)
    b = evo.project_constraints(ctx10, evo.random_mode_field(24, rng))
    out = evo.step(prop, b, 0.05)
    r_perp, r_3 = op.taylor_residual(ctx10, out)
    assert max(abs(r_perp), abs(r_3)) < 1e-10
    assert op.divergence_residual(ctx10, out) < 1e-10


def test_abscissa_sweep_values(bg):
    rows = evo.abscissa_sweep(bg, [(1, 0), (2, 0), (4, 0), (8, 0)], truncation=40)
    frozen = [
        -39.47841760436865,
        -191.06570996268118,
        -738.0856153494404,
        -2668.136008315539,
    ]
    for (xi_norm, restricted, unconstrained), want in zip(rows, frozen):
        assert restricted == pytest.approx(want, rel=1e-9)
        # the raw generator is only neutrally stable; boundedness of the
        # flow is a property of the constrained compression
        assert abs(unconstrained) < 1e-8
    assert rows[0][0] == pytest.approx(2 * np.pi, rel=1e-14)


def test_initial_state_deterministic(bg):
    s1 = evo.initial_state(bg, [(1, 0), (0, 2)], 12, seed=9)
    s2 = evo.initial_state(bg, [(1, 0), (0, 2)], 12, seed=9)
    s3 = evo.initial_state(bg, [(1, 0), (0, 2)], 12, seed=10)
    for key in s1.modes:
        for c1, c2 in zip(s1.modes[key].components, s2.modes[key].components):
            assert np.array_equal(c1.coeffs, c2.coeffs)
    assert any(
        not np.array_equal(c1.coeffs, c3.coeffs)
        for c1, c3 in zip(s1.modes[(1, 0)].components, s3.modes[(1, 0)].components)
    )


def test_initial_state_is_constrained(bg):
    state = evo.initial_state(bg, [(1, 0), (2, 1)], 16, seed=2)
    for key, b in state.modes.items():
        ctx = lattice_mode_context(bg, key)
        r_perp, r_3 = op.taylor_residual(ctx, b)
        assert max(abs(r_perp), abs(r_3)) < 1e-13
        assert op.divergence_residual(ctx, b) < 1e-13


def test_initial_state_without_zero_mode(bg):
    state = evo.initial_state(bg, [(1, 0)], 8, seed=0, with_zero_mode=False)
    assert all(p.norm() == 0.0 for p in state.zero_mode)


def test_random_zero_mode_structure():
    rng = np.random.default_rng(0)
    profiles = evo.random_zero_mode(10, rng)
    for p in profiles[:2]:
        assert p.is_real()
        assert p.coefficient(0) == 0.0
        assert p.norm() > 0.0
    # averaged vertical component of a solenoidal zero-mean field vanishes
    assert profiles[2].norm() == 0.0


def test_run_evolution_diagnostics(bg):
    state = evo.run_evolution(
        bg, [(1, 0), (0, 2)], t_final=0.02, output_step=0.005, truncation=16, seed=5
    )
    assert state.time == pytest.approx(0.02)
    assert len(state.diagnostics_log) == 5
    assert len(state.mode_rows) == 10
    energies = [row[1] for row in state.diagnostics_log]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    taylor = max(row[3] for row in state.diagnostics_log)
    div = max(row[4] for row in state.diagnostics_log)
    assert taylor < 1e-10 and div < 1e-10


def test_run_evolution_jobs_deterministic(bg):
    kwargs = dict(t_final=0.01, output_step=0.005, truncation=12, seed=1)
    serial = evo.run_evolution(bg, [(1, 0), (0, 2)], jobs=1, **kwargs)
    pooled = evo.run_evolution(bg, [(1, 0), (0, 2)], jobs=3, **kwargs)
    assert serial.diagnostics_log == pooled.diagnostics_log
    for key in serial.modes:
        for c1, c2 in zip(serial.modes[key].components, pooled.modes[key].components):
            assert np.array_equal(c1.coeffs, c2.coeffs)


def test_run_evolution_zero_mode_heat_decay(bg):
    state = evo.run_evolution(
        bg, [(1, 0)], t_final=0.02, output_step=0.01, truncation=12, seed=7
    )
    start = evo.initial_state(bg, [(1, 0)], 12, seed=7)
    for comp in range(2):
        c0 = start.zero_mode[comp].coefficient(1)
        c1 = state.zero_mode[comp].coefficient(1)
        assert c1 == pytest.approx(c0 * np.exp(-4 * np.pi**2 * 0.02), rel=1e-12)


def _symmetrized_state(bg, keys, truncation, seed):
    state = evo.initial_state(bg, keys, truncation, seed=seed)
    for key in list(state.modes):
        partner = (-key[0], -key[1])
        if partner not in state.modes:
            continue
        b = state.modes[key]
        state.modes[partner] = op.ModeField(
            *(FourierSeries(np.conj(c.coeffs[::-1])) for c in b.components)
        )
    return state


def test_full_field_real_and_divergence_free(bg):
    state = _symmetrized_state(bg, [(1, 0), (-1, 0), (0, 2), (0, -2)], 12, seed=7)
    snap = evo.assemble_full_field(state, horizontal_points=16, vertical_points=64)
    assert snap.dtype == np.float64
    assert snap.shape == (16, 16, 64, 3)

    # spectral divergence on the sampling grid; the snapshot is band-limited
    # well inside the grid, so this is exact up to roundoff
    nh, _, nz, _ = snap.shape
    k1 = 2 * np.pi * np.fft.fftfreq(nh, d=1.0 / nh)
    k3 = 2 * np.pi * np.fft.fftfreq(nz, d=1.0 / nz)
    hat = [np.fft.fftn(snap[..., c]) for c in range(3)]
    div = (
        1j * k1[:, None, None] * hat[0]
        + 1j * k1[None, :, None] * hat[1]
        + 1j * k3[None, None, :] * hat[2]
    )
    scale = max(np.linalg.norm(h) for h in hat)
    assert np.linalg.norm(div) < 1e-12 * scale


def test_full_field_warns_when_not_symmetric(bg):
    state = evo.initial_state(bg, [(1, 0)], 8, seed=0)
    with pytest.warns(NonConjugateModes):
        snap = evo.assemble_full_field(state)
    assert np.iscomplexobj(snap)


# ----------------------------------------------------------------------
# the real form: J commutes with every per-mode generator
# ----------------------------------------------------------------------


@pytest.mark.parametrize("lane", [True, False])
@pytest.mark.parametrize("key", [(1, 0), (2, 1), (32, 0)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_generator_commutes_with_j(request, background, key, lane):
    m = 64
    ctx = lattice_mode_context(request.getfixturevalue(background), key)
    g = generator(ctx, m, include_geostrophic=lane)
    jgj = conjugate_by_j(m, g)
    bound = len(g) * np.finfo(float).eps * np.abs(g).max()
    assert np.abs(jgj - g).max() <= bound


def test_restricted_abscissa_of_the_first_mode_is_minus_four_pi_squared(ctx10):
    # at the canonical background the slowest constrained field of mode (1, 0)
    # decays at the diffusion rate of |xi|^2 = 4 pi^2
    prop = evo.build_propagator(ctx10, 64)
    assert prop.restricted_abscissa == pytest.approx(-4 * np.pi**2, rel=1e-12, abs=0)


@pytest.mark.parametrize("m", [16, 32])
def test_restricted_abscissa_of_the_first_mode_at_smaller_windows(ctx10, m):
    prop = evo.build_propagator(ctx10, m)
    assert prop.restricted_abscissa == pytest.approx(-4 * np.pi**2, rel=1e-12, abs=0)


@pytest.mark.parametrize("m", [16, 64])
def test_unconstrained_abscissa_without_balancing_is_minus_xi_squared(bg, m):
    # at the canonical background, without the balancing velocity, the
    # slowest field of mode (k, 0) decays at the diffusion rate |xi|^2
    for k in (1, 2, 4):
        ctx = lattice_mode_context(bg, (k, 0))
        prop = evo.build_propagator(ctx, m, include_geostrophic=False)
        want = -ctx.xi_norm**2
        assert prop.unconstrained_abscissa == pytest.approx(want, rel=1e-12, abs=0)


def invariance_ratios(prop):
    """max|W_k^T R_k C_k| over the deflation bound n_k eps max|R_k|, per block."""
    ratios = []
    for r, c in zip(prop.generators, prop.bases):
        w = evo._complement(c)
        bound = len(r) * np.finfo(float).eps * np.abs(r).max()
        ratios.append(np.abs(w.T @ r @ c).max(initial=0.0) / bound)
    return ratios


@pytest.mark.parametrize("mode", [(1, 0), (4, 0), (2, 1)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_invariance_bound_separates_the_blocks_by_a_wide_margin(request, background, mode):
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    on = invariance_ratios(evo.build_propagator(ctx, 16, include_geostrophic=True))
    off = invariance_ratios(evo.build_propagator(ctx, 16, include_geostrophic=False))
    # the balancing velocity keeps every block's constrained span invariant
    assert max(on) <= 0.1
    # without it some block is far from invariant, and none is near the bound
    assert max(off) >= 1e6
    assert all(ratio <= 0.1 or ratio >= 1e6 for ratio in off)


def grown_deflation_margins(prop):
    """Per block whose constrained span is not invariant: (the kept singular
    values of the coupling W_k^T R_k C_k, the dropped ones, and the residual
    max|W'^T R_k [C_k, t]| of the grown span), each over the deflation bound."""
    margins = []
    for r, c in zip(prop.generators, prop.bases):
        w = evo._complement(c)
        bound = len(r) * np.finfo(float).eps * np.abs(r).max()
        coupling = w.T @ r @ c
        if np.abs(coupling).max(initial=0.0) <= bound:
            continue
        left, sigma, _ = np.linalg.svd(coupling)
        rank = np.count_nonzero(sigma > bound)
        grown = np.hstack([c, w @ left[:, :rank]])
        residual = np.abs((w @ left[:, rank:]).T @ r @ grown).max(initial=0.0)
        margins.append((sigma[:rank] / bound, sigma[rank:] / bound, residual / bound))
    return margins


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_grown_deflation_bound_separates_by_a_wide_margin(request, background, m):
    # where C_k is not invariant, the coupling's range grows it by rank 1 or
    # 2 to an invariant span: the singular values kept and dropped, and the
    # grown span's residual, stay far from the one bound that decides
    bg = request.getfixturevalue(background)
    grown = 0
    for mode in [(1, 0), (2, 0), (4, 0), (8, 0), (16, 0), (32, 0), (2, 1)]:
        ctx = lattice_mode_context(bg, mode)
        basis = op.constraint_null_basis(ctx, m)
        for gen in evo.lane_generators(ctx, m, (True, False)):
            prop = evo.ModePropagator.from_matrices(ctx, gen, basis)
            for kept, dropped, residual in grown_deflation_margins(prop):
                assert len(kept) in (1, 2)
                assert kept.min() >= 1e6
                assert dropped.max(initial=0.0) <= 0.1
                assert residual <= 0.1
                grown += 1
    assert grown > 0


@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_abscissa_lanes_factor_no_whole_block(request, monkeypatch, background):
    bg = request.getfixturevalue(background)
    modes = [(1, 0), (4, 0), (2, 1)]
    factored = set()
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: factored.add(a.tobytes()) or eigvals(a))
    evo.abscissa_lanes(bg, modes, truncation=16)
    monkeypatch.undo()
    for key in modes:
        ctx = lattice_mode_context(bg, key)
        for lane in (True, False):
            prop = evo.build_propagator(ctx, 16, lane)
            assert not any(r.tobytes() in factored for r in prop.generators)


def test_abscissa_lanes_assemble_once_per_mode(bg, monkeypatch):
    modes = [(1, 0), (2, 0), (2, 1)]
    calls = []
    assemble = evo.assemble_matrix
    monkeypatch.setattr(evo, "assemble_matrix", lambda *a: calls.append(a) or assemble(*a))
    evo.abscissa_lanes(bg, modes, truncation=16, lanes=(True, False))
    assert len(calls) == len(modes)


@pytest.mark.parametrize("m", [16, 40])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1), (8, 0), (0, 3)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg", "wide_bg"])
def test_lane_generators_derive_the_balanced_generator_bitwise(request, background, mode, m):
    # G_on = G_off + the balancing term of G_off's columns, from one
    # assembly, is bitwise the assembly of the balanced right-hand side
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    on, off = evo.lane_generators(ctx, m, (True, False))
    for lane, gen in ((True, on), (False, off)):
        want = op.assemble_matrix(lambda b: op.full_induction(ctx, b, lane), m)
        assert np.array_equal(gen, want)
        assert not gen.flags.writeable


@pytest.mark.parametrize("lane", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1), (16, 0)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_deflated_unconstrained_abscissa_matches_the_whole_matrix(
    request, background, mode, lane
):
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    prop = evo.build_propagator(ctx, 16, include_geostrophic=lane)
    g = generator(ctx, 16, include_geostrophic=lane)
    want = np.linalg.eigvals(g).real.max()
    bound = len(g) * np.finfo(float).eps * np.linalg.norm(g, 2)
    assert abs(prop.unconstrained_abscissa - want) <= bound


@pytest.mark.parametrize("background,shared", [("bg", True), ("alt_bg", False)])
def test_abscissa_lanes_factor_each_distinct_block_once_per_mode(
    request, monkeypatch, background, shared
):
    # at the canonical background the balancing velocity's rows vanish in C,
    # so the lanes' compressed blocks are bitwise equal and factored once;
    # at alt_bg they differ and both lanes' blocks are factored
    bg = request.getfixturevalue(background)
    modes = [(1, 0), (2, 0), (4, 0)]
    factored = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: factored.append(a.tobytes()) or eigvals(a))
    evo.abscissa_lanes(bg, modes, truncation=16)
    monkeypatch.undo()
    assert len(set(factored)) == len(factored)
    for key in modes:
        ctx = lattice_mode_context(bg, key)
        on, off = (evo.build_propagator(ctx, 16, lane) for lane in (True, False))
        on_blocks = {c.tobytes() for c in on.compressed_blocks}
        off_blocks = {c.tobytes() for c in off.compressed_blocks}
        assert (on_blocks == off_blocks) is shared
        assert all(block in factored for block in on_blocks | off_blocks)


def test_generator_off_j_symmetry_raises(ctx10):
    m = 16
    honest = generator(ctx10, m)
    basis = op.constraint_null_basis(ctx10, m)
    evo.ModePropagator.from_matrices(ctx10, honest, basis)  # the honest pair builds
    # first component, n = 1 row and n = 3 column: both odd, one block
    g = np.array(honest)
    g[m + 1, m + 3] += 1e-6 * np.abs(g).max()
    # the real R_k are formed at construction, so construction raises
    with pytest.raises(IllConditioned, match="generator is not real in the pair basis"):
        evo.ModePropagator.from_matrices(ctx10, g, basis)
    # a basis whose columns J does not fix: i v for J-fixed v
    with pytest.raises(IllConditioned, match="constraint basis is not real"):
        evo.ModePropagator.from_matrices(ctx10, honest, 1j * basis)


def test_frobenius_oracle_error_beyond_tolerance_passes_on_the_exact_norm():
    # exp(G) = 1e4 * Id (k = 100); oracle eigenvalues off by 5e-11 put
    # 5e-7 on each diagonal entry: ||D||_F = 5e-6 is above the tolerance
    # even relative to ||exp(G)||_2 = 1e4 (5e-10), the exact relative
    # 2-norm error 5e-11, which the gate reads, is not
    k = 100
    g = np.log(1e4) * np.eye(k, dtype=np.complex128)
    w, vecs, inverse, sigma = evo._eigen_oracle(g)
    planted = (w + 5e-11, vecs, inverse, sigma)
    (out,), _, error = evo._checked_expm([g], lambda: [planted], 1.0)
    # the recorded margin is the Frobenius error, not the gate's quantity
    assert error > evo.EXPM_ORACLE_TOL
    delta = out - vecs @ (np.exp(planted[0])[:, None] * inverse)
    scale = np.linalg.norm(out, 2)
    assert np.linalg.norm(delta) / scale > evo.EXPM_ORACLE_TOL
    assert np.linalg.norm(delta, 2) / scale <= evo.EXPM_ORACLE_TOL


def test_abscissa_lanes_share_one_basis_per_mode(bg, monkeypatch):
    modes = [(1, 0), (2, 0), (4, 0)]
    calls = []
    factor = evo.constraint_null_basis
    monkeypatch.setattr(
        evo, "constraint_null_basis", lambda *a: calls.append(a) or factor(*a)
    )
    on, off = evo.abscissa_lanes(bg, modes, truncation=16, lanes=(True, False))
    assert len(calls) == len(modes)
    monkeypatch.undo()
    assert on == evo.abscissa_sweep(bg, modes, truncation=16, include_geostrophic=True)
    assert off == evo.abscissa_sweep(bg, modes, truncation=16, include_geostrophic=False)
    pooled = evo.abscissa_lanes(bg, modes, truncation=16, lanes=(True, False), jobs=2)
    assert pooled == [on, off]


def test_oracle_is_factored_after_the_exponentials(ctx10, monkeypatch):
    # the propagator hands _checked_expm a function for its oracles, so the
    # eigendecompositions, the complex fallback's included, start only once
    # every expm of the same h has returned; a second h factors nothing
    order = []
    expm, oracle = scipy.linalg.expm, evo._eigen_oracle
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: order.append("expm") or expm(a))
    monkeypatch.setattr(evo, "_eigen_oracle", lambda a: order.append("eig") or oracle(a))
    prop = evo.build_propagator(ctx10, 8)
    prop.exponential(0.01)
    assert order[:2] == ["expm", "expm"]
    assert set(order[2:]) == {"eig"}
    first = len(order)
    prop.exponential(0.02)
    assert order[first:] == ["expm", "expm"]
