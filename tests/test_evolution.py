"""Time stepping: projection, exact flow, averaged profile, snapshots."""

import numpy as np
import pytest
import scipy.linalg

from taylorlab import evolution as evo
from taylorlab import operators as op
from taylorlab.background import lattice_mode_context, make_background
from taylorlab.checks import execute
from taylorlab.config import validate
from taylorlab.errors import IllConditioned
from taylorlab.fourier import FourierSeries
from taylorlab.report import read_csv

from conftest import (
    abscissa_sweep,
    conjugate_by_j,
    constraint_invariance_defect,
    count_calls,
    dense_exponential,
    fourier_blocks,
    generator,
    grad_energy,
    induction_power,
    is_real,
    lift_field,
    lower_field,
    project,
    propagator,
    propagator_from_matrices,
    random_field,
    rk4_step,
    start_state,
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
        p = op.field_to_vector(project(ctx10, b))
        assert np.linalg.norm(x - p) <= 1e-12 * np.linalg.norm(v)


def test_projection_output_satisfies_constraints(ctx10):
    rng = np.random.default_rng(8)
    b = project(ctx10, random_field(20, rng))
    r_perp, r_3 = op.taylor_residual(ctx10, b)
    assert max(abs(r_perp), abs(r_3)) < 1e-13
    assert op.divergence_residual(ctx10, b) < 1e-13


def test_grad_energy_formula(ctx10):
    # the energy and the seminorm that the diagnostics read from the pair
    # coordinates, against their formulas in Fourier coefficients
    rng = np.random.default_rng(1)
    b = random_field(10, rng)
    expected = ctx10.xi_norm**2 * b.norm() ** 2
    expected += sum(c.derivative().norm() ** 2 for c in b.components)
    assert grad_energy(ctx10, b) == pytest.approx(expected, rel=1e-14)
    energy, grad = propagator(ctx10, 10).diagnostics(lower_field(b))[:2, 0]
    assert energy == pytest.approx(b.norm() ** 2, rel=1e-14)
    assert grad == pytest.approx(expected, rel=1e-14)


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
        assert is_real(q)


def test_heat_zero_mode_preserves_mean():
    coeffs = np.zeros(5, dtype=np.complex128)
    coeffs[2] = 3.0  # constant part, n = 0
    p = FourierSeries(coeffs)
    out = evo.heat_zero_mode((p, p, p), 2.0)
    assert out[0].coefficient(0) == 3.0


def test_propagator_semigroup_property(ctx10):
    # three steps against one of 3h: _expm forms exp(2h R_k) here by one more
    # squaring of the matrix it squares for exp(h R_k), so a 2h step would
    # compare a product with itself
    prop = propagator(ctx10, 12)
    h = 0.01
    one = dense_exponential(prop, h)
    three = dense_exponential(prop, 3 * h)
    rel = np.linalg.norm(one @ one @ one - three, 2) / np.linalg.norm(three, 2)
    assert rel < 1e-10


@pytest.mark.parametrize("h", [0.125])
def test_blockwise_exponential_matches_the_whole_matrix(ctx10, h):
    m = 8
    prop = propagator(ctx10, m)
    n = np.tile(np.arange(-m, m + 1), 3)
    assert [len(idx) for idx in prop.blocks] == [3 * (m + 1), 3 * m]
    for idx in prop.blocks:
        assert len(set(n[idx] % 2)) == 1
    full = scipy.linalg.expm(h * generator(ctx10, m))
    rel = np.linalg.norm(dense_exponential(prop, h) - full, 2) / np.linalg.norm(full, 2)
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
    prop = propagator(ctx, m)
    g = generator(ctx, m)
    assert [len(idx) for idx in fourier_blocks(g, m)] == [51]
    assert [len(idx) for idx in prop.blocks] == sizes
    full = scipy.linalg.expm(0.125 * g)
    rel = np.linalg.norm(dense_exponential(prop, 0.125) - full, 2) / np.linalg.norm(full, 2)
    assert rel < 1e-12


def test_exponential_is_cached_per_block_in_the_pair_basis(ctx10):
    prop = propagator(ctx10, 16)
    prop.exponential(0.01)
    forward = prop.propagator_cache[0.01]
    sizes = [len(idx) for idx in prop.blocks]
    assert len(sizes) == 2 and len(forward) == 2
    assert [e.shape for e in forward] == [(n, n) for n in sizes]
    assert all(e.dtype == np.float64 for e in forward)
    assert sum(e.nbytes for e in forward) <= sum(n * n for n in sizes) * 8
    # the pair basis of each block: exp(h G_k) = U_k exp(h R_k) U_k*, with
    # U_k the block of U, which keeps the parity blocks
    g = generator(ctx10, 16)
    u = op.PairTransform(16).lift(np.eye(len(g)))
    for idx, e in zip(prop.blocks, forward):
        u_k = u[np.ix_(idx, idx)]
        want = scipy.linalg.expm(0.01 * g[np.ix_(idx, idx)])
        assert np.linalg.norm(u_k @ e @ u_k.conj().T - want, 2) < 1e-13 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("h", [0.0, -0.0, -0.125])
def test_exponential_runs_forward_only(ctx10, h):
    # backward diffusion is ill-posed: the propagator is a forward semigroup
    prop = propagator(ctx10, 8)
    with pytest.raises(ValueError, match="forward only"):
        prop.exponential(h)
    with pytest.raises(ValueError, match="forward only"):
        prop.advance(lower_field(evo.random_mode_field(8, np.random.default_rng(0))), h)
    assert prop.propagator_cache == {} and prop.oracle_margins == {}


@pytest.mark.parametrize("background,m", [("bg", 16), ("alt_bg", 8)], ids=["bg", "alt_bg"])
def test_blockwise_abscissas_match_the_whole_matrix(request, background, m):
    ctx = lattice_mode_context(request.getfixturevalue(background), (1, 0))
    prop = propagator(ctx, m)
    assert len(prop.blocks) == 2
    pairs = op.PairTransform(m)
    g, (c, _) = generator(ctx, m), op.constraint_null_basis(ctx, m)
    v = pairs.lift(c)
    restricted = np.linalg.eigvals(v.conj().T @ g @ v).real.max()
    assert prop.restricted_abscissa == pytest.approx(restricted, rel=1e-12)
    # the raw generator's abscissa is a zero eigenvalue up to roundoff
    assert abs(prop.unconstrained_abscissa - np.linalg.eigvals(g).real.max()) < 1e-12
    # the defect of the whole real R = U* G U and the same C
    r = pairs.pair_form(g)[0]
    defect = np.linalg.norm(r @ c - c @ (c.T @ r @ c), 2)
    assert constraint_invariance_defect(prop) == pytest.approx(defect, abs=1e-12)


def test_planted_oracle_disagreement_raises(ctx10):
    blocks = propagator(ctx10, 8).generators
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
    # every block of (1, 0) at truncation 8 and 16 is split
    for m in (8, 16):
        prop = propagator(ctx10, m)
        with pytest.raises(IllConditioned, match="disagrees with eigendecomposition"):
            prop.exponential(0.01)
        assert all(isinstance(o, evo._SplitOracle) for o in prop._oracles)


def test_oracle_runs_on_the_default_evolve_modes(bg, monkeypatch):
    # the pair basis must not switch the cross-check off: at every default
    # mode the eigenvector condition the gate reads stays affordable, and
    # the errors are taken
    errors = []
    measure = evo._oracle_error
    monkeypatch.setattr(
        evo, "_oracle_error", lambda *a: errors.append(measure(*a)) or errors[-1]
    )
    for key in validate({"kind": "evolve"}).modes:
        prop = propagator(lattice_mode_context(bg, key), 64)
        prop.exponential(0.125)
        oracles = prop._oracles
        # every block keeps its C_k invariant, so every oracle is split, into
        # diagonal blocks A and D that together are as wide as the block
        assert all(isinstance(oracle, evo._SplitOracle) for oracle in oracles)
        parts = [(oracle.top, oracle.bottom) for oracle in oracles]
        for (top, bottom), idx in zip(parts, prop.blocks):
            assert len(top[0]) + len(bottom[0]) == len(idx)
        parts = [part for pair in parts for part in pair]
        sigma = np.concatenate([part[3] for part in parts])
        assert sigma.max() / sigma.min() <= evo.EXPM_ORACLE_CONDITION
        for _, vecs, inverse, sigma_k in parts:
            # the recorded singular values are those of V, and V^-1 inverts V
            assert np.allclose(np.linalg.svd(vecs, compute_uv=False), sigma_k, rtol=1e-12)
            assert np.linalg.norm(inverse @ vecs - np.eye(len(vecs))) < 1e-10
        assert len(errors) == len(prop.blocks)
        assert max(errors) <= evo.EXPM_ORACLE_TOL
        assert prop.oracle_margins == {
            0.125: (sigma.max() / sigma.min(), True, max(errors))
        }
        errors.clear()


@pytest.mark.parametrize("key", [(1, 0), (0, 1), (1, 1), (2, 1), (4, 0)])
@pytest.mark.parametrize(
    "background,lane,m",
    [
        (name, lane, m)
        for lane in (True, False)
        for name, windows in (
            ("bg", (8, 16, 40)),
            ("alt_bg", (8, 16, 40)),
            ("mixed_bg", (8, 16, 40)),
            ("double_zero_bg", (8, 16)),
        )
        for m in windows
    ],
)
def test_oracle_passes_the_gate_wherever_complex_eig_of_the_fourier_blocks_does(
    request, background, lane, m, key
):
    ctx = lattice_mode_context(request.getfixturevalue(background), key)
    prop = propagator(ctx, m, include_geostrophic=lane)
    # the reference: complex eig of each block G_k of G's own Fourier
    # pattern, whose condition the gate read before the pair basis existed
    g = generator(ctx, m, include_geostrophic=lane)
    sigma = np.concatenate(
        [
            np.linalg.svd(np.linalg.eig(g[np.ix_(idx, idx)])[1], compute_uv=False)
            for idx in fourier_blocks(g, m)
        ]
    )
    prop.exponential(0.125)
    condition, checked, error = prop.oracle_margins[0.125]
    if sigma.max() / sigma.min() <= evo.EXPM_ORACLE_CONDITION:
        assert checked and condition <= evo.EXPM_ORACLE_CONDITION
        # the largest of the blocks' Frobenius errors
        assert error <= evo.EXPM_ORACLE_TOL


@pytest.mark.parametrize(
    "background,m,mode",
    [
        ([[1, 1, 1], [2, -1, 1], [1, 2, 0.3]], 12, [0, 1]),
        ([[2, 1, 0.91], [1, 3, 1.31]], 24, [2, 0]),
        ([[1, -2, 0.87], [2, 3, 0.52]], 12, [0, 1]),
        ([[1, 3, 0.34], [2, -2, 0.51]], 16, [0, 1]),
    ],
)
def test_oracle_checks_a_double_zero_eigenvalue_in_a_validated_evolve(
    tmp_path, background, m, mode
):
    # each mode splits at C_k, and its D has a double zero eigenvalue, for
    # which real eig of D returns two nearly parallel eigenvectors: without
    # the deflation of D's kernel V exp(h L) V^-1 is off by about 2e-7 and
    # the oracle aborts the run.  With it every exponential is checked
    out = tmp_path / "out"
    cfg = validate(
        {"kind": "evolve", "background": background, "truncation": m, "modes": [mode],
         "out_dir": str(out)}
    )
    report = execute(cfg)
    assert report.passed
    _, rows = read_csv(str(out / "oracle.csv"))
    assert rows and all(row[3] == "true" for row in rows)


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
    prop = propagator(ctx, m)
    g, (c, w) = generator(ctx, m), op.constraint_null_basis(ctx, m)
    held = list(_held_arrays(list(vars(prop).values())))
    # the index sets are the only arrays that are not float64 matrices
    index_ids = {id(idx) for idx in prop.blocks}
    assert all(idx.dtype.kind == "i" for idx in prop.blocks)
    matrices = [a for a in held if id(a) not in index_ids]
    assert all(a.dtype == np.float64 for a in matrices)
    assert not any(a.shape in (g.shape, c.shape, w.shape) for a in held)
    sizes = [(len(r), c_k.shape[1]) for r, c_k in zip(prop.generators, prop.bases)]
    # R_k, C_k and W_k
    assert sum(a.nbytes for a in matrices) <= 8 * sum(
        n * n + n * k + n * (n - k) for n, k in sizes
    )
    assert all(not r.flags.writeable for r in prop.generators)


def test_propagator_forms_r_once(ctx10, monkeypatch):
    # one pair_form of G at construction and none of the constraint basis,
    # whose C and W the constraint's SVD gives in the pair basis; no kernel
    # forms a block again
    calls = []
    pair_form = op.PairTransform.pair_form
    monkeypatch.setattr(
        op.PairTransform, "pair_form", lambda self, a: calls.append(a.shape) or pair_form(self, a)
    )
    prop = propagator(ctx10, 16)
    assert calls == [(99, 99)]
    prop.restricted_abscissa, prop.unconstrained_abscissa
    prop.exponential(0.01)
    prop.diagnostics(lower_field(evo.random_mode_field(16, np.random.default_rng(0))))
    assert calls == [(99, 99)]
    # both lanes of a mode share C, W and R_off: one whole pair_form, the
    # balanced lane forming only its balancing rows again
    # (PairTransform.pair_form_rows)
    calls.clear()
    rows = []
    pair_form_rows = op.PairTransform.pair_form_rows
    monkeypatch.setattr(
        op.PairTransform,
        "pair_form_rows",
        lambda self, a: rows.append(a.shape) or pair_form_rows(self, a),
    )
    basis = op.constraint_null_basis(ctx10, 16)
    evo.build_propagator(ctx10, basis, (True, False))
    assert calls == [(99, 99)]
    k = ctx10.background.truncation
    assert rows == [(3 * (2 * k + 1), 99)]


@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_power_from_the_blocks_matches_the_generator(request, background):
    m = 16
    rng = np.random.default_rng(11)
    for key in [(1, 0), (2, 1), (0, 3)]:
        ctx = lattice_mode_context(request.getfixturevalue(background), key)
        prop = propagator(ctx, m)
        g = generator(ctx, m)
        bound_per_norm = 3 * (2 * m + 1) * np.finfo(float).eps * np.abs(g).max()
        # three fields as the columns of one block
        x = rng.standard_normal((len(g), 3)) + 1j * rng.standard_normal((len(g), 3))
        want = np.einsum("ij,ij->j", x.conj(), g @ x).real
        _, grad, _, _, power = prop.diagnostics(op.PairTransform(m).lower(x))
        norms = np.sum(np.abs(x) ** 2, axis=0)
        assert np.all(np.abs(power - grad - want) <= bound_per_norm * norms)


def test_induction_power_of_the_evolution_matches_the_functional_route(bg):
    modes = [(1, 0), (2, 1)]
    state = evo.run_evolution(
        bg, modes, t_final=0.01, output_step=0.005, truncation=16, seed=5,
        include_geostrophic=True, jobs=1,
    )
    logged = {(row[0], row[1]): row[6] for row in state.mode_rows}
    for t, fields in ((0.0, state.initial_modes), (state.time, state.modes)):
        for idx, key in enumerate(modes):
            want = induction_power(lattice_mode_context(bg, key), fields[key])
            assert logged[t, idx] == pytest.approx(want, rel=1e-12)


def test_readout_matches_the_functional_route_across_chunks(bg, monkeypatch):
    # two modes for 2 READOUT_CHUNK + 3 output steps, so the readout crosses
    # two chunk boundaries.  The spy sees every state the run evolved, never
    # more than READOUT_CHUNK at a time; each logged row matches the
    # per-field route on the lifted state within the rounding of its sums
    modes = [(1, 0), (2, 1)]
    m, h = 12, 1e-3
    n_steps = 2 * evo.READOUT_CHUNK + 3
    calls = []
    diagnostics = evo.ModePropagator.diagnostics
    monkeypatch.setattr(
        evo.ModePropagator,
        "diagnostics",
        lambda self, ys: calls.append((self, ys.copy())) or diagnostics(self, ys),
    )
    kwargs = dict(
        t_final=n_steps * h, output_step=h, truncation=m, seed=4, include_geostrophic=True
    )
    state = evo.run_evolution(bg, modes, jobs=1, **kwargs)
    assert max(ys.shape[1] for _, ys in calls) == evo.READOUT_CHUNK
    eps = np.finfo(float).eps
    n = 3 * (2 * m + 1)
    totals = np.zeros((n_steps + 1, 4))  # energy, grad, Taylor and divergence maxima
    for idx, key in enumerate(modes):
        ctx = lattice_mode_context(bg, key)
        prop = state.propagators[key]
        chunks = [ys for p, ys in calls if p is prop]
        assert [c.shape[1] for c in chunks] == [evo.READOUT_CHUNK, evo.READOUT_CHUNK, 4]
        # each chunk continues the flow where the one before stopped
        for before, after in zip(chunks, chunks[1:]):
            assert np.array_equal(prop.advance(before[:, -1:], h), after[:, :1])
        states = np.hstack(chunks)
        # sums of n terms, |<x, G x>| <= max|G| ||x||^2, and each Taylor
        # residual sums 2k + 1 products of the profiles, of window k, with x;
        # the divergence profile's coefficients are formed alike in a block
        size = np.abs(generator(ctx, m)).max()
        profiles = ctx.beta.norm() + ctx.eps * ctx.beta_perp_prime.norm()
        products = 2 * ctx.background.truncation + 1
        for j in range(n_steps + 1):
            b = lift_field(states[:, j : j + 1])
            t, i, energy, grad, tay, div, power = state.mode_rows[j * len(modes) + idx]
            assert (t, i) == (j * h, idx)
            want = b.norm() ** 2
            want_grad = grad_energy(ctx, b)
            r_perp, r_3 = op.taylor_residual(ctx, b)
            want_div = op.divergence_residual(ctx, b)
            assert abs(energy - want) <= n * eps * want
            assert abs(grad - want_grad) <= n * eps * want_grad
            assert abs(power - induction_power(ctx, b)) <= n * eps * size * want
            want_tay = max(abs(r_perp), abs(r_3))
            assert abs(tay - want_tay) <= products * eps * profiles * np.sqrt(want)
            assert abs(div - want_div) <= n * eps * want_div
            totals[j] += (energy, grad, 0.0, 0.0)
            totals[j, 2:] = np.maximum(totals[j, 2:], (tay, div))
        assert all(
            np.array_equal(got.coeffs, want.coeffs)
            for got, want in zip(state.modes[key].components, lift_field(states[:, -1:]).components)
        )
    # the averaged field by heat_zero_mode at each output time
    for j, row in enumerate(state.diagnostics_log):
        zero = evo.heat_zero_mode(state.initial_zero_mode, j * h)
        energy = totals[j, 0] + sum(p.norm() ** 2 for p in zero)
        grad = totals[j, 1] + sum(p.derivative().norm() ** 2 for p in zero)
        assert row[0] == j * h and row[3:] == tuple(totals[j, 2:])
        assert abs(row[1] - energy) <= n * eps * energy
        assert abs(row[2] - grad) <= n * eps * grad
    monkeypatch.undo()
    pooled = evo.run_evolution(bg, modes, jobs=2, **kwargs)
    assert pooled.mode_rows == state.mode_rows
    assert pooled.diagnostics_log == state.diagnostics_log


def test_oracle_deflates_an_exact_kernel():
    # Q T Q^T with T = [[0, B'], [0, D']]: a 2-dimensional kernel, span(Q e1,
    # Q e2), coupled to the rest by B' != 0, and D' with the eigenvalues -1,
    # -2, -3 and -5.  The kernel's eigenvectors are exact zeros of the
    # oracle, and the lifted eigenvectors of D' keep V well conditioned
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    t = np.zeros((6, 6))
    t[:2, 2:] = rng.standard_normal((2, 4))
    t[2:, 2:] = np.triu(rng.standard_normal((4, 4)), 1) + np.diag([-1.0, -2.0, -3.0, -5.0])
    block = q @ t @ q.T
    w, vecs, inverse, sigma = oracle = evo._eigen_oracle(block)
    assert np.count_nonzero(w == 0) == 2
    assert np.allclose(np.sort(w[w != 0].real), [-5, -3, -2, -1], rtol=0, atol=1e-13)
    residual = np.linalg.norm(block @ vecs - vecs * w, axis=0)
    assert np.all(residual <= evo._rounding_bound(block) * np.linalg.norm(vecs, axis=0))
    assert sigma[0] / sigma[-1] < 10
    h = 0.5
    (out,), condition, error = evo._checked_expm([block], lambda: [oracle], h)
    assert condition < 10 and error <= evo.EXPM_ORACLE_TOL
    assert np.array_equal(out, evo._expm(h * block))


def test_oracle_is_skipped_for_a_defective_block():
    # a Jordan block has no eigenvector basis: its kernel is deflated, but
    # D' = [0] still has an eigenvalue within the bound, so the block is
    # factored by plain eig.  The exponential is still returned, unchecked,
    # as when the condition exceeds the gate
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    oracle = evo._eigen_oracle(jordan)
    assert oracle[2] is None
    (out,), condition, error = evo._checked_expm([jordan], lambda: [oracle], 0.5)
    assert condition > evo.EXPM_ORACLE_CONDITION and error is None
    assert np.allclose(out, [[1.0, 0.5], [0.0, 1.0]], rtol=0, atol=1e-15)


def test_exact_flow_matches_rk4(ctx10):
    # independent integrator: 20 classical Runge-Kutta steps at h small
    # enough that the O(h^4) defect sits far below the comparison tolerance
    prop = propagator(ctx10, 8)
    g = generator(ctx10, 8)
    rng = np.random.default_rng(4)
    b = project(ctx10, evo.random_mode_field(8, rng))
    y, rk = lower_field(b), b
    for _ in range(20):
        y = prop.advance(y, 1e-5)
        rk = rk4_step(g, rk, 1e-5)
    exact = lift_field(y)
    assert (exact - rk).norm() / exact.norm() < 1e-9


def test_energy_identity_central_difference(ctx10):
    # d/dt ||b||^2 = 2 (power - grad_energy); the forward/backward flows give
    # a second-order difference quotient, so the mismatch must shrink ~h^2.
    # The propagator runs forward only: the backward flow is scipy's expm of
    # -h G, the dense generator
    prop = propagator(ctx10, 12)
    g = generator(ctx10, 12)
    rng = np.random.default_rng(3)
    b = project(ctx10, evo.random_mode_field(12, rng))
    v = op.field_to_vector(b)
    analytic = 2.0 * (induction_power(ctx10, b) - grad_energy(ctx10, b))
    errs = []
    for h in (1e-5, 1e-6):
        # U is unitary: the norm of the pair coordinates is the field's
        ep = np.linalg.norm(prop.advance(lower_field(b), h)) ** 2
        em = np.linalg.norm(scipy.linalg.expm(-h * g) @ v) ** 2
        errs.append(abs((ep - em) / (2 * h) - analytic) / abs(analytic))
    assert errs[1] < 1e-5
    assert 50.0 < errs[0] / errs[1] < 200.0


def test_invariance_defect_distinguishes_balancing(ctx10):
    on = propagator(ctx10, 24, include_geostrophic=True)
    off = propagator(ctx10, 24, include_geostrophic=False)
    assert constraint_invariance_defect(on) < 1e-9
    assert constraint_invariance_defect(off) > 1.0


def test_step_without_balancing_drifts(ctx10):
    # the step returns the drifted field; a run reports the residual as its
    # failed gate (test_cli's no-balancing evolve)
    prop = propagator(ctx10, 24, include_geostrophic=False)
    rng = np.random.default_rng(5)
    b = project(ctx10, evo.random_mode_field(24, rng))
    out = prop.advance(lower_field(b), 0.05)
    assert prop.diagnostics(out)[2:4, 0].max() > 1e-7


def test_step_with_balancing_stays_constrained(ctx10):
    prop = propagator(ctx10, 24)
    rng = np.random.default_rng(5)
    b = project(ctx10, evo.random_mode_field(24, rng))
    out = lift_field(prop.advance(lower_field(b), 0.05))
    r_perp, r_3 = op.taylor_residual(ctx10, out)
    assert max(abs(r_perp), abs(r_3)) < 1e-10
    assert op.divergence_residual(ctx10, out) < 1e-10


def test_abscissa_sweep_values(bg):
    rows, _ = evo.abscissa_lanes(bg, [(1, 0), (2, 0), (4, 0), (8, 0)], truncation=40, jobs=1)
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
    s1 = start_state(bg, [(1, 0), (0, 2)], 12, seed=9)
    s2 = start_state(bg, [(1, 0), (0, 2)], 12, seed=9)
    s3 = start_state(bg, [(1, 0), (0, 2)], 12, seed=10)
    for key in s1.modes:
        for c1, c2 in zip(s1.modes[key].components, s2.modes[key].components):
            assert np.array_equal(c1.coeffs, c2.coeffs)
    assert any(
        not np.array_equal(c1.coeffs, c3.coeffs)
        for c1, c3 in zip(s1.modes[(1, 0)].components, s3.modes[(1, 0)].components)
    )


def test_initial_state_is_constrained(bg):
    state = start_state(bg, [(1, 0), (2, 1)], 16, seed=2)
    for key, b in state.modes.items():
        ctx = lattice_mode_context(bg, key)
        r_perp, r_3 = op.taylor_residual(ctx, b)
        assert max(abs(r_perp), abs(r_3)) < 1e-13
        assert op.divergence_residual(ctx, b) < 1e-13


def test_random_zero_mode_structure():
    rng = np.random.default_rng(0)
    profiles = evo.random_zero_mode(10, rng)
    for p in profiles[:2]:
        assert is_real(p)
        assert p.coefficient(0) == 0.0
        assert p.norm() > 0.0
    # averaged vertical component of a solenoidal zero-mean field vanishes
    assert profiles[2].norm() == 0.0


def test_run_evolution_diagnostics(bg):
    state = evo.run_evolution(
        bg, [(1, 0), (0, 2)], t_final=0.02, output_step=0.005, truncation=16, seed=5,
        include_geostrophic=True, jobs=1,
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
    kwargs = dict(
        t_final=0.01, output_step=0.005, truncation=12, seed=1, include_geostrophic=True
    )
    serial = evo.run_evolution(bg, [(1, 0), (0, 2)], jobs=1, **kwargs)
    pooled = evo.run_evolution(bg, [(1, 0), (0, 2)], jobs=3, **kwargs)
    assert serial.diagnostics_log == pooled.diagnostics_log
    for key in serial.modes:
        for c1, c2 in zip(serial.modes[key].components, pooled.modes[key].components):
            assert np.array_equal(c1.coeffs, c2.coeffs)


def test_run_evolution_zero_mode_heat_decay(bg):
    state = evo.run_evolution(
        bg, [(1, 0)], t_final=0.02, output_step=0.01, truncation=12, seed=7,
        include_geostrophic=True, jobs=1,
    )
    start = start_state(bg, [(1, 0)], 12, seed=7)
    for comp in range(2):
        c0 = start.zero_mode[comp].coefficient(1)
        c1 = state.zero_mode[comp].coefficient(1)
        assert c1 == pytest.approx(c0 * np.exp(-4 * np.pi**2 * 0.02), rel=1e-12)


def test_full_field_real_and_divergence_free(bg):
    # one mode of each conjugate pair; the snapshot adds the partners
    state = start_state(bg, [(1, 0), (0, 2)], 12, seed=7)
    snap = evo.assemble_full_field(state.modes, state.zero_mode)
    # 2 max|m| + 2 points across and 2M + 2 down
    assert snap.dtype == np.float64
    assert snap.shape == (6, 6, 26, 3)

    # spectral divergence on the sampling grid; every mode of the snapshot
    # sits below the grid's Nyquist index, so this is exact up to roundoff
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


def test_full_field_refuses_a_mode_with_its_negative(bg):
    # -k's coefficients are conj of k's in a real field: two independent
    # draws for k and -k are no real field, and the snapshot's real part
    # would drop their imaginary part
    state = start_state(bg, [(1, 0), (0, 2), (-1, 0)], 8, seed=0)
    with pytest.raises(ValueError, match=r"\(-1, 0\), \(1, 0\)"):
        evo.assemble_full_field(state.modes, state.zero_mode)


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
    prop = propagator(ctx10, 64)
    assert prop.restricted_abscissa == pytest.approx(-4 * np.pi**2, rel=1e-12, abs=0)


@pytest.mark.parametrize("m", [16, 32])
def test_restricted_abscissa_of_the_first_mode_at_smaller_windows(ctx10, m):
    prop = propagator(ctx10, m)
    assert prop.restricted_abscissa == pytest.approx(-4 * np.pi**2, rel=1e-12, abs=0)


@pytest.mark.parametrize("m", [16, 64])
def test_unconstrained_abscissa_without_balancing_is_minus_xi_squared(bg, m):
    # at the canonical background, without the balancing velocity, the
    # slowest field of mode (k, 0) decays at the diffusion rate |xi|^2
    for k in (1, 2, 4):
        ctx = lattice_mode_context(bg, (k, 0))
        prop = propagator(ctx, m, include_geostrophic=False)
        want = -ctx.xi_norm**2
        assert prop.unconstrained_abscissa == pytest.approx(want, rel=1e-12, abs=0)


def invariance_ratios(prop):
    """max|W_k^T R_k C_k| over the deflation bound n_k eps max|R_k|, per block."""
    ratios = []
    for r, c, w in zip(prop.generators, prop.bases, prop.complements):
        bound = len(r) * np.finfo(float).eps * np.abs(r).max()
        ratios.append(np.abs(w.T @ r @ c).max(initial=0.0) / bound)
    return ratios


@pytest.mark.parametrize("mode", [(1, 0), (4, 0), (2, 1)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_invariance_bound_separates_the_blocks_by_a_wide_margin(request, background, mode):
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    on = invariance_ratios(propagator(ctx, 16, include_geostrophic=True))
    off = invariance_ratios(propagator(ctx, 16, include_geostrophic=False))
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
    for r, c, w in zip(prop.generators, prop.bases, prop.complements):
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
        for prop in evo.build_propagator(ctx, basis, (True, False)):
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
    evo.abscissa_lanes(bg, modes, truncation=16, jobs=1)
    monkeypatch.undo()
    for key in modes:
        ctx = lattice_mode_context(bg, key)
        for lane in (True, False):
            prop = propagator(ctx, 16, lane)
            assert not any(r.tobytes() in factored for r in prop.generators)


def test_each_mode_builds_its_lanes_from_one_assembly(tmp_path, monkeypatch):
    # evolve builds one lane per mode and the sweep both: either way each
    # mode makes one build_propagator call and one generator assembly, and
    # the semigroup probe reuses the first mode's propagator
    modes = [[1, 0], [2, 0], [2, 1]]
    for kind in ("evolve", "abscissa-sweep"):
        with monkeypatch.context() as patch:
            builds = count_calls(patch, evo.build_propagator)
            assemblies = count_calls(patch, op.assemble_matrix)
            cfg = validate(
                {"kind": kind, "truncation": 16, "modes": modes, "t_final": 0.125,
                 "output_step": 0.125, "out_dir": str(tmp_path / kind)}
            )
            assert execute(cfg).passed
        assert len(builds) == len(assemblies) == len(modes), kind


@pytest.mark.parametrize("m", [16, 40])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1), (8, 0), (0, 3)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg", "wide_bg"])
def test_lane_generators_derive_the_balanced_generator_bitwise(request, background, mode, m):
    # G_on's balancing rows, G_off's rows plus the balancing term of G_off's
    # columns from one assembly, are bitwise those of the assembly of the
    # balanced right-hand side; its other rows are G_off's plus the term's
    # padding zeros
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    off, (rows, on) = evo.lane_generators(ctx, m, True)
    want_off, want_on = (
        op.assemble_matrix(lambda b: op.full_induction(ctx, b, lane), m) for lane in (False, True)
    )
    # signed zeros included
    assert off.tobytes() == want_off.tobytes()
    assert not off.flags.writeable
    assert on.tobytes() == want_on[rows].tobytes()
    others = np.setdiff1d(np.arange(len(off)), rows)
    assert (off[others] + 0.0).tobytes() == want_on[others].tobytes()
    k = min(m, ctx.background.truncation)
    assert len(rows) == 3 * (2 * k + 1)
    assert evo.lane_generators(ctx, m, False)[1] is None


@pytest.mark.parametrize("m", [16, 40])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1), (8, 0), (0, 3)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg", "wide_bg"])
def test_shared_lane_build_matches_each_lanes_whole_pair_form_bitwise(
    request, background, mode, m
):
    # the lanes built together, sharing C and W and re-forming only R_on's
    # balancing rows, hold bitwise the blocks, R_k, C_k and W_k that the
    # whole pair form of each lane's own assembly gives
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    basis = op.constraint_null_basis(ctx, m)
    for lane, prop in zip((True, False), evo.build_propagator(ctx, basis, (True, False))):
        want = propagator_from_matrices(ctx, generator(ctx, m, lane), basis)
        assert len(prop.blocks) == len(want.blocks)
        for got, expected in (
            (prop.blocks, want.blocks),
            (prop.generators, want.generators),
            (prop.bases, want.bases),
            (prop.complements, want.complements),
        ):
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def test_balanced_rows_are_checked_for_realness(ctx10, monkeypatch):
    # a J-breaking entry in one balancing row reaches only the rows that the
    # balanced lane forms again: the build raises only if their imaginary
    # parts are checked
    m = 16
    basis = op.constraint_null_basis(ctx10, m)
    k = ctx10.background.truncation
    balancing_term = op.balancing_term

    def broken(ctx, g):
        out = op.field_to_vector(balancing_term(ctx, g))
        # first component, n = 1 row and n = 3 column: both odd, one block
        out[k + 1, m + 3] += 1e-6 * np.abs(out).max()
        return op.vector_to_field(out)

    monkeypatch.setattr(evo, "balancing_term", broken)
    with pytest.raises(IllConditioned, match="generator is not real in the pair basis"):
        evo.build_propagator(ctx10, basis, (True, False))


@pytest.mark.parametrize("lane", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("mode", [(1, 0), (2, 1), (16, 0)])
@pytest.mark.parametrize("background", ["bg", "alt_bg", "mixed_bg"])
def test_deflated_unconstrained_abscissa_matches_the_whole_matrix(
    request, background, mode, lane
):
    ctx = lattice_mode_context(request.getfixturevalue(background), mode)
    prop = propagator(ctx, 16, include_geostrophic=lane)
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
    evo.abscissa_lanes(bg, modes, truncation=16, jobs=1)
    monkeypatch.undo()
    assert len(set(factored)) == len(factored)
    for key in modes:
        ctx = lattice_mode_context(bg, key)
        on, off = (propagator(ctx, 16, lane) for lane in (True, False))
        on_blocks = {split.restricted.tobytes() for split in on._splits}
        off_blocks = {split.restricted.tobytes() for split in off._splits}
        assert (on_blocks == off_blocks) is shared
        assert all(block in factored for block in on_blocks | off_blocks)


def test_abscissas_and_oracle_read_one_split_per_block(ctx10, monkeypatch):
    # the deflation is decided once per block: W_k comes with C_k from the
    # constraint's SVD, so nothing takes a QR, and the oracle built after the
    # abscissas factors the very A and D whose abscissas were taken
    qrs, factored, oracles = [], [], []
    qr, eigvals, eigen_oracle = np.linalg.qr, np.linalg.eigvals, evo._eigen_oracle
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qrs.append(a) or qr(*a, **k))
    prop = propagator(ctx10, 16)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: factored.append(a.tobytes()) or eigvals(a))
    monkeypatch.setattr(
        evo, "_eigen_oracle", lambda a: oracles.append(a.tobytes()) or eigen_oracle(a)
    )
    prop.unconstrained_abscissa
    prop.exponential(0.125)
    assert qrs == []
    built = prop._oracles
    assert all(isinstance(o, evo._SplitOracle) for o in built)
    assert len(oracles) == 2 * len(prop.blocks)
    assert set(oracles) <= set(factored)


def test_generator_off_j_symmetry_raises(ctx10):
    m = 16
    honest = generator(ctx10, m)
    basis = op.constraint_null_basis(ctx10, m)
    propagator_from_matrices(ctx10, honest, basis)  # the honest pair builds
    # first component, n = 1 row and n = 3 column: both odd, one block
    g = np.array(honest)
    g[m + 1, m + 3] += 1e-6 * np.abs(g).max()
    # the real R_k are formed at construction, so construction raises
    with pytest.raises(IllConditioned, match="generator is not real in the pair basis"):
        propagator_from_matrices(ctx10, g, basis)


def test_frobenius_oracle_error_beyond_tolerance_passes_on_the_exact_norm():
    # exp(G) = 1e4 * Id (k = 100); oracle eigenvalues off by 5e-11 put
    # 5e-7 on each diagonal entry: ||D||_F = 5e-6 is above the tolerance
    # even relative to ||exp(G)||_2 = 1e4 (5e-10), the exact relative
    # 2-norm error 5e-11, which the gate reads, is not
    k = 100
    g = np.log(1e4) * np.eye(k)
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
    on, off = evo.abscissa_lanes(bg, modes, truncation=16, jobs=1)
    assert len(calls) == len(modes)
    monkeypatch.undo()
    assert on == abscissa_sweep(bg, modes, 16, include_geostrophic=True)
    assert off == abscissa_sweep(bg, modes, 16, include_geostrophic=False)
    pooled = evo.abscissa_lanes(bg, modes, truncation=16, jobs=2)
    assert pooled == [on, off]


def test_oracle_is_factored_after_the_exponentials(ctx10, monkeypatch):
    # the propagator hands _checked_expm a function for its oracles, so the
    # eigendecompositions start only once every expm of the same h has returned; a second h factors nothing
    order = []
    expm, oracle = evo._expm, evo._eigen_oracle
    monkeypatch.setattr(evo, "_expm", lambda a: order.append("expm") or expm(a))
    monkeypatch.setattr(evo, "_eigen_oracle", lambda a: order.append("eig") or oracle(a))
    prop = propagator(ctx10, 8)
    prop.exponential(0.01)
    assert order[:2] == ["expm", "expm"]
    assert set(order[2:]) == {"eig"}
    first = len(order)
    prop.exponential(0.02)
    assert order[first:] == ["expm", "expm"]


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("background", ["bg", "alt_bg"])
def test_split_oracle_coupling_block_matches_expm(request, background, m):
    # X, the upper-right block of exp(h T) for T = Q^T R_k Q, from the
    # eigendecompositions of A and D, against scipy's expm of T itself.
    # B~ = V_A^-1 B V_D and X = V_A (B~ o F) V_D^-1 are products and solves,
    # each backward stable to about n_k eps, and |F_ij| <= h where no
    # eigenvalue has a positive real part: to first order X is off by at
    # most cond(V_A) cond(V_D) n_k eps h ||B||_2
    h = 0.125
    for key in [(1, 0), (1, 1)]:
        prop = propagator(lattice_mode_context(request.getfixturevalue(background), key), m)
        for r, c, oracle in zip(prop.generators, prop.bases, prop._oracles):
            t = oracle.basis.T @ r @ oracle.basis
            n = c.shape[1]
            want = scipy.linalg.expm(h * t)[:n, n:]
            kappa = [s[0] / s[-1] for s in (oracle.top[3], oracle.bottom[3])]
            bound = kappa[0] * kappa[1] * len(r) * np.finfo(float).eps * h
            bound *= np.linalg.norm(t[:n, n:], 2)
            assert np.linalg.norm(oracle.reference(h)[:n, n:] - want, 2) <= bound


def test_split_oracle_is_exact_at_coincident_eigenvalues():
    # A = [[-1, 0], [0, -2]] and D = [-1] share the eigenvalue -1: phi1(0) = 1
    # gives F = h e^{-h} there, with no threshold; the other entry is the
    # divided difference (e^{-2h} - e^{-h}) / (-2 + 1).  C = [e1, e2] and
    # W = e3, so T = R.
    h = 0.5
    r = np.array([[-1.0, 0.0, 3.0], [0.0, -2.0, 5.0], [0.0, 0.0, -1.0]])
    c, w = np.eye(3)[:, :2], np.eye(3)[:, 2:]
    split = evo._split(r, c, w)
    assert split.span is c and len(split.diagonal) == 2
    oracle = evo._SplitOracle.factor(r, split)
    assert np.array_equal(oracle.basis.T @ r @ oracle.basis, r)
    x = oracle.reference(h)[:2, 2]
    want = [3.0 * h * np.exp(-h), 5.0 * (np.exp(-h) - np.exp(-2 * h))]
    assert np.all(np.isfinite(x))
    assert np.allclose(x, want, rtol=4 * np.finfo(float).eps, atol=0)
    (out,), condition, error = evo._checked_expm([r], lambda: [oracle], h)
    assert condition <= evo.EXPM_ORACLE_CONDITION
    assert error <= 10 * np.finfo(float).eps


def test_planted_coupling_error_raises(ctx10):
    # an error in B~ alone moves only X, the upper-right block
    prop = propagator(ctx10, 16)
    oracles = prop._oracles
    evo._checked_expm(prop.generators, lambda: oracles, 0.01)  # honest oracles pass
    planted = list(oracles)
    planted[1] = planted[1]._replace(coupling=planted[1].coupling + 1e-6)
    with pytest.raises(IllConditioned, match="disagrees with eigendecomposition"):
        evo._checked_expm(prop.generators, lambda: planted, 0.01)


def test_non_invariant_block_takes_the_whole_block_oracle(ctx10):
    # without the balancing velocity one block of (1, 0) does not keep C_k
    # invariant: its oracle factors the grown span, n + rank wide, which the
    # unconstrained abscissa factored, and the other block is split at C_k
    prop = propagator(ctx10, 16, include_geostrophic=False)
    widths = [c.shape[1] for c in prop.bases]
    ranks = [s.span.shape[1] - n for s, n in zip(prop._splits, widths)]
    assert sorted(ranks) == [0, 2]
    oracles = prop._oracles
    assert all(isinstance(o, evo._SplitOracle) for o in oracles)
    assert [len(o.top[0]) for o in oracles] == [n + k for n, k in zip(widths, ranks)]
    prop.exponential(0.125)
    condition, checked, error = prop.oracle_margins[0.125]
    assert checked and condition <= evo.EXPM_ORACLE_CONDITION
    assert error <= evo.EXPM_ORACLE_TOL
    # at [[1,2,1],[2,-2,1]] the 12-wide block of (1, 1) has a grown span that
    # is not invariant either: it alone is factored whole, and all pass
    ctx = lattice_mode_context(make_background([(1, 2, 1.0), (2, -2, 1.0)]), (1, 1))
    prop = propagator(ctx, 8, include_geostrophic=False)
    kinds = [isinstance(o, evo._SplitOracle) for o in prop._oracles]
    assert kinds.count(False) == 1
    whole = prop._oracles[kinds.index(False)]
    assert len(whole[0]) == len(prop.generators[kinds.index(False)]) == 12
    prop.exponential(0.125)
    condition, checked, error = prop.oracle_margins[0.125]
    assert checked and condition <= evo.EXPM_ORACLE_CONDITION
    assert error <= evo.EXPM_ORACLE_TOL


@pytest.mark.parametrize("m", [8, 16])
def test_grown_split_checks_where_the_whole_blocks_exceed_the_gate(alt_bg, m):
    # without the balancing velocity mode (3, 2) at [[1,1,1],[2,-2,1]] grows
    # both blocks' C_k by one direction.  The whole blocks' eigenvectors
    # exceed the gate (condition about 380); those of the grown split's
    # diagonal blocks do not, so the oracle checks it
    prop = propagator(lattice_mode_context(alt_bg, (3, 2)), m, include_geostrophic=False)
    prop.exponential(0.125)
    condition, checked, error = prop.oracle_margins[0.125]
    assert checked
    assert condition <= evo.EXPM_ORACLE_CONDITION and error <= evo.EXPM_ORACLE_TOL


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_evolution_keeps_only_the_first_modes_oracle(bg, jobs):
    modes = [(1, 0), (0, 1), (2, 1)]
    state = evo.run_evolution(
        bg, modes, t_final=0.25, output_step=0.125, truncation=16, seed=0,
        include_geostrophic=True, jobs=jobs,
    )
    props = [state.propagators[key] for key in modes]
    assert ["_oracles" in vars(p) for p in props] == [True, False, False]
    # the splits the oracles were factored from are held by no mode
    assert not any("_splits" in vars(p) or p.block_cache for p in props)
    # every exponential was checked before its oracle was dropped, and an
    # exponential at a new h factors the dropped oracle again
    assert all(p.oracle_margins[0.125][1] for p in props)
    props[1].exponential(0.25)
    assert props[1].oracle_margins[0.25][1]


# ----------------------------------------------------------------------
# the scaling-and-squaring kernel against references
# ----------------------------------------------------------------------


@pytest.mark.parametrize("h", [0.125, 0.375])
def test_expm_matches_scipy_on_the_default_evolve_blocks(bg, h):
    # scipy's expm is a reference only: the same Pade degree and squarings,
    # a different association of U, and an oracle error no larger than its
    for key in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        prop = propagator(lattice_mode_context(bg, key), 64)
        for r, oracle in zip(prop.generators, prop._oracles):
            ours, want = evo._expm(h * r), scipy.linalg.expm(h * r)
            assert np.abs(ours - want).max() <= 1e-12 * np.abs(want).max()
            ref_error = evo._oracle_error(want, oracle, h)
            assert evo._oracle_error(ours, oracle, h) <= 1.1 * ref_error


def test_expm_closed_forms():
    # the zero matrix and a nilpotent one take no squaring; the solve's
    # rounding is all that moves them.  A diagonal stays diagonal, and its
    # squarings scale the relative error of each entry by at most 2^s
    assert np.array_equal(evo._expm(np.zeros((4, 4))), np.eye(4))
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    eps = np.finfo(float).eps
    assert np.allclose(evo._expm(nilpotent), [[1.0, 1.0], [0.0, 1.0]], rtol=0, atol=eps)
    d = np.array([-30.0, -2.5, 0.0, 0.75, 6.0])
    out = evo._expm(np.diag(d))
    assert np.array_equal(out, np.diag(np.diag(out)))
    assert np.allclose(np.diag(out), np.exp(d), rtol=1e-13, atol=0)


@pytest.mark.parametrize("planted", [np.inf, np.nan])
def test_non_finite_block_raises(planted):
    block = -np.eye(5)
    block[1, 3] = planted
    with np.errstate(invalid="ignore"), pytest.raises(IllConditioned):
        evo._checked_expm([block], lambda: [evo._eigen_oracle(block)], 0.125)


def test_block_whose_absolute_powers_overflow_raises():
    # B^2 = 0, so no squaring is asked for, but |B|^27 overflows and the
    # extra squarings cannot be read from it
    block = 1e13 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    with np.errstate(over="ignore"), pytest.raises(IllConditioned, match="overflow"):
        evo._checked_expm([block], lambda: [evo._eigen_oracle(block)], 0.125)


# ----------------------------------------------------------------------
# the floor on expm's squarings
# ----------------------------------------------------------------------


def test_default_exponentials_are_bitwise_ieee_expm(ctx10, monkeypatch):
    # the floor moves no entry of the default exponentials: mode (1, 0) at
    # M = 64, at the default step and the semigroup probe's, against _expm
    # with every squaring taken in IEEE arithmetic
    prop = propagator(ctx10, 64)
    steps = [0.125, 0.375]
    floored = [[evo._expm(h * r) for r in prop.generators] for h in steps]
    monkeypatch.setattr(evo, "_FLOOR", 0.0)
    for h, outs in zip(steps, floored):
        for r, out in zip(prop.generators, outs):
            assert np.array_equal(out, evo._expm(h * r))


def test_floor_keeps_subnormals_out_of_expm(monkeypatch):
    # exp(-715) = 3.0e-311 is subnormal: floored, that entry is exactly
    # zero, and the unfloored squarings return it
    tiny = np.finfo(float).tiny
    a = np.diag([-715.0, -1.0])
    out = evo._expm(a)
    assert out[0, 0] == 0.0
    assert not np.any((np.abs(out) > 0) & (np.abs(out) < tiny))
    assert out[1, 1] == pytest.approx(np.exp(-1.0), rel=1e-13, abs=0)
    monkeypatch.setattr(evo, "_FLOOR", 0.0)
    assert 0.0 < evo._expm(a)[0, 0] < tiny


def test_floor_is_the_least_whose_products_are_normal():
    # the product of two entries at the floor is the smallest normal number,
    # and below the floor a product may be subnormal
    tiny = np.finfo(float).tiny
    assert evo._FLOOR * evo._FLOOR == tiny
    below = np.nextafter(evo._FLOOR, 0.0)
    assert 0.0 < below * below < tiny


@pytest.mark.parametrize(
    "a",
    [
        np.array([[-715.0, 1e3], [0.0, -1.0]]),
        np.array([[-712.0, 1.0, 0.0], [0.0, -712.0, 1.0], [0.0, 0.0, -712.0]]),
        -np.diag(np.linspace(1.0, 720.0, 8)) + np.triu(np.ones((8, 8)), 1),
    ],
    ids=["nonnormal", "jordan", "graded"],
)
def test_floored_expm_matches_scipy_within_oracle_tolerance(a):
    # strongly damped matrices whose exact exponentials hold subnormal
    # entries: the floor zeroes them, which moves the result by far less
    # than the oracle's absolute gate
    out = evo._expm(a)
    assert np.abs(out - scipy.linalg.expm(a)).max() <= evo.EXPM_ORACLE_TOL
    tiny = np.finfo(float).tiny
    assert not np.any((np.abs(out) > 0) & (np.abs(out) < tiny))


def test_floor_holds_in_pool_threads(ctx10):
    # the floor is arithmetic, not a per-thread CPU mode: each pool thread
    # returns the main thread's bits, with no subnormal entry
    prop = propagator(ctx10, 16)
    mats = [np.diag([-715.0, -1.0])] + [0.375 * r for r in prop.generators]
    serial = [evo._expm(m) for m in mats]
    with evo.thread_map(2, len(mats)) as each:
        pooled = list(each(evo._expm, mats))
    tiny = np.finfo(float).tiny
    for out, ref in zip(pooled, serial):
        assert np.array_equal(out, ref)
        assert not np.any((np.abs(out) > 0) & (np.abs(out) < tiny))
