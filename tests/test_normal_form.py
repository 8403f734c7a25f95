import numpy as np
import pytest

from taylorlab import operators as op
from taylorlab import spectral
from taylorlab.background import lattice_mode_context
from taylorlab.checks import execute
from taylorlab.config import validate
from taylorlab.errors import ResonanceViolation
from taylorlab.normal_form import build_normal_form, resonant_pairs

from conftest import (
    RESONANCE_TOL,
    TAIL_GATE,
    RegimeViolation,
    conjugate,
    count_calls,
    dense_band_compressions,
    homological_rhs,
    laplacian_commutator_norm,
    random_field,
    unconjugate,
)


@pytest.fixture(scope="module")
def nf8(basis64):
    return build_normal_form(basis64, 8, RESONANCE_TOL)


def test_resonant_pairs_structure():
    pairs = set(resonant_pairs(2))
    for j in range(-4, 6):
        assert (j, j) in pairs
    assert (0, 1) in pairs and (1, 0) in pairs
    assert (2, -1) in pairs and (-1, 2) in pairs  # {2k, -2k+1} at k = 1
    assert (4, -3) in pairs and (-3, 4) in pairs  # k = 2
    assert (2, 3) not in pairs


def test_resonant_rhs_vanishes_and_solver_matches_oracle(ctx10, basis64, nf8):
    assert max(nf8.resonance_residuals, default=0.0) < 1e-12
    # per-pair functional oracle against the band-block construction
    offset = 2 * nf8.band
    for i, j in [(2, 5), (-3, 4), (0, 7)]:
        rhs = homological_rhs(basis64, i, j)
        lam_i, lam_j = nf8.lam[i + offset], nf8.lam[j + offset]
        lhs = (lam_j - lam_i) * nf8.q[j + offset, i + offset]
        assert abs(lhs - rhs) < 1e-12
    for i, j in [(0, 1), (2, -1), (-4, 9)]:  # resonant: rhs must vanish
        assert abs(homological_rhs(basis64, i, j)) < 1e-12


def test_commutator_identity_holds(nf8):
    assert nf8.commutator_residual < 1e-12


def test_eigenvalue_diagonal_matches_compressed_operator(ctx10, basis64, nf8):
    fast = op.assemble_matrix(lambda b: op.fast_skew(ctx10, b), 64)
    phi = spectral.band_matrix(basis64, 8)
    comp = phi.conj().T @ fast @ phi
    assert np.linalg.norm(np.diag(nf8.lam) - comp, 2) < 1e-12


def test_band_growth_of_q_and_laplacian_commutator(ctx10, basis64):
    bands = (4, 8, 16)
    q_norms, lap_norms = [], []
    for n in bands:
        nf = build_normal_form(basis64, n, RESONANCE_TOL)
        q_norms.append(nf.q_norm)
        lap_norms.append(laplacian_commutator_norm(nf))
    expected_q = [5.01188995502927, 6.237084129836907, 7.570199283798929]
    expected_lap = [5058.114543707729, 14099.72972922862, 41459.98265824241]
    assert np.max(np.abs(np.array(q_norms) - expected_q) / expected_q) < 1e-9
    assert np.max(np.abs(np.array(lap_norms) - expected_lap) / np.array(expected_lap)) < 1e-9
    q_slope = np.polyfit(np.log10(bands), np.log10(q_norms), 1)[0]
    lap_slope = np.polyfit(np.log10(bands), np.log10(lap_norms), 1)[0]
    assert q_slope < 3.2
    assert lap_slope < 5.8


def test_conjugation_round_trip_in_regime(bg):
    # eps ||Q|| ~ 0.12 at |xi| = 16 pi: safely inside the invertibility regime
    ctx = lattice_mode_context(bg, (8, 0))
    m = 64
    basis = spectral.build_eigenbasis(ctx, 16, m, TAIL_GATE)
    nf = build_normal_form(basis, 8, RESONANCE_TOL)
    rng = np.random.default_rng(0)
    b = random_field(m, rng)
    d = conjugate(nf, b)
    back = unconjugate(nf, d)
    assert (back - b).norm() < 1e-12 * b.norm()
    margin = ctx.eps * nf.q_norm
    assert margin < 0.5
    assert d.norm() <= (1 + margin) * b.norm() + 1e-12
    assert d.norm() >= (1 - margin) * b.norm() - 1e-12


def test_conjugation_rejects_gravest_mode(ctx10, basis64, nf8):
    # at |xi| = 2 pi the measured eps ||Q|| is 0.99: outside the regime
    assert ctx10.eps * nf8.q_norm > 0.5
    rng = np.random.default_rng(1)
    b = random_field(64, rng)
    with pytest.raises(RegimeViolation):
        conjugate(nf8, b)
    with pytest.raises(RegimeViolation):
        unconjugate(nf8, b)


def test_resonance_violation_on_corrupted_drive(monkeypatch, ctx10, basis64, drive64):
    rng = np.random.default_rng(2)
    noise = rng.standard_normal(drive64.shape) + 1j * rng.standard_normal(
        drive64.shape
    )
    corrupted = drive64 + 1e-3 * (noise + noise.conj().T)
    monkeypatch.setattr(
        op,
        "symmetric_drive",
        lambda ctx, b: op.vector_to_field(corrupted @ op.field_to_vector(b)),
    )
    with pytest.raises(ResonanceViolation):
        build_normal_form(basis64, 8, RESONANCE_TOL)


def test_alt_background_exercises_nonzero_local_part(alt_bg):
    # the local symmetric part no longer vanishes, yet resonant right-hand
    # sides still vanish and the band identity still closes
    ctx = lattice_mode_context(alt_bg, (8, 0))
    m = 64
    basis = spectral.build_eigenbasis(ctx, spectral.stored_band_for(4, m), m, TAIL_GATE)
    local = op.assemble_matrix(lambda b: op.magnetostrophic_symmetric(ctx, b), m)
    assert np.linalg.norm(local, 2) > 0.1
    nf = build_normal_form(basis, 4, RESONANCE_TOL)
    assert max(nf.resonance_residuals) < 1e-12
    assert nf.commutator_residual < 1e-12
    assert np.linalg.norm(nf.c_band, 2) > 1e-3
    # profile-sandwiched local part vanishes structurally even here: the
    # pairing reduces to integrals of exact derivatives
    assert np.linalg.norm(nf.s, 2) < 1e-15


def test_data_arrays_are_write_protected(nf8):
    with pytest.raises(ValueError):
        nf8.q[0, 0] = 1.0
    with pytest.raises(ValueError):
        nf8.lam[0] = 0.0


@pytest.mark.parametrize(
    "background, key, band",
    [("bg", (1, 0), 8), ("bg", (8, 0), 8), ("alt_bg", (8, 0), 4)],
)
def test_band_matrices_match_the_dense_compressions(request, background, key, band):
    # the band-block applications against Phi* D Phi and (P0 Phi)* L (P0 Phi)
    # formed from the assembled drive, local part and profile projector
    ctx = lattice_mode_context(request.getfixturevalue(background), key)
    m = 64
    basis = spectral.build_eigenbasis(ctx, spectral.stored_band_for(band, m), m, TAIL_GATE)
    nf = build_normal_form(basis, band, RESONANCE_TOL)
    c_dense, s_dense = dense_band_compressions(basis, band)
    # s vanishes structurally on these backgrounds, so both matrices are
    # measured against the scale of the drive compression
    scale = np.linalg.norm(c_dense)
    assert scale > 1e-3
    assert np.linalg.norm(nf.c_band - c_dense) <= 1e-12 * scale
    assert np.linalg.norm(nf.s - s_dense) <= 1e-12 * scale


def test_normalform_check_assembles_no_matrix(monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, op.assemble_matrix)
    report = execute(validate({"kind": "normalform-check", "out_dir": str(tmp_path)}))
    assert report.passed
    assert calls == []
