import numpy as np
import pytest

from taylorlab import operators as op
from taylorlab import spectral
from taylorlab.background import lattice_mode_context
from taylorlab.errors import BandExceedsBasis, ResolutionExceeded

from conftest import (
    TAIL_GATE,
    allclose,
    count_calls,
    dense_high_mode_gap,
    fourier_basis,
    phi_family_gram,
    proj_band,
    proj_band_complement,
    random_field,
    verify_on_basis_by_fields,
)


def test_profile_zero_is_the_normalized_along_profile(basis64, ctx10):
    assert allclose(basis64.profile(0), ctx10.e0.resample(64), tol=1e-14)
    assert basis64.eigenvalue_mu(0) == 0


def test_gravest_eigenvalue_closed_form(basis64):
    # ||beta||^2 = 1/2 at the canonical background, so mu_1 = -i / (4 pi)
    assert abs(basis64.eigenvalue_mu(1) - (-1j / (4 * np.pi))) < 1e-16
    assert abs(basis64.eigenvalue_mu(-1) - (1j / (4 * np.pi))) < 1e-16
    for k in range(1, 17):
        assert abs(basis64.eigenvalue_mu(k) - 0.5 / (2j * k * np.pi)) < 1e-16


def test_profiles_are_orthonormal(basis64):
    p = basis64.profiles
    gram = p.conj() @ p.T
    assert np.max(np.abs(gram - np.eye(p.shape[0]))) < 1e-10


def test_eigenvalues_match_numeric_diagonalization(ctx10):
    # independent route: dense scalar compression, numeric eigensolve
    m = 48
    basis = spectral.build_eigenbasis(ctx10, 8, m, TAIL_GATE)
    core = spectral.assemble_core_matrix(ctx10, m)
    w = np.linalg.eigvals(core)
    for k in [k for k in range(-8, 9) if k != 0]:
        mu = basis.eigenvalue_mu(k)
        nearest = w[np.argmin(np.abs(w - mu))]
        assert abs(nearest - mu) < 1e-8 * abs(mu)


def test_stored_family_diagonalizes_the_fast_operator(basis64):
    residuals = spectral.verify_on_basis(basis64)
    assert residuals["phi_minus_max_residual"] < 1e-10
    assert residuals["phi_plus_max_residual"] < 1e-10


def test_verify_on_basis_applies_the_operator_once_per_family(monkeypatch, ctx10):
    # one block application for the 17 phi_minus fields, one for the 34
    # phi_plus fields of a basis stored to band 8
    basis = spectral.build_eigenbasis(ctx10, 8, 64, TAIL_GATE)
    calls = count_calls(monkeypatch, op.fast_skew)
    residuals = spectral.verify_on_basis(basis)
    assert len(calls) == 2
    assert max(residuals.values()) < 1e-10
    for name, value in verify_on_basis_by_fields(basis).items():
        assert abs(residuals[name] - value) <= 1e-12 * value


def test_eigenvalue_pairing_convention(basis64):
    # even branch carries +mu_k, odd branch -mu_k, with k = j // 2
    assert basis64.lam(2) == basis64.eigenvalue_mu(1)
    assert basis64.lam(3) == -basis64.eigenvalue_mu(1)
    assert basis64.lam(-2) == basis64.eigenvalue_mu(-1)
    assert basis64.lam(0) == 0 and basis64.lam(1) == 0


def test_phi_family_is_orthonormal(basis64):
    gram = phi_family_gram(basis64)
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


def test_resolution_guards():
    from taylorlab.background import canonical_background

    ctx = lattice_mode_context(canonical_background(), (1, 0))
    with pytest.raises(ResolutionExceeded):
        spectral.build_eigenbasis(ctx, 17, 64, TAIL_GATE)  # > truncation // 4
    # band 8 passes the arithmetic guard at window 32, but the phase
    # modulation spreads profile 8 past the window: the tail gate trips
    with pytest.raises(ResolutionExceeded, match="tail"):
        spectral.build_eigenbasis(ctx, 8, 32, TAIL_GATE)


def test_stored_band_for_values():
    assert spectral.stored_band_for(8, 64) == 16
    assert spectral.stored_band_for(40, 160) == 40
    assert spectral.stored_band_for(2, 64) == 6


def test_band_matrix_guard(basis64):
    with pytest.raises(BandExceedsBasis):
        spectral.band_matrix(basis64, 17)
    with pytest.raises(BandExceedsBasis):
        basis64.profile(17)


def test_band_projector_properties(ctx10, basis64):
    rng = np.random.default_rng(0)
    b = random_field(64, rng)
    p = proj_band(basis64, 4, b)
    assert (proj_band(basis64, 4, p) - p).norm() < 1e-12
    q = proj_band_complement(basis64, 4, b)
    assert abs(p.inner(q)) < 1e-12
    direction_perp = op.proj_direction_perp(ctx10, b)
    assert ((p + q) - direction_perp).norm() < 1e-12


def test_parseval_on_profile_band_limited_fields(ctx10, basis64):
    # completeness holds exactly for fields whose profiles lie in the
    # stored family: direction-aligned pieces plus both eigenfield branches
    rng = np.random.default_rng(1)
    c_minus = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c_plus = rng.standard_normal(18) + 1j * rng.standard_normal(18)
    b = op.ModeField.zeros(64)
    for i, k in enumerate(range(-4, 5)):
        b = b + c_minus[i] * basis64.phi_minus(k)
    for i, j in enumerate(range(-8, 10)):
        b = b + c_plus[i] * basis64.phi_plus(j)
    total = np.sum(np.abs(c_minus) ** 2) + np.sum(np.abs(c_plus) ** 2)
    assert abs(b.norm() ** 2 - total) < 1e-12 * total
    # and the band projector recovers exactly the plus-branch budget
    low = proj_band(basis64, 8, b)
    assert abs(low.norm() ** 2 - np.sum(np.abs(c_plus) ** 2)) < 1e-12 * total


def test_band_derivative_norm_frozen_values(basis64):
    # frozen from the dense SVD route at this window
    measured = [spectral.band_derivative_norm(basis64, n) for n in (2, 4, 8)]
    expected = [21.497005649656497, 41.15967516167611, 84.55076142438206]
    assert np.max(np.abs(np.array(measured) - expected)) < 1e-9
    # growth is roughly linear in the band: doubling the band roughly
    # doubles the norm
    assert 1.8 < measured[1] / measured[0] < 2.2
    assert 1.8 < measured[2] / measured[1] < 2.2


def test_high_mode_gap_decays_and_vanishes_at_full_band(basis64, drive64, v_div64):
    gaps = spectral.high_mode_gap(basis64, (2, 4, 8), drive64, v_div64)
    expected = [0.0406878740325432, 0.026132556352143267, 0.014031473255174965]
    assert np.max(np.abs(np.array(gaps) - expected)) < 1e-10
    assert gaps[0] > gaps[1] > gaps[2]
    [full] = spectral.high_mode_gap(basis64, [16], drive64, v_div64)
    assert full < 1e-12


def test_high_mode_gaps_of_a_sweep_equal_one_call_per_band(basis64, drive64, v_div64):
    # the compression and the QR are shared by the bands; each band zeroes
    # its window on its own copy, so no band sees another's zeros
    bands = (2, 4, 8)
    swept = spectral.high_mode_gap(basis64, bands, drive64, v_div64)
    single = [spectral.high_mode_gap(basis64, [n], drive64, v_div64)[0] for n in bands]
    assert swept == single
    assert spectral.high_mode_gap(basis64, bands[::-1], drive64, v_div64) == single[::-1]


@pytest.mark.parametrize("background", ["bg", "alt_bg"])
def test_high_mode_gap_core_matches_the_dense_formula(request, background):
    ctx = lattice_mode_context(request.getfixturevalue(background), (1, 0))
    m = 64
    basis = spectral.build_eigenbasis(ctx, 16, m, TAIL_GATE)
    drive = op.assemble_matrix(lambda b: op.symmetric_drive(ctx, b), m)
    v_div = fourier_basis(op.divergence_null_basis, ctx, m)
    bands = (2, 4, 8)
    for band, core in zip(bands, spectral.high_mode_gap(basis, bands, drive, v_div)):
        dense = dense_high_mode_gap(basis, band, drive, v_div)
        assert dense > 1e-3
        assert abs(core - dense) <= 1e-12 * dense
    # the band covers the whole stored family: both routes read zero
    assert spectral.high_mode_gap(basis, [16], drive, v_div)[0] <= 1e-14
    assert dense_high_mode_gap(basis, 16, drive, v_div) <= 1e-14
