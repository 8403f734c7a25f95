import numpy as np
import pytest

from taylorlab.background import (
    canonical_background,
    lattice_mode_context,
    make_background,
    mode_context,
)
from taylorlab.errors import DegenerateDirection, ZeroMode
from taylorlab.fourier import TWO_PI, FourierSeries

from conftest import allclose, delta, is_real


def test_canonical_gram_is_half_identity(bg):
    assert np.max(np.abs(bg.gram - 0.5 * np.eye(2))) < 1e-15
    assert abs(delta(bg) - np.sqrt(0.5)) < 1e-15


def test_make_background_parity_convention():
    made = make_background([(1, 2, 3.0), (2, -1, 1.5)], truncation=4)
    assert allclose(made.b1, FourierSeries.cosine(2, 4, 3.0))
    assert allclose(made.b2, FourierSeries.sine(1, 4, 1.5))
    assert is_real(made.b1) and is_real(made.b2)


def test_make_background_guards():
    with pytest.raises(ValueError):
        make_background([(3, 1, 1.0)])
    with pytest.raises(ValueError):
        make_background([(1, 0, 1.0)])
    with pytest.raises(ValueError):
        make_background([(1, 99, 1.0)], truncation=8)
    # both components proportional to the same profile: direction never turns
    with pytest.raises(DegenerateDirection):
        make_background([(1, 1, 1.0), (2, 1, 2.0)])


def test_mode_context_basic_fields(bg):
    ctx = mode_context(bg, (TWO_PI, 0.0))
    assert ctx.eps == pytest.approx(1.0 / TWO_PI)
    assert ctx.eta == (1.0, 0.0)
    assert ctx.eta_perp == (0.0, 1.0)
    # beta = B . eta = cos(2 pi x); its normalized profile is sqrt(2) cos
    assert allclose(ctx.beta, FourierSeries.cosine(1, bg.truncation))
    assert allclose(ctx.e0, FourierSeries.cosine(1, bg.truncation, np.sqrt(2.0)))
    assert ctx.beta_norm_sq == pytest.approx(0.5)
    assert allclose(ctx.beta_perp_prime, FourierSeries.cosine(1, bg.truncation, TWO_PI))
    assert allclose(ctx.beta_xi, ctx.beta * TWO_PI)


def test_mode_context_rejects_bad_xi(bg):
    with pytest.raises(ZeroMode):
        mode_context(bg, (0.0, 0.0))
    with pytest.raises(ValueError):
        mode_context(bg, (1.0, 0.0))  # not on the 2 pi lattice
    with pytest.raises(ValueError):
        mode_context(bg, (TWO_PI, 0.0, 0.0))


def test_lattice_wrapper_matches_mode_context(bg):
    a = lattice_mode_context(bg, (2, -1))
    b = mode_context(bg, (2 * TWO_PI, -TWO_PI))
    assert a.xi == b.xi
    assert a.eps == b.eps
    assert allclose(a.beta, b.beta, tol=0)


def test_phase_integral_for_canonical(bg):
    # beta = cos(2 pi x) so Psi(x) = x/2 + sin(4 pi x) / (8 pi)
    ctx = lattice_mode_context(bg, (1, 0))
    slope, periodic = ctx.psi_slope, ctx.psi_periodic
    assert slope == pytest.approx(0.5)
    x = np.linspace(0.0, 1.0, 33)
    expected = 0.5 * x + np.sin(2 * TWO_PI * x) / (8 * np.pi)
    assert np.max(np.abs(ctx.psi_values(x) - expected)) < 1e-14
    assert abs(periodic.mean()) < 1e-16
    # Psi(0) = 0 and the full-period increment equals the slope
    assert ctx.psi_values(0.0) == pytest.approx(0.0, abs=1e-15)
    assert ctx.psi_values(1.0) == pytest.approx(slope)


def test_degenerate_direction_for_single_component_background():
    # B2 = 0 makes beta vanish for eta = (0, 1) even though the Gram matrix
    # check happens at build time, so the build itself must already fail
    with pytest.raises(DegenerateDirection):
        make_background([(1, 1, 1.0)])


def test_unequal_amplitudes_change_delta():
    made = make_background([(1, 1, 2.0), (2, -1, 1.0)])
    assert np.max(np.abs(made.gram - np.diag([2.0, 0.5]))) < 1e-14
    assert abs(delta(made) - np.sqrt(0.5)) < 1e-15


def test_beta_norm_is_direction_dependent(alt_bg):
    # windings 1 and 2 in the two components: the along-mode profile mixes
    # them with weights eta and stays non-degenerate in every direction
    for m in [(1, 0), (0, 1), (3, 4)]:
        ctx = lattice_mode_context(alt_bg, m)
        e1, e2 = ctx.eta
        expected = 0.5 * e1**2 + 0.5 * e2**2
        assert ctx.beta_norm_sq == pytest.approx(expected)
