"""Explicit eigenstructure of the fast skew operator, and band projectors.

The compressed scalar operator

    D = P_perp (beta Dinv(beta .)) P_perp,   P_perp = Id - projection on e0,

is diagonalized in closed form by the warped exponentials

    e_k = beta exp(2 pi i k Psi / Psi(1)) / ||beta||,    k in Z,

with purely imaginary eigenvalues mu_k = ||beta||^2 / (2 i k pi), where Psi
is the increasing phase with Psi' = beta^2 and Psi(0) = 0.  Lifting to
C^3-valued fields, the triples

    Phi_k^-      = (eta, 0) e_k                  (kernel of the skew operator)
    Phi^+_{2k}   = (eta_perp, -i) e_k / sqrt(2)  (eigenvalue +mu_k)
    Phi^+_{2k+1} = (eta_perp, +i) e_k / sqrt(2)  (eigenvalue -mu_k)

form an orthonormal family diagonalizing the profile-compressed skew
operator; lambda_0 = lambda_1 = 0.  The fiber vectors attached to the even
and odd branches are fixed by the cross-product identity
(eta,0) x (eta_perp, -+i) = +-i (eta_perp, -+i), which pins which branch
carries +mu_k; this is verified directly in the test-suite.

Profiles are built by oversampled collocation (4M points for window M) of
the closed form, never from a numerical eigensolver; the eigensolver serves
as an independent oracle in tests.  Construction refuses to store profiles
it cannot resolve: the guard band <= M/4 plus a hard spectral-tail gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import ModeContext
from .errors import BandExceedsBasis, ResolutionExceeded
from .fourier import FourierSeries, integrate_product, inverse_collocation, multiply
from .operators import (
    ModeField,
    field_to_vector,
    vector_to_field,
)
from . import operators

__all__ = [
    "SpectralBasis",
    "build_eigenbasis",
    "stored_band_for",
    "assemble_core_matrix",
    "verify_on_basis",
    "band_matrix",
    "band_derivative_norm",
    "high_mode_gap",
]

OVERSAMPLE = 4


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Stored eigenprofiles e_k (|k| <= band) at a fixed mode window; the
    band and the window are read from the shape of ``profiles``."""

    ctx: ModeContext
    profiles: np.ndarray  # (2*band+1, 2*truncation+1); row band+k holds e_k
    mu: np.ndarray  # (2*band+1,) eigenvalues; mu[band] = 0 by convention

    def __post_init__(self):
        for name in ("profiles", "mu"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def band(self) -> int:
        return (self.profiles.shape[0] - 1) // 2

    @property
    def truncation(self) -> int:
        return (self.profiles.shape[1] - 1) // 2

    # -- scalar layer ---------------------------------------------------

    def profile(self, k: int) -> FourierSeries:
        self._check_profile_index(k)
        return FourierSeries(self.profiles[self.band + k])

    def eigenvalue_mu(self, k: int) -> complex:
        self._check_profile_index(k)
        return complex(self.mu[self.band + k])

    def _check_profile_index(self, k: int):
        if abs(k) > self.band:
            raise BandExceedsBasis(
                f"profile index {k} outside stored band [{-self.band}, {self.band}]"
            )

    # -- vector layer ---------------------------------------------------

    @property
    def plus_indices(self) -> range:
        """All stored eigenfield indices j, even and odd branch."""
        return range(-2 * self.band, 2 * self.band + 2)

    def _fibers(self):
        p1, p2 = self.ctx.eta_perp
        inv = 1.0 / np.sqrt(2.0)
        even = np.array([p1, p2, -1j]) * inv
        odd = np.array([p1, p2, 1j]) * inv
        return even, odd

    def phi_minus(self, k: int) -> ModeField:
        e1, e2 = self.ctx.eta
        ek = self.profile(k)
        return ModeField(e1 * ek, e2 * ek, FourierSeries.zeros(self.truncation))

    def phi_plus(self, j: int) -> ModeField:
        k, parity = j // 2, j % 2
        fiber = self._fibers()[parity]
        ek = self.profile(k)
        return ModeField(fiber[0] * ek, fiber[1] * ek, fiber[2] * ek)

    def lam(self, j: int) -> complex:
        """Eigenvalue of the fast skew operator on phi_plus(j)."""
        k, parity = j // 2, j % 2
        mu = self.eigenvalue_mu(k)
        return mu if parity == 0 else -mu


def stored_band_for(band: int, truncation: int) -> int:
    """Default stored profile count for work on the given eigenfield band.

    Aims for band + (band + 2) profiles of headroom but never exceeds the
    resolution guard truncation // 4.  The configuration invariant
    truncation >= 4*band + 8 guarantees the result covers the band.
    """
    return min(2 * band + 2, truncation // 4)


def build_eigenbasis(
    ctx: ModeContext, band: int, truncation: int, tail_gate: float
) -> SpectralBasis:
    """Collocate the closed-form profiles e_k for |k| <= band at the window.

    Raises ResolutionExceeded when the resolution guard band <= truncation/4
    fails, when any collocation tail exceeds ``tail_gate``, or when the
    stored family drifts from orthonormality (all three are symptoms of an
    under-resolved window).
    """
    if band < 0:
        raise ValueError("band must be nonnegative")
    if band > truncation // 4:
        raise ResolutionExceeded(
            f"stored band {band} exceeds the resolution guard {truncation}//4 = {truncation // 4}"
        )
    n_points = OVERSAMPLE * truncation
    x = np.arange(n_points) / n_points
    psi = ctx.psi_values(x)
    beta_x = ctx.beta.evaluate(x)
    norm = np.sqrt(ctx.beta_norm_sq)

    width = 2 * truncation + 1
    profiles = np.zeros((2 * band + 1, width), dtype=np.complex128)
    mu = np.zeros(2 * band + 1, dtype=np.complex128)
    for k in range(-band, band + 1):
        samples = beta_x * np.exp(2j * np.pi * k * psi / ctx.psi_slope) / norm
        full = inverse_collocation(samples)
        modes = full.modes()
        tail = float(np.linalg.norm(full.coeffs[np.abs(modes) > truncation]))
        if tail > tail_gate:
            raise ResolutionExceeded(
                f"profile k={k} has spectral tail {tail:.3e} beyond window {truncation}"
                f" (gate {tail_gate:.1e}); increase the window"
            )
        profiles[band + k] = full.resample(truncation).coeffs
        mu[band + k] = ctx.beta_norm_sq / (2j * k * np.pi) if k != 0 else 0.0

    norms = np.linalg.norm(profiles, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise ResolutionExceeded(
            f"stored profile norms deviate from 1 by {np.max(np.abs(norms - 1.0)):.3e}"
        )
    gram = profiles.conj() @ profiles.T
    if np.max(np.abs(gram - np.eye(2 * band + 1))) > 1e-10:
        raise ResolutionExceeded("stored profiles are not orthonormal at 1e-10")

    return SpectralBasis(ctx=ctx, profiles=profiles, mu=mu)


def assemble_core_matrix(ctx: ModeContext, truncation: int) -> np.ndarray:
    """Dense matrix of the scalar compressed operator D at the window."""

    def perp(f: FourierSeries) -> FourierSeries:
        return f - integrate_product(ctx.e0, f) * ctx.e0.resample(f.truncation)

    def core(s: FourierSeries) -> FourierSeries:
        out = multiply(ctx.beta, multiply(ctx.beta, perp(s)).antiderivative_zero_mean())
        return perp(out.resample(truncation))

    # the columns of the identity block are the coefficient basis series
    return core(FourierSeries(np.eye(2 * truncation + 1, dtype=np.complex128))).coeffs


def verify_on_basis(basis: SpectralBasis) -> dict:
    """Apply the fast skew operator of the basis's mode once to the stacked
    phi_minus family and once to the stacked phi_plus family; report the
    largest residual of each."""
    minus = np.column_stack(
        [field_to_vector(basis.phi_minus(k)) for k in range(-basis.band, basis.band + 1)]
    )
    plus = band_matrix(basis, basis.band)
    lam = np.array([basis.lam(j) for j in basis.plus_indices])

    def residual(vecs: np.ndarray) -> np.ndarray:
        return field_to_vector(operators.fast_skew(basis.ctx, vector_to_field(vecs)))

    minus_res = residual(minus)
    plus_res = residual(plus) - lam * plus
    # one norm per column: a norm along axis 0 sums in another order and
    # moves the reported maxima at rounding
    return {
        "phi_minus_max_residual": max(float(np.linalg.norm(col)) for col in minus_res.T),
        "phi_plus_max_residual": max(float(np.linalg.norm(col)) for col in plus_res.T),
    }


def band_matrix(basis: SpectralBasis, band: int) -> np.ndarray:
    """Columns phi_plus(j) for j in [-2*band, 2*band+1], stacked coefficients."""
    if band > basis.band:
        raise BandExceedsBasis(
            f"requested band {band} exceeds stored profile band {basis.band}"
        )
    cols = [field_to_vector(basis.phi_plus(j)) for j in range(-2 * band, 2 * band + 2)]
    return np.column_stack(cols)


def band_derivative_norm(basis: SpectralBasis, band: int) -> float:
    """Operator norm of (d/dx3) composed with the band projector."""
    phi = band_matrix(basis, band)
    factors = 2j * np.pi * np.arange(-basis.truncation, basis.truncation + 1)
    deriv = np.tile(factors, 3)[:, None] * phi
    return float(np.linalg.svd(deriv, compute_uv=False)[0])


def high_mode_gap(
    basis: SpectralBasis,
    bands,
    drive_matrix: np.ndarray,
    divergence_free_basis: np.ndarray,
) -> list:
    """Quadratic-form gaps between full and band compressions of the drive,
    one per band of ``bands``.

    Measures sup |<C P b, P b> - <C P_N b, P_N b>| over unit divergence-free
    b, where P is the stored-family realization of the direction-orthogonal
    projection and P_N the band projector; computed as the operator norm of
    the Hermitian part of the compressed matrix difference.  A band covering
    the whole stored family gives zero.

    With Phi the stored family (4K+2 columns), C = Phi* D Phi and Y = Phi* V,
    the difference is Y* (C - C_N) Y, where C_N keeps only the band's window
    of C.  Its Hermitian part is Y* H Y with H the Hermitian part of C with
    that window zeroed.  A thin QR Y* = Q R gives Y* H Y = Q (R H R*) Q*, so
    the norm is the largest |eigenvalue| of the (4K+2)-square R H R*, and
    no matrix of the divergence-free dimension is factored.  C and R do not
    depend on the band: they are formed once, and each band zeroes its
    window on a copy of C.

    The hypothesis class matters: restricting further (adding the averaged
    momentum-balance rows) collapses the form identically for circularly
    polarized backgrounds, so the divergence condition alone is imposed.
    """
    phi = band_matrix(basis, basis.band)
    y = phi.conj().T @ divergence_free_basis  # (4K+2, dim_div_free)
    compressed = phi.conj().T @ (drive_matrix @ phi)
    _, r = np.linalg.qr(y.conj().T)
    gaps = []
    for band in bands:
        band = min(band, basis.band)
        outside = compressed.copy()
        lo = 2 * (basis.band - band)
        hi = lo + 4 * band + 2
        outside[lo:hi, lo:hi] = 0.0
        herm = 0.5 * (outside + outside.conj().T)
        gaps.append(float(np.abs(np.linalg.eigvalsh(r @ herm @ r.conj().T)).max()))
    return gaps
