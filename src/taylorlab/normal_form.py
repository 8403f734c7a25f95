"""Homological equation on the low eigenfield band.

Given the band of eigenfields phi_plus(j), j in [-2N, 2N+1], with
eigenvalues lambda_j, the band matrix Q solves

    (lambda_j - lambda_i) Q[j, i] = rhs(i, j)
    rhs(i, j) = -<C phi_i, phi_j> + <C_m P0 phi_i, P0 phi_j>,

where C is the symmetric drive, C_m its local part, and P0 the componentwise
profile projection.  Resonant pairs (lambda_i = lambda_j) fall into exactly
three structural families - the diagonal, the pair {0, 1}, and the pairs
{2k, -2k+1} - and on each of them the right-hand side vanishes; this module
verifies that numerically and raises if it fails, since a nonzero resonant
right-hand side would make the equation unsolvable.

By construction the solved equation is the band compression of

    [A, Q_N] = -P_N C P_N + S,     S = P0-compressed C_m on the band,

(A applied first in the bracket; the residual of this identity is the
stored commutator diagnostic).  S is independent of eps; the quadratic form
of S/eps on constrained fields stays bounded as eps shrinks, which is what
the scaling suite measures.

The change of unknown d = (Id + eps Q_N) b that Q defines is well
conditioned only while eps ||Q|| < 1/2; the normal-form check reports that
margin, and the test suite keeps the conjugation and its inverse as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceViolation
from .operators import field_to_vector, vector_to_field
from . import operators
from .spectral import SpectralBasis, band_matrix

__all__ = [
    "NormalFormData",
    "resonant_pairs",
    "build_normal_form",
]


def resonant_pairs(band: int):
    """Index pairs (i, j) in the band with structurally equal eigenvalues.

    Three families: the diagonal; the zero-eigenvalue pair {0, 1}; and
    {2k, -2k+1} for k != 0.  Returned sorted and deduplicated.
    """
    lo, hi = -2 * band, 2 * band + 1
    pairs = {(j, j) for j in range(lo, hi + 1)}
    pairs.add((0, 1))
    pairs.add((1, 0))
    for k in range(-band, band + 1):
        if k == 0:
            continue
        i, j = 2 * k, -2 * k + 1
        if lo <= i <= hi and lo <= j <= hi:
            pairs.add((i, j))
            pairs.add((j, i))
    return tuple(sorted(pairs))


@dataclass(frozen=True, eq=False)
class NormalFormData:
    """Band matrices of the homological construction, with diagnostics."""

    basis: SpectralBasis
    band: int
    lam: np.ndarray  # (4*band+2,) eigenvalues along the band indices
    q: np.ndarray  # (4*band+2)^2 solution of the homological equation
    s: np.ndarray  # same shape; eps-independent profile-compressed drive
    c_band: np.ndarray  # band compression of the symmetric drive
    resonant: tuple  # index pairs (i, j)
    resonance_residuals: np.ndarray  # |rhs| per resonant pair
    commutator_residual: float
    q_norm: float

    def __post_init__(self):
        for name in ("lam", "q", "s", "c_band", "resonance_residuals"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def position(self, j: int) -> int:
        if not (-2 * self.band <= j <= 2 * self.band + 1):
            raise IndexError(f"band index {j} outside [{-2 * self.band}, {2 * self.band + 1}]")
        return j + 2 * self.band

    def resonance_rows(self):
        """CSV-ready rows (i, j, lambda_i, lambda_j, |rhs|)."""
        rows = []
        for (i, j), res in zip(self.resonant, self.resonance_residuals):
            li = self.lam[self.position(i)]
            lj = self.lam[self.position(j)]
            rows.append((i, j, complex(li), complex(lj), float(res)))
        return rows


def build_normal_form(basis: SpectralBasis, band: int, resonance_tol: float) -> NormalFormData:
    """Solve the homological equation on the band of the basis's mode; verify
    all vanishing claims.

    The drive and its local part are applied once each to the block of band
    eigenfields (the local part to their profile projections), compressed
    against the band, divided by eigenvalue differences off resonance and
    zeroed on resonance.  Raises ResonanceViolation if a resonant right-hand
    side fails to vanish, which would indicate a defect in the drive
    operator, not in this solver.
    """
    phi = band_matrix(basis, band)
    indices = range(-2 * band, 2 * band + 2)
    lam = np.array([basis.lam(j) for j in indices])

    ctx = basis.ctx
    fields = vector_to_field(phi)
    c_band = phi.conj().T @ field_to_vector(operators.symmetric_drive(ctx, fields))
    p0 = operators.proj_profile(ctx, fields)
    p0_phi = field_to_vector(p0)
    s = p0_phi.conj().T @ field_to_vector(operators.magnetostrophic_symmetric(ctx, p0))
    rhs = -c_band + s

    pairs = resonant_pairs(band)
    offset = 2 * band
    res_mask = np.zeros(rhs.shape, dtype=bool)
    residuals = np.zeros(len(pairs))
    for n, (i, j) in enumerate(pairs):
        res_mask[j + offset, i + offset] = True
        residuals[n] = abs(rhs[j + offset, i + offset])
    worst = residuals.max() if len(pairs) else 0.0
    if worst >= resonance_tol:
        raise ResonanceViolation(
            f"resonant right-hand side {worst:.3e} >= {resonance_tol:.1e}; "
            "the drive operator violates the vanishing structure"
        )

    denom = lam[:, None] - lam[None, :]  # (j, i) -> lambda_j - lambda_i
    safe = ~res_mask & (np.abs(denom) > 1e-13)
    q = np.zeros_like(rhs)
    q[safe] = rhs[safe] / denom[safe]

    commutator = np.diag(lam) @ q - q @ np.diag(lam) + c_band - s
    return NormalFormData(
        basis=basis,
        band=band,
        lam=lam,
        q=q,
        s=s,
        c_band=c_band,
        resonant=pairs,
        resonance_residuals=residuals,
        commutator_residual=float(np.linalg.norm(commutator, ord=2)),
        q_norm=float(np.linalg.norm(q, ord=2)),
    )
