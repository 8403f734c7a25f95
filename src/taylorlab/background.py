"""Horizontal background fields on the torus and per-mode reductions.

A background is a stationary horizontal field B(x3) = (B1(x3), B2(x3), 0)
depending only on the vertical coordinate, with zero vertical mean and a
direction that genuinely turns (non-degenerate Gram matrix).  Each nonzero
horizontal wave vector xi in (2 pi Z)^2 reduces the dynamics to a family of
one-dimensional operators built from two scalar profiles:

* ``beta``            : B_h . eta,          the along-mode profile,
* ``beta_perp_prime`` : (B_h . eta_perp)',  the turning rate across the mode,

where eta = xi / |xi| and eta_perp is eta rotated by +90 degrees.  The
context also carries the phase integral Psi(x3) = int_0^x3 beta^2, split into
its linear slope ||beta||^2 and a zero-mean periodic part, normalized so that
Psi(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirection, ZeroMode
from .fourier import TWO_PI, FourierSeries, multiply

__all__ = [
    "BackgroundField",
    "ModeContext",
    "make_background",
    "canonical_background",
    "mode_context",
    "lattice_mode_context",
]

DEFAULT_BACKGROUND_TRUNCATION = 8


@dataclass(frozen=True, eq=False)
class BackgroundField:
    """Two real zero-mean component profiles plus their 2x2 Gram matrix.

    ``gram[i, j] = int B_{i+1} B_{j+1} dx3``; its smallest eigenvalue measures
    how far the field direction is from being constant.
    """

    b1: FourierSeries
    b2: FourierSeries
    gram: np.ndarray

    def __post_init__(self):
        g = np.array(self.gram, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    @property
    def truncation(self) -> int:
        return self.b1.truncation

    @property
    def components(self):
        return (self.b1, self.b2)


def make_background(entries, truncation: int = DEFAULT_BACKGROUND_TRUNCATION) -> BackgroundField:
    """Build a background from ``(component, n, amplitude)`` entries.

    ``component`` selects B1 or B2 (values 1 or 2).  The mode index carries
    the parity convention for real amplitudes: ``n > 0`` adds
    ``amplitude * cos(2 pi n x3)`` and ``n < 0`` adds
    ``amplitude * sin(2 pi |n| x3)``.  Zero-mode entries are rejected so the
    field always has zero vertical mean.

    Raises :class:`DegenerateDirection` when the resulting Gram matrix is
    singular (the field direction never turns), which breaks every
    construction downstream.
    """
    comps = [FourierSeries.zeros(truncation), FourierSeries.zeros(truncation)]
    for component, n, amplitude in entries:
        component = int(component)
        n = int(n)
        amplitude = float(amplitude)
        if component not in (1, 2):
            raise ValueError(f"component must be 1 or 2, got {component}")
        if n == 0:
            raise ValueError("zero-mode entries are not allowed (field must have zero mean)")
        if abs(n) > truncation:
            raise ValueError(f"mode {n} exceeds the background window {truncation}")
        if n > 0:
            wave = FourierSeries.cosine(n, truncation, amplitude)
        else:
            wave = FourierSeries.sine(-n, truncation, amplitude)
        comps[component - 1] = comps[component - 1] + wave

    b1, b2 = comps
    gram = np.array(
        [
            [b1.inner(b1).real, b1.inner(b2).real],
            [b2.inner(b1).real, b2.inner(b2).real],
        ]
    )
    gram = 0.5 * (gram + gram.T)
    if np.linalg.eigvalsh(gram)[0] <= 1e-12:
        raise DegenerateDirection(
            "background direction does not turn: Gram matrix is numerically singular"
        )
    return BackgroundField(b1=b1, b2=b2, gram=gram)


def canonical_background(truncation: int = DEFAULT_BACKGROUND_TRUNCATION) -> BackgroundField:
    """The reference helical profile (cos 2 pi x3, sin 2 pi x3, 0)."""
    return make_background([(1, 1, 1.0), (2, -1, 1.0)], truncation=truncation)


@dataclass(frozen=True, eq=False)
class ModeContext:
    """Everything the per-mode operators need for one horizontal wave vector."""

    background: BackgroundField
    xi: tuple
    eta: tuple
    eps: float
    beta: FourierSeries
    beta_prime: FourierSeries
    beta_perp_prime: FourierSeries
    beta_norm_sq: float
    e0: FourierSeries
    # the phase integral Psi (see psi_values): slope ||beta||^2 = Psi(1), and
    # a zero-mean periodic part
    psi_slope: float
    psi_periodic: FourierSeries

    @property
    def xi_norm(self) -> float:
        return 1.0 / self.eps

    @property
    def eta_perp(self) -> tuple:
        return (-self.eta[1], self.eta[0])

    @property
    def b_prime(self):
        """Vertical derivative of the horizontal background, (B1', B2')."""
        return (self.background.b1.derivative(), self.background.b2.derivative())

    @property
    def beta_xi(self) -> FourierSeries:
        """Unscaled along-mode profile B_h . xi = |xi| beta."""
        return self.beta * self.xi_norm

    def psi_values(self, x):
        """Evaluate Psi(x) = slope * x + periodic(x) - periodic(0); Psi(0) = 0."""
        xs = np.asarray(x, dtype=float)
        p = self.psi_periodic.evaluate(xs)
        p0 = self.psi_periodic.evaluate(0.0)
        return self.psi_slope * xs + np.real(p - p0)


def mode_context(background: BackgroundField, xi) -> ModeContext:
    """Reduce a background to one horizontal mode xi in (2 pi Z)^2 \\ {0}."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise ValueError("xi must be a 2-vector")
    norm = float(np.linalg.norm(xi))
    if norm == 0.0:
        raise ZeroMode("the zero horizontal mode has no per-mode reduction")
    lattice = xi / TWO_PI
    if np.max(np.abs(lattice - np.round(lattice))) > 1e-9 * max(1.0, norm):
        raise ValueError(f"xi = {tuple(xi)} is not on the 2 pi integer lattice")

    eta = xi / norm
    beta = float(eta[0]) * background.b1 + float(eta[1]) * background.b2
    beta_perp = float(-eta[1]) * background.b1 + float(eta[0]) * background.b2
    beta_norm_sq = float(beta.inner(beta).real)
    if beta_norm_sq <= 1e-12:
        raise DegenerateDirection(
            f"along-mode profile vanishes identically for eta = {tuple(eta)}"
        )
    psi_periodic = multiply(beta, beta).antiderivative_zero_mean()
    return ModeContext(
        background=background,
        xi=(float(xi[0]), float(xi[1])),
        eta=(float(eta[0]), float(eta[1])),
        eps=1.0 / norm,
        beta=beta,
        beta_prime=beta.derivative(),
        beta_perp_prime=beta_perp.derivative(),
        beta_norm_sq=beta_norm_sq,
        e0=beta * (1.0 / np.sqrt(beta_norm_sq)),
        psi_slope=beta_norm_sq,
        psi_periodic=psi_periodic,
    )


def lattice_mode_context(background: BackgroundField, m) -> ModeContext:
    """Convenience wrapper taking an integer lattice pair, xi = 2 pi m."""
    m = np.asarray(m, dtype=float)
    return mode_context(background, TWO_PI * m)
