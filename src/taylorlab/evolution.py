"""Exact time propagation of the per-mode induction system.

The generator of each horizontal mode is autonomous, so propagation is by
matrix exponential rather than time stepping: one dense ``expm`` per
(mode, step size) pair, cached and reused.  A classical Runge-Kutta path
exists only as a cross-check oracle.  The zero horizontal mode decouples
into a scalar heat equation and is propagated in closed form.

Initial data are drawn with a fixed spectral decay and projected onto the
intersection of the divergence-free and averaged-momentum-balance
subspaces; the projection is realized by an orthonormal null-space basis
computed once per mode.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .background import BackgroundField, ModeContext, lattice_mode_context
from .errors import ConstraintDrift, IllConditioned, NonConjugateModes
from .fourier import FourierSeries
from .operators import (
    ModeField,
    OperatorMatrix,
    assemble_matrix,
    constraint_null_basis,
    divergence_residual,
    field_to_vector,
    full_induction,
    taylor_residual,
    vector_to_field,
)

# Eigendecomposition cross-checks of the matrix exponential only run when
# the eigenvector matrix is this well conditioned; beyond it the oracle's
# own error would drown the quantity being verified.
EXPM_ORACLE_CONDITION = 300.0
EXPM_ORACLE_TOL = 1e-10

STEP_RESIDUAL_LIMIT = 1e-7


# ----------------------------------------------------------------------
# constraint projection
# ----------------------------------------------------------------------


def project_constraints(
    ctx: ModeContext, b: ModeField, basis: np.ndarray | None = None
) -> ModeField:
    """L2-orthogonal projection onto the constrained subspace.

    The subspace is the intersection of the divergence condition (one
    linear relation per vertical mode) with the two averaged balance
    relations.  Pass a precomputed orthonormal ``basis`` to amortize the
    null-space factorization across calls.
    """
    if basis is None:
        basis = constraint_null_basis(ctx, b.truncation)
    vec = field_to_vector(b)
    return vector_to_field(basis @ (basis.conj().T @ vec), b.truncation)


def grad_energy(ctx: ModeContext, b: ModeField) -> float:
    """Squared H1 seminorm of one mode: |xi|^2 ||b||^2 + ||d3 b||^2."""
    vertical = sum(c.derivative().norm() ** 2 for c in b.components)
    return float(ctx.xi_norm**2 * b.norm() ** 2 + vertical)


def induction_power(
    ctx: ModeContext, b: ModeField, include_geostrophic: bool = True
) -> float:
    """Re <curl(u x B) b, b>, the mode-wise power input of the induction term.

    Computed as Re <L b, b> plus the (exactly known) dissipation, which
    avoids assembling the diffusion-free right-hand side separately.  No
    sign claim is attached to this quantity; it is diagnostic only.
    """
    lb = full_induction(ctx, b, include_geostrophic=include_geostrophic)
    return float(np.real(lb.inner(b.resample(lb.truncation))) + grad_energy(ctx, b))


# ----------------------------------------------------------------------
# per-mode propagator
# ----------------------------------------------------------------------


def _checked_expm(mat: np.ndarray) -> np.ndarray:
    """scipy expm with an eigendecomposition cross-check when affordable."""
    out = scipy.linalg.expm(mat)
    if not np.all(np.isfinite(out)):
        raise IllConditioned("matrix exponential produced non-finite entries")
    w, vecs = np.linalg.eig(mat)
    cond = np.linalg.cond(vecs)
    if cond <= EXPM_ORACLE_CONDITION:
        recon = vecs @ (np.exp(w)[:, None] * np.linalg.solve(vecs, np.eye(len(w))))
        rel = np.linalg.norm(out - recon, 2) / max(1.0, np.linalg.norm(out, 2))
        if rel > EXPM_ORACLE_TOL:
            raise IllConditioned(
                f"exponential disagrees with eigendecomposition: {rel:.3e} "
                f"(eigenvector condition {cond:.2e})"
            )
    return out


@dataclass(frozen=True, eq=False)
class ModePropagator:
    """Cached exact propagator exp(h G) of a single horizontal mode."""

    ctx: ModeContext
    generator: OperatorMatrix
    constraint_basis: np.ndarray
    restricted_abscissa: float
    constraint_invariance_defect: float
    propagator_cache: dict = field(default_factory=dict)

    @property
    def truncation(self) -> int:
        return self.generator.truncation

    def exponential(self, h: float) -> np.ndarray:
        key = float(h)
        if key not in self.propagator_cache:
            self.propagator_cache[key] = _checked_expm(key * self.generator.entries)
        return self.propagator_cache[key]


def build_propagator(
    ctx: ModeContext,
    truncation: int,
    include_geostrophic: bool = True,
) -> ModePropagator:
    """Assemble the full per-mode generator (induction plus diffusion).

    The restricted abscissa is the largest real part of the generator
    compressed to the constrained subspace; the invariance defect
    ||(Id - P) G P|| is recorded rather than enforced so that runs with
    the balancing velocity disabled remain expressible.
    """
    gen = assemble_matrix(
        lambda b: full_induction(
            ctx, b, include_geostrophic=include_geostrophic, out_truncation=truncation
        ),
        truncation,
        label="generator",
    )
    basis = constraint_null_basis(ctx, truncation)
    compressed = basis.conj().T @ gen.entries @ basis
    abscissa = float(np.linalg.eigvals(compressed).real.max())
    complement = gen.entries @ basis - basis @ compressed
    defect = float(np.linalg.norm(complement, 2))
    return ModePropagator(
        ctx=ctx,
        generator=gen,
        constraint_basis=basis,
        restricted_abscissa=abscissa,
        constraint_invariance_defect=defect,
    )


def step(propagator: ModePropagator, b: ModeField, h: float) -> ModeField:
    """Advance one mode by the exact flow over a time h."""
    vec = field_to_vector(b.resample(propagator.truncation))
    out = vector_to_field(propagator.exponential(h) @ vec, propagator.truncation)
    r_perp, r_3 = taylor_residual(propagator.ctx, out)
    worst = max(abs(r_perp), abs(r_3), divergence_residual(propagator.ctx, out))
    if worst > STEP_RESIDUAL_LIMIT:
        raise ConstraintDrift(
            f"constraint residual {worst:.3e} after step h={h} "
            "(generator assembly or initial data are inconsistent)"
        )
    return out


def rk4_step(propagator: ModePropagator, b: ModeField, h: float) -> ModeField:
    """Classical Runge-Kutta step; cross-check oracle for the exact flow."""
    g = propagator.generator.entries
    y = field_to_vector(b.resample(propagator.truncation))
    k1 = g @ y
    k2 = g @ (y + 0.5 * h * k1)
    k3 = g @ (y + 0.5 * h * k2)
    k4 = g @ (y + h * k3)
    return vector_to_field(
        y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), propagator.truncation
    )


def heat_zero_mode(
    profiles: tuple[FourierSeries, FourierSeries, FourierSeries], t: float
) -> tuple[FourierSeries, FourierSeries, FourierSeries]:
    """Closed-form heat flow of the horizontally averaged field.

    Each vertical coefficient n is damped by exp(-4 pi^2 n^2 t).
    """
    out = []
    for p in profiles:
        n = np.arange(-p.truncation, p.truncation + 1)
        out.append(FourierSeries(p.coeffs * np.exp(-4 * np.pi**2 * n**2 * t)))
    return tuple(out)


# ----------------------------------------------------------------------
# multi-mode simulation state
# ----------------------------------------------------------------------


def random_mode_field(
    truncation: int, rng: np.random.Generator, decay: float = 2.0
) -> ModeField:
    """Random complex field with coefficient decay (1+|n|)^-decay."""
    n = np.arange(-truncation, truncation + 1)
    weight = (1.0 + np.abs(n)) ** (-decay)
    coeffs = weight * (
        rng.standard_normal((3, n.size)) + 1j * rng.standard_normal((3, n.size))
    )
    return ModeField(*(FourierSeries(row) for row in coeffs))


def random_zero_mode(
    truncation: int, rng: np.random.Generator, decay: float = 2.0
) -> tuple[FourierSeries, FourierSeries, FourierSeries]:
    """Random real zero-mean horizontal profiles for the averaged field.

    The vertical component is identically zero: the horizontal average of a
    divergence-free field has constant third component, and zero vertical
    mean forces that constant to vanish.
    """
    out = []
    for _ in range(2):
        coeffs = np.zeros(2 * truncation + 1, dtype=np.complex128)
        for n in range(1, truncation + 1):
            c = (1.0 + n) ** (-decay) * (rng.standard_normal() + 1j * rng.standard_normal())
            coeffs[truncation + n] = c
            coeffs[truncation - n] = np.conj(c)
        out.append(FourierSeries(coeffs))
    out.append(FourierSeries.zeros(truncation))
    return tuple(out)


@dataclass(eq=False)
class SimulationState:
    """Evolving collection of horizontal modes plus the averaged profile.

    diagnostics_log rows: (t, energy, grad_energy, taylor_max, div_max).
    mode_rows: per-mode diagnostics
    (t, mode_index, energy, grad_energy, taylor_res, div_res, power).
    initial_modes / initial_zero_mode: the data at t = 0.
    propagators: the per-mode propagators that advanced the modes.
    """

    background: BackgroundField
    time: float
    modes: dict
    zero_mode: tuple
    diagnostics_log: list = field(default_factory=list)
    mode_rows: list = field(default_factory=list)
    initial_modes: dict = field(default_factory=dict)
    initial_zero_mode: tuple = ()
    propagators: dict = field(default_factory=dict)

    def energy(self) -> float:
        total = sum(b.norm() ** 2 for b in self.modes.values())
        total += sum(p.norm() ** 2 for p in self.zero_mode)
        return float(total)


def initial_state(
    bg: BackgroundField,
    lattice_modes: list,
    truncation: int,
    seed: int = 0,
    with_zero_mode: bool = True,
) -> SimulationState:
    """Constrained random initial data with recorded seed."""
    rng = np.random.default_rng(seed)
    modes = {}
    for key in lattice_modes:
        ctx = lattice_mode_context(bg, key)
        raw = random_mode_field(truncation, rng)
        modes[tuple(key)] = project_constraints(ctx, raw)
    if with_zero_mode:
        zero = random_zero_mode(truncation, rng)
    else:
        zero = tuple(FourierSeries.zeros(truncation) for _ in range(3))
    return SimulationState(
        background=bg,
        time=0.0,
        modes=modes,
        zero_mode=zero,
        initial_modes=dict(modes),
        initial_zero_mode=zero,
    )


def _log_state(state: SimulationState, contexts: dict, t: float,
               include_geostrophic: bool) -> None:
    taylor_max = 0.0
    div_max = 0.0
    grad_total = sum(p.derivative().norm() ** 2 for p in state.zero_mode)
    for idx, (key, b) in enumerate(state.modes.items()):
        ctx = contexts[key]
        r_perp, r_3 = taylor_residual(ctx, b)
        tay = max(abs(r_perp), abs(r_3))
        div = divergence_residual(ctx, b)
        grad = grad_energy(ctx, b)
        power = induction_power(ctx, b, include_geostrophic=include_geostrophic)
        state.mode_rows.append(
            (t, idx, float(b.norm() ** 2), grad, float(tay), float(div), power)
        )
        taylor_max = max(taylor_max, tay)
        div_max = max(div_max, div)
        grad_total += grad
    state.diagnostics_log.append(
        (t, state.energy(), float(grad_total), float(taylor_max), float(div_max))
    )


def run_evolution(
    bg: BackgroundField,
    lattice_modes: list,
    t_final: float,
    output_step: float,
    truncation: int = 64,
    seed: int = 0,
    include_geostrophic: bool = True,
    with_zero_mode: bool = True,
    jobs: int = 1,
) -> SimulationState:
    """Propagate constrained random data and log diagnostics at each output time.

    Modes evolve independently (optionally in a thread pool); aggregation
    order follows the input mode list, so results are deterministic for a
    fixed seed regardless of the jobs count.
    """
    state = initial_state(bg, lattice_modes, truncation, seed, with_zero_mode)
    contexts = {tuple(k): lattice_mode_context(bg, k) for k in lattice_modes}

    def make_propagator(key):
        return build_propagator(
            contexts[key], truncation, include_geostrophic=include_geostrophic
        )

    keys = list(state.modes.keys())
    if jobs > 1 and len(keys) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            propagators = dict(zip(keys, pool.map(make_propagator, keys)))
    else:
        propagators = {key: make_propagator(key) for key in keys}

    state.propagators = propagators

    n_steps = int(round(t_final / output_step))
    _log_state(state, contexts, 0.0, include_geostrophic)
    for k in range(1, n_steps + 1):
        t = k * output_step

        def advance(key):
            return step(propagators[key], state.modes[key], output_step)

        if jobs > 1 and len(keys) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                advanced = list(pool.map(advance, keys))
        else:
            advanced = [advance(key) for key in keys]
        for key, b in zip(keys, advanced):
            state.modes[key] = b
        state.zero_mode = heat_zero_mode(state.initial_zero_mode, t)
        state.time = t
        _log_state(state, contexts, t, include_geostrophic)
    return state


# ----------------------------------------------------------------------
# abscissa sweep and physical-space assembly
# ----------------------------------------------------------------------


def abscissa_sweep(
    bg: BackgroundField,
    lattice_modes: list,
    truncation: int = 64,
    include_geostrophic: bool = True,
) -> list:
    """Rows (|xi|, restricted abscissa, unconstrained abscissa) per mode.

    The restricted abscissa governs constrained data; uniform boundedness
    across |xi| is the computational signature of well-posedness, while
    the unconstrained column shows what the raw generator would allow.
    """
    rows = []
    for key in lattice_modes:
        ctx = lattice_mode_context(bg, key)
        gen = assemble_matrix(
            lambda b: full_induction(
                ctx, b, include_geostrophic=include_geostrophic,
                out_truncation=truncation,
            ),
            truncation,
        )
        basis = constraint_null_basis(ctx, truncation)
        compressed = basis.conj().T @ gen.entries @ basis
        restricted = float(np.linalg.eigvals(compressed).real.max())
        unconstrained = float(np.linalg.eigvals(gen.entries).real.max())
        rows.append((float(ctx.xi_norm), restricted, unconstrained))
    return rows


def _conjugate_symmetric(modes: dict, zero_mode: tuple) -> bool:
    if any(not p.is_real() for p in zero_mode):
        return False
    for key, b in modes.items():
        partner_key = (-key[0], -key[1])
        if partner_key not in modes:
            return False
        partner = modes[partner_key]
        for mine, theirs in zip(b.components, partner.components):
            scale = max(mine.norm(), 1e-300)
            if np.linalg.norm(theirs.coeffs - np.conj(mine.coeffs[::-1])) > 1e-10 * scale:
                return False
    return True


def assemble_full_field(
    state: SimulationState,
    horizontal_points: int | None = None,
    vertical_points: int | None = None,
) -> np.ndarray:
    """Physical-space snapshot on a regular 3-torus grid.

    Returns an array of shape (nh, nh, nz, 3).  When the stored mode set
    is conjugate-symmetric the imaginary part cancels and a real array is
    returned; otherwise a NonConjugateModes warning is emitted and the
    complex sum is returned as-is.
    """
    max_m = max((max(abs(k[0]), abs(k[1])) for k in state.modes), default=0)
    nh = horizontal_points or max(4, 2 * max_m + 2)
    some_mode = next(iter(state.modes.values()), None)
    trunc = some_mode.truncation if some_mode is not None else state.zero_mode[0].truncation
    nz = vertical_points or 2 * trunc + 2

    x1 = np.arange(nh) / nh
    x2 = np.arange(nh) / nh
    z = np.arange(nz) / nz
    out = np.zeros((nh, nh, nz, 3), dtype=np.complex128)
    for comp in range(3):
        out[..., comp] += state.zero_mode[comp].evaluate(z)[None, None, :]
    for (m1, m2), b in state.modes.items():
        phase = np.exp(2j * np.pi * (m1 * x1[:, None] + m2 * x2[None, :]))
        for comp in range(3):
            profile = b.components[comp].evaluate(z)
            out[..., comp] += phase[:, :, None] * profile[None, None, :]

    if _conjugate_symmetric(state.modes, state.zero_mode):
        return np.ascontiguousarray(out.real)
    warnings.warn(
        "mode set is not conjugate-symmetric; snapshot stays complex",
        NonConjugateModes,
    )
    return out
