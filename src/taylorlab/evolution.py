"""Exact time propagation of the per-mode induction system.

The generator G of each horizontal mode is autonomous, so propagation is
by matrix exponential rather than time stepping.  Every dense kernel runs
in the pair basis U of :class:`.operators.PairTransform`, where G is the
real R = U* G U and the constraint basis V has the real coordinates
C = U* V.  R and C are formed once per mode and split into coupled blocks
on their own exact nonzero patterns: at the canonical background the even
and the odd vertical wavenumbers, at a background with cosines only in B1
and sines only in B2 a split that the Fourier pattern does not show, and
one block where nothing splits.  Both spectral abscissas, the invariance
defect and one dense ``expm`` per block and step size (cached and reused)
are computed in real arithmetic on those blocks.  So is the exponentials'
eigendecomposition oracle, unless its eigenvectors are too ill conditioned
for the oracle's gate; then the mode falls back to complex ``eig`` of the
same blocks.  The zero horizontal mode decouples into a scalar heat
equation and is propagated in closed form.

Each mode assembles one generator, the one without the balancing
velocity; the balanced one is that plus a rank-3 correction
(:func:`lane_generators`).  The restricted abscissa factors each
compressed block C_k^T R_k C_k.  Where the flow keeps the constrained
subspace invariant, as the balancing velocity makes it, the unconstrained
abscissa is deflated by it: the spectrum of R_k is that of the compressed
block and of its compression to the orthogonal complement.  Where it does
not, the subspace is grown by the directions the coupling reaches, and
deflated by that when it is invariant: without the balancing velocity,
the divergence-free subspace.  The lanes of one mode in
:func:`abscissa_lanes` share the factorizations of bitwise equal blocks.

The scaling study (:mod:`.checks`) splits its compressions along
:func:`.operators.compression_blocks` instead, the complex Fourier
pattern plus the pairs n, -n: its norms do not depend on the basis, and
the real pattern splits its matrices finer for no gain (c2 at M = 64 takes
18 ms per eps point on 257 blocks, against 10 ms on 129).

Initial data are drawn with a fixed spectral decay and projected onto the
intersection of the divergence-free and averaged-momentum-balance
subspaces; the projection is realized by an orthonormal null-space basis
computed once per mode.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .background import BackgroundField, ModeContext, lattice_mode_context
from .errors import ConstraintDrift, IllConditioned, NonConjugateModes
from .fourier import FourierSeries, phases
from .operators import (
    ModeField,
    PairTransform,
    assemble_matrix,
    balancing_term,
    basis_blocks,
    constraint_null_basis,
    coupled_blocks,
    divergence_residual,
    field_to_vector,
    full_induction,
    square_blocks,
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
    sign claim is attached to this quantity; it is diagnostic only.  This is
    the functional route; :func:`run_evolution` logs the same quantity from
    each propagator's assembled generator.
    """
    lb = full_induction(ctx, b, include_geostrophic=include_geostrophic)
    return float(np.real(lb.inner(b.resample(lb.truncation))) + grad_energy(ctx, b))


# ----------------------------------------------------------------------
# per-mode propagator
# ----------------------------------------------------------------------


def _eigen_oracle(block: np.ndarray) -> tuple:
    """(w, V, V^-1, singular values of V) of one block.

    V^-1 is None where the block's own eigenvector condition already
    exceeds ``EXPM_ORACLE_CONDITION``: the check will not run, and V may be
    singular.
    """
    w, vecs = np.linalg.eig(block)
    sigma = np.linalg.svd(vecs, compute_uv=False)
    inverse = None
    if sigma[0] <= EXPM_ORACLE_CONDITION * sigma[-1]:
        inverse = np.linalg.solve(vecs, np.eye(len(w)))
    return w, vecs, inverse, sigma


def _condition(oracles) -> float:
    """Eigenvector condition of a block-diagonal matrix from its blocks'
    :func:`_eigen_oracle`: the largest singular value over all blocks by
    the smallest."""
    sigma = np.concatenate([oracle[3] for oracle in oracles])
    return sigma.max() / sigma.min() if sigma.min() > 0 else np.inf


def _oracle_error(out: np.ndarray, oracle: tuple, h: float, ord=None) -> float:
    """Norm ``ord`` (Frobenius by default) of expm's block ``out`` minus the
    oracle's V exp(h w) V^-1."""
    w, vecs, inverse, _ = oracle
    return np.linalg.norm(out - vecs @ (np.exp(h * w)[:, None] * inverse), ord)


def _checked_expm(blocks, oracles, h: float) -> tuple:
    """scipy expm of h times each block, cross-checked against eigendecompositions.

    ``oracles`` holds :func:`_eigen_oracle` of each block, in the block's
    basis, so the check costs no factorization for any h.  It may also be a
    function that returns them; it is called after the exponentials, so
    that expm's work arrays and the first factorizations are never alive at
    the same time.  The gate reads the quantities of the whole block-diagonal matrix: its
    eigenvector condition is the largest singular value over all blocks by
    the smallest, and the relative 2-norm error is the largest block error
    over the largest block norm.  The check runs only when that condition
    is affordable.

    Returns the exponentials, that condition, and the largest Frobenius
    block error, which is None where the check did not run.
    """
    # A local import on purpose, where the rest of the package imports at the
    # top: this is the package's only call into scipy, and only evolve
    # reaches it.  With numpy loaded, importing scipy.linalg costs 0.25-0.33 s
    # and about 22 MB of resident memory (2-vCPU Xeon, Python 3.11, scipy
    # 1.17), close to half of a cold spectral-check.  ``scipy.linalg.expm`` is
    # looked up on the module at each call, so a function rebound there is
    # the one that runs.
    import scipy.linalg

    outs = [scipy.linalg.expm(h * block) for block in blocks]
    if not all(np.all(np.isfinite(out)) for out in outs):
        raise IllConditioned("matrix exponential produced non-finite entries")
    if callable(oracles):
        oracles = oracles()
    cond = _condition(oracles)
    if not cond <= EXPM_ORACLE_CONDITION:
        return outs, cond, None
    checked = list(zip(outs, oracles))
    error = max(_oracle_error(out, oracle, h) for out, oracle in checked)
    # the 2-norm is at most the Frobenius norm and the denominator at least
    # 1, so block errors within the tolerance in the Frobenius norm pass
    # without the 2-norms' SVDs
    if error > EXPM_ORACLE_TOL:
        exact = max(_oracle_error(out, oracle, h, 2) for out, oracle in checked)
        rel = exact / max(1.0, max(np.linalg.norm(out, 2) for out in outs))
        if rel > EXPM_ORACLE_TOL:
            raise IllConditioned(
                f"exponential disagrees with eigendecomposition: {rel:.3e} "
                f"(eigenvector condition {cond:.2e})"
            )
    return outs, cond, error


def _real_blocks(pieces, imag: np.ndarray, blocks, what: str) -> tuple:
    """The blocks ``pieces`` of the real part of a matrix whose imaginary
    part has the largest entry ``imag`` in each row.

    A row's imaginary part may be at most dim * eps * max|entry| of its
    block, the size of the rounding the block was computed with; a larger
    one means the symmetry that makes the matrix real is broken, and raises.
    """
    out = []
    for idx, piece in zip(blocks, pieces):
        bound = len(idx) * np.finfo(float).eps * np.abs(piece).max(initial=0.0)
        worst = imag[idx].max()
        if worst > bound:
            raise IllConditioned(
                f"{what} is not real in the pair basis: imaginary part {worst:.3e} "
                f"exceeds {bound:.3e}"
            )
        out.append(piece)
    return tuple(out)


def _abscissa(mat: np.ndarray) -> float:
    """Largest real part of the spectrum of a real square matrix."""
    return float(np.linalg.eigvals(mat).real.max())


def _complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the orthonormal
    columns ``basis``: the trailing columns of its complete QR."""
    return np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1] :]


def _memo(cache: dict, fn, mat: np.ndarray):
    """fn(mat), stored in ``cache`` under fn and mat's exact dtype, shape and
    bytes, so a value is reused only for a bitwise equal matrix."""
    key = (fn, mat.dtype.str, mat.shape, mat.tobytes())
    if key not in cache:
        cache[key] = fn(mat)
    return cache[key]


@dataclass(frozen=True, eq=False)
class ModePropagator:
    """One mode's generator G and constraint basis V, with exp(h G) cached per h.

    Every dense kernel runs on the real R = U* G U and C = U* V, with U the
    unitary pair basis of :class:`PairTransform`, split into the blocks
    R_k and C_k of :attr:`blocks`.  exp(h G) is kept as the blocks'
    exponentials exp(h R_k) and applied by :meth:`propagate`.  The split and
    the quantities read from it are computed on first read, so a caller
    pays only for what it uses.

    ``oracle_margins`` holds, per h, how close the exponentials came to the
    oracle's gates: (route, eigenvector condition, whether the cross-check
    ran, its largest Frobenius block error or None), with route "real" or
    "complex" as :attr:`_oracles` chose.

    ``block_cache`` holds the abscissas and complements computed from
    single blocks, keyed on the exact bytes of the block they were computed
    from (:func:`_memo`).  Propagators of one mode that share a constraint
    basis may share it: :func:`abscissa_lanes` passes one dict to both
    lanes, so a compressed block that the lanes hold bitwise equal is
    factored once.
    """

    ctx: ModeContext
    generator: np.ndarray
    constraint_basis: np.ndarray
    propagator_cache: dict = field(default_factory=dict)
    oracle_margins: dict = field(default_factory=dict)
    block_cache: dict = field(default_factory=dict)

    @property
    def truncation(self) -> int:
        return (len(self.generator) // 3 - 1) // 2

    @functools.cached_property
    def _pair_blocks(self) -> tuple:
        """(blocks, the nonzeros of each R_k as flat indices and values).

        R and C are formed one component's rows at a time into real arrays
        (:meth:`PairTransform.pair_form`); only the nonzeros of the blocks
        R_k are kept, 4-9% of their entries at the canonical background.
        Dropping R's imaginary part is checked per block by
        :func:`_real_blocks`: G commutes with J, so R is real up to roundoff.
        """
        pairs = PairTransform(self.truncation)
        r, r_imag = pairs.pair_form(self.generator)
        c, _ = pairs.pair_form(self.constraint_basis, square=False)
        blocks = coupled_blocks(r, c.T != 0)
        gens = _real_blocks(square_blocks(r, blocks), r_imag, blocks, "generator")
        return blocks, tuple((np.flatnonzero(g), g[g != 0]) for g in gens)

    def _pair_generators(self):
        """R_k per block, each made dense as it is reached, so one is alive at
        a time."""
        for idx, (flat, values) in zip(self.blocks, self._pair_blocks[1]):
            r = np.zeros((len(idx), len(idx)))
            r.flat[flat] = values
            yield r

    @property
    def blocks(self) -> tuple:
        """Index sets of the unknowns coupled by a nonzero of R or by a column
        of C, in the index order of the pair basis.

        At the canonical background these are the even and the odd vertical
        wavenumbers.  A background with cosines only in B1 and sines only in
        B2, such as [[1,1,1],[2,-2,1]], splits further in the pair basis, where
        its Fourier pattern does not; a background that mixes the two in one
        component gives one block.  The scaling study keeps the coarser
        Fourier split of :func:`.operators.compression_blocks` (see the
        module docstring).
        """
        return self._pair_blocks[0]

    @functools.cached_property
    def _basis_blocks(self) -> tuple:
        """C_k per block.  Only the compressed quantities read them, so C is
        formed again here (0.5 ms at M = 64) rather than kept from
        :attr:`_pair_blocks`: evolve holds no C_k.  V's columns are fixed by
        J, so C is real up to roundoff."""
        c, c_imag = PairTransform(self.truncation).pair_form(
            self.constraint_basis, square=False
        )
        return _real_blocks(basis_blocks(c, self.blocks), c_imag, self.blocks, "constraint basis")

    @functools.cached_property
    def compressed_blocks(self) -> tuple:
        """C_k^T R_k C_k per block, real: up to a permutation, V* G V = C^T R C
        is their direct sum."""
        return tuple(c.T @ r @ c for r, c in zip(self._pair_generators(), self._basis_blocks))

    @functools.cached_property
    def _restricted_by_block(self) -> tuple:
        """The abscissa of each compressed block C_k^T R_k C_k, read by both
        abscissas."""
        return tuple(_memo(self.block_cache, _abscissa, c) for c in self.compressed_blocks)

    @functools.cached_property
    def restricted_abscissa(self) -> float:
        """Largest real part of the spectrum of the compressed generator."""
        return max(self._restricted_by_block)

    @functools.cached_property
    def unconstrained_abscissa(self) -> float:
        """Largest real part of the spectrum of G itself, the largest over
        the blocks R_k.

        Let W_k be the orthonormal complement of C_k.  Where R_k keeps the
        span of C_k invariant, R_k is block upper triangular in the basis
        [C_k, W_k], so its spectrum is that of C_k^T R_k C_k and of
        W_k^T R_k W_k (deflation by an invariant subspace; Golub and Van
        Loan, Matrix Computations, 7.1 and 7.6): the block's abscissa is
        the larger of its restricted abscissa and the complement's.  The
        span counts as invariant when max|W_k^T R_k C_k| is at most
        n_k * eps * max|R_k|, the rounding scale of :func:`_real_blocks`.

        Where it is not, C_k is grown by t = W_k u, u the left singular
        vectors of the coupling W_k^T R_k C_k over singular values above
        the same bound.  If the span of [C_k, t] passes the same test
        against its complement W_k u' (the other left singular vectors),
        the block's abscissa is the larger of the abscissas of the two
        compressions.  Only a block that fails both tests is factored
        whole.
        """
        pieces = zip(self._pair_generators(), self._basis_blocks, self._restricted_by_block)
        return max(self._block_abscissa(r, c, restricted) for r, c, restricted in pieces)

    def _block_abscissa(self, r: np.ndarray, c: np.ndarray, restricted: float) -> float:
        """The abscissa of R_k, given C_k and its restricted abscissa (see
        :attr:`unconstrained_abscissa`)."""
        w = _memo(self.block_cache, _complement, c)
        if not w.shape[1]:
            return restricted
        w_r = w.T @ r
        bound = len(r) * np.finfo(float).eps * np.abs(r).max()
        coupling = w_r @ c
        if np.abs(coupling).max(initial=0.0) <= bound:
            return max(restricted, _memo(self.block_cache, _abscissa, w_r @ w))
        # grow C_k by the directions of W_k that R_k C_k reaches
        left, sigma, _ = np.linalg.svd(coupling)
        rank = np.count_nonzero(sigma > bound)
        grown = np.hstack([c, w @ left[:, :rank]])
        rest = w @ left[:, rank:]
        r_grown = r @ grown
        if np.abs(rest.T @ r_grown).max(initial=0.0) > bound:
            return _memo(self.block_cache, _abscissa, r)
        return max(
            _memo(self.block_cache, _abscissa, grown.T @ r_grown),
            _memo(self.block_cache, _abscissa, rest.T @ r @ rest),
        )

    @functools.cached_property
    def constraint_invariance_defect(self) -> float:
        """||(Id - P) G P||, zero when the flow keeps constrained fields
        constrained; U is unitary, so it is the largest ||R_k C_k - C_k (C_k^T
        R_k C_k)||."""
        pieces = zip(self._pair_generators(), self._basis_blocks, self.compressed_blocks)
        return max(
            float(np.linalg.norm(r @ c - c @ compressed, 2)) for r, c, compressed in pieces
        )

    @functools.cached_property
    def _oracles(self) -> tuple:
        """(route, the expm oracle of each R_k), shared by every h.

        The "real" route factors each R_k with real ``eig``.  Inside the
        generator's degenerate eigenspaces real ``eig`` may pick a badly
        conditioned basis.  Where the gate's condition over the whole mode
        (the largest singular value of any block's eigenvectors by the
        smallest) exceeds ``EXPM_ORACLE_CONDITION``, the mode takes the
        "complex" route instead: complex ``eig`` of the same R_k, which picks
        its own basis.  The mode decides as a whole, as the gate reads it:
        ``eig``'s columns have unit norm, so a block's largest singular value
        can reach sqrt(n_k), and blocks mixed from the two routes could fail
        the gate where one route alone passes.
        """
        real = tuple(_eigen_oracle(r) for r in self._pair_generators())
        if _condition(real) <= EXPM_ORACLE_CONDITION:
            return "real", real
        del real
        return "complex", tuple(
            _eigen_oracle(r.astype(np.complex128)) for r in self._pair_generators()
        )

    def exponential(self, h: float) -> tuple:
        """exp(h R_k) per block, in the pair basis; cached per h.

        For h > 0 each is computed and stored real.  Backward flow (h < 0,
        which only the tests use) exponentiates the same R_k in complex
        dtype: there scipy's real-dtype ``expm`` loses digits (2.0e-12
        against 1.3e-13 relative 2-norm from the whole-matrix complex route
        at M = 8, h = -0.125).
        """
        key = float(h)
        if key not in self.propagator_cache:
            blocks = self._pair_generators()
            if key < 0:
                blocks = (r.astype(np.complex128) for r in blocks)
            outs, cond, error = _checked_expm(blocks, lambda: self._oracles[1], key)
            self.propagator_cache[key] = tuple(outs)
            self.oracle_margins[key] = (self._oracles[0], cond, error is not None, error)
        return self.propagator_cache[key]

    def propagate(self, x: np.ndarray, h: float) -> np.ndarray:
        """exp(h G) x, for stacked coefficient vectors x along the first axis.

        x is lowered to y = U* x once, each block of y is multiplied by its
        exponential, and the result is lifted by U once.  A real exponential
        acts on the real and imaginary parts of its block of y as the columns
        of one real product.
        """
        pairs = PairTransform(self.truncation)
        y = pairs.lower(x.reshape(len(x), -1))
        for idx, block in zip(self.blocks, self.exponential(h)):
            if np.isrealobj(block):
                y[idx] = (block @ y[idx].view(np.float64)).view(np.complex128)
            else:
                y[idx] = block @ y[idx]
        return pairs.lift(y).reshape(x.shape)


def lane_generators(ctx: ModeContext, truncation: int, lanes: tuple) -> tuple:
    """The generator of each ``include_geostrophic`` in ``lanes``, from one
    assembly.

    G_off, the induction plus diffusion without the balancing velocity, is
    assembled; G_on is G_off plus :func:`.operators.balancing_term` of
    G_off's columns, taken as one block of fields.  Every column of the
    assembly is a right-hand side g, so this is bitwise the matrix that
    assembling ``full_induction`` with the balancing velocity gives.
    """
    off = assemble_matrix(
        lambda b: full_induction(ctx, b, include_geostrophic=False), truncation
    )
    on = None
    if any(lanes):
        on = off + field_to_vector(balancing_term(ctx, vector_to_field(off, truncation)))
        on.setflags(write=False)
    return tuple(on if lane else off for lane in lanes)


def build_propagator(
    ctx: ModeContext,
    truncation: int,
    include_geostrophic: bool = True,
    basis: np.ndarray | None = None,
) -> ModePropagator:
    """Assemble the full per-mode generator (induction plus diffusion, see
    :func:`lane_generators`) and the constraint basis.

    The restricted abscissa is the largest real part of the generator
    compressed to the constrained subspace; the invariance defect
    ||(Id - P) G P|| is recorded rather than enforced so that runs with
    the balancing velocity disabled remain expressible.  Both are computed
    when first read.  ``basis`` is this mode's constraint basis at this
    truncation, when the caller holds it already.
    """
    (gen,) = lane_generators(ctx, truncation, (include_geostrophic,))
    if basis is None:
        basis = constraint_null_basis(ctx, truncation)
    return ModePropagator(ctx=ctx, generator=gen, constraint_basis=basis)


def step(propagator: ModePropagator, b: ModeField, h: float) -> ModeField:
    """Advance one mode by the exact flow over a time h."""
    vec = field_to_vector(b.resample(propagator.truncation))
    out = vector_to_field(propagator.propagate(vec, h), propagator.truncation)
    r_perp, r_3 = taylor_residual(propagator.ctx, out)
    worst = max(abs(r_perp), abs(r_3), divergence_residual(propagator.ctx, out))
    if worst > STEP_RESIDUAL_LIMIT:
        raise ConstraintDrift(
            f"constraint residual {worst:.3e} after step h={h} "
            "(generator assembly or initial data are inconsistent)"
        )
    return out


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
    bases: dict | None = None,
) -> SimulationState:
    """Constrained random initial data with recorded seed.

    ``bases`` maps a mode key to its constraint basis at this truncation
    (as a propagator holds it); modes without one factorize their own.
    """
    rng = np.random.default_rng(seed)
    bases = bases or {}
    modes = {}
    for key in lattice_modes:
        key = tuple(key)
        ctx = lattice_mode_context(bg, key)
        raw = random_mode_field(truncation, rng)
        modes[key] = project_constraints(ctx, raw, bases.get(key))
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


def _log_state(state: SimulationState, contexts: dict, t: float) -> None:
    """Append the diagnostics at time t; each mode's power is Re <G b, b> plus
    its dissipation, with G the generator of its propagator."""
    taylor_max = 0.0
    div_max = 0.0
    grad_total = sum(p.derivative().norm() ** 2 for p in state.zero_mode)
    for idx, (key, b) in enumerate(state.modes.items()):
        ctx = contexts[key]
        r_perp, r_3 = taylor_residual(ctx, b)
        tay = max(abs(r_perp), abs(r_3))
        div = divergence_residual(ctx, b)
        grad = grad_energy(ctx, b)
        vec = field_to_vector(b)
        gen = state.propagators[key].generator
        power = float(np.vdot(vec, gen @ vec).real) + grad
        state.mode_rows.append(
            (t, idx, float(b.norm() ** 2), grad, float(tay), float(div), power)
        )
        taylor_max = max(taylor_max, tay)
        div_max = max(div_max, div)
        grad_total += grad
    state.diagnostics_log.append(
        (t, state.energy(), float(grad_total), float(taylor_max), float(div_max))
    )


@contextmanager
def thread_map(jobs: int, n_items: int):
    """Yield the ``map`` for ``n_items`` independent items: a thread pool's
    when ``jobs > 1`` and there is more than one item, else the builtin."""
    if jobs > 1 and n_items > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            yield pool.map
    else:
        yield map


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

    Modes evolve independently; with ``jobs > 1`` one thread pool builds
    their propagators and advances them at every output step.  Aggregation
    order follows the input mode list, so results are deterministic for a
    fixed seed regardless of the jobs count.
    """
    contexts = {tuple(k): lattice_mode_context(bg, k) for k in lattice_modes}

    def make_propagator(key):
        return build_propagator(
            contexts[key], truncation, include_geostrophic=include_geostrophic
        )

    keys = list(contexts)
    with thread_map(jobs, len(keys)) as each:
        propagators = dict(zip(keys, each(make_propagator, keys)))

        bases = {key: prop.constraint_basis for key, prop in propagators.items()}
        state = initial_state(bg, lattice_modes, truncation, seed, with_zero_mode, bases)
        state.propagators = propagators

        def advance(key):
            return step(propagators[key], state.modes[key], output_step)

        n_steps = int(round(t_final / output_step))
        _log_state(state, contexts, 0.0)
        for k in range(1, n_steps + 1):
            t = k * output_step
            for key, b in zip(keys, list(each(advance, keys))):
                state.modes[key] = b
            state.zero_mode = heat_zero_mode(state.initial_zero_mode, t)
            state.time = t
            _log_state(state, contexts, t)
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
    (rows,) = abscissa_lanes(bg, lattice_modes, truncation, (include_geostrophic,))
    return rows


def abscissa_lanes(
    bg: BackgroundField,
    lattice_modes: list,
    truncation: int = 64,
    lanes: tuple = (True, False),
    jobs: int = 1,
) -> list:
    """:func:`abscissa_sweep` rows for each ``include_geostrophic`` in ``lanes``.

    Each mode assembles once (:func:`lane_generators`) and factors its
    constraint basis once, which does not depend on the lane, and builds
    its lanes' propagators from them, one after the other; a mode is
    finished before the next one starts.  The lanes also share
    one :attr:`ModePropagator.block_cache`, which lives for the mode: at
    the canonical background the balancing velocity's rows vanish in C, so
    every compressed block is bitwise equal in the two lanes and factored
    once, and so is each block's complement W_k.  With ``jobs > 1`` the
    modes are mapped over a thread pool; rows keep the input order.
    """

    def mode_rows(key):
        ctx = lattice_mode_context(bg, key)
        basis = constraint_null_basis(ctx, truncation)
        shared = {}
        rows = []
        for gen in lane_generators(ctx, truncation, lanes):
            prop = ModePropagator(ctx=ctx, generator=gen, constraint_basis=basis, block_cache=shared)
            rows.append((float(ctx.xi_norm), prop.restricted_abscissa, prop.unconstrained_abscissa))
        return rows

    with thread_map(jobs, len(lattice_modes)) as each:
        per_mode = list(each(mode_rows, lattice_modes))
    return [list(rows) for rows in zip(*per_mode)]


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
    vertical = {}  # the phase matrix at z of each window, formed once

    def profile(series: FourierSeries) -> np.ndarray:
        if series.truncation not in vertical:
            vertical[series.truncation] = phases(z, series.truncation)
        return vertical[series.truncation] @ series.coeffs

    out = np.zeros((nh, nh, nz, 3), dtype=np.complex128)
    for comp in range(3):
        out[..., comp] += profile(state.zero_mode[comp])[None, None, :]
    for (m1, m2), b in state.modes.items():
        phase = np.exp(2j * np.pi * (m1 * x1[:, None] + m2 * x2[None, :]))
        for comp in range(3):
            out[..., comp] += phase[:, :, None] * profile(b.components[comp])[None, None, :]

    if _conjugate_symmetric(state.modes, state.zero_mode):
        return np.ascontiguousarray(out.real)
    warnings.warn(
        "mode set is not conjugate-symmetric; snapshot stays complex",
        NonConjugateModes,
    )
    return out
