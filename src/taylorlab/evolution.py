"""Exact time propagation of the per-mode induction system.

The generator G of each horizontal mode is autonomous, so propagation is
by matrix exponential rather than time stepping.  Every dense kernel runs
in the pair basis U of :class:`.operators.PairTransform`, where G is the
real R = U* G U, and the constrained subspace and its complement have the
real orthonormal bases C and W of :func:`.operators.constraint_null_basis`.
R, C and W are split into coupled blocks R_k, C_k and W_k, all that a
:class:`ModePropagator` keeps, on their own exact nonzero patterns: at the
canonical background the even and the odd vertical wavenumbers, at a
background with cosines only in B1 and sines only in B2 a split that the
Fourier pattern does not show, and one block where nothing splits.  Both
spectral abscissas, one dense exponential per block and step size (cached
and reused) and the exponentials' eigendecomposition oracle are computed in
real arithmetic on those blocks; the oracle deflates each matrix's exact
kernel before real ``eig`` (:func:`_eigen_oracle`).  The exponential is
:func:`_expm`, scaling and squaring with the degree-13 Padé approximant in
numpy alone: the package does not load scipy.
The zero horizontal mode decouples into a scalar heat equation and is
propagated in closed form.

Each mode assembles one generator, the one without the balancing
velocity; the balanced one is that plus a rank-3 correction, nonzero only
in the rows of the background's window (:func:`lane_generators`).  Each
mode makes one pair form, whatever its lanes (:func:`build_propagator`):
R_off whole, and R_on as R_off with only those rows formed again.  Each
block is split once by the constrained subspace (:func:`_split`) for both
abscissas and the oracle: where R_k keeps the span of C_k invariant, as the
balancing velocity makes it, they factor A = C_k^T R_k C_k and
D = W_k^T R_k W_k.  Elsewhere they grow the span by the directions the
coupling reaches (without the balancing velocity, to the divergence-free
subspace) and factor its two compressions; a block that no span splits is
factored whole.  The lanes of one mode, built together by
:func:`build_propagator`, share the factorizations of bitwise equal
blocks.

The scaling study (:mod:`.checks`) splits its compressions along
:func:`.operators.compression_blocks` instead, the complex Fourier
pattern plus the pairs n, -n: its norms do not depend on the basis, and
the real pattern splits its matrices finer at a higher cost.

Initial data are drawn with a fixed spectral decay and projected onto the
intersection of the divergence-free and averaged-momentum-balance
subspaces by the basis U C, C the one its propagator is built from.  A run
keeps each mode in its pair coordinates y = U* x from its first step to its
last (:func:`run_evolution`): the blocks' exponentials advance y
(:meth:`ModePropagator.advance`), and the logged energy, seminorm and power
are read from stacked states and the blocks R_k, the two constraint
residuals from the lifted states (:meth:`ModePropagator.diagnostics`).
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .background import BackgroundField, ModeContext, lattice_mode_context
from .errors import IllConditioned
from .fourier import FourierSeries, phases
from .operators import (
    ModeField,
    PairTransform,
    _window,
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

# Random initial data have coefficients of size (1 + |n|)^-DECAY.
DECAY = 2.0


# ----------------------------------------------------------------------
# constraint projection
# ----------------------------------------------------------------------


def project_constraints(b: ModeField, basis: np.ndarray) -> ModeField:
    """L2-orthogonal projection onto the span of the orthonormal columns
    ``basis``, for b at their window.

    With U C, C of the mode's :func:`.operators.constraint_null_basis`,
    that span is the constrained subspace: the intersection of the
    divergence condition (one linear relation per vertical mode) with the
    two averaged balance relations.
    """
    vec = field_to_vector(b)
    # conj(vec* basis) is basis* vec without a conjugated copy of the basis
    return vector_to_field(basis @ (vec.conj() @ basis).conj())


# ----------------------------------------------------------------------
# per-mode propagator
# ----------------------------------------------------------------------


def _eigen_oracle(block: np.ndarray) -> tuple:
    """(w, V, V^-1, singular values of V) of one real block.

    The block's exact kernel is deflated first: inside it real ``eig`` may
    return nearly parallel or inaccurate eigenvectors.  Z is the block's
    right singular vectors whose singular values are at most
    :func:`_rounding_bound` of it, and Z' the rest, so that the block is
    [[0, Z^T block Z'], [0, D']] in [Z, Z'] with D' = Z'^T block Z'.  The
    kernel's eigenvectors are Z, and each eigenpair (mu, v) of D' lifts to
    the eigenvector Z' v + Z (Z^T block Z' v) / mu.  Where D' still has an
    eigenvalue within the bound, a defective zero as in a Jordan block, or
    the block has no kernel, the block is factored by plain ``eig``.

    V^-1 is None where the block's own eigenvector condition already
    exceeds ``EXPM_ORACLE_CONDITION``: the check will not run, and V may be
    singular.
    """
    bound = _rounding_bound(block)
    w = None
    if np.linalg.svd(block, compute_uv=False)[-1] <= bound:
        _, singular, vt = np.linalg.svd(block)
        z, rest = vt[singular <= bound].T, vt[singular > bound].T
        moved = block @ rest
        mu, v = np.linalg.eig(rest.T @ moved)
        if not np.any(np.abs(mu) <= bound):
            w = np.concatenate([np.zeros(z.shape[1]), mu])
            vecs = np.hstack([z, rest @ v + z @ ((z.T @ moved) @ v / mu)])
    if w is None:
        w, vecs = np.linalg.eig(block)
    sigma = np.linalg.svd(vecs, compute_uv=False)
    inverse = None
    if sigma[0] <= EXPM_ORACLE_CONDITION * sigma[-1]:
        inverse = np.linalg.solve(vecs, np.eye(len(w)))
    return w, vecs, inverse, sigma


class _Split(NamedTuple):
    """One block R_k split by an invariant span S that holds C_k (:func:`_split`).

    ``restricted`` is A = C_k^T R_k C_k, ``span`` S's orthonormal basis (C_k,
    or C_k grown; None where nothing splits), ``complement`` S's orthonormal
    complement, and ``diagonal`` the diagonal blocks of R_k in [S, complement],
    whose spectra together are R_k's: the whole R_k where nothing splits, and
    A alone where the complement is empty.
    """

    restricted: np.ndarray
    span: np.ndarray | None
    complement: np.ndarray | None
    diagonal: tuple


def _split(r: np.ndarray, c: np.ndarray, w: np.ndarray) -> _Split:
    """The :class:`_Split` of R_k: the one deflation rule, read by both
    abscissas and the expm oracle, which factors the same diagonal blocks.

    A span S is invariant under R_k when max|W'^T R_k S|, W' its complement,
    is at most :func:`_rounding_bound` of R_k; R_k is then block upper
    triangular in [S, W'] (Golub and Van Loan, Matrix Computations, 7.1 and
    7.6).  S is the span of C_k, with W' = W_k its orthonormal complement, or
    else C_k grown by W_k u, u the left singular vectors of the coupling
    W_k^T R_k C_k above the same bound.  The products (C_k^T R_k) C_k,
    (W_k^T R_k) C_k and (W_k^T R_k) W_k keep the bits of the abscissas.
    """
    a = c.T @ r @ c
    if not w.shape[1]:
        return _Split(a, c, w, (a,))
    bound = _rounding_bound(r)

    def invariant(coupling: np.ndarray) -> bool:
        return np.abs(coupling).max(initial=0.0) <= bound

    w_r = w.T @ r
    coupling = w_r @ c
    if invariant(coupling):
        return _Split(a, c, w, (a, w_r @ w))
    # grow C_k by the directions of W_k that R_k C_k reaches
    left, sigma, _ = np.linalg.svd(coupling)
    rank = np.count_nonzero(sigma > bound)
    grown = np.hstack([c, w @ left[:, :rank]])
    rest = w @ left[:, rank:]
    r_grown = r @ grown
    if not invariant(rest.T @ r_grown):
        return _Split(a, None, None, (r,))
    return _Split(a, grown, rest, (grown.T @ r_grown, rest.T @ r @ rest))


class _SplitOracle(NamedTuple):
    """The expm oracle of a block R_k on its :class:`_Split`.

    With Q = [S, W'], S the split's invariant span and W' its orthonormal
    complement, the block is T = Q^T R_k Q = [[A, B], [0, D]] up to
    roundoff, and ``top`` and ``bottom`` are :func:`_eigen_oracle` of the
    split's diagonal blocks A and D.  ``coupling`` is V_A^-1 B V_D, or None
    where either inverse is (the check will not run); ``basis`` is Q.
    """

    basis: np.ndarray
    top: tuple
    bottom: tuple
    coupling: np.ndarray | None

    @classmethod
    def factor(cls, r: np.ndarray, split: _Split) -> "_SplitOracle":
        """The oracle of R_k from its two-block :class:`_Split`; B = S^T R_k W'
        is formed only here."""
        top, bottom = (_eigen_oracle(d) for d in split.diagonal)
        coupling = None
        if top[2] is not None and bottom[2] is not None:
            coupling = top[2] @ (split.span.T @ r @ split.complement) @ bottom[1]
        return cls(np.hstack([split.span, split.complement]), top, bottom, coupling)

    def reference(self, h: float) -> np.ndarray:
        """exp(h T) by the eigendecompositions: [[exp(h A), X], [0, exp(h D)]].

        X = integral_0^h exp((h - s) A) B exp(s D) ds is V_A ((V_A^-1 B V_D)
        o F) V_D^-1, with F_ij = (e^{h l_i} - e^{h m_j}) / (l_i - m_j) for
        the eigenvalues l of A and m of D (Van Loan, IEEE TAC 1978; Higham,
        Functions of Matrices, 2008, ch. 3-4).  It is evaluated as
        h e^{h v} phi1(h (v' - v)), phi1(z) = expm1(z) / z and phi1(0) = 1,
        with v whichever of l_i, m_j has the larger real part of h times it
        and v' the other: exact at coincident eigenvalues with no threshold,
        and without overflow for strongly damped pairs.
        """
        w_a, v_a, inv_a, _ = self.top
        w_d, v_d, inv_d, _ = self.bottom
        hl, hm = h * w_a[:, None], h * w_d[None, :]
        e_a, e_d = np.exp(hl), np.exp(hm)
        lead = hl.real >= hm.real
        z = np.where(lead, hm - hl, hl - hm)
        phi = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0)
        f = h * np.where(lead, e_a, e_d) * phi
        upper = v_a @ np.hstack([e_a * inv_a, (self.coupling * f) @ inv_d])
        lower = v_d @ (e_d.T * inv_d)
        return np.block([[upper], [np.zeros((len(w_d), len(w_a))), lower]])


def _eigen_parts(oracle) -> tuple:
    """The :func:`_eigen_oracle` tuples one block's oracle is made of."""
    if isinstance(oracle, _SplitOracle):
        return oracle.top, oracle.bottom
    return (oracle,)


def _condition(oracles) -> float:
    """Eigenvector condition of a block-diagonal matrix from its blocks'
    oracles: the largest singular value over all their eigenvector matrices
    by the smallest."""
    sigma = np.concatenate([part[3] for oracle in oracles for part in _eigen_parts(oracle)])
    return sigma.max() / sigma.min() if sigma.min() > 0 else np.inf


def _oracle_error(out: np.ndarray, oracle, h: float, ord=None) -> float:
    """Norm ``ord`` (Frobenius by default) of expm's block ``out`` minus the
    oracle's exponential: V exp(h w) V^-1 for a whole block, and for a
    :class:`_SplitOracle` Q^T out Q minus its reference, which sees the
    lower-left block too.  Q is orthogonal, so both norms are those of out
    minus the reference taken back to the block's basis."""
    if isinstance(oracle, _SplitOracle):
        q = oracle.basis
        return np.linalg.norm(q.T @ out @ q - oracle.reference(h), ord)
    w, vecs, inverse, _ = oracle
    return np.linalg.norm(out - vecs @ (np.exp(h * w)[:, None] * inverse), ord)


# The degree-13 Padé approximant's coefficients b_0..b_13, its scaled-norm
# bound theta_13, and |c_27|^-1, the reciprocal of the leading coefficient of
# its backward error series (Higham, SIAM J. Matrix Anal. Appl. 26, 2005,
# (2.2), (2.6) and table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 4.25
_C13 = 1.1325077560602111e35

# Entries below this are set to zero before each squaring: the product of
# two entries at or above it is a normal number.
_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def _onenorm(a: np.ndarray) -> float:
    """The 1-norm, the largest absolute column sum."""
    return float(np.abs(a).sum(axis=0).max(initial=0.0))


def _extra_squarings(b: np.ndarray) -> int:
    """ell(B, 13) of Al-Mohy and Higham (SIAM J. Matrix Anal. Appl. 31, 2009,
    (5.1)): the squarings to add where the backward error bound of B, read
    from ||B||_1 and the exact ||abs(B)^27||_1, exceeds the unit roundoff."""
    abs_b = np.abs(b)
    v = np.ones(len(b))
    for _ in range(27):
        v = v @ abs_b
    power = float(v.max(initial=0.0))
    if not power:
        return 0
    alpha = power / (_onenorm(b) * _C13)
    if not np.isfinite(alpha):
        raise IllConditioned("matrix exponential: the scaled matrix's powers overflow")
    return max(int(np.ceil(np.log2(alpha / 2.0**-53) / 26)), 0)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a real square matrix by scaling and squaring with the
    degree-13 Padé approximant (Higham, 2005; Al-Mohy and Higham, 2009), the
    rule of scipy's ``sparse.linalg.expm`` with exact 1-norms.

    The squarings s are the fewest that bring eta = min(max(d6, d8), max(d8,
    d10)), d_k = ||a^k||_1^(1/k), to at most theta_13, plus
    :func:`_extra_squarings` of the scaled matrix B = 2^-s a.  The
    approximant r_13(B) = (V - U)^-1 (V + U) is evaluated as I + 2 (V -
    U)^-1 U, which keeps the solve's rounding off the identity, and squared
    s times.  A matrix with an inf or NaN entry, or whose powers overflow,
    raises :class:`IllConditioned`.

    Each generator is strongly damped, so the last squarings' products
    underflow, and subnormal arithmetic costs far more than normal.  Before
    each squaring the entries below :data:`_FLOOR`, sqrt of the smallest
    normal number, are set to zero, so no product of two entries is
    subnormal.  That moves the square of x by less than n * _FLOOR *
    max|x|, and it holds in every BLAS thread and on every machine.
    """
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d6, d8, d10 = (
        _onenorm(power) ** (1 / k) for k, power in ((6, a6), (8, a4 @ a4), (10, a4 @ a6))
    )
    eta = min(max(d6, d8), max(d8, d10))
    if not np.isfinite(eta):
        raise IllConditioned("matrix exponential of a matrix with non-finite powers")
    s = max(int(np.ceil(np.log2(eta / _THETA13))), 0) if eta else 0
    s += _extra_squarings(a * 2.0**-s)
    b = _PADE13
    b1, b2, b4, b6 = (power * 2.0 ** (-k * s) for k, power in ((1, a), (2, a2), (4, a4), (6, a6)))
    u = b1 @ (
        b6 @ (b[13] * b6 + b[11] * b4 + b[9] * b2)
        + b[7] * b6 + b[5] * b4 + b[3] * b2 + b[1] * ident
    )
    v = (
        b6 @ (b[12] * b6 + b[10] * b4 + b[8] * b2)
        + b[6] * b6 + b[4] * b4 + b[2] * b2 + b[0] * ident
    )
    x = ident + 2 * np.linalg.solve(v - u, u)
    for _ in range(s):
        x[np.abs(x) < _FLOOR] = 0.0
        x = x @ x
    return x


def _checked_expm(blocks, oracles, h: float) -> tuple:
    """:func:`_expm` of h times each block, cross-checked against
    eigendecompositions.

    Only :func:`_expm` floors its squarings; the oracle runs unfloored and
    checks each result independently.  ``_expm`` is looked up at each call,
    so a function rebound on the module is the one that runs.

    ``oracles`` is a function that returns each block's oracle, factored
    once for every h: :func:`_eigen_oracle` of the whole block, or a
    :class:`_SplitOracle` of its invariant split.  It is called after the
    exponentials, so that expm's work arrays and the first factorizations
    are never alive at the same time.  The gate reads the quantities of the
    whole block-diagonal matrix: its eigenvector condition is the largest
    singular value over every eigenvector matrix of the oracles (the whole
    blocks', and the split blocks' V_A and V_D) by the smallest, and the
    relative 2-norm error is the largest block error over the largest block
    norm.  The check runs only when that condition is affordable.

    Returns the exponentials, that condition, and the largest Frobenius
    block error, which is None where the check did not run.
    """
    outs = [_expm(h * block) for block in blocks]
    if not all(np.all(np.isfinite(out)) for out in outs):
        raise IllConditioned("matrix exponential produced non-finite entries")
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


def _rounding_bound(block: np.ndarray) -> float:
    """n * eps * max|entry| of a block of n rows: the size of the rounding
    it was computed with."""
    return len(block) * np.finfo(float).eps * np.abs(block).max(initial=0.0)


def _real_blocks(pieces, imag: np.ndarray, blocks) -> tuple:
    """The blocks ``pieces`` of the real part of a generator whose imaginary
    part has the largest entry ``imag`` in each row, made read-only.

    A row's imaginary part may be at most :func:`_rounding_bound` of its
    block; a larger one means the symmetry that makes the generator real is
    broken, and raises.
    """
    out = []
    for idx, piece in zip(blocks, pieces):
        bound = _rounding_bound(piece)
        worst = imag[idx].max()
        if worst > bound:
            raise IllConditioned(
                f"generator is not real in the pair basis: imaginary part {worst:.3e} "
                f"exceeds {bound:.3e}"
            )
        piece.setflags(write=False)
        out.append(piece)
    return tuple(out)


def _abscissa(mat: np.ndarray) -> float:
    """Largest real part of the spectrum of a real square matrix."""
    return float(np.linalg.eigvals(mat).real.max())


def _memo(cache: dict, fn, mat: np.ndarray):
    """fn(mat), stored in ``cache`` under fn and mat's exact dtype, shape and
    bytes, so a value is reused only for a bitwise equal matrix."""
    key = (fn, mat.dtype.str, mat.shape, mat.tobytes())
    if key not in cache:
        cache[key] = fn(mat)
    return cache[key]


@dataclass(frozen=True, eq=False)
class ModePropagator:
    """One mode's generator G and constrained subspace as their real
    pair-basis blocks, with exp(h G) cached per h.

    With U the unitary pair basis of :class:`PairTransform`, R = U* G U is
    real, and so are the orthonormal bases C and W of the constrained
    subspace and of its complement.  ``blocks`` holds the index sets of the
    unknowns coupled by a nonzero of R or by a column of C or W, in the
    index order of the pair basis; ``generators`` the dense read-only R_k,
    ``bases`` the C_k and ``complements`` the W_k of each block.  G is not
    kept: every kernel runs on the blocks, and exp(h G) is kept as the
    blocks' exponentials exp(h R_k), applied to pair coordinates y = U* x
    by :meth:`advance`; :meth:`diagnostics` reads a run's logged quantities
    from them.  Build one with :meth:`from_pair_forms`.

    At the canonical background the blocks are the even and the odd vertical
    wavenumbers.  A background with cosines only in B1 and sines only in
    B2, such as [[1,1,1],[2,-2,1]], splits further in the pair basis, where
    its Fourier pattern does not; a background that mixes the two in one
    component gives one block.  The scaling study keeps the coarser Fourier
    split of :func:`.operators.compression_blocks` (see the module
    docstring).

    ``oracle_margins`` holds, per h, how close the exponentials came to the
    oracle's gates: (eigenvector condition, whether the cross-check ran, its
    largest Frobenius block error or None).

    ``block_cache`` holds the abscissas computed from single blocks, keyed
    on the exact bytes of the block they were computed from (:func:`_memo`).
    The lanes of one mode share it (:func:`build_propagator`), so a
    compressed block that the lanes hold bitwise equal is factored once.
    Forming the expm oracle empties it.
    """

    ctx: ModeContext
    blocks: tuple
    generators: tuple
    bases: tuple
    complements: tuple
    block_cache: dict
    propagator_cache: dict = field(default_factory=dict)
    oracle_margins: dict = field(default_factory=dict)

    @classmethod
    def from_pair_forms(
        cls, ctx: ModeContext, generator: tuple, basis: tuple, block_cache: dict
    ) -> "ModePropagator":
        """The propagator of G, given as the pair form of R = U* G U
        (:meth:`PairTransform.pair_form`: the real part and the largest
        |imaginary part| in each row), on ``basis`` = (C, W) of
        :func:`.operators.constraint_null_basis`, with the ``block_cache``
        it shares with the other lanes of its mode.

        Dropping R's imaginary part is checked per block by
        :func:`_real_blocks`, which raises :class:`IllConditioned` here: G
        commutes with J, so R is real up to roundoff.  The blocks of a
        single-block C and W are C and W themselves, shared by the lanes.
        """
        r, r_imag = generator
        c, w = basis
        blocks = coupled_blocks(r, np.vstack([c.T, w.T]) != 0)
        return cls(
            ctx,
            blocks,
            _real_blocks(square_blocks(r, blocks), r_imag, blocks),
            tuple(basis_blocks(c, blocks)),
            tuple(basis_blocks(w, blocks)),
            block_cache,
        )

    @functools.cached_property
    def _splits(self) -> tuple:
        """The :func:`_split` of each block, read by both abscissas and the
        expm oracle, which drops them once it is formed."""
        return tuple(map(_split, self.generators, self.bases, self.complements))

    @functools.cached_property
    def restricted_abscissa(self) -> float:
        """Largest real part of the spectrum of the compressed generator
        V* G V = C^T R C, the direct sum of the blocks C_k^T R_k C_k."""
        return max(_memo(self.block_cache, _abscissa, s.restricted) for s in self._splits)

    @functools.cached_property
    def unconstrained_abscissa(self) -> float:
        """Largest real part of the spectrum of G itself, the largest over
        the blocks R_k.

        Each block's spectrum is that of the diagonal blocks of its
        :func:`_split`, the blocks the expm oracle factors: C_k^T R_k C_k,
        the restricted abscissa's own block, and W_k^T R_k W_k where R_k
        keeps the span of C_k invariant, the two compressions of the grown
        span where that is invariant instead, and the whole R_k only where
        neither is.
        """
        return max(
            _memo(self.block_cache, _abscissa, block)
            for split in self._splits
            for block in split.diagonal
        )

    @functools.cached_property
    def _oracles(self) -> tuple:
        """The expm oracle of each R_k, shared by every h.

        A block whose :func:`_split` has two diagonal blocks gets the
        :class:`_SplitOracle` of that split, on the very A and D (or the two
        compressions of the grown span) whose abscissas were taken; R_k is
        factored whole only where no span splits it or the complement of
        C_k is empty.  Each matrix is factored by :func:`_eigen_oracle`,
        which deflates its exact kernel.  The splits and :attr:`block_cache`
        are dropped here: nothing reads them again, so a mode that keeps its
        oracle holds only that.
        """
        pieces = list(zip(self.generators, self._splits))
        self.__dict__.pop("_splits")
        self.block_cache.clear()
        return tuple(
            _SplitOracle.factor(r, split) if len(split.diagonal) == 2 else _eigen_oracle(r)
            for r, split in pieces
        )

    def release_oracles(self) -> None:
        """Drop the expm oracle; an exponential at a new h factors it again."""
        self.__dict__.pop("_oracles", None)

    def exponential(self, h: float) -> tuple:
        """exp(h R_k) per block, real, in the pair basis; cached per h.

        The flow is a forward semigroup: backward diffusion is ill-posed, and
        h <= 0 raises ValueError.
        """
        key = float(h)
        if not key > 0:
            raise ValueError(f"the flow runs forward only: h = {key} must be positive")
        if key not in self.propagator_cache:
            outs, cond, error = _checked_expm(self.generators, lambda: self._oracles, key)
            self.propagator_cache[key] = tuple(outs)
            self.oracle_margins[key] = (cond, error is not None, error)
        return self.propagator_cache[key]

    def advance(self, y: np.ndarray, h: float) -> np.ndarray:
        """exp(h R) y: the exact flow over a time h of the fields x = U y
        whose pair coordinates are the complex columns of ``y``.

        Each block of y is multiplied by its exponential, with no lowering or
        lifting.  Each exponential is real, so it acts on the real and
        imaginary parts of its block of y as the columns of one real product.
        Nothing here checks that the result stays constrained: the flow
        without the balancing velocity drifts off the constrained subspace,
        and a run reports that as its residual gates.
        """
        out = np.empty_like(y)
        for idx, block in zip(self.blocks, self.exponential(h)):
            out[idx] = (block @ y[idx].view(np.float64)).view(np.complex128)
        return out

    def diagnostics(self, ys: np.ndarray) -> np.ndarray:
        """Rows (energy, squared H1 seminorm, Taylor residual, divergence
        residual, power) of the fields x = U y, y the complex columns of ``ys``.

        U is unitary and keeps |n|: the energy is sum |y|^2 and the seminorm
        sum (|xi|^2 + 4 pi^2 n^2) |y|^2.  The power is Re <x, G x> = Re y* R y,
        the sum of a^T R_k a + b^T R_k b over the blocks, a + ib = y_k, plus
        that dissipation.  The residuals are the functionals of
        :mod:`.operators` on the lifted columns as one block of fields (the
        larger Taylor residual in absolute value), so they do not read the
        basis C whose subspace they check.
        """
        pairs = PairTransform(_window(len(ys)))
        n = np.tile(np.arange(-pairs.truncation, pairs.truncation + 1), 3)
        squares = ys.real**2 + ys.imag**2
        grad = (self.ctx.xi_norm**2 + 4 * np.pi**2 * n**2) @ squares
        power = 0.0
        for idx, r in zip(self.blocks, self.generators):
            ab = ys[idx].view(np.float64)  # each field's columns a and b, side by side
            power += np.sum(ab * (r @ ab), axis=0).reshape(-1, 2).sum(axis=1)
        fields = vector_to_field(pairs.lift(ys))
        r_perp, r_3 = taylor_residual(self.ctx, fields)
        return np.array(
            [
                squares.sum(axis=0),
                grad,
                np.maximum(np.abs(r_perp), np.abs(r_3)),
                divergence_residual(self.ctx, fields),
                power + grad,
            ]
        )


def lane_generators(ctx: ModeContext, truncation: int, balanced: bool) -> tuple:
    """(G_off, (rows, G_on[rows]) where ``balanced``, else None), from one
    assembly.

    G_off, the induction plus diffusion without the balancing velocity, is
    assembled.  G_on is G_off with its rows |n| <= k of each component, k
    the background's window, replaced by those rows plus
    :func:`.operators.balancing_term` of G_off's columns, taken as one
    block of fields: the term reads g and vanishes at |n| > k.  Every
    column of the assembly is a right-hand side g, so G_on[rows] is bitwise
    those rows of the matrix that assembling ``full_induction`` with the
    balancing velocity gives.  Its other rows are G_off's; that assembly
    adds the term's padding zeros there, which differ from them only in
    the sign of zero entries (-0 + 0 = +0).
    """
    off = assemble_matrix(
        lambda b: full_induction(ctx, b, include_geostrophic=False), truncation
    )
    if not balanced:
        return off, None
    k = min(truncation, ctx.background.truncation)
    w = 2 * truncation + 1
    rows = np.concatenate([c * w + truncation + np.arange(-k, k + 1) for c in range(3)])
    on = off[rows] + field_to_vector(balancing_term(ctx, vector_to_field(off[rows])))
    return off, (rows, on)


def build_propagator(ctx: ModeContext, basis: tuple, lanes: tuple) -> tuple:
    """The propagator of the full per-mode generator (induction plus
    diffusion) for each ``include_geostrophic`` in ``lanes``, on the mode's
    constrained subspace ``basis`` = (C, W) of
    :func:`.operators.constraint_null_basis`, at its window.

    The lanes share C and W, and their generators come from one assembly
    (:func:`lane_generators`), pair-formed once: R_off = U* G_off U whole
    (:meth:`PairTransform.pair_form`), and R_on as R_off with only G_on's
    balancing rows formed again (:meth:`PairTransform.pair_form_rows`).  So
    no complex G_on is made.  On the tested grid R_on is bitwise the whole
    pair form of the balanced assembly, whose other rows differ from
    G_off's only in the sign of zeros (:func:`lane_generators`).

    The lanes share one :attr:`ModePropagator.block_cache`: at the
    canonical background the balancing velocity's rows vanish in C, so
    every compressed block is bitwise equal in the two lanes and factored
    once.  The restricted abscissa is the largest real part of the
    generator compressed to the constrained subspace, computed when first
    read.  The invariance of
    that subspace is not enforced, so that runs with the balancing velocity
    disabled remain expressible.
    """
    pairs = PairTransform(_window(len(basis[0])))
    # G_off stays alive to the return: freed before R_on was formed, it let
    # glibc trim the heap that the next arrays then faulted in again (at
    # M = 64, 2.2 times the page faults of a two-lane build)
    off, balanced = lane_generators(ctx, pairs.truncation, any(lanes))
    forms = {False: pairs.pair_form(off)}
    if balanced is not None:
        rows, on = balanced
        r, r_imag = (a.copy() for a in forms[False])
        r[rows], r_imag[rows] = pairs.pair_form_rows(on)
        forms[True] = r, r_imag
    shared = {}
    return tuple(ModePropagator.from_pair_forms(ctx, forms[lane], basis, shared) for lane in lanes)


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


def random_mode_field(truncation: int, rng: np.random.Generator) -> ModeField:
    """Random complex field with coefficient decay (1+|n|)^-DECAY."""
    n = np.arange(-truncation, truncation + 1)
    weight = (1.0 + np.abs(n)) ** (-DECAY)
    coeffs = weight * (
        rng.standard_normal((3, n.size)) + 1j * rng.standard_normal((3, n.size))
    )
    return ModeField(*(FourierSeries(row) for row in coeffs))


def random_zero_mode(
    truncation: int, rng: np.random.Generator
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
            c = (1.0 + n) ** (-DECAY) * (rng.standard_normal() + 1j * rng.standard_normal())
            coeffs[truncation + n] = c
            coeffs[truncation - n] = np.conj(c)
        out.append(FourierSeries(coeffs))
    out.append(FourierSeries.zeros(truncation))
    return tuple(out)


@dataclass(eq=False)
class SimulationState:
    """Evolving collection of horizontal modes plus the averaged profile.

    modes / zero_mode: the fields at ``time``, the end of a run.
    diagnostics_log rows: (t, energy, grad_energy, taylor_max, div_max).
    mode_rows: per-mode diagnostics
    (t, mode_index, energy, grad_energy, taylor_res, div_res, power), as
    :meth:`ModePropagator.diagnostics` reads them.
    initial_modes / initial_zero_mode: the data at t = 0.
    propagators: the per-mode propagators that advanced the modes.
    """

    time: float
    modes: dict
    zero_mode: tuple
    diagnostics_log: list = field(default_factory=list)
    mode_rows: list = field(default_factory=list)
    initial_modes: dict = field(default_factory=dict)
    initial_zero_mode: tuple = ()
    propagators: dict = field(default_factory=dict)


def initial_state(bases, seed: int) -> SimulationState:
    """Constrained random initial data with recorded seed.

    ``bases`` yields (mode key, constraint basis) pairs in the order of the
    modes, all at one window: every field is drawn at that window, and each
    mode's is projected by its basis.  A lazy ``bases`` need not keep the
    bases it has yielded.
    """
    rng = np.random.default_rng(seed)
    modes = {}
    for key, basis in bases:
        truncation = _window(len(basis))
        modes[key] = project_constraints(random_mode_field(truncation, rng), basis)
    zero = random_zero_mode(truncation, rng)
    return SimulationState(
        time=0.0,
        modes=modes,
        zero_mode=zero,
        initial_modes=dict(modes),
        initial_zero_mode=zero,
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


# Output times read out at once in a run: the readout's arrays stay this
# wide whatever the number of steps (unchunked, a 2,048-step run of one mode
# at M = 64 peaked at 110 MB).
READOUT_CHUNK = 64


def run_evolution(
    bg: BackgroundField,
    lattice_modes: list,
    t_final: float,
    output_step: float,
    truncation: int,
    seed: int,
    include_geostrophic: bool,
    jobs: int,
) -> SimulationState:
    """Propagate constrained random data and log diagnostics at each output time.

    Modes evolve independently, each in its pair coordinates y = U* x:
    lowered once, advanced at every output step, read out
    ``READOUT_CHUNK`` output times at a time and lifted once at the end.
    With ``jobs > 1`` one thread pool builds the propagators, then evolves
    whole modes; rows follow the input mode list, so results do not depend
    on the jobs count.  Each mode's constrained subspace is factored once:
    its propagator keeps C and W, and U C projects its initial data as the
    propagator is built.  Every mode but the first drops its expm oracle
    once it has evolved: only the first mode's is read again, by the
    semigroup check of :func:`.checks.run_evolve`.  The averaged field's
    rows come from :func:`_heat_diagnostics`, and :func:`heat_zero_mode`
    gives its final profiles.
    """
    contexts = {tuple(k): lattice_mode_context(bg, k) for k in lattice_modes}
    keys = list(contexts)
    pairs = PairTransform(truncation)
    propagators = dict.fromkeys(keys)
    n_steps = int(round(t_final / output_step))
    times = np.arange(n_steps + 1) * output_step

    def make_propagator(key):
        """The mode's lifted basis U C, which projects its initial data as
        soon as its propagator is built, so with the builtin ``map`` one
        basis is alive at a time."""
        basis = constraint_null_basis(contexts[key], truncation)
        (propagators[key],) = build_propagator(contexts[key], basis, (include_geostrophic,))
        return key, pairs.lift(basis[0])

    def evolve(key, b: ModeField) -> tuple:
        """(The mode's diagnostics rows at every output time, its final pair
        coordinates.)"""
        prop = propagators[key]
        y = pairs.lower(field_to_vector(b)[:, None])
        rows = np.empty((5, n_steps + 1))
        chunk = np.empty((len(y), READOUT_CHUNK), dtype=y.dtype)
        for first in range(0, n_steps + 1, READOUT_CHUNK):
            width = min(READOUT_CHUNK, n_steps + 1 - first)
            for j in range(width):
                if first + j:
                    y = prop.advance(y, output_step)
                chunk[:, j] = y[:, 0]
            rows[:, first : first + width] = prop.diagnostics(chunk[:, :width])
        if key != keys[0]:
            prop.release_oracles()
        return rows, y

    with thread_map(jobs, len(keys)) as each:
        state = initial_state(each(make_propagator, keys), seed)
        evolved = list(each(evolve, keys, state.modes.values()))
    state.propagators = propagators
    rows = np.stack([mode_rows for mode_rows, _ in evolved])  # (mode, quantity, t)
    energy, grad = _heat_diagnostics(state.initial_zero_mode, times) + rows[:, :2].sum(axis=0)
    state.mode_rows = [
        (t, idx, *quantities)
        for t, per_mode in zip(times.tolist(), rows.transpose(2, 0, 1).tolist())
        for idx, quantities in enumerate(per_mode)
    ]
    log = np.vstack([times, energy, grad, rows[:, 2:4].max(axis=0)])
    state.diagnostics_log = [tuple(row) for row in log.T.tolist()]
    for key, (_, y) in zip(keys, evolved):
        state.modes[key] = vector_to_field(pairs.lift(y)[:, 0])
    state.time = n_steps * output_step
    state.zero_mode = heat_zero_mode(state.initial_zero_mode, state.time)
    return state


def _heat_diagnostics(profiles: tuple, times: np.ndarray) -> np.ndarray:
    """Rows (energy, squared H1 seminorm) of the averaged field at each of
    ``times`` under :func:`heat_zero_mode`, from the outer product of the
    decay rates -8 pi^2 n^2 of its squared coefficients with ``times``,
    taken ``READOUT_CHUNK`` times at a time."""
    n = np.arange(-profiles[0].truncation, profiles[0].truncation + 1)
    squares = sum(np.abs(p.coeffs) ** 2 for p in profiles)
    weights = np.array([squares, 4 * np.pi**2 * n**2 * squares])
    rates = -8 * np.pi**2 * n**2
    out = np.empty((2, len(times)))
    for first in range(0, len(times), READOUT_CHUNK):
        span = slice(first, first + READOUT_CHUNK)
        out[:, span] = weights @ np.exp(np.multiply.outer(rates, times[span]))
    return out


# ----------------------------------------------------------------------
# abscissa sweep and physical-space assembly
# ----------------------------------------------------------------------


def abscissa_lanes(bg: BackgroundField, lattice_modes: list, truncation: int, jobs: int) -> list:
    """Rows (|xi|, restricted abscissa, unconstrained abscissa) per mode, one
    list with the balancing velocity and one without.

    The restricted abscissa governs constrained data; uniform boundedness
    across |xi| is the computational signature of well-posedness, while
    the unconstrained column shows what the raw generator would allow.
    Each mode factors its constrained subspace once, which does not depend
    on the lane, and builds both lanes' propagators from one assembly
    (:func:`build_propagator`); a mode is finished before the next one
    starts.  With ``jobs > 1`` the modes are mapped over a thread pool;
    rows keep the input order.
    """

    def mode_rows(key):
        ctx = lattice_mode_context(bg, key)
        basis = constraint_null_basis(ctx, truncation)
        return [
            (float(ctx.xi_norm), prop.restricted_abscissa, prop.unconstrained_abscissa)
            for prop in build_propagator(ctx, basis, (True, False))
        ]

    with thread_map(jobs, len(lattice_modes)) as each:
        per_mode = list(each(mode_rows, lattice_modes))
    return [list(rows) for rows in zip(*per_mode)]


def assemble_full_field(modes: dict, zero_mode: tuple) -> np.ndarray:
    """Physical-space snapshot of the real field whose horizontal modes are
    ``modes`` and whose averaged profiles are ``zero_mode``, on a regular
    3-torus grid.

    The field is real, so the coefficients of -k are the conjugates of
    those of k: ``modes`` holds one mode of each pair, and each partner is
    added after all of them.  Returns a real array of shape (nh, nh, nz, 3),
    with nh = max(4, 2 max|m| + 2) and nz = 2M + 2 at the modes' window M.
    Raises ValueError when a mode is given together with its negative.
    """
    paired = sorted(k for k in modes if (-k[0], -k[1]) in modes)
    if paired:
        raise ValueError(f"modes {paired} are given together with their negatives")
    partners = {
        (-m1, -m2): ModeField(*(c.conj() for c in b.components)) for (m1, m2), b in modes.items()
    }
    max_m = max((max(abs(k[0]), abs(k[1])) for k in modes), default=0)
    nh = max(4, 2 * max_m + 2)
    some_mode = next(iter(modes.values()), None)
    trunc = some_mode.truncation if some_mode is not None else zero_mode[0].truncation
    nz = 2 * trunc + 2

    x = np.arange(nh) / nh
    z = np.arange(nz) / nz
    vertical = {}  # the phase matrix at z of each window, formed once

    def profile(series: FourierSeries) -> np.ndarray:
        if series.truncation not in vertical:
            vertical[series.truncation] = phases(z, series.truncation)
        return vertical[series.truncation] @ series.coeffs

    out = np.zeros((nh, nh, nz, 3), dtype=np.complex128)
    for comp in range(3):
        out[..., comp] += profile(zero_mode[comp])[None, None, :]
    for (m1, m2), b in [*modes.items(), *partners.items()]:
        phase = np.exp(2j * np.pi * (m1 * x[:, None] + m2 * x[None, :]))
        for comp in range(3):
            out[..., comp] += phase[:, :, None] * profile(b.components[comp])[None, None, :]
    return np.ascontiguousarray(out.real)
