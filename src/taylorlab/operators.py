"""Per-mode operator calculus for the linearized Taylor dynamics.

After reduction to one horizontal wave vector xi (see :mod:`.background`),
the magnetic perturbation is a C^3-valued trigonometric polynomial in the
vertical coordinate, represented here by :class:`ModeField`.  This module
implements the operators that drive its evolution, ordered by their scale in
eps = 1 / |xi|:

* ``magnetostrophic_skew``      the leading skew operator
  -i beta Dinv beta ((eta,0) x b), acting at rate eps^-3 once compressed;
* ``magnetostrophic_symmetric`` the self-adjoint part
  -(1/2) beta Dinv (beta_perp' b) + (1/2) beta_perp' Dinv (beta b);
* ``fast_skew``                 the profile-orthogonal compression of the
  skew operator (anti-Hermitian, kernel contains profile-aligned fields);
* ``symmetric_drive``           the eps^-2 driving operator combining the
  symmetric part with the two nonlocal corrections induced by the
  geostrophic feedback;
* ``induction_remainder``       everything the previous two scales miss,
  defined by exact subtraction from the full induction right-hand side.

Here ``Dinv`` is the zero-mean vertical antiderivative.  One window rule
holds for every operator: it returns a field at its input's window.  All
products are exact convolutions at extended windows, truncated once, at the
end, so each operator agrees with its dense-matrix representation to
rounding accuracy.  A caller that wants a wider output pads the input: at a
window that holds the whole product nothing is truncated.

Every linear operator has one definition that serves a single field and a
block of fields alike.  A :class:`ModeField` whose components carry a trailing batch
axis (coefficients of shape ``(2M+1, K)``, see :mod:`.fourier`) holds K
fields; each product is a background profile (beta, beta_perp', B',
beta_xi) times something linear in the field, so an operator applied to a
block acts column by column.  Dense assembly is the operator applied to
identity blocks: :func:`assemble_matrix` makes three calls, one per
component, each on a ``(2M+1, 2M+1)`` identity, and returns the read-only
complex matrix itself.  The test suite keeps the per-column route (one
basis field per call) as the independent oracle that the
matrix-versus-functional criterion compares against.

The module also owns the Taylor constraint (the reduced two-scalar residual;
the test suite keeps the raw averaged-curl form as its oracle), the
divergence constraint, and the velocity reconstruction: the interior
magnetostrophic part, and the constant geostrophic (balancing) part that
keeps the Taylor constraint invariant under the flow.  The balancing part
is read from the unbalanced right-hand side g by three functionals, so its
term is a rank-3 correction, g + :func:`balancing_term` (g), which
serves a single field and the columns of an assembled matrix alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import ModeContext
from .errors import ConstraintViolated
from .fourier import FourierSeries, integrate_product, multiply

__all__ = [
    "ModeField",
    "field_to_vector",
    "vector_to_field",
    "assemble_matrix",
    "magnetostrophic_skew",
    "magnetostrophic_symmetric",
    "profile_averages",
    "profile_fields",
    "proj_profile",
    "proj_profile_perp",
    "proj_direction",
    "proj_direction_perp",
    "fast_skew",
    "symmetric_drive",
    "taylor_residual",
    "divergence_series",
    "divergence_residual",
    "proj_profile_from_constraint",
    "curl_mode",
    "balancing_term",
    "diffusion_term",
    "full_induction",
    "induction_remainder",
    "constraint_matrix",
    "divergence_matrix",
    "constraint_null_basis",
    "divergence_null_basis",
    "coupled_blocks",
    "compression_blocks",
    "compress_by_blocks",
    "PairTransform",
]


# ----------------------------------------------------------------------
# fields
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModeField:
    """A C^3-valued vertical profile: three series sharing one mode window.

    Components may be blocks of K series (one field per column); a single
    series next to blocks is broadcast to every column, so all three
    components always share one batch shape.
    """

    c1: FourierSeries
    c2: FourierSeries
    c3: FourierSeries

    def __post_init__(self):
        if not (self.c1.truncation == self.c2.truncation == self.c3.truncation):
            raise ValueError("components must share one mode window")
        batch = max((c.coeffs.shape[1:] for c in self.components), key=len)
        for name in ("c1", "c2", "c3"):
            coeffs = getattr(self, name).coeffs
            if coeffs.ndim == 1 and batch:
                wide = np.broadcast_to(coeffs[:, None], coeffs.shape + batch)
                object.__setattr__(self, name, FourierSeries(wide))
        if len({c.coeffs.shape for c in self.components}) > 1:
            raise ValueError("component blocks must hold the same number of fields")

    @classmethod
    def zeros(cls, truncation: int) -> "ModeField":
        z = FourierSeries.zeros(truncation)
        return cls(z, z, z)

    @classmethod
    def from_components(cls, comps) -> "ModeField":
        c1, c2, c3 = comps
        m = max(c.truncation for c in (c1, c2, c3))
        return cls(c1.resample(m), c2.resample(m), c3.resample(m))

    @property
    def components(self):
        return (self.c1, self.c2, self.c3)

    @property
    def truncation(self) -> int:
        return self.c1.truncation

    def __add__(self, other: "ModeField") -> "ModeField":
        return ModeField(self.c1 + other.c1, self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "ModeField") -> "ModeField":
        return ModeField(self.c1 - other.c1, self.c2 - other.c2, self.c3 - other.c3)

    def __mul__(self, scalar) -> "ModeField":
        return ModeField(self.c1 * scalar, self.c2 * scalar, self.c3 * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "ModeField":
        return ModeField(-self.c1, -self.c2, -self.c3)

    def inner(self, other: "ModeField") -> complex:
        return sum(a.inner(b) for a, b in zip(self.components, other.components))

    def norm(self) -> float:
        return float(np.sqrt(sum(c.norm() ** 2 for c in self.components)))

    def resample(self, truncation: int) -> "ModeField":
        return ModeField(*(c.resample(truncation) for c in self.components))

    def derivative(self) -> "ModeField":
        return ModeField(*(c.derivative() for c in self.components))


def field_to_vector(field: ModeField) -> np.ndarray:
    """Stack the three coefficient arrays (component-major) into one vector,
    or into one (3(2M+1), K) array for a block of fields."""
    return np.concatenate([c.coeffs for c in field.components])


def _window(n: int) -> int:
    """The window M of stacked vectors of length n = 3(2M+1)."""
    if n % 3 or n // 3 % 2 == 0:
        raise ValueError(f"a stacked vector has length 3(2M+1), got {n}")
    return (n // 3 - 1) // 2


def vector_to_field(vec: np.ndarray) -> ModeField:
    """The field, or block of fields, of a stacked vector or (3(2M+1), K)
    array; the window M is read from its length."""
    w = 2 * _window(vec.shape[0]) + 1
    return ModeField(
        FourierSeries(vec[:w]), FourierSeries(vec[w : 2 * w]), FourierSeries(vec[2 * w :])
    )


# ----------------------------------------------------------------------
# small series helpers (window-aligning arithmetic for internal use)
# ----------------------------------------------------------------------


def _aligned(*series):
    m = max(s.truncation for s in series)
    return [s.resample(m) for s in series]


def _add(f: FourierSeries, g: FourierSeries) -> FourierSeries:
    f, g = _aligned(f, g)
    return f + g


def _sub(f: FourierSeries, g: FourierSeries) -> FourierSeries:
    f, g = _aligned(f, g)
    return f - g


# ----------------------------------------------------------------------
# the two local operators and the pointwise/profile projections
# ----------------------------------------------------------------------


def _cross_eta(ctx: ModeContext, b: ModeField):
    """(eta, 0) x b = (eta2 b3, -eta1 b3, eta1 b2 - eta2 b1), window-exact."""
    e1, e2 = ctx.eta
    return (
        e2 * b.c3,
        -e1 * b.c3,
        _sub(e1 * b.c2, e2 * b.c1),
    )


def _skew_scalar(ctx: ModeContext, s: FourierSeries) -> FourierSeries:
    """-i beta Dinv(beta s) at the exact extended window."""
    inner = multiply(ctx.beta, s).antiderivative_zero_mean()
    return -1j * multiply(ctx.beta, inner)


def _skew_exact(ctx: ModeContext, b: ModeField) -> ModeField:
    """The leading skew operator at the exact extended window."""
    return ModeField.from_components([_skew_scalar(ctx, s) for s in _cross_eta(ctx, b)])


def magnetostrophic_skew(ctx: ModeContext, b: ModeField) -> ModeField:
    """Leading skew operator: -i beta Dinv(beta ((eta,0) x b)) componentwise.

    Annihilates fields whose horizontal part is aligned with eta and whose
    vertical part vanishes; anti-Hermitian on the full space.
    """
    return _skew_exact(ctx, b).resample(b.truncation)


def _symmetric_scalar(ctx: ModeContext, s: FourierSeries) -> FourierSeries:
    first = multiply(ctx.beta, multiply(ctx.beta_perp_prime, s).antiderivative_zero_mean())
    second = multiply(ctx.beta_perp_prime, multiply(ctx.beta, s).antiderivative_zero_mean())
    return _sub(0.5 * second, 0.5 * first)


def magnetostrophic_symmetric(ctx: ModeContext, b: ModeField) -> ModeField:
    """Self-adjoint local part, acting componentwise:

    -(1/2) beta Dinv(beta_perp' s) + (1/2) beta_perp' Dinv(beta s).
    """
    comps = [_symmetric_scalar(ctx, s) for s in b.components]
    return ModeField.from_components(comps).resample(b.truncation)


def profile_averages(ctx: ModeContext, b: ModeField) -> np.ndarray:
    """The profile averages int e0 b_j of the three components.

    Shape (3,), or (3, K) for a block of K fields: row j is the functional
    b -> int e0 b_j, so the rows of the 3 x 3(2M+1) matrix G_hat.
    """
    return np.array([integrate_product(ctx.e0, s) for s in b.components])


def profile_fields(ctx: ModeContext, truncation: int) -> ModeField:
    """The block E of three fields e0 * (unit vector j), j = 1, 2, 3.

    Its matrix is 3(2M+1) x 3 and :func:`proj_profile` is exactly E G_hat
    (see :func:`profile_averages`), a matrix of rank 3.
    """
    e0 = ctx.e0.resample(truncation).coeffs
    block = np.zeros((3, e0.size, 3), dtype=np.complex128)
    for j in range(3):
        block[j, :, j] = e0
    return ModeField(*(FourierSeries(c) for c in block))


def proj_profile(ctx: ModeContext, b: ModeField) -> ModeField:
    """Componentwise orthogonal projection onto the unit profile e0 = beta/||beta||."""
    e0 = ctx.e0.resample(b.truncation)
    return ModeField(*(g * e0 for g in profile_averages(ctx, b)))


def proj_profile_perp(ctx: ModeContext, b: ModeField) -> ModeField:
    return b - proj_profile(ctx, b)


def proj_direction(ctx: ModeContext, b: ModeField) -> ModeField:
    """Pointwise projection of the C^3 value onto the unit vector (eta, 0)."""
    e1, e2 = ctx.eta
    s = _add(e1 * b.c1, e2 * b.c2)
    zero = FourierSeries.zeros(s.truncation)
    return ModeField(e1 * s, e2 * s, zero).resample(b.truncation)


def proj_direction_perp(ctx: ModeContext, b: ModeField) -> ModeField:
    return b - proj_direction(ctx, b)


def fast_skew(ctx: ModeContext, b: ModeField) -> ModeField:
    """Profile-orthogonal compression of the leading skew operator.

    This is the anti-Hermitian generator of the fast per-mode oscillation;
    its kernel contains every profile-aligned field and every field whose
    horizontal part lies along eta.
    """
    skew = magnetostrophic_skew(ctx, proj_profile_perp(ctx, b))
    return proj_profile_perp(ctx, skew)


def symmetric_drive(ctx: ModeContext, b: ModeField) -> ModeField:
    """The driving operator at the eps^-2 scale.

    Three pieces: the self-adjoint local part, the skew operator applied to
    the profile-aligned average i int b3 B' weighted by beta / ||beta||^2,
    and a rank-one correction along B' carrying the beta-weighted average of
    the vertical output of the skew operator.  Independent of eps.
    """
    m = b.truncation
    bp1, bp2 = ctx.b_prime
    zero = FourierSeries.zeros(0)

    local = magnetostrophic_symmetric(ctx, b)

    # skew operator applied to beta * (constant vector i int b3 B' / ||beta||^2),
    # a carrier at the background window whose exact skew is cut to b's
    v1 = 1j * integrate_product(b.c3, bp1) / ctx.beta_norm_sq
    v2 = 1j * integrate_product(b.c3, bp2) / ctx.beta_norm_sq
    carrier = ModeField.from_components((v1 * ctx.beta, v2 * ctx.beta, zero))
    feedback = _skew_exact(ctx, carrier).resample(m)

    # rank-one correction along B' from the vertical skew output
    e1, e2 = ctx.eta
    cross3 = _sub(e1 * b.c2, e2 * b.c1)
    skew3 = _skew_scalar(ctx, cross3)
    weight = -1j * integrate_product(ctx.beta, skew3) / ctx.beta_norm_sq
    correction = ModeField.from_components((weight * bp1, weight * bp2, zero)).resample(m)

    return local + feedback + correction


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------


def taylor_residual(ctx: ModeContext, b: ModeField):
    """Reduced Taylor residual pair (r_perp, r_3): two numbers, or two rows
    with one value per column of a block of fields.

    r_perp = eta_perp . int (i beta b_h + eps b3 B_h') dx3
           = i int beta (eta_perp . b_h) + eps int beta_perp' b3,
    r_3    = int beta b3 dx3.

    Both vanish exactly on Taylor-constrained fields.  The factor i on the
    beta term matters: it makes the pair a scalar multiple of the raw form,
    the vertical average of the curled force curl(curl b x B + curl B x b),
    and it is the version preserved by the full induction flow.
    """
    p1, p2 = ctx.eta_perp
    r_perp = 1j * (
        p1 * integrate_product(ctx.beta, b.c1) + p2 * integrate_product(ctx.beta, b.c2)
    ) + ctx.eps * integrate_product(ctx.beta_perp_prime, b.c3)
    r_3 = integrate_product(ctx.beta, b.c3)
    return r_perp, r_3


def divergence_series(ctx: ModeContext, b: ModeField) -> FourierSeries:
    """The scalar divergence profile i eta . b_h + eps b3'."""
    e1, e2 = ctx.eta
    return _add(_add(1j * e1 * b.c1, 1j * e2 * b.c2), ctx.eps * b.c3.derivative())


def divergence_residual(ctx: ModeContext, b: ModeField):
    """The L2 norm of :func:`divergence_series`: a number, or a row with one
    value per column of a block of fields."""
    series = divergence_series(ctx, b)
    if series.coeffs.ndim == 1:
        return series.norm()
    return np.linalg.norm(series.coeffs, axis=0)


def curl_mode(ctx: ModeContext, v: ModeField) -> ModeField:
    """Per-mode curl with the symbol (i xi1, i xi2, d/dx3)."""
    x1, x2 = ctx.xi
    return ModeField.from_components(
        (
            _sub(1j * x2 * v.c3, v.c2.derivative()),
            _sub(v.c1.derivative(), 1j * x1 * v.c3),
            _sub(1j * x1 * v.c2, 1j * x2 * v.c1),
        )
    )


def _cross(a, b) -> ModeField:
    """Pointwise cross product of two triples of series (exact windows)."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    return ModeField.from_components(
        (
            _sub(multiply(a2, b3), multiply(a3, b2)),
            _sub(multiply(a3, b1), multiply(a1, b3)),
            _sub(multiply(a1, b2), multiply(a2, b1)),
        )
    )


def _lorentz_average_integrand(ctx: ModeContext, b: ModeField) -> ModeField:
    """curl(b) x B + curl(B) x b at exact windows (per-mode symbols)."""
    bg = ctx.background
    zero = FourierSeries.zeros(0)
    b_vec = (bg.b1, bg.b2, zero)
    curl_bg = (-bg.b2.derivative(), bg.b1.derivative(), zero)
    first = _cross(curl_mode(ctx, b).components, b_vec)
    return first + _cross(curl_bg, b.components).resample(first.truncation)


def proj_profile_from_constraint(ctx: ModeContext, b: ModeField, tol: float) -> ModeField:
    """Profile-aligned component recovered from averages of b3 alone.

    On divergence-free, Taylor-constrained fields the componentwise profile
    projection collapses to

        eps * (beta / ||beta||^2) * int (i b3 B' - 2 i beta' b3 (eta, 0)) dx3,

    which involves only vertical-component averages.  Raises
    :class:`ConstraintViolated` when the input fails either constraint by
    more than ``tol`` relative to its norm, so it takes a single field, not
    a block.
    """
    scale = max(1.0, b.norm())
    r_perp, r_3 = taylor_residual(ctx, b)
    if max(abs(r_perp), abs(r_3)) > tol * scale:
        raise ConstraintViolated(
            f"Taylor residual {max(abs(r_perp), abs(r_3)):.3e} exceeds {tol:.1e} * ||b||"
        )
    if divergence_residual(ctx, b) > tol * scale:
        raise ConstraintViolated("field is not divergence-free at the required tolerance")

    bp1, bp2 = ctx.b_prime
    e1, e2 = ctx.eta
    avg_prime = integrate_product(ctx.beta_prime, b.c3)
    v1 = 1j * integrate_product(b.c3, bp1) - 2j * avg_prime * e1
    v2 = 1j * integrate_product(b.c3, bp2) - 2j * avg_prime * e2
    factor = ctx.eps / ctx.beta_norm_sq
    beta = ctx.beta.resample(b.truncation)
    zero = FourierSeries.zeros(b.truncation)
    return ModeField(factor * v1 * beta, factor * v2 * beta, zero)


# ----------------------------------------------------------------------
# velocity reconstruction and the full induction right-hand side
# ----------------------------------------------------------------------


def _magnetostrophic_velocity_exact(ctx: ModeContext, b: ModeField) -> ModeField:
    """Interior velocity at its exact window: the zero-mean vertical
    antiderivative of the curled force, divergence-free and componentwise
    zero-mean by construction."""
    w = curl_mode(ctx, _lorentz_average_integrand(ctx, b))
    return ModeField(*(c.antiderivative_zero_mean() for c in w.components))


def _induction_term_exact(ctx: ModeContext, u: ModeField) -> ModeField:
    """curl(u x B) = i beta_xi u - u3 (B', 0) of a velocity u, at the exact
    window."""
    beta_xi = ctx.beta_xi
    bp1, bp2 = ctx.b_prime
    u1, u2, u3 = u.components
    return ModeField.from_components(
        (
            _sub(1j * multiply(beta_xi, u1), multiply(u3, bp1)),
            _sub(1j * multiply(beta_xi, u2), multiply(u3, bp2)),
            1j * multiply(beta_xi, u3),
        )
    )


def _balancing_velocity(ctx: ModeContext, g: ModeField) -> np.ndarray:
    """Constant velocity solving the averaged balance that freezes the Taylor
    residual, read from the unbalanced right-hand side ``g``.

    Returns shape (3,), or (3, K) for a block of K fields; the horizontal
    part is orthogonal to xi.  Only the means of f1..f3 are read, so g is
    cut to |n| <= k first, with k the widest window of beta_xi and B'.
    """
    beta_xi = ctx.beta_xi
    bp1, bp2 = ctx.b_prime
    xi_norm_sq = ctx.xi_norm**2
    k = max(beta_xi.truncation, bp1.truncation, bp2.truncation)
    g1, g2, g3 = g.resample(min(g.truncation, k)).components

    f1 = _add(1j * multiply(beta_xi, g1), multiply(g3, bp1))
    f2 = _add(1j * multiply(beta_xi, g2), multiply(g3, bp2))
    f3 = 1j * multiply(beta_xi, g3)

    beta_xi_norm_sq = ctx.beta_norm_sq * xi_norm_sq
    v = np.array([f1.mean(), f2.mean(), f3.mean()]) / beta_xi_norm_sq

    eta = np.asarray(ctx.eta)
    v[:2] -= np.multiply.outer(eta, eta @ v[:2])
    return v


def balancing_term(ctx: ModeContext, g: ModeField) -> ModeField:
    """The balancing velocity's induction term curl(u_g x B), at g's window,
    for the unbalanced right-hand side ``g`` (one field or a block).

    u_g is a constant velocity read from g by three functionals, and its
    term is linear in it, so G_on = G_off + F L(G_off): a rank-3 correction
    of the unbalanced generator, with F the three fields of unit velocities
    and L the functionals.
    """
    u_g = ModeField(*map(FourierSeries.constant, _balancing_velocity(ctx, g)))
    return _induction_term_exact(ctx, u_g).resample(g.truncation)


def diffusion_term(ctx: ModeContext, b: ModeField) -> ModeField:
    """(d33 - |xi|^2) b."""
    k2 = ctx.xi_norm**2
    return ModeField(
        *(c.derivative().derivative() - k2 * c for c in b.components)
    )


def full_induction(
    ctx: ModeContext, b: ModeField, include_geostrophic: bool = True
) -> ModeField:
    """Right-hand side of the per-mode induction equation,

        curl((u_m + u_g) x B) + (d33 - |xi|^2) b,

    with the geostrophic part optional for demonstration runs.  The
    unbalanced right-hand side g is formed first, and the balancing velocity
    u_g is read from it (:func:`balancing_term`).
    """
    u_m = _magnetostrophic_velocity_exact(ctx, b)
    g = _induction_term_exact(ctx, u_m).resample(b.truncation) + diffusion_term(ctx, b)
    if include_geostrophic:
        g = g + balancing_term(ctx, g)
    return g


def induction_remainder(ctx: ModeContext, b: ModeField) -> ModeField:
    """Remainder at the eps^-2 scale, defined by exact subtraction:

        R b = eps^2 * (induction without diffusion) - (fast skew) b / eps
              - (symmetric drive) b.

    The decomposition eps^3 (L - diffusion) = fast_skew + eps drive + eps R
    therefore holds identically.
    """
    drive_free = (ctx.eps**2) * _balanced_induction(ctx, b) - (1.0 / ctx.eps) * fast_skew(ctx, b)
    return drive_free - symmetric_drive(ctx, b)


def _balanced_induction(ctx: ModeContext, b: ModeField) -> ModeField:
    """The induction without diffusion, with the balancing velocity read
    from it plus the diffusion term, as in :func:`full_induction`: the only
    part of :func:`induction_remainder` that is not a function of the
    direction eta alone, for a caller that holds the fast skew's and the
    drive's matrices."""
    u_m = _magnetostrophic_velocity_exact(ctx, b)
    ind = _induction_term_exact(ctx, u_m).resample(b.truncation)
    return ind + balancing_term(ctx, ind + diffusion_term(ctx, b))


# ----------------------------------------------------------------------
# dense assembly and constraint subspaces
# ----------------------------------------------------------------------


def assemble_matrix(op, truncation: int) -> np.ndarray:
    """Dense, read-only matrix of ``op`` in the stacked coefficient basis,
    assembled by applying it to identity blocks.

    ``op`` maps ModeField -> ModeField at the same window and accepts blocks
    of fields, as the linear operators of this module do.  One call per component
    applies it to the (2M+1, 2M+1) identity in that component, which yields
    that component's block of columns; by linearity the matrix action then
    reproduces the functional application exactly.
    """
    zero = FourierSeries.zeros(truncation)
    identity = FourierSeries(np.eye(2 * truncation + 1, dtype=np.complex128))
    units = ((identity, zero, zero), (zero, identity, zero), (zero, zero, identity))
    # the column blocks are stacked once, at the end: written one by one into
    # a preallocated matrix instead, each freed block let glibc trim the heap
    # that the next call then faulted in again (at M = 64, 2.5 times the page
    # faults of a scaling-study verdict)
    mat = np.hstack([field_to_vector(op(ModeField(*unit))) for unit in units])
    mat.setflags(write=False)
    return mat


def divergence_matrix(ctx: ModeContext, truncation: int) -> np.ndarray:
    """Rows of the divergence conditions i eta . b_h(n) + eps (2 pi i n) b3(n)."""
    w = 2 * truncation + 1
    n = np.arange(-truncation, truncation + 1)
    rows = np.zeros((w, 3 * w), dtype=np.complex128)
    e1, e2 = ctx.eta
    idx = np.arange(w)
    rows[idx, idx] = 1j * e1
    rows[idx, w + idx] = 1j * e2
    rows[idx, 2 * w + idx] = ctx.eps * 2j * np.pi * n
    return rows


def constraint_matrix(ctx: ModeContext, truncation: int) -> np.ndarray:
    """Stacked divergence rows plus the two Taylor rows."""
    w = 2 * truncation + 1
    beta_rev = ctx.beta.resample(truncation).coeffs[::-1]  # beta_hat(-n) per column n
    perp_rev = ctx.beta_perp_prime.resample(truncation).coeffs[::-1]
    p1, p2 = ctx.eta_perp

    taylor_perp = np.zeros(3 * w, dtype=np.complex128)
    taylor_perp[:w] = 1j * p1 * beta_rev
    taylor_perp[w : 2 * w] = 1j * p2 * beta_rev
    taylor_perp[2 * w :] = ctx.eps * perp_rev

    taylor_3 = np.zeros(3 * w, dtype=np.complex128)
    taylor_3[2 * w :] = beta_rev

    return np.vstack([divergence_matrix(ctx, truncation), taylor_perp, taylor_3])


def constraint_null_basis(ctx: ModeContext, truncation: int) -> tuple:
    """(C, W) of the divergence + Taylor constraint subspace
    (:func:`_null_space_by_blocks`); its Fourier basis V = U C is
    ``PairTransform(truncation).lift(C)``."""
    return _null_space_by_blocks(constraint_matrix(ctx, truncation))


def divergence_null_basis(ctx: ModeContext, truncation: int) -> tuple:
    """(C, W) of the divergence-free subspace alone."""
    return _null_space_by_blocks(divergence_matrix(ctx, truncation))


# J b_c(n) = s_c conj(b_c(-n)), per component c
PAIR_SIGNS = (-1.0, -1.0, 1.0)
SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class PairTransform:
    """The change of basis T in which every per-mode operator is real.

    The antiunitary map J b_c(n) = s_c conj(b_c(-n)), s = ``PAIR_SIGNS``,
    combines the reality of the physical field with the rotation by pi
    about the vertical axis.  The linearized operators are even in the
    background B, so for a real background they commute with J, and so do
    the constraints.  T maps the real coordinates onto the vectors J fixes:
    for an index i at n > 0 with partner j at -n (same component),

        T e_i = e_i + s e_j,    T e_j = i (e_i - s e_j),

    and at n = 0, T e_i = e_i when s = +1 and i e_i when s = -1.  Its
    columns are orthogonal with T* T = 1/D, D = 1/2 on pairs and 1 at
    n = 0, so U = T sqrt(D) is unitary, and an operator A that commutes
    with J has a real U* A U.  U keeps indices: a pair's two coordinates sit
    at i and j.

    Every method reads the stacked vectors of window ``truncation`` as
    (3, 2M+1) views: n = 0 at column M, the pairs' n > 0 at M+1.. and their
    -n at M-1 down to 0.
    """

    truncation: int

    def _views(self, a: np.ndarray, axis: int) -> tuple:
        """(n = 0, n > 0, -n) views of ``a`` along ``axis`` (0 or -1), shaped
        (k, components) and (k, components, M), with k running over the other
        axis and the components those ``a`` holds."""
        m = self.truncation
        w = 2 * m + 1
        if axis == 0:
            a = a.reshape(len(a) // w, w, -1).transpose(2, 0, 1)
        else:
            a = a.reshape(-1, a.shape[-1] // w, w)
        return a[..., m], a[..., m + 1 :], a[..., m - 1 :: -1]

    @staticmethod
    def _signs(component: int | None) -> tuple:
        """(s per component as a column, T e_i at n = 0 per component), for
        all three components or the one ``component``."""
        signs = np.array(PAIR_SIGNS if component is None else PAIR_SIGNS[component : component + 1])
        return signs[:, None], np.where(signs > 0, 1.0 + 0j, 1j)

    def pair_rows(self) -> np.ndarray:
        """One boolean row per pair, true at its two indices: as ``rows`` of
        :func:`coupled_blocks` it keeps every pair inside one block."""
        m = self.truncation
        out = np.zeros((3 * m, 3 * (2 * m + 1)), dtype=bool)
        _, plus, minus = self._views(out, -1)
        for c in range(3):
            rows = slice(c * m, (c + 1) * m)
            plus[rows, c] = minus[rows, c] = np.eye(m, dtype=bool)
        return out

    def _times_u(self, a: np.ndarray) -> np.ndarray:
        """a U (the last axis is transformed)."""
        sign, phase = self._signs(None)
        out = np.empty(a.shape, dtype=np.complex128)
        zero, plus, minus = self._views(a, -1)
        out_zero, out_plus, out_minus = self._views(out, -1)
        at_minus = minus * sign
        out_plus[...] = SQRT_HALF * (plus + at_minus)
        out_minus[...] = (SQRT_HALF * 1j) * (plus - at_minus)
        out_zero[...] = zero * phase
        return out

    def lower(self, x: np.ndarray, component: int | None = None) -> np.ndarray:
        """U* x for a matrix ``x`` (the first axis is transformed): the
        coordinates of x's columns in the basis U; the inverse of :meth:`lift`.
        With ``component``, ``x`` holds that component's rows only."""
        sign, phase = self._signs(component)
        out = np.empty(x.shape, dtype=np.complex128)
        zero, plus, minus = self._views(x, 0)
        out_zero, out_plus, out_minus = self._views(out, 0)
        at_minus = minus * sign
        out_plus[...] = SQRT_HALF * (plus + at_minus)
        out_minus[...] = (-SQRT_HALF * 1j) * (plus - at_minus)
        out_zero[...] = zero * phase.conj()
        return out

    def pair_form(self, a: np.ndarray) -> tuple:
        """(Re B, the largest |Im B| in each row) for B = U* a U: the square
        matrix ``a`` in the basis U, real up to roundoff when ``a`` commutes
        with J.

        B is formed one component's rows at a time, so no complex matrix of
        the size of ``a`` is made.
        """
        return self._lowered(a, self._times_u)

    def pair_form_rows(self, a: np.ndarray) -> tuple:
        """:meth:`pair_form` of a square matrix at its rows |n| <= k of each
        component, from those rows alone: ``a`` holds them as a stacked
        vector of window k <= M along the first axis.

        The rows n and -n pair among themselves, and every entry of U* a U
        is formed elementwise, so the result is bitwise those rows of the
        whole pair form.
        """
        return PairTransform(_window(len(a)))._lowered(a, self._times_u)

    def _lowered(self, a: np.ndarray, times_u) -> tuple:
        """(Re B, the largest |Im B| in each row) for B = U* a U, with ``a``'s
        rows at this window and ``times_u`` the a U of its columns' window,
        one component's rows at a time."""
        w = 2 * self.truncation + 1
        real = np.empty(a.shape)
        imag = np.empty(len(a))
        for c in range(3):
            rows = slice(c * w, (c + 1) * w)
            part = self.lower(times_u(a[rows]), c)
            real[rows] = part.real
            imag[rows] = np.abs(part.imag).max(axis=1)
        return real, imag

    def real_rows(self, rows: np.ndarray) -> np.ndarray:
        """[Re(rows U); Im(rows U)] with the unitary U = T sqrt(D): real x
        solves these rows exactly when U x solves ``rows``."""
        r = len(rows)
        sign, phase = self._signs(None)
        out = np.empty((2 * r, rows.shape[1]))
        zero, plus, minus = self._views(rows, -1)
        re_zero, re_plus, re_minus = self._views(out[:r], -1)
        im_zero, im_plus, im_minus = self._views(out[r:], -1)
        at_minus = minus * sign
        column = SQRT_HALF * (plus + at_minus)  # rows U at n > 0
        re_plus[...] = column.real
        im_plus[...] = column.imag
        column = SQRT_HALF * (plus - at_minus)  # rows U at -n, over i
        re_minus[...] = -column.imag
        im_minus[...] = column.real
        column = zero * phase
        re_zero[...] = column.real
        im_zero[...] = column.imag
        return out

    def lift(self, y: np.ndarray) -> np.ndarray:
        """U y with U = T sqrt(D), for coordinates ``y`` (first axis, a matrix).

        For real ``y``, column v of the result is fixed by J bitwise: v(-n) is
        computed as s conj(v(n)).  Complex ``y`` is lifted by parts.
        """
        if np.iscomplexobj(y):
            return self.lift(y.real) + 1j * self.lift(y.imag)
        sign, phase = self._signs(None)
        out = np.empty(y.shape, dtype=np.complex128)
        zero, plus, minus = self._views(y, 0)
        out_zero, out_plus, out_minus = self._views(out, 0)
        real = SQRT_HALF * plus
        imag = SQRT_HALF * minus
        out_plus.real[...] = real
        out_plus.imag[...] = imag
        out_minus.real[...] = sign * real
        out_minus.imag[...] = -sign * imag
        out_zero[...] = zero * phase
        return out


def coupled_blocks(square: np.ndarray | None = None, rows: np.ndarray | None = None):
    """Index sets of the unknowns that the exact nonzero patterns couple.

    Unknowns i and j are coupled when ``square[i, j] != 0``, or when one row
    of ``rows`` is nonzero at both.  There is no threshold: any nonzero
    couples, however small.  The blocks are the connected components, so a
    matrix that is block diagonal up to a permutation splits into its
    blocks, and an unknown that nothing couples is a block of its own.
    Blocks come in the order of their smallest index, each listing its
    indices in increasing order.
    """
    label = _block_labels(square, rows)
    order = np.argsort(label, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))


def compression_blocks(square: np.ndarray, basis: np.ndarray):
    """:func:`coupled_blocks` for compressing ``square`` by ``basis``: unknowns
    coupled by a nonzero of the square matrix, by a column of the basis or as
    the pair n, -n of :class:`PairTransform`."""
    pairs = PairTransform(_window(len(square))).pair_rows()
    return coupled_blocks(square, np.vstack([basis.T != 0, pairs]))


def square_blocks(square: np.ndarray, blocks):
    """A_k per block, each copied out as it is reached, so one copy is alive
    at a time; the whole A for one block."""
    if len(blocks) == 1:
        yield square
        return
    for idx in blocks:
        yield square[np.ix_(idx, idx)]


def basis_blocks(basis: np.ndarray, blocks):
    """V_k per block: the rows of V in the block and the columns supported
    there; the whole V for one block."""
    if len(blocks) == 1:
        yield basis
        return
    for idx in blocks:
        rows = basis[idx]
        yield rows[:, np.any(rows != 0, axis=0)]


def compress_by_blocks(square: np.ndarray, basis: np.ndarray, blocks) -> tuple:
    """V_k* A_k V_k per block of :func:`compression_blocks`.

    A is block diagonal over the blocks and every column of V lies in one of
    them, so up to a permutation V* A V is the direct sum of these; its
    2-norm, or that of its Hermitian part, is the largest of the blocks'.
    """
    pieces = zip(square_blocks(square, blocks), basis_blocks(basis, blocks))
    return tuple(v.conj().T @ a @ v for a, v in pieces)


def _block_labels(square: np.ndarray | None = None, rows: np.ndarray | None = None):
    """The smallest index of each unknown's block of :func:`coupled_blocks`."""
    patterns = []
    if square is not None:
        patterns.append((square != 0) | np.eye(len(square), dtype=bool))
    if rows is not None:
        patterns.append(rows != 0)
    pattern = np.vstack(patterns)
    edge, unknown = np.nonzero(pattern)
    n = pattern.shape[1]
    # every label is an unknown of the same block and at most the own index;
    # rows and unknowns trade their least labels until nothing moves, and
    # label[label] jumps ahead along chains
    label = np.arange(n)
    while True:
        least = np.full(len(pattern), n)
        np.minimum.at(least, edge, label[unknown])
        new = label.copy()
        np.minimum.at(new, unknown, least[edge])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _null_space_by_blocks(rows: np.ndarray) -> tuple:
    """(C, W), read-only: real orthonormal bases of the null space of
    [Re(rows U); Im(rows U)] and of its complement, U the unitary of
    :class:`PairTransform`, for J-invariant ``rows``.  U C is then a basis
    of the complex null space whose columns J fixes.

    Each block of :func:`coupled_blocks` of the real rows is factored with
    the rows inside it by one SVD (blocks of one shape by one stacked SVD):
    its rank counts the singular values above max(shape) * eps * the
    largest, the rule of ``scipy.linalg.null_space``.  The trailing right
    singular vectors are the block's columns of C, and the leading ``rank``,
    which span its row space, those of W (Golub and Van Loan, Matrix
    Computations, 2.4).  An unknown that no row touches gives C its unit
    vector.  Every column lies inside one block and its partners.
    """
    real = PairTransform(_window(rows.shape[1])).real_rows(rows)
    touched = real != 0
    _, block = np.unique(_block_labels(rows=touched), return_inverse=True)
    live = np.flatnonzero(touched.any(axis=1))
    owner = block[touched[live].argmax(axis=1)]  # all of a row lies in one block
    # block b holds the runs at *_start[b] of length n_*[b] of these orders
    row_order = live[np.argsort(owner, kind="stable")]
    col_order = np.argsort(block, kind="stable")
    n_cols = np.bincount(block)
    n_rows = np.bincount(owner, minlength=len(n_cols))
    row_start = np.cumsum(n_rows) - n_rows
    col_start = np.cumsum(n_cols) - n_cols
    rank = np.zeros_like(n_cols)
    factored = []
    for r, c in sorted({(r, c) for r, c in zip(n_rows, n_cols) if r}):
        group = np.flatnonzero((n_rows == r) & (n_cols == c))
        inside = real[
            row_order[row_start[group][:, None, None] + np.arange(r)[:, None]],
            col_order[col_start[group][:, None, None] + np.arange(c)],
        ]
        _, sigma, vh = np.linalg.svd(inside)
        floor = max(r, c) * np.finfo(float).eps * sigma[:, :1]
        rank[group] = np.count_nonzero(sigma > floor, axis=1)
        factored.append((group, vh))
    nullity = n_cols - rank
    offset = np.cumsum(nullity) - nullity
    w_offset = np.cumsum(rank) - rank
    null = np.zeros((len(col_order), nullity.sum()))
    complement = np.zeros((len(col_order), rank.sum()))
    untouched = n_rows == 0  # a single unknown each
    null[col_order[col_start[untouched]], offset[untouched]] = 1.0
    for group, vh in factored:
        for b, v in zip(group, vh):
            idx = col_order[col_start[b] : col_start[b] + n_cols[b]]
            null[idx, offset[b] : offset[b] + nullity[b]] = v[rank[b] :].T
            complement[idx, w_offset[b] : w_offset[b] + rank[b]] = v[: rank[b]].T
    null.setflags(write=False)
    complement.setflags(write=False)
    return null, complement
