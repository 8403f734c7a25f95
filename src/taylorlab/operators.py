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

Here ``Dinv`` is the zero-mean vertical antiderivative.  All products are
exact convolutions at extended windows; results are truncated once, at the
end, so each operator agrees with its dense-matrix representation to
rounding accuracy.

Every linear operator has one definition that serves a single field and a
block of fields alike.  A :class:`ModeField` whose components carry a trailing batch
axis (coefficients of shape ``(2M+1, K)``, see :mod:`.fourier`) holds K
fields; each product is a background profile (beta, beta_perp', B',
beta_xi) times something linear in the field, so an operator applied to a
block acts column by column.  Dense assembly is the operator applied to
identity blocks: :func:`assemble_matrix` makes three calls, one per
component, each on a ``(2M+1, 2M+1)`` identity.  The test suite keeps the
per-column route (one basis field per call) as the independent oracle that
the matrix-versus-functional criterion compares against.

The module also owns both formulations of the Taylor constraint (the reduced
two-scalar residual and the raw averaged-curl form), the divergence
constraint, and the velocity reconstruction (interior magnetostrophic part
plus the constant geostrophic part that keeps the Taylor constraint
invariant under the flow).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .background import ModeContext
from .errors import ConstraintViolated
from .fourier import FourierSeries, integrate_product, multiply

__all__ = [
    "ModeField",
    "OperatorMatrix",
    "field_to_vector",
    "vector_to_field",
    "assemble_matrix",
    "magnetostrophic_skew",
    "magnetostrophic_symmetric",
    "proj_profile",
    "proj_profile_perp",
    "proj_direction",
    "proj_direction_perp",
    "fast_skew",
    "symmetric_drive",
    "taylor_residual",
    "taylor_residual_curl_form",
    "divergence_series",
    "divergence_residual",
    "proj_profile_from_constraint",
    "curl_mode",
    "magnetostrophic_velocity",
    "geostrophic_velocity",
    "diffusion_term",
    "full_induction",
    "induction_remainder",
    "constraint_matrix",
    "divergence_matrix",
    "constraint_null_basis",
    "divergence_null_basis",
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


def vector_to_field(vec: np.ndarray, truncation: int) -> ModeField:
    w = 2 * truncation + 1
    if vec.shape[0] != 3 * w:
        raise ValueError(f"expected a vector of size {3 * w}, got {vec.shape[0]}")
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


def _field_aligned(*fields: ModeField):
    m = max(f.truncation for f in fields)
    return [f.resample(m) for f in fields]


def _out_window(b: ModeField, out_truncation: int | None) -> int:
    return b.truncation if out_truncation is None else out_truncation


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


def magnetostrophic_skew(
    ctx: ModeContext, b: ModeField, out_truncation: int | None = None
) -> ModeField:
    """Leading skew operator: -i beta Dinv(beta ((eta,0) x b)) componentwise.

    Annihilates fields whose horizontal part is aligned with eta and whose
    vertical part vanishes; anti-Hermitian on the full space.
    """
    m = _out_window(b, out_truncation)
    comps = [_skew_scalar(ctx, s) for s in _cross_eta(ctx, b)]
    return ModeField.from_components(comps).resample(m)


def _symmetric_scalar(ctx: ModeContext, s: FourierSeries) -> FourierSeries:
    first = multiply(ctx.beta, multiply(ctx.beta_perp_prime, s).antiderivative_zero_mean())
    second = multiply(ctx.beta_perp_prime, multiply(ctx.beta, s).antiderivative_zero_mean())
    return _sub(0.5 * second, 0.5 * first)


def magnetostrophic_symmetric(
    ctx: ModeContext, b: ModeField, out_truncation: int | None = None
) -> ModeField:
    """Self-adjoint local part, acting componentwise:

    -(1/2) beta Dinv(beta_perp' s) + (1/2) beta_perp' Dinv(beta s).
    """
    m = _out_window(b, out_truncation)
    comps = [_symmetric_scalar(ctx, s) for s in b.components]
    return ModeField.from_components(comps).resample(m)


def proj_profile(ctx: ModeContext, b: ModeField) -> ModeField:
    """Componentwise orthogonal projection onto the unit profile e0 = beta/||beta||."""
    m = b.truncation
    e0 = ctx.e0.resample(m)
    comps = [integrate_product(ctx.e0, s) * e0 for s in b.components]
    return ModeField(*comps)


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


def fast_skew(ctx: ModeContext, b: ModeField, out_truncation: int | None = None) -> ModeField:
    """Profile-orthogonal compression of the leading skew operator.

    This is the anti-Hermitian generator of the fast per-mode oscillation;
    its kernel contains every profile-aligned field and every field whose
    horizontal part lies along eta.
    """
    m = _out_window(b, out_truncation)
    inner = proj_profile_perp(ctx, b)
    skew = magnetostrophic_skew(ctx, inner, out_truncation=m)
    return proj_profile_perp(ctx, skew)


def symmetric_drive(
    ctx: ModeContext, b: ModeField, out_truncation: int | None = None
) -> ModeField:
    """The driving operator at the eps^-2 scale.

    Three pieces: the self-adjoint local part, the skew operator applied to
    the profile-aligned average i int b3 B' weighted by beta / ||beta||^2,
    and a rank-one correction along B' carrying the beta-weighted average of
    the vertical output of the skew operator.  Independent of eps.
    """
    m = _out_window(b, out_truncation)
    bp1, bp2 = ctx.b_prime
    zero = FourierSeries.zeros(0)

    local = magnetostrophic_symmetric(ctx, b, out_truncation=m)

    # skew operator applied to beta * (constant vector i int b3 B' / ||beta||^2)
    v1 = 1j * integrate_product(b.c3, bp1) / ctx.beta_norm_sq
    v2 = 1j * integrate_product(b.c3, bp2) / ctx.beta_norm_sq
    carrier = ModeField.from_components((v1 * ctx.beta, v2 * ctx.beta, zero))
    feedback = magnetostrophic_skew(ctx, carrier, out_truncation=m)

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
    """Reduced Taylor residual pair (r_perp, r_3).

    r_perp = eta_perp . int (i beta b_h + eps b3 B_h') dx3
           = i int beta (eta_perp . b_h) + eps int beta_perp' b3,
    r_3    = int beta b3 dx3.

    Both vanish exactly on Taylor-constrained fields.  The factor i on the
    beta term matters: it makes the pair a scalar multiple of the averaged
    curl form (see :func:`taylor_residual_curl_form`), and it is the version
    preserved by the full induction flow.
    """
    p1, p2 = ctx.eta_perp
    r_perp = 1j * (
        p1 * integrate_product(ctx.beta, b.c1) + p2 * integrate_product(ctx.beta, b.c2)
    ) + ctx.eps * integrate_product(ctx.beta_perp_prime, b.c3)
    r_3 = integrate_product(ctx.beta, b.c3)
    return complex(r_perp), complex(r_3)


def divergence_series(ctx: ModeContext, b: ModeField) -> FourierSeries:
    """The scalar divergence profile i eta . b_h + eps b3'."""
    e1, e2 = ctx.eta
    return _add(_add(1j * e1 * b.c1, 1j * e2 * b.c2), ctx.eps * b.c3.derivative())


def divergence_residual(ctx: ModeContext, b: ModeField) -> float:
    return divergence_series(ctx, b).norm()


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


def taylor_residual_curl_form(ctx: ModeContext, b: ModeField):
    """Raw constraint residuals from the vertical average of the curled force.

    Returns (horizontal component along eta_perp, vertical component) of
    int curl(curl b x B + curl B x b) dx3 after removing the gradient
    directions.  Related to :func:`taylor_residual` by an invertible
    diagonal 2x2 map; implemented independently so the equivalence can be
    asserted numerically.
    """
    f = _lorentz_average_integrand(ctx, b)
    w = curl_mode(ctx, f)
    p1, p2 = ctx.eta_perp
    horizontal = p1 * w.c1.mean() + p2 * w.c2.mean()
    vertical = w.c3.mean()
    # the curl's vertical average encodes the two scalar conditions as
    # (i xi2 m3, -i xi1 m3, i |xi| m_perp); report the underlying scalars
    m3 = complex(f.c3.mean())
    m_perp = complex(p1 * f.c1.mean() + p2 * f.c2.mean())
    del horizontal, vertical
    return m_perp, m3


def proj_profile_from_constraint(
    ctx: ModeContext, b: ModeField, tol: float = 1e-10
) -> ModeField:
    """Profile-aligned component recovered from averages of b3 alone.

    On divergence-free, Taylor-constrained fields the componentwise profile
    projection collapses to

        eps * (beta / ||beta||^2) * int (i b3 B' - 2 i beta' b3 (eta, 0)) dx3,

    which involves only vertical-component averages.  Raises
    :class:`ConstraintViolated` when the input fails either constraint,
    relative to its norm, so it takes a single field, not a block.
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
    w = curl_mode(ctx, _lorentz_average_integrand(ctx, b))
    return ModeField(*(c.antiderivative_zero_mean() for c in w.components))


def magnetostrophic_velocity(
    ctx: ModeContext, b: ModeField, out_truncation: int | None = None
) -> ModeField:
    """Interior velocity: zero-mean vertical antiderivative of the curled force.

    Divergence-free and componentwise zero-mean by construction.
    """
    m = _out_window(b, out_truncation)
    return _magnetostrophic_velocity_exact(ctx, b).resample(m)


def _geostrophic_velocity_vector(ctx: ModeContext, b: ModeField, u_m: ModeField) -> np.ndarray:
    """Constant velocity solving the averaged balance that freezes the Taylor residual.

    ``u_m`` is the interior velocity of ``b`` at its exact window.  Returns
    shape (3,), or (3, K) for a block of K fields.
    """
    beta_xi = ctx.beta_xi
    bp1, bp2 = ctx.b_prime
    xi_norm_sq = ctx.xi_norm**2

    # G = curl(u_m x B) + (d33 - |xi|^2) b, using curl(u x B) = i beta_xi u - u3 B'
    def g_comp(u_c, b_c, bp):
        out = _sub(1j * multiply(beta_xi, u_c), _sub(xi_norm_sq * b_c, b_c.derivative().derivative()))
        if bp is not None:
            out = _sub(out, multiply(u_m.c3, bp))
        return out

    g1 = g_comp(u_m.c1, b.c1, bp1)
    g2 = g_comp(u_m.c2, b.c2, bp2)
    g3 = g_comp(u_m.c3, b.c3, None)

    f1 = _add(1j * multiply(beta_xi, g1), multiply(g3, bp1))
    f2 = _add(1j * multiply(beta_xi, g2), multiply(g3, bp2))
    f3 = 1j * multiply(beta_xi, g3)

    beta_xi_norm_sq = ctx.beta_norm_sq * xi_norm_sq
    v = np.array([f1.mean(), f2.mean(), f3.mean()]) / beta_xi_norm_sq

    eta = np.asarray(ctx.eta)
    v[:2] -= np.multiply.outer(eta, eta @ v[:2])
    return v


def geostrophic_velocity(ctx: ModeContext, b: ModeField) -> np.ndarray:
    """Constant C^3 velocity vector with horizontal part orthogonal to xi."""
    return _geostrophic_velocity_vector(ctx, b, _magnetostrophic_velocity_exact(ctx, b))


def _induction_term_exact(
    ctx: ModeContext, b: ModeField, include_geostrophic: bool
) -> ModeField:
    """curl((u_m + u_g) x B) at exact windows, via i beta_xi u - u3 B'."""
    u = _magnetostrophic_velocity_exact(ctx, b)
    if include_geostrophic:
        v = _geostrophic_velocity_vector(ctx, b, u)
        m = u.truncation
        u = ModeField(
            _add(u.c1, FourierSeries.constant(v[0])).resample(m),
            _add(u.c2, FourierSeries.constant(v[1])).resample(m),
            _add(u.c3, FourierSeries.constant(v[2])).resample(m),
        )
    beta_xi = ctx.beta_xi
    bp1, bp2 = ctx.b_prime
    return ModeField.from_components(
        (
            _sub(1j * multiply(beta_xi, u.c1), multiply(u.c3, bp1)),
            _sub(1j * multiply(beta_xi, u.c2), multiply(u.c3, bp2)),
            1j * multiply(beta_xi, u.c3),
        )
    )


def diffusion_term(ctx: ModeContext, b: ModeField) -> ModeField:
    """(d33 - |xi|^2) b."""
    k2 = ctx.xi_norm**2
    return ModeField(
        *(c.derivative().derivative() - k2 * c for c in b.components)
    )


def full_induction(
    ctx: ModeContext,
    b: ModeField,
    include_geostrophic: bool = True,
    out_truncation: int | None = None,
) -> ModeField:
    """Right-hand side of the per-mode induction equation,

        curl((u_m + u_g) x B) + (d33 - |xi|^2) b,

    with the geostrophic part optional for demonstration runs.
    """
    m = _out_window(b, out_truncation)
    ind = _induction_term_exact(ctx, b, include_geostrophic).resample(m)
    return ind + diffusion_term(ctx, b.resample(m))


def induction_remainder(
    ctx: ModeContext, b: ModeField, out_truncation: int | None = None
) -> ModeField:
    """Remainder at the eps^-2 scale, defined by exact subtraction:

        R b = eps^2 * (induction without diffusion) - (fast skew) b / eps
              - (symmetric drive) b.

    The decomposition eps^3 (L - diffusion) = fast_skew + eps drive + eps R
    therefore holds identically.
    """
    m = _out_window(b, out_truncation)
    ind = _induction_term_exact(ctx, b, include_geostrophic=True).resample(m)
    skew = fast_skew(ctx, b, out_truncation=m)
    drive = symmetric_drive(ctx, b, out_truncation=m)
    return (ctx.eps**2) * ind - (1.0 / ctx.eps) * skew - drive


# ----------------------------------------------------------------------
# dense assembly and constraint subspaces
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense matrix of a per-mode operator in the stacked coefficient basis."""

    entries: np.ndarray
    truncation: int
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def apply(self, b: ModeField) -> ModeField:
        return vector_to_field(self.entries @ field_to_vector(b.resample(self.truncation)), self.truncation)

    def to_json(self) -> dict:
        """Row-major dense export with [re, im] pairs."""
        return {
            "label": self.label,
            "truncation": self.truncation,
            "shape": list(self.entries.shape),
            "entries": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.entries
            ],
        }


def assemble_matrix(op, truncation: int, label: str = "") -> OperatorMatrix:
    """Assemble a dense matrix by applying ``op`` to identity blocks.

    ``op`` maps ModeField -> ModeField at the same window and accepts blocks
    of fields, as the linear operators of this module do.  One call per component
    applies it to the (2M+1, 2M+1) identity in that component, which yields
    that component's block of columns; by linearity the matrix action then
    reproduces the functional application exactly.
    """
    w = 2 * truncation + 1
    mat = np.zeros((3 * w, 3 * w), dtype=np.complex128)
    zero = FourierSeries.zeros(truncation)
    identity = FourierSeries(np.eye(w, dtype=np.complex128))
    for comp in range(3):
        comps = [zero, zero, zero]
        comps[comp] = identity
        block = field_to_vector(op(ModeField(*comps)).resample(truncation))
        mat[:, comp * w : (comp + 1) * w] = block
    return OperatorMatrix(entries=mat, truncation=truncation, label=label)


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


def constraint_null_basis(ctx: ModeContext, truncation: int) -> np.ndarray:
    """Orthonormal basis (columns) of the divergence + Taylor constraint subspace."""
    return scipy.linalg.null_space(constraint_matrix(ctx, truncation))


def divergence_null_basis(ctx: ModeContext, truncation: int) -> np.ndarray:
    """Orthonormal basis (columns) of the divergence-free subspace alone."""
    return scipy.linalg.null_space(divergence_matrix(ctx, truncation))
