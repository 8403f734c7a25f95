"""Truncated Fourier calculus on the unit-period interval.

Everything downstream works with complex trigonometric polynomials

    f(x) = sum_{|n| <= M} c_n exp(2 pi i n x)

stored densely over the symmetric mode window [-M, M].  Series are immutable;
all operations are pure and return new instances.  Products are exact linear
convolutions at the natural window M_f + M_g, never truncated, so that
operator identities downstream can be verified to rounding accuracy.

Conventions:

* inner products conjugate the second argument: ``inner(f, g) = int f conj(g)``;
* the mean-removal projector P zeroes the n = 0 coefficient;
* ``antiderivative_zero_mean`` is the inverse vertical derivative P int P,
  acting as c_n / (2 pi i n) on n != 0 and sending the mean to zero.  It is
  anti-self-adjoint.

Batch axis: coefficients may also have shape ``(2M+1, K)``, a block of K
series sharing one window (column k is series k).  Linear operations act
column by column; ``mean`` and ``integrate_product`` then return a length-K
row, and a series times a length-K row scales each column.  A product of a
single series (a profile) with a block is a shift-and-add over the profile's
nonzero coefficients.  Pointwise queries (``coefficient``, ``norm``
and ``inner``) are for single series only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationMismatch

TWO_PI = 2.0 * np.pi

__all__ = [
    "FourierSeries",
    "multiply",
    "integrate_product",
    "phases",
    "inverse_collocation",
]


def _along_modes(values: np.ndarray, ndim: int) -> np.ndarray:
    """Shape a per-mode vector to broadcast along axis 0 of an ndim array."""
    return values if ndim == 1 else values[:, None]


@dataclass(frozen=True, eq=False)
class FourierSeries:
    """Dense coefficients c_n over n in [-M, M]; ``coeffs[n + M]`` is c_n.

    ``coeffs`` has shape ``(2M+1,)`` for one series or ``(2M+1, K)`` for a
    block of K series (see the module docstring).
    """

    coeffs: np.ndarray

    # ndarray (op) series defers to the series, so a length-K row times a
    # series scales its columns instead of building an object array
    __array_ufunc__ = None

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim not in (1, 2) or arr.shape[0] % 2 == 0:
            raise ValueError(
                "coefficients must have an odd leading axis and at most one batch axis"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "FourierSeries":
        """Wrap a complex coefficient array that nothing else holds, without a copy.

        For results this module has just computed; the public constructor
        copies, so a caller's array never aliases a series.
        """
        arr.setflags(write=False)
        series = object.__new__(cls)
        object.__setattr__(series, "coeffs", arr)
        return series

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, truncation: int) -> "FourierSeries":
        return cls(np.zeros(2 * truncation + 1, dtype=np.complex128))

    @classmethod
    def constant(cls, value, truncation: int = 0) -> "FourierSeries":
        """The constant ``value``; a length-K row gives a block of K constants."""
        value = np.asarray(value, dtype=np.complex128)
        c = np.zeros((2 * truncation + 1,) + value.shape, dtype=np.complex128)
        c[truncation] = value
        return cls(c)

    @classmethod
    def exponential(cls, n: int, truncation: int, amplitude: complex = 1.0) -> "FourierSeries":
        """amplitude * exp(2 pi i n x)."""
        if abs(n) > truncation:
            raise ValueError(f"mode {n} outside window [-{truncation}, {truncation}]")
        c = np.zeros(2 * truncation + 1, dtype=np.complex128)
        c[n + truncation] = amplitude
        return cls(c)

    @classmethod
    def cosine(cls, n: int, truncation: int, amplitude: float = 1.0) -> "FourierSeries":
        """amplitude * cos(2 pi n x)."""
        if n == 0:
            return cls.constant(amplitude, truncation)
        if abs(n) > truncation:
            raise ValueError(f"mode {n} outside window [-{truncation}, {truncation}]")
        c = np.zeros(2 * truncation + 1, dtype=np.complex128)
        c[n + truncation] = 0.5 * amplitude
        c[-n + truncation] = 0.5 * amplitude
        return cls(c)

    @classmethod
    def sine(cls, n: int, truncation: int, amplitude: float = 1.0) -> "FourierSeries":
        """amplitude * sin(2 pi n x)."""
        if n == 0:
            return cls.zeros(truncation)
        if abs(n) > truncation:
            raise ValueError(f"mode {n} outside window [-{truncation}, {truncation}]")
        c = np.zeros(2 * truncation + 1, dtype=np.complex128)
        c[n + truncation] = -0.5j * amplitude
        c[-n + truncation] = 0.5j * amplitude
        return cls(c)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def truncation(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    def modes(self) -> np.ndarray:
        m = self.truncation
        return np.arange(-m, m + 1)

    def coefficient(self, n: int) -> complex:
        m = self.truncation
        if abs(n) > m:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + m])

    def mean(self):
        """The integral over one period (the n = 0 coefficient); a row for a block."""
        if self.coeffs.ndim == 1:
            return complex(self.coeffs[self.truncation])
        return self.coeffs[self.truncation].copy()

    def norm(self) -> float:
        """L2 norm over one period (Parseval)."""
        return float(np.linalg.norm(self.coeffs))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def _require_same_window(self, other: "FourierSeries") -> None:
        if self.truncation != other.truncation:
            raise TruncationMismatch(
                f"mode windows differ ({self.truncation} vs {other.truncation}); "
                "resample() one operand explicitly"
            )

    def _paired(self, other: "FourierSeries"):
        """Both coefficient arrays, a single series lifted to (2M+1, 1) when
        the other operand is a block (so it broadcasts over the columns)."""
        self._require_same_window(other)
        a, b = self.coeffs, other.coeffs
        if a.ndim < b.ndim:
            a = a[:, None]
        elif b.ndim < a.ndim:
            b = b[:, None]
        return a, b

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        a, b = self._paired(other)
        return FourierSeries._adopt(a + b)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        a, b = self._paired(other)
        return FourierSeries._adopt(a - b)

    def __neg__(self) -> "FourierSeries":
        return FourierSeries._adopt(-self.coeffs)

    def __mul__(self, scalar) -> "FourierSeries":
        """Scale by a number, or each column k by ``scalar[k]`` for a length-K row."""
        if isinstance(scalar, FourierSeries):
            raise TypeError("use multiply(f, g) for series products")
        if np.ndim(scalar) == 0:
            return FourierSeries._adopt(self.coeffs * complex(scalar))
        column = self.coeffs if self.coeffs.ndim == 2 else self.coeffs[:, None]
        return FourierSeries(column * np.asarray(scalar))

    __rmul__ = __mul__

    def derivative(self) -> "FourierSeries":
        factor = TWO_PI * 1j * self.modes()
        return FourierSeries._adopt(self.coeffs * _along_modes(factor, self.coeffs.ndim))

    def antiderivative_zero_mean(self) -> "FourierSeries":
        """P int P: divide mode n != 0 by 2 pi i n, send the mean to zero."""
        n = self.modes().astype(np.complex128)
        n[self.truncation] = 1.0  # avoid 0/0; the slot is zeroed below
        out = self.coeffs / _along_modes(TWO_PI * 1j * n, self.coeffs.ndim)
        out[self.truncation] = 0.0
        return FourierSeries._adopt(out)

    def conj(self) -> "FourierSeries":
        """Series of the complex-conjugate function."""
        return FourierSeries._adopt(np.conj(self.coeffs[::-1]))

    def inner(self, other: "FourierSeries") -> complex:
        """<f, g> = int f conj(g) = sum_n c_n conj(d_n)."""
        self._require_same_window(other)
        return complex(np.vdot(other.coeffs, self.coeffs))

    def resample(self, truncation: int) -> "FourierSeries":
        """Pad with zeros or drop outer modes to reach the given window."""
        m = self.truncation
        if truncation == m:
            return self
        if truncation > m:
            return FourierSeries._adopt(_pad_modes(self.coeffs, truncation - m))
        cut = m - truncation
        return FourierSeries._adopt(self.coeffs[cut:-cut])

    def evaluate(self, x):
        """Evaluate the trigonometric polynomial at points x (scalar or array)."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        vals = phases(xs, self.truncation) @ self.coeffs
        return vals[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else vals


def phases(xs: np.ndarray, truncation: int) -> np.ndarray:
    """The matrix exp(2 pi i x_j n) for the points ``xs`` and the modes n of
    the window: times a coefficient vector, the series' values at xs."""
    return np.exp(TWO_PI * 1j * np.outer(xs, np.arange(-truncation, truncation + 1)))


def _pad_modes(coeffs: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad ``pad`` modes on both ends of axis 0."""
    out = np.zeros((coeffs.shape[0] + 2 * pad,) + coeffs.shape[1:], dtype=coeffs.dtype)
    out[pad : pad + coeffs.shape[0]] = coeffs
    return out


def _convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Linear convolution along axis 0; at most one operand is a block.

    A single profile times a block is a shift-and-add over the profile's
    nonzero coefficients: background profiles have only a few.
    """
    if f.ndim == 1 and g.ndim == 1:
        return np.convolve(f, g)
    if f.ndim == 2 and g.ndim == 2:
        raise ValueError("a product of two blocks is not linear in the block")
    profile, block = (f, g) if f.ndim == 1 else (g, f)
    width = block.shape[0]
    out = np.zeros((profile.size + width - 1, block.shape[1]), dtype=np.complex128)
    for j in np.flatnonzero(profile):
        out[j : j + width] += profile[j] * block
    return out


def multiply(f: FourierSeries, g: FourierSeries) -> FourierSeries:
    """Exact product of two series by linear convolution, at its natural
    window M_f + M_g: no information is lost."""
    return FourierSeries._adopt(_convolve(f.coeffs, g.coeffs))


def integrate_product(f: FourierSeries, g: FourierSeries):
    """int f g dx (no conjugation) = sum_n c_n d_{-n}; windows may differ.

    A number for two single series, a length-K row when one is a block.
    """
    m = min(f.truncation, g.truncation)
    fc = f.resample(m).coeffs
    gc = g.resample(m).coeffs
    if fc.ndim == 1 and gc.ndim == 1:
        return complex(np.dot(fc, gc[::-1]))
    if fc.ndim == 2:  # the pairing is symmetric; put the block second
        fc, gc = gc, fc
    return np.dot(fc, gc[::-1])


def inverse_collocation(samples) -> FourierSeries:
    """Recover coefficients from uniform samples by discrete transform, on the
    largest alias-free window M = (n_points - 2) // 2."""
    samples = np.asarray(samples, dtype=np.complex128)
    n = samples.size
    truncation = max((n - 2) // 2, 0)
    fhat = np.fft.fft(samples) / n
    modes = np.arange(-truncation, truncation + 1)
    return FourierSeries(fhat[modes % n])
