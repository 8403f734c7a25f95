import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from taylorlab.errors import TruncationMismatch
from taylorlab.fourier import (
    TWO_PI,
    FourierSeries,
    integrate_product,
    inverse_collocation,
    multiply,
)

from conftest import (
    allclose,
    is_real,
    multiplication_matrix,
    random_series,
    remove_mean,
    series_from_triples,
)


def grid(n):
    return np.arange(n) / n


# ----------------------------------------------------------------------
# oracles: quadrature and direct convolution
# ----------------------------------------------------------------------


def test_integrate_product_matches_quadrature():
    rng = np.random.default_rng(0)
    f = random_series(6, rng)
    g = random_series(9, rng)
    # a uniform grid beyond the combined window integrates trigonometric
    # polynomials exactly
    x = grid(64)
    quad = np.mean(f.evaluate(x) * g.evaluate(x))
    assert abs(integrate_product(f, g) - quad) < 1e-13


def test_multiply_matches_direct_convolution():
    rng = np.random.default_rng(1)
    f = random_series(5, rng)
    g = random_series(7, rng)
    prod = multiply(f, g)
    assert prod.truncation == 12
    for n in range(-12, 13):
        direct = sum(
            f.coefficient(k) * g.coefficient(n - k)
            for k in range(max(-5, n - 7), min(5, n + 7) + 1)
        )
        assert abs(prod.coefficient(n) - direct) < 1e-14


def test_exponential_of_sine_matches_bessel():
    # f(x) = exp(i sin 2 pi x) has coefficients J_n(1); 256 samples give
    # the window M = 127
    samples = np.exp(1j * np.sin(TWO_PI * grid(256)))
    f = inverse_collocation(samples)
    assert f.truncation == 127
    for n in range(0, 20):
        assert abs(f.coefficient(n) - jv(n, 1.0)) < 1e-14
    x = grid(97)
    assert np.max(np.abs(f.evaluate(x) - np.exp(1j * np.sin(TWO_PI * x)))) < 1e-12


def test_multiplication_matrix_is_the_product():
    rng = np.random.default_rng(2)
    f = random_series(8, rng)
    g = random_series(8, rng)
    mat = multiplication_matrix(g, 8)
    via_matrix = mat @ f.coeffs
    direct = multiply(f, g).resample(8)
    assert np.max(np.abs(via_matrix - direct.coeffs)) < 1e-14


def test_multiplication_matrix_window_narrower_than_profile():
    # the profile reaches past twice the window: entries come from its inner modes
    rng = np.random.default_rng(10)
    f = random_series(3, rng)
    g = random_series(8, rng)
    via_matrix = multiplication_matrix(g, 3) @ f.coeffs
    assert np.max(np.abs(via_matrix - multiply(f, g).resample(3).coeffs)) < 1e-14


# ----------------------------------------------------------------------
# calculus and inner products
# ----------------------------------------------------------------------


def test_derivative_of_cosine():
    c = FourierSeries.cosine(3, 8)
    expected = FourierSeries.sine(3, 8, amplitude=-3 * TWO_PI)
    assert allclose(c.derivative(), expected, tol=1e-14)


def test_antiderivative_inverts_derivative_on_zero_mean():
    rng = np.random.default_rng(3)
    f = remove_mean(random_series(10, rng))
    assert allclose(f.derivative().antiderivative_zero_mean(), f, tol=1e-13)
    assert f.antiderivative_zero_mean().mean() == 0


def test_inner_is_hermitian_and_orthonormal():
    e2 = FourierSeries.exponential(2, 4)
    e3 = FourierSeries.exponential(3, 4)
    assert e2.inner(e2) == 1
    assert e2.inner(e3) == 0
    rng = np.random.default_rng(4)
    f, g = random_series(4, rng), random_series(4, rng)
    assert abs(f.inner(g) - np.conj(g.inner(f))) < 1e-15
    # antilinear in the second slot
    assert abs(f.inner(g * 2j) - (-2j) * f.inner(g)) < 1e-14


def test_conj_represents_conjugate_function():
    rng = np.random.default_rng(5)
    f = random_series(6, rng)
    x = grid(31)
    assert np.max(np.abs(f.conj().evaluate(x) - np.conj(f.evaluate(x)))) < 1e-13


def test_is_real_flags():
    assert is_real(FourierSeries.cosine(2, 4))
    assert is_real(FourierSeries.sine(1, 4))
    assert not is_real(FourierSeries.exponential(1, 4))


# ----------------------------------------------------------------------
# windows and resampling
# ----------------------------------------------------------------------


def test_same_window_arithmetic_is_strict():
    f = FourierSeries.cosine(1, 4)
    g = FourierSeries.cosine(1, 5)
    with pytest.raises(TruncationMismatch):
        f + g
    with pytest.raises(TruncationMismatch):
        f - g
    assert allclose(f + g.resample(4), f * 2)


def test_construction_copies_and_results_are_frozen():
    coeffs = np.array([1.0, 2.0 - 1j, 3.0], dtype=np.complex128)
    f = FourierSeries(coeffs)
    coeffs[1] = 99.0  # the caller's array, mutated after construction
    assert f.coefficient(0) == 2.0 - 1j
    g = FourierSeries.cosine(1, 1)
    results = (f + g, f - g, -f, 2 * f, f.derivative(), f.conj(),
               f.antiderivative_zero_mean(), remove_mean(f), f.resample(3),
               f.resample(0), multiply(f, g), multiply(f, g).resample(1),
               multiply(f, g).resample(3))
    for series in results:
        assert not series.coeffs.flags.writeable
        assert series.coeffs.dtype == np.complex128
    assert f.coefficient(0) == 2.0 - 1j


def test_resample_pad_and_cut():
    rng = np.random.default_rng(6)
    f = random_series(5, rng)
    assert allclose(f.resample(9).resample(5), f, tol=0)
    cut = f.resample(3)
    assert cut.truncation == 3
    assert cut.coefficient(3) == f.coefficient(3)


def test_scalar_product_guard():
    f = FourierSeries.cosine(1, 2)
    with pytest.raises(TypeError):
        f * f


# ----------------------------------------------------------------------
# property-based spot checks
# ----------------------------------------------------------------------

small_series = st.lists(
    st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
).map(lambda rows: series_from_triples([[n, re, im] for n, re, im in rows], truncation=4))


@settings(max_examples=40, deadline=None)
@given(small_series, small_series)
def test_multiply_commutes(f, g):
    assert allclose(multiply(f, g), multiply(g, f), tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_series)
def test_parseval_under_padding(f):
    assert abs(f.norm() - f.resample(11).norm()) < 1e-12


@settings(max_examples=40, deadline=None)
@given(small_series, small_series)
def test_integration_by_parts(f, g):
    lhs = integrate_product(f.derivative(), g)
    rhs = -integrate_product(f, g.derivative())
    assert abs(lhs - rhs) < 1e-10


# ----------------------------------------------------------------------
# batch axis: a block of K series acts column by column
# ----------------------------------------------------------------------


def test_block_operations_act_column_by_column():
    rng = np.random.default_rng(9)
    profile = random_series(3, rng)
    cols = [random_series(4, rng) for _ in range(9)]  # K = 9 = 2M+1: no axis mix-up
    block = FourierSeries(np.column_stack([c.coeffs for c in cols]))
    row = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    single = random_series(4, rng)

    pairs = [
        (multiply(block, profile), [multiply(c, profile) for c in cols]),
        (multiply(profile, block), [multiply(profile, c) for c in cols]),
        (block.derivative(), [c.derivative() for c in cols]),
        (block.antiderivative_zero_mean(), [c.antiderivative_zero_mean() for c in cols]),
        (block.resample(7), [c.resample(7) for c in cols]),
        (block.resample(2), [c.resample(2) for c in cols]),
        (block + single, [c + single for c in cols]),
        (single - block, [single - c for c in cols]),
        (row * block, [z * c for z, c in zip(row, cols)]),
        (row * single, [z * single for z in row]),
        (FourierSeries.constant(row, 4), [FourierSeries.constant(z, 4) for z in row]),
    ]
    for batched, per_column in pairs:
        assert batched.coeffs.shape == (per_column[0].coeffs.size, 9)
        for k, expected in enumerate(per_column):
            assert allclose(FourierSeries(batched.coeffs[:, k]), expected, tol=1e-14)

    for k, c in enumerate(cols):
        assert abs(integrate_product(profile, block)[k] - integrate_product(profile, c)) < 1e-14
        assert abs(integrate_product(block, profile)[k] - integrate_product(c, profile)) < 1e-14
        assert block.mean()[k] == c.mean()
    with pytest.raises(ValueError):
        multiply(block, block)
