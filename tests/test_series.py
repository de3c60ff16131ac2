import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logconn.series as series
from logconn import MatrixSeries, WeightDiagonal
from logconn.series import ShapeMismatchError

from conftest import series_allclose


def rand_series(rng, order, dout, din=None):
    din = dout if din is None else din
    return MatrixSeries(rng.normal(size=(order + 1, dout, din)) + 1j * rng.normal(size=(order + 1, dout, din)))


def test_mul_identity_and_add_cancel(rng):
    s = rand_series(rng, 4, 3)
    ident = MatrixSeries.identity(3, 4)
    assert series_allclose(ident * s, s)
    assert series_allclose(s * ident, s)
    zero = s + (-s)
    assert np.max(np.abs(zero.coeffs)) == 0.0


def test_monomial_product():
    zi = MatrixSeries(np.array([np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))]))
    prod = zi * zi
    assert prod.order == 2
    assert np.allclose(prod.coeffs[2], np.eye(2))
    assert np.allclose(prod.coeffs[:2], 0.0)


def test_order_mixing_truncates_and_flags(rng):
    a = rand_series(rng, 5, 2)
    b = rand_series(rng, 3, 2)
    out = a * b
    assert out.order == 3


def test_ring_laws_coefficientwise(rng):
    for _ in range(10):
        n = int(rng.integers(0, 6))
        a, b, c = (rand_series(rng, n, 3) for _ in range(3))
        assert series_allclose((a * b) * c, a * (b * c), atol=1e-10)
        assert series_allclose(a * (b + c), a * b + a * c, atol=1e-10)
        assert series_allclose((a + b) * c, a * c + b * c, atol=1e-10)


def test_shape_mismatch():
    a = MatrixSeries.identity(2)
    b = MatrixSeries.identity(3)
    with pytest.raises(ShapeMismatchError):
        a * b
    with pytest.raises(ShapeMismatchError):
        a + b


def test_weight_diagonal_blocks():
    phi = WeightDiagonal((3, 3, 1, 0, 0))
    assert phi.values == (3, 1, 0)
    assert phi.sizes == (2, 1, 2)
    assert phi.trace() == 7
    with pytest.raises(ValueError):
        WeightDiagonal((0, 1))


def _mul_reference(a, b):
    """The Cauchy product as the double loop over degrees."""
    n = min(a.order, b.order)
    out = np.zeros((n + 1, a.dim_out, b.dim_in), dtype=np.complex128)
    for j in range(n + 1):
        for k in range(j + 1):
            out[j] += a.coeffs[k] @ b.coeffs[j - k]
    return out


def test_mul_matches_the_loop_reference(rng):
    for _ in range(10):
        n = int(rng.integers(0, 7))
        dout, dmid, din = (int(x) for x in rng.integers(1, 5, size=3))
        a = rand_series(rng, n, dout, dmid)
        b = rand_series(rng, int(rng.integers(0, 7)), dmid, din)
        # the product sums in another order: agree to a few ulps of the term sizes
        assert np.max(np.abs((a * b).coeffs - _mul_reference(a, b))) <= 1e-13 * (n + 1) * dmid


def _mul_per_degree_blocks(a, b):
    """The Cauchy product with degree j as one product [A^0 ... A^j] [B^j; ...; B^0],
    both blocks built for that degree alone."""
    n = min(a.order, b.order)
    return np.array([np.hstack(a.coeffs[: j + 1]) @ np.vstack(b.coeffs[j::-1]) for j in range(n + 1)])


def _zero_tail(rng, order, shape, tail):
    coeffs = rng.normal(size=(order + 1,) + shape) + 1j * rng.normal(size=(order + 1,) + shape)
    coeffs[min(tail, order + 1) :] = 0.0
    return coeffs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    orders=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    tails=st.tuples(st.integers(0, 10), st.integers(0, 10)),
)
def test_mul_is_one_matrix_product_per_degree_bit_for_bit(seed, orders, dims, tails):
    # every degree runs over all its coefficient pairs, exact zeros
    # included, so its bits are those of its own two blocks wherever the
    # operands' nonzero coefficients end; a tail index past the order
    # keeps every coefficient
    rng = np.random.default_rng(seed)
    p, q, s = dims
    a = MatrixSeries(_zero_tail(rng, orders[0], (p, q), tails[0]))
    b = MatrixSeries(_zero_tail(rng, orders[1], (q, s), tails[1]))
    out = a * b
    assert out.order == min(orders)
    assert np.array_equal(out.coeffs.view(np.int64), _mul_per_degree_blocks(a, b).view(np.int64))
    assert series.last_nonzero(a.coeffs) == min(tails[0], orders[0] + 1) - 1


def _exact_parts(coeffs):
    """Real and imaginary parts of a coefficient stack as exact rationals."""
    return [[[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in c] for c in coeffs.tolist()]


def _operand(rng, order, shape, spread, zero):
    if zero:
        return MatrixSeries(np.zeros((order + 1,) + shape, dtype=np.complex128))
    scale = 2.0 ** rng.integers(-spread, spread + 1, size=(2, order + 1) + shape)
    return MatrixSeries(scale[0] * rng.normal(size=(order + 1,) + shape) + 1j * scale[1] * rng.normal(size=(order + 1,) + shape))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    orders=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    spread=st.integers(0, 30),
    zeros=st.sampled_from([(False, False), (True, False), (False, True), (True, True)]),
)
@example(seed=1, orders=(6, 4), dims=(3, 1, 2), spread=10, zeros=(False, False))
@example(seed=2, orders=(2, 5), dims=(1, 1, 1), spread=0, zeros=(True, False))
@example(seed=3, orders=(5, 5), dims=(2, 3, 2), spread=0, zeros=(True, True))
def test_mul_is_within_the_inner_product_bound_of_the_exact_product(seed, orders, dims, spread, zeros):
    # Entry (a, c) of degree j is an inner product of K = (j + 1) q complex
    # terms, so its real part is one of 2K real terms, sum ar br - ai bi
    # over the pairs, and its imaginary part one of sum ar bi + ai br.  In
    # any summation order, with or without fused multiply-adds, each real
    # term meets at most 2K roundings, so each part is within
    # gamma_2K = 2K u / (1 - 2K u) of the sum of its terms' moduli
    # (Higham, Accuracy and Stability, 2nd ed., section 3.1).  The exact
    # parts and the bound are rationals; an all-zero operand gives an
    # exactly zero product
    rng = np.random.default_rng(seed)
    p, q, s = dims
    a = _operand(rng, orders[0], (p, q), spread, zeros[0])
    b = _operand(rng, orders[1], (q, s), spread, zeros[1])
    out = a * b
    n = min(orders)
    assert out.order == n
    xa, xb, got = _exact_parts(a.coeffs[: n + 1]), _exact_parts(b.coeffs[: n + 1]), _exact_parts(out.coeffs)
    u = Fraction(1, 2**53)
    for j in range(n + 1):
        gamma = 2 * (j + 1) * q * u / (1 - 2 * (j + 1) * q * u)
        for i, k in itertools.product(range(p), range(s)):
            terms = [(xa[t][i][m], xb[j - t][m][k]) for t in range(j + 1) for m in range(q)]
            real = sum(ar * br - ai * bi for (ar, ai), (br, bi) in terms)
            imag = sum(ar * bi + ai * br for (ar, ai), (br, bi) in terms)
            assert abs(got[j][i][k][0] - real) <= gamma * sum(abs(ar * br) + abs(ai * bi) for (ar, ai), (br, bi) in terms)
            assert abs(got[j][i][k][1] - imag) <= gamma * sum(abs(ar * bi) + abs(ai * br) for (ar, ai), (br, bi) in terms)
