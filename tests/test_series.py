import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logconn.series as series
from logconn import MatrixSeries, SplittingType, WeightDiagonal, bq_frame
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
        # the einsum sums in another order: agree to a few ulps of the term sizes
        assert np.max(np.abs((a * b).coeffs - _mul_reference(a, b))) <= 1e-13 * (n + 1) * dmid


def _mul_full_einsum(a, b):
    """The Cauchy product as one einsum per degree over every coefficient pair."""
    n = min(a.order, b.order)
    out = np.array([np.einsum("kab,kbc->ac", a.coeffs[: j + 1], b.coeffs[j::-1]) for j in range(n + 1)])
    return MatrixSeries(out)


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
def test_mul_skips_zero_tails_bit_for_bit(seed, orders, dims, tails):
    # summing each degree only up to each operand's last nonzero
    # coefficient drops exactly zero products, which leave the sum's bits
    # unchanged; a tail index past the order keeps every coefficient
    rng = np.random.default_rng(seed)
    p, q, s = dims
    a = MatrixSeries(_zero_tail(rng, orders[0], (p, q), tails[0]))
    b = MatrixSeries(_zero_tail(rng, orders[1], (q, s), tails[1]))
    out, ref = a * b, _mul_full_einsum(a, b)
    assert out.order == min(orders)
    assert np.array_equal(out.coeffs.view(np.int64), ref.coeffs.view(np.int64))
    assert series.last_nonzero(a.coeffs) == min(tails[0], orders[0] + 1) - 1


def test_bq_frame_residual_is_unchanged_by_the_zero_tail_product(rng, monkeypatch):
    # bq_frame multiplies its gauge b, padded with zeros to the frame's
    # order, by the frame series
    cases = [(SplittingType(c), order) for c in ((2, 1, 0), (3, 1, 0, 0), (4, 2, 1)) for order in (4, 8)]
    frames = []
    for c, order in cases:
        q = MatrixSeries(rng.normal(size=(order + 1, c.rank, c.rank)) + 1j * rng.normal(size=(order + 1, c.rank, c.rank)))
        frames.append((c, q, bq_frame(c, q)))
    monkeypatch.setattr(MatrixSeries, "__mul__", _mul_full_einsum)
    for c, q, frame in frames:
        ref = bq_frame(c, q)
        assert frame.perm == ref.perm
        assert np.array_equal(frame.b.coeffs.view(np.int64), ref.b.coeffs.view(np.int64))
        assert np.float64(frame.residual).view(np.int64) == np.float64(ref.residual).view(np.int64)
