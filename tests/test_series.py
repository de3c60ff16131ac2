import numpy as np
import pytest

from logconn import (
    MatrixSeries,
    NegativeValuationError,
    WeightDiagonal,
    twist,
)
from logconn.series import ShapeMismatchError, SingularLeadingCoefficientError


def rand_series(rng, order, dout, din=None):
    din = dout if din is None else din
    return MatrixSeries(rng.normal(size=(order + 1, dout, din)) + 1j * rng.normal(size=(order + 1, dout, din)))


def test_mul_identity_and_add_cancel(rng):
    s = rand_series(rng, 4, 3)
    ident = MatrixSeries.identity(3, 4)
    assert (ident * s).allclose(s)
    assert (s * ident).allclose(s)
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
    assert out.truncated
    same = a * rand_series(rng, 5, 2)
    assert not same.truncated


def test_ring_laws_coefficientwise(rng):
    for _ in range(10):
        n = int(rng.integers(0, 6))
        a, b, c = (rand_series(rng, n, 3) for _ in range(3))
        assert ((a * b) * c).allclose(a * (b * c), atol=1e-10)
        assert (a * (b + c)).allclose(a * b + a * c, atol=1e-10)
        assert ((a + b) * c).allclose(a * c + b * c, atol=1e-10)


def test_inverse_identity_and_geometric():
    ident = MatrixSeries.identity(3, 5)
    assert ident.inverse().allclose(ident)
    e = np.array([[0.0, 1.0], [0.5, 0.0]])
    s = MatrixSeries(np.array([np.eye(2), e, np.zeros((2, 2)), np.zeros((2, 2))]))
    inv = s.inverse()
    # geometric series: I - zE + z^2 E^2 - z^3 E^3
    for j in range(4):
        assert np.allclose(inv.coeffs[j], (-1) ** j * np.linalg.matrix_power(e, j))


def test_inverse_multiplies_back(rng):
    # oracle: the defining property, checked coefficientwise
    s = MatrixSeries(
        np.concatenate([[np.diag([2.0, 4.0]).astype(complex)], np.ones((3, 2, 2), dtype=complex)])
    )
    inv = s.inverse()
    prod = s * inv
    assert np.allclose(prod.coeffs[0], np.eye(2), atol=1e-12)
    assert np.max(np.abs(prod.coeffs[1:])) < 1e-12
    prod2 = inv * s
    assert np.allclose(prod2.coeffs[0], np.eye(2), atol=1e-12)
    assert np.max(np.abs(prod2.coeffs[1:])) < 1e-12


def test_inverse_two_sided_random(rng):
    for _ in range(20):
        n = int(rng.integers(0, 8))
        s = rand_series(rng, n, int(rng.integers(1, 5)))
        s = s + MatrixSeries.constant(3 * np.eye(s.dim_out), n)  # keep leading term tame
        inv = s.inverse()
        prod = s * inv
        assert np.allclose(prod.coeffs[0], np.eye(s.dim_out), atol=1e-12)
        if n:
            assert np.max(np.abs(prod.coeffs[1:])) < 1e-12


def test_inverse_singular_leading():
    s = MatrixSeries.constant(np.array([[1.0, 1.0], [1.0, 1.0]]), 2)
    with pytest.raises(SingularLeadingCoefficientError):
        s.inverse()


def test_shape_mismatch():
    a = MatrixSeries.identity(2)
    b = MatrixSeries.identity(3)
    with pytest.raises(ShapeMismatchError):
        a * b
    with pytest.raises(ShapeMismatchError):
        a + b


def test_twist_identity_fixed():
    phi = WeightDiagonal((2, 0, -1))
    ident = MatrixSeries.identity(3, 4)
    out, val = twist(ident, phi, phi)
    assert out.allclose(ident)
    assert val == 0


def test_twist_block_triangular_polynomial():
    phi_out = WeightDiagonal((1, 0))
    phi_in = WeightDiagonal((0, 0))
    c = np.array([[1.0, 2.0], [0.0, 3.0]])  # zero where phi^i < phi'^m would pole
    out, val = twist(MatrixSeries.constant(c, 2), phi_out, phi_in)
    assert val == 0
    assert np.allclose(out.coeffs[0], np.diag([0.0, 0.0]) + np.array([[0, 0], [0, 3.0]]))
    assert np.allclose(out.coeffs[1], np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_twist_detects_poles():
    c = MatrixSeries.constant(np.ones((2, 2)), 1)
    with pytest.raises(NegativeValuationError) as err:
        twist(c, WeightDiagonal((0, 0)), WeightDiagonal((1, 1)))
    assert err.value.min_valuation == -1


def test_twist_round_trip(rng):
    s = rand_series(rng, 3, 3, 2)
    phi_out = WeightDiagonal((1, 0, 0))
    phi_in = WeightDiagonal((1, -1))
    coeffs = s.coeffs.copy()
    coeffs[:, 1:, 0] = 0.0  # entries whose shift is negative must vanish
    s = MatrixSeries(coeffs)
    twisted, _ = twist(s, phi_out, phi_in)
    # undo with negated raw weight vectors; entries surviving both
    # truncations must come back exactly
    back, _ = twist(twisted, [-p for p in phi_out.entries], [-p for p in phi_in.entries])
    n = min(back.order, s.order)
    assert np.allclose(back.coeffs[: n + 1], s.coeffs[: n + 1])


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


def _twist_reference(coeffs, shifts, out_order):
    """The twisted copy entry by entry: coefficient j of entry (i, m) moves to j + shift."""
    out = np.zeros((out_order + 1,) + coeffs.shape[1:], dtype=np.complex128)
    for i in range(coeffs.shape[1]):
        for m in range(coeffs.shape[2]):
            for j in range(coeffs.shape[0]):
                if 0 <= j + shifts[i, m] <= out_order:
                    out[j + shifts[i, m], i, m] = coeffs[j, i, m]
    return out


def test_mul_and_twist_match_loop_references(rng):
    for _ in range(10):
        n = int(rng.integers(0, 7))
        dout, dmid, din = (int(x) for x in rng.integers(1, 5, size=3))
        a = rand_series(rng, n, dout, dmid)
        b = rand_series(rng, int(rng.integers(0, 7)), dmid, din)
        # the einsum sums in another order: agree to a few ulps of the term sizes
        assert np.max(np.abs((a * b).coeffs - _mul_reference(a, b))) <= 1e-13 * (n + 1) * dmid
        po = sorted(rng.integers(-2, 3, size=dout).tolist(), reverse=True)
        pi = sorted(rng.integers(-2, 3, size=dmid).tolist(), reverse=True)
        shifts = np.subtract.outer(po, pi)
        coeffs = a.coeffs.copy()
        for i, m in zip(*np.nonzero(shifts < 0)):
            coeffs[: -shifts[i, m], i, m] = 0.0  # no poles
        twisted, _ = twist(MatrixSeries(coeffs), po, pi)
        assert np.array_equal(twisted.coeffs, _twist_reference(coeffs, shifts, twisted.order))
