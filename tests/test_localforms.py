import numpy as np

from logconn import (
    LocalLogConnection,
    MatrixSeries,
    WeightDiagonal,
    convergence_diagnostic,
    fundamental_check,
    gauge_residual,
    integer_weights,
    morphism_weight_check,
    normal_form,
)
from logconn.localforms import arranged_series
from logconn.verify import circle_loop, integrate_local

from conftest import random_connection

TWO_PI_I = 2j * np.pi


def test_integer_weights_examples():
    assert integer_weights(np.array([[0.0]])).entries == (0,)
    assert integer_weights(np.array([[-1.5]])).entries == (1,)
    assert integer_weights(np.array([[0.3 + 2.0j]])).entries == (-1,)
    phi = integer_weights(np.diag([0.3, -1.5, 2.25]))
    assert phi.entries == (1, -1, -3)


def test_normal_form_zero_connection():
    conn = LocalLogConnection.constant(np.zeros((2, 2)), order=3)
    nf = normal_form(conn)
    assert np.allclose(nf.m.coeffs[0], np.eye(2))
    assert np.max(np.abs(nf.m.coeffs[1:])) < 1e-14
    assert np.allclose(nf.k, 0.0)
    assert nf.phi.entries == (0, 0)


def test_normal_form_constant_diagonal():
    lams = [0.3, -1.5, 2.25]
    conn = LocalLogConnection.constant(np.diag(lams), order=2)
    nf = normal_form(conn)
    assert nf.phi.entries == (1, -1, -3)
    # K = -(A0 + Phi) after the sorting gauge: eigenvalues normalized
    ev = np.sort(np.linalg.eigvals(nf.k).real)
    assert np.allclose(ev, np.sort([-l - p for l, p in zip([-1.5, 0.3, 2.25], (1, -1, -3))]))
    assert np.all(np.linalg.eigvals(nf.k).real >= -1e-12)
    assert np.all(np.linalg.eigvals(nf.k).real < 1)
    assert gauge_residual(conn, nf) < 1e-12
    assert np.max(np.abs(nf.m.coeffs[1:])) < 1e-14


def test_normal_form_resonant_example():
    # eigenvalues -1 and 0 differ by the weight gap: resonant
    conn = LocalLogConnection.constant(np.array([[-1.0, 1.0], [0.0, 0.0]]), order=4)
    nf = normal_form(conn)
    assert nf.phi.entries == (1, 0)
    assert gauge_residual(conn, nf) < 1e-12
    # oracle: integrate the original system around |z|=1/2 and compare with
    # exp(2 pi i K) conjugated by the full gauge frame
    assert fundamental_check(nf, 1e-7, conn=conn)


def test_gauge_residual_random(rng):
    for trial in range(25):
        r = int(rng.integers(1, 6))
        order = int(rng.integers(0, 15))
        conn = random_connection(rng, r, order, resonant=(trial % 2 == 0))
        nf = normal_form(conn)
        scale = max(np.linalg.norm(c, 2) for c in conn.a.coeffs)
        assert gauge_residual(conn, nf) <= 1e-9 * scale
        ev = np.linalg.eigvals(nf.k)
        assert np.all(ev.real >= -1e-8) and np.all(ev.real < 1.0)
        # block-upper-triangular K
        slices = nf.phi.block_slices
        for i in range(len(slices)):
            for m in range(i):
                assert np.max(np.abs(nf.k[slices[i], slices[m]])) < 1e-10


def test_residue_consistency(rng):
    # eigenvalues of B(0) match eigenvalues of the arranged residue
    for trial in range(10):
        conn = random_connection(rng, int(rng.integers(2, 5)), 6, resonant=True)
        nf = normal_form(conn)
        b0 = nf.b.coeffs[0]
        ev_b = np.sort_complex(np.linalg.eigvals(b0))
        ev_a = np.sort_complex(np.linalg.eigvals(conn.a.coeffs[0]))
        assert np.max(np.abs(ev_b - ev_a)) < 1e-7 * max(1, np.max(np.abs(ev_a)))


def test_fundamental_check_examples(rng):
    # K = 0, Phi = 0: loop matrix is the identity
    conn = LocalLogConnection.constant(np.zeros((2, 2)), order=1)
    nf = normal_form(conn)
    assert fundamental_check(nf, 1e-7)
    # diagonal K = diag(1/4): loop is exp(2 pi i / 4) I
    conn = LocalLogConnection.constant(np.array([[-0.25]]), order=0)
    nf = normal_form(conn)
    assert np.allclose(nf.k, [[0.25]])
    got = integrate_local(nf.b, circle_loop(0.0, 0.5))
    assert abs(got[0, 0] - np.exp(TWO_PI_I * 0.25)) < 1e-8
    assert fundamental_check(nf, 1e-7)


def test_fundamental_check_against_original_connection(rng):
    # integrating the original system must match the fully assembled frame
    # T M(z0) z0^Phi z0^K; the gauge polynomial is accurate only inside the
    # series' disc, so the circle sits at 0.4 with the tolerance to match
    for trial in range(4):
        conn = random_connection(rng, int(rng.integers(2, 4)), 16, resonant=(trial % 2 == 0))
        nf = normal_form(conn)
        assert fundamental_check(nf, 1e-5, conn=conn, radius=0.4)


def test_fundamental_check_detects_corruption(rng):
    conn = random_connection(rng, 3, 6)
    nf = normal_form(conn)
    assert fundamental_check(nf, 1e-7)
    bad = NormalFormLike(nf, nf.k + np.diag([0.1, 0, 0]))
    assert not fundamental_check(bad, 1e-7)


class NormalFormLike:
    """Normal form with a corrupted K but the original stored B."""

    def __init__(self, nf, k):
        self.m = nf.m
        self.k = k
        self.phi = nf.phi
        self.t = nf.t
        self.b = nf.b
        self.warnings = nf.warnings


def test_idempotence_on_canonical_output(rng):
    for trial in range(8):
        conn = random_connection(rng, int(rng.integers(1, 5)), 6, resonant=True)
        nf = normal_form(conn)
        again = normal_form(LocalLogConnection(nf.b))
        assert np.allclose(again.t, np.eye(conn.rank), atol=1e-9)
        assert np.allclose(again.m.coeffs[0], np.eye(conn.rank), atol=1e-9)
        assert np.max(np.abs(again.m.coeffs[1:])) < 1e-8
        assert again.phi.entries == nf.phi.entries
        assert np.allclose(again.k, nf.k, atol=1e-8)


def test_convergence_diagnostic(rng):
    # constant connection: M = I, bounds trivially satisfied
    conn = LocalLogConnection.constant(np.diag([0.4, -0.7]), order=8)
    nf = normal_form(conn)
    rep = convergence_diagnostic(conn, nf, 0.01)
    assert rep.in_range and rep.all_ok
    # random with N = 30 at delta = eps0 / 4C
    conn = random_connection(rng, 3, 30)
    nf = normal_form(conn)
    probe = convergence_diagnostic(conn, nf, 0.0)
    delta = probe.eps0 / (4 * probe.big_c)
    rep = convergence_diagnostic(conn, nf, delta)
    assert rep.in_range
    assert len(rep.checks) > 0
    assert rep.all_ok
    # far outside the certified range
    rep = convergence_diagnostic(conn, nf, 10.0 * probe.eps0)
    assert not rep.in_range


def test_morphism_weight_check():
    phi = WeightDiagonal((1, 0))
    ident = MatrixSeries.identity(2, 2)
    assert morphism_weight_check(ident, phi, phi)
    # a constant block at source weight above target weight must fail
    bad = MatrixSeries.constant(np.array([[0.0, 0.0], [1.0, 0.0]]), 2)
    assert not morphism_weight_check(bad, phi, phi)


def test_morphism_weight_check_from_intertwiner(rng):
    # an injection of weighted local systems: embed a line of weight 1
    # into a plane with weights (1, 0); the intertwiner is the inclusion
    phi_src = WeightDiagonal((1,))
    phi_tgt = WeightDiagonal((1, 0))
    inclusion = MatrixSeries.constant(np.array([[1.0], [0.0]]), 3)
    assert morphism_weight_check(inclusion, phi_src, phi_tgt)
    # the same inclusion into the weight-0 slot decreases weights
    bad = MatrixSeries.constant(np.array([[0.0], [1.0]]), 3)
    assert not morphism_weight_check(bad, phi_src, phi_tgt)


def test_gauge_relation_definition(rng):
    # z M' = M B - A_arr M coefficientwise, written out directly once
    conn = random_connection(rng, 3, 5)
    nf = normal_form(conn)
    a_arr = arranged_series(conn, nf)
    lhs = nf.m.z_derivative()
    rhs = nf.m * nf.b.truncate(conn.order).pad(conn.order) - a_arr * nf.m
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs[: lhs.order + 1])) < 1e-10


def test_fundamental_check_to_roundoff(rng):
    # the transport sums every step to roundoff, so the loop reproduces
    # Y0 exp(2 pi i K) far below the default threshold
    for r, order in ((2, 10), (5, 20), (8, 30)):
        for resonant in (False, True):
            nf = normal_form(random_connection(rng, r, order, resonant=resonant))
            assert fundamental_check(nf, 1e-13)
