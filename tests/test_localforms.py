import itertools
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from logconn import (
    LocalLogConnection,
    MatrixSeries,
    WeightDiagonal,
    conjugacy_compare,
    convergence_diagnostic,
    fundamental_check,
    gauge_residual,
    integer_weights,
    normal_form,
)
import logconn.localforms as localforms
from logconn.eigen import CLUSTER_TOL
from logconn.localforms import arranged_series
from logconn.verify import circle_loop, integrate_local

from conftest import random_connection, random_invertible

TWO_PI_I = 2j * np.pi
EPS = np.finfo(float).eps


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


def test_gauge_relation_definition(rng):
    # z M' = M B - A_arr M coefficientwise, written out directly once
    conn = random_connection(rng, 3, 5)
    nf = normal_form(conn)
    a_arr = arranged_series(conn, nf.t)
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


def _mp_normal_form(conn, nf, resonance_sval=1e-8):
    """The normal_form recursion in mpmath at the working precision.

    Starts from nf's arranging gauge T (taken exactly) and solves every
    degree blockwise: SVD of the Kronecker block operator, cokernel
    correction on resonant blocks, minimum-norm solution.  Returns
    (K, M coefficients, smallest singular value kept over all blocks).
    """
    r, n = conn.rank, conn.order
    slices, values = nf.phi.block_slices, nf.phi.values
    t = mpmath.matrix(nf.t.tolist())
    t_inv = t**-1
    a = [t_inv * mpmath.matrix(c.tolist()) * t for c in conn.a.coeffs]
    k = mpmath.zeros(r, r)
    for sl, v in zip(slices, values):
        for p, q in itertools.product(range(sl.start, sl.stop), repeat=2):
            k[p, q] = -a[0][p, q] - (v if p == q else 0)
    m = [mpmath.eye(r)] + [mpmath.zeros(r, r) for _ in range(n)]
    b = [mpmath.zeros(r, r) for _ in range(n + 1)]
    smin = mpmath.inf
    for j in range(1, n + 1):
        rhs = -a[j]
        for kk in range(1, j):
            rhs += m[kk] * b[j - kk] - a[j - kk] * m[kk]
        for (i, si), (mm, sm) in itertools.product(enumerate(slices), repeat=2):
            ri, rm = range(si.start, si.stop), range(sm.start, sm.stop)
            di, dm = len(ri), len(rm)
            cells = [(p, q) for q in range(dm) for p in range(di)]  # column-major vec
            op = mpmath.matrix(di * dm, di * dm)
            for (row, (p, q)), (col, (p2, q2)) in itertools.product(enumerate(cells), repeat=2):
                left = (p == p2) * j + a[0][ri[p], ri[p2]]
                op[row, col] = (q == q2) * left - (p == p2) * a[0][rm[q2], rm[q]]
            rvec = mpmath.matrix([rhs[ri[p], rm[q]] for p, q in cells])
            u, svals, vh = mpmath.svd_c(op)
            cutoff = resonance_sval * max(1, svals[0])
            small = [idx for idx in range(len(svals)) if svals[idx] <= cutoff]
            kept = [idx for idx in range(len(svals)) if svals[idx] > cutoff]
            smin = min([smin] + [svals[idx] for idx in kept])
            assert values[i] - j == values[mm] or not small, "oracle input must not be near-resonant"
            for idx in small:
                bvec = -u[:, idx] * (u[:, idx].H * rvec)[0]
                rvec += bvec
                for cell, (p, q) in enumerate(cells):
                    b[j][ri[p], rm[q]] += bvec[cell]
                    k[ri[p], rm[q]] -= bvec[cell]
            x = mpmath.matrix(di * dm, 1)
            for idx in kept:
                x += vh.H[:, idx] * ((u[:, idx].H * rvec)[0] / svals[idx])
            for cell, (p, q) in enumerate(cells):
                m[j][ri[p], rm[q]] = x[cell]
    as_np = lambda x: np.array(x.tolist(), dtype=complex)
    return as_np(k), np.array([as_np(x) for x in m]), float(smin)


def test_normal_form_against_mpmath_recursion():
    # Independent oracle: the same recursion at 30 digits.  Each float
    # block solve is backward stable, so data perturbed by eps times the
    # coefficient norms c = sum norm(A_arr^j) + norm(B^j) moves M^j by at
    # most eps c max norm(M) / sigma_min (sigma_min: smallest singular
    # value kept over all block operators); forming T^-1 A T in float
    # adds a factor cond(T), and one degree's convolution sums up to
    # r n such products.  The bound below is that product; K (diagonal
    # blocks from the arranged residue, resonant blocks from cokernel
    # projections of the right side) is held to the same bound.
    rng = np.random.default_rng(7)
    tail = 0.5 * rng.normal(size=(6, 2, 2))
    cases = [LocalLogConnection(MatrixSeries(np.concatenate([[[[-1.0, 1.0], [0.0, 0.0]]], tail])))]
    for r in (2, 3):
        for resonant in (False, True):
            cases.append(random_connection(rng, r, 8, resonant=resonant))
    corrected = 0
    for conn in cases:
        nf = normal_form(conn)
        with mpmath.workdps(30):
            k_ref, m_ref, smin = _mp_normal_form(conn, nf)
        a_arr = arranged_series(conn, nf.t).coeffs
        c = np.linalg.norm(a_arr, 2, axis=(1, 2)).sum() + np.linalg.norm(nf.b.coeffs, 2, axis=(1, 2)).sum()
        mu = np.linalg.norm(m_ref, 2, axis=(1, 2)).max()
        bound = conn.rank * conn.order * EPS * np.linalg.cond(nf.t) * c * mu / smin
        assert np.linalg.norm(nf.k - k_ref, 2) <= bound
        assert np.linalg.norm(nf.m.coeffs - m_ref, 2, axis=(1, 2)).max() <= bound
        corrected += np.max(np.abs(np.triu(k_ref, 1))) > 0.01
    # the corpus reaches the resonant correction, not only plain solves
    assert corrected >= 2


def _draw_connection(seed, r, order, resonant, rho=0.5):
    return random_connection(np.random.default_rng(seed), r, order, rho=rho, resonant=resonant)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 4),
    order=st.integers(0, 12),
    resonant=st.booleans(),
)
def test_normal_form_properties(seed, r, order, resonant):
    conn = _draw_connection(seed, r, order, resonant)
    nf = normal_form(conn)
    # gauge relation at roundoff: coefficient j of z M' - M B + A_arr M
    # sums 2j + 1 products of r x r matrices, each off by at most
    # r^1.5 eps times its factors' norms (the recursion forms it once,
    # gauge_residual again), scaled by the largest such convolution
    na = np.linalg.norm(arranged_series(conn, nf.t).coeffs, 2, axis=(1, 2))
    nb = np.linalg.norm(nf.b.truncate(order).pad(order).coeffs, 2, axis=(1, 2))
    nm = np.linalg.norm(nf.m.coeffs, 2, axis=(1, 2))
    scale = max(nm[: j + 1] @ (na + nb)[j::-1] + j * nm[j] for j in range(order + 1))
    assert gauge_residual(conn, nf) <= 2 * (2 * order + 3) * r**1.5 * EPS * scale
    # K is block-upper-triangular: its spectrum is that of its diagonal
    # blocks, -lambda - floor(-Re lambda) up to the integer snap at tol
    spec = np.concatenate([np.linalg.eigvals(nf.k[sl, sl]) for sl in nf.phi.block_slices])
    assert np.all(spec.real >= -CLUSTER_TOL) and np.all(spec.real < 1.0)
    # a constant gauge G of the input keeps Phi and K's conjugacy class
    g = random_invertible(np.random.default_rng(seed + 1), r)
    moved = normal_form(LocalLogConnection(MatrixSeries(np.linalg.inv(g) @ conn.a.coeffs @ g)))
    assert moved.phi.entries == nf.phi.entries
    assert conjugacy_compare([nf.k], [moved.k])[0]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 4),
    order=st.integers(16, 24),
    resonant=st.booleans(),
)
def test_fundamental_check_against_connection_property(seed, r, order, resonant):
    # M is evaluated as its truncating polynomial at z0 = 0.5; with tail
    # coefficients of size 0.25^j its remainder there is far below the
    # default 1e-7 threshold from order 16 on
    conn = _draw_connection(seed, r, order, resonant, rho=0.25)
    assert fundamental_check(normal_form(conn), conn=conn)


def _weyl_window(conn, nf, resonance_sval=1e-8):
    """Largest degree j with j - s <= resonance_sval max(1, j + s)."""
    s = 2.0 * np.linalg.norm(arranged_series(conn, nf.t).coeffs[0], 2)
    return max(j for j in range(conn.order + 1) if j - s <= resonance_sval * max(1.0, j + s))


def test_near_resonant_warning_wording():
    # classes at -Re lambda = j + 1 and 1 - 1e-9 (tol 1e-12 keeps them
    # apart): the block (0, 1) operator at degree j is j + lambda_0 -
    # lambda_1 = -1e-9, not resonant (weights j + 1 and 0), so it is
    # solved by truncated SVD with this warning
    dropped = {1: "2.429e-01", 2: "1.457e-01", 3: "2.429e-03"}
    g = np.array([[1.0, 0.5], [0.25, 1.0]])
    tail = np.array([[[0.3, -0.2], [0.1, 0.4]], [[0.05, 0.1], [-0.2, 0.15]]])
    for j, residual in dropped.items():
        a0 = np.diag([-(j + 1.0), -(1.0 - 1e-9)])
        coeffs = np.linalg.inv(g) @ np.concatenate([[a0], tail, np.zeros((10, 2, 2))]) @ g
        conn = LocalLogConnection(MatrixSeries(coeffs))
        nf = normal_form(conn, tol=1e-12)
        assert nf.phi.entries == (j + 1, 0)
        assert nf.warnings == (
            f"near-resonant block (i=0, m=1, j={j}): "
            f"smallest singular value 1.000e-09, dropped residual {residual}",
        )
        assert j <= _weyl_window(conn, nf) < conn.order


def test_no_warning_past_weyl_window(rng):
    # past the window every block operator's singular values exceed the
    # cutoff (Weyl), so no block there can be near-resonant; near-resonant
    # pairs at degree j (eigenvalues -(j + 1) and -(1 - 1e-9)) inside
    # random conjugated connections warn only inside it
    seen = 0
    for trial in range(12):
        j = int(rng.integers(1, 5))
        extra = rng.uniform(-2.0, 0.0, size=trial % 3) + 1j * rng.uniform(-0.5, 0.5, size=trial % 3)
        lam = np.concatenate([[-(j + 1.0), -(1.0 - 1e-9)], extra])
        r = len(lam)
        g = random_invertible(rng, r)
        coeffs = random_connection(rng, r, 12).a.coeffs.copy()
        coeffs[0] = g @ np.diag(lam) @ np.linalg.inv(g)
        conn = LocalLogConnection(MatrixSeries(coeffs))
        nf = normal_form(conn, tol=1e-12)
        window = _weyl_window(conn, nf)
        assert window < conn.order
        for text in nf.warnings:
            seen += 1
            assert int(re.search(r"j=(\d+)\)", text).group(1)) <= window
    assert seen >= 12


def test_integrate_local_ignores_zero_padding(rng):
    conn = random_connection(rng, 3, 4)
    padded = conn.a.pad(30)
    loop = circle_loop(0.0, 0.5)
    y0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.all(integrate_local(padded, loop, y0=y0) == integrate_local(conn.a, loop, y0=y0))
    nf = normal_form(conn)
    gap = max(nf.phi.entries) - min(nf.phi.entries)
    assert nf.b.order > gap
    assert np.all(integrate_local(nf.b, loop) == integrate_local(nf.b.truncate(gap), loop))


# --------------------------------------------------------------------------
# the screened triangular solves against the per-block and per-coefficient loops


def _normal_form_per_block(conn, tol=CLUSTER_TOL, resonance_sval=1e-8):
    """The recursion with one Kronecker operator and one SVD per block and degree.

    Returns the normal form and the smallest singular value kept over
    all block operators.
    """
    r, n = conn.rank, conn.order
    t_total, a0_arr, phi = localforms._arranging_gauge(conn.residue, tol)
    a_arr = arranged_series(conn, t_total).coeffs
    slices, values = phi.block_slices, phi.values
    l = len(values)
    k = np.zeros((r, r), dtype=np.complex128)
    for mdx, sl in enumerate(slices):
        k[sl, sl] = -a0_arr[sl, sl] - values[mdx] * np.eye(sl.stop - sl.start)
    b = np.zeros((n + 1, r, r), dtype=np.complex128)
    m = np.zeros((n + 1, r, r), dtype=np.complex128)
    m[0] = np.eye(r)
    warnings = []
    smin = np.inf
    for j in range(1, n + 1):
        terms = m[1:j] @ b[j - 1 : 0 : -1] - a_arr[j - 1 : 0 : -1] @ m[1:j]
        rhs = np.concatenate([-a_arr[j : j + 1], terms]).sum(axis=0)
        for i in range(l):
            for mm in range(l):
                si, sm = slices[i], slices[mm]
                di, dm = si.stop - si.start, sm.stop - sm.start
                left = j * np.eye(di) + a0_arr[si, si]
                op = np.kron(np.eye(dm), left) - np.kron(a0_arr[sm, sm].T, np.eye(di))
                rvec = rhs[si, sm].flatten(order="F")
                resonant = values[i] - j == values[mm]
                u, svals, vh = np.linalg.svd(op)
                cutoff = resonance_sval * max(1.0, svals[0])
                small = svals <= cutoff
                smin = min([smin, *svals[~small]])
                if not resonant and np.any(small):
                    dropped = float(np.linalg.norm((u[:, small].conj().T @ rvec)))
                    warnings.append(
                        f"near-resonant block (i={i}, m={mm}, j={j}): "
                        f"smallest singular value {svals[-1]:.3e}, dropped residual {dropped:.3e}"
                    )
                if resonant:
                    coker = u[:, small]
                    bvec = -(coker @ (coker.conj().T @ rvec)) if coker.shape[1] else np.zeros_like(rvec)
                    b[j][si, sm] = bvec.reshape((di, dm), order="F")
                    k[si, sm] = -b[j][si, sm]
                    rvec = rvec + bvec
                safe = np.where(small | (svals == 0.0), 1.0, svals)
                inv_svals = np.where(small | (svals == 0.0), 0.0, 1.0 / safe)
                xvec = vh.conj().T @ (inv_svals * (u.conj().T @ rvec))
                m[j][si, sm] = xvec.reshape((di, dm), order="F")
    b_series = localforms.normal_form_b_series(k, phi, n)
    return localforms.NormalForm(MatrixSeries(m), k, phi, t_total, b_series, tuple(warnings)), smin


def _gauge_residual_per_coefficient(conn, nf):
    a_arr = arranged_series(conn, nf.t)
    n = conn.order
    lhs = nf.m.z_derivative()
    rhs = nf.m * nf.b.truncate(n).pad(n) - a_arr * nf.m
    worst = 0.0
    for j in range(n + 1):
        worst = max(worst, float(np.linalg.norm(lhs.coeffs[j] - rhs.coeffs[j], 2)))
    return worst


def _convergence_per_coefficient(conn, nf, delta):
    a_arr = arranged_series(conn, nf.t)
    n = conn.order
    b = nf.b.truncate(n).pad(n)
    norms_a = [float(np.linalg.norm(a_arr.coeffs[j], 2)) for j in range(n + 1)]
    norms_b = [float(np.linalg.norm(b.coeffs[j], 2)) for j in range(n + 1)]
    norms_m = [float(np.linalg.norm(nf.m.coeffs[j], 2)) for j in range(n + 1)]
    c0 = 2 * int(math.floor(norms_a[0])) + 2
    cj = [0.0] + [norms_a[j] + norms_b[j] for j in range(1, n + 1)]
    big_c = max(2.0, 1.000001 * max(cj[1:], default=1.0), 1.000001 * 1.0)
    big_d = sum(norms_m[j] * delta**j for j in range(0, min(c0, n) + 1))
    checks = []
    for j in range(c0 + 1, n + 1):
        lhs = norms_m[j] * delta**j
        rhs = big_d * 2.0 ** (c0 - j)
        checks.append((j, lhs, rhs, lhs <= rhs * (1.0 + 1e-12)))
    return c0, big_c, 1.0 / (2.0 * big_c), tuple(checks)


def _same_bits(got, want):
    return np.array_equal(np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64))


def _assert_same_normal_form(conn, tol=CLUSTER_TOL, delta=0.125):
    nf, (ref, smin) = normal_form(conn, tol=tol), _normal_form_per_block(conn, tol=tol)
    assert nf.phi == ref.phi and nf.warnings == ref.warnings
    assert _same_bits(nf.t, ref.t)
    # both recursions start from the same T; each is within the rounding
    # bound of test_normal_form_against_mpmath_recursion (without its
    # cond(T), T being shared) of the exact one, so they differ by at
    # most twice that bound
    a_arr = arranged_series(conn, nf.t).coeffs
    c = np.linalg.norm(a_arr, 2, axis=(1, 2)).sum() + np.linalg.norm(ref.b.coeffs, 2, axis=(1, 2)).sum()
    mu = np.linalg.norm(ref.m.coeffs, 2, axis=(1, 2)).max()
    bound = 2 * conn.rank * conn.order * EPS * c * mu / smin
    assert np.linalg.norm(nf.m.coeffs - ref.m.coeffs, 2, axis=(1, 2)).max() <= bound
    assert np.linalg.norm(nf.k - ref.k, 2) <= bound
    assert np.linalg.norm(nf.b.coeffs - ref.b.coeffs, 2, axis=(1, 2)).max() <= bound
    # the stacked norms of gauge_residual and convergence_diagnostic
    # against their per-coefficient loops, on the same normal form
    assert _same_bits(gauge_residual(conn, nf), _gauge_residual_per_coefficient(conn, nf))
    conv = convergence_diagnostic(conn, nf, delta)
    c0, big_c, delta_max, checks = _convergence_per_coefficient(conn, nf, delta)
    assert (conv.c0, conv.checks) == (c0, checks)
    assert _same_bits([conv.big_c, conv.delta_max], [big_c, delta_max])
    return nf


def _conjugated(rng, lam, order):
    r = len(lam)
    g = random_invertible(rng, r)
    coeffs = random_connection(rng, r, order).a.coeffs.copy()
    coeffs[0] = g @ np.diag(lam) @ np.linalg.inv(g)
    return LocalLogConnection(MatrixSeries(coeffs))


def test_stacked_window_matches_the_per_block_loops(rng):
    conns = [random_connection(rng, r, order, resonant=True) for r, order in ((2, 10), (3, 12), (5, 20), (6, 16))]
    # unequal classes: Phi = (2, 1, 1, 0, 0, 0)
    unequal = _conjugated(rng, -np.array([2.3, 1.2, 1.6, 0.1, 0.5, 0.7]) + 0.03j, 14)
    conns.append(unequal)
    nfs = [_assert_same_normal_form(conn) for conn in conns]
    assert nfs[-1].phi.entries == (2, 1, 1, 0, 0, 0)
    assert sum(np.max(np.abs(np.triu(nf.k, 1))) > 0.01 for nf in nfs[:4]) >= 2  # cokernel corrections
    # a near-resonant block (i = 0, m = 1) at degree 2 warns identically
    near = _conjugated(rng, [-3.0, -(1.0 - 1e-9), -0.4 + 0.2j], 12)
    assert len(_assert_same_normal_form(near, tol=1e-12).warnings) == 1


def test_resonant_chains_match_the_per_block_loops_once_b_turns_nonzero(rng):
    # classes lambda, lambda - 1, lambda - 2 set B^1 and B^2; classes
    # lambda, lambda - 3 set B first at degree 3.  The recursion leaves
    # out sum M^k B^{j-k} while every B^k is still zero and adds it from
    # the next degree on; the per-block loops add it at every degree
    chain = -np.array([0.3, 1.3, 2.3, 0.7]) + np.array([0.1, 0.1, 0.1, -0.2]) * 1j
    late = -np.array([0.3, 3.3, 0.6]) + np.array([0.1, 0.1, -0.2]) * 1j
    for lam, degrees in ((chain, [1, 2]), (late, [3])):
        nf = _assert_same_normal_form(_conjugated(rng, lam, 20))
        assert (np.flatnonzero(np.any(nf.b.coeffs != 0, axis=(1, 2)))[1:] == degrees).all()
        assert np.min(np.abs(nf.b.coeffs[degrees]).max(axis=(1, 2))) > 1e-3


def _bench_shaped(rng, r, order, resonant):
    """A connection drawn like the benchmark's local-normal-form inputs:
    eigenvalue i has weight i mod 2 and a fractional part of -Re lambda
    spread over [0, 1); a resonant draw makes eigenvalue 2i + 1 exactly
    eigenvalue 2i minus one."""
    fracs = (np.arange(r) + rng.uniform(0.2, 0.8, size=r)) / r
    if resonant:
        fracs = np.repeat(fracs[: (r + 1) // 2], 2)[:r]
    lam = -(np.arange(r) % 2 + fracs) + 0.03j * rng.choice((-1.0, 1.0), size=r)
    if resonant:
        lam[1::2] = lam[0::2][: r // 2] - 1.0
    return _conjugated(rng, lam, order), lam


def test_svd_only_on_pairs_the_screen_flags(rng, monkeypatch):
    shapes = []  # operator shape per np.linalg.svd call
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda op, *args, **kwargs: shapes.append(op.shape) or svd(op, *args, **kwargs))
    # every pair clears at every degree: 2 norm(A0) < 1 (Weyl), and
    # distinct fractional parts (Neumann)
    small = LocalLogConnection(MatrixSeries(0.5 ** np.arange(11)[:, None, None] * random_connection(rng, 4, 10).a.coeffs / 8))
    assert 2.0 * np.linalg.norm(arranged_series(small, normal_form(small).t).coeffs[0], 2) < 1.0
    for conn in (small, _bench_shaped(rng, 5, 20, resonant=False)[0]):
        shapes.clear()
        normal_form(conn)
        assert shapes == []
        _assert_same_normal_form(conn)
    # one SVD per exactly resonant pair (classes i, m and degree j with
    # lambda_a + j = lambda_b for eigenvalues a of class i, b of class m):
    # one in a bench-shaped resonant draw, three in a chain of classes
    # lambda, lambda - 1, lambda - 2
    chain = -np.array([0.3, 1.3, 2.3, 0.7]) + np.array([0.1, 0.1, 0.1, -0.2]) * 1j
    for conn, lam in [_bench_shaped(rng, r, 20, resonant=True) for r in (2, 5, 8)] + [(_conjugated(rng, chain, 20), chain)]:
        r = len(lam)
        weights = np.floor(-lam.real + CLUSTER_TOL).astype(int)
        exact = {
            (weights[a], weights[b], j)
            for a, b in itertools.product(range(r), repeat=2)
            for j in range(1, conn.order + 1)
            if abs(lam[a] + j - lam[b]) < 1e-12
        }
        shapes.clear()
        nf = normal_form(conn)
        assert len(shapes) == len(exact) == (3 if lam is chain else 1)
        assert nf.warnings == ()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    upper=st.floats(-2.0, 2.0),
    gap=st.floats(-10.0, 0.0),
    j=st.integers(1, 12),
)
def test_cleared_pairs_have_no_singular_value_at_the_cutoff(seed, sizes, upper, gap, j):
    # upper-triangular class blocks with strictly upper parts of scale
    # 10^upper; each diagonal entry of T_mm sits at distance about 10^gap
    # from j + some diagonal entry of T_ii, so j + t_aa - t_bb comes down
    # to 1e-10: a pair the screen clears at degree j has no singular
    # value at or below the SVD's cutoff
    rng = np.random.default_rng(seed)
    di, dm = sizes
    lam = rng.uniform(-1.0, 1.0, size=di) + 1j * rng.uniform(-1.0, 1.0, size=di)
    shift = 10.0**gap * rng.uniform(0.5, 1.0, size=dm) * np.exp(2j * np.pi * rng.uniform(size=dm))
    diags = (lam, j + lam[rng.integers(0, di, size=dm)] - shift)
    blocks = [np.diag(d) + 10.0**upper * np.triu(rng.normal(size=(len(d), len(d))) + 1j * rng.normal(size=(len(d), len(d))), 1) for d in diags]
    a0 = scipy.linalg.block_diag(*blocks)
    phi = WeightDiagonal((1,) * di + (0,) * dm)
    slices = phi.block_slices
    cleared = localforms._cleared(a0, phi, j)[j - 1]
    for (i, si), (mm, sm) in itertools.product(enumerate(slices), repeat=2):
        if cleared[i, mm]:
            op = np.kron(np.eye(sizes[mm]), j * np.eye(sizes[i]) + a0[si, si]) - np.kron(a0[sm, sm].T, np.eye(sizes[i]))
            svals = np.linalg.svd(op, compute_uv=False)
            assert svals[-1] > localforms._RESONANCE_SVAL * max(1.0, svals[0])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    weights=st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    order=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_normal_form_b_series_places_entries_by_weight_gap(weights, order, seed):
    # for K block upper triangular under non-increasing weights, B is the
    # polynomial z^Phi (-K - Phi) z^-Phi of order max(order, phi^1 - phi^r);
    # a single nonzero entry below the class diagonal, however small, is refused
    rng = np.random.default_rng(seed)
    phi = WeightDiagonal(sorted(weights, reverse=True))
    e = np.array(phi.entries)
    below = np.less.outer(e, e)
    k = np.where(below, 0.0, rng.normal(size=below.shape) + 1j * rng.normal(size=below.shape))
    b = localforms.normal_form_b_series(k, phi, order)
    assert b.order == max(order, e[0] - e[-1])
    for z in 0.5 * np.exp(2j * np.pi * np.array([0.1, 0.45, 0.8])):
        expected = np.diag(z**e) @ (-k - phi.matrix()) @ np.diag(z ** (-e))
        assert np.linalg.norm(b.eval(z) - expected) <= 1e-12 * np.linalg.norm(expected)
    if below.any():
        pole = np.argwhere(below)[rng.integers(below.sum())]
        k[tuple(pole)] = 10.0 ** rng.uniform(-300.0, 0.0)
        with pytest.raises(ValueError, match="below its class diagonal"):
            localforms.normal_form_b_series(k, phi, order)
