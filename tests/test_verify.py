import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logconn import (
    FuchsianSystem,
    LocalLogConnection,
    MatrixSeries,
    circle_loop,
    conjugacy_compare,
    growth_exponent,
    integrate_fuchsian,
    integrate_local,
    monodromy_report,
    relation_order,
    standard_loops,
)
from logconn.verify import IntegrationError, LoopPath

from conftest import random_invertible, sorted_punctures


def test_zero_residues_give_identity():
    system = FuchsianSystem([0.0, 1.0], [np.zeros((2, 2)), np.zeros((2, 2))])
    loops, _ = standard_loops(system.punctures)
    for lp in loops:
        g = integrate_fuchsian(system, lp)
        assert np.linalg.norm(g - np.eye(2)) < 1e-9


def test_rank_one_closed_form():
    # B_1 = 1/4 at 0, B_2 = -1/4 at 1: loop around 0 gives exp(-2 pi i/4) = -i
    system = FuchsianSystem([0.0, 1.0], [np.array([[0.25]]), np.array([[-0.25]])])
    g = integrate_fuchsian(system, circle_loop(0.0, 0.4, start_angle=0.3))
    assert abs(g[0, 0] - (-1j)) < 1e-8


def test_sum_residues_invariant():
    with pytest.raises(ValueError):
        FuchsianSystem([0.0, 1.0], [np.eye(2), np.eye(2)])


def test_loop_path_basics():
    lp = circle_loop(1.0 + 0.0j, 0.5)
    assert lp.winding_number(1.0) == 1
    assert lp.winding_number(3.0) == 0
    assert abs(lp.clearance([1.0 + 0.0j]) - 0.5) < 1e-9
    rev = lp.reversed()
    assert rev.winding_number(1.0) == -1
    with pytest.raises(ValueError):
        LoopPath((("line", 0.0, 1.0),))  # not closed


def test_standard_loops_windings(rng):
    punct = sorted_punctures(rng, 4)
    loops, s = standard_loops(punct)
    for j, lp in enumerate(loops):
        for m, a in enumerate(punct):
            assert lp.winding_number(a) == (1 if m == j else 0)


def test_product_relation_and_reversal(rng):
    from conftest import scaled_residues

    for _ in range(3):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 4))
        residues = scaled_residues(rng, n, r)
        system = FuchsianSystem(sorted_punctures(rng, n), residues)
        tol = 1e-9
        loops, s = standard_loops(system.punctures)
        mats = [integrate_fuchsian(system, lp) for lp in loops]
        order = relation_order(system.punctures, s)
        prod = np.eye(r, dtype=complex)
        for j in order:
            prod = prod @ mats[j]
        assert np.linalg.norm(prod - np.eye(r), 2) <= 10 * tol
        g_fwd = mats[0]
        g_rev = integrate_fuchsian(system, loops[0].reversed())
        assert np.linalg.norm(g_fwd @ g_rev - np.eye(r), 2) <= 10 * tol


def test_conjugation_invariance(rng):
    r, n = 2, 3
    residues = [0.3 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))) for _ in range(n - 1)]
    residues.append(-sum(residues))
    punct = sorted_punctures(rng, n)
    system = FuchsianSystem(punct, residues)
    s0 = random_invertible(rng, r)
    conj_system = FuchsianSystem(punct, [np.linalg.inv(s0) @ b @ s0 for b in residues])
    loops, _ = standard_loops(punct)
    mats = [integrate_fuchsian(system, lp) for lp in loops]
    mats_c = [integrate_fuchsian(conj_system, lp) for lp in loops]
    ok, s = conjugacy_compare(mats, mats_c, tol=1e-7)
    assert ok


def test_conjugacy_compare_examples(rng):
    a = [random_invertible(rng, 3) for _ in range(2)]
    ok, s = conjugacy_compare(a, a)
    assert ok
    for g in a:
        assert np.linalg.norm(g @ s - s @ g) < 1e-10 * np.linalg.norm(g)
    # a generic pair is irreducible: its only intertwiners are scalars (Schur)
    scalar = np.trace(s) / 3
    assert abs(scalar) > 0.5
    assert np.linalg.norm(s - scalar * np.eye(3)) < 1e-10 * abs(scalar)
    s0 = random_invertible(rng, 3)
    b = [np.linalg.inv(s0) @ g @ s0 for g in a]
    ok, s = conjugacy_compare(a, b)
    assert ok
    for g, h in zip(a, b):
        assert np.linalg.norm(g @ s - s @ h) < 1e-7 * np.linalg.norm(g)
    # different spectra at index 0: no intertwiner
    c = [g.copy() for g in a]
    c[0] = c[0] + 10 * np.eye(3)
    ok, _ = conjugacy_compare(a, c)
    assert not ok


def test_monodromy_report_fields(rng):
    r, n = 2, 3
    residues = [0.3 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))) for _ in range(n - 1)]
    residues.append(-sum(residues))
    system = FuchsianSystem(sorted_punctures(rng, n), residues)
    report = monodromy_report(system, tol=1e-9)
    assert len(report.loop_matrices) == n
    assert report.product_defect < 1e-8
    assert sorted(report.order) == list(range(n))


def test_degree_zero_trace():
    # -sum Tr B_j = 0 for every Fuchsian system: the trivial bundle has degree 0
    rng = np.random.default_rng(3)
    residues = [rng.normal(size=(3, 3)) for _ in range(2)]
    residues.append(-sum(residues))
    system = FuchsianSystem([0.0, 1.0, 2.0], residues)
    assert abs(sum(np.trace(b) for b in system.residues)) < 1e-12


def test_growth_exponent_closed_forms():
    radii = np.geomspace(0.5, 1e-4, 12)
    conn = LocalLogConnection(MatrixSeries.constant(np.array([[-1.5]]), 0))
    est = growth_exponent(conn, [1.0], radii)
    assert est.exponent == 1
    assert est.reliable
    assert abs(est.slope - 1.5) < 1e-6
    conn = LocalLogConnection(MatrixSeries.constant(np.array([[0.0]]), 0))
    est = growth_exponent(conn, [1.0], radii)
    assert est.exponent == 0 and est.reliable


def test_growth_exponent_two_weights():
    radii = np.geomspace(0.5, 1e-4, 12)
    conn = LocalLogConnection(MatrixSeries.constant(np.diag([-1.5, 0.75]), 0))
    est = growth_exponent(conn, [1.0, 1.0], radii)
    assert est.exponent == -1  # the smaller weight dominates toward 0
    est = growth_exponent(conn, [1.0, 0.0], radii)
    assert est.exponent == 1


def test_growth_exponent_fuchsian_side():
    # radial approach into a puncture of a global system; the other
    # puncture only contributes an analytic factor
    system = FuchsianSystem(
        [0.0, 3.0],
        [np.diag([0.25, -0.75]), np.diag([-0.25, 0.75])],
    )
    radii = np.geomspace(0.4, 1e-4, 12)
    est = growth_exponent(system, [1.0, 1.0], radii, center=0.0)
    # growths are -Re(eig) = (-0.25, 0.75); the smaller exponent dominates
    assert est.exponent == -1
    est = growth_exponent(system, [0.0, 1.0], radii, center=0.0)
    assert est.exponent == 0  # floor(0.75)


def test_growth_exponent_unreliable_flag():
    radii = np.geomspace(0.5, 0.3, 4)  # too few radii, too narrow
    conn = LocalLogConnection(MatrixSeries.constant(np.array([[-1.5]]), 0))
    est = growth_exponent(conn, [1.0], radii)
    assert not est.reliable


def test_clearance_guard():
    system = FuchsianSystem([0.0, 1.0], [np.array([[0.25]]), np.array([[-0.25]])])
    bad_loop = circle_loop(0.0, 1.0)  # runs through the other puncture
    with pytest.raises(IntegrationError):
        integrate_fuchsian(system, bad_loop)
    # a local loop through the singular point itself
    with pytest.raises(IntegrationError):
        integrate_local(MatrixSeries.constant(np.array([[-0.25]]), 0), circle_loop(1.0, 1.0))


def test_loop_matrix_against_mpmath_reference():
    # independent oracle: mpmath's Taylor ODE solver at 18 digits along the
    # circle z = a_0 + rho e^{i theta}, dY/dtheta = i (z - a_0) C(z) Y
    rng = np.random.default_rng(0)
    residues = [0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) for _ in range(2)]
    residues.append(-sum(residues))
    punctures = [0.0, 1.0, 0.4 + 0.9j]
    radius = 0.45
    assert np.linalg.norm(residues[0] @ residues[1] - residues[1] @ residues[0]) > 0.1
    with mpmath.workdps(18):
        bs = [mpmath.matrix(b.tolist()) for b in residues]

        def rhs(theta, y):
            z = punctures[0] + radius * mpmath.expj(theta)
            c = -sum((b / (z - a) for a, b in zip(punctures, bs)), mpmath.zeros(2, 2))
            d = 1j * (z - punctures[0]) * c * mpmath.matrix([y[:2], y[2:]])
            return [d[0, 0], d[0, 1], d[1, 0], d[1, 1]]

        flow = mpmath.odefun(rhs, 0, [1, 0, 0, 1])
        ref = np.array([complex(x) for x in flow(2 * mpmath.pi)]).reshape(2, 2)
    g = integrate_fuchsian(FuchsianSystem(punctures, residues), circle_loop(punctures[0], radius))
    assert np.linalg.norm(g - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_loop_matrix_properties(shape, seed, data):
    n, r = shape
    parts = data.draw(arrays(np.float64, (2, n, r, r), elements=st.floats(-1.0, 1.0)))
    xs = (0.175 / np.sqrt(r)) * (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    residues = list(xs - xs.mean(axis=0))  # entries of modulus <= 0.35 / sqrt(r)
    system = FuchsianSystem(sorted_punctures(np.random.default_rng(seed), n), residues)
    loops, basepoint = standard_loops(system.punctures)
    mats = [integrate_fuchsian(system, lp) for lp in loops]
    eye = np.eye(r)
    for b, g, lp in zip(residues, mats, loops):
        # Abel-Liouville: det of the loop matrix is exp(-2 pi i tr B_j)
        expected = np.exp(-2j * np.pi * np.trace(b))
        assert abs(np.linalg.det(g) - expected) <= 1e-13 * abs(expected)
        back = integrate_fuchsian(system, lp.reversed())
        assert np.linalg.norm(g @ back - eye, 2) <= 1e-13 * np.linalg.norm(g, 2) * np.linalg.norm(back, 2)
    prod = eye.astype(complex)
    for j in relation_order(system.punctures, basepoint):
        prod = prod @ mats[j]
    scale = np.prod([np.linalg.norm(g, 2) for g in mats])
    assert np.linalg.norm(prod - eye, 2) <= 1e-13 * scale
