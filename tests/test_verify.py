import math

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
    normal_form,
    relation_order,
    standard_loops,
)
import logconn.verify as verify
from logconn.verify import IntegrationError, LoopPath

from conftest import random_invertible, sorted_punctures


# --------------------------------------------------------------------------
# step-by-step reference transport: each step sums its own Taylor series
# of Y from its own coefficients D_k, with its own term count


def reference_transport(expansion, pieces, y):
    singular, expand = expansion
    y = np.array(y, dtype=np.complex128)
    r, m = y.shape
    for piece in pieces:
        point, length = verify._piece_point(piece)
        t, z = 0.0, point(0.0)
        while t < 1.0:
            rho = float(np.min(np.abs(singular - z)))
            if (1.0 - t) * length <= verify._STEP * rho:
                t_next = 1.0
            elif (t_next := t + verify._STEP * rho / length) <= t:
                raise IntegrationError("path runs into a singular point")
            z_next = point(t_next)
            beta, coeffs = expand(z, rho)
            x = (z_next - z) / rho
            count = verify._term_count(beta, abs(x))
            flat = coeffs(count - 1).transpose(1, 0, 2).reshape(r, -1)
            ys = np.empty((count * r, m), dtype=np.complex128)  # Y_{count-1} ... Y_0
            ys[-r:] = y
            for k in range(count - 1):
                lo = (count - 1 - k) * r
                ys[lo - r : lo] = flat[:, : (k + 1) * r] @ ys[lo:] / (k + 1)
            y = np.einsum("k,kab->ab", x ** np.arange(count - 1, -1, -1), ys.reshape(count, r, m))
            t, z = t_next, z_next
    return y


def reference_fuchsian_expansion(punctures, residues):
    punctures = np.asarray(punctures, dtype=np.complex128)
    residues = np.asarray(residues, dtype=np.complex128)
    norms = np.linalg.norm(residues, 2, axis=(1, 2))

    def expand(z0, rho):
        v = rho / (z0 - punctures)

        def coeffs(n):
            return np.einsum("jk,jab->kab", -v[:, None] * (-v[:, None]) ** np.arange(n), residues)

        return float(norms @ np.abs(v)), coeffs

    return punctures, expand


def reference_local_expansion(a_series, center):
    a = a_series.coeffs
    nonzero = np.flatnonzero(np.any(a != 0, axis=(1, 2)))
    a = a[: nonzero[-1] + 1 if nonzero.size else 1]
    n = np.arange(a.shape[0])
    gap = n[None, :] - n[:, None]
    binom = np.array([[math.comb(j, i) if j >= i else 0 for j in n] for i in n], dtype=float)

    def expand(z0, rho):
        s0 = z0 - center
        at = np.einsum("in,nab->iab", binom * s0 ** np.maximum(gap, 0) * rho ** n[:, None], a)
        sigma = rho / s0

        def coeffs(count):
            lag = np.arange(count)[:, None] - n[None, :]
            geo = np.where(lag >= 0, sigma * (-sigma) ** np.maximum(lag, 0), 0.0)
            return -np.einsum("ki,iab->kab", geo, at)

        return float(np.linalg.norm(at, 2, axis=(1, 2)).sum()), coeffs

    return np.array([center], dtype=np.complex128), expand


def reference_basepoint(punctures):
    punctures = np.asarray(punctures, dtype=np.complex128)
    centroid = punctures.mean()
    spread = max(1.0, float(np.max(np.abs(punctures - centroid))))
    if len(punctures) == 1:
        return complex(centroid + 4.0 * spread)
    best_u, best_sep = 1.0 + 0.0j, -math.inf
    for ang in np.linspace(0.0, np.pi, 181, endpoint=False):
        u = np.exp(1j * ang)
        sep = math.inf
        for j in range(len(punctures)):
            for m in range(len(punctures)):
                if m != j:
                    sep = min(sep, abs(((punctures[m] - punctures[j]) / u).imag))
        if sep > best_sep:
            best_u, best_sep = u, sep
    return complex(centroid - 6.0 * spread * best_u)


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
    # transport counters: the steps of each loop and the one term count they share
    loops, _ = standard_loops(system.punctures)
    expansion = verify._fuchsian_expansion(system)
    singles = [verify._transport(expansion, [lp.pieces], np.eye(r)) for lp in loops]
    assert report.loop_steps == tuple(s.steps[0] for s in singles)
    assert report.terms == max(s.terms for s in singles)
    assert len(report.liouville_defects) == n
    for g, b, defect in zip(report.loop_matrices, residues, report.liouville_defects):
        assert defect == abs(np.linalg.det(g) * np.exp(2j * np.pi * np.trace(b)) - 1.0)


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


def _draw_pieces(data, center, clearance):
    """A partial arc, a radial segment toward `center`, or a very short tangent segment.

    Every point stays within 0.6 clearance of `center`, so 0.4 clearance
    away from the other singular points; short segments take a handful
    of Taylor terms, where each term counts.
    """
    kind = data.draw(st.sampled_from(["arc", "radial", "short"]))
    u = np.exp(1j * data.draw(st.floats(0.0, 2.0 * np.pi)))
    radius = clearance * data.draw(st.floats(0.2, 0.6))
    start = center + radius * u
    if kind == "arc":
        theta = float(np.angle(u))
        return [("arc", center, radius, theta, theta + data.draw(st.floats(0.3, 2.0 * np.pi)))]
    if kind == "radial":
        return [("line", start, center + radius * data.draw(st.floats(1e-3, 0.9)) * u)]
    return [("line", start, start + 1j * u * radius * 10.0 ** data.draw(st.floats(-7.0, -2.0)))]


def _initial(rng, r, one_column):
    if one_column:  # the growth_exponent shape
        return rng.normal(size=(r, 1)) + 1j * rng.normal(size=(r, 1))
    return np.eye(r)


def _assert_transports_agree(expansion, reference, pieces, y0):
    got = verify._transport(expansion, [pieces], y0).frames[0]
    want = reference_transport(reference, pieces, y0)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want, 2) <= 1e-14 * np.linalg.norm(want, 2)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 5), st.integers(1, 6)),
    seed=st.integers(0, 2**16),
    one_column=st.booleans(),
    data=st.data(),
)
def test_batched_fuchsian_transport_matches_reference(shape, seed, one_column, data):
    n, r = shape
    rng = np.random.default_rng(seed)
    punctures = sorted_punctures(rng, n)
    parts = data.draw(arrays(np.float64, (2, n, r, r), elements=st.floats(-1.0, 1.0)))
    xs = (0.35 / np.sqrt(r)) * (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    residues = xs - xs.mean(axis=0)
    system = FuchsianSystem(punctures, list(residues))
    if data.draw(st.booleans()):  # segment out, full circle, segment back
        pieces = standard_loops(punctures)[0][0].pieces
    else:
        pieces = _draw_pieces(data, punctures[0], float(np.min(np.abs(punctures[1:] - punctures[0]))))
    _assert_transports_agree(
        verify._fuchsian_expansion(system),
        reference_fuchsian_expansion(punctures, residues),
        pieces,
        _initial(rng, r, one_column),
    )


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    r=st.integers(1, 6),
    order=st.integers(0, 30),
    source=st.sampled_from(["connection", "padded", "normal-form"]),
    seed=st.integers(0, 2**16),
    one_column=st.booleans(),
    data=st.data(),
)
def test_batched_local_transport_matches_reference(r, order, source, seed, one_column, data):
    from conftest import random_connection

    rng = np.random.default_rng(seed)
    conn = random_connection(rng, r, order, resonant=source == "normal-form")
    series = conn.a
    if source == "padded":
        series = series.pad(order + 8)
    elif source == "normal-form":  # B is zero past the weight gap
        series = normal_form(conn).b
    _assert_transports_agree(
        verify._local_expansion(series, 0.0),
        reference_local_expansion(series, 0.0),
        _draw_pieces(data, 0.0, 1.0),
        _initial(rng, r, one_column),
    )


def test_path_into_a_singular_point_raises():
    system = FuchsianSystem([0.0, 1.0], [np.array([[0.25]]), np.array([[-0.25]])])
    with pytest.raises(IntegrationError):
        verify._transport(verify._fuchsian_expansion(system), [[("line", 0.5 + 0.5j, 1.0 + 0.0j)]], np.eye(1))
    series = MatrixSeries.constant(np.array([[-0.25]]), 0)
    with pytest.raises(IntegrationError):
        verify._transport(verify._local_expansion(series, 0.0), [[("line", 0.5, 0.0)]], np.eye(1))
    with pytest.raises(IntegrationError):  # a path of no length that sits on the singular point
        integrate_local(series, LoopPath((("line", 0j, 0j),)))


def test_choose_basepoint_matches_loop_reference():
    rng = np.random.default_rng(5)
    inputs = [np.exp(2j * np.pi * np.arange(n) / n) for n in range(1, 9)]
    inputs += [rng.uniform(-2, 2, k) + 1j * rng.uniform(-2, 2, k) for k in rng.integers(2, 9, 300)]
    inputs += [np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1j])]  # collinear, repeated
    for punctures in inputs:
        assert verify._choose_basepoint(punctures) == reference_basepoint(punctures)


def _assert_batch_matches_reference(expansion, reference, paths, y0):
    """One _transport call over all paths: each frame matches its own reference run."""
    batch = verify._transport(expansion, paths, y0)
    singles = [verify._transport(expansion, [pieces], y0) for pieces in paths]
    assert batch.steps == tuple(s.steps[0] for s in singles)
    assert batch.terms == max(s.terms for s in singles)
    for got, pieces in zip(batch.frames, paths):
        want = reference_transport(reference, pieces, y0)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want, 2) <= 1e-14 * np.linalg.norm(want, 2)
    return batch, singles


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 5), st.integers(1, 6)),
    seed=st.integers(0, 2**16),
    spread=st.floats(1.0, 8.0),
    one_column=st.booleans(),
    data=st.data(),
)
def test_one_transport_serves_several_loops_of_a_system(shape, seed, spread, one_column, data):
    # the standard loops, a small circle around each puncture and one drawn
    # path go through one recurrence; B_0 is up to 8 times larger than the
    # draws of the others, so the loops near a_0 need the most terms
    n, r = shape
    rng = np.random.default_rng(seed)
    punctures = sorted_punctures(rng, n)
    parts = data.draw(arrays(np.float64, (2, n, r, r), elements=st.floats(-1.0, 1.0)))
    xs = (0.35 / np.sqrt(r)) * (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    xs[0] *= spread
    residues = xs - xs.mean(axis=0)
    system = FuchsianSystem(punctures, list(residues))
    minpair = float(np.min(np.abs(punctures[:, None] - punctures[None, :]) + 10.0 * np.eye(n)))
    paths = [lp.pieces for lp in standard_loops(punctures)[0]]
    paths += [circle_loop(a, 0.3 * minpair).pieces for a in punctures]
    paths.append(_draw_pieces(data, punctures[-1], minpair))
    batch, _ = _assert_batch_matches_reference(
        verify._fuchsian_expansion(system),
        reference_fuchsian_expansion(punctures, residues),
        paths,
        _initial(rng, r, one_column),
    )
    assert len(set(batch.steps)) > 1


def test_the_loop_with_the_largest_majorant_sets_the_shared_term_count():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    punctures = np.array([0.0, 1.0, 3.0 + 2.0j])
    residues = np.array([0.6 * x, -0.6 * x - 0.01 * y, 0.01 * y])
    loops = [circle_loop(a, 0.3) for a in punctures] + standard_loops(punctures)[0]
    system = FuchsianSystem(punctures, list(residues))
    batch, singles = _assert_batch_matches_reference(
        verify._fuchsian_expansion(system),
        reference_fuchsian_expansion(punctures, residues),
        [lp.pieces for lp in loops],
        np.eye(3),
    )
    terms = [s.terms for s in singles]
    # the small circle around a_2 sees only B_2 at full weight; the circle
    # around a_0 and the connectors near the basepoint see the large B_0
    assert batch.terms == max(terms) > terms[0] > terms[2]
    assert len(set(batch.steps)) > 1


def test_clearance_of_a_partial_arc_is_exact():
    # a puncture 1e-9 outside a half circle, midway between two of the
    # one-degree samples an arc's clearance was once read from (8.7e-3)
    theta = 90.5 * np.pi / 180
    puncture = (1.0 + 1e-9) * np.exp(1j * theta)
    loop = LoopPath((("arc", 0, 1, 0, np.pi), ("line", -1, 1)))
    assert abs(loop.clearance([puncture]) - 1e-9) <= 1e-15
    system = FuchsianSystem([puncture, 3.0], [np.array([[0.25]]), np.array([[-0.25]])])
    with pytest.raises(IntegrationError, match="loop 0"):
        integrate_fuchsian(system, loop)


def test_piece_distances_match_dense_sampling():
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 1.0, 20001)
    for _ in range(100):
        points = 2.0 * (rng.normal(size=5) + 1j * rng.normal(size=5))
        z0, z1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        t0 = rng.uniform(-2 * np.pi, 2 * np.pi)
        sweep = rng.uniform(0.1, 2 * np.pi) * rng.choice([-1, 1])  # clockwise arcs as reversed loops have
        arc = ("arc", complex(rng.normal()), float(rng.uniform(0.2, 2.0)), t0, t0 + sweep)
        for piece in (("line", z0, z1), ("line", z0, z0), arc):
            point, length = verify._piece_point(piece)
            dense = np.abs(point(ts)[:, None] - points).min(axis=0)
            exact = verify._piece_distance(piece, points)
            # the samples lie on the piece, one within length / 4e4 of its nearest point
            assert np.all(exact <= dense + 1e-12)
            assert np.all(dense - exact <= length / 4e4 + 1e-12)


def test_batched_loops_keep_their_clearance_guard():
    system = FuchsianSystem([0.0, 1.0], [np.array([[0.25]]), np.array([[-0.25]])])
    loops, _ = standard_loops(system.punctures)
    transport = integrate_fuchsian(system, loops)
    assert [g.shape for g in transport.frames] == [(1, 1), (1, 1)]
    near = circle_loop(0.0, 1.0 + 5e-7)  # passes 5e-7 from the puncture at 1
    with pytest.raises(IntegrationError, match="loop 2"):
        integrate_fuchsian(system, loops + [near])
    with pytest.raises(IntegrationError, match="loop 0"):
        integrate_fuchsian(system, [near] + loops)
    with pytest.raises(ValueError):
        integrate_fuchsian(system, [])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 5), st.integers(1, 6)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_monodromy_report_obeys_liouville_and_telescopes(shape, seed, data):
    """Liouville's formula per loop and the telescoping product, to derived bounds.

    Error model, to first order in u = eps/2: each of the S_j steps of
    loop j sums `terms` = K Taylor terms, and every term perturbs the
    frame it moves by at most u relative, so the computed G_j carries a
    relative error delta_j <= S_j K u.  Then
    * det is multiplicative and d(det G)/det G = tr(G^-1 dG), so
      |det G_j exp(2 pi i tr B_j) - 1| <= r norm(G_j^-1) norm(dG_j)
      <= r kappa(G_j) delta_j;
    * the exact product is I and each factor moves by delta_j norm(G_j),
      so norm(prod G - I) <= sum_j delta_j prod_i norm(G_i).
    """
    n, r = shape
    parts = data.draw(arrays(np.float64, (2, n, r, r), elements=st.floats(-1.0, 1.0)))
    xs = 0.5 * (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    residues = xs - xs.mean(axis=0)  # entries of modulus <= 1
    system = FuchsianSystem(sorted_punctures(np.random.default_rng(seed), n), list(residues))
    report = monodromy_report(system)
    u = np.finfo(float).eps / 2.0
    delta = [steps * report.terms * u for steps in report.loop_steps]
    for g, b, d, defect in zip(report.loop_matrices, residues, delta, report.liouville_defects):
        assert defect == abs(np.linalg.det(g) * np.exp(2j * np.pi * np.trace(b)) - 1.0)
        assert defect <= r * np.linalg.cond(g, 2) * d
    norms = np.prod([np.linalg.norm(g, 2) for g in report.loop_matrices])
    assert report.product_defect <= sum(delta) * norms
