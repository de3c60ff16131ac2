import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from logconn import (
    SingularMatrixError,
    cluster_expm,
    commuting_log_check,
    floor_snap,
    norm_log,
    norm_log_scalar,
    normal_form,
    schur,
    spectral_split,
)
from logconn.eigen import _chain, reorder_schur

from conftest import random_connection

TWO_PI_I = 2j * np.pi


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _mp_expm(a):
    """exp(a) at 30 significant digits, rounded to complex128."""
    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array([[complex(e[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])])


def test_schur_against_lapack_eigenvalues(rng):
    # oracle: numpy's eigvals (independent LAPACK route)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        t, q = schur(a)
        assert np.linalg.norm(q @ t @ q.conj().T - a) < 1e-11 * max(1, np.linalg.norm(a))
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) < 1e-12
        assert np.linalg.norm(np.tril(t, -1)) == 0.0
        mine = np.sort_complex(np.diag(t))
        ref = np.sort_complex(np.linalg.eigvals(a))
        assert np.max(np.abs(mine - ref)) < 1e-9 * max(1, np.max(np.abs(ref)))


def test_schur_pathological_inputs():
    # unit-circle spectra and big Jordan blocks stall naive shifted QR
    cases = []
    for n in (2, 3, 4, 6, 8):
        cases.append(np.roll(np.eye(n), 1, axis=0).astype(complex))  # cyclic
    for n in (4, 8, 12):
        cases.append(np.eye(n) + np.diag(np.ones(n - 1), 1) + 0j)  # Jordan
    cases.append(np.diag(np.ones(3), 1) + 0j)  # nilpotent
    cases.append(np.array([[1.0, 1.0], [1e-10, 1.0]], dtype=complex))
    for a in cases:
        t, q = schur(a)
        scale = max(1e-300, np.linalg.norm(a))
        assert np.linalg.norm(q @ t @ q.conj().T - a) < 1e-12 * max(1.0, scale)
        assert np.linalg.norm(np.tril(t, -1)) == 0.0


def test_norm_log_roots_of_unity():
    # cyclic permutations have spectra at the roots of unity; the branch
    # normalization spreads the exponents over [0, 1)
    for n in (2, 3, 4, 6):
        p = np.roll(np.eye(n), 1, axis=0).astype(complex)
        k = norm_log(p).k
        assert np.linalg.norm(cluster_expm(TWO_PI_I * k) - p) < 1e-12
        got = np.sort(np.linalg.eigvals(k).real)
        assert np.allclose(got, np.arange(n) / n, atol=1e-9)


def test_reorder_schur_moves_selection(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    t, q = schur(a)
    want = np.diag(t)[3]
    t2, q2 = reorder_schur(t, q, [False, False, False, True, False])
    assert abs(t2[0, 0] - want) < 1e-10
    assert np.linalg.norm(q2 @ t2 @ q2.conj().T - a) < 1e-10 * np.linalg.norm(a)


def test_spectral_split_identity_and_diag():
    sp = spectral_split(np.eye(3))
    assert len(sp.clusters) == 1
    mu, mult, basis = sp.clusters[0]
    assert mu == pytest.approx(1.0)
    assert mult == 3
    sp = spectral_split(np.diag([1.0, 2.0]))
    assert len(sp.clusters) == 2


def test_spectral_split_jordan_block():
    j = np.array([[5.0, 1.0], [0.0, 5.0]])
    sp = spectral_split(j)
    assert len(sp.clusters) == 1
    mu, mult, basis = sp.clusters[0]
    assert mult == 2
    # oracle: invariance and the exp/log round trip
    assert np.linalg.norm(j @ basis - basis @ (basis.conj().T @ j @ basis)) < 1e-10
    k = norm_log(j).k
    assert np.linalg.norm(cluster_expm(TWO_PI_I * k) - j) < 1e-10


def test_spectral_split_invariance_random(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sp = spectral_split(g)
        assert sum(m for _, m, _ in sp.clusters) == n
        joint = np.hstack([basis for _, _, basis in sp.clusters])
        assert np.linalg.matrix_rank(joint) == n
        for _, _, basis in sp.clusters:
            restr = basis.conj().T @ g @ basis
            resid = g @ basis - basis @ restr
            assert np.linalg.norm(resid) < 1e-7 * np.linalg.norm(g)


def _union_find(vals, tol):
    """Union-find clustering at pairwise distance < tol: the reference for _chain."""
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) < tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 3), st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
        min_size=1,
        max_size=16,
    ),
    st.floats(0.0, 0.7),
)
def test_chain_matches_union_find(points, radius):
    # grid points with jitter: ties, chains longer than the radius, and isolated points
    vals = np.array([0.25 * complex(a, b) + complex(x, y) for a, b, x, y in points])
    assert _chain(vals, radius) == _union_find(vals, radius)


def _conjugated_jordan(rng, blocks, spread):
    """S J S^-1 for J with Jordan blocks (eigenvalue, size) and S = I + spread G / sqrt(r)."""
    r = sum(d for _, d in blocks)
    j = scipy.linalg.block_diag(*[mu * np.eye(d) + np.eye(d, k=1) for mu, d in blocks])
    s = np.eye(r) + spread * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))) / np.sqrt(2 * r)
    return s @ j @ np.linalg.inv(s)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=16),
    st.booleans(),
    st.floats(0.25, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_spectral_split_multiplicities_of_conjugated_jordan_forms(sizes, partners, spread, seed):
    # blocks of size 1-5 at r <= 16 sit at stratified angles on the unit
    # circle, at least 2 sin(pi / 32) = 0.196 apart; with `partners` each
    # simple eigenvalue gets a second one at relative distance 1e-3.
    # Defective blocks much closer than that merge (see the limit in
    # eigen._cluster_means).
    sizes = [d for k, d in enumerate(sizes) if sum(sizes[: k + 1]) <= 16]
    rng = np.random.default_rng(seed)
    m = len(sizes)
    blocks = list(zip(np.exp(2j * np.pi * (np.arange(m) + rng.uniform(0.25, 0.75, m)) / m), sizes))
    if partners:
        simple = [mu for mu, d in blocks if d == 1][: 16 - sum(sizes)]
        blocks += [(mu * (1.0 + 1e-3 * np.exp(2j * np.pi * rng.uniform())), 1) for mu in simple]
    a = _conjugated_jordan(rng, blocks, spread)
    split = spectral_split(a)
    assert sorted(mult for _, mult, _ in split.clusters) == sorted(d for _, d in blocks)
    for mu, mult, _ in split.clusters:
        assert min(abs(mu - lam) for lam, d in blocks if d == mult) < 1e-6


@pytest.mark.parametrize("gap", [1e-3, 1e-5])
def test_spectral_split_keeps_close_distinct_pairs_apart(gap):
    rng = np.random.default_rng(11)
    for r in (2, 4, 8, 16):
        for _ in range(10):
            c = r // 2
            centers = np.exp(2j * np.pi * (np.arange(c) + rng.uniform(0.25, 0.75, c)) / c) * rng.uniform(0.6, 1.6, c)
            partners = centers * (1.0 + gap * np.exp(2j * np.pi * rng.uniform(size=c)))
            a = _conjugated_jordan(rng, [(mu, 1) for mu in np.concatenate([centers, partners])], 0.5)
            assert [mult for _, mult, _ in spectral_split(a).clusters] == [1] * r


def test_norm_log_identity_and_closed_forms():
    assert np.allclose(norm_log(np.eye(4)).k, 0.0)
    # single negative eigenvalue lands on the half-open boundary Re = 1/2
    assert np.allclose(norm_log(np.array([[-1.0]])).k, [[0.5]])
    # unipotent: (1/2 pi i) times the nilpotent part
    k = norm_log(np.array([[1.0, 1.0], [0.0, 1.0]])).k
    assert np.allclose(k, np.array([[0.0, 1.0], [0.0, 0.0]]) / TWO_PI_I)
    # positive real scalar: purely imaginary logarithm
    k = norm_log(np.array([[2.0]])).k
    assert np.allclose(k, [[-1j * np.log(2.0) / (2 * np.pi)]])


def test_norm_log_round_trip_random(rng):
    # oracle: scaling-and-squaring exponential (scipy) on generic matrices
    count = 0
    while count < 120:
        n = int(rng.integers(1, 7))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(g) > 1e6:
            continue
        count += 1
        k = norm_log(g).k
        back = scipy.linalg.expm(TWO_PI_I * k)
        assert np.linalg.norm(back - g) <= 1e-9 * np.linalg.norm(g)
        ev = np.linalg.eigvals(k)
        assert np.all(ev.real >= -1e-10)
        assert np.all(ev.real < 1.0)


def test_norm_log_singular():
    with pytest.raises(SingularMatrixError):
        norm_log(np.zeros((2, 2)))


def test_norm_log_scalar_branches():
    assert norm_log_scalar(1.0) == 0.0
    assert norm_log_scalar(-1.0) == pytest.approx(0.5)
    mu = norm_log_scalar(np.exp(-0.3j))
    assert mu.real == pytest.approx(1 - 0.3 / (2 * np.pi))
    # snap just below the positive real axis to the 0 branch
    mu = norm_log_scalar(np.exp(-1e-12j))
    assert abs(mu.real) < 1e-9


def test_cluster_expm_matches_series(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.linalg.norm(cluster_expm(m) - scipy.linalg.expm(m)) < 1e-9 * max(
            1, np.linalg.norm(scipy.linalg.expm(m))
        )


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-7, 0.0])
def test_near_jordan_pair(gap):
    # a Jordan pair split by `gap` in a generic frame: the logarithm and
    # the exponential are well conditioned although the eigenvector
    # basis is nearly singular
    rng = np.random.default_rng(11)
    s = np.eye(4) + 0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert 2 < np.linalg.cond(s) < 100
    lam = 0.9 * np.exp(0.7j)
    j = np.diag([lam, lam + gap, 1.3 * np.exp(2.5j), 0.7 * np.exp(-1.9j)])
    j[0, 1] = 1.0
    g = s @ j @ np.linalg.inv(s)
    assert _rel(scipy.linalg.expm(TWO_PI_I * norm_log(g).k), g) <= 1e-13
    assert _rel(cluster_expm(g), _mp_expm(g)) <= 1e-13


def test_cluster_expm_resonant_normal_forms():
    # Resonant normal forms (criterion 02's generator) give K with a
    # repeated eigenvalue and a large nilpotent part.  On these
    # triangular K, scipy.linalg.expm(2 pi i K) is off from the mpmath
    # reference by up to 1e-1 relative (scipy 1.17), which is why
    # cluster_expm exists.  In a generic frame S K S^-1 rounding splits
    # the repeated eigenvalue, and its parts must still share one
    # Schur-Parlett block.
    rng = np.random.default_rng(102)
    frames = np.random.default_rng(7)
    checked = 0
    for trial in range(60):
        r = int(rng.integers(1, 6))
        order = int(rng.integers(0, 21))
        conn = random_connection(rng, r, order, resonant=(trial % 2 == 0))
        if trial % 2 or r == 1:
            continue
        k = normal_form(conn).k
        ev = np.linalg.eigvals(k)
        if np.min(np.abs(ev[:, None] - ev[None, :]) + 10 * np.eye(r)) > 1e-6:
            continue
        s = np.eye(r) + 0.5 * (frames.normal(size=(r, r)) + 1j * frames.normal(size=(r, r))) / np.sqrt(2 * r)
        for m in (TWO_PI_I * k, s @ (TWO_PI_I * k) @ np.linalg.inv(s)):
            assert _rel(cluster_expm(m), _mp_expm(m)) <= 1e-13
        checked += 1
    assert checked >= 10


def test_cluster_expm_defective_large_nilpotent():
    # scaling-and-squaring alone loses digits here; the clustered form must not
    k = np.array(
        [
            [0.2 - 0.8j, 0.0, 0.0],
            [0.0, 0.9 + 0.3j, 3.4 - 3.4j],
            [0.0, 0.0, 0.9 + 0.3j],
        ]
    )
    c = np.log(0.5) + TWO_PI_I
    direct = cluster_expm(k * c)
    split_product = cluster_expm(k * np.log(0.5)) @ cluster_expm(k * TWO_PI_I)
    assert np.linalg.norm(direct - split_product) < 1e-10 * np.linalg.norm(direct)


def test_commuting_log_check_identity_conjugation(rng):
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert commuting_log_check(g, g, np.eye(3))
    for _ in range(10):
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if np.linalg.cond(c) > 1e4:
            continue
        g2 = np.linalg.inv(c) @ g @ c  # G C = C G' exactly by construction
        assert commuting_log_check(g, g2, c)


def test_commuting_log_check_with_power(rng):
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g2 = g.copy()
    assert commuting_log_check(g, g2, g @ g)  # C in the commutant


def test_floor_snap():
    assert floor_snap(1.5) == 1
    assert floor_snap(-0.3) == -1
    assert floor_snap(2.0 - 1e-12) == 2
    assert floor_snap(2.0 + 1e-12) == 2
    assert floor_snap(1.9999) == 1
