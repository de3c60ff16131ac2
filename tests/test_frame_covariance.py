"""Frame covariance: a Jordan block and its conjugates give the same decisions.

A single Jordan block J_p(lambda) and S J_p(lambda) S^-1 are the same
eigenvalue seen in two frames.  In the conjugated frame rounding splits
lambda into p copies about eps^(1/p) apart, so every decision that
depends only on lambda (integer weights, normalized-log branches,
degrees) must be taken once per eigenvalue and agree with the
triangular frame, where the copies are exact.  The eigenvalues drawn
sit where per-copy decisions go wrong: on an integer real part (the
resonant case of the gauge-fixing theorem), within |theta| <= 1e-3 of
the branch cut of the normalized logarithm, or anywhere (generic).

A weighted bundle and its conjugate by a frame S are one bundle too:
degree and semistability must not depend on the frame's condition
number.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logconn import (
    LocalLogConnection,
    MatrixSeries,
    Representation,
    WeightedFlag,
    WeightedFlatBundle,
    cluster_expm,
    degree,
    gauge_residual,
    integer_weights,
    norm_log,
    normal_form,
    semistable,
)

from conftest import conditioned, eigenvector_flags, generated_family

# the 1e-8 snap window of norm_log_scalar on the real part of the branch,
# as an angle: theta within a factor 2 of it is left undrawn
_SNAP_ANGLE = 2 * np.pi * 1e-8


def _eigenvalue(kind, rng):
    if kind == "integer":
        lam = int(rng.integers(-2, 3)) + (0.0 if rng.random() < 0.5 else 1j * rng.uniform(-1, 1))
    elif kind == "branch-cut":
        theta = rng.choice([-1, 1]) * 10 ** rng.uniform(-11, -3)
        assume(not _SNAP_ANGLE / 2 <= abs(theta) <= 2 * _SNAP_ANGLE)
        lam = 0.96 * np.exp(1j * theta)
    else:
        lam = rng.uniform(-2.5, 2.5) + 1j * rng.uniform(-1, 1)
    assume(abs(lam) >= 0.25)
    return lam


def _loop_bundle(g):
    """G, G and (G^2)^-1 at three punctures with trivial flags."""
    p = g.shape[0]
    rep = Representation([0.0, 1.0, 2.0], [g, g, np.linalg.inv(g @ g)])
    return WeightedFlatBundle(rep, tuple(WeightedFlag.trivial(p) for _ in range(3)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.sampled_from(["integer", "branch-cut", "generic"]),
    st.integers(1, 5),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_a_conjugated_jordan_block_decides_as_the_triangular_one(kind, p, spread, seed):
    rng = np.random.default_rng(seed)
    lam = _eigenvalue(kind, rng)
    j = lam * np.eye(p) + np.eye(p, k=1)
    s = np.eye(p) + spread * (rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))) / np.sqrt(2 * p)
    s_inv = np.linalg.inv(s)
    g = s @ j @ s_inv

    assert integer_weights(g).entries == integer_weights(j).entries

    tail = [(rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))) * 0.3**k for k in range(1, 4)]
    conn = LocalLogConnection(MatrixSeries(np.array([g] + tail)))
    triangular = LocalLogConnection(MatrixSeries(np.array([j] + [s_inv @ a @ s for a in tail])))
    nf = normal_form(conn)
    assert nf.phi == normal_form(triangular).phi
    assert gauge_residual(conn, nf) <= 1e-10 * max(1.0, max(np.linalg.norm(a, 2) for a in conn.a.coeffs))

    k = norm_log(g).k
    assert np.linalg.norm(cluster_expm(2j * np.pi * k) - g) <= 1e-10 * np.linalg.norm(g)

    assert degree(_loop_bundle(g)) == degree(_loop_bundle(j))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.integers(2, 8), st.sampled_from([0, 1, 2, 3]), st.integers(0, 2**32 - 1))
def test_a_conditioned_frame_keeps_degree_and_semistability(r, log_kappa, seed):
    # upper-triangular U_j, each flagged by its eigenvectors, and the same
    # bundle in a frame S of condition number up to 1e3: S^-1 U_j S with
    # flag steps S^-1 V.  At 1e4 the frame's rounding leaves the loop
    # product up to 5e-5 off I: some candidate slopes are no longer
    # integers and some subspace lists come back incomplete
    rng = np.random.default_rng(seed)
    triangular = eigenvector_flags(rng, generated_family(rng, "triangular", r))
    s = conditioned(rng, r, 10.0**log_kappa)
    s_inv = np.linalg.inv(s)
    flags = tuple(WeightedFlag(tuple(s_inv @ b for b in f.subspaces), f.weights) for f in triangular.flags)
    framed = WeightedFlatBundle(triangular.rep.conjugated(s), flags)
    assert degree(framed) == degree(triangular)
    assert semistable(framed) is semistable(triangular)
