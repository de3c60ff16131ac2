"""Shared random generators and references for the test corpus.

Connections model germs of analytic matrix functions: the residue has
eigenvalue real parts within a few units and imaginary parts below one
(the loop comparison conditions like exp(2 pi |Im lambda|)), and the
higher coefficients decay geometrically so the gauge series stays in
the float64 regime.  Resonant draws shift eigenvalues by exact
integers.
"""

import numpy as np
import pytest

from logconn import LocalLogConnection, MatrixSeries, Representation, WeightedFlag, WeightedFlatBundle
from logconn import documents


def random_connection(rng, r, order, rho=0.5, resonant=False):
    if resonant:
        k = int(rng.integers(1, r + 1))
        base = rng.uniform(-2.0, 2.0, size=k) + 1j * rng.uniform(-0.9, 0.9, size=k)
        eigs = [base[i % k] + (int(rng.integers(-2, 3)) if i >= k else 0) for i in range(r)]
        q, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
        shear = np.eye(r) + 0.3 * np.triu(rng.normal(size=(r, r)), 1)
        s = q @ shear
        a0 = s @ np.diag(np.array(eigs, dtype=complex)) @ np.linalg.inv(s)
    else:
        a0 = rng.uniform(-1, 1, size=(r, r)) + 1j * rng.uniform(-0.6, 0.6, size=(r, r))
    tail = [
        (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))) * rho ** j
        for j in range(1, order + 1)
    ]
    coeffs = np.concatenate([[a0], tail]) if order else np.array([a0])
    return LocalLogConnection(MatrixSeries(coeffs))


def reference_orthonormalize(cols, tol=1e-9, basis=None):
    """Gram-Schmidt reference: extend an orthonormal basis by the independent columns of `cols`.

    Columns are taken in order.  Each is projected off the basis built
    so far in two passes and kept when its residual exceeds
    tol * max(1, |column|).  The result's leading columns are `basis`
    unchanged (none when omitted), so each prefix of the new columns
    spans what the matching input prefix adds.
    """
    cols = np.asarray(cols, dtype=np.complex128)
    n = cols.shape[0]
    k = 0 if basis is None else basis.shape[1]
    rows = np.empty((k + cols.shape[1], n), dtype=np.complex128)  # basis vectors as rows
    if k:
        rows[:k] = basis.T
    for v in cols.T:
        if k == n:
            break
        u = rows[:k]
        w = v - (u @ v.conj()).conj() @ u
        w = w - (u @ w.conj()).conj() @ u
        nw = np.linalg.norm(w)
        if nw > tol * max(1.0, np.linalg.norm(v)):
            rows[k] = w / nw
            k += 1
    return rows[:k].T


def random_invertible(rng, r, scale=1.0):
    while True:
        g = scale * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
        if np.linalg.cond(g) < 1e4:
            return g


def sorted_punctures(rng, n, min_clearance=0.3):
    """Punctures indexed so the standard loop product telescopes to I.

    Draws are rejected until the standard-loop connectors keep a healthy
    clearance from foreign punctures: threading a connector through a
    needle-thin channel conditions the transport like a near-pole
    passage and no integrator survives that at tight tolerances.
    """
    from logconn import relation_order, standard_loops
    from logconn.verify import _connector_clearance

    for _ in range(500):
        pts = rng.uniform(-2, 2, size=n) + 1j * rng.uniform(-2, 2, size=n)
        if n > 1:
            minpair = float(np.min(np.abs(pts[:, None] - pts[None, :]) + np.eye(n) * 10))
            if minpair < 0.5:
                continue
        else:
            minpair = 1.0
        loops, s = standard_loops(pts)
        if n > 1 and _connector_clearance(pts, s) < min_clearance * minpair:
            continue
        order = relation_order(pts, s)
        return pts[list(order)]
    raise RuntimeError("no well-conditioned puncture configuration found")


def scaled_residues(rng, n, r, budget=1.5):
    """Random residues summing to zero with bounded total spectral radius.

    Monodromy factors scale like exp(2 pi rho(B)); keeping the summed
    spectral radii within `budget` keeps loop products verifiable in
    float64 (partial products amplify integration error multiplicatively).
    """
    raw = [rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)) for _ in range(n - 1)]
    raw.append(-sum(raw))
    total = sum(max(np.abs(np.linalg.eigvals(b))) for b in raw)
    t = min(1.0, budget / total)
    return [b * t for b in raw]


def random_representation(rng, n, r):
    """Generic representation over angular-ordered punctures."""
    mats = [random_invertible(rng, r) for _ in range(n - 1)]
    prod = np.eye(r, dtype=complex)
    for g in mats:
        prod = prod @ g
    mats.append(np.linalg.inv(prod))
    return Representation(sorted_punctures(rng, n), mats)


def random_commuting_representation(rng, n, r):
    """Commuting loop matrices built from one generic matrix's functions."""
    s = random_invertible(rng, r)
    sinv = np.linalg.inv(s)
    eigs = rng.uniform(0.4, 2.0, size=r) * np.exp(1j * rng.uniform(-2.5, 2.5, size=r))
    mats = []
    prod_diag = np.ones(r, dtype=complex)
    for _ in range(n - 1):
        d = rng.uniform(0.5, 1.8, size=r) * np.exp(1j * rng.uniform(-2.0, 2.0, size=r))
        if rng.uniform() < 0.3:
            d = np.full(r, d[0])
        prod_diag *= d
        mats.append(s @ np.diag(d) @ sinv)
    mats.append(s @ np.diag(1.0 / prod_diag) @ sinv)
    return Representation(sorted_punctures(rng, n), mats)


def upper_triangular_representation(rng, diag_columns, couple=0.3):
    """Upper-triangular rep with prescribed diagonals; last matrix implied."""
    r = len(diag_columns[0])
    mats = []
    for dc in diag_columns:
        g = np.diag(np.array(dc, dtype=complex))
        g = g + couple * np.triu(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)), 1)
        mats.append(g)
    prod = np.eye(r, dtype=complex)
    for g in mats:
        prod = prod @ g
    mats.append(np.linalg.inv(prod))
    n = len(mats)
    return Representation(sorted_punctures(rng, n), mats, tol=1e-7)


def conditioned(rng, r, kappa):
    """Unitary times diag(1 .. kappa) times unitary: condition number exactly kappa."""
    unitaries = [np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))[0] for _ in range(2)]
    return unitaries[0] @ np.diag(np.geomspace(1.0, kappa, r)) @ unitaries[1]


def generated_family(rng, family, r, coupling=None):
    """Rank-r U_1, U_2 (upper triangular, diagonal, or U_2 = U_1) and the U_3 closing their product."""
    diags = [np.exp(2j * np.pi * rng.uniform(size=r)) for _ in range(2)]
    if coupling is None:
        coupling = 0.0 if family == "diagonal" else 0.5 / np.sqrt(r)
    us = [np.diag(d) + coupling * np.triu(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)), 1) for d in diags]
    if family == "repeated":
        us[1] = us[0]  # one generator: the algebra is commutative, every eigenvector line invariant
    return Representation(sorted_punctures(rng, 3), [*us, np.linalg.inv(us[0] @ us[1])], tol=1e-7)


def eigenvector_flags(rng, rep):
    """At each puncture, a flag of eigenvector spans in a random order, coarsened at random steps."""
    r = rep.rank
    flags = []
    for g in rep.matrices:
        vecs = np.linalg.eig(g)[1][:, rng.permutation(r)]
        dims = sorted(set(rng.integers(1, r + 1, size=int(rng.integers(1, r + 1))).tolist()) | {r})
        weights = sorted(rng.choice(np.arange(-2 * r, 2 * r), size=len(dims), replace=False).tolist(), reverse=True)
        flags.append(WeightedFlag(tuple(vecs[:, :d] for d in dims), tuple(weights)))
    return WeightedFlatBundle(rep, tuple(flags))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def encode_connection(conn):
    """The local-connection payload of `conn`, the input `documents.decode_connection` reads."""
    return {"series": documents.encode_series(conn.a)}


def series_allclose(a, b, atol=1e-12):
    """Coefficients of two matrix series agree to absolute `atol` up to the lower order."""
    n = min(a.order, b.order)
    return np.allclose(a.coeffs[: n + 1], b.coeffs[: n + 1], atol=atol, rtol=0.0)
