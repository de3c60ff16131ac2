"""Complex eigenstructure and the normalized matrix logarithm.

The complex Schur form and its reordering come from LAPACK through
scipy (``zgees`` via :func:`scipy.linalg.schur`, and ``ztrsen``).
Dense desk scale (r <= 16) is the target.

The normalized logarithm of an invertible G is the K with
exp(2*pi*i*K) = G whose eigenvalues all have real part in [0, 1).
:func:`norm_log` and :func:`cluster_expm` share one blocked
Schur-Parlett evaluation (Davies & Higham, SIMAX 2003): the Schur
diagonal is grouped into well-separated blocks, each diagonal block is
a scalar plus one convergent power series, and the off-diagonal blocks
follow from the Parlett recurrence, solved as triangular Sylvester
equations.  No non-orthogonal basis is ever inverted, so both stay
accurate on defective and nearly defective inputs.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .series import as_matrix

__all__ = [
    "CLUSTER_TOL",
    "NonConvergenceError",
    "SingularMatrixError",
    "schur",
    "reorder_schur",
    "eigenvalues",
    "SpectralSplit",
    "spectral_split",
    "NormalizedLog",
    "norm_log",
    "norm_log_scalar",
    "commuting_log_check",
]

# Relative eigenvalue clustering tolerance.  Eigenvalues closer than
# CLUSTER_TOL * scale are treated as one cluster, which also decides
# resonance classification downstream.
CLUSTER_TOL = 1e-8

# Block separation of the Schur-Parlett evaluation (Davies & Higham's
# delta).  The keys are the eigenvalues of the exponent: lambda for
# cluster_expm, 2 pi i norm_log_scalar(lambda) for norm_log.  Keys that
# chain at distance below _BLOCK_SEP share one diagonal block, so a
# multiple eigenvalue that rounding has split (by about
# (eps ||A|| ||N||^(p-1))^(1/p) for p equal eigenvalues under a
# nilpotent part N) stays in one block.  Between blocks the Parlett
# recurrence divides by eigenvalue differences of at least _BLOCK_SEP
# (for the log, _BLOCK_SEP times |lambda|, except across the branch cut
# where the normalized logarithm itself jumps), which costs up to about
# eps / _BLOCK_SEP ~ 5e-15 relative accuracy.  Within a block of size
# m <= 16 the keys lie within d = (m - 1) * _BLOCK_SEP <= 0.75 of their
# mean: the exp series argument has spectral radius at most 0.75 and
# the squared argument of the log (Gregory) series at most
# |tanh(d / 2)|^2 <= 0.16, so both converge geometrically once the
# nilpotent part of the block is used up.
_BLOCK_SEP = 0.05

_EPS = np.finfo(float).eps
_MAX_SERIES_TERMS = 200


class NonConvergenceError(RuntimeError):
    def __init__(self, message, iterations=None):
        if iterations is not None:
            message = f"{message} (after {iterations} iterations)"
        super().__init__(message)
        self.iterations = iterations


class SingularMatrixError(ValueError):
    pass


def schur(a):
    """Complex Schur decomposition A = Q T Q^* with T upper triangular.

    LAPACK's failure to converge is raised as :class:`NonConvergenceError`.
    """
    a = as_matrix(a, square=True)
    try:
        t, q = scipy.linalg.schur(a, output="complex")
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"LAPACK Schur iteration failed: {exc}") from exc
    return t, q


def reorder_schur(t, q, select):
    """Move the selected diagonal positions to the top-left, order preserved.

    Returns fresh (t, q); `select` is a boolean mask over diagonal
    positions of the triangular factor.
    """
    ts, qs, *_ = lapack.ztrsen(np.asarray(select, dtype=bool), t, q, job="N")
    return ts, qs


def eigenvalues(a):
    """Eigenvalues (with multiplicity) from the Schur form."""
    t, _ = schur(a)
    return np.diag(t).copy()


def _cluster_indices(vals, tol):
    """Union-find clustering of eigenvalues at pairwise distance < tol."""
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
    # deterministic ordering: by first appearance
    return sorted(groups.values(), key=lambda g: g[0])


@dataclass(frozen=True)
class SpectralSplit:
    """Clustered eigenstructure: (representative, multiplicity, orthonormal basis)."""

    clusters: tuple

    @property
    def dim(self):
        return sum(mult for _, mult, _ in self.clusters)


def spectral_split(g, tol=CLUSTER_TOL):
    """Cluster the spectrum of `g` and produce invariant orthonormal bases.

    Eigenvalues at pairwise distance below tol * scale fall into one
    cluster; the basis columns of a cluster span its (generalized)
    eigenspace, obtained by reordering the Schur form so the cluster
    leads and taking the leading Schur vectors.
    """
    g = as_matrix(g, square=True)
    t, q = schur(g)
    vals = np.diag(t)
    scale = max(1.0, float(np.max(np.abs(vals))))
    groups = _cluster_indices(vals, tol * scale)
    clusters = []
    for idx in groups:
        mask = np.zeros(len(vals), dtype=bool)
        mask[idx] = True
        t2, q2 = reorder_schur(t, q, mask)
        k = len(idx)
        basis = q2[:, :k].copy()
        mu = complex(np.mean(vals[idx]))
        clusters.append((mu, k, basis))
    return SpectralSplit(tuple(clusters))


def _power_series(x, coeff):
    """sum_k coeff(k) x^k for a triangular Schur block x of small spectral radius.

    Terms up to the block size carry the nilpotent part of x; past it
    they decay geometrically, and the sum stops at the first such term
    below eps relative to the sum.
    """
    m = x.shape[0]
    acc = coeff(0) * np.eye(m, dtype=np.complex128)
    power = np.eye(m, dtype=np.complex128)
    for k in range(1, _MAX_SERIES_TERMS + 1):
        power = power @ x
        term = coeff(k) * power
        acc += term
        if k >= m and np.max(np.abs(term)) <= _EPS * np.max(np.abs(acc)):
            return acc
    raise NonConvergenceError("block power series did not converge", _MAX_SERIES_TERMS)


def _schur_parlett(a, keys, block):
    """f(A) = Q F Q^* by the blocked Schur-Parlett algorithm.

    `keys` maps the Schur diagonal to the points f is expanded around;
    positions whose keys chain within _BLOCK_SEP form one diagonal
    block, made contiguous by reordering.  `block(T_ii, mu)` evaluates
    f on a diagonal block around its mean key mu.  The off-diagonal
    blocks of F follow from T F = F T: block column j solves
    T[:s, :s] X - X T_jj = F[:s, :s] T[:s, j] - T[:s, j] F_jj, one
    triangular Sylvester equation (the Parlett recurrence) per block.
    """
    t, q = schur(a)
    key = keys(np.diag(t))
    groups = _cluster_indices(key, _BLOCK_SEP)
    label = np.empty(len(key), dtype=int)
    for g, idx in enumerate(groups):
        label[idx] = g
    for g in range(len(groups) - 1):
        lead = label <= g
        if not lead[: np.count_nonzero(lead)].all():
            t, q = reorder_schur(t, q, lead)
            label = np.concatenate([label[lead], label[~lead]])
    f = np.zeros_like(t)
    s = 0
    for idx in groups:
        e = s + len(idx)
        f[s:e, s:e] = block(t[s:e, s:e], np.mean(key[idx]))
        if s:
            rhs = f[:s, :s] @ t[:s, s:e] - t[:s, s:e] @ f[s:e, s:e]
            x, scale, _ = lapack.ztrsyl(t[:s, :s], t[s:e, s:e], rhs, isgn=-1)
            f[:s, s:e] = x / scale
        s = e
    return q @ f @ q.conj().T


@dataclass(frozen=True)
class NormalizedLog:
    """K with exp(2*pi*i*K) equal to the source and Re(spec K) in [0, 1)."""

    k: np.ndarray


def norm_log_scalar(rho, snap_tol=CLUSTER_TOL):
    """Normalized logarithm of a nonzero complex scalar.

    mu = log(rho)/(2*pi*i) with the branch making Re(mu) in [0, 1); a
    real part within snap_tol of 1 snaps to the next branch.
    """
    rho = complex(rho)
    if rho == 0:
        raise SingularMatrixError("norm log of zero")
    mu = complex(np.angle(rho) / (2.0 * np.pi), -np.log(abs(rho)) / (2.0 * np.pi))
    if mu.real < 0.0:
        mu += 1.0
    if mu.real > 1.0 - snap_tol:
        mu -= 1.0
    return mu


def norm_log(g, tol=CLUSTER_TOL):
    """Normalized logarithm: exp(2*pi*i*K) = G, eigenvalue real parts in [0, 1).

    Each eigenvalue's branch is 2 pi i norm_log_scalar(lambda, tol).  A
    Schur block T_ii around its mean branch mu contributes mu I plus
    log(Z) for Z = T_ii e^{-mu}, summed as the Gregory series
    log(Z) = 2 atanh(Y) with Y = (Z + I)^{-1} (Z - I).
    """
    g = as_matrix(g, square=True)

    def keys(vals):
        if np.any(np.abs(vals) < 1e-14):
            raise SingularMatrixError("matrix is singular: zero eigenvalue")
        return np.array([2j * np.pi * norm_log_scalar(v, snap_tol=tol) for v in vals])

    def block(t, mu):
        eye = np.eye(t.shape[0])
        z = t * np.exp(-mu)
        y = scipy.linalg.solve_triangular(z + eye, z - eye)
        return mu * eye + 2.0 * y @ _power_series(y @ y, lambda j: 1.0 / (2 * j + 1))

    return NormalizedLog(_schur_parlett(g, keys, block) / (2j * np.pi))


def cluster_expm(m):
    """exp(m) by the blocked Schur-Parlett evaluation.

    Each Schur block contributes e^{mu} exp(T_ii - mu I) by the Taylor
    series, with mu its mean eigenvalue; no scaling and squaring is
    needed, which keeps it accurate on the defective, highly non-normal
    matrices that generic Pade scaling and squaring handles poorly.
    """
    m = as_matrix(m, square=True)

    def block(t, mu):
        return np.exp(mu) * _power_series(t - mu * np.eye(t.shape[0]), lambda k: 1.0 / math.factorial(k))

    return _schur_parlett(m, lambda vals: vals, block)


def floor_snap(x, tol=CLUSTER_TOL):
    """floor(x) with values within tol of an integer snapped to that integer.

    Keeps weight classification stable when -Re(lambda) sits numerically
    on an integer boundary.
    """
    r = round(float(x))
    if abs(x - r) < tol:
        return int(r)
    return int(np.floor(x))


def commuting_log_check(g, g2, c, tol=1e-8):
    """Whether norm_log(G) C = C norm_log(G') given G C = C G'.

    Diagnostic for the intertwining property of normalized logarithms;
    returns the verdict, never raises on a false outcome.
    """
    g = as_matrix(g, square=True)
    g2 = as_matrix(g2, square=True)
    c = as_matrix(c)
    scale = max(np.linalg.norm(g, 2) * np.linalg.norm(c, 2), 1e-30)
    if np.linalg.norm(g @ c - c @ g2, 2) > 100 * tol * scale:
        raise ValueError("precondition G C = C G' fails beyond tolerance")
    k = norm_log(g).k
    k2 = norm_log(g2).k
    kscale = max(np.linalg.norm(k, 2) * np.linalg.norm(c, 2), 1.0)
    return np.linalg.norm(k @ c - c @ k2, 2) <= tol * kscale
