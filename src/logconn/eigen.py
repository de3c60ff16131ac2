"""Complex eigenstructure and the normalized matrix logarithm.

The complex Schur form and its reordering come from LAPACK through
scipy (``zgees`` via :func:`scipy.linalg.schur`, and ``ztrsen``).
Dense desk scale (r <= 16) is the target.

Which Schur eigenvalues are one eigenvalue is decided in one place,
:func:`_cluster_means`, whose radius is derived from the Schur form: rounding
splits a p-fold eigenvalue by about (eps ||T|| ||N||^(p-1))^(1/p) under
a nilpotent part N, far more than any fixed tolerance allows for p > 1.
:func:`clustered_schur` gives weights, log branches and degrees one
cluster mean per eigenvalue.  :func:`_chain` is the one fixed-radius
chained grouping.

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
    "clustered_schur",
    "SpectralSplit",
    "spectral_split",
    "NormalizedLog",
    "norm_log",
    "cluster_expm",
    "floor_snap",
    "norm_log_scalar",
    "log_branches",
    "commuting_log_check",
]

# Snapping tolerance: a value within CLUSTER_TOL of an integer (floor_snap)
# or a normalized-log real part within it of 1 (log_branches) snaps to
# it, which decides weights and resonance downstream.  Which eigenvalues
# form one cluster is derived from the Schur form instead (_cluster_means).
CLUSTER_TOL = 1e-8

# The factor k of the rounding size c = k r eps ||T||_F behind the cluster
# radii of _cluster_means, where its value is derived.
_SPLIT_FACTOR = 10

# Block separation of the Schur-Parlett evaluation (Davies & Higham's
# delta).  The keys are the eigenvalues of the exponent: lambda for
# cluster_expm, 2 pi i log_branches(mu) of the cluster mean mu for
# norm_log.  Keys that chain at distance below _BLOCK_SEP share one
# diagonal block, so a multiple eigenvalue that rounding has split (by
# about (eps ||A|| ||N||^(p-1))^(1/p) for p equal eigenvalues under a
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


def _closure(reach):
    """Transitive closure of a boolean relation made reflexive, by repeated squaring."""
    reach = reach | np.eye(len(reach), dtype=bool)
    while not np.array_equal(square := reach @ reach, reach):
        reach = square
    return reach


def _groups(reach):
    """The classes of an equivalence given as a boolean matrix, ordered by first member."""
    groups = {}
    for i, first in enumerate(reach.argmax(axis=1).tolist()):
        groups.setdefault(first, []).append(i)
    return list(groups.values())


def _chain(vals, radius):
    """Index lists of `vals` joined by chains of steps shorter than `radius`.

    The groups are the classes of the boolean reachability closure of
    the steps, ordered by their first member.
    """
    if len(vals) == 1:
        return [[0]]
    vals = np.asarray(vals)
    return _groups(_closure(np.abs(vals[:, None] - vals) < radius))


def _cluster_means(t, q):
    """The mean of each position's cluster on the Schur diagonal of (t, q).

    A cluster is the set of rounded copies of one eigenvalue.

    Rounding: the computed T is the exact Schur form of A + E with ||E||
    a modest multiple of r eps ||T||_F (zgees is backward stable), and
    c = _SPLIT_FACTOR r eps ||T||_F stands for it.

    Radius: let mu be a p-fold eigenvalue whose Schur block, with its
    positions reordered to lead, is B = mu I + N, N strictly upper
    triangular.  A point z at distance d from mu is an eigenvalue of
    B + E only if c ||(z - B)^-1|| >= 1, and
    (z - B)^-1 = sum_{k<p} N^k / (z - mu)^(k+1).  With

        rho(B) = max_{0 <= k < p} (c ||N^k||)^(1/(k+1)),

    every term c ||N^k|| / d^(k+1) is at most 1 / s at d = s rho(B), so
    rounding moves the p copies of mu by less than p rho(B) (Golub &
    Wilkinson, SIAM Review 18, 1976, give the same order).  As
    ||N^k|| <= nu^k, nu the norm of the strict upper part of T (the
    same for every Schur form of A), rho(B) is at most

        rho_p = max(c, (c nu^(p-1))^(1/p)),

    which needs no reordering.  The factor p is loose: over 5,900
    conjugated Jordan blocks (p = 2-5, r <= 16, bases I + s G with
    s = 0.5-4) the largest deviation of a copy from the mean was
    1.46 rho(B) at factor 1 (p = 3; the 99th percentile was 0.78).
    _SPLIT_FACTOR = 10 scales rho(B) by 10^(1/p) and leaves a margin of
    at least 1.47 there, 3 at p = 2.  Distinct simple eigenvalues at
    relative distance 1e-3 sit about 1000 rho_2 apart.

    Decision: p eigenvalues are one cluster when every member lies
    within rho_p and within rho(B) of their mean (for a pair, where
    both are the square root of c times a coupling, within rho_2).
    Members are then pairwise within 2 rho_p, so eigenvalue i can only
    be in clusters of at most size_i members, the largest p whose
    (p - 1)-th nearest neighbour lies within 2 rho_p (size 1: simple),
    and any two members i, j lie within 2 rho_p for
    p = min(size_i, size_j).  Every cluster therefore lies in one class
    of the reachability closure of those links; each class is split
    top down along its minimum spanning tree, cut at its longest edges
    until every part passes.  The means come from the labels by np.bincount.

    Limit: rho(B) of a group that joins two defective blocks reads the
    coupling between them as one Jordan chain, so such blocks are merged
    when closer than that radius: with bases of spread 0.5, two blocks
    of size 3 at distance 1e-3 and two of size 4 at 1e-2 are one
    cluster, two of size 5 at 0.1 are two.
    """
    vals = t.diagonal()
    r = len(vals)
    c = _SPLIT_FACTOR * r * _EPS * np.linalg.norm(t)
    nu = np.linalg.norm(t - np.diag(vals))
    p = np.arange(1, r + 1)
    rho = np.maximum(c, c ** (1 / p) * nu ** (1 - 1 / p))
    dist = np.abs(vals[:, None] - vals)
    near = np.sort(dist, axis=1) <= 2 * rho
    if not near[:, 1:].any():
        return vals.copy()
    size = r - near[:, ::-1].argmax(axis=1)
    points = vals.tolist()

    def radius(idx):
        block = reorder_schur(t, q, np.bincount(idx, minlength=r) > 0)[0][: len(idx), : len(idx)]
        n = block - np.diag(block.diagonal())
        powers = (np.linalg.norm(np.linalg.matrix_power(n, k)) for k in range(1, len(idx)))
        return max([c] + [(c * x) ** (1 / (k + 1)) for k, x in enumerate(powers, 1)])

    def split(idx):
        if len(idx) == 1:
            return [idx]
        mean = sum(points[i] for i in idx) / len(idx)
        spread = max(abs(points[i] - mean) for i in idx)
        if spread <= rho[len(idx) - 1] and (len(idx) == 2 or spread <= radius(idx)):
            return [idx]
        # cut at the longest edges of the minimum spanning tree: the largest
        # entry of the min-max closure of the distances (Floyd-Warshall)
        b = dist[idx][:, idx]
        for k in range(len(idx)):
            b = np.minimum(b, np.maximum.outer(b[:, k], b[k]))
        return [g for part in _groups(b < b.max()) for g in split([idx[k] for k in part])]

    links = dist <= 2 * rho[np.minimum.outer(size, size) - 1]
    labels = np.empty(r, dtype=int)
    for g, idx in enumerate(g for group in _groups(_closure(links)) for g in split(group)):
        labels[idx] = g
    return ((np.bincount(labels, vals.real) + 1j * np.bincount(labels, vals.imag)) / np.bincount(labels))[labels]


def clustered_schur(a):
    """(t, q, means): A = Q T Q^* and the mean of the cluster of each diagonal position of t.

    All rounded copies of one eigenvalue carry its mean (:func:`_cluster_means`),
    so positions with equal means are one cluster.
    """
    t, q = schur(a)
    return t, q, _cluster_means(t, q)


def _group_schur(t, q, labels):
    """Reorder (t, q) so that the diagonal positions of each label are contiguous,
    labels ascending; the positions of one label keep their order."""
    labels = np.asarray(labels)
    for g in range(labels.max()):
        lead = labels <= g
        if not lead[: np.count_nonzero(lead)].all():
            t, q = reorder_schur(t, q, lead)
            labels = np.concatenate([labels[lead], labels[~lead]])
    return t, q


@dataclass(frozen=True)
class SpectralSplit:
    """Clustered eigenstructure: (representative, multiplicity, orthonormal basis)."""

    clusters: tuple


def spectral_split(g):
    """Cluster the spectrum of `g` and produce invariant orthonormal bases.

    The clusters are those of :func:`clustered_schur`, each represented
    by its mean; the basis columns of a cluster span its (generalized)
    eigenspace, obtained by reordering the Schur form so the cluster
    leads and taking the leading Schur vectors.
    """
    t, q, means = clustered_schur(g)
    clusters = []
    for mean in dict.fromkeys(means.tolist()):
        select = means == mean
        mult = int(np.count_nonzero(select))
        clusters.append((mean, mult, reorder_schur(t, q, select)[1][:, :mult].copy()))
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


def _schur_parlett(t, q, key, block):
    """f(A) = Q F Q^* by the blocked Schur-Parlett algorithm, A = Q T Q^*.

    `key` holds, per diagonal position of t, the point f is expanded
    around; positions whose keys chain within _BLOCK_SEP form one
    diagonal block, made contiguous by :func:`_group_schur`.
    `block(T_ii, mu)` evaluates f on a diagonal block around its mean
    key mu.  The off-diagonal blocks of F follow from T F = F T: block
    column j solves T[:s, :s] X - X T_jj = F[:s, :s] T[:s, j] -
    T[:s, j] F_jj, one triangular Sylvester equation (the Parlett
    recurrence) per block.
    """
    groups = _chain(key, _BLOCK_SEP)
    labels = np.empty(len(key), dtype=int)
    for g, idx in enumerate(groups):
        labels[idx] = g
    t, q = _group_schur(t, q, labels)
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


def log_branches(vals, tol=CLUSTER_TOL):
    """Normalized logarithms log(v) / (2 pi i) of an array of values.

    The branch makes each real part lie in [0, 1); a real part within
    tol of 1 snaps to the next branch.  A value below 1e-14 in modulus
    is read as zero and raises :class:`SingularMatrixError`.
    """
    vals = np.asarray(vals, dtype=np.complex128)
    if np.any(np.abs(vals) < 1e-14):
        raise SingularMatrixError("matrix is singular: zero eigenvalue")
    mu = np.log(vals) / (2j * np.pi)
    re = mu.real + (mu.real < 0.0)
    return re - (re > 1.0 - tol) + 1j * mu.imag


def norm_log_scalar(rho):
    """Normalized logarithm of a nonzero complex scalar: :func:`log_branches` of one value."""
    return complex(log_branches(rho))


def norm_log(g, tol=CLUSTER_TOL):
    """Normalized logarithm: exp(2*pi*i*K) = G, eigenvalue real parts in [0, 1).

    Every Schur position is keyed on 2 pi i log_branches(mu, tol) of its
    cluster mean mu (:func:`clustered_schur`), so the rounded copies of
    one eigenvalue share one branch even where they straddle the cut.
    A Schur block T_ii around its mean key kappa contributes kappa I
    plus log(Z) for Z = T_ii e^{-kappa}, summed as the Gregory series
    log(Z) = 2 atanh(Y) with Y = (Z + I)^{-1} (Z - I).
    """
    t, q, means = clustered_schur(g)

    def block(t, mu):
        eye = np.eye(t.shape[0])
        z = t * np.exp(-mu)
        y = scipy.linalg.solve_triangular(z + eye, z - eye)
        return mu * eye + 2.0 * y @ _power_series(y @ y, lambda j: 1.0 / (2 * j + 1))

    return NormalizedLog(_schur_parlett(t, q, 2j * np.pi * log_branches(means, tol), block) / (2j * np.pi))


def cluster_expm(m):
    """exp(m) by the blocked Schur-Parlett evaluation.

    Each Schur block contributes e^{mu} exp(T_ii - mu I) by the Taylor
    series, with mu its mean eigenvalue; no scaling and squaring is
    needed, which keeps it accurate on the defective, highly non-normal
    matrices that generic Pade scaling and squaring handles poorly.
    """
    t, q = schur(m)

    def block(t, mu):
        return np.exp(mu) * _power_series(t - mu * np.eye(t.shape[0]), lambda k: 1.0 / math.factorial(k))

    return _schur_parlett(t, q, np.diag(t), block)


def floor_snap(x, tol=CLUSTER_TOL):
    """floor(x) with values within tol of an integer snapped to that integer.

    Keeps weight classification stable when -Re(lambda) sits numerically
    on an integer boundary.
    """
    r = round(float(x))
    if abs(x - r) < tol:
        return int(r)
    return int(np.floor(x))


def commuting_log_check(g, g2, c):
    """Whether norm_log(G) C = C norm_log(G') given G C = C G'.

    Diagnostic for the intertwining property of normalized logarithms;
    K C = C K' holds to 1e-8 max(1, ||K|| ||C||); never raises on a false
    outcome, but a precondition residual above 1e-6 ||G|| ||C|| raises.
    """
    g = as_matrix(g, square=True)
    g2 = as_matrix(g2, square=True)
    c = as_matrix(c)
    scale = max(np.linalg.norm(g, 2) * np.linalg.norm(c, 2), 1e-30)
    if np.linalg.norm(g @ c - c @ g2, 2) > 1e-6 * scale:
        raise ValueError("precondition G C = C G' fails beyond tolerance")
    k = norm_log(g).k
    k2 = norm_log(g2).k
    kscale = max(np.linalg.norm(k, 2) * np.linalg.norm(c, 2), 1.0)
    return np.linalg.norm(k @ c - c @ k2, 2) <= 1e-8 * kscale
