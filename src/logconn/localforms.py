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
from .series import MatrixSeries, NumericFailure, ShapeMismatchError, WeightDiagonal, as_matrix
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


class IllConditionedBlockError(NumericFailure, RuntimeError):
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
    """The connection matrix z^Phi(-K-Phi)z^{-Phi} as an exact polynomial.

    The weights do not increase and K is block upper triangular for
    their classes, so entry (i, m) of -K - Phi sits at degree
    phi^i - phi^m >= 0, in a stack of order max(order, phi^1 - phi^r).
    A K with a nonzero entry below its class diagonal would give B a
    pole and is refused with ValueError.
    """
    k = as_matrix(k, square=True)
    weights = np.asarray(phi.entries)
    gaps = np.subtract.outer(weights, weights)
    if np.any(k[gaps < 0] != 0):
        raise ValueError("K has a nonzero entry below its class diagonal: B would have a pole")
    rows, cols = np.nonzero(gaps >= 0)
    b = np.zeros((max(order, int(gaps[0, -1])) + 1,) + k.shape, dtype=np.complex128)
    b[gaps[rows, cols], rows, cols] = (-k - phi.matrix())[rows, cols]
    return MatrixSeries(b)


def _cleared(a0_arr, phi, n):
    """Block pairs of phi's classes whose operators provably clear the
    near-resonance cutoff at degrees 1..n.

    Entry [j - 1, i, m] is True when a lower bound on sigma_min of the
    operator L: X -> (j I + T_ii) X - X T_mm exceeds an upper bound of
    its cutoff _RESONANCE_SVAL max(1, sigma_max(L)); see :func:`normal_form`.
    """
    slices = phi.block_slices
    diag = np.diag(a0_arr)
    starts = [sl.start for sl in slices]
    norms = np.array([np.linalg.norm(a0_arr[sl, sl], 2) for sl in slices])
    uppers = np.array([np.linalg.norm(np.triu(a0_arr[sl, sl], 1), 2) for sl in slices])
    jj = np.arange(1.0, n + 1)[:, None, None]
    gaps = np.abs(jj + diag[:, None] - diag[None, :])
    gap = np.minimum.reduceat(np.minimum.reduceat(gaps, starts, axis=1), starts, axis=2)
    span = norms[:, None] + norms[None, :]
    powers = np.add.outer(phi.sizes, phi.sizes) - 1
    q = np.arange(powers.max())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = ((uppers[:, None] + uppers[None, :]) / gap)[..., None]
        neumann = gap / np.where(q < powers[..., None], ratio**q, 0.0).sum(axis=-1)
    # fmax reads an undefined (nan) Neumann bound, at g = nu = 0, as absent
    return np.fmax(jj - span, neumann) > _RESONANCE_SVAL * np.maximum(1.0, jj + span)


def normal_form(conn, tol=CLUSTER_TOL):
    """Gauge-fix a local logarithmic connection to its normal form.

    Follows the inductive construction: arrange the residue
    block-diagonally by weight class, then solve the coefficient
    recursion (j + A0_ii) M^j_im - M^j_im A0_mm - B^j_im = R^{j-1}_im
    blockwise, with B^j allowed nonzero only on resonant blocks
    (psi^i - j = psi^m).  The right side R^{j-1} = -A_j +
    sum_{0<k<j} (M^k B^{j-k} - A_{j-k} M^k) takes one matrix product per
    sum, [A_{j-1} ... A_1] [M^1; ...; M^{j-1}] and
    [M^1 ... M^{j-1}] [B^{j-1}; ...; B^1]; the second is exactly zero,
    and skipped, until a resonant correction has set some B^k.
    Resonant blocks take the canonical choice: B picks up the
    cokernel component of the right side, M the minimum-norm solution.
    Near-resonant non-resonant blocks (smallest singular value of the
    block operator below _RESONANCE_SVAL = 1e-8 times max(1, largest)) are
    solved the same way with a recorded warning instead of a hard
    failure.

    The arranged residue A0 is block-diagonal with upper-triangular
    blocks T_ii, so the blockwise equations of a degree are exactly the
    whole-matrix Sylvester equation (j I + A0) M^j - M^j A0 = R^{j-1},
    which one LAPACK ``ztrsyl`` back substitution solves (Bartels &
    Stewart, CACM 15, 1972).  It gives each block pair the plain
    inverse, which is the minimum-norm solve of a pair whose operator
    L: X -> (j I + T_ii) X - X T_mm has no singular value at or below
    the cutoff, so that such a pair has no cokernel, B^j = 0 there and
    no warning.  A pair is cleared when a lower bound of sigma_min(L)
    exceeds the upper bound _RESONANCE_SVAL max(1, j + |T_ii| + |T_mm|)
    of its cutoff (|.| the 2-norm), taking the larger of two bounds:

    - Weyl: L = j I + L0 with |L0| <= |T_ii| + |T_mm|, so
      sigma_min(L) >= j - |T_ii| - |T_mm|.
    - Neumann: L = D + N with D diagonal, its entries j + t_aa - t_bb
      over the pair's diagonal entries at least g in modulus, and
      |N| <= nu, the sum of the norms of the strictly upper parts of
      T_ii and T_mm, so |D^-1 N| <= nu / g.  Entry (p, q) of L X reads
      only entries (p' >= p, q) and (p, q' <= q) of X, so N strictly
      lowers the level q - p and D^-1 N is nilpotent of index at most
      P = d_i + d_m - 1.  Hence L^-1 = sum_{k<P} (-D^-1 N)^k D^-1 and
      sigma_min(L) >= g / sum_{k<P} (nu / g)^k.

    The other pairs are flagged (:func:`_cleared`): their right sides
    are zeroed for the triangular solve, which as A0 is block-diagonal
    leaves them zero and the rest untouched, and each then takes the
    SVD of its Kronecker operator kron(I, j I + T_ii) - kron(T_mm^T, I)
    on column-major vec(X).  Resonance decisions, cokernel corrections
    and warnings all come from there.
    """
    r = conn.rank
    n = conn.order
    t_total, a0_arr, phi = _arranging_gauge(conn.residue, tol)
    a_arr = arranged_series(conn, t_total).coeffs
    slices, values, sizes = phi.block_slices, phi.values, phi.sizes

    k = np.zeros((r, r), dtype=np.complex128)
    for mdx, sl in enumerate(slices):
        k[sl, sl] = -a0_arr[sl, sl] - values[mdx] * np.eye(sl.stop - sl.start)

    eye = np.eye(r)
    m = np.zeros((n + 1, r, r), dtype=np.complex128)
    m[0] = eye
    # [A_n ... A_0], [M^1 ... M^n] side by side and [B^n; ...; B^1]
    # stacked: degree j reads blocks A_{j-1} ... A_1 of the first, the
    # first j - 1 blocks of the second and the last j - 1 of the third
    a_wide = np.concatenate(a_arr[::-1], axis=1)
    m_wide = np.zeros((r, n * r), dtype=np.complex128)
    b_tall = np.zeros((n * r, r), dtype=np.complex128)
    coupled = False  # sum M^k B^{j-k} is exactly zero until some B^j is set
    warnings = []
    flags = ~_cleared(a0_arr, phi, n)
    flagged = np.repeat(np.repeat(flags, sizes, axis=1), sizes, axis=2)
    pairs = [[] for _ in range(n + 1)]
    for d, i, mm in np.argwhere(flags).tolist():
        pairs[d + 1].append((i, mm))

    for j in range(1, n + 1):
        rhs = -a_arr[j] - a_wide[:, (n - j + 1) * r : n * r] @ m[1:j].reshape(-1, r)
        if coupled:
            rhs += m_wide[:, : (j - 1) * r] @ b_tall[(n - j + 1) * r :]
        x, scale, _ = scipy.linalg.lapack.ztrsyl(j * eye + a0_arr, a0_arr, np.where(flagged[j - 1], 0.0, rhs), isgn=-1)
        m[j] = x / scale
        if not np.all(np.isfinite(m[j])):
            raise IllConditionedBlockError("non-finite triangular solve", ("*", "*", j))
        b_j = b_tall[(n - j) * r : (n - j + 1) * r]
        for i, mm in pairs[j]:
            si, sm = slices[i], slices[mm]
            di, dm = sizes[i], sizes[mm]
            op = np.kron(np.eye(dm), j * np.eye(di) + a0_arr[si, si]) - np.kron(a0_arr[sm, sm].T, np.eye(di))
            u, svals, vh = np.linalg.svd(op)
            rvec = rhs[si, sm].flatten(order="F")
            resonant = values[i] - j == values[mm]
            cutoff = _RESONANCE_SVAL * max(1.0, svals[0])
            small = svals <= cutoff
            if not resonant and np.any(small):
                dropped = float(np.linalg.norm((u[:, small].conj().T @ rvec)))
                warnings.append(
                    f"near-resonant block (i={i}, m={mm}, j={j}): "
                    f"smallest singular value {svals[-1]:.3e}, dropped residual {dropped:.3e}"
                )
            if resonant:
                coker = u[:, small]
                bvec = -(coker @ (coker.conj().T @ rvec)) if coker.shape[1] else np.zeros_like(rvec)
                b_j[si, sm] = bvec.reshape((di, dm), order="F")
                k[si, sm] = -b_j[si, sm]
                rvec = rvec + bvec
                coupled = True
            safe = np.where(small | (svals == 0.0), 1.0, svals)
            inv_svals = np.where(small | (svals == 0.0), 0.0, 1.0 / safe)
            xvec = vh.conj().T @ (inv_svals * (u.conj().T @ rvec))
            if not np.all(np.isfinite(xvec)):
                raise IllConditionedBlockError("non-finite block solve", (i, mm, j))
            m[j][si, sm] = xvec.reshape((di, dm), order="F")
        m_wide[:, (j - 1) * r : j * r] = m[j]

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
    The transport (:func:`logconn.verify.integrate_local`) cuts the
    circle into 13 equal steps and sums each step's Taylor series until
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
