"""Constructive Fuchsian synthesis and integer-weight feasibility.

Implements the constructive side of the Riemann-Hilbert machinery at
desk scale: explicit residues for commuting monodromy (the negated
normalized logarithms, with the first closing the sum), the
frame/permutation solver producing the triangular polynomial gauge b
with its divisibility certificate, weight-shift and regauge steps for
given splitting types, the upper-triangular integer-weight solvers for
rank up to four, the cyclic-vector weight plan, the double-rank
embedding, and the partial rank-three decision.

All weight arithmetic is exact over the integers.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bundles import (
    Representation,
    WeightedFlag,
    WeightedFlatBundle,
    Semistability,
    degree,
    invariant_subspaces,
    semistable,
    _span_basis,
    _span_closure,
)
from .eigen import CLUSTER_TOL, _chain, clustered_schur, eigenvalues, norm_log, norm_log_scalar, schur
from .series import MatrixSeries, WeightDiagonal, as_matrix

__all__ = [
    "FuchsianSystem",
    "SplittingType",
    "WeightMatrixFamily",
    "NonCommutingError",
    "InconsistentRepresentationError",
    "commutative_fuchsian",
    "BqFrame",
    "BqFrameError",
    "bq_frame",
    "permutation_matrix",
    "shift_weights",
    "DisorderedWeightsError",
    "regauge_given_splitting",
    "BoundReport",
    "splitting_bound_check",
    "Infeasible",
    "SolverIncompleteError",
    "solve_weights_parabolic",
    "validate_weight_family",
    "CyclicWeightPlan",
    "NotEigenvectorError",
    "NotCyclicError",
    "cyclic_weight_plan",
    "double_rank_embedding",
    "jordan_block_count",
    "bt_obstruction",
    "Rank3Verdict",
    "Rank3Decision",
    "rank3_decide",
]


class NonCommutingError(ValueError):
    pass


class InconsistentRepresentationError(ValueError):
    pass


@dataclass(frozen=True)
class FuchsianSystem:
    """d + sum B_j/(z - a_j) dz on the trivial bundle; residues sum to zero (to 1e-8 max(1, max ||B_j||))."""

    punctures: tuple
    residues: tuple

    def __post_init__(self):
        punctures = tuple(complex(a) for a in self.punctures)
        residues = tuple(as_matrix(b, square=True).copy() for b in self.residues)
        for b in residues:
            b.setflags(write=False)
        if len(punctures) != len(residues) or not residues:
            raise ValueError("one residue per puncture required")
        r = residues[0].shape[0]
        if any(b.shape[0] != r for b in residues):
            raise ValueError("residues must share one size")
        total = sum(residues)
        scale = max(1.0, max(np.linalg.norm(b, 2) for b in residues))
        if np.linalg.norm(total, 2) > 1e-8 * scale:
            raise ValueError(
                f"residues sum to {np.linalg.norm(total, 2):.3e}; system not smooth at infinity"
            )
        object.__setattr__(self, "punctures", punctures)
        object.__setattr__(self, "residues", residues)

    @property
    def rank(self):
        return self.residues[0].shape[0]


@dataclass(frozen=True)
class SplittingType:
    """Non-increasing integers c_1 >= ... >= c_r."""

    entries: tuple

    def __post_init__(self):
        e = tuple(int(x) for x in self.entries)
        if not e:
            raise ValueError("empty splitting type")
        if any(a < b for a, b in zip(e, e[1:])):
            raise ValueError(f"splitting type must be non-increasing, got {e}")
        object.__setattr__(self, "entries", e)

    @property
    def rank(self):
        return len(self.entries)

    @property
    def spread(self):
        return self.entries[0] - self.entries[-1]


@dataclass(frozen=True)
class WeightMatrixFamily:
    """Integer weights phi[j][i], one row per puncture."""

    phi: tuple  # tuple of tuples, n rows of length r
    satisfies_equalities: bool = True  # whether the strong per-column equalities hold

    @property
    def n(self):
        return len(self.phi)

    @property
    def rank(self):
        return len(self.phi[0])


# --------------------------------------------------------------------------
# commutative synthesis


def commutative_fuchsian(rep, tol=1e-8):
    """Fuchsian system with prescribed commuting monodromy.

    The residues are B_j = -K_j for j >= 2 and B_1 = -(B_2 + ... + B_n),
    K_j = norm_log(G_j).  Each K_j is a primary matrix function of G_j,
    a polynomial in G_j (Higham, Functions of Matrices, 2008, Thm 1.13),
    so the K_j commute and keep every joint generalized eigenspace of
    the G_j.  On such a block K_j = mu_j I + N_j with N_j nilpotent, and
    G_1 ... G_n = I gives exp(2 pi i sum_j K_j) = I there: sum_j mu_j is
    an integer xi_b and exp(2 pi i sum_j N_j) = I, so the nilpotent
    sum_j N_j is zero.  Hence sum_j K_j is diagonalizable with integer
    eigenvalues, exp(-2 pi i B_1) = G_2^-1 ... G_n^-1 = G_1, and B_1
    equals xi_b I - K_1 on each block, the residue of Anosov and
    Bolibruch (The Riemann-Hilbert Problem, 1994), without forming the
    blocks or their basis.  The residues sum to zero by construction.

    Raises NonCommutingError when a commutator exceeds tol scale^2, and
    InconsistentRepresentationError when an eigenvalue of
    K_1 + ... + K_n is not an integer (the loop product is broken).
    """
    mats = list(rep.matrices)
    n = len(mats)
    scale = max(np.linalg.norm(g, 2) for g in mats)
    for a in range(n):
        for b in range(a + 1, n):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            if np.linalg.norm(comm, 2) > tol * scale * scale:
                raise NonCommutingError(
                    f"matrices {a} and {b} do not commute (defect {np.linalg.norm(comm, 2):.3e})"
                )
    ks = [norm_log(g).k for g in mats]
    xi = eigenvalues(sum(ks))
    defect = np.maximum(np.abs(xi.imag), np.abs(xi.real - np.round(xi.real)))
    if np.any(defect > 1e-6):
        raise InconsistentRepresentationError(
            f"exponent sum {xi[np.argmax(defect)]} is not an integer; loop product broken"
        )
    b1 = sum(ks[1:], np.zeros_like(ks[0]))
    return FuchsianSystem(rep.punctures, (b1, *(-k for k in ks[1:])))


# --------------------------------------------------------------------------
# frame/permutation solver


class BqFrameError(RuntimeError):
    pass


@dataclass(frozen=True)
class BqFrame:
    """Permutation and triangular polynomial gauge with divisibility data.

    perm[pos] is the source column placed at position pos, i.e. the
    permuted series is Qk[:, perm].  b is unit-diagonal upper-triangular
    with deg b_{i,j} <= c_i - c_j - 1.  residual is the largest
    forbidden low-order coefficient of b (Qk P^{-1}).
    """

    perm: tuple
    b: MatrixSeries
    residual: float


def permutation_matrix(perm):
    r = len(perm)
    p = np.zeros((r, r), dtype=np.complex128)
    for pos, src in enumerate(perm):
        p[pos, src] = 1.0
    return p


def _choose_permutation(q0, tol):
    """Column order making every bottom-right minor of Q0[:, perm] nonsingular.

    Greedy from the last position inward, maximizing the smallest
    singular value of the growing corner minor, with backtracking.
    """
    r = q0.shape[0]
    scale = max(np.linalg.norm(q0, 2), 1e-300)

    def search(pos, chosen):
        if pos < 0:
            return chosen
        remaining = [c for c in range(r) if c not in chosen]
        scored = []
        for c in remaining:
            minor = q0[np.ix_(range(pos, r), [c] + list(chosen))]
            smin = np.linalg.svd(minor, compute_uv=False)[-1]
            scored.append((smin, c))
        scored.sort(reverse=True)
        for smin, c in scored:
            if smin <= tol * scale:
                break
            result = search(pos - 1, [c] + list(chosen))
            if result is not None:
                return result
        return None

    perm = search(r - 1, [])
    if perm is None:
        raise BqFrameError("no permutation yields nonsingular bottom-right minors")
    return tuple(perm)


def bq_frame(c, qk, tol=1e-9):
    """Frame permutation P and polynomial gauge b for a given splitting type.

    Solves, row by row and degree by degree, the triangular linear
    systems making z^{c_i - c_m} divide (b Qk P^{-1})_{i,m} for i < m;
    each system's matrix is a bottom-right minor of Qk(0) P^{-1}, which
    the permutation search made invertible.
    """
    if not isinstance(c, SplittingType):
        c = SplittingType(tuple(c))
    r = c.rank
    if qk.dim_out != r or qk.dim_in != r:
        raise ValueError("series shape does not match the splitting type")
    if qk.order < c.spread:
        raise ValueError(
            f"series order {qk.order} below the splitting spread {c.spread}"
        )
    q0 = qk.coeffs[0]
    if np.linalg.cond(q0) > 1e10:
        raise BqFrameError("leading coefficient of the frame series is singular")
    cs = c.entries
    if c.spread == 0:
        # constant type: the divisibility condition is vacuous
        perm = tuple(range(r))
        b = MatrixSeries.identity(r)
        return BqFrame(perm=perm, b=b, residual=0.0)

    perm = _choose_permutation(q0, tol)
    qp = MatrixSeries(qk.coeffs[:, :, list(perm)])
    q = qp.coeffs  # q[p, j, m]

    deg_b = max(0, cs[0] - cs[-1] - 1)
    b = np.zeros((deg_b + 1, r, r), dtype=np.complex128)
    b[0] += np.eye(r)
    for i in range(r):
        max_p = cs[i] - cs[-1] - 1
        for p in range(0, max_p + 1):
            alpha = None
            for j in range(i + 1, r):
                if p <= cs[i] - cs[j] - 1:
                    alpha = j
                    break
            if alpha is None:
                continue
            idx = list(range(alpha, r))
            rhs = np.zeros(len(idx), dtype=np.complex128)
            for mpos, m in enumerate(idx):
                acc = q[p, i, m] if p <= qp.order else 0.0
                for t in range(0, p):
                    for j in range(i + 1, r):
                        if t <= cs[i] - cs[j] - 1 and 0 <= p - t <= qp.order:
                            acc += b[t, i, j] * q[p - t, j, m]
                rhs[mpos] = -acc
            block = q[0][np.ix_(idx, idx)]
            sol = np.linalg.solve(block.T, rhs)
            for jpos, j in enumerate(idx):
                b[p, i, j] = sol[jpos]

    b_series = MatrixSeries(b)
    prod = b_series.pad(qp.order) * qp
    residual = 0.0
    for i in range(r):
        for m in range(i + 1, r):
            for p in range(min(cs[i] - cs[m], prod.order + 1)):
                residual = max(residual, float(abs(prod.coeffs[p, i, m])))
    if residual > max(10 * tol, 1e-9) * max(1.0, qp.max_coeff_norm()):
        raise BqFrameError(f"divisibility residual {residual:.3e} above tolerance")
    return BqFrame(perm=perm, b=b_series, residual=residual)


# --------------------------------------------------------------------------
# weight shifts, regauge, and splitting bounds


def shift_weights(wfb, lambdas):
    """Shift all weights at puncture j by lambdas[j]; degree moves by r sum(lambda)."""
    lambdas = [int(x) for x in lambdas]
    if len(lambdas) != wfb.rep.n:
        raise ValueError("need one shift per puncture")
    before = degree(wfb)
    flags = [
        WeightedFlag(f.subspaces, tuple(w + lam for w in f.weights))
        for f, lam in zip(wfb.flags, lambdas)
    ]
    shifted = wfb.with_flags(flags)
    after = degree(shifted)
    expected = before + wfb.rank * sum(lambdas)
    if after != expected:
        raise AssertionError(f"degree moved to {after}, expected {expected}")
    return shifted


class DisorderedWeightsError(ValueError):
    pass


def regauge_given_splitting(phi_k, c, perm):
    """The regauged weights Phi_k - P^{-1} C P for a known splitting type.

    Sufficient for ordered output: every gap of Phi_k at least the
    splitting spread (the plan constructions arrange gaps of
    (r-1)(n-2), which dominates by the splitting bound).  Raises if the
    result fails to be non-increasing.
    """
    if not isinstance(c, SplittingType):
        c = SplittingType(tuple(c))
    entries = phi_k.entries if isinstance(phi_k, WeightDiagonal) else tuple(int(x) for x in phi_k)
    r = len(entries)
    if c.rank != r or len(perm) != r:
        raise ValueError("rank mismatch between weights, splitting type and permutation")
    # diag(P^T C P) for P = permutation_matrix(perm) is c[argsort(perm)]
    conj = np.array(c.entries)[np.argsort(perm)]
    new = tuple(int(e - x) for e, x in zip(entries, conj))
    if any(a < b for a, b in zip(new, new[1:])):
        raise DisorderedWeightsError(
            f"regauged weights {new} are not non-increasing; "
            f"weight gaps must dominate the splitting spread {c.spread}"
        )
    return WeightDiagonal(new)


@dataclass(frozen=True)
class BoundReport:
    """Evaluation of the splitting-type bounds for semi-stable connections."""

    gap_bound: int
    gap_violations: tuple  # (i, gap) with gap > n-2
    sum_bound: int
    sum_value: int
    forces_constant: bool

    @property
    def gaps_ok(self):
        return not self.gap_violations

    @property
    def sum_ok(self):
        return self.sum_value <= self.sum_bound

    @property
    def all_ok(self):
        return self.gaps_ok and self.sum_ok


def splitting_bound_check(c, n, r):
    """Check c_i - c_{i+1} <= n-2 and sum(c_1 - c_i) <= (n-2) r (r-1)/2."""
    if not isinstance(c, SplittingType):
        c = SplittingType(tuple(c))
    if c.rank != r:
        raise ValueError("splitting type rank mismatch")
    if n < 2:
        raise ValueError("need at least two punctures")
    gap_bound = n - 2
    violations = tuple(
        (i, c.entries[i] - c.entries[i + 1])
        for i in range(r - 1)
        if c.entries[i] - c.entries[i + 1] > gap_bound
    )
    sum_value = sum(c.entries[0] - ci for ci in c.entries)
    sum_bound = (n - 2) * r * (r - 1) // 2
    return BoundReport(
        gap_bound=gap_bound,
        gap_violations=violations,
        sum_bound=sum_bound,
        sum_value=sum_value,
        forces_constant=(n == 2),
    )


# --------------------------------------------------------------------------
# parabolic weight solver


class Infeasible(Exception):
    """The equality-constrained weight system has no integer solution."""


class SolverIncompleteError(RuntimeError):
    """The case analysis does not cover this input (rank above four)."""


def _column_classes(rho):
    """Per puncture, row index -> class id, rows whose diagonal entries chain within
    CLUSTER_TOL max(1, max |rho_j|) sharing one."""
    return [
        {int(i): cid for cid, idx in enumerate(_chain(col, CLUSTER_TOL * max(1.0, np.max(np.abs(col))))) for i in idx}
        for col in np.asarray(rho)
    ]


def _smith_solve(a, b):
    """One integer solution of a y = b, or None.

    Diagonalizes over the integers with tracked unimodular row/column
    operations (Smith-style, no divisibility chain needed for solving).
    """
    a = [[int(x) for x in row] for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i1, i2, q):  # row i1 -= q * row i2
        for t in range(n):
            a[i1][t] -= q * a[i2][t]
        for t in range(m):
            u[i1][t] -= q * u[i2][t]

    def col_op(j1, j2, q):  # col j1 -= q * col j2
        for t in range(m):
            a[t][j1] -= q * a[t][j2]
        for t in range(n):
            v[t][j1] -= q * v[t][j2]

    def swap_rows(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for t in range(m):
            a[t][j1], a[t][j2] = a[t][j2], a[t][j1]
        for t in range(n):
            v[t][j1], v[t][j2] = v[t][j2], v[t][j1]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        t += 1

    c = [sum(u[i][k] * int(b[k]) for k in range(m)) for i in range(m)]
    z = [0] * n
    for i in range(m):
        d = a[i][i] if i < n else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            z[i] = c[i] // d
    return [sum(v[i][k] * z[k] for k in range(n)) for i in range(n)]


def _solve_equalities_lattice(classes, lam, n, rows):
    """Exact integer solve of the per-column equality classes plus row sums."""
    rows = list(rows)
    var_index = {}
    for j in range(n):
        for i in rows:
            key = (j, classes[j][i])
            if key not in var_index:
                var_index[key] = len(var_index)
    a = [[0] * len(var_index) for _ in rows]
    for ridx, i in enumerate(rows):
        for j in range(n):
            a[ridx][var_index[(j, classes[j][i])]] += 1
    b = [lam[i] for i in rows]
    y = _smith_solve(a, b)
    if y is None:
        raise Infeasible("no integer weights satisfy the equality classes and row sums")
    return {i: [y[var_index[(j, classes[j][i])]] for j in range(n)] for i in rows}


def _solve_cases(classes, lam, n, rows, relaxed):
    """Recursive case analysis for the equality-constrained weight system.

    Returns {row index: [phi_j]} satisfying the inequality constraints
    and exact row sums.  In relaxed mode the rank-four two-block case is
    replaced by the exact lattice solve, so the per-column equalities
    hold outright; otherwise the large-shift construction is used and
    only the inequality form is guaranteed.
    """
    rows = sorted(rows)
    m = len(rows)
    if m == 0:
        return {}
    if m == 1:
        i = rows[0]
        out = [0] * n
        out[0] = lam[i]
        return {i: out}

    def same(j, i, k):
        return classes[j][i] == classes[j][k]

    # reduction claim: a diagonal entry unique in its column
    for j in range(n):
        for k in rows:
            if all(not same(j, k, t) for t in rows if t != k):
                rest = [t for t in rows if t != k]
                sol = _solve_cases(classes, lam, n, rest, relaxed)
                phik = [0] * n
                for j2 in range(n):
                    if j2 == j:
                        continue
                    # tied rows fix this value; when the sub-solution only
                    # satisfies the ordering form, the inequalities pin it
                    # between the ties above and below
                    above = [sol[t][j2] for t in rest if t > k and same(j2, k, t)]
                    below = [sol[t][j2] for t in rest if t < k and same(j2, k, t)]
                    if above and below and max(above) > min(below):
                        raise SolverIncompleteError(
                            "reduced sub-solution leaves no consistent value "
                            f"for row {k} at puncture {j2}"
                        )
                    if above:
                        phik[j2] = max(above)
                    elif below:
                        phik[j2] = min(below)
                phik[j] = lam[k] - sum(phik[j2] for j2 in range(n) if j2 != j)
                sol[k] = phik
                return sol

    # all diagonal entries coincide columnwise
    if all(same(j, rows[0], t) for j in range(n) for t in rows):
        if any(lam[t] != lam[rows[0]] for t in rows):
            raise InconsistentRepresentationError(
                "equal diagonals with unequal exponent sums"
            )
        out = [0] * n
        out[0] = lam[rows[0]]
        return {i: list(out) for i in rows}

    if m != 4:
        if relaxed:
            return _solve_equalities_lattice(classes, lam, n, rows)
        raise SolverIncompleteError(
            f"no unique diagonal entry and {m} coupled rows: outside the rank-4 case analysis"
        )

    p1, p2, p3, p4 = rows
    # two-block columns rho^1 = rho^2 != rho^3 = rho^4
    two_block = [
        j
        for j in range(n)
        if same(j, p1, p2) and same(j, p3, p4) and not same(j, p1, p3)
    ]
    if not two_block:
        # every column pairs 1-3/2-4 or 1-4/2-3 (or is constant), hence
        # lam1 + lam2 = lam3 + lam4 and the first three rows decide the fourth
        if lam[p1] + lam[p2] - lam[p3] != lam[p4]:
            raise InconsistentRepresentationError(
                "coincidence pattern violates the exponent-sum identity"
            )
        sol = _solve_cases(classes, lam, n, [p1, p2, p3], relaxed)
        sol[p4] = [sol[p1][j] + sol[p2][j] - sol[p3][j] for j in range(n)]
        return sol

    if relaxed:
        return _solve_equalities_lattice(classes, lam, n, rows)

    mcol = two_block[0]
    low = _solve_cases(classes, lam, n, [p1, p2], relaxed)
    high = _solve_cases(classes, lam, n, [p3, p4], relaxed)
    shift = 0
    for j in range(n):
        if j == mcol:
            continue
        for i in (p1, p2):
            for k in (p3, p4):
                if same(j, i, k):
                    shift = max(shift, high[k][j] - low[i][j])
    for i in (p1, p2):
        for j in range(n):
            if j != mcol:
                low[i][j] += shift
        low[i][mcol] -= (n - 1) * shift
    return {**low, **high}


def validate_weight_family(rho, lam, phi, mode="strict-a"):
    """Check the ordering constraints and exact row sums of a weight family."""
    n = len(rho)
    r = len(rho[0])
    classes = _column_classes(rho)
    for i in range(r):
        if sum(phi[j][i] for j in range(n)) != lam[i]:
            return False
    for j in range(n):
        for i in range(r):
            for k in range(i + 1, r):
                if classes[j][i] == classes[j][k]:
                    if mode == "relaxed-a'":
                        if phi[j][i] != phi[j][k]:
                            return False
                    else:
                        if phi[j][i] < phi[j][k]:
                            return False
    return True


def solve_weights_parabolic(rep, mode="strict-a"):
    """Integer weights for an upper-triangular representation.

    Computes the exponent sums Lambda^i from the diagonal entries,
    verifies they are non-positive integers, and solves the feasibility
    system by the rank-by-rank case analysis: the reduction claim when a
    diagonal entry is unique in its column, equal rows when all
    coincide, and the two rank-four coincidence patterns.  Complete for
    rank <= 4 in mode "strict-a" (output satisfies the ordering
    inequalities); mode "relaxed-a'" enforces per-column equalities
    outright via an exact lattice solve, which can be Infeasible.
    """
    if mode not in ("strict-a", "relaxed-a'"):
        raise ValueError(f"unknown mode {mode!r}")
    mats = list(rep.matrices)
    r = rep.rank
    n = rep.n
    scale = max(np.linalg.norm(g, 2) for g in mats)
    for j, g in enumerate(mats):
        if np.max(np.abs(np.tril(g, -1))) > 1e-9 * scale:
            raise ValueError(f"matrix {j} is not upper-triangular")
    rho = [[complex(g[i, i]) for i in range(r)] for g in mats]
    lam = []
    for i in range(r):
        total = sum(norm_log_scalar(rho[j][i]) for j in range(n))
        if abs(total.imag) > 1e-6 or abs(total.real - round(total.real)) > 1e-6:
            raise InconsistentRepresentationError(
                f"exponent sum {total} for diagonal index {i} is not an integer"
            )
        val = -int(round(total.real))
        if val > 0:
            raise InconsistentRepresentationError("exponent sum must be non-positive")
        lam.append(val)
    classes = _column_classes(rho)
    relaxed = mode == "relaxed-a'"
    if r > 4 and not relaxed:
        try:
            sol = _solve_cases(classes, lam, n, range(r), relaxed=False)
        except SolverIncompleteError:
            # the equality-constrained lattice solve also witnesses the
            # ordering form; its infeasibility decides nothing here
            try:
                sol = _solve_equalities_lattice(classes, lam, n, range(r))
            except Infeasible as exc:
                raise SolverIncompleteError(
                    "case analysis is incomplete above rank four and the "
                    "equality-constrained relaxation is infeasible"
                ) from exc
    else:
        sol = _solve_cases(classes, lam, n, range(r), relaxed)
    phi = tuple(tuple(sol[i][j] for i in range(r)) for j in range(n))
    eq_ok = validate_weight_family(rho, lam, phi, mode="relaxed-a'")
    if not validate_weight_family(rho, lam, phi, mode="strict-a"):
        raise AssertionError("solver produced weights violating the ordering constraints")
    return WeightMatrixFamily(phi=phi, satisfies_equalities=eq_ok)


# --------------------------------------------------------------------------
# cyclic weight plan and double-rank embedding


class NotEigenvectorError(ValueError):
    pass


class NotCyclicError(ValueError):
    pass


def _module_rank(matrices, v):
    """Rank of the module the matrices generate from v: span{v} closed under them (bundles._span_closure)."""
    mats, seed = np.asarray(matrices), np.asarray(v, dtype=np.complex128)
    return len(_span_closure(seed, lambda u: np.swapaxes(mats @ u.T, 1, 2).reshape(-1, len(seed))))


@dataclass(frozen=True)
class CyclicWeightPlan:
    """Weighted bundle from a cyclic eigenvector, with its stability verdict."""

    bundle: WeightedFlatBundle
    verdict: Semistability
    degree: int
    gap: int


def cyclic_weight_plan(rep, k, h, bounds):
    """Weight plan from an eigenvector of G_k that generates the module.

    Builds a full G_k-invariant flag starting at <h> with weight gaps
    (r-1)(n-2), trivial flags of weight bounds[j] elsewhere, and moves
    the top (preferred) or bottom weight at k to reach degree zero.  The
    returned verdict is the semistability check of the resulting
    bundle.
    """
    mats = list(rep.matrices)
    r = rep.rank
    n = rep.n
    if not 0 <= k < n:
        raise ValueError("puncture index out of range")
    bounds = [int(x) for x in bounds]
    if len(bounds) != n:
        raise ValueError("need one lower bound per puncture")
    h = np.asarray(h, dtype=np.complex128).reshape(-1)
    if len(h) != r or np.linalg.norm(h) == 0:
        raise ValueError("bad vector")
    gk = mats[k]
    lam = (h.conj() @ gk @ h) / (h.conj() @ h)
    if np.linalg.norm(gk @ h - lam * h) > 1e-8 * np.linalg.norm(gk, 2) * np.linalg.norm(h):
        raise NotEigenvectorError("h is not an eigenvector of the loop matrix at k")
    rank = _module_rank(mats, h)
    if rank < r:
        raise NotCyclicError(f"module generated by h has rank {rank} < {r}")

    gap = max((r - 1) * (n - 2), 1)
    top = bounds[k] + (r - 1) * (n - 2)
    if r > 1:
        # full G_k-invariant flag starting at <h>
        w = np.column_stack([h / np.linalg.norm(h), _span_basis(h[:, None])[0][:, 1:]])
        gw = w.conj().T @ gk @ w
        _, uq = schur(gw[1:, 1:])
        full = w @ np.block(
            [
                [np.ones((1, 1)), np.zeros((1, r - 1))],
                [np.zeros((r - 1, 1)), uq],
            ]
        )
        weights_k = [top - i * gap for i in range(r)]
        flag_k = WeightedFlag.full_from_columns(full, tuple(weights_k))
    else:
        flag_k = WeightedFlag.trivial(1, top)
    flags = [
        flag_k if j == k else WeightedFlag.trivial(r, bounds[j]) for j in range(n)
    ]
    bundle = WeightedFlatBundle(rep, tuple(flags))
    d = degree(bundle)
    if d != 0:
        wk = list(flags[k].weights)
        if d < 0:
            wk[0] += -d
        else:
            wk[-1] -= d
        flags[k] = WeightedFlag(flags[k].subspaces, tuple(wk))
        bundle = WeightedFlatBundle(rep, tuple(flags))
        d = degree(bundle)
    if d != 0:
        raise AssertionError("degree adjustment failed")
    verdict = semistable(bundle)
    return CyclicWeightPlan(bundle=bundle, verdict=verdict, degree=d, gap=gap)


def _normalize_for_doubling(rep):
    """Conjugate so that <e_r, G_1 e_r> = <e_{r-1}, e_r> with both present."""
    g1 = rep.matrices[0]
    r = rep.rank
    e = np.eye(r, dtype=np.complex128)
    scale = max(1.0, np.linalg.norm(g1, 2))
    col = g1[:, r - 1]
    upper = np.max(np.abs(col[: r - 2])) if r > 2 else 0.0
    if upper <= 1e-9 * scale < abs(col[r - 2]):  # entries at most 1e-9 scale are absent
        return rep
    candidates = [e[:, i] for i in range(r - 1, -1, -1)]
    candidates += [e[:, i] + e[:, j] for i in range(r) for j in range(i + 1, r)]
    rng = np.random.default_rng(0)
    candidates.append(rng.normal(size=r) + 1j * rng.normal(size=r))
    for v in candidates:
        w = g1 @ v
        lam = (v.conj() @ w) / (v.conj() @ v)
        if np.linalg.norm(w - lam * v) <= 1e-8 * scale * np.linalg.norm(v):
            continue
        # basis (f_1, ..., f_{r-2}, G_1 v, v): in the new coordinates the
        # last column of G_1 is exactly e_{r-1}
        rest = _span_basis(np.column_stack([v, w]))[0][:, 2:]
        s = np.column_stack([rest, w, v])
        return rep.conjugated(s)
    raise InconsistentRepresentationError(
        "G_1 acts as a scalar; the doubling normalization needs a non-eigenvector"
    )


def double_rank_embedding(rep):
    """Embed a representation into one of double the rank with a cyclic
    eigenvector.

    Emits the block matrices G'_1 = [[G_1, M_1], [0, I]],
    G'_2 = [[G_2, 0], [0, M_2]], G'_3 = [[G_3, -G_2^{-1} G_1^{-1} M_1],
    [0, M_2^{-1}]] and identity-extended G'_j beyond, where M_1 is the
    shifted near-identity and M_2 the unipotent upper-bidiagonal block.
    After the standard normalization e_{2r} is an eigenvector of G'_1
    and a cyclic vector of the doubled module; both facts are verified.
    """
    n = rep.n
    r = rep.rank
    if n < 3 or r < 2:
        raise ValueError(
            "n >= 3 and r >= 2 required; otherwise the monodromy is commutative "
            "and direct synthesis applies"
        )
    rep = _normalize_for_doubling(rep)
    g1, g2, g3 = rep.matrices[0], rep.matrices[1], rep.matrices[2]
    m1 = np.eye(r, dtype=np.complex128)
    m1[r - 2 :, r - 2 :] = np.array([[0.0, 0.0], [1.0, 0.0]])
    m2 = np.eye(r, dtype=np.complex128) + np.diag(np.ones(r - 1), 1)

    def blocked(a, b, d):
        g = np.zeros((2 * r, 2 * r), dtype=np.complex128)
        g[:r, :r] = a
        g[:r, r:] = b
        g[r:, r:] = d
        return g

    mats = [
        blocked(g1, m1, np.eye(r)),
        blocked(g2, np.zeros((r, r)), m2),
        blocked(g3, -np.linalg.inv(g2) @ np.linalg.inv(g1) @ m1, np.linalg.inv(m2)),
    ]
    for g in rep.matrices[3:]:
        mats.append(blocked(g, np.zeros((r, r)), np.eye(r)))
    prod = np.eye(2 * r, dtype=np.complex128)
    for g in mats:
        prod = prod @ g
    scale = max(np.linalg.norm(g, 2) for g in mats)
    if np.linalg.norm(prod - np.eye(2 * r), 2) > 1e-10 * scale ** n:
        raise AssertionError("block product failed to telescope to the identity")
    e_last = np.zeros(2 * r, dtype=np.complex128)
    e_last[-1] = 1.0
    image = mats[0] @ e_last
    if np.linalg.norm(image - e_last) > 1e-9:
        raise AssertionError("e_{2r} is not fixed by the first block matrix")
    rank = _module_rank(mats, e_last)
    if rank < 2 * r:
        raise NotCyclicError(f"e_2r generates rank {rank} < {2 * r}; input not normalized?")
    return Representation(rep.punctures, tuple(mats), rep.basepoint)


# --------------------------------------------------------------------------
# rank-three decision


def _distinct_means(g):
    """The cluster means of g (:func:`clustered_schur`), each once, in Schur order."""
    return list(dict.fromkeys(clustered_schur(g)[2].tolist()))


def _jordan_blocks(g, means):
    """Number of Jordan blocks of g: the nullities of g - mu I at its distinct cluster means."""
    svals = [np.linalg.svd(g - mu * np.eye(len(g)), compute_uv=False) for mu in means]
    return sum(int(np.sum(s <= 1e-7 * max(1.0, s[0]))) for s in svals)


def jordan_block_count(g):
    """Total number of Jordan blocks: sum of geometric multiplicities."""
    g = as_matrix(g, square=True)
    return _jordan_blocks(g, _distinct_means(g))


def _exponent_obstruction(counts, means):
    """bt_obstruction from the Jordan block count and the distinct cluster means of each loop matrix."""
    if any(count != 1 for count in counts):
        return False, None
    return True, complex(sum(norm_log_scalar(m[0]) for m in means))


def bt_obstruction(rep):
    """Exponent-sum obstruction for reducible single-block monodromy.

    Returns ``(applies, sum_mu)``: when every loop matrix is a single
    Jordan block, sum_mu is the sum of the normalized scalar exponents;
    a non-integer value obstructs any trivial-bundle realization of a
    reducible representation of this shape.
    """
    means = [_distinct_means(g) for g in rep.matrices]
    return _exponent_obstruction([_jordan_blocks(g, m) for g, m in zip(rep.matrices, means)], means)


class Rank3Verdict(Enum):
    REALIZABLE = "Realizable"
    NOT_REALIZABLE = "NotRealizable"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Rank3Decision:
    verdict: Rank3Verdict
    certificate: str
    detail: str = ""


def rank3_decide(rep, seed=0):
    """Partial decision for rank-three realizability on the trivial bundle.

    Realizable on certified irreducibility or when some loop matrix has
    several Jordan blocks; NotRealizable when a reducibility witness
    exists, every matrix is one Jordan block, and the scalar exponent
    sums fail to be an integer; otherwise Undetermined (the remaining
    criterion needs the canonical extension's splitting type, which is
    not computed here).

    Each loop matrix is factored once: its clustered Schur form gives
    both its Jordan block count and its scalar exponent.  The clusters
    have the radius that rounding of a defective eigenvalue needs
    (eigen._cluster_means), so a conjugated Jordan block counts as one block
    in any basis, and the verdict does not depend on the frame.
    """
    if rep.rank != 3:
        raise ValueError("rank-three decision requires rank 3")
    enum = invariant_subspaces(rep, seed=seed)
    if enum.complete and not enum.subspaces:
        return Rank3Decision(Rank3Verdict.REALIZABLE, "irreducible")
    means = [_distinct_means(g) for g in rep.matrices]
    counts = [_jordan_blocks(g, m) for g, m in zip(rep.matrices, means)]
    for j, cnt in enumerate(counts):
        if cnt >= 2:
            return Rank3Decision(
                Rank3Verdict.REALIZABLE,
                "multiple-jordan-blocks",
                f"loop matrix {j} splits into {cnt} blocks",
            )
    reducible_witness = len(enum.subspaces) > 0
    if reducible_witness and all(c == 1 for c in counts):
        applies, mu_sum = _exponent_obstruction(counts, means)
        if applies and (
            abs(mu_sum.imag) > 1e-6 or abs(mu_sum.real - round(mu_sum.real)) > 1e-6
        ):
            return Rank3Decision(
                Rank3Verdict.NOT_REALIZABLE,
                "nonintegral-exponent-sum",
                f"sum of scalar exponents {mu_sum}",
            )
        return Rank3Decision(
            Rank3Verdict.UNDETERMINED,
            "splitting-type-needed",
            "realizability hinges on the canonical extension's splitting type",
        )
    return Rank3Decision(
        Rank3Verdict.UNDETERMINED,
        "reducibility-unresolved",
        "invariant-subspace search was inconclusive",
    )
