"""Constructive Fuchsian synthesis and integer-weight feasibility.

Implements the constructive side of the Riemann-Hilbert machinery at
desk scale: explicit residues for commuting monodromy (the negated
normalized logarithms, with the first closing the sum), the
frame/permutation solver producing the triangular polynomial gauge b
with its divisibility certificate, weight shifts, the
upper-triangular integer-weight solvers (a case analysis for the
ordering form, complete through rank four, and one exact lattice solve
for the per-column equalities), the cyclic-vector weight plan, the
double-rank embedding, and the partial rank-three decision.

All weight arithmetic is exact over the integers.  Whether a vector is
cyclic is read from the rank of spans by the package's one rank rule
(bundles._span_basis).
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
)
from .eigen import _INTEGER_TOL, CLUSTER_TOL, _chain, _integer_defect, clustered_schur, eigenvalues, norm_log, norm_log_scalar, schur
from .series import MatrixSeries, NumericFailure, as_matrix

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
    "shift_weights",
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
        total = np.linalg.norm(sum(residues), 2)
        scale = max(1.0, float(np.linalg.norm(np.array(residues), 2, axis=(1, 2)).max()))
        if total > 1e-8 * scale:
            raise ValueError(f"residues sum to {total:.3e}; system not smooth at infinity")
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
    stack = np.array(mats)
    scale = np.linalg.norm(stack, 2, axis=(1, 2)).max()
    a, b = np.triu_indices(len(mats), 1)  # the pairs a < b, row by row
    defects = np.linalg.norm(stack[a] @ stack[b] - stack[b] @ stack[a], 2, axis=(1, 2))
    bad = np.flatnonzero(defects > tol * scale * scale)
    if bad.size:
        i = bad[0]
        raise NonCommutingError(f"matrices {a[i]} and {b[i]} do not commute (defect {defects[i]:.3e})")
    ks = [norm_log(g).k for g in mats]
    xi = eigenvalues(sum(ks))
    defect = _integer_defect(xi)
    if np.any(defect > _INTEGER_TOL):
        raise InconsistentRepresentationError(
            f"exponent sum {xi[np.argmax(defect)]} is not an integer; loop product broken"
        )
    b1 = sum(ks[1:], np.zeros_like(ks[0]))
    return FuchsianSystem(rep.punctures, (b1, *(-k for k in ks[1:])))


# --------------------------------------------------------------------------
# frame/permutation solver


class BqFrameError(NumericFailure, RuntimeError):
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


def _frame_permutation(q0, tol):
    """Column order making every bottom-right minor of Q0[:, perm] nonsingular.

    One pass from the last position up, each position taking the
    remaining column whose corner minor has the largest smallest
    singular value (ties to the larger index).  For nonsingular Q0 no
    backtracking is needed: rows pos..r-1 have full rank, so some
    remaining column lies outside the span of the chosen ones there.
    A best minor at or below tol |Q0| is refused.
    """
    r = q0.shape[0]
    floor = tol * max(np.linalg.norm(q0, 2), 1e-300)
    chosen = []
    for pos in range(r - 1, -1, -1):
        smin, col = max(
            (np.linalg.svd(q0[np.ix_(range(pos, r), [c] + chosen)], compute_uv=False)[-1], c)
            for c in range(r)
            if c not in chosen
        )
        if smin <= floor:
            raise BqFrameError(f"minor from row {pos}: sigma_min {smin:.3e} at or below {floor:.3e} = tol |Q(0)|")
        chosen.insert(0, col)
    return tuple(chosen)


def bq_frame(c, qk, tol=1e-9):
    """Frame permutation P and polynomial gauge b for a given splitting type.

    Solves, row by row and degree by degree, the triangular linear
    systems making z^{c_i - c_m} divide (b Qk P^{-1})_{i,m} for i < m;
    each system's matrix is a bottom-right minor of Qk(0) P^{-1}, which
    the permutation made invertible.
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
    cond = np.linalg.cond(q0)
    if cond > 1e10:
        raise BqFrameError(f"leading coefficient of the frame series: cond(Q(0)) = {cond:.3e} above 1e10")
    if c.spread == 0:
        # constant type: the divisibility condition is vacuous
        return BqFrame(perm=tuple(range(r)), b=MatrixSeries.identity(r), residual=0.0)

    perm = _frame_permutation(q0, tol)
    qp = MatrixSeries(qk.coeffs[:, :, list(perm)])
    q = qp.coeffs  # q[p, j, m]
    gap = np.subtract.outer(c.entries, c.entries)  # gap[i, j] = c_i - c_j

    # every degree p below here is at most spread - 1 < qk.order; b[p, i]
    # is still zero when its degree-p right side is formed
    b = np.zeros((c.spread, r, r), dtype=np.complex128)
    b[0] += np.eye(r)
    for i in range(r):
        for p in range(gap[i, -1]):
            idx = np.flatnonzero(gap[i] > p)
            rhs = -np.einsum("tj,tjm->m", b[: p + 1, i], q[p::-1][:, :, idx])
            b[p, i, idx] = np.linalg.solve(q[0][np.ix_(idx, idx)].T, rhs)

    b_series = MatrixSeries(b)
    prod = b_series.pad(qp.order) * qp
    forbidden = np.arange(prod.order + 1)[:, None, None] < gap
    residual = float(np.max(np.abs(prod.coeffs), where=forbidden, initial=0.0))
    bound = max(10 * tol, 1e-9) * max(1.0, qp.max_coeff_norm())
    if residual > bound:
        raise BqFrameError(f"divisibility residual {residual:.3e} above {bound:.3e} = max(10 tol, 1e-9) max(1, max_k |Q_k|)")
    return BqFrame(perm=perm, b=b_series, residual=residual)


# --------------------------------------------------------------------------
# weight shifts and splitting bounds


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


class SolverIncompleteError(NumericFailure, RuntimeError):
    """The case analysis does not cover this input (rank above four)."""


def _column_classes(rho):
    """Per puncture, row index -> class id, rows whose diagonal entries chain within
    CLUSTER_TOL max(1, max |rho_j|) sharing one."""
    return [
        {int(i): cid for cid, idx in enumerate(_chain(col, CLUSTER_TOL * max(1.0, np.max(np.abs(col))))) for i in idx}
        for col in np.asarray(rho)
    ]


def _integer_solve(a, b):
    """One integer solution y of a y = b, or None.

    Column Hermite reduction: row by row, Euclid's algorithm on the
    columns not yet pivoted, by unimodular column operations tracked in
    V, leaves one nonzero entry, the pivot; h = a V is then lower
    echelon and h z = b is solved by forward substitution as it goes,
    which fails exactly when a pivot does not divide its row's remainder
    or a row without a pivot is not met.  Free entries of z are zero
    and y = V z.
    """
    m, n = len(a), len(a[0])
    # column j of h stacked on column j of V
    cols = [[int(x) for x in col] + [int(t == j) for t in range(n)] for j, col in enumerate(zip(*a))]
    z = []
    for i in range(m):
        while True:
            live = [j for j in range(len(z), n) if cols[j][i]]
            if len(live) < 2:
                break
            p = min(live, key=lambda j: abs(cols[j][i]))
            for j in live:
                if j != p:
                    q = cols[j][i] // cols[p][i]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[p])]
        rest = int(b[i]) - sum(cols[j][i] * zj for j, zj in enumerate(z))
        if live:
            k = len(z)
            cols[k], cols[live[0]] = cols[live[0]], cols[k]
            zk, rem = divmod(rest, cols[k][i])
            if rem:
                return None
            z.append(zk)
        elif rest:
            return None
    z += [0] * (n - len(z))
    return [sum(col[m + t] * zj for col, zj in zip(cols, z)) for t in range(n)]


def _solve_equalities_lattice(classes, lam, n, rows):
    """Exact integer solve of the per-column equality classes plus row sums."""
    rows = list(rows)
    var_index = {}
    for j in range(n):
        for i in rows:
            var_index.setdefault((j, classes[j][i]), len(var_index))
    # row i meets one variable per puncture: its own class there
    a = [[int(classes[j][i] == cid) for j, cid in var_index] for i in rows]
    y = _integer_solve(a, [lam[i] for i in rows])
    if y is None:
        raise Infeasible("no integer weights satisfy the equality classes and row sums")
    return {i: [y[var_index[(j, classes[j][i])]] for j in range(n)] for i in rows}


def _solve_cases(classes, lam, n, rows):
    """Recursive case analysis for the ordering form (strict-a) of the weight system.

    Returns {row index: [phi_j]} satisfying the inequality constraints
    and exact row sums.  The rank-four two-block case takes the
    large-shift construction, so only the inequality form is
    guaranteed there.
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
                sol = _solve_cases(classes, lam, n, rest)
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
        sol = _solve_cases(classes, lam, n, [p1, p2, p3])
        sol[p4] = [sol[p1][j] + sol[p2][j] - sol[p3][j] for j in range(n)]
        return sol

    mcol = two_block[0]
    low = _solve_cases(classes, lam, n, [p1, p2])
    high = _solve_cases(classes, lam, n, [p3, p4])
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


def _relaxed(mode):
    """Whether mode asks for the per-column equalities (relaxed-a') rather than the ordering (strict-a)."""
    if mode not in ("strict-a", "relaxed-a'"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "relaxed-a'"


def validate_weight_family(rho, lam, phi, mode="strict-a"):
    """Check the ordering constraints and exact row sums of a weight family."""
    relaxed = _relaxed(mode)
    n = len(rho)
    r = len(rho[0])
    classes = _column_classes(rho)
    for i in range(r):
        if sum(phi[j][i] for j in range(n)) != lam[i]:
            return False
    for j in range(n):
        for i in range(r):
            for k in range(i + 1, r):
                tied = classes[j][i] == classes[j][k]
                if tied and (phi[j][i] != phi[j][k] if relaxed else phi[j][i] < phi[j][k]):
                    return False
    return True


def solve_weights_parabolic(rep, mode="strict-a"):
    """Integer weights for an upper-triangular representation.

    Computes the exponent sums Lambda^i from the diagonal entries,
    verifies they are non-positive integers, and solves the feasibility
    system.  Mode "strict-a" (the ordering inequalities) takes the
    rank-by-rank case analysis: the reduction claim when a diagonal
    entry is unique in its column, equal rows when all coincide, and the
    two rank-four coincidence patterns; it is complete through rank
    four, and above it a case it does not cover falls back to the
    lattice solve, whose equalities imply the ordering.  Mode
    "relaxed-a'" (the per-column equalities) is one exact lattice solve
    over all rows, which decides Infeasible.
    """
    relaxed = _relaxed(mode)
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
        if _integer_defect(total) > _INTEGER_TOL:
            raise InconsistentRepresentationError(
                f"exponent sum {total} for diagonal index {i} is not an integer"
            )
        val = -int(round(total.real))
        if val > 0:
            raise InconsistentRepresentationError("exponent sum must be non-positive")
        lam.append(val)
    classes = _column_classes(rho)
    if relaxed:
        sol = _solve_equalities_lattice(classes, lam, n, range(r))
    else:
        try:
            sol = _solve_cases(classes, lam, n, range(r))
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
    """Dimension of the module the matrices generate from v.

    Starts from span(v) and adds, pass by pass, the generators' images
    of the span's orthonormal basis, each scaled by 1 / max(1, |image|);
    the span's rank is read by the package's rank rule
    (:func:`bundles._span_basis`), and the module is reached when it
    stops growing.
    """
    mats, v = np.asarray(matrices), np.asarray(v, dtype=np.complex128)
    u, k = _span_basis(v[:, None] / np.linalg.norm(v))
    while k < len(v):
        images = np.hstack(mats @ u[:, :k])
        u, grown = _span_basis(np.hstack([u[:, :k], images / np.maximum(1.0, np.linalg.norm(images, axis=0))]))
        if grown == k:
            break
        k = grown
    return k


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
    The returned Representation checks the loop product at its own bound.
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


def bt_obstruction(rep):
    """Exponent-sum obstruction for reducible single-block monodromy.

    Returns ``(applies, sum_mu)``: when every loop matrix is a single
    Jordan block, sum_mu is the sum of the normalized scalar exponents;
    a non-integer value obstructs any trivial-bundle realization of a
    reducible representation of this shape.
    """
    means = [_distinct_means(g) for g in rep.matrices]
    if any(_jordan_blocks(g, m) != 1 for g, m in zip(rep.matrices, means)):
        return False, None
    return True, complex(sum(norm_log_scalar(m[0]) for m in means))


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
    several Jordan blocks; otherwise Undetermined (when a reducibility
    witness exists and every matrix is one Jordan block, the remaining
    criterion needs the canonical extension's splitting type, which is
    not computed here).  The exponent-sum obstruction of
    :func:`bt_obstruction` never decides at rank three: on an invariant
    line, or on the quotient of an invariant plane, the single
    eigenvalues multiply to 1, so their exponents sum to an integer.

    Each Jordan block count is read at the cluster means of the loop
    matrix's clustered Schur form (:func:`jordan_block_count`).  The
    clusters have the radius that rounding of a defective eigenvalue needs
    (eigen._cluster_means), so a conjugated Jordan block counts as one block
    in any basis, and the verdict does not depend on the frame.
    """
    if rep.rank != 3:
        raise ValueError("rank-three decision requires rank 3")
    enum = invariant_subspaces(rep, seed=seed)
    if enum.complete and not enum.subspaces:
        return Rank3Decision(Rank3Verdict.REALIZABLE, "irreducible")
    counts = [jordan_block_count(g) for g in rep.matrices]
    for j, cnt in enumerate(counts):
        if cnt >= 2:
            return Rank3Decision(
                Rank3Verdict.REALIZABLE,
                "multiple-jordan-blocks",
                f"loop matrix {j} splits into {cnt} blocks",
            )
    if enum.subspaces and all(c == 1 for c in counts):
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
