"""Weighted flat bundles over the punctured sphere.

A representation is the tuple of loop matrices G_1..G_n with
G_1 ... G_n = I (see the verify module for the geometric order); a
weighted flat bundle adds, at each puncture, a flag of G_j-invariant
subspaces carrying strictly decreasing integer weights.  Degree, slope
and (semi)stability are computed from this data; the local extension
operation realizes the weighted data as a logarithmic connection matrix
at one puncture.

Subspace arithmetic is numerical: containment and intersections use
singular values with absolute tolerance 1e-9 times the matrix scale,
and flags are stored with orthonormalized bases.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

# schur is unused here but stays bound as bundles.schur, a binding the
# benchmark's tracer wraps and its tests check
from .eigen import _cluster_indices, norm_log, schur, spectral_split  # noqa: F401
from .localforms import LocalLogConnection, normal_form_b_series
from .series import WeightDiagonal, as_matrix

__all__ = [
    "RANK_TOL",
    "InvalidRepresentationError",
    "FlagError",
    "NonIntegralDegreeError",
    "Representation",
    "WeightedFlag",
    "WeightedFlatBundle",
    "SubBundle",
    "weight_of",
    "degree",
    "slope",
    "InvariantSubspaces",
    "invariant_subspaces",
    "Semistability",
    "semistable",
    "induced_subbundle",
    "SplitExtension",
    "induce_weights_split_extension",
    "local_extension",
]

RANK_TOL = 1e-9


class InvalidRepresentationError(ValueError):
    pass


class FlagError(ValueError):
    pass


class NonIntegralDegreeError(ValueError):
    pass


def _orthonormalize(cols, tol=RANK_TOL):
    """Orthonormal basis of the column span, dropping dependent columns."""
    cols = as_matrix(cols)
    out = []
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        for u in out:
            v -= u * (u.conj() @ v)
        for u in out:
            v -= u * (u.conj() @ v)
        nv = np.linalg.norm(v)
        if nv > tol * max(1.0, np.linalg.norm(cols[:, j])):
            out.append(v / nv)
    if not out:
        return np.zeros((cols.shape[0], 0), dtype=np.complex128)
    basis = np.column_stack(out)
    basis.setflags(write=False)
    return basis


def _contains(basis, vecs, tol=RANK_TOL):
    """Whether every column of vecs lies in the span of the orthonormal basis."""
    if basis.shape[1] == 0:
        return bool(np.all(np.abs(vecs) <= tol))
    resid = vecs - basis @ (basis.conj().T @ vecs)
    scale = max(1.0, float(np.max(np.abs(vecs))))
    return bool(np.max(np.abs(resid)) <= tol * scale)


def intersect_spans(a, b, tol=RANK_TOL):
    """Orthonormal basis of span(a) intersect span(b)."""
    a = _orthonormalize(a, tol)
    b = _orthonormalize(b, tol)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    m = np.hstack([a, -b])
    _, svals, vh = np.linalg.svd(m)
    ncols = m.shape[1]
    null_dim = int(np.sum(svals <= tol * max(1.0, svals[0] if len(svals) else 1.0)))
    null_dim += max(0, ncols - len(svals))
    if null_dim == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    null = vh.conj().T[:, ncols - null_dim :]
    vectors = a @ null[: a.shape[1], :]
    return _orthonormalize(vectors, tol)


@dataclass(frozen=True)
class Representation:
    """Loop matrices of the fundamental group of the punctured sphere.

    The product of the matrices in list order must be the identity;
    equivalently the punctures are indexed in the order for which the
    standard loops compose to the trivial loop.
    """

    punctures: tuple
    matrices: tuple
    basepoint: complex = 0.0j
    tol: float = 1e-8

    def __post_init__(self):
        punctures = tuple(complex(a) for a in self.punctures)
        matrices = tuple(as_matrix(g, square=True).copy() for g in self.matrices)
        for g in matrices:
            g.setflags(write=False)
        if len(punctures) != len(matrices):
            raise InvalidRepresentationError("one matrix per puncture required")
        if len(matrices) == 0:
            raise InvalidRepresentationError("need at least one puncture")
        r = matrices[0].shape[0]
        if any(g.shape[0] != r for g in matrices):
            raise InvalidRepresentationError("matrices must share one rank")
        prod = np.eye(r, dtype=np.complex128)
        for g in matrices:
            prod = prod @ g
        scale = max(1.0, max(np.linalg.norm(g, 2) for g in matrices))
        if np.linalg.norm(prod - np.eye(r), 2) > self.tol * scale ** len(matrices):
            raise InvalidRepresentationError(
                f"loop product differs from identity by {np.linalg.norm(prod - np.eye(r), 2):.3e}"
            )
        for j, g in enumerate(matrices):
            if np.linalg.cond(g) > 1e12:
                raise InvalidRepresentationError(f"matrix {j} is numerically singular")
        object.__setattr__(self, "punctures", punctures)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "basepoint", complex(self.basepoint))

    @property
    def rank(self):
        return self.matrices[0].shape[0]

    @property
    def n(self):
        return len(self.punctures)

    def conjugated(self, s):
        s = as_matrix(s, square=True)
        sinv = np.linalg.inv(s)
        return Representation(
            self.punctures,
            tuple(sinv @ g @ s for g in self.matrices),
            self.basepoint,
            self.tol,
        )


@dataclass(frozen=True)
class WeightedFlag:
    """Strictly increasing subspaces with strictly decreasing integer weights."""

    subspaces: tuple  # orthonormal r x k_m bases, k_1 < ... < k_l = r
    weights: tuple    # psi^1 > ... > psi^l

    def __post_init__(self):
        subs = tuple(_orthonormalize(s) for s in self.subspaces)
        weights = tuple(int(w) for w in self.weights)
        if len(subs) != len(weights) or not subs:
            raise FlagError("need one weight per subspace")
        r = subs[0].shape[0]
        dims = [s.shape[1] for s in subs]
        if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
            raise FlagError(f"flag dimensions must strictly increase, got {dims}")
        if dims[-1] != r:
            raise FlagError("last flag step must be the full space")
        if any(w2 >= w1 for w1, w2 in zip(weights, weights[1:])):
            raise FlagError(f"weights must strictly decrease, got {weights}")
        for small, large in zip(subs, subs[1:]):
            if not _contains(large, small):
                raise FlagError("flag subspaces are not nested")
        object.__setattr__(self, "subspaces", subs)
        object.__setattr__(self, "weights", weights)

    @property
    def rank(self):
        return self.subspaces[0].shape[0]

    @property
    def dims(self):
        return tuple(s.shape[1] for s in self.subspaces)

    def weight_diagonal(self):
        entries = []
        prev = 0
        for s, w in zip(self.subspaces, self.weights):
            entries.extend([w] * (s.shape[1] - prev))
            prev = s.shape[1]
        return WeightDiagonal(tuple(entries))

    @classmethod
    def trivial(cls, rank, weight=0):
        return cls((np.eye(rank),), (int(weight),))

    @classmethod
    def full_from_columns(cls, basis, weights):
        """Full flag spanned by leading columns of `basis`, one step per weight."""
        basis = as_matrix(basis, square=True)
        r = basis.shape[0]
        if len(weights) != r:
            raise FlagError("full flag needs one weight per column")
        subs = tuple(basis[:, : k + 1] for k in range(r))
        return cls(subs, tuple(weights))

    def invariant_under(self, g, tol=1e-8):
        g = as_matrix(g, square=True)
        scale = max(1.0, np.linalg.norm(g, 2))
        for s in self.subspaces[:-1]:
            image = g @ s
            if not _contains(s, image / scale, tol):
                return False
        return True


def weight_of(flag, v, tol=RANK_TOL):
    """Weight of a vector: psi of the first flag subspace containing it.

    Zero vectors have weight +infinity.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    nv = np.linalg.norm(v)
    if nv <= tol:
        return math.inf
    for s, w in zip(flag.subspaces, flag.weights):
        resid = v - s @ (s.conj().T @ v)
        if np.linalg.norm(resid) <= tol * max(1.0, nv):
            return w
    raise FlagError("vector not contained in the full space; flag is inconsistent")


@dataclass(frozen=True)
class WeightedFlatBundle:
    """A representation with one invariant weighted flag per puncture."""

    rep: Representation
    flags: tuple
    check_tol: float = 1e-8

    def __post_init__(self):
        flags = tuple(self.flags)
        if len(flags) != self.rep.n:
            raise FlagError("one flag per puncture required")
        for j, (g, f) in enumerate(zip(self.rep.matrices, flags)):
            if f.rank != self.rep.rank:
                raise FlagError(f"flag {j} has wrong ambient rank")
            if not f.invariant_under(g, self.check_tol):
                raise FlagError(f"flag {j} is not invariant under its loop matrix")
        object.__setattr__(self, "flags", flags)

    @property
    def rank(self):
        return self.rep.rank

    def with_flags(self, flags):
        return WeightedFlatBundle(self.rep, tuple(flags), self.check_tol)


def degree(wfb, tol=1e-6):
    """deg = sum_j ( Tr Phi_j + Tr norm log G_j ), verified to be an integer."""
    total = 0.0 + 0.0j
    for g, f in zip(wfb.rep.matrices, wfb.flags):
        total += f.weight_diagonal().trace()
        total += np.trace(norm_log(g).k)
    if abs(total.imag) > tol or abs(total.real - round(total.real)) > tol:
        raise NonIntegralDegreeError(
            f"degree {total} is not an integer to tolerance {tol}; inconsistent representation"
        )
    return int(round(total.real))


def slope(wfb):
    return Fraction(degree(wfb), wfb.rank)


# --------------------------------------------------------------------------
# invariant subspaces


def _algebra_span(matrices, budget):
    """Orthonormalized span of words in the matrices (Burnside search).

    Returns (basis_matrices, complete) where complete means the span
    stabilized within the word-length budget.
    """
    r = matrices[0].shape[0]
    basis = []
    vecs = []

    def push(m):
        v = m.reshape(-1)
        w = v.copy()
        for u in vecs:
            w = w - u * (u.conj() @ w)
        for u in vecs:
            w = w - u * (u.conj() @ w)
        nw = np.linalg.norm(w)
        if nw > 1e-10 * max(1.0, np.linalg.norm(v)):
            vecs.append(w / nw)
            basis.append(m)
            return True
        return False

    push(np.eye(r, dtype=np.complex128))
    frontier = []
    for g in matrices:
        if push(g):
            frontier.append(g)
    depth = 1
    while frontier and depth < budget and len(basis) < r * r:
        new_frontier = []
        for w in frontier:
            for g in matrices:
                prod = w @ g
                if push(prod):
                    new_frontier.append(prod)
                if len(basis) == r * r:
                    break
            if len(basis) == r * r:
                break
        frontier = new_frontier
        depth += 1
    complete = len(basis) == r * r or not frontier
    return basis, complete


def _eigvecs_distinct(m, tol=1e-8):
    """Unit eigenvectors when all eigenvalues are simple; None otherwise."""
    vals, vecs = np.linalg.eig(m)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if len(_cluster_indices(vals, tol * scale)) < len(vals):
        return None
    return vecs


def _projector_key(basis):
    p = basis @ basis.conj().T
    return (basis.shape[1],) + tuple(np.round(p, 6).reshape(-1).view(float))


@dataclass(frozen=True)
class InvariantSubspaces:
    """Common invariant subspaces with a completeness certificate.

    complete=True guarantees the list is exhaustive (up to numerical
    tolerance); otherwise the list is a partial sample and downstream
    verdicts degrade to Undetermined rather than guessing.
    """

    subspaces: tuple
    complete: bool
    certificate: str


def invariant_subspaces(rep, budget=16, tol=1e-8, seed=0, tries=8):
    """Proper nonzero subspaces invariant under every loop matrix.

    The generated matrix algebra is spanned first: if it is the full
    algebra the module is irreducible (complete, empty list).  Otherwise
    pseudo-random algebra elements are probed; one with simple spectrum
    confines every invariant subspace to spans of its eigenvector
    subsets, which are enumerated and filtered (complete).  Without such
    an element a partial list is assembled from eigenspace intersections
    and the result is marked incomplete.
    """
    mats = list(rep.matrices)
    r = rep.rank
    basis, span_complete = _algebra_span(mats, budget)
    if span_complete and len(basis) == r * r:
        return InvariantSubspaces((), True, "full-matrix-algebra")
    if not span_complete:
        raise RuntimeError("algebra span did not stabilize within the budget")

    def all_invariant(w):
        return all(_contains(w, g @ w / max(1.0, np.linalg.norm(g, 2)), tol) for g in mats)

    rng = np.random.default_rng(seed)
    if r <= 12:
        for _ in range(tries):
            coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            element = sum(c * b for c, b in zip(coeffs, basis))
            vecs = _eigvecs_distinct(element, tol)
            if vecs is None:
                continue
            found = {}
            for mask in range(1, 2 ** r - 1):
                cols = [k for k in range(r) if mask >> k & 1]
                w = _orthonormalize(vecs[:, cols])
                if w.shape[1] != len(cols):
                    continue
                if all_invariant(w):
                    found.setdefault(_projector_key(w), w)
            subs = tuple(sorted(found.values(), key=lambda w: (w.shape[1], _projector_key(w))))
            return InvariantSubspaces(subs, True, "simple-spectrum-splitting")

    # partial search: cluster subspaces of each matrix and intersections
    candidates = {}
    pools = []
    for g in mats:
        split = spectral_split(g, tol)
        for _, mult, b in split.clusters:
            if 0 < b.shape[1] < r:
                pools.append(b)
    for b in pools:
        if all_invariant(b):
            candidates.setdefault(_projector_key(b), b)
    for i in range(len(pools)):
        for j in range(i + 1, len(pools)):
            w = intersect_spans(pools[i], pools[j])
            if 0 < w.shape[1] < r and all_invariant(w):
                candidates.setdefault(_projector_key(w), w)
    # coordinate subspaces catch the already-triangular arrangements
    for k in range(1, r):
        w = np.eye(r, dtype=np.complex128)[:, :k]
        if all_invariant(w):
            candidates.setdefault(_projector_key(w), w)
    subs = tuple(sorted(candidates.values(), key=lambda w: (w.shape[1], _projector_key(w))))
    return InvariantSubspaces(subs, False, "partial-search")


class Semistability(Enum):
    STABLE = "Stable"
    SEMISTABLE = "Semistable"
    UNSTABLE = "Unstable"
    UNDETERMINED = "Undetermined"


def induced_subbundle(wfb, w_basis, tol=RANK_TOL):
    """Restrict a weighted flat bundle to an invariant subspace.

    Flags restrict by intersection; induced weights are read off where
    the intersection dimensions jump.
    """
    w = _orthonormalize(w_basis, tol)
    k = w.shape[1]
    mats = []
    for g in wfb.rep.matrices:
        if not _contains(w, (g @ w) / max(1.0, np.linalg.norm(g, 2)), 1e-7):
            raise FlagError("subspace is not invariant under the representation")
        mats.append(w.conj().T @ g @ w)
    rep = Representation(wfb.rep.punctures, tuple(mats), wfb.rep.basepoint, tol=1e-6)
    flags = []
    for f in wfb.flags:
        steps = []
        weights = []
        prev_dim = 0
        for s, wt in zip(f.subspaces, f.weights):
            inter = intersect_spans(w, s, tol)
            if inter.shape[1] > prev_dim:
                coords = w.conj().T @ inter
                steps.append(_orthonormalize(coords))
                weights.append(wt)
                prev_dim = inter.shape[1]
        flags.append(WeightedFlag(tuple(steps), tuple(weights)))
    return WeightedFlatBundle(rep, tuple(flags), check_tol=1e-6)


@dataclass(frozen=True)
class SubBundle:
    """An invariant subspace together with its induced weighted bundle."""

    basis: np.ndarray
    bundle: WeightedFlatBundle

    @property
    def rank(self):
        return self.basis.shape[1]

    @classmethod
    def of(cls, wfb, basis, tol=RANK_TOL):
        basis = _orthonormalize(basis, tol)
        return cls(basis=basis, bundle=induced_subbundle(wfb, basis, tol))


def _is_scalar_family(mats, tol=1e-10):
    for g in mats:
        d = g[0, 0]
        if np.linalg.norm(g - d * np.eye(g.shape[0]), 2) > tol * max(1.0, abs(d)):
            return False
    return True


def semistable(wfb, budget=16, seed=0):
    """Semistability verdict by slope comparison over invariant subspaces.

    A destabilizing subspace is definite evidence; Stable/Semistable
    verdicts additionally require the enumeration to be certified
    complete (or the scalar-monodromy uniform-flag case, where every
    subspace realizes the same slope).  Anything else is Undetermined.
    """
    r = wfb.rank
    if r == 1:
        return Semistability.STABLE
    total = slope(wfb)
    enum = invariant_subspaces(wfb.rep, budget=budget, seed=seed)
    candidates = {key: w for key, w in ((_projector_key(w), w) for w in enum.subspaces)}
    # flag steps are natural destabilizer candidates
    for f in wfb.flags:
        for s in f.subspaces[:-1]:
            if all(
                _contains(s, g @ s / max(1.0, np.linalg.norm(g, 2)), 1e-8)
                for g in wfb.rep.matrices
            ):
                candidates.setdefault(_projector_key(s), s)
    saw_equal = False
    for w in candidates.values():
        sub = induced_subbundle(wfb, w)
        s_slope = slope(sub)
        if s_slope > total:
            return Semistability.UNSTABLE
        if s_slope == total:
            saw_equal = True
    if enum.complete:
        return Semistability.SEMISTABLE if saw_equal else Semistability.STABLE
    if _is_scalar_family(wfb.rep.matrices) and all(len(f.weights) == 1 for f in wfb.flags):
        # every subspace is invariant with the same induced slope
        return Semistability.SEMISTABLE
    return Semistability.UNDETERMINED


# --------------------------------------------------------------------------
# extensions


@dataclass(frozen=True)
class SplitExtension:
    """Extension data: total matrices [[G'_j, C_j], [0, G''_j]] plus a
    right inverse alpha of the projection at puncture k that intertwines
    the loop matrices there."""

    coupling: tuple
    k: int
    alpha: np.ndarray


def induce_weights_split_extension(sub, quot, split, tol=1e-8):
    """Weights on the total space of an extension, split at one puncture.

    Away from puncture k the flag stacks the sub flag below the
    preimages of the quotient flag, which needs every sub weight to
    exceed every quot weight there (arrange with weight shifts first).
    At k the weighted filtration is the direct sum of the sub flag and
    the alpha-image of the quotient flag.
    """
    if sub.rep.punctures != quot.rep.punctures:
        raise InvalidRepresentationError("sub and quotient live over different punctures")
    rs, rq = sub.rank, quot.rank
    r = rs + rq
    n = sub.rep.n
    kdx = int(split.k)
    if not 0 <= kdx < n:
        raise ValueError("puncture index out of range")
    coupling = tuple(as_matrix(c) for c in split.coupling)
    if len(coupling) != n or any(c.shape != (rs, rq) for c in coupling):
        raise ValueError("need one r' x r'' coupling block per puncture")
    mats = []
    for gs, gq, c in zip(sub.rep.matrices, quot.rep.matrices, coupling):
        g = np.zeros((r, r), dtype=np.complex128)
        g[:rs, :rs] = gs
        g[:rs, rs:] = c
        g[rs:, rs:] = gq
        mats.append(g)
    rep = Representation(sub.rep.punctures, tuple(mats), sub.rep.basepoint)

    alpha = as_matrix(split.alpha)
    if alpha.shape != (r, rq):
        raise ValueError("alpha must map the quotient into the total space")
    proj = np.hstack([np.zeros((rq, rs)), np.eye(rq)])
    if np.linalg.norm(proj @ alpha - np.eye(rq), 2) > tol:
        raise ValueError("alpha is not a right inverse of the projection")
    gk = mats[kdx]
    if np.linalg.norm(gk @ alpha - alpha @ quot.rep.matrices[kdx], 2) > tol * max(
        1.0, np.linalg.norm(gk, 2)
    ):
        raise ValueError("alpha does not intertwine the loop matrices at k")

    def up(basis):
        return np.vstack([basis, np.zeros((rq, basis.shape[1]))])

    def preimage(basis):
        lift = np.vstack([np.zeros((rs, basis.shape[1])), basis])
        return np.hstack([up(np.eye(rs)), lift])

    flags = []
    for j in range(n):
        fs, fq = sub.flags[j], quot.flags[j]
        if j != kdx:
            if min(fs.weights) <= max(fq.weights):
                raise ValueError(
                    f"at puncture {j} every sub weight must exceed every quot weight "
                    "(apply weight shifts first)"
                )
            steps = [up(s) for s in fs.subspaces] + [preimage(s) for s in fq.subspaces]
            weights = list(fs.weights) + list(fq.weights)
        else:
            thresholds = sorted(set(fs.weights) | set(fq.weights), reverse=True)
            steps = []
            weights = []
            for t in thresholds:
                cols = [np.zeros((r, 0))]
                top_s = None
                for s, wt in zip(fs.subspaces, fs.weights):
                    if wt >= t:
                        top_s = s
                if top_s is not None:
                    cols.append(up(top_s))
                top_q = None
                for s, wt in zip(fq.subspaces, fq.weights):
                    if wt >= t:
                        top_q = s
                if top_q is not None:
                    cols.append(alpha @ top_q)
                steps.append(_orthonormalize(np.hstack(cols)))
                weights.append(t)
        flags.append(WeightedFlag(tuple(steps), tuple(weights)))
    total = WeightedFlatBundle(rep, tuple(flags))

    # injection and surjection witnesses on the graded directions
    rng = np.random.default_rng(0)
    for j in range(n):
        fs, fq = sub.flags[j], quot.flags[j]
        for s, wt in zip(fs.subspaces, fs.weights):
            v = s @ (rng.normal(size=s.shape[1]) + 1j * rng.normal(size=s.shape[1]))
            if weight_of(fs, v) != weight_of(total.flags[j], np.concatenate([v, np.zeros(rq)])):
                raise AssertionError("inclusion failed to preserve a weight")
        for s, wt in zip(fq.subspaces, fq.weights):
            v = s @ (rng.normal(size=s.shape[1]) + 1j * rng.normal(size=s.shape[1]))
            lift = alpha @ v if j == kdx else np.concatenate([np.zeros(rs), v])
            if weight_of(fq, v) != weight_of(total.flags[j], lift):
                raise AssertionError("projection lost a surjection witness")
    return total


def local_extension(g, flag, tol=1e-8):
    """Connection matrix realizing weighted data at one puncture.

    Adapts a basis to the flag (so g becomes block-upper-triangular),
    takes K = norm log of the adapted matrix, and emits
    z^Phi (-K - Phi) z^{-Phi} as an exact polynomial of order equal to
    the largest weight gap.
    """
    g = as_matrix(g, square=True)
    if not flag.invariant_under(g, tol):
        raise FlagError("flag is not invariant under the matrix")
    r = g.shape[0]
    cols = []
    for s in flag.subspaces:
        for jcol in range(s.shape[1]):
            v = s[:, jcol].copy()
            for u in cols:
                v -= u * (u.conj() @ v)
            nv = np.linalg.norm(v)
            if nv > RANK_TOL:
                cols.append(v / nv)
    if len(cols) != r:
        raise FlagError("flag bases do not span the space")
    s_mat = np.column_stack(cols)
    g_ad = s_mat.conj().T @ g @ s_mat
    phi = flag.weight_diagonal()
    scale = max(1.0, np.linalg.norm(g, 2))
    slices = phi.block_slices
    for i in range(len(slices)):
        for m in range(i):
            if np.max(np.abs(g_ad[slices[i], slices[m]])) > tol * scale:
                raise FlagError("adapted matrix is not block-upper-triangular")
            g_ad[slices[i], slices[m]] = 0.0
    k = norm_log(g_ad).k
    for i in range(len(slices)):
        for m in range(i):
            k[slices[i], slices[m]] = 0.0
    gaps = max(phi.entries) - min(phi.entries)
    series = normal_form_b_series(k, phi, gaps)
    return LocalLogConnection(series)
