"""Weighted flat bundles over the punctured sphere.

A representation is the tuple of loop matrices G_1..G_n with
G_1 ... G_n = I (see the verify module for the geometric order); a
weighted flat bundle adds, at each puncture, a flag of G_j-invariant
subspaces carrying strictly decreasing integer weights.  Degree, slope
and (semi)stability are computed from this data; the local extension
operation realizes the weighted data as a logarithmic connection matrix
at one puncture.

Subspace arithmetic is numerical, with one rank rule and one
containment rule.  The rank of a spanning set is the number of its
singular values above RANK_TOL max(1, sigma_1) (:func:`_numerical_ranks`):
one SVD gives a span's orthonormal basis and its complement
(:func:`_span_basis`), one batched SVD the steps of a flag.  A flag is
stored as one unitary basis Q whose leading k_m columns span its m-th
step, so its steps are nested by construction and a matrix keeps the
flag exactly when Q^* g Q is block upper triangular; the constructor
reads the step ranks and Q from a fixed number of batched LAPACK calls
(see :class:`WeightedFlag`).  A subspace meets a flag step in the
directions whose principal angle to it has sine at most 2 RANK_TOL =
2e-9, read from one batched SVD (see :func:`_intersection_coords`).
Invariance under a matrix compares residuals with an absolute tolerance
times the matrix scale.  Semistability needs only the slope of each
invariant subspace: :func:`semistable` takes one normalized log K_j
per loop matrix and reads each slope from those sine counts and the
traces Tr(W^* K_j W), with no restricted matrix factored and no
sub-bundle built (see :func:`_subbundle_slope`).
"""

from dataclasses import InitVar, dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

# schur is unused here but stays bound as bundles.schur, a binding the
# benchmark's tracer wraps and its tests check
from .eigen import _INTEGER_TOL, _chain, _closure, _integer_defect, clustered_schur, log_branches, norm_log, schur, spectral_split  # noqa: F401
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
    "degree",
    "slope",
    "InvariantSubspaces",
    "invariant_subspaces",
    "Semistability",
    "semistable",
    "intersect_spans",
    "local_extension",
]

RANK_TOL = 1e-9
_CHECK_TOL = 1e-8  # residual per unit scale that counts as zero in the invariance checks


class InvalidRepresentationError(ValueError):
    pass


class FlagError(ValueError):
    pass


class NonIntegralDegreeError(ValueError):
    pass


def _numerical_ranks(sv):
    """Numerical rank per row of descending singular values: the count above RANK_TOL max(1, sigma_1)."""
    return np.count_nonzero(sv > RANK_TOL * np.maximum(1.0, sv[..., :1]), axis=-1)


def _span_basis(cols):
    """(U, k): U unitary, U[:, :k] an orthonormal basis of span(cols), U[:, k:] its orthogonal complement.

    One SVD of the columns; k is their numerical rank (:func:`_numerical_ranks`).
    """
    u, sv, _ = np.linalg.svd(as_matrix(cols))
    u.setflags(write=False)
    return u, int(_numerical_ranks(sv))


def _maps_into(w, mats, scales, tol):
    """Whether every matrix of the stack maps span(W), W orthonormal, into itself.

    One batched product forms every residual G W - W (W^* G W), which is
    tested entrywise against tol times the matrix's scale.
    """
    gw = mats @ w
    resid = np.max(np.abs(gw - w @ (w.conj().T @ gw)), axis=(1, 2))
    return bool(np.all(resid <= tol * np.asarray(scales)))


def _step_tails(w, flags):
    """For every step F_m of every flag, the rows of Q^* W past it, zero elsewhere.

    W (r x k, k >= 1) has orthonormal columns; each flag is a pair
    (Q, dims) of an r x r unitary Q and step dimensions, step F_m being
    span Q[:, :k_m].  One batched product forms every C = Q^* W, and
    the rows of C from k_m on are the coordinates of R = (I - P_m) W in
    the orthonormal complement Q[:, k_m:] of F_m, so the tails have the
    singular values of R.  R^* R = I - (P_m W)^* (P_m W) has eigenvalues
    1 - cos^2 theta_i for the principal angles theta_i between span(W)
    and F_m (Bjorck & Golub, Math. Comp. 27, 1973): the singular values
    are sin theta_i.  The stack lists the steps of all flags in order.
    """
    r = w.shape[0]
    c = np.array([q for q, _ in flags]).conj().swapaxes(1, 2) @ w
    which = [j for j, (_, dims) in enumerate(flags) for _ in dims]
    ks = np.array([d for _, dims in flags for d in dims])
    return c[which] * (np.arange(r)[:, None] >= ks[:, None, None])


def _meet_counts(sines):
    """dim(W meet F_m) per step: the principal-angle sines at most 2 RANK_TOL.

    Threshold.  The null space of [W, -B] for an orthonormal basis B of
    the step was the earlier rule, at singular values up to
    RANK_TOL * max(1, sigma_1).  The Gram matrix of [W, -B] has
    eigenvalues 1 +- cos theta_i (and 1), so its small singular values
    are sqrt(2) sin(theta_i / 2) and sigma_1 = sqrt(1 + cos theta_1),
    sqrt(2) up to O(theta_1^2) once an angle is near zero: it accepted
    theta <= 2 arcsin(RANK_TOL), 2 RANK_TOL up to O(RANK_TOL^3).  The
    same rule in sines is sin theta <= 2 RANK_TOL.  Rounding perturbs
    the tails by a few eps, so sines below about 1e-15 read as zero, far
    inside the threshold.
    """
    return np.count_nonzero(sines <= 2 * RANK_TOL, axis=1).tolist()


def _intersection_coords(w, flags):
    """Orthonormal W-coordinates of span(W) intersect F_m, for every step F_m of every flag.

    One batched SVD factors the stack of :func:`_step_tails`; the right
    singular vectors of the sines counted as zero
    (:func:`_meet_counts`) are the coordinates c with W c in F_m,
    already orthonormal.  The result lists the steps of all flags in
    order.
    """
    k = w.shape[1]
    _, sines, vh = np.linalg.svd(_step_tails(w, flags), full_matrices=False)
    return [vh[m, k - d :].conj().T for m, d in enumerate(_meet_counts(sines))]


def intersect_spans(a, b):
    """Orthonormal basis of span(a) intersect span(b).

    :func:`_span_basis` gives both spans, and b's unitary whose leading
    columns span it; the intersection is A c for the coordinates c of
    :func:`_intersection_coords`, the directions of span(a) at principal
    angle theta with sin theta <= 2 RANK_TOL from span(b).
    """
    ua, ka = _span_basis(a)
    ub, kb = _span_basis(b)
    if ka == 0 or kb == 0:
        return np.zeros((ua.shape[0], 0), dtype=np.complex128)
    return ua[:, :ka] @ _intersection_coords(ua[:, :ka], [(ub, (kb,))])[0]


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
    # max(1, ||G_j||_2) per matrix, the scale of every invariance test
    scales: tuple = field(init=False, repr=False, compare=False)

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
        # one batched SVD gives every sigma_1 (the scale) and sigma_1 /
        # sigma_r (the singularity test): the values norm(g, 2) and cond(g)
        # read from their own SVDs of g
        svals = np.linalg.svd(np.array(matrices), compute_uv=False)
        scales = tuple(max(1.0, s) for s in svals[:, 0].tolist())
        if np.linalg.norm(prod - np.eye(r), 2) > self.tol * max(scales) ** len(matrices):
            raise InvalidRepresentationError(
                f"loop product differs from identity by {np.linalg.norm(prod - np.eye(r), 2):.3e}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            conds = svals[:, 0] / svals[:, -1]
        for j, cond in enumerate(conds.tolist()):
            if not cond <= 1e12:  # a zero matrix gives 0 / 0
                raise InvalidRepresentationError(f"matrix {j} is numerically singular")
        object.__setattr__(self, "punctures", punctures)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "basepoint", complex(self.basepoint))
        object.__setattr__(self, "scales", scales)

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
    """Strictly increasing subspaces with strictly decreasing integer weights.

    The flag is one r x r unitary `basis` Q with the step dimensions
    k_1 < ... < k_l = r: step m is spanned by Q[:, :k_m], and
    `subspaces` is that read-only view.  The steps are nested by
    construction, and g maps every step into itself exactly when
    Q^* g Q is block upper triangular.

    The constructor takes spanning sets of the steps, with any number
    of columns each, and makes three batched LAPACK calls.  One SVD of
    the steps, zero-padded to one width, gives each rank k_m (the
    singular values above RANK_TOL max(1, sigma_1)) and an orthonormal
    basis U_m of the step.  One batched residual U_m - U_{m+1} U_{m+1}^* U_m,
    at most RANK_TOL entrywise, checks the nesting.  Q is then the
    eigenbasis of S = -(U_1 U_1^* + ... + U_{l-1} U_{l-1}^*): a vector
    of step m orthogonal to step m - 1 lies in steps m .. l - 1, so it
    is an eigenvector of S for the eigenvalue m - l, and eigh, which
    sorts eigenvalues upward, returns the orthogonal increments of the
    steps in order.  The eigenvalues are integers one apart, so rounding
    moves each step by O(l eps) only.
    """

    steps: InitVar[tuple]  # spanning sets of the steps, r x (any) each
    weights: tuple  # psi^1 > ... > psi^l
    basis: np.ndarray = field(init=False, repr=False)  # unitary Q, step m = Q[:, :k_m]
    dims: tuple = field(init=False)  # k_1 < ... < k_l = r

    def __post_init__(self, steps):
        steps = [as_matrix(s) for s in steps]
        weights = tuple(int(w) for w in self.weights)
        if len(steps) != len(weights) or not steps:
            raise FlagError("need one weight per subspace")
        r = steps[0].shape[0]
        if any(s.shape[0] != r for s in steps):
            raise FlagError("flag steps must share one ambient rank")
        padded = np.zeros((len(steps), r, max(1, max(s.shape[1] for s in steps))), dtype=np.complex128)
        for m, s in enumerate(steps):
            padded[m, :, : s.shape[1]] = s
        u, sv, _ = np.linalg.svd(padded, full_matrices=False)
        ranks = _numerical_ranks(sv)
        dims = tuple(ranks.tolist())
        if any(d2 <= d1 for d1, d2 in zip((0,) + dims, dims)):
            raise FlagError(f"flag dimensions must strictly increase, got {dims}")
        if dims[-1] != r:
            raise FlagError("last flag step must be the full space")
        if any(w2 >= w1 for w1, w2 in zip(weights, weights[1:])):
            raise FlagError(f"weights must strictly decrease, got {weights}")
        u *= (np.arange(u.shape[2]) < ranks[:, None])[:, None, :]
        uh = u.conj().swapaxes(1, 2)
        if np.max(np.abs(u[:-1] - u[1:] @ (uh[1:] @ u[:-1])), initial=0.0) > RANK_TOL:
            raise FlagError("flag subspaces are not nested")
        _, q = np.linalg.eigh(-np.sum(u[:-1] @ uh[:-1], axis=0))
        q.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "basis", q)
        object.__setattr__(self, "dims", dims)

    @property
    def subspaces(self):
        return tuple(self.basis[:, :k] for k in self.dims)

    @property
    def rank(self):
        return self.basis.shape[0]

    def weight_diagonal(self):
        steps = zip(self.weights, (0,) + self.dims, self.dims)
        return WeightDiagonal(tuple(w for w, lo, hi in steps for _ in range(lo, hi)))

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

    def invariant_under(self, g, scale=None):
        """Whether g maps every step into itself, to _CHECK_TOL times scale = max(1, ||g||_2).

        Callers that hold the scale, as a Representation does in `scales`, pass it.
        """
        g = as_matrix(g, square=True)
        if scale is None:
            scale = max(1.0, np.linalg.norm(g, 2))
        return all(_invariant_steps(self, g[None], (scale,), _CHECK_TOL))


def _invariant_steps(flag, mats, scales, tol):
    """For each proper step of the flag, whether every matrix of the stack maps it into itself.

    g maps Q[:, :k] into itself exactly when the block (Q^* g Q)[k:, :k]
    vanishes.  One batched product forms Q^* g Q for every matrix; each
    block is tested entrywise against tol times the matrix's scale.
    """
    q = flag.basis
    worst = np.max(np.abs(q.conj().T @ mats @ q) / np.asarray(scales)[:, None, None], axis=0)
    return [bool(np.max(worst[k:, :k]) <= tol) for k in flag.dims[:-1]]


@dataclass(frozen=True)
class WeightedFlatBundle:
    """A representation with one invariant weighted flag per puncture."""

    rep: Representation
    flags: tuple

    def __post_init__(self):
        flags = tuple(self.flags)
        if len(flags) != self.rep.n:
            raise FlagError("one flag per puncture required")
        for j, (g, c, f) in enumerate(zip(self.rep.matrices, self.rep.scales, flags)):
            if f.rank != self.rep.rank:
                raise FlagError(f"flag {j} has wrong ambient rank")
            if not f.invariant_under(g, scale=c):
                raise FlagError(f"flag {j} is not invariant under its loop matrix")
        object.__setattr__(self, "flags", flags)

    @property
    def rank(self):
        return self.rep.rank

    def with_flags(self, flags):
        return WeightedFlatBundle(self.rep, tuple(flags))


def degree(wfb):
    """deg = sum_j ( Tr Phi_j + Tr norm log G_j ), verified to be an integer.

    Tr norm log G_j = Tr F / (2 pi i) for the Schur-Parlett F that
    :func:`norm_log` forms, read from its diagonal with no K formed:
    each Schur position of G_j takes the branch mu = log_branches of its
    cluster mean m, and F / (2 pi i) has diagonal
    mu + log(t_ii e^{-2 pi i mu}) / (2 pi i), where e^{2 pi i mu} = m.
    A zero eigenvalue raises SingularMatrixError.
    """
    total = sum(f.weight_diagonal().trace() for f in wfb.flags) + 0.0j
    for g in wfb.rep.matrices:
        t, _, means = clustered_schur(g)
        total += np.sum(log_branches(means) + np.log(t.diagonal() / means) / (2j * np.pi))
    return _rounded_degree(total)


def _rounded_degree(total):
    """The integer a degree sum must be; one farther than _INTEGER_TOL = 1e-6 from it raises NonIntegralDegreeError."""
    if _integer_defect(total) > _INTEGER_TOL:
        raise NonIntegralDegreeError(
            f"degree {total} is not an integer to tolerance {_INTEGER_TOL}; inconsistent representation"
        )
    return int(round(total.real))


def slope(wfb):
    return Fraction(degree(wfb), wfb.rank)


# --------------------------------------------------------------------------
# invariant subspaces


_PROBES = 8  # random combinations of the G_j and G_i G_j tried for a simple spectrum
_EDGE_TOL = 1e-10  # entry of V^-1 g V per unit componentwise scale read as zero (see invariant_subspaces)


def _eigvecs_distinct(m):
    """Unit eigenvectors when no two eigenvalues chain within 1e-8 max(1, max |lambda|); None otherwise."""
    vals, vecs = np.linalg.eig(m)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if len(_chain(vals, 1e-8 * scale)) < len(vals):
        return None
    return vecs


def _projector_key(basis):
    p = basis @ basis.conj().T
    return (basis.shape[1],) + tuple(np.round(p, 6).reshape(-1).view(float))


def _closed_sets(edges):
    """The nonempty proper index sets closed under the edges, as index lists.

    edges[i, j] is the edge i -> j.  The closed sets are the unions of
    the closures R(i); they are grown from the empty set by adding one
    closure at a time, so the work is the number of sets times r.
    """
    r = len(edges)
    closures = {sum(1 << int(j) for j in np.flatnonzero(row)) for row in _closure(edges)}
    seen = frontier = {0}
    while frontier:
        frontier = {s | c for s in frontier for c in closures} - seen
        seen = seen | frontier
    return [[k for k in range(r) if s >> k & 1] for s in seen if 0 < s < (1 << r) - 1]


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


def invariant_subspaces(rep, seed=0):
    """Proper nonzero subspaces invariant under every loop matrix.

    Pseudo-random combinations A of the words G_j and G_i G_j, each
    scaled to unit norm, are probed for a simple spectrum.  A lies in
    the algebra the G_j generate, so every invariant subspace is
    A-invariant, hence spanned by a subset S of A's eigenvectors V, and
    span(V_S) is g-invariant exactly when M = V^-1 g V has M_ji = 0 for
    i in S, j not in S.  With an edge i -> j wherever some generator has
    M_ji != 0, the invariant subspaces are the successor-closed index
    sets, enumerated in time proportional to their number; each is
    checked before it is returned.  An irreducible family has no proper
    closed set: its edge graph is strongly connected, and the complete
    empty list is the certificate.

    Deciding M_ji = 0.  Each entry is measured against its componentwise
    scale C = |V^-1| |g| |V|, which bounds |M| and whose norm, a small
    multiple of cond(V) |g|, is the roundoff scale of M.  A is formed
    in floating point from unit-norm words and eig is backward stable,
    so V holds exact eigenvectors of a matrix within a modest multiple
    of r eps |A| of A; through V^-1 g V that moves a true zero M_ji by a
    multiple of eps C_ji that grows with the condition number kappa of
    the frame the family is given in.  Measured on the tests'
    triangular, diagonal, repeated and block families (r = 2 to 8),
    conjugated by frames of condition number kappa: at most 7e-14 C_ji
    for kappa <= 1e2 and 4.8e-12 C_ji at kappa = 1e4, about 5 kappa eps.
    An entry at most _EDGE_TOL C_ji = 1e-10 C_ji, twenty times the
    worst at 1e4, is therefore roundoff: no edge.  An entry above
    _CHECK_TOL C_ji cannot come from a relative perturbation of g by
    1e-8, the invariance check's tolerance: an edge.  An entry in between is
    undecided; it is read as an edge, so every set is still checked, and
    the list is marked incomplete, as it is when a set fails its check.
    Without a simple-spectrum probe a partial list is assembled from
    eigenspace intersections and the result is marked incomplete.
    """
    mats = np.array(rep.matrices)
    r = rep.rank
    words = np.concatenate([mats, (mats[:, None] @ mats[None]).reshape(-1, r, r)])
    words = words / np.linalg.norm(words, axis=(1, 2))[:, None, None]

    def all_invariant(w):
        return _maps_into(w, mats, rep.scales, _CHECK_TOL)

    def by_key(found):
        return tuple(sorted(found, key=lambda w: (w.shape[1], _projector_key(w))))

    rng = np.random.default_rng(seed)
    for _ in range(_PROBES):
        coeffs = rng.normal(size=len(words)) + 1j * rng.normal(size=len(words))
        vecs = _eigvecs_distinct(np.tensordot(coeffs, words, axes=1))
        if vecs is None:
            continue
        vinv = np.linalg.inv(vecs)
        m = np.abs(vinv @ mats @ vecs)
        scale = np.abs(vinv) @ np.abs(mats) @ np.abs(vecs)
        nonzero = m > _EDGE_TOL * scale
        undecided = bool(np.any(nonzero & (m <= _CHECK_TOL * scale)))
        found = []
        for cols in _closed_sets(np.any(nonzero, axis=0).T):
            u, k = _span_basis(vecs[:, cols])
            w = u[:, :k]
            if k == len(cols) and all_invariant(w):
                found.append(w)
            else:
                undecided = True
        certificate = "undecided-closure" if undecided else "simple-spectrum-closure"
        return InvariantSubspaces(by_key(found), not undecided, certificate)

    # partial search: cluster subspaces of each matrix and intersections
    candidates = {}
    pools = []
    for g in mats:
        split = spectral_split(g)
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
    return InvariantSubspaces(by_key(candidates.values()), False, "partial-search")


class Semistability(Enum):
    STABLE = "Stable"
    SEMISTABLE = "Semistable"
    UNSTABLE = "Unstable"
    UNDETERMINED = "Undetermined"


def _is_scalar_family(mats):
    for g in mats:
        d = g[0, 0]
        if np.linalg.norm(g - d * np.eye(g.shape[0]), 2) > 1e-10 * max(1.0, abs(d)):
            return False
    return True


def _induced_weight_trace(flags, counts, k):
    """Trace of the weights the flags induce on a k-dimensional W, from d_m = dim(W meet F_m).

    `counts` lists d_m for the steps of all flags in order.  The induced
    flag keeps the steps where d_m grows, so its weight trace is
    sum_m w_m (d_m - d_{m-1}), d_0 = 0.  The counts of one flag must not
    decrease and must end at k (its last step is the whole space), or
    the flag does not restrict to W: FlagError.
    """
    trace = 0
    start = 0
    for f in flags:
        d = counts[start : start + len(f.weights)]
        start += len(f.weights)
        if d[-1] != k or any(b < a for a, b in zip(d, d[1:])):
            raise FlagError(f"intersection dimensions {d} do not form a flag of a {k}-dimensional subspace")
        trace += sum(w * (b - a) for w, a, b in zip(f.weights, [0] + d, d))
    return trace


def _subbundle_slope(wfb, w, mats, ks):
    """Slope of the sub-bundle induced on span(W), with no objects built.

    The induced bundle restricts each loop matrix to W and each flag to
    its intersections with W, with the weights of the steps where the
    intersection dimension grows.

    W has orthonormal columns, as every candidate of :func:`semistable`
    has.  The induced weight trace comes from the intersection
    dimensions alone (:func:`_induced_weight_trace`), counted from the
    singular values of :func:`_step_tails` with no coordinates formed.
    ks stacks K_j = norm log G_j.  A primary matrix function of G_j is
    a polynomial in G_j, so it maps the G_j-invariant span(W) into
    itself and restricts there to the function of the restriction
    (Higham, Functions of Matrices, 2008, Thm 1.13): Tr norm log of
    W^* G_j W is Tr(W^* K_j W), summed over j in one einsum.  W must be
    invariant (FlagError otherwise).  The checks a Representation of the
    W^* G_j W would make hold without it: their product is the
    restriction of G_1 ... G_n = I, and a restriction of an invertible
    matrix to an invariant subspace is invertible.  Likewise the induced
    flags are invariant because the flags and W are.
    """
    if not _maps_into(w, mats, wfb.rep.scales, 1e-7):
        raise FlagError("subspace is not invariant under the representation")
    sines = np.linalg.svd(_step_tails(w, [(f.basis, f.dims) for f in wfb.flags]), compute_uv=False)
    k = w.shape[1]
    trace = _induced_weight_trace(wfb.flags, _meet_counts(sines), k)
    return Fraction(_rounded_degree(trace + np.einsum("ai,jab,bi->", w.conj(), ks, w)), k)


def semistable(wfb, seed=0):
    """Semistability verdict by slope comparison over invariant subspaces.

    K_j = norm log G_j is formed once per loop matrix; the bundle's own
    slope is (sum_j Tr Phi_j + sum_j Tr K_j) / r, and each candidate
    subspace's slope is read from the same K_j
    (:func:`_subbundle_slope`), without building its induced bundle.
    A destabilizing subspace is definite evidence; Stable/Semistable
    verdicts additionally require the enumeration to be certified
    complete (or the scalar-monodromy uniform-flag case, where every
    subspace realizes the same slope).  Anything else is Undetermined.
    """
    r = wfb.rank
    if r == 1:
        return Semistability.STABLE
    mats = np.array(wfb.rep.matrices)
    ks = np.array([norm_log(g).k for g in mats])
    weight_trace = sum(f.weight_diagonal().trace() for f in wfb.flags)
    total = Fraction(_rounded_degree(weight_trace + np.einsum("jaa->", ks)), r)
    enum = invariant_subspaces(wfb.rep, seed=seed)
    candidates = {key: w for key, w in ((_projector_key(w), w) for w in enum.subspaces)}
    # flag steps are natural destabilizer candidates
    for f in wfb.flags:
        for s, invariant in zip(f.subspaces, _invariant_steps(f, mats, wfb.rep.scales, _CHECK_TOL)):
            if invariant:
                candidates.setdefault(_projector_key(s), s)
    saw_equal = False
    for w in candidates.values():
        s_slope = _subbundle_slope(wfb, w, mats, ks)
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


def local_extension(g, flag):
    """Connection matrix realizing weighted data at one puncture.

    Adapts a basis to the flag (so g becomes block-upper-triangular),
    takes K = norm log of the adapted matrix, and emits
    z^Phi (-K - Phi) z^{-Phi} as an exact polynomial of order equal to
    the largest weight gap.
    """
    g = as_matrix(g, square=True)
    if not flag.invariant_under(g):
        raise FlagError("flag is not invariant under the matrix")
    # in the flag's basis g is block upper triangular up to 1e-8; its
    # block-lower part is rounding and is dropped, from K too
    g_ad = flag.basis.conj().T @ g @ flag.basis
    for k in flag.dims[:-1]:
        g_ad[k:, :k] = 0.0
    k_mat = norm_log(g_ad).k
    for k in flag.dims[:-1]:
        k_mat[k:, :k] = 0.0
    phi = flag.weight_diagonal()
    gaps = max(phi.entries) - min(phi.entries)
    series = normal_form_b_series(k_mat, phi, gaps)
    return LocalLogConnection(series)
