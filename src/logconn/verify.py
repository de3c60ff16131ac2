"""Independent numerical verification by loop integration.

Flat sections of d + A(z) dz/z (local) or d + sum B_j/(z - a_j) dz
(global) are transported along explicit paths by Taylor-series analytic
continuation (van der Hoeven, "Fast evaluation of holonomic functions",
TCS 1999; Mezzarobba, "Truncation bounds for differentially finite
series", 2019).  Each step moves at most 0.4 rho along the path, rho
being the distance to the nearest singular point.  The steps of a batch
of paths (all standard loops of a system, say) are fixed from their
geometry first and concatenated; the Taylor terms of all their
propagators then come from one fixed-length recurrence over geometric
accumulators that carry each step's ratios h/(z0 - a_j), so for a
Fuchsian system every term is one matrix product over all steps.  The
terms are summed as they arrive by a compensated sum, and each path
applies its own steps in order as y + E_s y.  One term count serves
the whole batch: it comes from the Cauchy majorant (1 - w/rho)^-beta at
the largest beta and step ratio of all steps, and the majorant's
relative tail grows with both, so every step is summed to roundoff:
there is no step-size controller and no tolerance (see
:func:`_transport`).

Conventions (one source of sign bugs, fixed here once):

* fundamental solutions transform as Y o gamma* = Y . G (right
  multiplication), so the loop matrix returned by integration with
  initial value I *is* the monodromy factor of that loop;
* loops wind anticlockwise around their puncture;
* with endpoint transport, concatenating paths multiplies factors in
  reverse, so the order in which the standard loop matrices telescope
  to the identity is the clockwise angular sweep of the punctures as
  seen from the basepoint (see :func:`relation_order`).  Re-indexing
  punctures conjugates the representation; reports carry the order
  actually used.
"""

import math
from dataclasses import dataclass

import numpy as np

from .eigen import floor_snap
from .series import as_matrix, last_nonzero

__all__ = [
    "IntegrationError",
    "LoopPath",
    "circle_loop",
    "standard_loops",
    "relation_order",
    "Transport",
    "integrate_fuchsian",
    "integrate_local",
    "MonodromyReport",
    "monodromy_report",
    "conjugacy_compare",
    "GrowthEstimate",
    "growth_exponent",
]


class IntegrationError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class LoopPath:
    """Closed path made of straight segments and circular arcs.

    Pieces are tuples ``("line", z0, z1)`` or ``("arc", center, radius,
    theta0, theta1)`` traversed with increasing angle parameter.
    """

    pieces: tuple

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("empty path")
        if abs(self.start - self.end) > 1e-9 * max(1.0, abs(self.start)):
            raise ValueError("path is not closed")

    @property
    def start(self):
        return _piece_point(self.pieces[0])[0](0.0)

    @property
    def end(self):
        return _piece_point(self.pieces[-1])[0](1.0)

    def reversed(self):
        rev = []
        for piece in self.pieces[::-1]:
            if piece[0] == "line":
                rev.append(("line", piece[2], piece[1]))
            else:
                _, c, r, t0, t1 = piece
                rev.append(("arc", c, r, t1, t0))
        return LoopPath(tuple(rev))

    def clearance(self, points):
        """Minimum distance from the path to any of the given points."""
        points = np.asarray(points, dtype=np.complex128)
        return min(float(np.min(_piece_distance(piece, points), initial=math.inf)) for piece in self.pieces)

    def winding_number(self, a):
        """Winding of the closed path around a (integer).

        Each piece adds its change of arg(z - a) in closed form.  A segment,
        and an arc about c when a lies outside its circle, see a within an
        angle below pi: the principal argument of (z1 - a)/(z0 - a).  Inside
        the circle, arg(z - a) = t + arg((z - a)/(z - c)) on the arc, where
        the last term stays in (-pi/2, pi/2), so the change is t1 - t0 plus
        the change of that term between the ends.
        """
        total = 0.0
        for piece in self.pieces:
            if piece[0] == "line":
                _, z0, z1 = piece
                total += np.angle((z1 - a) / (z0 - a))
            else:
                _, c, r, t0, t1 = piece
                z0, z1 = c + r * np.exp(1j * t0), c + r * np.exp(1j * t1)
                if abs(a - c) < r:
                    total += t1 - t0 + np.angle((z1 - a) / (z1 - c)) - np.angle((z0 - a) / (z0 - c))
                else:
                    total += np.angle((z1 - a) / (z0 - a))
        return int(round(total / (2.0 * np.pi)))


def circle_loop(center, radius, start_angle=0.0):
    """Anticlockwise circle as a closed loop."""
    return LoopPath((("arc", complex(center), float(radius), start_angle, start_angle + 2.0 * np.pi),))


def _choose_basepoint(punctures):
    """Basepoint far out along a direction with good lateral separation.

    The connector of each standard loop is the straight segment toward
    its puncture; placing the basepoint far away in a direction that
    maximizes the pairwise lateral separation keeps every connector
    clear of every other loop's circle, so the loops form a geometric
    basis without detours.
    """
    punctures = np.asarray(punctures, dtype=np.complex128)
    centroid = punctures.mean()
    spread = max(1.0, float(np.max(np.abs(punctures - centroid))))
    if len(punctures) == 1:
        return complex(centroid + 4.0 * spread)
    us = np.exp(1j * np.linspace(0.0, np.pi, 181, endpoint=False))
    j, m = np.nonzero(~np.eye(len(punctures), dtype=bool))  # ordered pairs m != j
    sep = np.abs(((punctures[m] - punctures[j])[None, :] / us[:, None]).imag).min(axis=1)
    return complex(centroid - 6.0 * spread * us[np.argmax(sep)])


def relation_order(punctures, basepoint):
    """Puncture order in which the standard loop matrices multiply to I.

    Sorted by decreasing angle of a_j as seen from the basepoint: with
    right-multiplication transport the product of loop factors
    anti-composes path concatenation, so the telescoping order is the
    clockwise sweep.  Re-indexing punctures conjugates the
    representation but never changes realizability.
    """
    punctures = np.asarray(punctures, dtype=np.complex128)
    toward = punctures.mean() - basepoint
    if abs(toward) < 1e-12:
        toward = 1.0 + 0.0j
    toward /= abs(toward)
    # measure angles against the centroid direction so the sort never
    # straddles the branch cut of arg (the basepoint sees the cluster
    # within a narrow beam)
    angles = np.angle((punctures - basepoint) / toward)
    return tuple(int(i) for i in np.argsort(-angles, kind="stable"))


def _segment_distance(z0, z1, points):
    """Distance from each point to the segment [z0, z1] (arrays broadcast): the projection
    onto its line, clamped to the segment.  Each operation rounds as numpy's scalar
    arithmetic does (hypot moduli, no fused multiply-add, |d|^2 by pow), so a standard
    loop's radius does not depend on how many punctures share the call."""
    d, u = z1 - z0, points - z0
    length2 = np.float_power(np.hypot(np.real(d), np.imag(d)), 2)
    t = np.clip((u.real * np.real(d) + u.imag * np.imag(d)) / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    w = z0 + t * d - points
    return np.hypot(w.real, w.imag)


def _piece_distance(piece, points):
    """Distance from each point to a path piece, in closed form.  On an arc about c the
    circle's nearest point to a lies on the ray through a, at ||a - c| - r|; off the
    sweep the distance grows with the angle from that ray, so the nearer end is nearest."""
    if piece[0] == "line":
        return _segment_distance(piece[1], piece[2], points)
    _, c, r, t0, t1 = piece
    lo, sweep = min(t0, t1), abs(t1 - t0)
    inside = np.mod(np.angle(points - c) - lo, 2.0 * np.pi) <= sweep  # all points for a full circle
    ends = np.minimum(np.abs(c + r * np.exp(1j * t0) - points), np.abs(c + r * np.exp(1j * t1) - points))
    return np.where(inside, np.abs(np.abs(points - c) - r), ends)


def _connector_clearance(punctures, basepoint):
    """Smallest distance of any connector segment to a foreign puncture."""
    punctures = np.asarray(punctures, dtype=np.complex128)
    dist = _segment_distance(basepoint, punctures[:, None], punctures[None, :])  # connector j, puncture m
    np.fill_diagonal(dist, math.inf)
    return float(np.min(dist, initial=math.inf))


def standard_loops(punctures, basepoint=None):
    """One anticlockwise loop per puncture from a common basepoint.

    Each loop is segment out, full circle, and segment back.  The circle
    radius starts from half the minimum pairwise puncture distance and
    shrinks until every connector segment stays clear of every other
    circle; the connectors all emanate from one point, so they never
    cross and the loops form a geometric basis whose product
    telescopes in the :func:`relation_order`.  Returns
    ``(loops, basepoint)`` with loops indexed like the punctures.
    """
    punctures = np.asarray(punctures, dtype=np.complex128)
    n = len(punctures)
    if n == 0:
        raise ValueError("no punctures")
    if n == 1:
        minpair = 2.0
    else:
        diffs = np.abs(punctures[:, None] - punctures[None, :])
        minpair = float(np.min(diffs[diffs > 0]))
    if basepoint is None:
        basepoint = _choose_basepoint(punctures)
    basepoint = complex(basepoint)
    clearance = _connector_clearance(punctures, basepoint)
    radius = 0.5 * minpair
    if n > 1:
        if clearance <= 1e-9 * minpair:
            raise ValueError(
                "a puncture lies on another connector segment; supply a basepoint"
            )
        radius = min(radius, 0.8 * clearance)
    loops = []
    for a in punctures:
        u = (basepoint - a) / abs(basepoint - a)
        entry = a + radius * u
        theta = float(np.angle(entry - a))
        loops.append(
            LoopPath(
                (
                    ("line", complex(basepoint), complex(entry)),
                    ("arc", complex(a), radius, theta, theta + 2.0 * np.pi),
                    ("line", complex(entry), complex(basepoint)),
                )
            )
        )
    return loops, basepoint


# --------------------------------------------------------------------------
# Taylor-series transport

_STEP = 0.4  # arc length of one step, as a fraction of the clearance rho
_ROUNDOFF = np.finfo(float).eps / 2.0


def _piece_point(piece):
    """Point of a path piece at parameter t in [0, 1], and the piece's length."""
    if piece[0] == "line":
        _, z0, z1 = piece
        return (lambda t: z0 + t * (z1 - z0)), abs(z1 - z0)
    if piece[0] == "arc":
        _, c, r, t0, t1 = piece
        return (lambda t: c + r * np.exp(1j * (t0 + t * (t1 - t0)))), r * abs(t1 - t0)
    raise ValueError(f"unknown piece kind {piece[0]!r}")


def _term_count(beta, t):
    """First K with sum_{k>=K} m_k <= roundoff (1-t)^-beta, m_k = binom(beta+k-1, k) t^k.

    For k >= K the ratio m_{k+1}/m_k = t (beta+k)/(k+1) is at most
    q = t max(1, (beta+K)/(K+1)), so the tail is at most m_K / (1 - q).
    """
    target = _ROUNDOFF * (1.0 - t) ** -beta
    m, k = 1.0, 0
    while True:
        m *= t * (beta + k) / (k + 1)
        k += 1
        q = t * max(1.0, (beta + k) / (k + 1))
        if q < 1.0 and m / (1.0 - q) <= target:
            return k


def _schedule(singular, pieces):
    """Steps (z_s, z_{s+1}, rho_s) of one path; see :func:`_transport`."""
    steps = []
    for piece in pieces:
        point, length = _piece_point(piece)
        t, z = 0.0, point(0.0)
        while t < 1.0:
            rho = float(np.abs(singular - z).min())
            if rho > 0.0 and (1.0 - t) * length <= _STEP * rho:
                t_next = 1.0
            elif rho == 0.0 or (t_next := t + _STEP * rho / length) <= t:
                raise IntegrationError("path runs into a singular point")
            z_next = point(t_next)
            steps.append((z, z_next, rho))
            t, z = t_next, z_next
    return steps


@dataclass(frozen=True)
class Transport:
    """Frames at the ends of a batch of paths, and the work that gave them.

    `frames[p]` continues the initial frame along path p; `steps[p]` is
    the number of Taylor steps of path p; `terms` is the one term count
    that served every step of every path.
    """

    frames: tuple
    steps: tuple
    terms: int


def _transport(expansion, paths, y):
    """Continue the flat frame y analytically along each of the paths.

    Schedule.  A step from z0 goes at most 0.4 rho along its piece, rho
    being the distance from z0 to the nearest singular point, so the
    chord h has |h| <= 0.4 rho.  The steps of every path depend only on
    its geometry; they are fixed first (:func:`_schedule`) and
    concatenated, so one recurrence serves every step of every path.

    Recurrence.  ``expand(z0, h, rho)`` takes the S step starts, chords
    and radii and returns ``(beta, sigma, product)``; sigma has shape
    (S, n).  In x = w/rho the coefficients D_k = rho^{k+1} C_k of
    Y' = C(w) Y at z0 are D_k = sum_j sum_{i<=min(k,d)} P_{j,i}
    s_j (-s_j)^{k-i}, with s_j = rho/(z0 - a_j) and norm(D_k) <= beta.
    The step propagator is I + sum_{k>=1} x^k Phi_k with
    (k+1) Phi_{k+1} = sum_{i<=k} D_i Phi_{k-i} and Phi_0 = I.  Its
    terms Psi_k = x^k Phi_k come from the accumulators
    U_{j,q} = x^{q+1} s_j sum_{m<=q} (-s_j)^m Phi_{q-m}, which carry
    sigma_j = x s_j = h/(z0 - a_j):

        (k+1) Psi_{k+1} = sum_j sum_{i<=min(k,d)} x^i P_{j,i} U_{j,k-i},
        U_{j,0} = sigma_j I,   U_{j,k+1} = sigma_j (Psi_{k+1} - U_{j,k}),

    van der Hoeven's fixed-length recurrence for holonomic functions.
    ``product(u, k)`` returns Psi_{k+1}, shape (r, S, r), from the
    accumulators u of shape (n, r, S, r).  When the P_{j,i} do not
    depend on the step (a Fuchsian system) that is one 2-D product of
    shape (r, n r) @ (n r, S r) per term.  The accumulators are
    updated in place.

    Term count.  Since (beta/rho) / (1 - w/rho) majorizes C, Y is
    majorized by norm(Y(z0)) (1 - w/rho)^-beta, and the relative tail
    of that majorant at t = |h|/rho past K terms is
    P(N >= K) = sum_{k>=K} binom(beta+k-1, k) t^k (1 - t)^beta for a
    negative binomial N.  N is Poisson with a Gamma(beta, t/(1-t))
    distributed mean, which is stochastically increasing in beta and
    in t, so the tail increases in both.  One :func:`_term_count` at
    the largest beta and t over all steps of all paths therefore sums
    every step to roundoff: it puts the tail at that pair below
    roundoff, and the tail of every step is no larger.  There is no
    step controller and no tolerance.

    Summation.  E_s = sum_{k>=1} Psi_{s,k} is summed as the terms
    arrive, with a compensated (Kahan) sum, so no term is stored.  Its
    computed value differs from the exact sum of the computed terms by
    at most (2u + O(K u^2)) sum_k |Psi_{s,k}| componentwise (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 4.3),
    whatever the order of the terms, where a plain sum from the largest
    term would lose up to (K - 1) u.  The majorant bounds
    sum_k norm(Psi_{s,k}) by (1 - t)^-beta.

    Application.  Each path applies its own steps in order, y + E_s y.
    That rounds once at the size of y per entry, where (I + E_s) y
    would round at that size in every term of each inner product.
    """
    singular, expand = expansion
    y = np.array(y, dtype=np.complex128)
    schedules = [_schedule(singular, pieces) for pieces in paths]
    z0, z1, rho = np.array([step for path in schedules for step in path]).T
    rho = rho.real
    h = z1 - z0
    beta, sigma, product = expand(z0, h, rho)
    count = _term_count(float(np.max(beta)), float(np.max(np.abs(h) / rho)))
    lengths = [len(path) for path in schedules]
    if count == 1:  # C vanishes on the paths, or they have no length
        return Transport(tuple(y.copy() for _ in paths), tuple(lengths), count)
    steps, n = sigma.shape
    r = y.shape[0]
    sigma = np.broadcast_to(sigma.T[:, None, :, None], (n, r, steps, r)).copy()
    acc = sigma * np.eye(r)[:, None, :]
    total = np.zeros((r, steps, r), dtype=np.complex128)
    carry = np.zeros_like(total)
    for k in range(count - 1):
        term = product(acc, k)
        np.subtract(term, acc, out=acc)
        acc *= sigma
        term -= carry
        new = total + term
        np.subtract(new, total, out=carry)
        carry -= term
        total = new
    corrections = total.transpose(1, 0, 2).copy()
    frames, lo = [], 0
    for length in lengths:
        frame = y
        for e in corrections[lo : lo + length]:
            frame = frame + e @ frame
        frames.append(frame)
        lo += length
    return Transport(tuple(frames), tuple(lengths), count)


def _fuchsian_expansion(system):
    """Expansion of C(z) = -sum_j B_j / (z - a_j) for :func:`_transport`.

    With s_j = rho/(z0 - a_j), D_k = -sum_j B_j s_j (-s_j)^k: d = 0 and
    P_{j,0} = -B_j, the same at every step, so each term is the one
    product [-B_1 ... -B_n] @ U over all steps.  As |s_j| <= 1,
    beta = sum_j norm(B_j) |s_j| bounds norm(D_k).
    """
    punctures = np.asarray(system.punctures, dtype=np.complex128)
    residues = np.array([as_matrix(b, square=True) for b in system.residues])
    norms = np.linalg.norm(residues, 2, axis=(1, 2))
    n, r, _ = residues.shape
    lhs = -residues.transpose(1, 0, 2).reshape(r, n * r)

    def expand(z0, h, rho):
        diff = z0[:, None] - punctures
        product = lambda u, k: (lhs / (k + 1) @ u.reshape(n * r, -1)).reshape(r, len(z0), r)
        return (rho[:, None] / np.abs(diff)) @ norms, h[:, None] / diff, product

    return punctures, expand


def _local_expansion(a_series, center):
    """Expansion of C(z) = -A(s)/s, s = z - center, for :func:`_transport`.

    At s0 = z0 - center the Taylor shift A(s0 + rho x) = sum_i At_i x^i
    has At_i = rho^i sum_n binom(n, i) s0^{n-i} A_n; times the geometric
    series of rho/(s0 + rho x) this gives s = rho/s0, d = the degree of
    A and P_{0,i} = -At_i, and beta = sum_i norm(At_i) bounds norm(D_k)
    (rho = |s0|).  The At_i depend on the step, so each term is one
    batched (S, r, (d+1) r) @ (S, (d+1) r, r) product over the last d+1
    accumulators, which are kept in a ring.  Trailing coefficients that
    are exactly zero (such as the padding of a normal form's B, whose
    true degree is the weight gap) are dropped first: At_i is exactly
    zero past the last nonzero A_n, so beta and every D_k are unchanged
    while d shrinks.
    """
    a = a_series.coeffs
    a = a[: max(last_nonzero(a), 0) + 1]
    n = np.arange(a.shape[0])
    gap = np.maximum(n[None, :] - n[:, None], 0)  # n - i
    binom = np.array([[math.comb(j, i) if j >= i else 0 for j in n] for i in n], dtype=float)
    d1, r = a.shape[0], a.shape[1]

    def expand(z0, h, rho):
        s0 = z0 - center
        shift = binom * s0[:, None, None] ** gap * rho[:, None, None] ** n[:, None]
        at = (shift.reshape(-1, d1) @ a.reshape(d1, -1)).reshape(len(s0), d1, r, r)
        beta = np.linalg.norm(at, 2, axis=(2, 3)).sum(axis=1)
        # x^i P_{0,i} side by side, in the order of the accumulator window
        scaled = at * ((h / rho)[:, None] ** n)[:, :, None, None]
        lhs = -scaled.transpose(0, 2, 1, 3).reshape(len(s0), r, d1 * r)
        # U_q sits at slots (-q) % d1 and (-q) % d1 + d1 of the ring, so
        # the slots from (-k) % d1 hold U_k, ..., U_{k-d} in order
        ring = np.zeros((len(s0), 2 * d1, r, r), dtype=np.complex128)

        def product(u, k):
            p, m = -k % d1, min(k, d1 - 1) + 1
            ring[:, p] = ring[:, p + d1] = u[0].transpose(1, 0, 2)
            window = ring[:, p : p + m].reshape(len(s0), m * r, r)
            psi = np.empty((r, len(s0), r), dtype=np.complex128)
            np.matmul(lhs[:, :, : m * r], window, out=psi.transpose(1, 0, 2))
            psi.view(np.float64)[...] /= k + 1  # as reals: a complex divisor costs a complex division
            return psi

        return beta, (h / s0)[:, None], product

    return np.array([center], dtype=np.complex128), expand


def integrate_fuchsian(system, loops):
    """Loop matrices G' of d + sum B_j/(z - a_j) dz with Y(start) = I.

    With the right-multiplication convention a returned matrix is the
    monodromy factor of its loop for the fundamental solution based at
    the loop's start point.  For one :class:`LoopPath` this returns its
    matrix.  For a sequence of loops it returns a :class:`Transport`
    whose frames are the loop matrices, all taken by one recurrence.
    Raises :class:`IntegrationError` when a loop passes within 1e-6 of
    a puncture.
    """
    single = isinstance(loops, LoopPath)
    batch = [loops] if single else list(loops)
    if not batch:
        raise ValueError("no loops to integrate")
    expansion = _fuchsian_expansion(system)
    for i, loop in enumerate(batch):
        if loop.clearance(expansion[0]) < 1e-6:
            raise IntegrationError(f"loop {i} passes within 1e-6 of a puncture")
    transport = _transport(expansion, [loop.pieces for loop in batch], np.eye(system.rank))
    return transport.frames[0] if single else transport


def integrate_local(a_series, loop, y0=None):
    """Loop/path transport for the local system d + A(z) dz/z around z = 0."""
    y0 = np.eye(a_series.dim_out) if y0 is None else y0
    return _transport(_local_expansion(a_series, 0.0), [loop.pieces], y0).frames[0]


# --------------------------------------------------------------------------
# monodromy reports and conjugacy


def conjugacy_compare(mats_a, mats_b, tol=1e-8):
    """Search for invertible S with A_j S = S B_j for all j.

    Solves the joint intertwiner system by SVD of the stacked operator
    and scans the near-null space for an invertible combination: its
    basis vectors, then eight draws of a generator seeded with 0.
    Returns ``(ok, S)``; S is scaled to unit determinant magnitude.
    """
    mats_a = [as_matrix(m, square=True) for m in mats_a]
    mats_b = [as_matrix(m, square=True) for m in mats_b]
    if len(mats_a) != len(mats_b):
        raise ValueError("lists must have equal length")
    r = mats_a[0].shape[0]
    if any(m.shape[0] != r for m in mats_a + mats_b):
        raise ValueError("all matrices must share one size")
    ident = np.eye(r)
    ops = [np.kron(ident, a) - np.kron(b.T, ident) for a, b in zip(mats_a, mats_b)]
    stacked = np.vstack(ops)  # shape (n r^2, r^2)
    # threshold scale from the input matrices, not the stacked operator:
    # for (near-)scalar families the operator itself is (near-)zero
    scale = max(
        max(np.linalg.norm(a, 2) for a in mats_a),
        max(np.linalg.norm(b, 2) for b in mats_b),
        1e-30,
    )
    _, svals, vh = np.linalg.svd(stacked)
    null_dim = int(np.sum(svals <= tol * scale))
    if null_dim == 0:
        return False, None
    basis = vh.conj().T[:, r * r - null_dim :]
    candidates = [basis[:, i] for i in range(basis.shape[1])]
    rng = np.random.default_rng(0)
    for _ in range(8):
        w = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        candidates.append(basis @ w)
    for vec in candidates:
        s = vec.reshape((r, r), order="F")
        sn = np.linalg.norm(s, 2)
        if sn == 0.0:
            continue
        smin = np.linalg.svd(s, compute_uv=False)[-1]
        if smin > 1e-6 * sn:
            det = np.linalg.det(s)
            s = s / det ** (1.0 / r)
            return True, s
    return False, None


@dataclass(frozen=True)
class MonodromyReport:
    """Computed loop matrices with consistency data.

    `order` is the puncture order in which the loop product telescopes
    to the identity; `conjugator` intertwines computed and target lists
    when a target representation was supplied.  `loop_steps` holds the
    Taylor steps of each loop and `terms` the one term count they
    share.  `liouville_defects` holds |det G_j exp(2 pi i tr B_j) - 1|
    per loop: Liouville's formula makes that 0 exactly, so it measures
    the transport error of each loop on its own.
    """

    loop_matrices: tuple
    order: tuple
    product_defect: float
    conjugacy_ok: bool
    conjugator: object
    per_loop_residuals: tuple
    basepoint: complex
    loop_steps: tuple
    terms: int
    liouville_defects: tuple


def monodromy_report(system, target=None, tol=1e-10, basepoint=None):
    """Integrate the standard loops of a Fuchsian system and compare.

    All loops go through one :func:`integrate_fuchsian` call.  If
    `target` (a representation with matrices G_j) is given, its
    matrices are compared against the computed loop matrices up to one
    simultaneous conjugation.
    """
    loops, s = standard_loops(system.punctures, basepoint=basepoint)
    transport = integrate_fuchsian(system, loops)
    mats = list(transport.frames)
    order = relation_order(system.punctures, s)
    prod = np.eye(mats[0].shape[0], dtype=np.complex128)
    for j in order:
        prod = prod @ mats[j]
    defect = float(np.linalg.norm(prod - np.eye(prod.shape[0]), 2))
    liouville = tuple(
        float(abs(np.linalg.det(g) * np.exp(2j * np.pi * np.trace(b)) - 1.0))
        for g, b in zip(mats, system.residues)
    )
    ok, conj = True, None
    residuals = ()
    if target is not None:
        ok, conj = conjugacy_compare(mats, list(target.matrices), tol=max(1e-8, 10 * tol))
        if ok:
            residuals = tuple(
                float(np.linalg.norm(a @ conj - conj @ b, 2))
                for a, b in zip(mats, target.matrices)
            )
        else:
            residuals = tuple(math.inf for _ in mats)
    return MonodromyReport(
        loop_matrices=tuple(mats),
        order=order,
        product_defect=defect,
        conjugacy_ok=bool(ok),
        conjugator=conj,
        per_loop_residuals=residuals,
        basepoint=s,
        loop_steps=transport.steps,
        terms=transport.terms,
        liouville_defects=liouville,
    )


# --------------------------------------------------------------------------
# asymptotic growth


@dataclass(frozen=True)
class GrowthEstimate:
    exponent: int
    slope: float
    stderr: float
    reliable: bool


def growth_exponent(source, v, radii, center=0.0 + 0.0j, angle=0.0):
    """Integer part of the asymptotic growth of the flat extension of v.

    Transports v radially toward the singularity through the given
    decreasing radii, fits log norm(v) against log r, and floors the
    fitted slope.  `source` is either a local connection (series
    attribute `a`, singularity at 0) or a Fuchsian system; for the
    latter `center` picks the puncture.

    The estimate is flagged unreliable when fewer than 8 radii or fewer
    than 3 decades are supplied, or when the fit standard error is too
    large to pin down the integer part.
    """
    radii = np.asarray(sorted((float(r) for r in radii), reverse=True), dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    direction = np.exp(1j * angle)

    if hasattr(source, "residues"):
        expansion = _fuchsian_expansion(source)
    else:
        expansion = _local_expansion(source.a if hasattr(source, "a") else source, center)

    y = np.asarray(v, dtype=np.complex128).reshape(-1, 1)
    norms = [float(np.linalg.norm(y))]
    if norms[0] == 0.0:
        raise ValueError("zero vector has no growth exponent")
    for r0, r1 in zip(radii[:-1], radii[1:]):
        piece = ("line", center + r0 * direction, center + r1 * direction)
        y = _transport(expansion, [[piece]], y).frames[0]
        norms.append(float(np.linalg.norm(y)))

    logr = np.log(radii)
    logn = np.log(np.maximum(norms, 1e-300))
    n = len(radii)
    x = logr - logr.mean()
    slope = float(np.dot(x, logn) / np.dot(x, x))
    resid = logn - (logn.mean() + slope * x)
    dof = max(n - 2, 1)
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(x, x)))
    decades = (logr.max() - logr.min()) / np.log(10.0)
    to_int = abs(slope - round(slope))
    reliable = n >= 8 and decades >= 3.0 and (
        stderr < 0.05 or (to_int < 10 * stderr and stderr < 0.2)
    )
    exponent = floor_snap(slope, tol=max(1e-6, 3 * stderr))
    return GrowthEstimate(exponent=exponent, slope=slope, stderr=stderr, reliable=bool(reliable))
