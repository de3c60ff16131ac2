"""Reference checks for benchmark outputs, computed apart from logconn.

Nothing here imports the package under test.  Every check compares a
program output with a computation made from the generated input (numpy
eigenvalues, scipy matrix exponentials, closed-form degrees and
verdicts) or with a property the method must have (a loop product that
telescopes to the identity, a gauge relation that holds coefficient by
coefficient).  No check compares against a stored copy of an earlier
output.

Each check returns an :class:`Outcome`: whether every requirement held,
and the worst relative deviation from a numerical reference, which the
benchmark turns into its ``digits`` accuracy figure.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)

# The package documents 1e-8 (relative) as its spectral tolerance:
# eigenvalue comparisons and integer snapping use it.
SPECTRAL_TOL = 1e-8


class Outcome:
    """Accumulates requirement results and the worst relative deviation."""

    def __init__(self):
        self.ok = True
        self.worst = 0.0
        self.notes = []

    def require(self, label, condition):
        if not condition:
            self.ok = False
            self.notes.append(label)

    def deviation(self, label, value, limit):
        """Record a relative deviation; it must not exceed `limit`."""
        value = float(value)
        if not value <= limit:  # also rejects NaN
            self.ok = False
            self.notes.append(f"{label}: {value:.3e} > {limit:.3e}")
        if math.isfinite(value):
            self.worst = max(self.worst, value)
        else:
            self.worst = math.inf

    def merge(self, other):
        self.ok = self.ok and other.ok
        self.worst = max(self.worst, other.worst)
        self.notes.extend(other.notes)
        return self


def rel(a, b):
    """||a - b|| / max(||b||, tiny), Frobenius norms."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300))


def cmatrix(obj):
    """Matrix from a document's nested [re, im] pairs."""
    return np.array([[complex(x[0], x[1]) for x in row] for row in obj], dtype=np.complex128)


def cseries(obj):
    """Coefficient array (order+1, r, r) from a document series."""
    return np.array([cmatrix(c) for c in obj["coeffs"]], dtype=np.complex128)


def floor_snap(x, tol=SPECTRAL_TOL):
    """floor(x), with values within tol of an integer taken as that integer."""
    r = round(x)
    return int(r) if abs(x - r) < tol else int(math.floor(x))


def normalized_exponent(rho):
    """mu with exp(2 pi i mu) = rho and Re mu in [0, 1)."""
    mu = complex(np.log(complex(rho))) / (2j * math.pi)
    re = mu.real - math.floor(mu.real)
    if re > 1.0 - SPECTRAL_TOL:
        re -= 1.0
    return complex(re, mu.imag)


# ----------------------------------------------------------------------
# fuchsian-verify


def relation_order(punctures, basepoint):
    """Clockwise sweep of the punctures as seen from the basepoint."""
    punctures = np.asarray(punctures, dtype=np.complex128)
    toward = punctures.mean() - basepoint
    toward /= abs(toward)
    angles = [float(np.angle((a - basepoint) / toward)) for a in punctures]
    return sorted(range(len(punctures)), key=lambda j: -angles[j])


def commuting_synthesis(residues, targets, tol):
    """Synthesized residues sum to zero and expm(-2 pi i B_j) = G_j to 10 tol."""
    out = Outcome()
    scale = max(np.linalg.norm(b, 2) for b in residues)
    out.deviation("residues sum to zero", np.linalg.norm(sum(residues), 2) / scale, 1e-12)
    for j, (b, g) in enumerate(zip(residues, targets)):
        out.deviation(f"expm(-2 pi i B_{j}) = G_{j}", rel(scipy.linalg.expm(-2j * math.pi * b), g), 10.0 * tol)
    return out


def fuchsian_report(punctures, residues, report, tol, commuting):
    """Check a `verify` report for d + sum B_j/(z - a_j) dz.

    * det G_j = exp(-2 pi i tr B_j), to r kappa(G_j) times the loop
      accuracy 10 tol;
    * for commuting residues, G_j = expm(-2 pi i B_j) to 10 tol;
    * the loop product in the clockwise sweep order telescopes to I
      within 10 tol, and the report states that order;
    * a supplied target was found conjugate.
    """
    out = Outcome()
    mats = [cmatrix(g) for g in report["loop_matrices"]]
    out.require("one loop matrix per puncture", len(mats) == len(residues))
    out.require("conjugacy_ok", report.get("conjugacy_ok") is True)
    if len(mats) != len(residues):
        return out
    r = residues[0].shape[0]
    limit = 10.0 * tol
    for j, (g, b) in enumerate(zip(mats, residues)):
        det_ref = np.exp(-2j * math.pi * np.trace(b))
        kappa = np.linalg.cond(g)
        out.deviation(f"det G_{j}", abs(np.linalg.det(g) - det_ref) / abs(det_ref), limit * r * kappa)
        if commuting:
            out.deviation(f"G_{j} vs expm(-2 pi i B_{j})", rel(g, scipy.linalg.expm(-2j * math.pi * b)), limit)
    basepoint = complex(*report["basepoint"])
    order = relation_order(punctures, basepoint)
    out.require("reported loop order is the clockwise sweep", list(report["order"]) == order)
    prod = np.eye(r, dtype=np.complex128)
    for j in order:
        prod = prod @ mats[j]
    out.deviation("loop product", np.linalg.norm(prod - np.eye(r), 2), limit)
    return out


# ----------------------------------------------------------------------
# local-normal-form


def _match(values, targets):
    """Largest distance in a greedy nearest pairing of two multisets."""
    left = list(targets)
    worst = 0.0
    for v in values:
        k = min(range(len(left)), key=lambda i: abs(left[i] - v))
        worst = max(worst, abs(left[k] - v))
        left.pop(k)
    return worst


def _class_slices(phi):
    slices, start = [], 0
    for w in sorted(set(phi), reverse=True):
        d = phi.count(w)
        slices.append((w, slice(start, start + d)))
        start += d
    return slices


def decay_ok(m_norms, c0, delta):
    """norm(M^j) delta^j <= D 2^(c0 - j) for c0 < j <= order."""
    n = len(m_norms) - 1
    big_d = sum(m_norms[j] * delta**j for j in range(0, min(c0, n) + 1))
    return all(m_norms[j] * delta**j <= big_d * 2.0 ** (c0 - j) * (1.0 + 1e-12) for j in range(c0 + 1, n + 1))


def normal_form_report(coeffs, report, delta_in):
    """Check a `normal-form --delta` report against the input series.

    * phi is the sorted floor(-Re lambda) over numpy eigenvalues of A_0;
    * K is block upper triangular by weight class and each diagonal
      block has spectrum -lambda - phi over its class;
    * the B series equals z^Phi (-K - Phi) z^-Phi, evaluated with
      scipy's expm at sample points;
    * the gauge relation z M' = M B - (T^-1 A T) M holds to 1e-9 of the
      size of its terms, recomputed here from M, B, T and the input;
    * the decay certificate holds at delta = eps0 / 4C, with C and c0
      recomputed here; the reported delta_max, c0 and verdict at the
      requested delta agree with the recomputation.
    """
    out = Outcome()
    a = np.asarray(coeffs, dtype=np.complex128)
    n, r = a.shape[0] - 1, a.shape[1]
    lam = np.linalg.eigvals(a[0])
    phi_ref = sorted((floor_snap(-v.real) for v in lam), reverse=True)
    phi = [int(x) for x in report["phi"]]
    out.require(f"phi {phi} != {phi_ref}", phi == phi_ref)
    out.require("fundamental_check", report.get("fundamental_check") is True)
    if phi != phi_ref:
        return out

    k = cmatrix(report["k"])
    kscale = max(1.0, float(np.linalg.norm(k, 2)))
    for i, (w, si) in enumerate(_class_slices(phi)):
        for _, sm in _class_slices(phi)[:i]:
            out.deviation("K lower block", np.linalg.norm(k[si, sm], 2) / kscale, 1e-12)
        targets = [-v - w for v in lam if floor_snap(-v.real) == w]
        spec = np.linalg.eigvals(k[si, si])
        out.deviation(f"spec K (weight {w})", _match(spec, targets) / max(1.0, max(abs(t) for t in targets)), SPECTRAL_TOL)

    b = cseries(report["b"])
    phim = np.diag(np.array(phi, dtype=np.complex128))
    for theta in (0.3, 2.1, 4.4):
        z = 0.5 * np.exp(1j * theta)
        zp = scipy.linalg.expm(phim * np.log(z))
        ref = zp @ (-k - phim) @ scipy.linalg.expm(-phim * np.log(z))
        val = sum(c * z**j for j, c in enumerate(b))
        out.deviation("B(z)", rel(val, ref), 1e-10)

    t = cmatrix(report["t"])
    m = cseries(report["m"])
    a_arr = np.array([np.linalg.solve(t, c @ t) for c in a])
    bb = np.zeros((n + 1, r, r), dtype=np.complex128)
    bb[: min(n, b.shape[0] - 1) + 1] = b[: n + 1]
    out.deviation("M_0 = I", np.linalg.norm(m[0] - np.eye(r), 2), 1e-12)
    nm = [float(np.linalg.norm(x, 2)) for x in m[: n + 1]]
    na = [float(np.linalg.norm(x, 2)) for x in a_arr]
    nb = [float(np.linalg.norm(x, 2)) for x in bb]
    worst_res, scale = 0.0, 1.0
    for j in range(n + 1):
        res = j * m[j] - sum(m[i] @ bb[j - i] - a_arr[j - i] @ m[i] for i in range(j + 1))
        worst_res = max(worst_res, float(np.linalg.norm(res, 2)))
        scale = max(scale, sum(nm[i] * (nb[j - i] + na[j - i]) for i in range(j + 1)))
    out.deviation("gauge residual (recomputed)", worst_res / scale, 1e-9)
    out.deviation("gauge residual (reported)", float(report["gauge_residual"]) / scale, 1e-9)

    conv = report["convergence"]
    eps0 = float(conv["eps0"])
    c0 = 2 * int(math.floor(na[0])) + 2
    big_c = max(2.0, 1.000001 * max(na[j] + nb[j] for j in range(1, n + 1)))
    out.require(f"c0 {conv['c0']} != {c0}", int(conv["c0"]) == c0)
    out.deviation("delta_max vs eps0/2C", abs(conv["delta_max"] - eps0 / (2 * big_c)) / (eps0 / (2 * big_c)), 1e-9)
    out.require("decay certificate at eps0/4C", decay_ok(nm, c0, eps0 / (4 * big_c)))
    out.require("reported verdict at the requested delta", bool(conv["all_ok"]) == decay_ok(nm, c0, delta_in))
    return out


# ----------------------------------------------------------------------
# spectral


def jordan_expm(blocks):
    """exp(J) for J = diag of Jordan blocks [(mu, size), ...], closed form."""
    size = sum(d for _, d in blocks)
    out = np.zeros((size, size), dtype=np.complex128)
    start = 0
    for mu, d in blocks:
        for i in range(d):
            for j in range(i, d):
                out[start + i, start + j] = np.exp(mu) / math.factorial(j - i)
        start += d
    return out


def spectral_bound(r, kappa):
    """Accuracy a backward-stable method reaches on S J S^-1: 100 r eps kappa(S)."""
    return 100.0 * r * EPS * kappa


def schur_result(a, t, q):
    """Q T Q* = A with Q unitary and T upper triangular."""
    out = Outcome()
    r = a.shape[0]
    limit = spectral_bound(r, 1.0)
    out.require("T upper triangular", not np.any(np.tril(t, -1)))
    out.deviation("Q T Q* - A", rel(q @ t @ q.conj().T, a), limit)
    out.deviation("Q* Q - I", np.linalg.norm(q.conj().T @ q - np.eye(r), 2), limit)
    return out


def split_result(a, clusters, multiplicities):
    """Cluster multiplicities as constructed; orthonormal invariant bases."""
    out = Outcome()
    got = sorted(m for _, m, _ in clusters)
    out.require(f"cluster multiplicities {got} != {sorted(multiplicities)}", got == sorted(multiplicities))
    limit = spectral_bound(a.shape[0], 1.0)
    scale = np.linalg.norm(a, 2)
    for _, m, basis in clusters:
        out.deviation("cluster basis orthonormal", np.linalg.norm(basis.conj().T @ basis - np.eye(m), 2), limit)
        inv = a @ basis - basis @ (basis.conj().T @ a @ basis)
        out.deviation("cluster basis invariant", np.linalg.norm(inv, 2) / scale, limit)
    return out


def norm_log_result(a, k, bound):
    """expm(2 pi i K) = A, and every eigenvalue of K has real part in [0, 1)."""
    out = Outcome()
    out.deviation("expm(2 pi i K) - A", rel(scipy.linalg.expm(2j * math.pi * k), a), bound)
    re = np.linalg.eigvals(k).real
    out.require("Re spec K in [0, 1)", bool(np.all(re > -SPECTRAL_TOL) and np.all(re < 1.0)))
    return out


def expm_result(e, exact, bound):
    """cluster_expm(A) against the exact S e^J S^-1."""
    out = Outcome()
    out.deviation("cluster_expm vs S e^J S^-1", rel(e, exact), bound)
    return out


# ----------------------------------------------------------------------
# stability


def slope_verdict(column_sums):
    """Closed-form verdict for the flag E_1 < ... < E_r of a triangular bundle.

    `column_sums[i]` is the degree contribution of the i-th basis
    direction; the invariant subspaces are the E_k, whose slopes are
    prefix means.  Returns (degree, verdict).
    """
    total = sum(column_sums)
    mean = Fraction(total, len(column_sums))
    prefixes = [Fraction(sum(column_sums[:k]), k) for k in range(1, len(column_sums))]
    if any(p > mean for p in prefixes):
        return total, "Unstable"
    if any(p == mean for p in prefixes):
        return total, "Semistable"
    return total, "Stable"


def degree_report(report, expected_degree, rank):
    out = Outcome()
    out.require(f"degree {report['degree']} != {expected_degree}", report["degree"] == expected_degree)
    s = Fraction(expected_degree, rank)
    out.require("slope", list(report["slope"]) == [s.numerator, s.denominator])
    return out


def verdict_report(report, expected):
    out = Outcome()
    out.require(f"verdict {report['verdict']} != {expected}", report["verdict"] == expected)
    return out


def projector(basis):
    q, _ = np.linalg.qr(basis)
    return q @ q.conj().T


def subspaces_result(found, complete, flag_bases):
    """The invariant subspaces are exactly the known flag, by projector distance."""
    out = Outcome()
    out.require("enumeration certified complete", complete)
    out.require(f"{len(found)} subspaces, expected {len(flag_bases)}", len(found) == len(flag_bases))
    refs = {b.shape[1]: projector(b) for b in flag_bases}
    for w in found:
        ref = refs.get(w.shape[1])
        if ref is None:
            out.require(f"unexpected subspace of dimension {w.shape[1]}", False)
            continue
        out.deviation(f"subspace dim {w.shape[1]}", np.linalg.norm(projector(w) - ref, 2), 1e-8)
    return out


def algebra_dimension(mats, tol=1e-9):
    """Dimension of the matrix algebra generated by `mats` (span of words)."""
    r = mats[0].shape[0]
    words = [np.eye(r, dtype=np.complex128)]
    dim = 1
    frontier = list(words)
    while frontier:
        new = [w @ g for w in frontier for g in mats]
        stack = np.array([w.reshape(-1) for w in words + new])
        svals = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(svals > tol * svals[0]))
        if rank == dim:
            break
        words, frontier, dim = words + new, new, rank
    return dim


def jordan_count(g, mu, tol=1e-9):
    """Number of Jordan blocks for eigenvalue mu: r - rank(G - mu I)."""
    r = g.shape[0]
    svals = np.linalg.svd(g - mu * np.eye(r), compute_uv=False)
    return int(np.sum(svals <= tol * max(1.0, svals[0])))


def rank3_expected(mats):
    """The decision rank3_decide must reach, from algebra dimension and Jordan counts."""
    if algebra_dimension(mats) == 9:
        return "Realizable", "irreducible"
    counts = []
    mus = []
    for g in mats:
        vals = np.linalg.eigvals(g)
        distinct = []
        for v in vals:
            # a Jordan block of size 3 splits its eigenvalue by ~eps^(1/3)
            if all(abs(v - d) > 1e-4 * max(1.0, abs(d)) for d in distinct):
                distinct.append(v)
        counts.append(sum(jordan_count(g, d) for d in distinct))
        mus.append(normalized_exponent(np.mean(vals)) if len(distinct) == 1 else None)
    if any(c >= 2 for c in counts):
        return "Realizable", "multiple-jordan-blocks"
    total = sum(mus)
    if abs(total.imag) > 1e-6 or abs(total.real - round(total.real)) > 1e-6:
        return "NotRealizable", "nonintegral-exponent-sum"
    return "Undetermined", "splitting-type-needed"


def rank3_report(report, mats):
    out = Outcome()
    verdict, certificate = rank3_expected(mats)
    out.require(f"verdict {report['verdict']} != {verdict}", report["verdict"] == verdict)
    out.require(f"certificate {report['certificate']} != {certificate}", report["certificate"] == certificate)
    return out
