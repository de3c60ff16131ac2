"""Workloads: seeded input generators and closed-loop problems.

Every input is generated here from the seed given on the command line
(numpy's SeedSequence over the seed, the slot and the variant), so no
change to the package or its tests can change a workload.  A workload
is a fixed list of slots (problem shapes); variant v of every slot
forms round v, and the benchmark runs whole rounds, cycling through the
variants.  Each problem has `run`, the timed calls into logconn, and
`check`, which verifies the outputs with :mod:`checks`.
"""

import json
import math
import os

import numpy as np

import checks
from logconn import bundles, cli, eigen

WORKLOADS = ("fuchsian-verify", "local-normal-form", "spectral", "stability")

# Tolerance requested from `verify` (the command's default, stated).
VERIFY_TOL = 1e-8
# Radius requested from `normal-form --delta`: eps0 / 4C at the floor
# C = 2 of the certificate constant.  The check recomputes C.
NORMAL_FORM_DELTA = 0.125
# The defective spectral family is drawn from this fixed seed, so that
# its known failure is the same on every run whatever --seed is.
DEFECTIVE_SEED = 95_04_016

_WORKLOAD_KEYS = {name: i for i, name in enumerate(WORKLOADS)}


# ----------------------------------------------------------------------
# documents, written and read with plain json


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _mat(m):
    return [[_pair(x) for x in row] for row in np.asarray(m)]


def write_doc(path, kind, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "payload": payload, "version": "1"}, fh)


def read_payload(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["payload"]


def _cli(*argv):
    return cli.main([str(a) for a in argv])


# ----------------------------------------------------------------------
# random building blocks


def _cgauss(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)


def _basis(rng, r, spread):
    """Well-conditioned random change of basis I + spread * G / sqrt(r)."""
    return np.eye(r) + spread * _cgauss(rng, r, r) / math.sqrt(r)


def _unitary(rng, r):
    q, rr = np.linalg.qr(_cgauss(rng, r, r))
    return q * (np.diag(rr) / abs(np.diag(rr)))


def _conditioned(rng, r, kappa):
    """Random change of basis with condition number exactly `kappa`."""
    return _unitary(rng, r) @ np.diag(np.geomspace(1.0, kappa, r)) @ _unitary(rng, r)


def _stratified(rng, r):
    """r points of [0, 1), one per cell of width 1/r, away from cell edges, shuffled."""
    return rng.permutation((np.arange(r) + rng.uniform(0.15, 0.85, size=r)) / r)


def _polygon(n):
    return tuple(complex(np.exp(2j * math.pi * k / n)) for k in range(n))


def _min_gap(values):
    v = np.asarray(values)
    return min(abs(v[i] - v[j]) for i in range(len(v)) for j in range(i + 1, len(v)))


def _upper(rng, diag, spread):
    r = len(diag)
    return np.diag(diag) + np.triu(spread * _cgauss(rng, r, r) / math.sqrt(r), 1)


def _closing_product(mats):
    """The matrix that makes the ordered product of `mats` the identity."""
    prod = np.eye(mats[0].shape[0], dtype=np.complex128)
    for g in mats:
        prod = prod @ g
    return np.linalg.inv(prod)


class Problem:
    """One closed-loop problem.  `run` calls logconn; `check` verifies."""

    expected_failure = False

    def run(self):
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError


# ----------------------------------------------------------------------
# fuchsian-verify


def commuting_representation(rng, n, r):
    """G_j = S D_j S^-1 with diagonal D_j and G_1 ... G_n = I."""
    s = _conditioned(rng, r, 3.0)
    diags = [np.exp(2j * math.pi * (_stratified(rng, r) + 0.03j * rng.normal(size=r))) for _ in range(n - 1)]
    diags.append(1.0 / np.prod(diags, axis=0))
    s_inv = np.linalg.inv(s)
    return [s @ np.diag(d) @ s_inv for d in diags]


def generic_residues(rng, n, r, size=0.35):
    """Random residues B_j = X_j - mean(X), so that they sum to zero."""
    xs = [size * _cgauss(rng, r, r) / math.sqrt(r) for _ in range(n)]
    mean = sum(xs) / n
    return [x - mean for x in xs]


class CommutingPipeline(Problem):
    """`synth-commutative` then `verify --target` on commuting monodromy."""

    def __init__(self, workdir, tag, rng, n, r):
        self.label = f"commuting n={n} r={r}"
        self.punctures = _polygon(n)
        self.mats = commuting_representation(rng, n, r)
        self.rep = os.path.join(workdir, f"{tag}-rep.json")
        self.system = os.path.join(workdir, f"{tag}-system.json")
        self.report = os.path.join(workdir, f"{tag}-report.json")
        write_doc(
            self.rep,
            "representation",
            {"basepoint": [0.0, 0.0], "matrices": [_mat(g) for g in self.mats], "punctures": [_pair(a) for a in self.punctures]},
        )

    def run(self):
        synth = _cli("synth-commutative", self.rep, "--tol", VERIFY_TOL, "--out", self.system)
        if synth != 0:
            return synth, None
        return synth, _cli("verify", self.system, "--target", self.rep, "--tol", VERIFY_TOL, "--out", self.report)

    def check(self, result):
        out = checks.Outcome()
        out.require(f"exit codes {result}", result == (0, 0))
        if result != (0, 0):
            return out
        residues = [checks.cmatrix(b) for b in read_payload(self.system)["residues"]]
        out.merge(checks.commuting_synthesis(residues, self.mats, VERIFY_TOL))
        report = read_payload(self.report)
        return out.merge(checks.fuchsian_report(self.punctures, residues, report, VERIFY_TOL, commuting=True))


class GenericVerify(Problem):
    """`verify` on a generic Fuchsian system whose residues sum to zero."""

    def __init__(self, workdir, tag, rng, n, r):
        self.label = f"generic n={n} r={r}"
        self.punctures = _polygon(n)
        self.residues = generic_residues(rng, n, r)
        self.system = os.path.join(workdir, f"{tag}-system.json")
        self.report = os.path.join(workdir, f"{tag}-report.json")
        write_doc(self.system, "fuchsian-system", {"punctures": [_pair(a) for a in self.punctures], "residues": [_mat(b) for b in self.residues]})

    def run(self):
        return _cli("verify", self.system, "--tol", VERIFY_TOL, "--out", self.report)

    def check(self, result):
        out = checks.Outcome()
        out.require(f"exit code {result}", result == 0)
        if result != 0:
            return out
        report = read_payload(self.report)
        return out.merge(checks.fuchsian_report(self.punctures, self.residues, report, VERIFY_TOL, commuting=False))


# ----------------------------------------------------------------------
# local-normal-form


def local_connection(rng, r, order, resonant):
    """Coefficients A_0..A_order of a local connection d + A(z) dz/z.

    The residue is V diag(lambda) V^-1.  Eigenvalue i has weight
    i mod 2 in both kinds of draw, so that resonance is the only
    difference between the paired slots and a slot's cost depends
    little on the seed.  A non-resonant draw gives every eigenvalue its
    own fractional part of -Re lambda, spread over [0, 1) away from
    integers; a resonant draw pairs eigenvalues that differ by exactly
    one.  Imaginary parts are +-0.03; higher coefficients decay as 2^-j.
    """
    imag = 0.03j * rng.choice((-1.0, 1.0), size=r)
    weights = np.arange(r) % 2
    if resonant:
        fracs = np.repeat(_stratified(rng, (r + 1) // 2), 2)[:r]
    else:
        fracs = _stratified(rng, r)
    lam = -(weights + fracs) + imag
    if resonant:
        lam[1::2] = lam[0::2][: r // 2] - 1.0
    v = _basis(rng, r, 0.4)
    a0 = v @ np.diag(lam) @ np.linalg.inv(v)
    tail = [0.5**j * _cgauss(rng, r, r) / math.sqrt(r) for j in range(1, order + 1)]
    return np.array([a0] + tail)


class NormalFormProblem(Problem):
    """`normal-form --delta` on a random local connection."""

    def __init__(self, workdir, tag, rng, r, order, resonant):
        self.label = f"{'resonant' if resonant else 'non-resonant'} r={r} order={order}"
        self.coeffs = local_connection(rng, r, order, resonant)
        self.conn = os.path.join(workdir, f"{tag}-conn.json")
        self.report = os.path.join(workdir, f"{tag}-report.json")
        write_doc(self.conn, "local-connection", {"series": {"coeffs": [_mat(c) for c in self.coeffs], "order": order}})

    def run(self):
        return _cli("normal-form", self.conn, "--delta", NORMAL_FORM_DELTA, "--out", self.report)

    def check(self, result):
        out = checks.Outcome()
        out.require(f"exit code {result}", result == 0)
        if result != 0:
            return out
        return out.merge(checks.normal_form_report(self.coeffs, read_payload(self.report), NORMAL_FORM_DELTA))


# ----------------------------------------------------------------------
# spectral


def spectral_matrix(rng, r, family):
    """A = S J S^-1 with a known Jordan form J.

    generic: distinct eigenvalues of modulus 0.6-1.6 spread in angle;
    clustered: r/2 pairs at relative distance 1e-3, all distinct;
    defective: r/2 Jordan blocks of size two.
    Returns (A, exact exp(A), kappa(S), cluster multiplicities).
    """
    s = _basis(rng, r, 0.5)
    if family == "generic":
        lam = np.exp(2j * math.pi * _stratified(rng, r)) * rng.uniform(0.6, 1.6, size=r)
        blocks = [(mu, 1) for mu in lam]
    else:
        c = r // 2
        centers = np.exp(2j * math.pi * _stratified(rng, c)) * rng.uniform(0.6, 1.6, size=c)
        if family == "clustered":
            partners = centers * (1.0 + 1e-3 * np.exp(2j * math.pi * rng.uniform(size=c)))
            blocks = [(mu, 1) for mu in np.concatenate([centers, partners])]
        else:
            blocks = [(mu, 2) for mu in centers]
    j = np.zeros((r, r), dtype=np.complex128)
    start = 0
    for mu, d in blocks:
        j[start : start + d, start : start + d] = mu * np.eye(d) + np.eye(d, k=1)
        start += d
    s_inv = np.linalg.inv(s)
    return s @ j @ s_inv, s @ checks.jordan_expm(blocks) @ s_inv, float(np.linalg.cond(s)), [d for _, d in blocks]


class SpectralProblem(Problem):
    """schur, spectral_split, norm_log and cluster_expm on one matrix."""

    def __init__(self, rng, r, family):
        self.label = f"{family} r={r}"
        self.expected_failure = family == "defective"
        self.a, self.exact_expm, kappa, self.mults = spectral_matrix(rng, r, family)
        self.bound = checks.spectral_bound(r, kappa)

    def run(self):
        t, q = eigen.schur(self.a)
        split = eigen.spectral_split(self.a)
        k = eigen.norm_log(self.a).k
        return t, q, split.clusters, k, eigen.cluster_expm(self.a)

    def check(self, result):
        t, q, clusters, k, e = result
        out = checks.schur_result(self.a, t, q)
        out.merge(checks.split_result(self.a, clusters, self.mults))
        out.merge(checks.norm_log_result(self.a, k, self.bound))
        return out.merge(checks.expm_result(e, self.exact_expm, self.bound))


# ----------------------------------------------------------------------
# stability


def _exponent_sums(diags):
    """n_i = sum_j mu(d_ji), an integer for each column since prod_j d_ji = 1."""
    return [round(sum(checks.normalized_exponent(d[i]) for d in diags).real) for i in range(len(diags[0]))]


def _column_targets(rng, r, verdict):
    """Degree contributions per direction whose prefix slopes give `verdict`."""
    base = int(rng.integers(-3, 4))
    if verdict == "Semistable":
        k = r // 2
        return [base + 2 * i - (k - 1) for i in range(k)] + [base + 2 * i - (r - k - 1) for i in range(r - k)]
    steps = np.cumsum(rng.integers(1, 3, size=r))
    steps = steps - steps[0]
    return [int(base + x) for x in (steps if verdict == "Stable" else -steps)]


def _eigenvectors_upper(u):
    """Eigenvector v_i of upper-triangular u for u[i, i], with v_i[i] = 1, v_i[k > i] = 0."""
    r = u.shape[0]
    vecs = np.zeros((r, r), dtype=np.complex128)
    for i in range(r):
        v = np.zeros(r, dtype=np.complex128)
        v[i] = 1.0
        for k in range(i - 1, -1, -1):
            v[k] = -(u[k, k + 1 : i + 1] @ v[k + 1 : i + 1]) / (u[k, k] - u[i, i])
        vecs[:, i] = v
    return vecs


def triangular_bundle(rng, n, r, verdict):
    """Weighted bundle over S U_j S^-1 with U_j upper triangular.

    The invariant subspaces are exactly S E_k, k = 1..r-1.  Puncture j
    carries the full flag of U_j-eigenvectors taken in decreasing order
    of the weights w_j(i); the weights are chosen so that the degree
    contribution c_i = sum_j (w_j(i) + mu(d_ji)) of direction i meets a
    target whose prefix slopes give `verdict`.
    """
    while True:
        diags = [np.exp(2j * math.pi * (_stratified(rng, r) + 0.03j * rng.normal(size=r))) for _ in range(n - 1)]
        diags.append(1.0 / np.prod(diags, axis=0))
        if _min_gap(diags[-1]) > 0.05:
            break
    us = [_upper(rng, d, 0.5) for d in diags[:-1]]
    us.append(_closing_product(us))
    s = _basis(rng, r, 0.3)
    s_inv = np.linalg.inv(s)
    mats = [s @ u @ s_inv for u in us]
    sums = _exponent_sums(diags)
    target = _column_targets(rng, r, verdict)
    while True:
        weights = [rng.permutation(r) + int(rng.integers(-r, r)) for _ in range(n - 1)]
        last = [target[i] - sums[i] - sum(int(w[i]) for w in weights) for i in range(r)]
        if len(set(last)) == r:
            weights.append(np.array(last))
            break
    flags = []
    for u, w in zip(us, weights):
        order = np.argsort(-w, kind="stable")
        basis = s @ _eigenvectors_upper(u)[:, order]
        flags.append({"subspaces": [_mat(basis[:, : k + 1]) for k in range(r)], "weights": [int(w[i]) for i in order]})
    return mats, flags, s, target


class BundleProblem(Problem):
    """`degree` and `semistable` on a weighted bundle, plus invariant_subspaces."""

    def __init__(self, workdir, tag, rng, n, r, verdict):
        self.label = f"bundle r={r} {verdict}"
        self.rank = r
        punctures = _polygon(n)
        mats, flags, self.s, target = triangular_bundle(rng, n, r, verdict)
        self.degree, self.verdict = checks.slope_verdict(target)
        self.rep = bundles.Representation(punctures, mats)
        self.bundle = os.path.join(workdir, f"{tag}-bundle.json")
        self.out_degree = os.path.join(workdir, f"{tag}-degree.json")
        self.out_verdict = os.path.join(workdir, f"{tag}-semistable.json")
        rep = {"basepoint": [0.0, 0.0], "matrices": [_mat(g) for g in mats], "punctures": [_pair(a) for a in punctures]}
        write_doc(self.bundle, "weighted-bundle", {"flags": flags, "representation": rep})

    def run(self):
        codes = (
            _cli("degree", self.bundle, "--out", self.out_degree),
            _cli("semistable", self.bundle, "--out", self.out_verdict),
        )
        return codes, bundles.invariant_subspaces(self.rep)

    def check(self, result):
        codes, enum = result
        out = checks.Outcome()
        out.require(f"exit codes {codes}", codes == (0, 0))
        if codes != (0, 0):
            return out
        out.merge(checks.degree_report(read_payload(self.out_degree), self.degree, self.rank))
        out.merge(checks.verdict_report(read_payload(self.out_verdict), self.verdict))
        flag = [self.s[:, :k] for k in range(1, self.rank)]
        return out.merge(checks.subspaces_result(enum.subspaces, enum.complete, flag))


def rank3_representation(rng, family):
    """Three loop matrices with product I: generic, triangular, or single Jordan blocks."""
    if family == "generic":
        mats = [_basis(rng, 3, 0.8) for _ in range(2)]
    elif family == "triangular":
        while True:
            diags = [np.exp(2j * math.pi * _stratified(rng, 3)) for _ in range(2)]
            if _min_gap(1.0 / (diags[0] * diags[1])) > 0.1:
                break
        mats = [_upper(rng, d, 0.8) for d in diags]
    else:
        mats = []
        for _ in range(2):
            n = np.triu(0.5 * _cgauss(rng, 3, 3), 2) + np.diag(np.exp(2j * math.pi * rng.uniform(size=2)), 1)
            mats.append(np.exp(2j * math.pi * rng.uniform()) * (np.eye(3) + n))
    mats.append(_closing_product(mats))
    return mats


class Rank3Problem(Problem):
    """`decide-rank3` on a rank-3 representation."""

    def __init__(self, workdir, tag, rng, family):
        self.label = f"rank3 {family}"
        self.mats = rank3_representation(rng, family)
        self.rep = os.path.join(workdir, f"{tag}-rep.json")
        self.report = os.path.join(workdir, f"{tag}-report.json")
        payload = {"basepoint": [0.0, 0.0], "matrices": [_mat(g) for g in self.mats], "punctures": [_pair(a) for a in _polygon(3)]}
        write_doc(self.rep, "representation", payload)

    def run(self):
        return _cli("decide-rank3", self.rep, "--out", self.report)

    def check(self, result):
        out = checks.Outcome()
        out.require(f"exit code {result}", result == 0)
        if result != 0:
            return out
        return out.merge(checks.rank3_report(read_payload(self.report), self.mats))


# ----------------------------------------------------------------------
# workload assembly


def _slots(name, short):
    """(constructor arguments) per slot; `short` keeps the smallest of each family."""
    if name == "fuchsian-verify":
        slots = [("commuting", 2, 2), ("generic", 2, 3), ("commuting", 3, 4), ("generic", 4, 5), ("generic", 4, 6), ("commuting", 4, 6)]
        return slots[:2] if short else slots
    if name == "local-normal-form":
        slots = [(r, order, res) for r, order in ((2, 10), (5, 20), (8, 30)) for res in (False, True)]
        return slots[:2] if short else slots
    if name == "spectral":
        ranks = (4,) if short else (4, 8, 16)
        return [(family, r) for family in ("generic", "clustered", "defective") for r in ranks]
    if name == "stability":
        slots = [("bundle", r) for r in (4, 4, 6, 8, 10)] + [("rank3", f) for f in ("generic", "triangular", "jordan")]
        return [slots[0]] + slots[5:] if short else slots
    raise ValueError(f"unknown workload {name!r}")


VARIANTS = {"fuchsian-verify": 4, "local-normal-form": 4, "spectral": 8, "stability": 4}
_VERDICTS = ("Stable", "Semistable", "Unstable")


def _problem(name, workdir, seed, slot_index, slot, variant):
    key = _WORKLOAD_KEYS[name]
    rng = np.random.default_rng([seed, key, slot_index, variant])
    tag = f"s{slot_index}v{variant}"
    if name == "fuchsian-verify":
        kind, n, r = slot
        cls = CommutingPipeline if kind == "commuting" else GenericVerify
        return cls(workdir, tag, rng, n, r)
    if name == "local-normal-form":
        r, order, resonant = slot
        return NormalFormProblem(workdir, tag, rng, r, order, resonant)
    if name == "spectral":
        family, r = slot
        if family == "defective":
            rng = np.random.default_rng([DEFECTIVE_SEED, slot_index, variant])
        return SpectralProblem(rng, r, family)
    kind, arg = slot
    if kind == "bundle":
        verdict = _VERDICTS[(slot_index + variant) % len(_VERDICTS)]
        return BundleProblem(workdir, tag, rng, 3, arg, verdict)
    return Rank3Problem(workdir, tag, rng, arg)


def build(name, seed, workdir, short=False):
    """Generate and write every input; returns the rounds (lists of problems)."""
    os.makedirs(workdir, exist_ok=True)
    slots = _slots(name, short)
    variants = 1 if short else VARIANTS[name]
    return [[_problem(name, workdir, seed, i, slot, v) for i, slot in enumerate(slots)] for v in range(variants)]
