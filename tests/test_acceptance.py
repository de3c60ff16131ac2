"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Tolerances are pinned here and nowhere else.

Criterion 9 contains a sub-check that is mathematically unattainable:
see test_criterion_09_notrealizable_witness for the analysis.  It is
implemented as stated and left to fail honestly.
"""

import numpy as np
import pytest
import scipy.linalg

from logconn import (
    MatrixSeries,
    Rank3Verdict,
    Representation,
    SplittingType,
    WeightedFlag,
    WeightedFlatBundle,
    bq_frame,
    commutative_fuchsian,
    convergence_diagnostic,
    degree,
    double_rank_embedding,
    fundamental_check,
    gauge_residual,
    integrate_fuchsian,
    invariant_subspaces,
    jordan_block_count,
    local_extension,
    norm_log,
    normal_form,
    rank3_decide,
    relation_order,
    shift_weights,
    solve_weights_parabolic,
    splitting_bound_check,
    standard_loops,
    validate_weight_family,
    monodromy_report,
)
from logconn.synth import FuchsianSystem, _module_rank

from conftest import (
    random_commuting_representation,
    random_connection,
    random_invertible,
    random_representation,
    scaled_residues,
    sorted_punctures,
    upper_triangular_representation,
)

TWO_PI_I = 2j * np.pi


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_01_norm_log_round_trip():
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    while count < 200:
        r = int(rng.integers(1, 7))
        g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        if np.linalg.cond(g) > 1e6:
            continue
        count += 1
        k = norm_log(g).k
        err = np.linalg.norm(scipy.linalg.expm(TWO_PI_I * k) - g, 2) / np.linalg.norm(g, 2)
        worst = max(worst, err)
        ev = np.linalg.eigvals(k)
        assert np.all(ev.real >= 0.0 - 1e-12) and np.all(ev.real < 1.0)
    _report(1, "normalized-log round trip over 200 matrices", worst <= 1e-9, f"worst {worst:.2e}")


def _direct_b(nf, z):
    phi = nf.phi.matrix()
    zp = scipy.linalg.expm(phi * np.log(z))
    zm = scipy.linalg.expm(-phi * np.log(z))
    return zp @ (-nf.k - phi) @ zm


def test_criterion_02_gauge_fixing():
    rng = np.random.default_rng(102)
    worst_res = 0.0
    worst_b = 0.0
    fc_all = True
    for trial in range(100):
        r = int(rng.integers(1, 6))
        order = int(rng.integers(0, 21))
        conn = random_connection(rng, r, order, resonant=(trial % 2 == 0))
        nf = normal_form(conn)
        scale = max(np.linalg.norm(c, 2) for c in conn.a.coeffs)
        worst_res = max(worst_res, gauge_residual(conn, nf) / scale)
        for z in (0.37 * np.exp(0.9j), 0.51 * np.exp(-2.2j)):
            dev = np.linalg.norm(nf.b.eval(z) - _direct_b(nf, z), 2)
            worst_b = max(worst_b, dev / max(1.0, np.linalg.norm(nf.k, 2)))
        fc_all = fc_all and fundamental_check(nf, 1e-7)
    _report(
        2,
        "gauge relation, exact B, and loop monodromy over 100 connections",
        worst_res <= 1e-9 and worst_b <= 1e-12 and fc_all,
        f"residual {worst_res:.2e}, B dev {worst_b:.2e}",
    )


def test_criterion_03_convergence_bound():
    rng = np.random.default_rng(103)
    all_ok = True
    checked = 0
    for trial in range(100):
        r = int(rng.integers(1, 6))
        conn = random_connection(rng, r, 30, resonant=(trial % 2 == 0))
        nf = normal_form(conn)
        probe = convergence_diagnostic(conn, nf, 0.0)
        delta = probe.eps0 / (4.0 * probe.big_c)
        rep = convergence_diagnostic(conn, nf, delta)
        all_ok = all_ok and rep.in_range and rep.all_ok
        checked += len(rep.checks)
    _report(3, "geometric decay bound at delta = eps0/4C", all_ok and checked > 0, f"{checked} checks")


def _random_flag(rng, g):
    """Random invariant flag from Schur vectors of g with random weights."""
    from logconn.eigen import schur

    r = g.shape[0]
    _, q = schur(g)
    cuts = sorted(set(rng.choice(range(1, r), size=rng.integers(0, r), replace=False))) if r > 1 else []
    dims = cuts + [r]
    weights = []
    w = int(rng.integers(-2, 5))
    for _ in dims:
        weights.append(w)
        w -= int(rng.integers(1, 4))
    subs = tuple(q[:, :d] for d in dims)
    return WeightedFlag(subs, tuple(weights))


def test_criterion_04_degree_preservation():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 5))
        g = random_invertible(rng, r)
        flag = _random_flag(rng, g)
        conn = local_extension(g, flag)
        k = norm_log(g).k
        lhs = -np.trace(conn.residue)
        rhs = np.trace(k) + flag.weight_diagonal().trace()
        worst = max(worst, abs(lhs - rhs))
    shifts_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 4))
        rep = random_representation(rng, n, r)
        flags = []
        for g in rep.matrices:
            flags.append(_random_flag(rng, g))
        wfb = WeightedFlatBundle(rep, tuple(flags))
        d0 = degree(wfb)  # integrality enforced inside at 1e-6
        lams = [int(x) for x in rng.integers(-3, 4, size=n)]
        d1 = degree(shift_weights(wfb, lams))
        shifts_ok = shifts_ok and (d1 - d0 == r * sum(lams))
    _report(
        4,
        "local extension preserves degree; shifts move it by rank * sum(lambda)",
        worst <= 1e-9 and shifts_ok,
        f"worst trace defect {worst:.2e}",
    )


def test_criterion_05_commutative_synthesis():
    rng = np.random.default_rng(105)
    worst_sum = 0.0
    all_ok = True
    for trial in range(50):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 5))
        rep = random_commuting_representation(rng, n, r)
        system = commutative_fuchsian(rep)
        worst_sum = max(worst_sum, float(np.linalg.norm(sum(system.residues), 2)))
        report = monodromy_report(system, target=rep, tol=1e-8)
        ok = report.conjugacy_ok and all(res < 1e-6 for res in report.per_loop_residuals)
        all_ok = all_ok and ok
    _report(
        5,
        "commuting synthesis: residue sum zero and monodromy matches",
        worst_sum <= 1e-10 and all_ok,
        f"worst residue sum {worst_sum:.2e}",
    )


def test_criterion_06_bq_frame():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0
    count = 0
    while count < 50:
        r = int(rng.integers(1, 5))
        entries = [0]
        for _ in range(r - 1):
            entries.append(entries[-1] - int(rng.integers(0, 4)))  # gaps <= 3
        c = SplittingType(tuple(entries))
        order = max(c.spread, 1) + int(rng.integers(0, 3))
        q = MatrixSeries(rng.normal(size=(order + 1, r, r)) + 1j * rng.normal(size=(order + 1, r, r)))
        if np.linalg.cond(q.coeffs[0]) > 1e6:
            continue
        count += 1
        frame = bq_frame(c, q)
        b = frame.b
        ok = ok and np.allclose(b.coeffs[0].diagonal(), 1.0)
        ok = ok and (np.max(np.abs(np.tril(b.coeffs[0], -1))) == 0.0)
        for t in range(1, b.order + 1):
            ok = ok and (np.max(np.abs(np.tril(b.coeffs[t], 0))) == 0.0)
        for i in range(r):
            for j in range(i + 1, r):
                deg = c.entries[i] - c.entries[j] - 1
                for t in range(max(deg + 1, 0), b.order + 1):
                    ok = ok and b.coeffs[t][i, j] == 0.0
        worst = max(worst, frame.residual)
    _report(6, "frame solver structure and divisibility over 50 instances", ok and worst <= 1e-9, f"worst residual {worst:.2e}")


def _partitions(elements):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_criterion_07_parabolic_weights():
    rng = np.random.default_rng(107)
    total = 0
    for r in (1, 2, 3, 4):
        pats = list(_partitions(list(range(r))))
        for p1 in pats:
            for p2 in pats:
                values = {}
                cols = []
                for pat in (p1, p2):
                    col = [0.0] * r
                    for block in pat:
                        z = complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
                        for i in block:
                            col[i] = z
                    cols.append(col)
                rep = upper_triangular_representation(rng, cols, couple=0.2)
                fam = solve_weights_parabolic(rep, mode="strict-a")
                rho = [[g[i, i] for i in range(r)] for g in rep.matrices]
                lam = [sum(row[i] for row in fam.phi) for i in range(r)]
                assert validate_weight_family(rho, lam, [list(x) for x in fam.phi], mode="strict-a")
                if fam.satisfies_equalities:
                    assert validate_weight_family(rho, lam, [list(x) for x in fam.phi], mode="relaxed-a'")
                total += 1
    # the n = 2 boundary of the splitting bound forces constant types
    forces = splitting_bound_check(SplittingType((1, 0)), 2, 2)
    constant_ok = splitting_bound_check(SplittingType((3, 3, 3)), 2, 3)
    boundary = (not forces.gaps_ok) and forces.forces_constant and constant_ok.all_ok
    _report(7, "parabolic weight solver over exhaustive patterns", total > 0 and boundary, f"{total} instances")


def test_criterion_08_double_rank_embedding():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(20):
        n = int(rng.integers(3, 6))
        r = int(rng.integers(2, 5))
        rep = random_representation(rng, n, r)
        doubled = double_rank_embedding(rep)
        two_r = 2 * r
        prod = np.eye(two_r, dtype=complex)
        for g in doubled.matrices:
            prod = prod @ g
        ok = ok and np.linalg.norm(prod - np.eye(two_r), 2) <= 1e-10
        e_last = np.zeros(two_r)
        e_last[-1] = 1.0
        ok = ok and np.linalg.norm(doubled.matrices[0] @ e_last - e_last) <= 1e-9
        ok = ok and _module_rank(doubled.matrices, e_last) == two_r
    _report(8, "double-rank embedding: product, eigenvector, cyclicity", ok)


def test_criterion_09_rank3_decisions():
    rng = np.random.default_rng(109)
    # definite positives
    for _ in range(10):
        rep = random_representation(rng, int(rng.integers(2, 5)), 3)
        decision = rank3_decide(rep)
        assert decision.verdict is Rank3Verdict.REALIZABLE
        assert decision.certificate == "irreducible"
    for _ in range(5):
        s = random_invertible(rng, 3)
        g = s @ np.diag([1.0, 1.0, rng.uniform(1.5, 3.0)]) @ np.linalg.inv(s)
        rep = Representation([0.0, 1.0], [g, np.linalg.inv(g)])
        decision = rank3_decide(rep)
        assert decision.verdict is Rank3Verdict.REALIZABLE
    # randomized corpus: definite verdicts must be certified
    false_definites = 0
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            rep = random_representation(rng, 3, 3)
        elif kind == 1:
            u = np.triu(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), 1)
            mats = [np.eye(3) + u]
            mats.append(np.eye(3) + np.triu(rng.normal(size=(3, 3)), 1))
            prod = mats[0] @ mats[1]
            mats.append(np.linalg.inv(prod))
            rep = Representation([0.0, 1.0, 2.0], mats, tol=1e-6)
        else:
            s = random_invertible(rng, 3)
            d = np.diag(np.exp(1j * rng.uniform(-3, 3, size=3)))
            g = s @ d @ np.linalg.inv(s)
            rep = Representation([0.0, 1.0], [g, np.linalg.inv(g)])
        decision = rank3_decide(rep)
        if decision.verdict is Rank3Verdict.REALIZABLE:
            if decision.certificate == "irreducible":
                enum = invariant_subspaces(rep, seed=7)
                if not (enum.complete and not enum.subspaces):
                    false_definites += 1
            else:
                if not any(jordan_block_count(g) >= 2 for g in rep.matrices):
                    false_definites += 1
        elif decision.verdict is Rank3Verdict.NOT_REALIZABLE:
            # would need an independent witness; none can exist at rank 3
            false_definites += 1
    _report(9, "rank-3 decisions carry valid certificates (100-sample corpus)", false_definites == 0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable sub-criterion: the prescribed witness cannot exist at "
        "rank 3. A reducible representation whose loop matrices are single "
        "Jordan blocks restricts to an invariant line (or to the line "
        "quotient of an invariant plane), where the unique eigenvalues must "
        "multiply to 1, forcing an integer exponent sum. The cube-root "
        "construction below therefore comes out irreducible (scalar product "
        "omega != 1 on any would-be invariant line) and is correctly decided "
        "Realizable(irreducible). The analogous obstruction is genuine at "
        "rank 4: see test_bt_obstruction_rank4."
    ),
)
def test_criterion_09_notrealizable_witness():
    # prescribed witness recipe: n = 3 unipotent-times-scalar matrices with
    # cube-root-of-unity scalars and sum(mu) = 1/3
    w = np.exp(2j * np.pi / 3)
    j3 = np.eye(3) + np.diag([1.0, 1.0], 1)
    # lower unipotent single-block chosen so J U2 has triple eigenvalue w^2
    f = 1.0
    d = 3 * w ** 2 - 3 - f
    e = (1 + d) * (1 + f) + 2 - 3 * w
    u2 = np.array([[1.0, 0, 0], [d, 1.0, 0], [e, f, 1.0]], dtype=complex)
    m = j3 @ u2
    assert np.max(np.abs(np.linalg.eigvals(m) - w ** 2)) < 1e-8
    u3 = w ** 2 * np.linalg.inv(m)
    assert np.max(np.abs(np.linalg.eigvals(u3) - 1.0)) < 1e-8  # unipotent
    g1, g2, g3 = w * j3, u2, u3
    rep = Representation([0.0, 1.0, 2.0], [g1, g2, g3])
    assert all(jordan_block_count(g) == 1 for g in rep.matrices)
    mus = sum(
        np.angle(np.linalg.eigvals(g)[0]) / (2 * np.pi) % 1.0 for g in rep.matrices
    )
    assert abs(mus - 1.0 / 3.0) < 1e-8  # sum of exponents is 1/3 as sketched
    decision = rank3_decide(rep)
    print("[acceptance 09b] FAIL NotRealizable witness (unattainable at rank 3, "
          f"see the xfail reason): decision was {decision.verdict.value}({decision.certificate})")
    assert decision.verdict is Rank3Verdict.NOT_REALIZABLE  # unattainable


def test_criterion_10_verifier_self_consistency():
    rng = np.random.default_rng(110)
    tol = 1e-9
    ok = True
    systems = []
    for _ in range(6):
        rep = random_commuting_representation(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        systems.append(commutative_fuchsian(rep))
    for _ in range(6):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 4))
        systems.append(FuchsianSystem(sorted_punctures(rng, n), scaled_residues(rng, n, r)))
    worst = 0.0
    for system in systems:
        loops, s = standard_loops(system.punctures)
        mats = [integrate_fuchsian(system, lp) for lp in loops]
        order = relation_order(system.punctures, s)
        prod = np.eye(system.rank, dtype=complex)
        for j in order:
            prod = prod @ mats[j]
        defect = float(np.linalg.norm(prod - np.eye(system.rank), 2))
        rev = integrate_fuchsian(system, loops[0].reversed())
        rev_defect = float(np.linalg.norm(mats[0] @ rev - np.eye(system.rank), 2))
        worst = max(worst, defect, rev_defect)
        ok = ok and defect <= 10 * tol and rev_defect <= 10 * tol
    _report(10, "loop products and reversals on 12 systems", ok, f"worst defect {worst:.2e}")
