import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logconn import (
    MatrixSeries,
    Rank3Verdict,
    Representation,
    Semistability,
    SplittingType,
    bq_frame,
    bt_obstruction,
    commutative_fuchsian,
    cyclic_weight_plan,
    double_rank_embedding,
    jordan_block_count,
    monodromy_report,
    rank3_decide,
    shift_weights,
    solve_weights_parabolic,
    splitting_bound_check,
    validate_weight_family,
)
from logconn.bundles import WeightedFlag, WeightedFlatBundle, degree
from logconn.eigen import norm_log, norm_log_scalar, spectral_split
from logconn.synth import (
    BqFrameError,
    InconsistentRepresentationError,
    NonCommutingError,
    NotCyclicError,
    NotEigenvectorError,
    SolverIncompleteError,
    _column_classes,
    _module_rank,
    _integer_solve,
    _solve_cases,
)
from conftest import (
    conditioned,
    random_commuting_representation,
    random_invertible,
    random_representation,
    reference_orthonormalize,
    upper_triangular_representation,
)


# ----------------------------------------------------------------------
# commutative synthesis


def test_commutative_identity():
    rep = Representation([0.0, 1.0, 2.0], [np.eye(2)] * 3)
    system = commutative_fuchsian(rep)
    assert all(np.max(np.abs(b)) < 1e-12 for b in system.residues)


def test_commutative_diagonal_pair():
    rep = Representation([0.0, 1.0], [np.diag([2.0, 1.0]), np.diag([0.5, 1.0])])
    system = commutative_fuchsian(rep)
    # B_j = -K_j blockwise with K_1 = diag(-i ln2/2pi, 0)
    expect = 1j * np.log(2.0) / (2 * np.pi)
    assert np.allclose(system.residues[0], np.diag([expect, 0.0]))
    assert np.allclose(system.residues[1], np.diag([-expect, 0.0]))
    report = monodromy_report(system, target=rep, tol=1e-10)
    assert report.conjugacy_ok


def test_commutative_unipotent_pair():
    u = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = Representation([0.5j, 1.0], [u, np.linalg.inv(u)])
    system = commutative_fuchsian(rep)
    # residues are -log(u)/2 pi i up to sign
    expect = -np.array([[0.0, 1.0], [0.0, 0.0]]) / (2j * np.pi)
    assert np.allclose(system.residues[0], expect, atol=1e-10)
    report = monodromy_report(system, target=rep, tol=1e-10)
    assert report.conjugacy_ok


def test_commutative_rejects_noncommuting(rng):
    g1 = random_invertible(rng, 2)
    g2 = random_invertible(rng, 2)
    if np.linalg.norm(g1 @ g2 - g2 @ g1) < 1e-6:
        pytest.skip("random pair accidentally commutes")
    rep = Representation([0.0, 1.0, 2.0], [g1, g2, np.linalg.inv(g1 @ g2)])
    # the message names the first pair and the defect that decided it
    a, b = rep.matrices[:2]
    defect = np.linalg.norm(a @ b - b @ a, 2)
    with pytest.raises(NonCommutingError, match=re.escape(f"matrices 0 and 1 do not commute (defect {defect:.3e})")):
        commutative_fuchsian(rep)


def test_commutative_random_verified(rng):
    for _ in range(4):
        rep = random_commuting_representation(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        system = commutative_fuchsian(rep)
        assert np.max(np.abs(sum(system.residues))) < 1e-10
        report = monodromy_report(system, target=rep, tol=1e-9)
        assert report.conjugacy_ok
        assert report.product_defect < 1e-7


def _blockwise_residues(rep):
    """Residues by the joint generalized eigenspace decomposition (the reference).

    Splits the commuting G_j into joint single-eigenvalue blocks with
    orthonormal bases, takes xi I - K_1 and -K_j on each block, xi the
    integer exponent sum, and maps back through the inverted joint basis.
    """
    mats = list(rep.matrices)
    r = rep.rank
    blocks = [np.eye(r, dtype=complex)]
    for g in mats:
        blocks = [basis @ sub for basis in blocks for _, _, sub in spectral_split(basis.conj().T @ g @ basis).clusters]
    s = np.hstack(blocks)
    residues = [np.zeros((r, r), dtype=complex) for _ in mats]
    start = 0
    for basis in blocks:
        d = basis.shape[1]
        restricted = [basis.conj().T @ g @ basis for g in mats]
        ks = [norm_log(gb).k for gb in restricted]
        xi = round(sum(norm_log_scalar(spectral_split(gb).clusters[0][0]) for gb in restricted).real)
        for j, b in enumerate([xi * np.eye(d) - ks[0]] + [-k for k in ks[1:]]):
            residues[j][start : start + d, start : start + d] = b
        start += d
    residues = [s @ b @ np.linalg.inv(s) for b in residues]
    drift = sum(residues) / len(residues)
    return [b - drift for b in residues]


def _cgauss(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)


def _closed(mats):
    """Append the matrix closing the loop product of `mats`."""
    prod = np.eye(mats[0].shape[0], dtype=complex)
    for g in mats:
        prod = prod @ g
    return Representation(list(range(len(mats) + 1)), mats + [np.linalg.inv(prod)])


def _defective_commuting(rng, n, r):
    """G_1 = A = S J S^-1 and polynomials e^{i theta} (1 + c_1 A + c_2 A^2) in it.

    J has Jordan blocks of random sizes at unit-modulus eigenvalues kept
    apart on the circle, so the joint blocks are well separated in G_1.
    """
    sizes = []
    while sum(sizes) < r:
        sizes.append(int(rng.integers(1, r - sum(sizes) + 1)))
    angles = (np.arange(len(sizes)) + 0.5 * rng.uniform(size=len(sizes))) / len(sizes)
    j = scipy.linalg.block_diag(*[np.exp(2j * np.pi * t) * np.eye(m) + np.eye(m, k=1) for t, m in zip(angles, sizes)])
    s = np.eye(r) + 0.5 * _cgauss(rng, r, r) / np.sqrt(r)
    a = s @ j @ np.linalg.inv(s)
    mats = [a]
    for _ in range(n - 2):
        c1, c2 = 0.3 * rng.uniform(size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
        mats.append(np.exp(2j * np.pi * rng.uniform()) * (np.eye(r) + c1 * a + c2 * a @ a))
    return _closed(mats)


def _branch_cut_commuting(rng, delta, n=3):
    """G_1 with eigenvalues e^{2 pi i (1 - delta)} and e^{2 pi i delta}, all G_j diagonal in one basis."""
    s = np.eye(2) + _cgauss(rng, 2, 2) / np.sqrt(2)
    s_inv = np.linalg.inv(s)
    diags = [np.exp(2j * np.pi * np.array([1 - delta, delta]))]
    diags += [np.exp(2j * np.pi * rng.uniform(size=2)) for _ in range(n - 2)]
    return _closed([s @ np.diag(d) @ s_inv for d in diags])


def _expm_error(system, rep):
    """max_j ||expm(-2 pi i B_j) - G_j|| / ||G_j||."""
    return max(
        np.linalg.norm(scipy.linalg.expm(-2j * np.pi * b) - g, 2) / np.linalg.norm(g, 2)
        for b, g in zip(system.residues, rep.matrices)
    )


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    st.sampled_from(["diagonalizable", "defective", "branch-cut"]),
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(1, 6),
)
@example("defective", 1200, 5, 6)
def test_commutative_residues_match_the_blockwise_construction(kind, seed, n, r):
    # the branch-cut draws keep delta >= 1e-2: the reference's eigenvector
    # basis of G_1 loses about eps / delta, which the regression below covers.
    # In the example G_5 has a 5-fold eigenvalue whose rounded copies
    # straddle the cut; branches taken per copy made the exponent sum
    # -746+1488i there.
    rng = np.random.default_rng(seed)
    if kind == "diagonalizable":
        rep = random_commuting_representation(rng, n, r)
    elif kind == "defective":
        rep = _defective_commuting(rng, n, r)
    else:
        rep = _branch_cut_commuting(rng, 10.0 ** rng.uniform(-2, -1), n=n)
    system = commutative_fuchsian(rep)
    residues = system.residues
    norms = [np.linalg.norm(b, 2) for b in residues]
    scale = max(1.0, max(norms))
    assert max(np.linalg.norm(b - c, 2) for b, c in zip(residues, _blockwise_residues(rep))) <= 1e-12 * scale
    assert np.linalg.norm(sum(residues), 2) <= n * np.finfo(float).eps * sum(norms)
    for a in range(n):
        for b in range(a):
            assert np.linalg.norm(residues[a] @ residues[b] - residues[b] @ residues[a], 2) <= 1e-12 * scale**2
    # random_commuting_representation conjugates by bases of condition up to 1e4
    assert _expm_error(system, rep) <= 1e-9


def test_commutative_branch_cut_accuracy():
    # eigenvalues e^{+-2 pi i 1e-6} are 1.3e-5 apart: an eigenvector basis of
    # G_1 carries errors of eps / 1.3e-5, which the normalized logs never form
    reps = [_branch_cut_commuting(np.random.default_rng(seed), 1e-6) for seed in range(10)]
    assert max(_expm_error(commutative_fuchsian(rep), rep) for rep in reps) <= 1e-12


def test_commutative_makes_one_norm_log_call_per_puncture_and_no_clustered_schur(monkeypatch):
    import logconn.synth as synth

    calls = {"clustered_schur": [], "norm_log": []}
    for name, record in calls.items():
        monkeypatch.setattr(synth, name, lambda g, f=getattr(synth, name), rec=record: rec.append(g) or f(g))
    commutative_fuchsian(_defective_commuting(np.random.default_rng(1), 4, 6))
    assert (len(calls["clustered_schur"]), len(calls["norm_log"])) == (0, 4)


def _inconsistent_commuting():
    """Commuting diagonal matrices whose loop product is off by about 6e-4."""
    d1 = np.exp(2j * np.pi * np.array([0.2, 0.7]))
    d2 = np.exp(2j * np.pi * np.array([0.5, 0.1]))
    d3 = np.exp(-2j * np.pi * 1e-4) / (d1 * d2)
    mats = [np.diag(d) for d in (d1, d2, d3)]
    return Representation([0.0, 1.0, 2.0], mats, tol=1e-3)


def test_commutative_rejects_a_nonintegral_exponent_sum():
    rep = _inconsistent_commuting()
    defect = np.linalg.norm(rep.matrices[0] @ rep.matrices[1] @ rep.matrices[2] - np.eye(2), 2)
    assert 5e-4 < defect < 7e-4
    with pytest.raises(InconsistentRepresentationError):
        commutative_fuchsian(rep)


def test_synth_commutative_cli_rejects_a_broken_loop_product(tmp_path, capsys):
    from logconn import documents as doc
    from logconn.cli import main

    path = tmp_path / "rep.json"
    path.write_text(doc.canonical_dumps(doc.wrap("representation", doc.encode_representation(_inconsistent_commuting()))))
    assert main(["synth-commutative", str(path)]) == 2
    # the CLI reads representations at the default tolerance, so the loop
    # product check refuses the input before the synthesis runs
    assert json.loads(capsys.readouterr().err)["reason"] == "InvalidRepresentationError"


def test_synth_commutative_cli_reads_the_representation_at_tol(tmp_path, capsys):
    from logconn import documents as doc
    from logconn.cli import main

    path = tmp_path / "rep.json"
    path.write_text(doc.canonical_dumps(doc.wrap("representation", doc.encode_representation(_inconsistent_commuting()))))
    # at --tol 1e-3 the loop product check accepts the input, and the
    # synthesis's exponent-sum check refuses it
    assert main(["synth-commutative", str(path), "--tol", "1e-3"]) == 2
    assert json.loads(capsys.readouterr().err)["reason"] == "InconsistentRepresentationError"


# ----------------------------------------------------------------------
# frame solver


def test_bq_frame_constant_type(rng):
    q = MatrixSeries.constant(random_invertible(rng, 3), 2)
    frame = bq_frame(SplittingType((2, 2, 2)), q)
    assert frame.perm == (0, 1, 2)
    assert np.allclose(frame.b.coeffs[0], np.eye(3))
    assert frame.residual == 0.0


def test_bq_frame_swap_example():
    q = MatrixSeries.constant(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    frame = bq_frame(SplittingType((1, 0)), q)
    assert frame.perm == (1, 0)
    assert np.allclose(frame.b.coeffs[0], np.eye(2))
    if frame.b.order > 0:
        assert np.max(np.abs(frame.b.coeffs[1:])) == 0.0
    assert frame.residual < 1e-12


def _divisibility_oracle(frame, c, q):
    """Independent coefficient check via per-entry convolution."""
    perm = list(frame.perm)
    qp = q.coeffs[:, :, perm]
    r = q.dim_out
    worst = 0.0
    for i in range(r):
        for m in range(i + 1, r):
            need = c.entries[i] - c.entries[m]
            for p in range(min(need, q.order + 1)):
                acc = 0.0 + 0.0j
                for t in range(0, p + 1):
                    if t <= frame.b.order:
                        acc += np.dot(frame.b.coeffs[t][i, :], qp[p - t][:, m])
                worst = max(worst, abs(acc))
    return worst


def test_bq_frame_structure_and_divisibility(rng):
    c = SplittingType((2, 1, 0))
    for _ in range(10):
        q = MatrixSeries(rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3)))
        frame = bq_frame(c, q)
        b = frame.b
        assert np.allclose(b.coeffs[0].diagonal(), 1.0)
        assert np.max(np.abs(np.tril(b.coeffs[0], -1))) == 0.0
        for t in range(1, b.order + 1):
            assert np.max(np.abs(np.tril(b.coeffs[t], 0))) == 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                deg = c.entries[i] - c.entries[j] - 1
                for t in range(max(deg + 1, 0), b.order + 1):
                    assert abs(b.coeffs[t][i, j]) == 0.0
        assert _divisibility_oracle(frame, c, q) < 1e-9


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    r=st.integers(1, 8),
    gaps=st.lists(st.integers(0, 3), min_size=7, max_size=7),
    kind=st.sampled_from(["dense", "sparse", "near-permutation"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bq_frame_gauge_is_triangular_divides_and_solves_conditioned_minors(r, gaps, kind, seed):
    rng = np.random.default_rng(seed)
    c = SplittingType(tuple(-int(x) for x in np.cumsum([0, *gaps[: r - 1]])))
    coeffs = rng.normal(size=(c.spread + 2, r, r)) + 1j * rng.normal(size=(c.spread + 2, r, r))
    perm = np.eye(r)[rng.permutation(r)]
    if kind == "sparse":
        # about 35% nonzero, keeping a permutation's entries so Q(0) is structurally nonsingular
        coeffs[0] *= (rng.uniform(size=(r, r)) < 0.35) | (perm > 0)
    elif kind == "near-permutation":
        coeffs[0] = perm + 1e-3 * coeffs[0]
    q0 = coeffs[0]
    assume(np.linalg.cond(q0) <= 1e6)
    q = MatrixSeries(coeffs)
    tol = 1e-9
    frame = bq_frame(c, q, tol=tol)
    # unit upper triangular with deg b_ij <= c_i - c_j - 1: b - I vanishes at every degree t >= c_i - c_j
    b = frame.b.coeffs.copy()
    b[0] -= np.eye(r)
    assert not np.any(np.where(np.arange(len(b))[:, None, None] >= np.subtract.outer(c.entries, c.entries), b, 0))
    bound = max(10 * tol, 1e-9) * max(1.0, q.max_coeff_norm())
    assert frame.residual <= bound
    assert _divisibility_oracle(frame, c, q) <= bound
    # a constant type solves no minor and keeps the identity order
    floor = tol * np.linalg.norm(q0, 2)
    for pos in range(r if c.spread else 0):
        assert np.linalg.svd(q0[np.ix_(range(pos, r), frame.perm[pos:])], compute_uv=False)[-1] > floor


@pytest.mark.xfail(strict=True, raises=BqFrameError, reason="the residual bound ignores the growth of b")
def test_bq_frame_accepts_a_well_conditioned_frame_of_large_spread():
    # cond(Q(0)) = 44, but b reaches 7e8 over the 18 degrees of c, so the
    # residual's rounding, about u max|b| max|Q_k| = 1e-7, exceeds the bound
    # 1e-8 max(1, max_k |Q_k|), which does not scale with b
    rng = np.random.default_rng(3)
    c = SplittingType((0, 0, -3, -6, -9, -12, -15, -18))
    bq_frame(c, MatrixSeries(rng.normal(size=(20, 8, 8)) + 1j * rng.normal(size=(20, 8, 8))))


def test_bq_frame_order_precondition():
    q = MatrixSeries.constant(np.eye(2), 0)
    with pytest.raises(ValueError):
        bq_frame(SplittingType((3, 0)), q)


# ----------------------------------------------------------------------
# weight shifts and bounds


def _trivial_bundle(rep, weights):
    return WeightedFlatBundle(
        rep.rep if hasattr(rep, "rep") else rep,
        tuple(WeightedFlag.trivial(rep.rank, w) for w in weights),
    )


def test_shift_weights_examples(rng):
    rep = random_representation(rng, 3, 2)
    wfb = _trivial_bundle(rep, [0, 0, 0])
    before = degree(wfb)
    same = shift_weights(wfb, [0, 0, 0])
    assert degree(same) == before
    balanced = shift_weights(wfb, [1, -1, 0])
    assert degree(balanced) == before
    up = shift_weights(wfb, [1, 0, 0])
    assert degree(up) == before + 2


def test_splitting_bound_check():
    rep = splitting_bound_check(SplittingType((1, 0)), 2, 2)
    assert not rep.gaps_ok
    assert rep.forces_constant
    rep = splitting_bound_check(SplittingType((2, 0, -2)), 4, 3)
    assert rep.all_ok
    assert rep.sum_value == 6 == rep.sum_bound
    rep = splitting_bound_check(SplittingType((5, 5, 5)), 2, 3)
    assert rep.all_ok


# ----------------------------------------------------------------------
# parabolic weight solver


def test_weights_rank1(rng):
    rep = Representation([0.0, 1.0], [np.array([[2.0]]), np.array([[0.5]])])
    fam = solve_weights_parabolic(rep)
    assert sum(row[0] for row in fam.phi) == 0


def test_weights_equal_diagonals(rng):
    w = np.exp(2j * np.pi / 3)
    rep = upper_triangular_representation(rng, [[w] * 3, [1j] * 3])
    fam = solve_weights_parabolic(rep)
    rows = fam.phi
    for row in rows:
        assert row[0] == row[1] == row[2]
    assert fam.satisfies_equalities


def test_weights_rank4_pairing(rng):
    a, b = np.exp(0.31j), np.exp(1.7j)
    c, d = np.exp(0.9j), np.exp(2.4j)
    rep = upper_triangular_representation(rng, [[a, b, a, b], [c, d, c, d]])
    fam = solve_weights_parabolic(rep)
    for row in fam.phi:
        assert row[3] == row[0] + row[1] - row[2]


def test_weights_rank4_two_blocks(rng):
    a, b, c = np.exp(0.31j), np.exp(1.7j), np.exp(0.9j)
    rep = upper_triangular_representation(rng, [[a, a, b, b], [c, c, c, c]])
    fam = solve_weights_parabolic(rep, mode="strict-a")
    rho = [[g[i, i] for i in range(4)] for g in rep.matrices]
    lam = [sum(row[i] for row in fam.phi) for i in range(4)]
    assert validate_weight_family(rho, lam, [list(r) for r in fam.phi], mode="strict-a")


def test_weights_validation_modes(rng):
    a, b = np.exp(0.31j), np.exp(1.7j)
    rep = upper_triangular_representation(rng, [[a, a, b], [b, a, a]])
    strict = solve_weights_parabolic(rep, mode="strict-a")
    relaxed = solve_weights_parabolic(rep, mode="relaxed-a'")
    rho = [[g[i, i] for i in range(3)] for g in rep.matrices]
    lam = [sum(row[i] for row in strict.phi) for i in range(3)]
    assert validate_weight_family(rho, lam, [list(r) for r in relaxed.phi], mode="relaxed-a'")


def test_weights_exhaustive_patterns(rng):
    # all coincidence patterns of the first column at r = 3 over n = 3
    from itertools import product

    values = [np.exp(0.3j), np.exp(1.1j), np.exp(2.2j)]

    def column(pattern):
        return [values[p] for p in pattern]

    patterns = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 2)]
    for pat1, pat2 in product(patterns, repeat=2):
        rep = upper_triangular_representation(rng, [column(pat1), column(pat2)])
        fam = solve_weights_parabolic(rep, mode="strict-a")
        rho = [[g[i, i] for i in range(3)] for g in rep.matrices]
        lam = [sum(row[i] for row in fam.phi) for i in range(3)]
        assert validate_weight_family(rho, lam, [list(r) for r in fam.phi], mode="strict-a")


def test_weights_fuzz_all_ranks(rng):
    # random coincidence patterns; every strict solution must satisfy the
    # ordering constraints and exact row sums, and every relaxed solution
    # the per-column equalities (Infeasible allowed above rank four)
    from logconn.synth import Infeasible, SolverIncompleteError

    pool = [np.exp(1j * x) for x in (0.31, 1.7, 2.6, -0.8, -2.1)]
    solved = infeasible = incomplete = 0
    for trial in range(120):
        r = int(rng.integers(1, 7))
        cols = []
        for _ in range(2):
            labels = rng.integers(0, min(r, 3), size=r)
            cols.append([pool[l] for l in labels])
        rep = upper_triangular_representation(rng, cols, couple=0.1)
        rho = [[g[i, i] for i in range(r)] for g in rep.matrices]
        for mode in ("strict-a", "relaxed-a'"):
            try:
                fam = solve_weights_parabolic(rep, mode=mode)
            except Infeasible:
                infeasible += 1
                continue
            except SolverIncompleteError:
                assert r > 4, "the case analysis is complete through rank four"
                incomplete += 1
                continue
            solved += 1
            lam = [sum(row[i] for row in fam.phi) for i in range(r)]
            assert validate_weight_family(rho, lam, [list(x) for x in fam.phi], mode="strict-a")
            if mode == "relaxed-a'" or fam.satisfies_equalities:
                assert validate_weight_family(
                    rho, lam, [list(x) for x in fam.phi], mode="relaxed-a'"
                )
    assert solved > 150


def test_strict_weights_above_rank_four_fall_back_to_the_lattice_solve(rng):
    # rows 0, 2, 5 tie at every puncture, and so do rows 1 and 3; row 4 is
    # unique and reduces away, which leaves five coupled rows outside the
    # rank-four case analysis, so strict-a takes the lattice solve
    a, b, c, d, e = (np.exp(1j * x) for x in (0.31, 1.7, 2.6, -0.8, -2.1))
    rep = upper_triangular_representation(rng, [[a, b, a, b, c, a], [d, d, d, d, e, d]], couple=0.1)
    rho = [[g[i, i] for i in range(6)] for g in rep.matrices]
    lam = [-round(sum(norm_log_scalar(row[i]) for row in rho).real) for i in range(6)]
    with pytest.raises(SolverIncompleteError, match="5 coupled rows"):
        _solve_cases(_column_classes(rho), lam, 3, range(6))
    strict = solve_weights_parabolic(rep, mode="strict-a")
    assert [sum(row[i] for row in strict.phi) for i in range(6)] == lam
    for mode in ("strict-a", "relaxed-a'"):
        assert validate_weight_family(rho, lam, [list(x) for x in strict.phi], mode=mode)
    assert strict.satisfies_equalities
    relaxed = solve_weights_parabolic(rep, mode="relaxed-a'")
    assert validate_weight_family(rho, lam, [list(x) for x in relaxed.phi], mode="relaxed-a'")
    assert relaxed.phi == strict.phi  # the fallback is the relaxed solve


def test_validate_weight_family_refuses_an_unknown_mode():
    rho, lam, phi = [[1, 1], [2, 2]], [1, -1], [[1, 0], [0, -1]]
    assert validate_weight_family(rho, lam, phi, mode="strict-a")
    assert not validate_weight_family(rho, lam, phi, mode="relaxed-a'")
    with pytest.raises(ValueError, match="unknown mode 'relaxed'"):
        validate_weight_family(rho, lam, phi, mode="relaxed")


_SMALL_INTS = st.integers(-5, 5)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    a=st.integers(1, 6).flatmap(lambda m: st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(_SMALL_INTS, min_size=n, max_size=n), min_size=m, max_size=m))),
    data=st.data(),
)
def test_integer_solve_finds_a_solution_exactly_when_one_exists(a, data):
    m, n = len(a), len(a[0])
    x = data.draw(st.lists(_SMALL_INTS, min_size=n, max_size=n))
    b = [sum(aij * xj for aij, xj in zip(row, x)) for row in a]
    y = _integer_solve(a, b)
    assert y is not None and all(type(v) is int for v in y)
    assert [sum(aij * yj for aij, yj in zip(row, y)) for row in a] == b
    # 2 a' y = b has no integer solution once some entry of b is odd
    odd = data.draw(st.integers(0, m - 1))
    b[odd] = 2 * b[odd] + 1
    assert _integer_solve([[2 * v for v in row] for row in a], b) is None


def test_integer_solver():
    # 2x + 2y = 3 has no integer solution; = 4 has
    assert _integer_solve([[2, 2]], [3]) is None
    sol = _integer_solve([[2, 2]], [4])
    assert sol is not None and 2 * sol[0] + 2 * sol[1] == 4
    sol = _integer_solve([[1, 1, 0], [0, 1, 1]], [5, -1])
    assert sol is not None
    assert sol[0] + sol[1] == 5 and sol[1] + sol[2] == -1


# ----------------------------------------------------------------------
# cyclic plan, doubling, rank three


def test_cyclic_weight_plan_irreducible(rng):
    rep = random_representation(rng, 3, 3)
    vals, vecs = np.linalg.eig(rep.matrices[0])
    plan = cyclic_weight_plan(rep, 0, vecs[:, 0], [0, 0, 0])
    assert plan.degree == 0
    assert plan.verdict is Semistability.STABLE
    flag = plan.bundle.flags[0]
    gaps = [a - b for a, b in zip(flag.weights, flag.weights[1:])]
    assert all(g >= (rep.rank - 1) * (rep.n - 2) for g in gaps)


def test_cyclic_weight_plan_rejects_bad_vector(rng):
    rep = random_representation(rng, 3, 3)
    with pytest.raises(NotEigenvectorError):
        cyclic_weight_plan(rep, 0, np.array([1.0, 1.0, 1.0]), [0, 0, 0])


def test_cyclic_weight_plan_rejects_noncyclic():
    u1 = np.array([[2.0, 0.0], [0.0, 1.0]])
    u2 = np.array([[0.5, 0.0], [0.0, 1.0]])
    rep = Representation([0.0, 1.0], [u1, u2])
    with pytest.raises(NotCyclicError):
        cyclic_weight_plan(rep, 0, np.array([1.0, 0.0]), [0, 0])


def reference_krylov_span(matrices, v, tol=1e-9):
    """Orthonormal basis of the module the matrices generate from v, one column at a time."""
    basis = frontier = reference_orthonormalize(np.reshape(v, (-1, 1)), tol)
    while frontier.shape[1] and basis.shape[1] < len(v):
        k = basis.shape[1]
        basis = reference_orthonormalize(np.hstack([g @ frontier for g in matrices]), tol, basis)
        frontier = basis[:, k:]
    return basis


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    r=st.integers(2, 7),
    n=st.integers(1, 3),
    inside=st.booleans(),
    spread=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_module_rank_matches_the_columnwise_krylov_span(r, n, inside, spread, seed, data):
    # block upper-triangular generators keep span(e_1..e_k) invariant: a v
    # inside it generates that k-dimensional module, a generic v all of C^r;
    # a frame I + spread G moves the invariant subspace off the axes
    k = data.draw(st.integers(1, r - 1))
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))
    mats[:, k:, :k] = 0.0
    s = np.eye(r) + spread * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))) / np.sqrt(2 * r)
    mats = s @ mats @ np.linalg.inv(s)
    m = k if inside else r
    v = s @ np.concatenate([rng.normal(size=m) + 1j * rng.normal(size=m), np.zeros(r - m)])
    rank = _module_rank(mats, v)
    assert rank == reference_krylov_span(list(mats), v).shape[1]
    assert rank == m


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), log_kappa=st.floats(0.0, 4.0))
@example(seed=18, log_kappa=4.0)  # r = 7, two generators, v in an invariant plane: a spin-up at a fixed residual threshold counted 3
def test_module_rank_in_frames_of_condition_number_up_to_1e4(seed, log_kappa):
    # the family above, moved by a frame of condition number 10^log_kappa
    rng = np.random.default_rng(seed)
    r, n = int(rng.integers(2, 8)), int(rng.integers(1, 4))
    k, inside = int(rng.integers(1, r)), bool(rng.integers(2))
    mats = rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))
    mats[:, k:, :k] = 0.0
    s = conditioned(rng, r, 10.0**log_kappa)
    mats = s @ mats @ np.linalg.inv(s)
    m = k if inside else r
    v = s @ np.concatenate([rng.normal(size=m) + 1j * rng.normal(size=m), np.zeros(r - m)])
    assert _module_rank(mats, v) == m


def test_double_rank_embedding(rng):
    for _ in range(3):
        n = int(rng.integers(3, 6))
        r = int(rng.integers(2, 5))
        rep = random_representation(rng, n, r)
        doubled = double_rank_embedding(rep)
        assert doubled.rank == 2 * r
        prod = np.eye(2 * r, dtype=complex)
        for g in doubled.matrices:
            prod = prod @ g
        assert np.linalg.norm(prod - np.eye(2 * r)) < 1e-9
        e_last = np.zeros(2 * r)
        e_last[-1] = 1.0
        assert np.linalg.norm(doubled.matrices[0] @ e_last - e_last) < 1e-9
        # top-left block is similar to the input representation
        top = doubled.matrices[0][:r, :r]
        assert np.allclose(
            np.sort_complex(np.linalg.eigvals(top)),
            np.sort_complex(np.linalg.eigvals(rep.matrices[0])),
            atol=1e-8,
        )


def test_double_rank_embedding_g1_maps_e3_into_span_e1_e3():
    # G_1 e_3 lies in span(e_1, e_3): the completion of (v, w) = (e_3, G_1 e_3)
    # must still be a basis, though v and w are not orthogonal
    g1 = np.array([[np.exp(0.3j), 0.2, 0.6], [0.1, np.exp(1.1j), 0.0], [0.3, 0.2, np.exp(2j)]])
    rng = np.random.default_rng(1)
    g2 = np.eye(3) + 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rep = Representation([0.0, 1.0, 2.0], [g1, g2, np.linalg.inv(g1 @ g2)])
    doubled = double_rank_embedding(rep)
    assert doubled.rank == 6
    assert np.allclose(
        np.sort_complex(np.linalg.eigvals(doubled.matrices[0][:3, :3])),
        np.sort_complex(np.linalg.eigvals(g1)),
        atol=1e-8,
    )


def test_double_rank_small_case_reported():
    rep = Representation([0.0, 1.0], [np.diag([2.0, 3.0]), np.diag([0.5, 1 / 3.0])])
    with pytest.raises(ValueError):
        double_rank_embedding(rep)


def test_jordan_block_count(rng):
    assert jordan_block_count(np.eye(3)) == 3
    assert jordan_block_count(np.array([[1.0, 1.0], [0.0, 1.0]])) == 1
    s = random_invertible(rng, 3)
    g = s @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(s)
    assert jordan_block_count(g) == 3


def test_rank3_irreducible(rng):
    rep = random_representation(rng, 3, 3)
    decision = rank3_decide(rep)
    assert decision.verdict is Rank3Verdict.REALIZABLE
    assert decision.certificate == "irreducible"


def test_rank3_multi_jordan(rng):
    s = random_invertible(rng, 3)
    g = s @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(s)
    rep = Representation([0.0, 1.0], [g, np.linalg.inv(g)])
    decision = rank3_decide(rep)
    assert decision.verdict is Rank3Verdict.REALIZABLE
    assert decision.certificate == "multiple-jordan-blocks"


def test_rank3_reducible_single_block_undetermined():
    u1 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    u2 = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
    u3 = np.linalg.inv(u1 @ u2)
    assert all(jordan_block_count(g) == 1 for g in (u1, u2, u3))
    rep = Representation([0.0, 1.0, 2.0], [u1, u2, u3])
    decision = rank3_decide(rep)
    assert decision.verdict is Rank3Verdict.UNDETERMINED
    assert decision.certificate == "splitting-type-needed"


def _jordan_rank3(rng):
    """Two single 3x3 Jordan blocks (unipotent part 1 + N) and the matrix closing their product."""
    mats = []
    for _ in range(2):
        upper = 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / np.sqrt(2)
        n = np.triu(upper, 2) + np.diag(np.exp(2j * np.pi * rng.uniform(size=2)), 1)
        mats.append(np.exp(2j * np.pi * rng.uniform()) * (np.eye(3) + n))
    mats.append(np.linalg.inv(mats[0] @ mats[1]))
    return mats


@pytest.mark.parametrize("seed", range(10))
def test_rank3_jordan_decision_is_the_same_in_a_conjugated_frame(seed):
    # a rounding split of a defective eigenvalue must not read as several blocks
    rng = np.random.default_rng(seed)
    mats = _jordan_rank3(rng)
    s = np.eye(3) + 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / np.sqrt(2 * 3)
    conjugated = [s @ g @ np.linalg.inv(s) for g in mats]
    punctures = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    triangular, conj = (rank3_decide(Representation(punctures, ms)) for ms in (mats, conjugated))
    assert (conj.verdict, conj.certificate) == (triangular.verdict, triangular.certificate)
    assert (conj.verdict, conj.certificate) == (Rank3Verdict.UNDETERMINED, "splitting-type-needed")
    assert [jordan_block_count(g) for g in conjugated] == [1, 1, 1]


def test_rank3_decide_splits_each_loop_matrix_once(monkeypatch):
    import logconn.synth as synth

    calls = []
    original = synth.clustered_schur
    monkeypatch.setattr(synth, "clustered_schur", lambda g: calls.append(g) or original(g))
    decision = rank3_decide(Representation([0.0, 1.0, 2.0], _jordan_rank3(np.random.default_rng(3))))
    assert decision.certificate == "splitting-type-needed"
    assert len(calls) == 3


def test_bt_obstruction_rank4():
    # invariant plane, single Jordan blocks, exponent sum 1/2: the
    # necessary condition for a trivial-bundle realization fails
    a1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    a2 = np.array([[1.0, 0.0], [-4.0, 1.0]])
    a3 = np.linalg.inv(a1 @ a2)
    rng2 = np.random.default_rng(9)
    c1 = rng2.normal(size=(2, 2))
    c2 = rng2.normal(size=(2, 2))
    c3 = -np.linalg.inv(a1 @ a2) @ (a1 @ c2 + c1 @ a2) @ a3
    mats = []
    for a, c, d in [(a1, c1, a1), (a2, c2, a2), (a3, c3, a3)]:
        g = np.zeros((4, 4), dtype=complex)
        g[:2, :2] = a
        g[:2, 2:] = c
        g[2:, 2:] = d
        mats.append(g)
    rep = Representation([0.0, 1.0, 2.0], mats)
    assert all(jordan_block_count(g) == 1 for g in mats)
    applies, mu_sum = bt_obstruction(rep)
    assert applies
    assert abs(mu_sum - 0.5) < 1e-9
