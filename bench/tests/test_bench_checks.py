"""The reference checks accept the program's answers and reject wrong ones.

Each test runs one real problem, confirms that its check passes, then
feeds the check a deliberately wrong answer: a perturbed loop matrix, a
shifted weight, a wrong verdict, a wrong subspace.
"""

import copy
import json

import numpy as np
import pytest

import checks
import workloads


def _problem(tmp_path, name, slot_index, seed=3):
    slot = workloads._slots(name, False)[slot_index]
    return workloads._problem(name, str(tmp_path), seed, slot_index, slot, 0)


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["payload"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_slope_verdict_closed_form():
    assert checks.slope_verdict([1, 2, 3]) == (6, "Stable")
    assert checks.slope_verdict([2, 2, 2]) == (6, "Semistable")
    assert checks.slope_verdict([0, 2, -1, 3]) == (4, "Semistable")
    assert checks.slope_verdict([3, 1]) == (4, "Unstable")


def test_algebra_dimension_and_jordan_count():
    rng = np.random.default_rng(0)
    generic = [rng.normal(size=(3, 3)) for _ in range(2)]
    upper = [np.triu(m) + np.diag([1.0, 2.0, 3.0]) for m in generic]
    assert checks.algebra_dimension(generic) == 9
    assert checks.algebra_dimension(upper) == 6
    jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    assert checks.jordan_count(jordan, 2.0) == 1
    assert checks.jordan_count(2.0 * np.eye(3), 2.0) == 3


def test_rank3_reference_sees_conjugated_jordan_blocks():
    rng = np.random.default_rng(1)
    mats = workloads.rank3_representation(rng, "jordan")
    s = workloads._basis(rng, 3, 0.5)
    conjugated = [s @ g @ np.linalg.inv(s) for g in mats]
    assert checks.rank3_expected(mats) == ("Undetermined", "splitting-type-needed")
    assert checks.rank3_expected(conjugated) == ("Undetermined", "splitting-type-needed")


@pytest.mark.parametrize("slot_index", [0, 1])
def test_fuchsian_check_rejects_perturbed_loop_matrix(tmp_path, slot_index):
    problem = _problem(tmp_path, "fuchsian-verify", slot_index)
    result = problem.run()
    assert problem.check(result).ok

    def perturb(payload):
        payload["loop_matrices"][0][0][0][0] += 1e-5

    _rewrite(problem.report, perturb)
    outcome = problem.check(result)
    assert not outcome.ok
    assert any("G_0" in note or "loop product" in note for note in outcome.notes)


def test_fuchsian_check_rejects_failed_conjugacy_and_exit_code(tmp_path):
    problem = _problem(tmp_path, "fuchsian-verify", 0)
    result = problem.run()
    assert not problem.check((0, 3)).ok

    def deny(payload):
        payload["conjugacy_ok"] = False

    _rewrite(problem.report, deny)
    assert not problem.check(result).ok


@pytest.mark.parametrize("slot_index", [0, 1])
def test_normal_form_check_rejects_shifted_weight_and_wrong_k(tmp_path, slot_index):
    problem = _problem(tmp_path, "local-normal-form", slot_index)
    result = problem.run()
    assert problem.check(result).ok
    report = workloads.read_payload(problem.report)

    shifted = copy.deepcopy(report)
    shifted["phi"][0] += 1
    assert not checks.normal_form_report(problem.coeffs, shifted, workloads.NORMAL_FORM_DELTA).ok

    wrong_k = copy.deepcopy(report)
    wrong_k["k"][0][0][0] += 1e-6
    assert not checks.normal_form_report(problem.coeffs, wrong_k, workloads.NORMAL_FORM_DELTA).ok

    wrong_m = copy.deepcopy(report)
    wrong_m["m"]["coeffs"][2][0][0][0] += 1e-3
    assert not checks.normal_form_report(problem.coeffs, wrong_m, workloads.NORMAL_FORM_DELTA).ok

    wrong_verdict = copy.deepcopy(report)
    wrong_verdict["convergence"]["all_ok"] = not report["convergence"]["all_ok"]
    assert not checks.normal_form_report(problem.coeffs, wrong_verdict, workloads.NORMAL_FORM_DELTA).ok


def test_spectral_check_rejects_wrong_answers(tmp_path):
    problem = _problem(tmp_path, "spectral", 1)  # generic, r = 8
    t, q, clusters, k, e = problem.run()
    assert problem.check((t, q, clusters, k, e)).ok
    assert not problem.check((t, q, clusters, k, e * (1 + 1e-9))).ok
    assert not problem.check((t, q, clusters, k + 1e-9, e)).ok
    assert not problem.check((t, q[:, ::-1], clusters, k, e)).ok
    merged = ((0j, 2, np.hstack([clusters[0][2], clusters[1][2]])),) + tuple(clusters[2:])
    assert not problem.check((t, q, merged, k, e)).ok


def test_defective_family_is_the_kept_failure(tmp_path):
    problem = _problem(tmp_path, "spectral", 6)  # defective, r = 4
    assert problem.expected_failure
    outcome = problem.check(problem.run())
    assert not outcome.ok
    assert outcome.worst > 1e-10


def test_stability_check_rejects_wrong_verdict_degree_and_subspace(tmp_path):
    problem = _problem(tmp_path, "stability", 0)  # bundle, r = 4
    codes, enum = problem.run()
    assert problem.check((codes, enum)).ok

    wrong = {"Stable": "Unstable", "Semistable": "Stable", "Unstable": "Semistable"}[problem.verdict]
    _rewrite(problem.out_verdict, lambda payload: payload.update(verdict=wrong))
    assert not problem.check((codes, enum)).ok
    problem.run()

    _rewrite(problem.out_degree, lambda payload: payload.update(degree=payload["degree"] + 1))
    assert not problem.check((codes, enum)).ok
    problem.run()

    bad = type(enum)(enum.subspaces[:-1] + (np.eye(4, dtype=complex)[:, :3],), enum.complete, enum.certificate)
    assert not problem.check((codes, bad)).ok


@pytest.mark.parametrize("slot_index", [5, 6, 7])
def test_rank3_check_rejects_wrong_verdict(tmp_path, slot_index):
    problem = _problem(tmp_path, "stability", slot_index)
    result = problem.run()
    assert problem.check(result).ok
    report = workloads.read_payload(problem.report)
    flipped = dict(report, verdict="NotRealizable")
    assert not checks.rank3_report(flipped, problem.mats).ok
