import json
import re
from fractions import Fraction

import numpy as np
import pytest

from logconn import MatrixSeries, WeightedFlag, WeightedFlatBundle, Representation
from logconn import bundles
from logconn import documents as doc
from logconn.cli import main
from logconn.eigen import clustered_schur

from conftest import random_representation


def write(tmp_path, name, kind, payload):
    path = tmp_path / name
    path.write_text(doc.canonical_dumps(doc.wrap(kind, payload)))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_out(out):
    return json.loads(out)


def test_normlog_identity(tmp_path, capsys):
    payload = {"series": doc.encode_series(MatrixSeries.constant(np.eye(2)))}
    path = write(tmp_path, "conn.json", "local-connection", payload)
    code, out, err = run(["normlog", path], capsys)
    assert code == 0
    report = parse_out(out)
    assert report["kind"] == "report"
    k = doc.decode_matrix(report["payload"]["k"])
    assert np.max(np.abs(k)) < 1e-12


def test_round_trip_byte_identical(tmp_path, capsys):
    payload = {"series": doc.encode_series(MatrixSeries.constant(np.array([[0.5, -1.25], [3.0, 2.0]]), 2))}
    path = write(tmp_path, "conn.json", "local-connection", payload)
    code, out, _ = run(["normal-form", path], capsys)
    assert code == 0
    # canonical serialization round-trips byte-identically
    assert doc.canonical_dumps(json.loads(out)) == out
    code2, out2, _ = run(["normal-form", path], capsys)
    assert out2 == out  # deterministic


def test_normal_form_reports_diagnostics(tmp_path, capsys):
    series = MatrixSeries(np.array([np.diag([0.3, -1.5]), 0.2 * np.ones((2, 2))], dtype=complex))
    path = write(tmp_path, "conn.json", "local-connection", {"series": doc.encode_series(series)})
    code, out, _ = run(["normal-form", path, "--delta", "0.05"], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert payload["fundamental_check"] is True
    assert payload["gauge_residual"] < 1e-10
    assert payload["phi"] == [1, -1]
    assert payload["convergence"]["in_range"] is True


def test_degree_and_semistable(tmp_path, capsys):
    rep = Representation([0.0, 1.0], [np.eye(2), np.eye(2)])
    flags = (
        WeightedFlag((np.eye(2)[:, :1], np.eye(2)), (1, -1)),
        WeightedFlag.trivial(2),
    )
    wfb = WeightedFlatBundle(rep, flags)
    path = write(tmp_path, "wfb.json", "weighted-bundle", doc.encode_bundle(wfb))
    code, out, _ = run(["degree", path], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert payload["degree"] == 0
    assert payload["slope"] == [0, 1]
    code, out, _ = run(["semistable", path], capsys)
    assert code == 0
    assert parse_out(out)["payload"]["verdict"] == "Unstable"


def test_degree_reports_its_slope_from_one_schur_pass_per_loop_matrix(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    rep = random_representation(rng, 3, 3)
    wfb = WeightedFlatBundle(rep, (WeightedFlag.trivial(3, 2), WeightedFlag.trivial(3), WeightedFlag.trivial(3)))
    path = write(tmp_path, "wfb.json", "weighted-bundle", doc.encode_bundle(wfb))
    calls = []

    def counted(a):
        calls.append(a.shape)
        return clustered_schur(a)

    monkeypatch.setattr(bundles, "clustered_schur", counted)
    code, out, _ = run(["degree", path], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert len(calls) == rep.n
    assert payload["rank"] == 3 and Fraction(*payload["slope"]) == Fraction(payload["degree"], 3)


def test_semistable_strict_undetermined(tmp_path, capsys):
    # a unipotent pair: the submodule lattice cannot be certified finite
    # and the one invariant line matches the total slope
    u = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = Representation([0.0, 1.0], [u, np.linalg.inv(u)])
    wfb = WeightedFlatBundle(rep, (WeightedFlag.trivial(2), WeightedFlag.trivial(2)))
    path = write(tmp_path, "wfb.json", "weighted-bundle", doc.encode_bundle(wfb))
    code, out, _ = run(["semistable", path, "--strict"], capsys)
    payload = parse_out(out)["payload"]
    assert payload["verdict"] == "Undetermined"
    assert code == 4
    code, out, _ = run(["semistable", path], capsys)
    assert code == 0


def test_normlog_representation_input(tmp_path, capsys):
    rep = Representation([0.0, 1.0], [np.diag([2.0, 1.0]), np.diag([0.5, 1.0])])
    path = write(tmp_path, "rep.json", "representation", doc.encode_representation(rep))
    code, out, _ = run(["normlog", path], capsys)
    assert code == 0
    ks = [doc.decode_matrix(k) for k in parse_out(out)["payload"]["ks"]]
    expect = -1j * np.log(2.0) / (2 * np.pi)
    assert np.allclose(ks[0], np.diag([expect, 0.0]))
    assert np.allclose(ks[1], np.diag([-expect, 0.0]))


def test_synth_verify_pipeline(tmp_path, capsys, rng):
    rep = Representation(
        [0.0, 1.0], [np.diag([2.0, 1.0]), np.diag([0.5, 1.0])]
    )
    rep_path = write(tmp_path, "rep.json", "representation", doc.encode_representation(rep))
    code, out, _ = run(["synth-commutative", rep_path, "--out", str(tmp_path / "sys.json")], capsys)
    assert code == 0
    code, out, _ = run(["verify", str(tmp_path / "sys.json"), "--target", rep_path, "--tol", "1e-9"], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert payload["conjugacy_ok"] is True
    assert payload["product_defect"] < 1e-8
    # the report's transport counters stay out of the payload
    assert set(payload) == {
        "basepoint", "command", "conjugacy_ok", "conjugator",
        "loop_matrices", "order", "per_loop_residuals", "product_defect",
    }


def test_verify_exit_3_names_the_defect_and_the_threshold(tmp_path, capsys, monkeypatch):
    import dataclasses

    import logconn.cli as cli

    rep = Representation([0.0, 1.0], [np.diag([2.0, 1.0]), np.diag([0.5, 1.0])])
    rep_path = write(tmp_path, "rep.json", "representation", doc.encode_representation(rep))
    assert run(["synth-commutative", rep_path, "--out", str(tmp_path / "sys.json")], capsys)[0] == 0
    report = cli.monodromy_report
    monkeypatch.setattr(cli, "monodromy_report", lambda *a, **k: dataclasses.replace(report(*a, **k), product_defect=4.1e-7))
    code, out, err = run(["verify", str(tmp_path / "sys.json"), "--tol", "1e-8"], capsys)
    assert code == 3
    failure = json.loads(err)
    assert failure["reason"] == "tolerance-not-met"
    assert failure["message"] == "loop product defect 4.100e-07 exceeds 1.000e-07 = 10 max(tol, 1e-12)"
    assert parse_out(out)["payload"]["product_defect"] == 4.1e-7


@pytest.mark.parametrize("command", ["verify", "synth-commutative"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_refuses_a_value_that_would_switch_checks_off(tmp_path, capsys, command, tol):
    # every comparison against nan is false, and none against inf or a
    # non-positive bound decides anything: such a --tol is a usage error
    rep = Representation([0.0, 1.0], [np.diag([2.0, 1.0]), np.diag([0.5, 1.0])])
    rep_path = write(tmp_path, "rep.json", "representation", doc.encode_representation(rep))
    sys_path = str(tmp_path / "sys.json")
    assert run(["synth-commutative", rep_path, "--out", sys_path], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([command, {"verify": sys_path, "synth-commutative": rep_path}[command], "--tol", tol])
    assert exc.value.code == 2
    assert f"argument --tol: tolerance must be finite and positive, got '{tol}'" in capsys.readouterr().err


def test_bq_frame_cli(tmp_path, capsys, rng):
    q = MatrixSeries(rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
    path = write(tmp_path, "q.json", "local-connection", {"series": doc.encode_series(q)})
    code, out, _ = run(["bq-frame", path, "--splitting", "1,0"], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert sorted(payload["perm"]) == [0, 1]
    assert payload["residual"] < 1e-9


def test_solve_weights_cli(tmp_path, capsys):
    w = complex(np.exp(0.4j))
    g1 = np.diag([w, w]).astype(complex)
    g2 = np.linalg.inv(g1)
    rep = Representation([0.0, 1.0], [g1, g2])
    path = write(tmp_path, "rep.json", "representation", doc.encode_representation(rep))
    code, out, _ = run(["solve-weights", path, "--mode", "relaxed-a'"], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert payload["verdict"] == "Feasible"
    assert payload["satisfies_equalities"] is True


def test_shift_weights_cli(tmp_path, capsys):
    rep = Representation([0.0, 1.0], [np.eye(2), np.eye(2)])
    wfb = WeightedFlatBundle(rep, (WeightedFlag.trivial(2, 0),) * 2)
    path = write(tmp_path, "wfb.json", "weighted-bundle", doc.encode_bundle(wfb))
    code, out, _ = run(["shift-weights", path, "--lambdas", "2,-1"], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert payload["flags"][0]["weights"] == [2]
    assert payload["flags"][1]["weights"] == [-1]


def test_weighted_bundle_documents_round_trip(tmp_path, capsys, rng):
    # full flags of eigenvectors of S U_j S^-1, U_j upper triangular: steps
    # that are not orthonormal in the input, stored as one nested basis
    r = 4
    s = np.eye(r) + 0.3 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))) / np.sqrt(r)
    us = [np.diag(np.exp(2j * np.pi * rng.uniform(size=r))) + np.triu(0.3 * rng.normal(size=(r, r)), 1) for _ in range(2)]
    us.append(np.linalg.inv(us[0] @ us[1]))
    mats = [s @ u @ np.linalg.inv(s) for u in us]
    flags = []
    for g in mats:
        vecs = np.linalg.eig(g)[1]
        flags.append(WeightedFlag(tuple(vecs[:, : k + 1] for k in range(r)), tuple(range(r, 0, -1))))
    wfb = WeightedFlatBundle(Representation([0.0, 1.0, 2.0], mats, tol=1e-7), tuple(flags))
    path = write(tmp_path, "wfb.json", "weighted-bundle", doc.encode_bundle(wfb))
    outs = [run(["shift-weights", path, "--lambdas", "1,0,-1"], capsys) for _ in range(2)]
    assert outs[0][0] == 0 and outs[0][1] == outs[1][1]  # deterministic, byte for byte
    first = doc.decode_bundle(parse_out(outs[0][1])["payload"])
    again = doc.decode_bundle(doc.encode_bundle(first))
    for f, g in zip(first.flags, again.flags):
        assert f.dims == g.dims and f.weights == g.weights
        for a, b in zip(f.subspaces, g.subspaces):
            assert np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2) <= 1e-13


def test_embed_double_cli(tmp_path, capsys, rng):
    rep = random_representation(rng, 3, 2)
    path = write(tmp_path, "rep.json", "representation", doc.encode_representation(rep))
    code, out, _ = run(["embed-double", path], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert len(payload["matrices"][0]) == 4


def test_decide_rank3_cli(tmp_path, capsys, rng):
    rep = random_representation(rng, 3, 3)
    path = write(tmp_path, "rep.json", "representation", doc.encode_representation(rep))
    code, out, _ = run(["decide-rank3", path], capsys)
    assert code == 0
    payload = parse_out(out)["payload"]
    assert payload["verdict"] == "Realizable"
    assert payload["certificate"] == "irreducible"


def test_growth_cli(tmp_path, capsys):
    payload = {"series": doc.encode_series(MatrixSeries.constant(np.array([[-1.5]]), 0))}
    path = write(tmp_path, "conn.json", "local-connection", payload)
    code, out, _ = run(["growth", path, "--vector", "[[1.0, 0.0]]"], capsys)
    assert code == 0
    report = parse_out(out)["payload"]
    assert report["exponent"] == 1
    assert report["reliable"] is True


def test_growth_cli_system_input(tmp_path, capsys):
    from logconn import FuchsianSystem

    system = FuchsianSystem([0.0, 3.0], [np.array([[-1.5]]), np.array([[1.5]])])
    path = write(tmp_path, "sys.json", "fuchsian-system", doc.encode_system(system))
    code, out, _ = run(
        ["growth", path, "--vector", "[[1.0, 0.0]]", "--puncture", "0", "--r0", "0.4"],
        capsys,
    )
    assert code == 0
    assert parse_out(out)["payload"]["exponent"] == 1


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(["degree", str(bad)], capsys)
    assert code == 2
    assert "reason" in json.loads(err)


def test_wrong_kind_exit_code(tmp_path, capsys):
    rep = Representation([0.0, 1.0], [np.eye(2), np.eye(2)])
    path = write(tmp_path, "rep.json", "representation", doc.encode_representation(rep))
    code, out, err = run(["degree", path], capsys)
    assert code == 2
    assert json.loads(err)["reason"] == "DocumentError"


def test_numeric_error_exit_code(tmp_path, capsys):
    # singular leading coefficient in the frame series
    q = MatrixSeries.constant(np.array([[1.0, 1.0], [1.0, 1.0]]), 1)
    path = write(tmp_path, "q.json", "local-connection", {"series": doc.encode_series(q)})
    code, out, err = run(["bq-frame", path, "--splitting", "1,0"], capsys)
    assert code == 3


@pytest.mark.parametrize("payload", [[1, 2], {"matrix": [[1.0]]}], ids=["not-an-object", "no-series"])
def test_bq_frame_malformed_payload_is_a_document_error(tmp_path, capsys, payload):
    path = write(tmp_path, "q.json", "local-connection", payload)
    code, out, err = run(["bq-frame", path, "--splitting", "1,0"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["reason"] == "DocumentError"


_SINGULAR_Q0 = [[1.0, 1.0], [1.0, 1.0 + 1e-12]]
# b_01 grows like (0.3 / 1e-5)^p over three degrees, so its rounding leaves
# a residual far above the bound
_GROWING_Q = [[[1.0, 0.3], [0.0, 1e-5]], [[0.2, 0.7], [0.1, 1.0]], [[0.5, 0.9], [0.3, 0.6]], [[0.4, 0.8], [0.2, 0.3]]]


@pytest.mark.parametrize(
    "coeffs, splitting, tol, quantity, threshold",
    [
        ([_SINGULAR_Q0, np.zeros((2, 2))], "1,0", 1e-8, np.linalg.cond(_SINGULAR_Q0), 1e10),
        # the bottom row's best minor is 1e-4, at or below tol |Q(0)| = 1e-3
        ([np.diag([1.0, 1e-4]), np.zeros((2, 2))], "1,0", 1e-3, 1e-4, 1e-3),
        (_GROWING_Q, "3,0", 1e-8, None, 1e-7 * np.linalg.norm(_GROWING_Q, 2, axis=(1, 2)).max()),
    ],
    ids=["condition", "minor", "residual"],
)
def test_bq_frame_refusals_name_quantity_and_threshold(tmp_path, capsys, coeffs, splitting, tol, quantity, threshold):
    q = MatrixSeries(np.array(coeffs, dtype=complex))
    path = write(tmp_path, "q.json", "local-connection", {"series": doc.encode_series(q)})
    code, out, err = run(["bq-frame", path, "--splitting", splitting, "--tol", str(tol)], capsys)
    failure = json.loads(err)
    assert code == 3 and failure["reason"] == "BqFrameError"
    got_quantity, got_threshold = (float(x) for x in re.findall(r"\d\.\d{3}e[+-]\d+|1e10", failure["message"])[:2])
    assert got_threshold == pytest.approx(threshold, rel=1e-3)
    if quantity is None:
        assert got_quantity > got_threshold
    else:
        assert got_quantity == pytest.approx(quantity, rel=1e-3)


def test_cached_parser_matches_fresh_parser(tmp_path, capsys):
    from logconn.cli import build_parser

    series = MatrixSeries(np.array([np.diag([0.3, -1.5]), 0.2 * np.ones((2, 2))], dtype=complex))
    conn = write(tmp_path, "conn.json", "local-connection", {"series": doc.encode_series(series)})
    rep = Representation([0.0, 1.0], [np.eye(2), np.eye(2)])
    flags = (WeightedFlag((np.eye(2)[:, :1], np.eye(2)), (1, -1)), WeightedFlag.trivial(2))
    wfb = write(tmp_path, "wfb.json", "weighted-bundle", doc.encode_bundle(WeightedFlatBundle(rep, flags)))
    calls = [
        ["normal-form", conn, "--delta", "0.05"],
        ["growth", conn],  # usage error: --vector is required
        ["normal-form", conn],
        ["normal-form", conn, "--no-such-flag"],  # usage error
        ["normlog", conn, "--tol", "1e-6"],
        ["semistable", wfb, "--strict"],
        ["degree", wfb],
        ["growth", conn, "--vector", "[[1.0, 0.0], [0.0, 0.0]]", "--num-radii", "8"],
        ["normal-form", conn, "--order", "0"],
    ]

    def outputs(fresh):
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("usage", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    build_parser.cache_clear()
    cached = outputs(fresh=False)
    assert build_parser() is build_parser()
    assert cached == outputs(fresh=True)
    assert [code for code, _, _ in cached] == [0, ("usage", 2), 0, ("usage", 2), 0, 0, 0, 0, 0]
    assert "fundamental_check" in cached[0][1] and cached[0][1] != cached[2][1]


# every subcommand registers only the shared flags it reads
_READS = {
    "normlog": ("--tol",),
    "normal-form": ("--tol", "--order"),
    "degree": (),
    "semistable": ("--seed", "--strict"),
    "synth-commutative": ("--tol",),
    "bq-frame": ("--tol",),
    "solve-weights": (),
    "shift-weights": (),
    "embed-double": (),
    "decide-rank3": ("--seed", "--strict"),
    "verify": ("--tol",),
    "growth": (),
}
_REQUIRED = {
    "bq-frame": ["--splitting", "1,0"],
    "shift-weights": ["--lambdas", "0"],
    "growth": ["--vector", "[[1.0, 0.0]]"],
}
_VALUES = {"--tol": ["1e-6"], "--order": ["3"], "--seed": ["2"], "--strict": []}


def test_shared_flags_are_registered_only_where_read():
    from logconn.cli import build_parser

    parser = build_parser()
    for command, reads in _READS.items():
        base = [command, "in.json", *_REQUIRED.get(command, []), "--out", "out.json"]
        for flag, value in _VALUES.items():
            argv = base + [flag, *value]
            if flag in reads:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, argv


def test_invocations_used_by_the_tests_and_the_benchmark_parse():
    from logconn.cli import build_parser

    parser = build_parser()
    for argv in (
        ["normlog", "c.json", "--tol", "1e-6"],
        ["normal-form", "c.json", "--order", "0"],
        ["normal-form", "c.json", "--delta", "0.125", "--out", "r.json"],
        ["degree", "b.json", "--out", "d.json"],
        ["semistable", "b.json", "--strict"],
        ["semistable", "b.json", "--out", "v.json"],
        ["synth-commutative", "rep.json", "--tol", "1e-08", "--out", "sys.json"],
        ["verify", "sys.json", "--target", "rep.json", "--tol", "1e-08", "--out", "r.json"],
        ["verify", "sys.json", "--tol", "1e-9"],
        ["bq-frame", "q.json", "--splitting", "1,0"],
        ["solve-weights", "rep.json", "--mode", "relaxed-a'"],
        ["shift-weights", "b.json", "--lambdas", "2,-1"],
        ["embed-double", "rep.json"],
        ["decide-rank3", "rep.json", "--out", "r.json"],
        ["growth", "c.json", "--vector", "[[1.0, 0.0]]", "--num-radii", "8"],
    ):
        parser.parse_args(argv)


_MALFORMED_SERIES = {
    "null entry": ([[[[None, 0.0]]]], "series coefficient 0 has a null"),
    "object for a pair": ([[[{"re": 1.0, "im": 0.0}]]], "series coefficient 0 must be"),
    "pair of length three": ([[[[1.0, 0.0, 0.0]]]], "series coefficient 0 must be"),
    "ragged rows": ([[[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]], "series coefficient 0 must be"),
    "quoted numbers": ([[[["1.5", " 2"]]]], "series coefficient 0 must be"),
    "unequal coefficient shapes": ([[[[1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], "unequal shapes"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SERIES))
def test_malformed_matrix_entries_exit_2(tmp_path, capsys, case):
    coeffs, message = _MALFORMED_SERIES[case]
    path = tmp_path / "conn.json"
    path.write_text(json.dumps({"kind": "local-connection", "payload": {"series": {"coeffs": coeffs}}, "version": "1"}))
    code, out, err = run(["normal-form", str(path)], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["reason"] == "DocumentError"
    assert message in error["message"]


_REP = {"matrices": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]], "punctures": [[0.0, 0.0], [1.0, 0.0]]}
_MALFORMED_PAYLOADS = {
    "null weight": (
        "degree",
        "weighted-bundle",
        {"flags": [{"subspaces": [[[[1.0, 0.0]]]], "weights": [None]}] * 2, "representation": _REP},
        "flag 0 weights must be integers",
    ),
    "numbers for flags": (
        "degree",
        "weighted-bundle",
        {"flags": [5, 6], "representation": _REP},
        "flag 0 must be an object",
    ),
    "list for a payload": ("normlog", "representation", [1], "representation payload must be an object"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_PAYLOADS))
def test_malformed_payloads_exit_2(tmp_path, capsys, case):
    command, kind, payload, message = _MALFORMED_PAYLOADS[case]
    code, out, err = run([command, write(tmp_path, "doc.json", kind, payload)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"message": message, "reason": "DocumentError"}


def test_boolean_entry_in_a_representation_exits_2(tmp_path, capsys):
    payload = {"matrices": [[[[True, 0.0]]], [[[1.0, 0.0]]]], "punctures": [[0.0, 0.0], [1.0, 0.0]]}
    path = write(tmp_path, "rep.json", "representation", payload)
    code, out, err = run(["normlog", path], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"message": "a representation document takes no booleans", "reason": "DocumentError"}


def test_boolean_in_a_growth_vector_exits_2(tmp_path, capsys):
    payload = {"series": doc.encode_series(MatrixSeries.constant(np.array([[-1.5, 0.0], [0.0, -0.5]]), 0))}
    path = write(tmp_path, "conn.json", "local-connection", payload)
    code, out, err = run(["growth", path, "--vector", "[[true, 0.0], [0.0, 0.0]]"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"message": "complex number [true, 0.0] holds a boolean where a number belongs", "reason": "DocumentError"}


@pytest.mark.parametrize(
    "vector, message",
    [
        ("5", "vector must be an array of 2 [re, im] pairs, got 5"),
        ("null", "vector must be an array of 2 [re, im] pairs, got null"),
        ("[[1, 0]]", "vector must be an array of 2 [re, im] pairs, got an array of 1"),
        ("[[NaN, 0.0], [0.0, 0.0]]", "non-finite number NaN in document"),
    ],
)
def test_growth_vector_of_the_wrong_shape_exits_2(tmp_path, capsys, vector, message):
    payload = {"series": doc.encode_series(MatrixSeries.constant(np.array([[-1.5, 0.0], [0.0, -0.5]]), 0))}
    path = write(tmp_path, "conn.json", "local-connection", payload)
    code, out, err = run(["growth", path, "--vector", vector], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"message": message, "reason": "DocumentError"}


@pytest.mark.parametrize("puncture", ["2", "5", "-1"])
def test_growth_puncture_out_of_range_exits_2(tmp_path, capsys, puncture):
    from logconn import FuchsianSystem

    system = FuchsianSystem([0.0, 3.0], [np.array([[-1.5]]), np.array([[1.5]])])
    path = write(tmp_path, "sys.json", "fuchsian-system", doc.encode_system(system))
    code, out, err = run(["growth", path, "--vector", "[[1.0, 0.0]]", "--puncture", puncture], capsys)
    assert code == 2 and out == ""
    message = f"--puncture {puncture} is out of range: the system has 2 punctures, 0..1"
    assert json.loads(err) == {"message": message, "reason": "ValueError"}


def test_non_finite_constant_in_a_representation_exits_2(tmp_path, capsys):
    path = tmp_path / "rep.json"
    payload = '{"matrices": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]], "punctures": [[NaN, 0.0], [1.0, 0.0]]}'
    path.write_text(f'{{"kind": "representation", "payload": {payload}, "version": "1"}}')
    code, _, err = run(["normlog", str(path)], capsys)
    assert code == 2
    assert json.loads(err) == {"message": "non-finite number NaN in document", "reason": "DocumentError"}
