"""Command-line surface.

Every subcommand reads JSON document envelopes (path or '-' for stdin),
writes one canonical JSON document (stdout or --out), and is
deterministic for fixed inputs and flags.

Exit status: 0 success, 2 validation error, 3 numeric failure, 4 an
Undetermined verdict under --strict.  Errors print a single JSON object
with a machine-readable "reason" field on stderr.
"""

import argparse
import functools
import math
import sys
from fractions import Fraction

import numpy as np

from . import documents as doc
from .bundles import Semistability, degree, semistable
from .localforms import (
    IllConditionedBlockError,
    LocalLogConnection,
    convergence_diagnostic,
    fundamental_check,
    gauge_residual,
    normal_form,
)
from .eigen import NonConvergenceError, SingularMatrixError, norm_log
from .series import ShapeMismatchError
from .synth import (
    BqFrameError,
    Infeasible,
    InconsistentRepresentationError,
    NonCommutingError,
    Rank3Verdict,
    SolverIncompleteError,
    SplittingType,
    bq_frame,
    commutative_fuchsian,
    double_rank_embedding,
    rank3_decide,
    shift_weights,
    solve_weights_parabolic,
)
from .verify import IntegrationError, growth_exponent, monodromy_report

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_UNDETERMINED = 4

_VALIDATION_ERRORS = (
    doc.DocumentError,
    ShapeMismatchError,
    InconsistentRepresentationError,
    NonCommutingError,
    ValueError,
)
_NUMERIC_ERRORS = (
    NonConvergenceError,
    SingularMatrixError,
    IllConditionedBlockError,
    IntegrationError,
    BqFrameError,
    SolverIncompleteError,
)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, kind, payload):
    text = doc.canonical_dumps(doc.wrap(kind, payload))
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(reason, message, code):
    sys.stderr.write(doc.canonical_dumps({"message": message, "reason": reason}))
    return code


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


# ----------------------------------------------------------------------
# subcommand bodies


def _cmd_normlog(args):
    envelope = doc.parse_document(_read(args.input))
    if envelope["kind"] == "representation":
        rep = doc.decode_representation(envelope["payload"])
        ks = [doc.encode_matrix(norm_log(g, args.tol).k) for g in rep.matrices]
        _emit(args, "report", {"command": "normlog", "ks": ks})
    elif envelope["kind"] == "local-connection":
        conn = doc.decode_connection(envelope["payload"])
        k = norm_log(conn.a.coeffs[0], args.tol).k
        _emit(args, "report", {"command": "normlog", "k": doc.encode_matrix(k)})
    else:
        raise doc.DocumentError("normlog expects a representation or local-connection")
    return EXIT_OK


def _maybe_truncate(conn, order):
    if order is None or order >= conn.a.order:
        return conn
    return LocalLogConnection(conn.a.truncate(order))


def _cmd_normal_form(args):
    conn = doc.decode_connection(doc.parse_document(_read(args.input), "local-connection")["payload"])
    conn = _maybe_truncate(conn, args.order)
    nf = normal_form(conn, tol=args.tol)
    residual = gauge_residual(conn, nf)
    fs_ok = fundamental_check(nf, tol=1e-7)
    report = {
        "b": doc.encode_series(nf.b),
        "command": "normal-form",
        "fundamental_check": bool(fs_ok),
        "gauge_residual": residual,
        "k": doc.encode_matrix(nf.k),
        "m": doc.encode_series(nf.m),
        "phi": [int(x) for x in nf.phi.entries],
        "t": doc.encode_matrix(nf.t),
        "warnings": list(nf.warnings),
    }
    if args.delta is not None:
        conv = convergence_diagnostic(conn, nf, args.delta)
        report["convergence"] = {
            "all_ok": bool(conv.all_ok),
            "c0": conv.c0,
            "checked": len(conv.checks),
            "delta": conv.delta,
            "delta_max": conv.delta_max,
            "eps0": conv.eps0,
            "in_range": bool(conv.in_range),
        }
    _emit(args, "report", report)
    return EXIT_OK


def _cmd_degree(args):
    wfb = doc.decode_bundle(doc.parse_document(_read(args.input), "weighted-bundle")["payload"])
    d = degree(wfb)
    s = Fraction(d, wfb.rank)
    _emit(
        args,
        "report",
        {"command": "degree", "degree": d, "rank": wfb.rank, "slope": [s.numerator, s.denominator]},
    )
    return EXIT_OK


def _cmd_semistable(args):
    wfb = doc.decode_bundle(doc.parse_document(_read(args.input), "weighted-bundle")["payload"])
    verdict = semistable(wfb, seed=args.seed)
    _emit(args, "report", {"command": "semistable", "verdict": verdict.value})
    if verdict is Semistability.UNDETERMINED and args.strict:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _cmd_synth_commutative(args):
    rep = doc.decode_representation(doc.parse_document(_read(args.input), "representation")["payload"], tol=args.tol)
    system = commutative_fuchsian(rep, tol=args.tol)
    _emit(args, "fuchsian-system", doc.encode_system(system))
    return EXIT_OK


def _cmd_bq_frame(args):
    series = doc.decode_connection(doc.parse_document(_read(args.input), "local-connection")["payload"]).a
    c = SplittingType(tuple(_parse_ints(args.splitting)))
    frame = bq_frame(c, series, tol=args.tol)
    _emit(
        args,
        "report",
        {
            "b": doc.encode_series(frame.b),
            "command": "bq-frame",
            "perm": [int(p) for p in frame.perm],
            "residual": frame.residual,
        },
    )
    return EXIT_OK


def _cmd_solve_weights(args):
    rep = doc.decode_representation(doc.parse_document(_read(args.input), "representation")["payload"])
    try:
        fam = solve_weights_parabolic(rep, mode=args.mode)
    except Infeasible as exc:
        _emit(args, "report", {"command": "solve-weights", "detail": str(exc), "verdict": "Infeasible"})
        return EXIT_OK
    _emit(
        args,
        "report",
        {
            "command": "solve-weights",
            "phi": [[int(x) for x in row] for row in fam.phi],
            "satisfies_equalities": bool(fam.satisfies_equalities),
            "verdict": "Feasible",
        },
    )
    return EXIT_OK


def _cmd_shift_weights(args):
    wfb = doc.decode_bundle(doc.parse_document(_read(args.input), "weighted-bundle")["payload"])
    shifted = shift_weights(wfb, _parse_ints(args.lambdas))
    _emit(args, "weighted-bundle", doc.encode_bundle(shifted))
    return EXIT_OK


def _cmd_embed_double(args):
    rep = doc.decode_representation(doc.parse_document(_read(args.input), "representation")["payload"])
    doubled = double_rank_embedding(rep)
    _emit(args, "representation", doc.encode_representation(doubled))
    return EXIT_OK


def _cmd_decide_rank3(args):
    rep = doc.decode_representation(doc.parse_document(_read(args.input), "representation")["payload"])
    decision = rank3_decide(rep, seed=args.seed)
    _emit(
        args,
        "report",
        {
            "certificate": decision.certificate,
            "command": "decide-rank3",
            "detail": decision.detail,
            "verdict": decision.verdict.value,
        },
    )
    if decision.verdict is Rank3Verdict.UNDETERMINED and args.strict:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _cmd_verify(args):
    system = doc.decode_system(doc.parse_document(_read(args.system), "fuchsian-system")["payload"])
    target = None
    if args.target is not None:
        target = doc.decode_representation(doc.parse_document(_read(args.target), "representation")["payload"])
    report = monodromy_report(system, target=target, tol=args.tol)
    payload = {
        "basepoint": doc.encode_complex(report.basepoint),
        "command": "verify",
        "conjugacy_ok": bool(report.conjugacy_ok),
        "loop_matrices": [doc.encode_matrix(g) for g in report.loop_matrices],
        "order": [int(i) for i in report.order],
        "product_defect": report.product_defect,
    }
    if report.conjugator is not None:
        payload["conjugator"] = doc.encode_matrix(report.conjugator)
        payload["per_loop_residuals"] = [float(x) for x in report.per_loop_residuals]
    _emit(args, "report", payload)
    threshold = 10 * max(args.tol, 1e-12)
    if report.product_defect > threshold:
        message = f"loop product defect {report.product_defect:.3e} exceeds {threshold:.3e} = 10 max(tol, 1e-12)"
        return _fail("tolerance-not-met", message, EXIT_NUMERIC)
    return EXIT_OK


def _cmd_growth(args):
    envelope = doc.parse_document(_read(args.input))
    if envelope["kind"] == "local-connection":
        source = doc.decode_connection(envelope["payload"])
        center = 0.0 + 0.0j
    elif envelope["kind"] == "fuchsian-system":
        source = doc.decode_system(envelope["payload"])
        n = len(source.punctures)
        if not 0 <= args.puncture < n:
            raise ValueError(f"--puncture {args.puncture} is out of range: the system has {n} punctures, 0..{n - 1}")
        center = source.punctures[args.puncture]
    else:
        raise doc.DocumentError("growth expects a local-connection or fuchsian-system")
    vector = doc.parse_vector(args.vector, source.rank)
    radii = np.geomspace(args.r0, args.r0 * 10.0 ** (-args.decades), args.num_radii)
    est = growth_exponent(source, vector, radii, center=center)
    _emit(
        args,
        "report",
        {
            "command": "growth",
            "exponent": int(est.exponent),
            "reliable": bool(est.reliable),
            "slope": est.slope,
            "stderr": est.stderr,
        },
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# parser


def _tolerance(text):
    """A --tol value: a finite positive float (nan, inf, 0 or below would switch comparisons off)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="logconn",
        description="Local normal forms of logarithmic connections, weighted flat "
        "bundles, and constructive Fuchsian synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--tol": dict(type=_tolerance, default=1e-8, help="numeric tolerance"),
        "--order": dict(type=int, default=None, help="truncate input series to this order"),
        "--seed": dict(type=int, default=0, help="seed for randomized searches"),
        "--strict": dict(action="store_true", help="exit 4 on Undetermined verdicts"),
    }

    def common(p, *names, inputs=("input",)):
        """Register the input arguments, the named shared flags and --out."""
        for name in inputs:
            p.add_argument(name, help="input document path, or - for stdin")
        for name in names:
            p.add_argument(name, **flags[name])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    common(sub.add_parser("normlog", help="normalized logarithm of a matrix or representation"), "--tol")
    p = common(sub.add_parser("normal-form", help="gauge-fix a local logarithmic connection"), "--tol", "--order")
    p.add_argument("--delta", type=float, default=None, help="also run the convergence diagnostic at this radius")
    common(sub.add_parser("degree", help="degree and slope of a weighted bundle"))
    common(sub.add_parser("semistable", help="semistability verdict of a weighted bundle"), "--seed", "--strict")
    common(sub.add_parser("synth-commutative", help="Fuchsian system for commuting monodromy"), "--tol")
    p = common(sub.add_parser("bq-frame", help="frame permutation and triangular gauge"), "--tol")
    p.add_argument("--splitting", required=True, help="comma-separated non-increasing integers")
    p = common(sub.add_parser("solve-weights", help="integer weights for upper-triangular monodromy"))
    p.add_argument("--mode", choices=["strict-a", "relaxed-a'"], default="strict-a")
    p = common(sub.add_parser("shift-weights", help="shift all weights at each puncture"))
    p.add_argument("--lambdas", required=True, help="comma-separated shifts, one per puncture")
    common(sub.add_parser("embed-double", help="double-rank embedding with a cyclic eigenvector"))
    common(sub.add_parser("decide-rank3", help="partial rank-three realizability decision"), "--seed", "--strict")
    p = common(sub.add_parser("verify", help="integrate loops and compare monodromy"), "--tol", inputs=("system",))
    p.add_argument("--target", default=None, help="representation document to compare against")
    p = common(sub.add_parser("growth", help="asymptotic growth exponent of a flat section"))
    p.add_argument("--vector", required=True, help="JSON list of [re, im] pairs")
    p.add_argument("--r0", type=float, default=0.5, help="largest radius")
    p.add_argument("--decades", type=float, default=3.5, help="radial span in decades")
    p.add_argument("--num-radii", type=int, default=10, help="number of radii")
    p.add_argument("--puncture", type=int, default=0, help="puncture index for system inputs")
    return parser


_COMMANDS = {
    "normlog": _cmd_normlog,
    "normal-form": _cmd_normal_form,
    "degree": _cmd_degree,
    "semistable": _cmd_semistable,
    "synth-commutative": _cmd_synth_commutative,
    "bq-frame": _cmd_bq_frame,
    "solve-weights": _cmd_solve_weights,
    "shift-weights": _cmd_shift_weights,
    "embed-double": _cmd_embed_double,
    "decide-rank3": _cmd_decide_rank3,
    "verify": _cmd_verify,
    "growth": _cmd_growth,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _NUMERIC_ERRORS as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_NUMERIC)
    except _VALIDATION_ERRORS as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_VALIDATION)
    except OSError as exc:
        return _fail("io-error", str(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
