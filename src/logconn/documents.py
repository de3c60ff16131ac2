"""JSON document envelopes and canonical serialization.

Every file the command line reads or writes is an envelope
``{"kind": ..., "version": "1", "payload": ...}`` with kind one of
representation, local-connection, weighted-bundle, fuchsian-system or
report.  Complex numbers are two-element arrays [re, im]; matrices are
row-major nested arrays; series are {"order": N, "coeffs": [...]}.

Serialization is canonical: the stdlib's C encoder with keys sorted and
no whitespace, floats printed as Python's repr (the shortest string that
reads back to the same double), so canonical documents round-trip
byte-identically.  Matrices are encoded and decoded as whole arrays; the
reader refuses null, NaN, Infinity, string and boolean entries, and
payloads of the wrong JSON type.
"""

import json

import numpy as np

from .bundles import Representation, WeightedFlag, WeightedFlatBundle
from .localforms import LocalLogConnection
from .series import MatrixSeries
from .synth import FuchsianSystem

__all__ = [
    "DocumentError",
    "canonical_dumps",
    "wrap",
    "parse_document",
    "encode_complex",
    "decode_complex",
    "encode_matrix",
    "decode_matrix",
    "encode_series",
    "decode_series",
    "encode_representation",
    "decode_representation",
    "encode_connection",
    "decode_connection",
    "encode_bundle",
    "decode_bundle",
    "encode_system",
    "decode_system",
]

KINDS = ("representation", "local-connection", "weighted-bundle", "fuchsian-system", "report")


class DocumentError(ValueError):
    """Input document fails to parse or validate against its schema."""


def _plain_scalar(obj):
    """The `default` hook of `canonical_dumps`: numpy scalars as Python values."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise DocumentError(f"unserializable value of type {type(obj).__name__}")


def canonical_dumps(obj):
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_plain_scalar)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError("non-finite number in document") from exc
    return text + "\n"


def wrap(kind, payload):
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    return {"kind": kind, "payload": payload, "version": "1"}


def _refuse_constant(name):
    raise DocumentError(f"non-finite number {name} in document")


def _has_boolean(obj):
    items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return isinstance(obj, bool) or any(map(_has_boolean, items))


def parse_document(text, expected_kind=None):
    try:
        doc = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc or "payload" not in doc:
        raise DocumentError("document must be an envelope with kind and payload")
    if doc.get("version") != "1":
        raise DocumentError(f"unsupported document version {doc.get('version')!r}")
    if doc["kind"] not in KINDS:
        raise DocumentError(f"unknown document kind {doc['kind']!r}")
    if expected_kind is not None and doc["kind"] != expected_kind:
        raise DocumentError(f"expected a {expected_kind} document, got {doc['kind']}")
    # no input kind has a boolean field, and numpy reads one among numbers as 0 or 1;
    # the exact search runs only on texts that hold one, so clean documents pay no scan
    if doc["kind"] != "report" and ("true" in text or "false" in text) and _has_boolean(doc):
        raise DocumentError(f"a {doc['kind']} document takes no booleans")
    return doc


def _complex_array(obj, ndim, what):
    """`obj`, nested arrays of [re, im] pairs, as a complex array with `ndim` axes."""
    try:
        a = np.asarray(obj)
        # strings and all-boolean arrays are refused (parse_document refuses a
        # boolean among numbers); nulls read as NaN and are refused below
        refused = a.dtype.kind in "Ub" or (a.dtype == object and any(isinstance(x, (str, bool)) for x in a.flat))
        a = None if refused else a.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        a = None  # an object in place of a number, or ragged nesting
    if a is None or a.ndim != ndim + 1 or a.shape[-1] != 2 or 0 in a.shape:
        layout = "a pair [re, im]" if ndim == 0 else "a nonempty rectangular array of [re, im] pairs"
        raise DocumentError(f"{what} must be {layout}")
    if not np.isfinite(a).all():
        raise DocumentError(f"{what} has a null or non-finite entry")
    return a.view(np.complex128)[..., 0]


def encode_complex(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(obj, what="complex number"):
    return complex(_complex_array(obj, 0, what))


def encode_matrix(m):
    """A complex array (a matrix, or a stack of them) as nested [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


def decode_matrix(obj, what="matrix"):
    return _complex_array(obj, 2, what)


def encode_series(s):
    return {"coeffs": encode_matrix(s.coeffs), "order": int(s.order)}


def decode_series(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list) or not obj["coeffs"]:
        raise DocumentError("series must have a nonempty list of coeffs")
    coeffs = obj["coeffs"]
    try:
        c = _complex_array(coeffs, 3, "series coeffs")
    except DocumentError:
        # name the first coefficient at fault; if none is, their shapes differ
        shapes = [decode_matrix(m, f"series coefficient {j}").shape for j, m in enumerate(coeffs)]
        raise DocumentError(f"series coefficients have unequal shapes {shapes}") from None
    if obj.get("order", len(coeffs) - 1) != len(coeffs) - 1:
        raise DocumentError("series order disagrees with the coefficient count")
    return MatrixSeries(c)


def encode_representation(rep):
    return {
        "basepoint": encode_complex(rep.basepoint),
        "matrices": [encode_matrix(g) for g in rep.matrices],
        "punctures": [encode_complex(a) for a in rep.punctures],
    }


def _fields(obj, what, **kinds):
    """The fields of the JSON object `obj` named in `kinds`: `list` (an array) or `object` (checked later)."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} must be an object")
    for name, kind in kinds.items():
        if name not in obj:
            raise DocumentError(f"{what} missing {name!r}")
        if not isinstance(obj[name], kind):
            raise DocumentError(f"{what} field {name!r} must be an array")
    return [obj[name] for name in kinds]


def decode_representation(obj, tol=1e-8):
    punctures, matrices = _fields(obj, "representation payload", punctures=list, matrices=list)
    return Representation(
        [decode_complex(a, f"puncture {j}") for j, a in enumerate(punctures)],
        [decode_matrix(g, f"monodromy matrix {j}") for j, g in enumerate(matrices)],
        decode_complex(obj.get("basepoint", [0.0, 0.0]), "basepoint"),
        tol=tol,
    )


def encode_connection(conn):
    return {"series": encode_series(conn.a)}


def decode_connection(obj):
    (series,) = _fields(obj, "local-connection payload", series=object)
    return LocalLogConnection(decode_series(series))


def encode_bundle(wfb):
    return {
        "flags": [
            {
                "subspaces": [encode_matrix(s) for s in f.subspaces],
                "weights": [int(w) for w in f.weights],
            }
            for f in wfb.flags
        ],
        "representation": encode_representation(wfb.rep),
    }


def decode_bundle(obj):
    rep, flag_objs = _fields(obj, "weighted-bundle payload", representation=object, flags=list)
    rep = decode_representation(rep)
    flags = []
    for i, f in enumerate(flag_objs):
        steps, weights = _fields(f, f"flag {i}", subspaces=list, weights=list)
        if not all(type(w) is int for w in weights):
            raise DocumentError(f"flag {i} weights must be integers")
        steps = tuple(decode_matrix(s, f"flag {i} step {m}") for m, s in enumerate(steps))
        flags.append(WeightedFlag(steps, tuple(weights)))
    return WeightedFlatBundle(rep, tuple(flags))


def encode_system(system):
    return {
        "punctures": [encode_complex(a) for a in system.punctures],
        "residues": [encode_matrix(b) for b in system.residues],
    }


def decode_system(obj):
    punctures, residues = _fields(obj, "fuchsian-system payload", punctures=list, residues=list)
    return FuchsianSystem(
        [decode_complex(a, f"puncture {j}") for j, a in enumerate(punctures)],
        [decode_matrix(b, f"residue {j}") for j, b in enumerate(residues)],
    )
