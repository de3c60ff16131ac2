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
reader refuses null, NaN and Infinity entries as the writer does.
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
    return doc


def _complex_array(obj, ndim, what):
    """`obj`, nested arrays of [re, im] pairs, as a complex array with `ndim` axes."""
    try:
        a = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = None  # an object or null in place of a number, or ragged nesting
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


def decode_representation(obj, tol=1e-8):
    try:
        return Representation(
            [decode_complex(a, f"puncture {j}") for j, a in enumerate(obj["punctures"])],
            [decode_matrix(g, f"monodromy matrix {j}") for j, g in enumerate(obj["matrices"])],
            decode_complex(obj.get("basepoint", [0.0, 0.0]), "basepoint"),
            tol=tol,
        )
    except KeyError as exc:
        raise DocumentError(f"representation payload missing {exc}") from exc


def encode_connection(conn):
    return {"series": encode_series(conn.a)}


def decode_connection(obj):
    try:
        return LocalLogConnection(decode_series(obj["series"]))
    except KeyError as exc:
        raise DocumentError(f"local-connection payload missing {exc}") from exc


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


def decode_bundle(obj, tol=1e-8):
    try:
        rep = decode_representation(obj["representation"], tol=tol)
        flags = tuple(
            WeightedFlag(
                tuple(decode_matrix(s, f"flag {i} step {m}") for m, s in enumerate(f["subspaces"])),
                tuple(int(w) for w in f["weights"]),
            )
            for i, f in enumerate(obj["flags"])
        )
    except KeyError as exc:
        raise DocumentError(f"weighted-bundle payload missing {exc}") from exc
    return WeightedFlatBundle(rep, flags)


def encode_system(system):
    return {
        "punctures": [encode_complex(a) for a in system.punctures],
        "residues": [encode_matrix(b) for b in system.residues],
    }


def decode_system(obj, tol=1e-8):
    try:
        return FuchsianSystem(
            [decode_complex(a, f"puncture {j}") for j, a in enumerate(obj["punctures"])],
            [decode_matrix(b, f"residue {j}") for j, b in enumerate(obj["residues"])],
            tol=tol,
        )
    except KeyError as exc:
        raise DocumentError(f"fuchsian-system payload missing {exc}") from exc
