"""JSON document envelopes and canonical serialization.

Every file the command line reads or writes is an envelope
``{"kind": ..., "version": "1", "payload": ...}`` with kind one of
representation, local-connection, weighted-bundle, fuchsian-system or
report.  Complex numbers are two-element arrays [re, im]; matrices are
row-major nested arrays; series are {"order": N, "coeffs": [...]}.

This module is the one place that reads and writes JSON, and orjson's C
codec does both.  Serialization is canonical: keys sorted and no
whitespace, each float printed with the shortest digits that read back
to the same double (Ryu; the digits of Python's repr), so canonical
documents round-trip byte-identically.  The exponent is spelled without
a plus sign or leading zeros, and a float of magnitude in [1e-5, 1e16)
is written out positionally: 1e-05 as 0.00001, 1.5e-07 as 1.5e-7 and
1e+16 as 1e16.  orjson writes NaN and Infinity as null, so a text that
holds "null" is searched for a non-finite float, which is refused;
texts without one pay no search.  Matrices are encoded and decoded as
whole arrays; the reader refuses null, NaN, Infinity, string and
boolean entries, and payloads of the wrong JSON type.
"""

import json
import math

import numpy as np
import orjson

from .bundles import Representation, WeightedFlag, WeightedFlatBundle
from .localforms import LocalLogConnection
from .series import MatrixSeries
from .synth import FuchsianSystem

__all__ = [
    "DocumentError",
    "canonical_dumps",
    "wrap",
    "parse_document",
    "parse_vector",
    "encode_complex",
    "decode_complex",
    "encode_matrix",
    "decode_matrix",
    "encode_series",
    "decode_series",
    "encode_representation",
    "decode_representation",
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


def _any_leaf(obj, test):
    """Whether `test` holds for a leaf of the nested dicts, lists and tuples `obj`."""
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return test(obj)
    return any(_any_leaf(x, test) for x in obj)


def _non_finite(x):
    return isinstance(x, (float, np.floating)) and not math.isfinite(x)


def canonical_dumps(obj):
    try:
        text = orjson.dumps(obj, default=_plain_scalar, option=orjson.OPT_SORT_KEYS).decode()
    except orjson.JSONEncodeError as exc:
        if isinstance(exc.__cause__, DocumentError):
            raise exc.__cause__ from None
        raise DocumentError(f"unserializable value: {exc}") from exc
    # orjson writes a non-finite float as null; only a text with a null can hold one
    if "null" in text and _any_leaf(obj, _non_finite):
        raise DocumentError("non-finite number in document")
    return text + "\n"


def wrap(kind, payload):
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    return {"kind": kind, "payload": payload, "version": "1"}


def _loads(text):
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        for name in ("NaN", "Infinity", "-Infinity"):
            if text.startswith(name, exc.pos):
                raise DocumentError(f"non-finite number {name} in document") from exc
        raise DocumentError(f"invalid JSON: {exc}") from exc


def parse_document(text, *kinds):
    """The envelope in `text`, refused unless its kind is one of `kinds` (any kind when none are given)."""
    doc = _loads(text)
    if not isinstance(doc, dict) or "kind" not in doc or "payload" not in doc:
        raise DocumentError("document must be an envelope with kind and payload")
    if doc.get("version") != "1":
        raise DocumentError(f"unsupported document version {doc.get('version')!r}")
    if doc["kind"] not in KINDS:
        raise DocumentError(f"unknown document kind {doc['kind']!r}")
    if kinds and doc["kind"] not in kinds:
        raise DocumentError(f"expected a {' or '.join(kinds)} document, got {doc['kind']}")
    # no input kind has a boolean field, and numpy reads one among numbers as 0 or 1;
    # the exact search runs only on texts that hold one, so clean documents pay no scan
    if doc["kind"] != "report" and ("true" in text or "false" in text) and _any_leaf(doc, lambda x: isinstance(x, bool)):
        raise DocumentError(f"a {doc['kind']} document takes no booleans")
    return doc


def parse_vector(text, rank):
    """The JSON text `text`, an array of `rank` [re, im] pairs, as a list of complex numbers."""
    entries = _loads(text)
    if not isinstance(entries, list) or len(entries) != rank:
        got = f"an array of {len(entries)}" if isinstance(entries, list) else text.strip()
        raise DocumentError(f"vector must be an array of {rank} [re, im] pairs, got {got}")
    return [decode_complex(x) for x in entries]


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
    # a pair read outside parse_document (a --vector entry) has had no boolean search
    if isinstance(obj, list) and any(isinstance(x, bool) for x in obj):
        raise DocumentError(f"{what} {json.dumps(obj)} holds a boolean where a number belongs")
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
