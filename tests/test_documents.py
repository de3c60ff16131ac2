"""Canonical documents: the writer, the reader and their round trip."""

import decimal
import functools
import json
import math
import re

import numpy as np
import orjson
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logconn import FuchsianSystem, LocalLogConnection, MatrixSeries, Representation, WeightedFlag, WeightedFlatBundle
from logconn import documents as doc

from conftest import encode_connection, random_invertible

# doubles that break a hand-written printer or parser: signed zeros,
# subnormals, the ends of the range, integer values and values past 2^53
_EDGE_FLOATS = [
    *(0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308),
    *(1e308, -1e308, 1.7976931348623157e308, 3.0, -12.0, 1e16, 2.0**53 + 2, 0.1, 1e-05),
]
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _complex(shape):
    """Complex arrays of `shape` whose real and imaginary parts are drawn from _FLOATS."""
    return arrays(np.float64, (*shape, 2), elements=_FLOATS).map(lambda a: a.view(np.complex128)[..., 0])


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.int64)


@st.composite
def _matrix_and_series(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    order = draw(st.integers(0, 3))
    return draw(_complex((rows, cols))), draw(_complex((order + 1, rows, cols)))


@st.composite
def _payload_objects(draw):
    """One object of each payload kind; numbers come from _FLOATS wherever the constructor admits any."""
    r, n, order = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    punctures, basepoint = draw(_complex((n,))), draw(_complex(()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conn = LocalLogConnection(MatrixSeries(draw(_complex((order + 1, r, r)))))
    mats = [random_invertible(rng, r) for _ in range(n - 1)]
    rep = Representation(punctures, [*mats, np.linalg.inv(functools.reduce(np.matmul, mats, np.eye(r)))], basepoint)
    residues = [rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)) for _ in range(n - 1)]
    system = FuchsianSystem(punctures, [*residues, -sum(residues, np.zeros((r, r)))])
    flags = []
    for g in rep.matrices:
        # the leading Schur vectors of g span g-invariant steps
        z = scipy.linalg.schur(g, output="complex")[1]
        dims = sorted(draw(st.sets(st.integers(1, r - 1)))) + [r] if r > 1 else [r]
        weights = sorted(draw(st.sets(st.integers(-5, 5), min_size=len(dims), max_size=len(dims))), reverse=True)
        flags.append(WeightedFlag(tuple(z[:, :k] for k in dims), tuple(weights)))
    return {
        "representation": (rep, doc.encode_representation, doc.decode_representation),
        "local-connection": (conn, encode_connection, doc.decode_connection),
        "fuchsian-system": (system, doc.encode_system, doc.decode_system),
        "weighted-bundle": (WeightedFlatBundle(rep, tuple(flags)), doc.encode_bundle, doc.decode_bundle),
    }


def _projectors(flag):
    return np.array([s @ s.conj().T for s in flag.subspaces])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_matrix_and_series(), _payload_objects())
def test_documents_round_trip_bit_for_bit(drawn, objects):
    m, coeffs = drawn
    payload = {"m": doc.encode_matrix(m), "series": doc.encode_series(MatrixSeries(coeffs))}
    text = doc.canonical_dumps(doc.wrap("report", payload))
    assert doc.canonical_dumps(json.loads(text)) == text
    back = doc.parse_document(text, "report")["payload"]
    # int64 views compare bits, so the sign of zero counts
    assert np.array_equal(_bits(doc.decode_matrix(back["m"])), _bits(m))
    assert np.array_equal(_bits(doc.decode_series(back["series"]).coeffs), _bits(coeffs))
    # every payload kind: encode, write, read, decode and encode again gives the same text
    for kind, (obj, encode, decode) in objects.items():
        text = doc.canonical_dumps(doc.wrap(kind, encode(obj)))
        back = decode(doc.parse_document(text, kind)["payload"])
        again = doc.canonical_dumps(doc.wrap(kind, encode(back)))
        if kind != "weighted-bundle":
            assert again == text
            continue
        # a weighted bundle's flags are rebuilt on decode (WeightedFlag takes
        # an orthonormal basis of each step increment from eigh), so only its
        # representation and weights come back as the same text, and each
        # step as the same subspace to rounding
        first, second = (json.loads(t)["payload"] for t in (text, again))
        assert doc.canonical_dumps(second["representation"]) == doc.canonical_dumps(first["representation"])
        assert [f["weights"] for f in second["flags"]] == [f["weights"] for f in first["flags"]]
        for f, g in zip(obj.flags, back.flags):
            assert f.dims == g.dims
            assert np.max(np.abs(_projectors(f) - _projectors(g))) < 1e-13


def test_canonical_format_is_pinned():
    # a float32 widens exactly: 0.1f is 0.100000001490116119384765625
    # the exponent has no plus sign or leading zero, and [1e-5, 1e16) is positional
    floats = [0.1, 1.0, -0.0, 1e-05, 1e16, 1.5e-07, 5e-324]
    obj = {"b": [*floats, 3, np.float64(2.5), np.int64(-2), np.float32(0.1), np.bool_(True)], "A": None}
    pinned = '{"A":null,"b":[0.1,1.0,-0.0,0.00001,1e16,1.5e-7,5e-324,3,2.5,-2,0.10000000149011612,true]}\n'
    assert doc.canonical_dumps(obj) == pinned


def _digits(token):
    """The sign, digits and exponent of a decimal numeral, trailing zeros dropped."""
    return decimal.Decimal(token).normalize(decimal.Context(prec=800)).as_tuple()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_FLOATS, min_size=1, max_size=20))
def test_canonical_floats_have_the_digits_of_repr(xs):
    text = doc.canonical_dumps(xs)
    assert [_digits(t) for t in text.strip()[1:-1].split(",")] == [_digits(repr(x)) for x in xs]
    # every reader gets the same bits back, the stdlib's included
    for loads in (orjson.loads, json.loads):
        assert np.array_equal(np.array(loads(text), dtype=np.float64).view(np.int64), np.array(xs).view(np.int64))


def _halfway(x, side):
    """Decimal numerals exactly at, just below and just above the midpoint of x and its neighbour."""
    y = math.nextafter(x, side)
    if not math.isfinite(y):
        return []
    with decimal.localcontext(decimal.Context(prec=1200)):
        mid = (decimal.Decimal(x) + decimal.Decimal(y)) / 2
        nudge = abs(decimal.Decimal(y) - decimal.Decimal(x)) * decimal.Decimal("1e-30")
        return [f"{v:e}" for v in (mid, mid - nudge, mid + nudge)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_FLOATS)
def test_reader_rounds_foreign_numerals_as_float_does(x):
    # numerals as other writers spell them: %.17g, exact and long decimal
    # expansions, and decimals at and next to a halfway case
    tokens = ["%.17g" % x, "%.25e" % x, f"{decimal.Decimal(x):e}", *_halfway(x, math.inf), *_halfway(x, -math.inf)]
    text = f'{{"kind":"report","payload":[{",".join(tokens)}],"version":"1"}}'
    back = np.array(doc.parse_document(text)["payload"], dtype=np.float64)
    # an integer numeral reads as an integer, here and in the stdlib, so "-0" is +0.0
    expected = [float(int(t)) if re.fullmatch(r"-?\d+", t) else float(t) for t in tokens]
    assert np.array_equal(back.view(np.int64), np.array(expected).view(np.int64))


def test_null_prefilter_refuses_only_a_non_finite_float():
    clean = {"a": None, "b": "null and more null", "c": [1.0, [None, 2.5]]}
    assert doc.canonical_dumps(clean) == '{"a":null,"b":"null and more null","c":[1.0,[null,2.5]]}\n'
    for bad in (float("nan"), np.float32("inf"), np.float64("-inf")):
        with pytest.raises(doc.DocumentError, match="non-finite number in document"):
            doc.canonical_dumps({**clean, "c": [1.0, [None, bad]]})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float32("-inf")])
def test_writer_refuses_non_finite_numbers(value):
    with pytest.raises(doc.DocumentError, match="non-finite"):
        doc.canonical_dumps({"x": [value]})


@pytest.mark.parametrize("value", [1j, np.zeros(2), object(), 2**64, {1: 2.0}])
def test_writer_refuses_unserializable_values(value):
    with pytest.raises(doc.DocumentError, match="unserializable"):
        doc.canonical_dumps({"x": value})


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_reader_refuses_non_finite_constants(constant):
    payload = f'{{"matrices": [[[[1.0, 0.0]]]], "punctures": [[{constant}, 0.0]]}}'
    text = f'{{"kind": "representation", "payload": {payload}, "version": "1"}}'
    with pytest.raises(doc.DocumentError, match=constant):
        doc.parse_document(text)
    # json alone lets the constant through
    assert not np.isfinite(json.loads(text)["payload"]["punctures"][0][0])


def test_reader_refuses_booleans_where_numbers_belong():
    with pytest.raises(doc.DocumentError, match="matrix must be"):
        doc.decode_matrix([[[True, False]]])
    payload = '{"matrices": [[[[true, 2.0]]]], "punctures": [[0.0, 0.0]]}'
    text = f'{{"kind": "representation", "payload": {payload}, "version": "1"}}'
    with pytest.raises(doc.DocumentError, match="representation document takes no booleans"):
        doc.parse_document(text)
    # a report may hold booleans
    assert doc.parse_document('{"kind": "report", "payload": {"ok": true}, "version": "1"}')["payload"] == {"ok": True}


def test_decode_complex_refuses_a_boolean_in_its_pair():
    for pair in ([True, 0.0], [0.0, False], [True, True]):
        with pytest.raises(doc.DocumentError, match=re.escape(f"number {json.dumps(pair)} holds a boolean")):
            doc.decode_complex(pair)
    assert doc.decode_complex([1, 0.5]) == 1 + 0.5j


def test_decoders_name_the_offending_matrix():
    with pytest.raises(doc.DocumentError, match="residue 1 has a null"):
        doc.decode_system({"punctures": [[0.0, 0.0], [1.0, 0.0]], "residues": [[[[0.0, 0.0]]], [[[None, 0.0]]]]})
    rep = {"matrices": [[[[1.0, 0.0]]]], "punctures": [[0.0, 0.0]]}
    with pytest.raises(doc.DocumentError, match="flag 0 step 0 must be"):
        doc.decode_bundle({"flags": [{"subspaces": [[[1.0, 0.0, 0.0]]], "weights": [0]}], "representation": rep})
    with pytest.raises(doc.DocumentError, match="matrix must be"):
        doc.decode_matrix([[["1.5", " 2"]]])
    with pytest.raises(doc.DocumentError, match="series coefficients have unequal shapes"):
        doc.decode_series({"coeffs": [[[[1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]]})
