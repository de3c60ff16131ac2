"""Canonical documents: the writer, the reader and their round trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logconn import MatrixSeries
from logconn import documents as doc

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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_matrix_and_series())
def test_documents_round_trip_bit_for_bit(drawn):
    m, coeffs = drawn
    payload = {"m": doc.encode_matrix(m), "series": doc.encode_series(MatrixSeries(coeffs))}
    text = doc.canonical_dumps(doc.wrap("report", payload))
    assert doc.canonical_dumps(json.loads(text)) == text
    back = doc.parse_document(text, "report")["payload"]
    # int64 views compare bits, so the sign of zero counts
    assert np.array_equal(_bits(doc.decode_matrix(back["m"])), _bits(m))
    assert np.array_equal(_bits(doc.decode_series(back["series"]).coeffs), _bits(coeffs))


def test_canonical_format_is_pinned():
    # a float32 widens exactly: 0.1f is 0.100000001490116119384765625
    obj = {"b": [0.1, 1.0, -0.0, 1e-05, 3, np.float64(2.5), np.int64(-2), np.float32(0.1), np.bool_(True)], "A": None}
    assert doc.canonical_dumps(obj) == '{"A":null,"b":[0.1,1.0,-0.0,1e-05,3,2.5,-2,0.10000000149011612,true]}\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float32("-inf")])
def test_writer_refuses_non_finite_numbers(value):
    with pytest.raises(doc.DocumentError, match="non-finite"):
        doc.canonical_dumps({"x": [value]})


@pytest.mark.parametrize("value", [1j, np.zeros(2), object()])
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
