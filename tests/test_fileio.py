from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from ptop import (
    MaskOutOfRange,
    ParseError,
    PointOutOfRange,
    ProbabilityOutOfRange,
    UnsupportedVersion,
    as_pspace,
    build,
    format_probability,
    parse_mask_token,
    parse_pmap,
    parse_pspace,
    random_pspace,
    serialize_pmap,
    serialize_pspace,
)

P1_DOC = "ptop 1\nn 2\n1 0.5\n2 0.3\n"


def test_parse_pspace_examples():
    assert parse_pspace(P1_DOC).table == (1.0, 0.5, 0.3, 1.0)
    assert parse_pspace("ptop 1\nn 0\n").table == (1.0,)
    with pytest.raises(MaskOutOfRange):
        parse_pspace("ptop 1\nn 2\n4 0.5\n")


def test_parse_pspace_accepts_comments_and_prefixed_masks():
    doc = "# header comment\nptop 1\n\nn 2\n0b01 0.5  # inline\n0x2 0.3\n"
    assert parse_pspace(doc).table == (1.0, 0.5, 0.3, 1.0)


def test_parse_pspace_errors():
    with pytest.raises(ParseError):
        parse_pspace("")
    with pytest.raises(ParseError):
        parse_pspace("ptok 1\nn 2\n")
    with pytest.raises(UnsupportedVersion):
        parse_pspace("ptop 2\nn 2\n")
    with pytest.raises(ParseError):
        parse_pspace("ptop 1\n")
    with pytest.raises(ParseError):
        parse_pspace("ptop 1\nn -1\n")
    with pytest.raises(ParseError) as err:
        parse_pspace("ptop 1\nn 2\n1 0.5 junk\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_pspace("ptop 1\nn 2\n1 0.5_1\n")
    with pytest.raises(ParseError):
        parse_pspace("ptop 1\nn 2\n0o7 0.5\n")
    with pytest.raises(ProbabilityOutOfRange):
        parse_pspace("ptop 1\nn 2\n1 nan\n")
    with pytest.raises(ProbabilityOutOfRange):
        parse_pspace("ptop 1\nn 2\n1 -0.5\n")


def test_serialize_pspace_examples():
    assert serialize_pspace(as_pspace(parse_pspace(P1_DOC))) == P1_DOC
    indiscrete = as_pspace(build(2, []))
    assert serialize_pspace(indiscrete) == "ptop 1\nn 2\n"
    degenerate = as_pspace(build(1, []))
    assert serialize_pspace(degenerate) == "ptop 1\nn 1\n"


def test_parse_mask_token():
    assert parse_mask_token("10") == 10
    assert parse_mask_token("0b101") == 5
    assert parse_mask_token("0xff") == 255
    with pytest.raises(ValueError):
        parse_mask_token("ten")


def test_format_probability():
    assert format_probability(1.0) == "1"
    assert format_probability(0.5) == "0.5"
    assert format_probability(0.0) == "0"
    tiny = 2.0**-40
    assert float(format_probability(tiny)) == tiny


def test_parse_pmap_examples():
    assert parse_pmap("pmap 1\ndom 2\ncod 1\n0 0\n1 0\n").image == (0, 0)
    assert parse_pmap("pmap 1\ndom 2\ncod 2\n0 1\n1 0\n").image == (1, 0)
    with pytest.raises(ParseError):
        parse_pmap("pmap 1\ndom 2\ncod 1\n0 0\n")  # totality: point 1 missing


def test_parse_pmap_errors():
    with pytest.raises(ParseError):
        parse_pmap("pmap 1\ndom 2\n0 0\n")
    with pytest.raises(ParseError):
        parse_pmap("pmap 1\ndom 2\ncod 1\n0 0\n0 0\n1 0\n")
    with pytest.raises(PointOutOfRange):
        parse_pmap("pmap 1\ndom 2\ncod 1\n0 0\n1 1\n")
    with pytest.raises(ParseError):
        parse_pmap("pmap 1\ndom 1\ncod 1\n3 0\n")
    with pytest.raises(UnsupportedVersion):
        parse_pmap("pmap 9\ndom 1\ncod 1\n0 0\n")


@pytest.mark.parametrize(
    "parse, doc, line, message",
    [
        (parse_pspace, "ptop 1\n", 2, "missing 'n <ground size>' line"),
        (parse_pspace, "ptop 1\n# note\n\n", 2, "missing 'n <ground size>' line"),
        (parse_pspace, "ptop 1\nn\n", 2, "expected 'n <ground size>'"),
        (parse_pspace, "ptop 1\nn -1\n", 2, "expected 'n <ground size>'"),
        (parse_pspace, "ptop 1\nn 0x2\n", 2, "expected 'n <ground size>'"),
        (parse_pspace, "ptop 1\n\nsize 2\n", 3, "expected 'n <ground size>'"),
        (parse_pspace, "ptop 1\nn 2 3\n", 2, "expected 'n <ground size>'"),
        (parse_pmap, "pmap 1\n", 2, "missing 'dom <size>' line"),
        (parse_pmap, "pmap 1\ncod 1\n", 2, "expected 'dom <size>'"),
        (parse_pmap, "pmap 1\ndom x\ncod 1\n", 2, "expected 'dom <size>'"),
        (parse_pmap, "pmap 1\ndom 2\n", 3, "missing 'cod <size>' line"),
        (parse_pmap, "pmap 1\n\ndom 2 # two points\n", 4, "missing 'cod <size>' line"),
        (parse_pmap, "pmap 1\ndom 2\n0 0\n", 3, "expected 'cod <size>'"),
        (parse_pmap, "pmap 1\ndom 2\n\ncod -1\n", 4, "expected 'cod <size>'"),
    ],
)
def test_size_line_errors_pin_messages(parse, doc, line, message):
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert type(err.value) is ParseError
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_pmap_roundtrip():
    doc = "pmap 1\ndom 3\ncod 2\n0 1\n1 0\n2 1\n"
    assert serialize_pmap(parse_pmap(doc)) == doc


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4), st.integers(0, 2**32))
def test_pspace_codec_roundtrip(n, k, seed):
    p = random_pspace(n, k, seed)
    doc = serialize_pspace(p)
    again = parse_pspace(doc)
    assert again.n == p.n and again.table == p.table
    assert serialize_pspace(again) == doc  # canonical form is idempotent
