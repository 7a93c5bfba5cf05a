from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from ptop import (
    MaskOutOfRange,
    ParseError,
    PointMap,
    PointOutOfRange,
    ProbabilityOutOfRange,
    PtopError,
    UnsupportedVersion,
    WeightTable,
    as_pspace,
    build,
    complete,
    format_probability,
    parse_mask_token,
    parse_pmap,
    parse_pspace,
    random_pspace,
    serialize_pmap,
    serialize_pspace,
)

from oracles import loop_serialize, rng_for

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


def test_serialize_pspace_refuses_what_parse_pspace_refuses():
    # parse_pspace refuses a value outside [0, 1], so serialize_pspace does not
    # write one: it raises complete's error, naming the least such mask.
    for table, message in [
        ((1.0, 1.5), "value 1.5 for mask 1 not in [0, 1]"),
        ((1.0, float("nan"), -0.5, 1.0), "value nan for mask 1 not in [0, 1]"),
        ((float("inf"), 1.0), "value inf for mask 0 not in [0, 1]"),
    ]:
        w = WeightTable(len(table).bit_length() - 1, table)
        for call in (serialize_pspace, complete):
            with pytest.raises(ProbabilityOutOfRange) as err:
                call(w)
            assert str(err.value) == message
    # A -0.0 entry is not written, and reads back as 0.0.
    w = WeightTable(2, (1.0, -0.0, 0.0, 1.0))
    assert serialize_pspace(w) == "ptop 1\nn 2\n"
    assert parse_pspace(serialize_pspace(w)).table == (1.0, 0.0, 0.0, 1.0)


def test_serialize_pspace_is_a_fixed_point_on_negative_zero():
    # A -0.0 at the empty or full mask is no default, so it is written; it is
    # written 0, as parse_pspace reads it, so serializing again changes nothing.
    # format_probability itself keeps the sign.
    for table, text in [
        ((1.0, -0.0), "ptop 1\nn 1\n1 0\n"),
        ((-0.0, 0.5, -0.0, 1.0), "ptop 1\nn 2\n0 0\n1 0.5\n"),
    ]:
        once = serialize_pspace(WeightTable(len(table).bit_length() - 1, table))
        assert once == text
        assert serialize_pspace(parse_pspace(once)) == once
    assert format_probability(-0.0) == "-0"


def serialize_sweep_tables():
    """Seeded tables for the serializer sweep, each with a short label."""
    rng = rng_for(26)
    for n in range(14):
        yield f"random n={n}", random_pspace(n, 1 + n % 7, 2600 + n)
    for n in (4, 8, 11):
        entries = {rng.below(1 << n): rng.unit() for _ in range(3 * n)}
        yield f"complete of sparse n={n}", complete(build(n, entries.items()))
    for n in (1, 5, 10):
        yield f"dense distinct n={n}", WeightTable(n, tuple(rng.unit() for _ in range(1 << n)))
    for n in (1, 2, 6):
        table = [rng.unit() for _ in range(1 << n)]
        for mask in {0, (1 << n) - 1, (1 << n) >> 1}:
            table[mask] = -0.0
        yield f"negative zeros n={n}", WeightTable(n, tuple(table))
    hard = (5e-324, 1e-300, 0.3, 0.30000000000000004, 1.0, 0.0, -0.0, 1 - 2**-53)
    yield "hard decimals", WeightTable(3, hard)
    yield "hard decimals reversed", WeightTable(3, hard[::-1])


def test_serialize_pspace_matches_the_loop_oracle():
    # Byte for byte against an oracle written from the README's canonical form,
    # so the bulk formatter's grouping (one text per distinct value, -0.0 and
    # 0.0 apart) cannot drift from the per-entry rule.
    for label, w in serialize_sweep_tables():
        assert serialize_pspace(w) == loop_serialize(w.table, w.n), label


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
    # The first point with no image is found without walking a large domain.
    _check_parse_error(
        parse_pmap, "pmap 1\ndom 1000000000000\ncod 1\n0 0\n", ParseError, 5, "no image given for point 1"
    )


@pytest.mark.parametrize(
    "parse, doc, line, message",
    [
        (parse_pspace, "", 1, "empty document, expected 'ptop 1' header"),
        (parse_pspace, "# note\n\n", 1, "empty document, expected 'ptop 1' header"),
        (parse_pspace, "\npmap 1\nn 1\n", 2, "expected header 'ptop 1'"),
        (parse_pspace, "ptop 1 2\nn 1\n", 1, "expected header 'ptop 1'"),
        (parse_pmap, "", 1, "empty document, expected 'pmap 1' header"),
        (parse_pmap, "# note\n\n", 1, "empty document, expected 'pmap 1' header"),
        (parse_pmap, "ptop 1\ndom 1\ncod 1\n0 0\n", 1, "expected header 'pmap 1'"),
        (parse_pmap, "# note\npmap 1 2\n", 2, "expected header 'pmap 1'"),
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
        # '²' passes str.isdigit but not int(); int() refuses more than 4,300 digits.
        (parse_pspace, "ptop 1\nn ²\n", 2, "expected 'n <ground size>'"),
        pytest.param(
            parse_pspace, "ptop 1\nn " + "1" * 5000 + "\n", 2, "expected 'n <ground size>'", id="size of 5000 digits"
        ),
        (parse_pmap, "pmap 1\ndom ²\n", 2, "expected 'dom <size>'"),
        (parse_pmap, "pmap 1\ndom 1\ncod 1\n0 ²\n", 4, "expected '<point> <image>'"),
        pytest.param(
            parse_pmap,
            "pmap 1\ndom 1\ncod 1\n" + "0" * 5000 + " 0\n",
            4,
            "expected '<point> <image>'",
            id="point of 5000 digits",
        ),
    ],
)
def test_size_line_errors_pin_messages(parse, doc, line, message):
    _check_parse_error(parse, doc, ParseError, line, message)


@pytest.mark.parametrize(
    "parse, doc, line, message",
    [
        (parse_pspace, "ptop 2\nn 1\n", 1, "unsupported ptop version '2'"),
        (parse_pmap, "\n# note\npmap 2\n", 3, "unsupported pmap version '2'"),
    ],
)
def test_unsupported_versions_pin_messages(parse, doc, line, message):
    _check_parse_error(parse, doc, UnsupportedVersion, line, message)


def _check_parse_error(parse, doc, cls, line, message):
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert type(err.value) is cls
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


def test_decimal_tokens_in_any_script_parse_as_before():
    assert parse_pspace("ptop 1\nn \uff12\n1 0.5\n").n == 2  # fullwidth 2
    assert parse_pmap("pmap 1\ndom \u0662\ncod 1\n\u0660 0\n1 \uff10\n").image == (0, 0)  # Arabic-Indic


HOSTILE_TOKENS = ("\u00b2", "\u0663", "\uff19", "9" * 5000, "0x" + "f" * 5000, "-0", "1_0", "nan", "1e400")
NUMERIC_SLOTS = {
    "size": (parse_pspace, "ptop 1\nn {}\n1 0.5\n"),
    "mask": (parse_pspace, "ptop 1\nn 2\n{} 0.5\n"),
    "probability": (parse_pspace, "ptop 1\nn 2\n1 {}\n"),
    "domain size": (parse_pmap, "pmap 1\ndom {}\ncod 2\n0 1\n1 0\n"),
    "codomain size": (parse_pmap, "pmap 1\ndom 2\ncod {}\n0 1\n1 0\n"),
    "point": (parse_pmap, "pmap 1\ndom 2\ncod 2\n{} 1\n1 0\n"),
    "image": (parse_pmap, "pmap 1\ndom 2\ncod 2\n0 {}\n1 0\n"),
}


@pytest.mark.parametrize("slot", NUMERIC_SLOTS)
@pytest.mark.parametrize("token", HOSTILE_TOKENS, ids=lambda token: repr(token[:8]))
def test_hostile_tokens_in_numeric_slots_parse_or_raise_ptop_errors(slot, token):
    # Each numeric slot of a valid document takes each hostile token: the
    # parse returns a table or map, or raises a PtopError, never another error.
    parse, template = NUMERIC_SLOTS[slot]
    try:
        result = parse(template.format(token))
    except PtopError:
        return
    assert isinstance(result, WeightTable if parse is parse_pspace else PointMap)
