"""Text codecs for spaces and point maps.

PTOP v1 (space documents), line oriented, UTF-8, LF line endings, ``#``
starts a comment, blank lines ignored::

    ptop 1
    n <ground size>
    <mask> <probability>     # zero or more entry lines

Masks are decimal or ``0b``/``0x`` literals.  Unlisted masks default to 0,
the empty and full subsets to 1.  Probabilities are decimal text parsed to
binary64 exactly once and never rounded afterwards, so parse/serialize is
a bit-exact round trip.

PMAP v1 (point map documents)::

    pmap 1
    dom <domain size>
    cod <codomain size>
    <x> <f(x)>               # exactly one line per domain point

Canonical serialized form: no comments or blank lines, entries in
ascending mask (resp. point) order, only non-default entries written,
probabilities in shortest round-trip decimal (CPython ``repr`` with a
trailing ``.0`` trimmed).
"""

from __future__ import annotations

from .core import WeightTable, _check_table, build
from .errors import InvalidArgument, ParseError, UnsupportedVersion
from .maps import PointMap
from .masks import _check_real, _expect

PTOP_VERSION = "1"
PMAP_VERSION = "1"


def format_probability(v: float) -> str:
    """Shortest decimal text that parses back to exactly ``v``, a real number."""
    if type(v) is not float:  # serialize_pspace formats every entry: plain floats skip the call
        _check_real(v, "probability")
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def parse_mask_token(token: str) -> int:
    """Parse a mask literal: decimal, or binary/hex with 0b/0x prefix."""
    t = token.lower()
    try:
        if t.startswith("0b"):
            return int(t[2:], 2)
        if t.startswith("0x"):
            return int(t[2:], 16)
        return int(t, 10)
    except ValueError:
        raise InvalidArgument(f"bad mask literal {token!r}") from None


def _parse_probability_token(token: str) -> float:
    if "_" in token:
        raise InvalidArgument(f"bad probability literal {token!r}")
    try:
        return float(token)
    except ValueError:
        raise InvalidArgument(f"bad probability literal {token!r}") from None


def _content_lines(text: str):
    """Yield (line number, tokens) per content line; a ``text`` that is no str raises first."""
    if not isinstance(text, str):
        raise InvalidArgument(f"document must be a str, got {text!r}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _header(lines, name: str, version: str) -> int:
    """Read the document's first line as the header '<name> <version>'; return its line."""
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError(f"empty document, expected '{name} {version}' header", 1) from None
    if len(tokens) != 2 or tokens[0] != name:
        raise ParseError(f"expected header '{name} {version}'", lineno)
    if tokens[1] != version:
        raise UnsupportedVersion(f"unsupported {name} version {tokens[1]!r}", lineno)
    return lineno


def _decimal(token: str, form: str, lineno: int) -> int:
    """``token``, decimal digits, as an int; else :class:`ParseError` "expected '<form>'"."""
    try:
        if token.isdecimal():  # isdigit would pass '²', which int() refuses
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(f"expected '{form}'", lineno)


def _size_line(lines, lineno: int, form: str) -> tuple[int, int]:
    """Read the line after ``lineno`` as ``form``, '<key> <...>': (its line, the size)."""
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError(f"missing '{form}' line", lineno + 1) from None
    if len(tokens) != 2 or tokens[0] != form.split()[0]:
        raise ParseError(f"expected '{form}'", lineno)
    return lineno, _decimal(tokens[1], form, lineno)


def parse_pspace(text: str) -> WeightTable:
    """Parse a PTOP document; entry validation follows :func:`ptop.core.build`."""
    lines = _content_lines(text)
    lineno, n = _size_line(lines, _header(lines, "ptop", PTOP_VERSION), "n <ground size>")
    entries = []
    for lineno, tokens in lines:
        if len(tokens) != 2:
            raise ParseError("expected '<mask> <probability>'", lineno)
        try:
            mask = parse_mask_token(tokens[0])
            value = _parse_probability_token(tokens[1])
        except InvalidArgument as exc:
            raise ParseError(str(exc), lineno) from None
        entries.append((mask, value))
    return build(n, entries)


def serialize_pspace(p: WeightTable) -> str:
    """Canonical PTOP text for a table; parse(serialize(p)) == p bit-exactly."""
    _check_table(p)
    lines = [f"ptop {PTOP_VERSION}", f"n {p.n}"]
    last = len(p.table) - 1
    for mask, v in enumerate(p.table):
        default = 1.0 if mask in (0, last) else 0.0
        if v != default:
            lines.append(f"{mask} {format_probability(v)}")
    return "\n".join(lines) + "\n"


def parse_pmap(text: str) -> PointMap:
    """Parse a PMAP document into a total point map."""
    lines = _content_lines(text)
    lineno, dom = _size_line(lines, _header(lines, "pmap", PMAP_VERSION), "dom <size>")
    lineno, cod = _size_line(lines, lineno, "cod <size>")
    image: dict[int, int] = {}
    for lineno, tokens in lines:
        if len(tokens) != 2:
            raise ParseError("expected '<point> <image>'", lineno)
        x, y = (_decimal(token, "<point> <image>", lineno) for token in tokens)
        if not 0 <= x < dom:
            raise ParseError(f"point {x} outside domain of size {dom}", lineno)
        if x in image:
            raise ParseError(f"point {x} assigned twice", lineno)
        image[x] = y
    for x in range(dom):  # stops by point len(image), however large dom is
        if x not in image:
            raise ParseError(f"no image given for point {x}", lineno + 1)
    return PointMap(dom, cod, tuple(image[x] for x in range(dom)))


def serialize_pmap(f: PointMap) -> str:
    """Canonical PMAP text for a point map."""
    _expect(f, PointMap, "a point map")
    lines = [f"pmap {PMAP_VERSION}", f"dom {f.domain_n}", f"cod {f.codomain_n}"]
    lines.extend(f"{x} {y}" for x, y in enumerate(f.image))
    return "\n".join(lines) + "\n"
