"""Parsers and serializers for the on-disk formats.

All files are UTF-8 with `\\n` line endings (a leading byte-order mark is
ignored); `#` starts a comment line in every format. Formats:

  decompositions  glyph<TAB>kind<TAB>space-separated components or "-"<TAB>strokes
                  kind codes: p (primitive character), pc (primitive
                  component), c (compound), v (variant); a glyph id
                  is not empty, holds no whitespace or comma and is
                  not "-"
  frequencies     token<TAB>count            (count a positive integer;
                  a token is not empty and holds no whitespace)
  orders          one glyph id per line, or the order CSV (rank,glyph,... header)
  target lists    one word per line

Counts and stroke counts are written in ASCII digits. Frequencies are
normalized exactly once, here, over the whole table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from .network import GlyphKind, GlyphNode


class ParseError(Exception):
    """Malformed input line; message carries the 1-based line number."""


class DuplicateToken(ParseError):
    """The same token appeared twice where uniqueness is required."""


class EmptyTable(ParseError):
    """A frequency file contained no records."""


# The kinds a decompositions file may name, by code; words are built by
# `expand_with_words`, never read.
_FILE_KINDS = {kind.code: kind for kind in (GlyphKind.PRIMITIVE_CHARACTER,
                                            GlyphKind.PRIMITIVE_COMPONENT,
                                            GlyphKind.COMPOUND, GlyphKind.VARIANT)}
_ORDER_CSV_HEADER = "rank,glyph,"
_CONTENT_LINE = re.compile(r"^[^#\r\n][^\r\n]*", re.MULTILINE)
_INTEGER = re.compile(r"-?[0-9]+")


def _strip_bom(text: str) -> str:
    """The text without a leading byte-order mark, which would otherwise
    join the first id or hide an order CSV's header."""
    return text.removeprefix("\ufeff")


def _split_lines(text: str) -> list[str]:
    """Every line of the text, without the mark or trailing CRs. Line k
    is at index k - 1; parsers skip the empty lines and those starting
    with `#`."""
    lines = _strip_bom(text).split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    return lines


@dataclass(frozen=True)
class FrequencyTable:
    """Normalized usage frequencies: f sums to 1.0 over the whole table."""

    entries: dict[str, float]
    raw: dict[str, int]
    total_raw: int

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "FrequencyTable":
        for token, count in counts.items():
            if count <= 0:
                raise ParseError("count for %s must be positive" % token)
        return _normalized(dict(counts))

    def get(self, glyph: str) -> float:
        """Frequency share of `glyph`; 0 when absent (never a corpus token)."""
        return self.entries.get(glyph, 0.0)

    def __len__(self) -> int:
        # Unused in the package; perfbench's traced runs count records with len().
        return len(self.entries)


def _normalized(counts: dict[str, int]) -> FrequencyTable:
    """The table of `counts`, all of them positive, which it keeps."""
    if not counts:
        raise EmptyTable("no frequency records")
    total = sum(counts.values())
    entries = {token: count / total for token, count in counts.items()}
    return FrequencyTable(entries=entries, raw=counts, total_raw=total)


def _check_new(seen, token: str, lineno: int, what: str) -> None:
    """Reject a token already in `seen` (the tokens of earlier lines)."""
    if token in seen:
        raise DuplicateToken("line %d: duplicate %s %s" % (lineno, what, token))


def _integer(field: str, lineno: int, what: str) -> int:
    """An optionally negative run of ASCII digits. `int` alone would also
    take a leading +, underscores, surrounding spaces and other scripts'
    digits."""
    if _INTEGER.fullmatch(field):
        return int(field)
    raise ParseError("line %d: non-integer %s %r" % (lineno, what, field))


def _check_spelling(token: str, lineno: int, what: str) -> NoReturn:
    """Reject a token that `str.split` does not keep whole: one that is
    empty or holds whitespace. A glyph id must be writable in a
    whitespace-separated components field, so it is neither, and a
    frequency token that is either could match no id."""
    if not token:
        raise ParseError("line %d: empty %s" % (lineno, what))
    raise ParseError("line %d: %s %r contains whitespace" % (lineno, what, token))


def _items(text: str, what: str) -> list[str]:
    """One stripped item per line; duplicates rejected."""
    items: dict[str, None] = {}
    for lineno, line in enumerate(_split_lines(text), start=1):
        if line and line[0] != "#":
            item = line.strip()
            _check_new(items, item, lineno, what)
            items[item] = None
    return list(items)


def parse_decompositions(text: str) -> list[GlyphNode]:
    """Parse decomposition records into nodes, in file order.

    Each record is checked in turn for its field count, kind, strokes
    and id, and the first check to fail raises. A stroke count of "-0"
    reads as 0.
    """
    kinds = _FILE_KINDS
    new = tuple.__new__
    nodes = []
    append = nodes.append
    for lineno, line in enumerate(_split_lines(text), start=1):
        if not line or line[0] == "#":
            continue
        try:
            glyph, kind_code, comps_field, strokes_field = line.split("\t")
        except ValueError:
            raise ParseError("line %d: expected 4 tab-separated fields, got %d"
                             % (lineno, line.count("\t") + 1)) from None
        kind = kinds.get(kind_code)
        if kind is None:
            raise ParseError("line %d: unknown kind %r" % (lineno, kind_code))
        if strokes_field.isdigit() and strokes_field.isascii():
            strokes = int(strokes_field)
        else:
            strokes = _integer(strokes_field, lineno, "strokes")
            if strokes < 0:
                raise ParseError("line %d: negative strokes" % lineno)
        # An id must be writable in a components field.
        if glyph.split() != [glyph]:
            _check_spelling(glyph, lineno, "glyph id")
        if glyph == "-":
            raise ParseError("line %d: glyph id - is the empty-components marker" % lineno)
        # The order CSV separates its fields by commas and does not quote.
        if "," in glyph:
            raise ParseError("line %d: glyph id %r contains a comma" % (lineno, glyph))
        components = () if comps_field == "-" else tuple(comps_field.split())
        append(new(GlyphNode, (glyph, kind, components, strokes)))
    return nodes


def parse_frequencies(text: str) -> FrequencyTable:
    """Parse `token<TAB>count` lines and normalize to shares of the total.

    Each record is checked in turn for its field count, token, repeat
    and count, and the first check to fail raises.
    """
    counts: dict[str, int] = {}
    for lineno, line in enumerate(_split_lines(text), start=1):
        if not line or line[0] == "#":
            continue
        try:
            token, count_field = line.split("\t")
        except ValueError:
            raise ParseError("line %d: expected 2 tab-separated fields, got %d"
                             % (lineno, line.count("\t") + 1)) from None
        # A token no id can match would still dilute every share.
        if token.split() != [token]:
            _check_spelling(token, lineno, "token")
        _check_new(counts, token, lineno, "token")
        if count_field.isdigit() and count_field.isascii():
            count = int(count_field)
        else:
            count = _integer(count_field, lineno, "count")
        if count <= 0:
            raise ParseError("line %d: count must be positive" % lineno)
        counts[token] = count
    return _normalized(counts)


def parse_order(text: str) -> list[str]:
    """Parse a fixed order, one glyph id per line; duplicates rejected."""
    return _items(text, "glyph")


def parse_order_csv(text: str) -> list[str]:
    """Extract the glyph sequence from an order CSV written by this package."""
    rows = [(lineno, line) for lineno, line in enumerate(_split_lines(text), start=1)
            if line and line[0] != "#"]
    if not rows or not rows[0][1].startswith(_ORDER_CSV_HEADER):
        raise ParseError("not an order CSV (missing rank,glyph header)")
    glyphs: dict[str, None] = {}
    for lineno, line in rows[1:]:
        fields = line.split(",")
        if len(fields) < 2:
            raise ParseError("line %d: too few columns" % lineno)
        _check_new(glyphs, fields[1], lineno, "glyph")
        glyphs[fields[1]] = None
    return list(glyphs)


def parse_order_file(text: str) -> list[str]:
    """Parse either order format: an order CSV when the first content
    line is its header, else one glyph id per line."""
    first = _CONTENT_LINE.search(_strip_bom(text))
    if first and first.group().startswith(_ORDER_CSV_HEADER):
        return parse_order_csv(text)
    return parse_order(text)


def parse_target_list(text: str) -> list[str]:
    """Parse a target list, one word per line; duplicates rejected."""
    return _items(text, "item")


def serialize_order(order) -> str:
    """One glyph id per line."""
    ids = list(order)
    return "\n".join(ids) + "\n" if ids else ""
