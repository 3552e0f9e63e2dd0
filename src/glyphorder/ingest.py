"""Parsers and serializers for the on-disk formats.

All files are UTF-8 with `\\n` line endings; `#` starts a comment line in
every format. Formats:

  decompositions  glyph<TAB>kind<TAB>space-separated components or "-"<TAB>strokes
                  kind codes: p (primitive character), pc (primitive
                  component), c (compound), v (variant)
  frequencies     token<TAB>count            (count a positive integer)
  orders          one glyph id per line, or the order CSV (rank,glyph,... header)
  target lists    one word per line

Frequencies are normalized exactly once, here, over the whole table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .network import GlyphKind, GlyphNode


class ParseError(Exception):
    """Malformed input line; message carries the 1-based line number."""


class DuplicateToken(ParseError):
    """The same token appeared twice where uniqueness is required."""


class EmptyTable(ParseError):
    """A frequency file contained no records."""


_KIND_CODES = {"p", "pc", "c", "v"}
_ORDER_CSV_HEADER = "rank,glyph,"
_CONTENT_LINE = re.compile(r"^[^#\r\n][^\r\n]*", re.MULTILINE)


def _lines(text: str | bytes) -> list[tuple[int, str]]:
    """Numbered content lines, comments and blanks dropped."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    out = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


@dataclass(frozen=True)
class FrequencyTable:
    """Normalized usage frequencies: f sums to 1.0 over the whole table."""

    entries: dict[str, float]
    raw: dict[str, int]
    total_raw: int

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "FrequencyTable":
        if not counts:
            raise EmptyTable("no frequency records")
        total = 0
        for token, count in counts.items():
            if count <= 0:
                raise ParseError("count for %s must be positive" % token)
            total += count
        entries = {token: count / total for token, count in counts.items()}
        return cls(entries=entries, raw=dict(counts), total_raw=total)

    def get(self, glyph: str) -> float:
        """Frequency share of `glyph`; 0 when absent (never a corpus token)."""
        return self.entries.get(glyph, 0.0)

    def __contains__(self, glyph: str) -> bool:
        return glyph in self.entries

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TargetList:
    """An ordered, duplicate-free list of target words or characters."""

    items: tuple[str, ...]
    label: str = ""


def _check_new(seen, token: str, lineno: int, what: str) -> None:
    """Reject a token already in `seen` (the tokens of earlier lines)."""
    if token in seen:
        raise DuplicateToken("line %d: duplicate %s %s" % (lineno, what, token))


def _items(text: str | bytes, what: str) -> list[str]:
    """One stripped item per line; duplicates rejected."""
    items: dict[str, None] = {}
    for lineno, line in _lines(text):
        item = line.strip()
        _check_new(items, item, lineno, what)
        items[item] = None
    return list(items)


def parse_decompositions(text: str | bytes) -> list[GlyphNode]:
    """Parse decomposition records into nodes, in file order."""
    nodes = []
    for lineno, line in _lines(text):
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError("line %d: expected 4 tab-separated fields, got %d" % (lineno, len(fields)))
        glyph, kind_code, comps_field, strokes_field = fields
        if kind_code not in _KIND_CODES:
            raise ParseError("line %d: unknown kind %r" % (lineno, kind_code))
        components = () if comps_field == "-" else tuple(comps_field.split())
        try:
            strokes = int(strokes_field)
        except ValueError:
            raise ParseError("line %d: non-integer strokes %r" % (lineno, strokes_field)) from None
        if strokes < 0:
            raise ParseError("line %d: negative strokes" % lineno)
        nodes.append(GlyphNode(id=glyph, kind=GlyphKind.from_code(kind_code),
                               components=components, strokes=strokes))
    return nodes


def parse_frequencies(text: str | bytes) -> FrequencyTable:
    """Parse `token<TAB>count` lines and normalize to shares of the total."""
    counts: dict[str, int] = {}
    for lineno, line in _lines(text):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("line %d: expected 2 tab-separated fields, got %d" % (lineno, len(fields)))
        token, count_field = fields
        _check_new(counts, token, lineno, "token")
        try:
            count = int(count_field)
        except ValueError:
            raise ParseError("line %d: non-integer count %r" % (lineno, count_field)) from None
        if count <= 0:
            raise ParseError("line %d: count must be positive" % lineno)
        counts[token] = count
    return FrequencyTable.from_counts(counts)


def parse_order(text: str | bytes) -> list[str]:
    """Parse a fixed order, one glyph id per line; duplicates rejected."""
    return _items(text, "glyph")


def parse_order_csv(text: str | bytes) -> list[str]:
    """Extract the glyph sequence from an order CSV written by this package."""
    rows = _lines(text)
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
    first = _CONTENT_LINE.search(text)
    if first and first.group().startswith(_ORDER_CSV_HEADER):
        return parse_order_csv(text)
    return parse_order(text)


def parse_target_list(text: str | bytes, label: str = "") -> TargetList:
    """Parse a target word list, one word per line; duplicates rejected."""
    return TargetList(items=tuple(_items(text, "item")), label=label)


def segment_coverage(words: TargetList, freq: FrequencyTable) -> tuple[TargetList, list[str]]:
    """Split a pre-segmented word list into (present in freq, missing)."""
    kept = tuple(w for w in words.items if w in freq)
    missing = [w for w in words.items if w not in freq]
    return TargetList(items=kept, label=words.label), missing


def serialize_decompositions(nodes) -> str:
    """Canonical decomposition file: input order, single tabs."""
    lines = []
    for node in nodes:
        if node.kind is GlyphKind.WORD:
            raise ValueError("word nodes do not belong in decomposition files: %s" % node.id)
        comps = " ".join(node.components) if node.components else "-"
        lines.append("%s\t%s\t%s\t%d" % (node.id, node.kind.code, comps, node.strokes))
    return "\n".join(lines) + "\n" if lines else ""


def serialize_frequencies(table: FrequencyTable) -> str:
    """Canonical frequency file: raw counts, tokens sorted."""
    lines = ["%s\t%d" % (token, table.raw[token]) for token in sorted(table.raw)]
    return "\n".join(lines) + "\n" if lines else ""


def serialize_order(order) -> str:
    """One glyph id per line."""
    ids = list(order)
    return "\n".join(ids) + "\n" if ids else ""
