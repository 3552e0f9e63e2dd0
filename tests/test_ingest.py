"""File format parsing, normalization, serialization round-trips."""

import pytest

from glyphorder.ingest import (DuplicateToken, EmptyTable, ParseError, parse_decompositions,
                               parse_frequencies, parse_order, parse_order_csv,
                               parse_order_file, parse_target_list, serialize_order)
from glyphorder.network import GlyphKind


def test_parse_decomposition_records():
    text = "口\tp\t-\t3\n灬\tv\t火\t4\n照\tc\t昭 灬\t13\n"
    nodes = parse_decompositions(text)
    assert [n.id for n in nodes] == ["口", "灬", "照"]
    assert nodes[0].kind is GlyphKind.PRIMITIVE_CHARACTER
    assert nodes[0].components == ()
    assert nodes[0].strokes == 3
    assert nodes[1].kind is GlyphKind.VARIANT
    assert nodes[1].components == ("火",)
    assert nodes[2].kind is GlyphKind.COMPOUND
    assert nodes[2].components == ("昭", "灬")


def test_parse_decompositions_comments_and_blanks():
    text = "# header\n\n口\tp\t-\t3\n# trailing comment\n"
    assert len(parse_decompositions(text)) == 1


@pytest.mark.parametrize("bad,what", [
    ("口\tp\t-\n", "field count"),
    ("口\tq\t-\t3\n", "unknown kind"),
    ("口\tw\tA B\t0\n", "word kind not accepted here"),
    ("口\tp\t-\tthree\n", "non-integer strokes"),
    ("口\tp\t-\t+3\n", "non-integer strokes"),
    ("口\tp\t-\t1_0\n", "non-integer strokes"),
    ("口\tp\t-\t 7\n", "non-integer strokes"),
    ("口\tp\t-\t٣\n", "non-integer strokes"),
    ("口\tp\t-\t-3\n", "negative strokes"),
    # "-" marks an empty components field, and whitespace separates
    # components, so neither id could be named as a component.
    ("-\tp\t-\t1\n", "id is the empty-components marker"),
    ("a b\tp\t-\t1\n", "id contains a space"),
    (" 口\tp\t-\t3\n", "id starts with a space"),
    # The order CSV separates fields by commas, so it could not carry this id.
    ("a,b\tp\t-\t3\n", "id contains a comma"),
])
def test_parse_decompositions_errors(bad, what):
    with pytest.raises(ParseError, match="^line 1: "):
        parse_decompositions(bad)


def test_parse_error_carries_line_number():
    text = "口\tp\t-\t3\n日\tp\t-\tx\n"
    with pytest.raises(ParseError) as err:
        parse_decompositions(text)
    assert "line 2" in str(err.value)


def test_parse_frequencies_normalizes():
    table = parse_frequencies("A\t3\nB\t1\n")
    assert table.get("A") == 0.75
    assert table.get("B") == 0.25
    assert table.get("missing") == 0.0
    assert table.total_raw == 4


def test_parse_frequencies_single_token():
    assert parse_frequencies("A\t7\n").get("A") == 1.0


def test_parse_frequencies_whole_table_sums_to_one(mini_freq, mini_word_freq):
    for table in (mini_freq, mini_word_freq):
        assert abs(sum(table.entries.values()) - 1.0) < 1e-9


def test_parse_frequencies_errors():
    with pytest.raises(EmptyTable):
        parse_frequencies("# nothing\n")
    with pytest.raises(DuplicateToken):
        parse_frequencies("A\t3\nA\t1\n")
    with pytest.raises(ParseError):
        parse_frequencies("A\t0\n")
    with pytest.raises(ParseError):
        parse_frequencies("A\t3.5\n")
    for count in ("+5", "1_000", " 7", "7 ", "٣"):
        with pytest.raises(ParseError, match="line 1: non-integer count"):
            parse_frequencies("A\t%s\n" % count)
    with pytest.raises(ParseError):
        parse_frequencies("A 3\n")


def test_parse_order_and_duplicates():
    assert parse_order("白\n勺\n的\n") == ["白", "勺", "的"]
    assert parse_order("") == []
    with pytest.raises(DuplicateToken):
        parse_order("的\n白\n的\n")


def test_parse_target_list():
    assert parse_target_list("知道\n人\n") == ["知道", "人"]
    with pytest.raises(DuplicateToken):
        parse_target_list("人\n人\n")


def test_order_round_trip():
    order = ["白", "勺", "的"]
    assert parse_order(serialize_order(order)) == order


def test_parsers_drop_a_byte_order_mark():
    bom = "\ufeff"
    assert [n.id for n in parse_decompositions(bom + "口\tp\t-\t3\n")] == ["口"]
    assert parse_frequencies(bom + "口\t3\n").raw == {"口": 3}
    assert parse_order(bom + "口\n日\n") == ["口", "日"]
    csv = "rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq\n1,白,p,1.5,0.1,0.07,1.5,0.1\n"
    assert parse_order_file(bom + csv) == ["白"]
    # A mark before a comment line leaves it a comment.
    assert parse_order_file(bom + "# note\n" + csv) == ["白"]


def test_order_csv_reader_requires_header():
    with pytest.raises(ParseError):
        parse_order_csv("白\n勺\n")
    text = "rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq\n1,白,p,1.5,0.1,0.07,1.5,0.1\n"
    assert parse_order_csv(text) == ["白"]


def test_order_file_format_follows_first_content_line():
    csv = "rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq\r\n1,白,p,1.5,0.1,0.07,1.5,0.1\r\n"
    # Comments and blank lines, CRLF ones included, come before the header.
    assert parse_order_file("# note\r\n\r\n\n" + csv) == ["白"]
    assert parse_order_file("#rank,glyph,\n白\n勺\n") == ["白", "勺"]
    assert parse_order_file(" rank,glyph,\n") == ["rank,glyph,"]
    assert parse_order_file("") == []
    with pytest.raises(DuplicateToken, match="line 3: duplicate glyph 白"):
        parse_order_file(csv + "2,白,p,1.5,0.1,0.07,3.0,0.2\n")
