"""File format parsing, normalization, serialization round-trips."""

import pytest

from glyphorder.ingest import (DuplicateToken, EmptyTable, ParseError, TargetList,
                               parse_decompositions, parse_frequencies, parse_order,
                               parse_order_csv, parse_order_file, parse_target_list,
                               segment_coverage,
                               serialize_decompositions, serialize_frequencies,
                               serialize_order)
from glyphorder.network import GlyphKind, build_network


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
    ("口\tp\t-\t-3\n", "negative strokes"),
])
def test_parse_decompositions_errors(bad, what):
    with pytest.raises(ParseError):
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
    with pytest.raises(ParseError):
        parse_frequencies("A 3\n")


def test_parse_order_and_duplicates():
    assert parse_order("白\n勺\n的\n") == ["白", "勺", "的"]
    assert parse_order("") == []
    with pytest.raises(DuplicateToken):
        parse_order("的\n白\n的\n")


def test_parse_target_list():
    tl = parse_target_list("知道\n人\n", label="demo")
    assert tl == TargetList(items=("知道", "人"), label="demo")
    with pytest.raises(DuplicateToken):
        parse_target_list("人\n人\n")


def test_segment_coverage():
    freq = parse_frequencies("知道\t5\n人\t5\n")
    kept, missing = segment_coverage(TargetList(("知道", "qqq"), "t"), freq)
    assert kept.items == ("知道",)
    assert missing == ["qqq"]
    kept, missing = segment_coverage(TargetList((), "t"), freq)
    assert kept.items == () and missing == []
    kept, missing = segment_coverage(TargetList(("人", "知道"), "t"), freq)
    assert kept.items == ("人", "知道") and missing == []


def test_decompositions_round_trip(mini_net):
    nodes = list(mini_net.nodes())
    text = serialize_decompositions(nodes)
    reparsed = parse_decompositions(text)
    assert reparsed == nodes
    assert serialize_decompositions(reparsed) == text
    rebuilt = build_network(reparsed)
    assert set(rebuilt.ids()) == set(mini_net.ids())


def test_frequencies_round_trip(mini_freq):
    text = serialize_frequencies(mini_freq)
    reparsed = parse_frequencies(text)
    assert reparsed.raw == mini_freq.raw
    assert reparsed.entries == mini_freq.entries
    assert serialize_frequencies(reparsed) == text


def test_order_round_trip():
    order = ["白", "勺", "的"]
    assert parse_order(serialize_order(order)) == order


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


def test_bytes_input_accepted():
    assert parse_order("白\n".encode("utf-8")) == ["白"]
    assert parse_frequencies("A\t1\n".encode("utf-8")).get("A") == 1.0
