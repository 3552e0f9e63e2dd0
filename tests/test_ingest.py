"""File format parsing, normalization, serialization round-trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glyphorder.costmodel import CostParams, centralities
from glyphorder.ingest import (DuplicateToken, EmptyTable, FrequencyTable, ParseError,
                               parse_decompositions, parse_frequencies, parse_order,
                               parse_order_csv, parse_order_file, parse_target_list,
                               serialize_order)
from glyphorder.network import GlyphKind, NetworkError, build_network

from conftest import (oracle_build_network, oracle_centralities, oracle_parse_decompositions,
                      oracle_parse_frequencies, random_network)


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
    ("\tp\t-\t1\n", "empty id"),
    ("-\tp\t-\t1\n", "id is the empty-components marker"),
    ("a b\tp\t-\t1\n", "id contains a space"),
    (" 口\tp\t-\t3\n", "id starts with a space"),
    # The order CSV separates fields by commas, so it could not carry this id.
    ("a,b\tp\t-\t3\n", "id contains a comma"),
    # Records failing two checks report the first in the contract's order.
    ("a b\tq\t-\tx\n", "unknown kind before strokes and id"),
    ("\tp\t-\t-3\n", "negative strokes before empty id"),
    ("a,b\tp\t-\t-0\n", "comma after strokes of -0"),
])
def test_parse_decompositions_errors(bad, what):
    with pytest.raises(ParseError, match="^line 1: "):
        parse_decompositions(bad)
    assert _raised(parse_decompositions, bad) == _raised(oracle_parse_decompositions, bad)


def _raised(parse, text):
    """The type and message of the exception `parse(text)` raises."""
    with pytest.raises(Exception) as err:
        parse(text)
    return type(err.value), str(err.value)


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
    # No glyph id is empty or holds whitespace, so such a token could
    # only dilute the shares of the others.
    with pytest.raises(ParseError, match="^line 2: empty token$"):
        parse_frequencies("口\t5\n\t7\n")
    for token in (" ", "口 ", "口\u3000日"):
        with pytest.raises(ParseError, match="^line 2: token .* contains whitespace$"):
            parse_frequencies("口\t5\n%s\t7\n" % token)
    # The type and message match the oracle's, also where a record fails
    # two checks and the first in the contract's order must be named.
    for text in ("# nothing\n", "A\t3\nA\t1\n", "A\t0\n", "A\t3.5\n", "A\t+5\n", "A 3\n",
                 "口\t5\n\t7\n", "口\t5\n口 \t7\n", "A\t1\nA\tx\n", " \t0\n"):
        assert _raised(parse_frequencies, text) == _raised(oracle_parse_frequencies, text)


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


def test_order_csv_row_with_too_few_columns():
    text = "rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq\n1,白,p,1.5,0.1,0.07,1.5,0.1\n2\n"
    with pytest.raises(ParseError, match="^line 3: too few columns$"):
        parse_order_csv(text)


def test_frequency_table_from_counts():
    table = FrequencyTable.from_counts({"A": 3, "B": 1})
    assert table.entries == {"A": 0.75, "B": 0.25} and table.total_raw == 4
    # Only the benchmark's traced runs take len() of a table.
    assert len(table) == 2
    for count in (0, -2):
        with pytest.raises(ParseError, match="^count for B must be positive$"):
            FrequencyTable.from_counts({"A": 3, "B": count})


def test_order_file_format_follows_first_content_line():
    csv = "rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq\r\n1,白,p,1.5,0.1,0.07,1.5,0.1\r\n"
    # Comments and blank lines, CRLF ones included, come before the header.
    assert parse_order_file("# note\r\n\r\n\n" + csv) == ["白"]
    assert parse_order_file("#rank,glyph,\n白\n勺\n") == ["白", "勺"]
    assert parse_order_file(" rank,glyph,\n") == ["rank,glyph,"]
    assert parse_order_file("") == []
    with pytest.raises(DuplicateToken, match="line 3: duplicate glyph 白"):
        parse_order_file(csv + "2,白,p,1.5,0.1,0.07,3.0,0.2\n")


def _inject_faults(rng: random.Random, net) -> list[list[str]]:
    """Decomposition rows of `net`, each with some chance of a duplicate
    id, a dangling component, a shape error and a back edge, and, on one
    line, some of a bad field count, kind, stroke count and id."""
    rows = [[n.id, n.kind.code, " ".join(n.components) or "-", str(n.strokes)]
            for n in net.nodes()]
    at = {row[0]: row for row in rows}
    # A compound in a glyph's closure that lists the glyph closes a cycle,
    # as does a compound listing itself.
    back_edges = [(row, at[m]) for row in rows for m in net.closure(row[0]) if at[m][1] == "c"]
    back_edges += [(row, row) for row in rows if row[1] == "c"]
    # Half the faults land on one row, where the order of checks shows.
    target = rng.choice(rows)

    def pick():
        return target if rng.random() < 0.5 else rng.choice(rows)

    if rng.random() < 0.2:
        pick()[0] = rng.choice(rows)[0]
    if rng.random() < 0.15:
        row = pick()
        row[2] = "nowhere" if row[2] == "-" else row[2] + " nowhere"
    if rng.random() < 0.2:
        pick()[1] = rng.choice(["p", "pc", "c", "v"])
    if back_edges and rng.random() < 0.3:
        container, member = rng.choice(back_edges)
        member[2] += " " + container[0]
    if rng.random() < 0.4:
        row = pick()
        faults = rng.sample(["kind", "strokes", "id", "fields"], rng.randint(1, 3))
        if "kind" in faults:
            row[1] = rng.choice(["q", "w", "P", "", "pcc"])
        if "strokes" in faults:
            row[3] = rng.choice(["x", "+3", "-2", "-0", " 7", "\u0663", "", "1_0"])
        if "id" in faults:
            row[0] = rng.choice(["", "-", "a b", "a\u3000b", "x\u00a0y", "a,b", " " + row[0]])
        if "fields" in faults and rng.random() < 0.5:
            row.append("extra")
        elif "fields" in faults:
            row.pop()
    return rows


def _ingest_outcome(text, freq, params, parse, build, rank):
    """Nodes, network, closures and centralities, or the error raised."""
    try:
        nodes = parse(text)
        net = build(nodes)
    except (ParseError, NetworkError) as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)
    return (nodes, list(net.nodes()), {g: net.containers(g) for g in net.ids()},
            {g: net.closure(g) for g in net.ids()},
            [rank(net, freq, p).entries for p in params])


def _check_ingest_against_oracles(seed: int, shuffled: bool) -> None:
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=rng.choice([3, 12, 25]))
    rows = _inject_faults(rng, net)
    if shuffled:
        # Containers before their components: forward references.
        rng.shuffle(rows)
    lines = []
    for row in rows:
        lines.extend(rng.choice([[], [], [], ["# note"], [""]]))
        lines.append("\t".join(row))
    text = "\n".join(lines) + rng.choice(["", "\n"])

    ids = [row[0] for row in rows]
    freq = FrequencyTable.from_counts(
        {g: rng.randint(1, 50) for g in rng.sample(ids, rng.randint(0, len(ids)))} | {"zz": 3})
    primitives = frozenset(row[0] for row in rows if row[1] in ("p", "pc"))
    params = [CostParams(gamma=rng.choice([0.0, 0.1, 0.25, rng.uniform(0.0, 3.0)]),
                         known=rng.choice([frozenset(), primitives,
                                           frozenset(rng.sample(ids, rng.randint(0, len(ids))))]),
                         suppression={g: rng.choice([0.0, 0.5, 1.0]) for g in rng.sample(ids, 2)
                                      if rng.random() < 0.3})
              for _ in range(2)]
    expected = _ingest_outcome(text, freq, params, oracle_parse_decompositions,
                               oracle_build_network, oracle_centralities)
    assert _ingest_outcome(text, freq, params, parse_decompositions,
                           build_network, centralities) == expected


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ingest_matches_frozen_oracles(seed):
    _check_ingest_against_oracles(seed, shuffled=False)


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ingest_in_any_record_order_matches_frozen_oracles(seed):
    _check_ingest_against_oracles(seed, shuffled=True)


_TOKENS = ["口", "日", "的", "明白", "知道", "e\u0301", "a", "zz", "#x", "a,b", "-"]


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_frequencies_match_frozen_oracle(seed):
    """Each record has some chance of a bad field count, token or count
    or a repeated token; comments, blank lines, CRLF and a byte-order mark
    come and go."""
    rng = random.Random(seed)
    rows = [[token, str(rng.randint(1, 10**6))]
            for token in rng.sample(_TOKENS, rng.randint(0, len(_TOKENS)))]
    for row in rows:
        if rng.random() < 0.02:
            row.append(rng.choice(["1", ""]))
        elif rng.random() < 0.02:
            row.pop()
        if rng.random() < 0.05:
            row[0] = rng.choice(["", " ", "口 ", " 口", "a b", "口\u3000日", "\u00a0", "x\ty"])
        if rng.random() < 0.05:
            row[0] = rng.choice(rows)[0]
        if len(row) > 1 and rng.random() < 0.1:
            row[1] = rng.choice(["0", "00", "-0", "-5", "+5", "\u0663", "1_0", " 7", "7 ",
                                 "", "x", "3.5", "0007", "\uff17"])
    lines = []
    for row in rows:
        lines.extend(rng.choice([[], [], [], ["# note"], ["#"], [""], ["\r"]]))
        lines.append("\t".join(row))
    newline = rng.choice(["\n", "\n", "\r\n"])
    text = rng.choice(["", "", "\ufeff"]) + newline.join(lines) + rng.choice(["", newline])

    def outcome(parse):
        try:
            table = parse(text)
        except ParseError as exc:
            return type(exc), str(exc)
        return table.entries, table.raw, table.total_raw

    assert outcome(parse_frequencies) == outcome(oracle_parse_frequencies)
