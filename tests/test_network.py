"""Network construction, validation, closures, sharers."""

import itertools
import random

import pytest

from glyphorder import network
from glyphorder.ingest import parse_decompositions, parse_frequencies
from glyphorder.metrics import cluster_stats
from glyphorder.network import (CycleDetected, DanglingReference, DuplicateId, GlyphKind,
                                GlyphNode, InvalidNode, UnknownId, build_network)
from glyphorder.words import WordNetworkConfig, expand_with_words

from conftest import DATA_DIR, oracle_build_network, oracle_closure, random_network

P = GlyphKind.PRIMITIVE_CHARACTER
PC = GlyphKind.PRIMITIVE_COMPONENT
C = GlyphKind.COMPOUND
V = GlyphKind.VARIANT
W = GlyphKind.WORD


def fig1_nodes():
    return [
        GlyphNode("口", P, (), 3),
        GlyphNode("日", P, (), 4),
        GlyphNode("刀", P, (), 2),
        GlyphNode("火", P, (), 4),
        GlyphNode("灬", V, ("火",), 4),
        GlyphNode("召", C, ("刀", "口"), 5),
        GlyphNode("昭", C, ("日", "召"), 9),
        GlyphNode("照", C, ("昭", "灬"), 13),
    ]


def test_single_primitive():
    net = build_network([GlyphNode("口", P, (), 3)])
    assert len(net) == 1
    assert net.closure("口") == ()
    assert net.containers("口") == ()


def test_eight_node_network_acyclic():
    net = build_network(fig1_nodes())
    assert len(net) == 8
    assert set(net.closure("照")) == {"昭", "召", "日", "刀", "口", "灬", "火"}


def test_closure_is_deterministic_preorder():
    net = build_network(fig1_nodes())
    assert net.closure("照") == ("昭", "日", "召", "刀", "口", "灬", "火")
    assert net.closure("昭") == ("日", "召", "刀", "口")


def test_closure_variant_flag():
    net = build_network(fig1_nodes())
    # A variant's closure holds its base form, and so does every closure
    # that reaches the variant.
    assert "火" in net.closure("照")
    assert net.closure("灬") == ("火",)


def test_closure_diamond_dedupes_on_first_visit():
    net = build_network([
        GlyphNode("D", P, (), 1),
        GlyphNode("B", V, ("D",), 2),
        GlyphNode("C", V, ("D",), 2),
        GlyphNode("A", C, ("B", "C"), 4),
    ])
    assert net.closure("A") == ("B", "D", "C")


def test_cycle_detected_with_witness():
    nodes = [
        GlyphNode("A", C, ("B", "B"), 2),
        GlyphNode("B", C, ("A", "A"), 2),
    ]
    with pytest.raises(CycleDetected) as err:
        build_network(nodes)
    assert err.value.cycle == ["A", "B", "A"]


def test_self_loop_witness():
    with pytest.raises(CycleDetected) as err:
        build_network([GlyphNode("A", V, ("A",), 1)])
    assert err.value.cycle == ["A", "A"]


def _watch_cycle_check(monkeypatch, calls: list) -> None:
    """Record each run of the depth-first cycle check, which then runs."""
    check = network._check_acyclic

    def watched(by_id):
        calls.append(list(by_id))
        check(by_id)

    monkeypatch.setattr(network, "_check_acyclic", watched)


def test_components_first_file_skips_the_cycle_check(monkeypatch):
    calls = []
    _watch_cycle_check(monkeypatch, calls)
    text = (DATA_DIR / "decompositions.tsv").read_text(encoding="utf-8")
    net = build_network(parse_decompositions(text))
    assert len(net) == 43 and calls == []
    # Words name only earlier ids, so adding them is no reason either.
    expand_with_words(net, parse_frequencies("明白\t3\n知道\t2\n"), WordNetworkConfig())
    assert calls == []


def test_one_forward_edge_runs_the_cycle_check(monkeypatch):
    calls = []
    _watch_cycle_check(monkeypatch, calls)
    net = build_network(parse_decompositions("品\tc\t口 口 口\t9\n口\tp\t-\t3\n"))
    assert net.closure("品") == ("口",) and calls == [["品", "口"]]
    # 日 names 月, listed after it; 月 names 日 back.
    text = "口\tp\t-\t3\n日\tc\t口 月\t4\n月\tc\t日 口\t4\n"
    with pytest.raises(CycleDetected) as err:
        build_network(parse_decompositions(text))
    assert err.value.cycle == ["日", "月", "日"]
    assert len(calls) == 2


def test_extending_a_network_checks_the_new_nodes():
    base = build_network(fig1_nodes())
    base.closure("照")
    word = GlyphNode("照明", W, ("照", "明"), 0)
    with pytest.raises(DanglingReference, match="^照明: unresolved component 明$"):
        build_network([word], base=base)
    with pytest.raises(DuplicateId):
        build_network([GlyphNode("口", P, (), 1)], base=base)
    with pytest.raises(InvalidNode, match="word 日口 used as component"):
        build_network([GlyphNode("日口", W, ("日", "口"), 0),
                       GlyphNode("X", V, ("日口",), 1)], base=base)
    grown = build_network([GlyphNode("日口", W, ("日", "口"), 0)], base=base)
    whole = build_network(fig1_nodes() + [GlyphNode("日口", W, ("日", "口"), 0)])
    assert list(grown.nodes()) == list(whole.nodes())
    for glyph in whole.ids():
        assert grown.closure(glyph) == whole.closure(glyph)
        assert grown.containers(glyph) == whole.containers(glyph)
    # The base network is unchanged.
    assert "日口" not in base and base.containers("日") == ("昭",)


def test_duplicate_id_rejected():
    nodes = [GlyphNode("A", P, (), 1), GlyphNode("A", P, (), 2)]
    with pytest.raises(DuplicateId):
        build_network(nodes)


def test_dangling_reference_names_the_id():
    nodes = [GlyphNode("A", V, ("missing-one",), 1)]
    with pytest.raises(DanglingReference) as err:
        build_network(nodes)
    assert "missing-one" in str(err.value)


@pytest.mark.parametrize("node", [
    GlyphNode("A", P, ("B",), 1),
    GlyphNode("A", V, ("B", "C"), 1),
    GlyphNode("A", V, (), 1),
    GlyphNode("A", C, ("B",), 1),
    GlyphNode("A", W, ("B",), 0),
    GlyphNode("", P, (), 1),
    GlyphNode("A", P, (), -1),
    # Three checks fail; the empty id is named.
    GlyphNode("", V, (), -1),
])
def test_shape_violations_rejected(node):
    support = [GlyphNode("B", P, (), 1), GlyphNode("C", P, (), 1)]
    with pytest.raises(InvalidNode) as got:
        build_network(support + [node])
    with pytest.raises(InvalidNode) as want:
        oracle_build_network(support + [node])
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_word_used_as_component_rejected():
    nodes = [
        GlyphNode("A", P, (), 1),
        GlyphNode("B", P, (), 1),
        GlyphNode("AB", W, ("A", "B"), 0),
        GlyphNode("Z", V, ("AB",), 1),
    ]
    with pytest.raises(InvalidNode):
        build_network(nodes)


def test_unknown_id_lookups():
    net = build_network([GlyphNode("A", P, (), 1)])
    for call in (net.node, net.closure, net.containers):
        with pytest.raises(UnknownId):
            call("nope")
    with pytest.raises(UnknownId, match="^nope$"):
        net.components_of(["A", "nope", "other"])


def test_sharers_fig1_empty():
    # Sharers (items with a direct component in common) are looked up by
    # cluster_stats, whose d2 is the distance to the nearest one. No two
    # of Figure 1's glyphs share a direct component, so d2 is never defined.
    net = build_network(fig1_nodes())
    stats = cluster_stats(net, ["口", "日", "刀", "火", "灬", "召", "昭", "照"])
    assert [row.avg_d2 for row in stats.rows] == [None] * 8


def test_sharers_direct_and_closure():
    net = build_network([
        GlyphNode("A", P, (), 1),
        GlyphNode("B", P, (), 1),
        GlyphNode("C", P, (), 1),
        GlyphNode("E", C, ("A", "B"), 2),
        GlyphNode("F", C, ("A", "C"), 2),
        GlyphNode("G", C, ("E", "C"), 3),
    ])
    # E's only sharer is F (component A). G sits next to E and reaches A
    # and B through E, but shares no direct component with it, so E's d2
    # is its distance to F, 2, not 1.
    stats = cluster_stats(net, ["A", "B", "C", "E", "G", "F"])
    assert [row.avg_d2 for row in stats.rows[:4]] == [None, None, None, 2.0]


def test_multiplicity_kept_in_components_deduped_in_closure():
    net = build_network([
        GlyphNode("口", P, (), 3),
        GlyphNode("品", C, ("口", "口", "口"), 9),
    ])
    assert net.node("品").components == ("口", "口", "口")
    assert net.closure("品") == ("口",)
    assert net.containers("口") == ("品",)


def test_closure_properties_random():
    rng = random.Random(20260814)
    for _ in range(60):
        net = random_network(rng, max_nodes=25)
        for glyph in net.ids():
            cl = net.closure(glyph)
            assert len(cl) == len(set(cl))
            assert glyph not in cl
            members = set(cl)
            for member in cl:
                # Expansion is idempotent and acyclicity holds locally.
                assert set(net.closure(member)) <= members
                assert glyph not in net.closure(member)


def _variant_chain(depth: int) -> list[GlyphNode]:
    """v0, a primitive, and v1 .. v(depth-1), each a variant of the last."""
    return [GlyphNode("v0", P, (), 1)] + [GlyphNode("v%d" % k, V, ("v%d" % (k - 1),), 1)
                                          for k in range(1, depth)]


def _comb(depth: int) -> list[GlyphNode]:
    """v0, then v_k = v_(k-1) + p_k for k < depth, each p_k a primitive."""
    nodes = [GlyphNode("v0", P, (), 1)]
    for k in range(1, depth):
        nodes += [GlyphNode("p%d" % k, P, (), 1),
                  GlyphNode("v%d" % k, C, ("v%d" % (k - 1), "p%d" % k), 2)]
    return nodes


def test_closure_of_a_deep_variant_chain():
    # Deeper than Python's default recursion limit of 1,000 frames, which
    # a recursive walk would exceed.
    net = build_network(_variant_chain(1500))
    assert net.closure("v1499") == tuple("v%d" % k for k in range(1498, -1, -1))


def test_closure_cache_consistency_random():
    # Query order never changes a closure: asked top-down, bottom-up or
    # shuffled on a fresh network, each equals the uncached depth-first
    # walk, on random networks and on two deep shapes.
    rng = random.Random(99)
    nets = itertools.chain((random_network(rng, max_nodes=20) for _ in range(20)),
                           (build_network(_variant_chain(300)), build_network(_comb(300))))
    for net in nets:
        ids = list(net.ids())
        expected = {g: oracle_closure(net, g) for g in ids}
        shuffled = rng.sample(ids, len(ids))
        for queries in (ids[::-1], ids, shuffled):
            fresh = build_network(list(net.nodes()))
            assert {g: fresh.closure(g) for g in queries} == expected
