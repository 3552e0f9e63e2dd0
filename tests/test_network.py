"""Network construction, validation, closures, sharers."""

import random

import pytest

from glyphorder.metrics import cluster_stats
from glyphorder.network import (CycleDetected, DanglingReference, DuplicateId, GlyphKind,
                                GlyphNode, InvalidNode, UnknownId, build_network)

from conftest import oracle_closure, random_network

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
])
def test_shape_violations_rejected(node):
    support = [GlyphNode("B", P, (), 1), GlyphNode("C", P, (), 1)]
    with pytest.raises(InvalidNode):
        build_network(support + [node])


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


def test_closure_cache_consistency_random():
    # Top-down queries cache every closure the descent finishes on the
    # way; bottom-up and random-order queries splice closures cached by
    # earlier ones. Each must equal the uncached depth-first descent.
    rng = random.Random(99)
    for _ in range(20):
        net = random_network(rng, max_nodes=20)
        ids = list(net.ids())
        expected = {g: oracle_closure(net, g) for g in ids}
        shuffled = rng.sample(ids, len(ids))
        for queries in (ids[::-1], ids, shuffled):
            fresh = build_network(list(net.nodes()))
            assert {g: fresh.closure(g) for g in queries} == expected
