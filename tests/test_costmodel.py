"""Cost formulas, known/suppression adjustments, centrality ranking."""

import math
import random

import pytest

from glyphorder.costmodel import CostParams, centralities, cost
from glyphorder.ingest import FrequencyTable
from glyphorder.network import GlyphKind, GlyphNode, UnknownId, build_network

from conftest import random_network

P = GlyphKind.PRIMITIVE_CHARACTER


def test_primitive_cost_examples():
    params = CostParams(gamma=0.1)
    assert cost(GlyphNode("口", P, (), 3), params) == pytest.approx(1.3)
    assert cost(GlyphNode("豕", P, (), 7), params) == 1.7


def test_missing_strokes_cost_exactly_one():
    assert cost(GlyphNode("A", P, (), 0), CostParams()) == 1.0


def test_compound_cost_counts_combinations(mini_net):
    params = CostParams()
    assert cost(mini_net.node("的"), params) == 1.0
    assert cost(mini_net.node("茶"), params) == 2.0
    assert cost(mini_net.node("品"), params) == 2.0
    assert cost(mini_net.node("森"), params) == 2.0


def test_variant_flat_cost(mini_net):
    assert cost(mini_net.node("灬"), CostParams()) == 1.0
    # The flat cost is a class constant, not a constructor argument.
    with pytest.raises(TypeError):
        CostParams(variant_cost=0.5)


def test_word_cost_is_characters_minus_one():
    word = GlyphNode("知道", GlyphKind.WORD, ("知", "道"), 0)
    assert cost(word, CostParams()) == 1.0
    three = GlyphNode("ABC", GlyphKind.WORD, ("A", "B", "C"), 0)
    assert cost(three, CostParams()) == 2.0


def test_known_forces_zero():
    params = CostParams(known=frozenset({"口"}))
    assert cost(GlyphNode("口", P, (), 3), params) == 0.0


def test_suppression_scales_cost():
    params = CostParams(suppression={"口": 0.5})
    assert cost(GlyphNode("口", P, (), 3), params) == pytest.approx(0.65)
    zero = CostParams(suppression={"口": 0.0})
    assert cost(GlyphNode("口", P, (), 3), zero) == 0.0


def test_param_validation():
    with pytest.raises(ValueError):
        CostParams(gamma=-0.1)
    with pytest.raises(ValueError):
        CostParams(suppression={"A": 1.5})


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_non_finite_gamma_rejected(gamma):
    # A NaN gamma makes every primitive's eta NaN, and sorting NaN keys
    # leaves the pool in set (hash) order, so runs were not reproducible.
    with pytest.raises(ValueError, match="finite"):
        CostParams(gamma=gamma)


def test_centrality_arithmetic():
    net = build_network([GlyphNode("A", P, (), 3)])
    freq = FrequencyTable.from_counts({"A": 2, "B": 98})
    table = centralities(net, freq, CostParams(gamma=0.1))
    entry = table["A"]
    assert entry.f == pytest.approx(0.02)
    assert entry.c == pytest.approx(1.3)
    assert entry.eta == pytest.approx(0.02 / 1.3)
    assert entry.eta == pytest.approx(0.015385, abs=5e-7)


def test_every_node_gets_an_entry_and_absent_freq_is_zero(mini_net, mini_freq):
    table = centralities(mini_net, mini_freq, CostParams())
    for glyph in mini_net.ids():
        assert glyph in table
    assert table["艹"].f == 0.0
    assert table["艹"].eta == 0.0


def test_zero_frequency_eta_zero():
    net = build_network([GlyphNode("A", P, (), 3), GlyphNode("B", P, (), 1)])
    freq = FrequencyTable.from_counts({"B": 1})
    table = centralities(net, freq, CostParams())
    assert table["A"].eta == 0.0


def test_known_with_frequency_ranks_first():
    net = build_network([
        GlyphNode("A", P, (), 3),
        GlyphNode("B", P, (), 1),
        GlyphNode("K", P, (), 9),
    ])
    freq = FrequencyTable.from_counts({"A": 90, "B": 9, "K": 1})
    table = centralities(net, freq, CostParams(known=frozenset({"K"})))
    assert table["K"].c == 0.0
    assert math.isinf(table["K"].eta)
    assert table.ranked()[0] == "K"


def test_zero_cost_zero_freq_convention():
    net = build_network([GlyphNode("A", P, (), 3), GlyphNode("K", P, (), 9)])
    freq = FrequencyTable.from_counts({"A": 1})
    table = centralities(net, freq, CostParams(known=frozenset({"K"})))
    assert table["K"].eta == 0.0
    # Zero-cost items still rank before everything else.
    assert table.ranked() == ["K", "A"]


def test_ranking_ties_break_by_freq_then_id():
    net = build_network([
        GlyphNode("A", P, (), 0),
        GlyphNode("B", P, (), 0),
        GlyphNode("C", P, (), 0),
    ])
    # Equal etas (same f, same c): lexicographic id decides.
    freq = FrequencyTable.from_counts({"A": 5, "B": 5, "C": 5})
    table = centralities(net, freq, CostParams())
    assert table.ranked() == ["A", "B", "C"]


def test_ranking_deterministic_random():
    rng = random.Random(7)
    for _ in range(20):
        net = random_network(rng, max_nodes=15)
        counts = {g: rng.randint(1, 100) for g in net.ids() if rng.random() < 0.8}
        counts["x-0"] = counts.get("x-0", 1)
        freq = FrequencyTable.from_counts(counts)
        table = centralities(net, freq, CostParams())
        ranking = table.ranked()
        assert ranking == table.ranked()
        etas = [table[g].eta for g in ranking]
        finite = [e for e in etas if not math.isinf(e)]
        assert finite == sorted(finite, reverse=True)


def test_scoped_table_is_the_whole_table_restricted_to_ids():
    # Each entry depends only on its own node and frequency, so a table
    # over some ids holds the whole table's entries for them, in the
    # order given.
    rng = random.Random(21)
    for _ in range(50):
        net = random_network(rng, max_nodes=20)
        ids = list(net.ids())
        counts = {g: rng.randint(1, 50) for g in ids if rng.random() < 0.7}
        counts.setdefault(ids[-1], 1)
        params = CostParams(gamma=rng.choice([0.0, 0.1, 0.25]),
                            known=frozenset(g for g in ids if rng.random() < 0.2),
                            suppression={g: rng.choice([0.0, 1 / 3, 0.5, 1.0])
                                         for g in ids if rng.random() < 0.2})
        freq = FrequencyTable.from_counts(counts)
        whole = centralities(net, freq, params)
        assert list(whole.entries) == ids
        scope = rng.sample(ids, rng.randint(1, len(ids)))
        scoped = centralities(net, freq, params, scope)
        assert list(scoped.entries) == scope
        assert scoped.entries == {g: whole[g] for g in scope}
        assert scoped.ranked() == whole.ranked(scope)


def test_scoped_table_over_no_ids_is_empty(mini_net, mini_freq):
    assert centralities(mini_net, mini_freq, CostParams(), []).entries == {}


def test_scoped_table_rejects_an_absent_id(mini_net, mini_freq):
    with pytest.raises(UnknownId, match="^Z$"):
        centralities(mini_net, mini_freq, CostParams(), ["口", "Z"])
