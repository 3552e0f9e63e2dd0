"""Word-network expansion and target-subset evaluation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glyphorder.costmodel import CostParams, centralities, cost
from glyphorder.ingest import FrequencyTable
from glyphorder.metrics import curve
from glyphorder.network import GlyphKind, GlyphNode, build_network
from glyphorder.ordering import priority_topo_sort, target_pool, validate_topological
from glyphorder.words import DEFAULT_TOP_K, WordNetworkConfig, expand_with_words

from conftest import oracle_expand_with_words, random_network


def test_word_nodes_added_with_characters_as_components(mini_net, mini_word_freq):
    net, freq, report = expand_with_words(mini_net, mini_word_freq,
                                          WordNetworkConfig())
    node = net.node("知道")
    assert node.kind is GlyphKind.WORD
    assert node.components == ("知", "道")
    assert cost(net.node("知道"), CostParams()) == 1.0
    assert cost(net.node("茶叶"), CostParams()) == 1.0
    # The word table comes back untouched: same normalization, same ids.
    assert freq is mini_word_freq


def test_unresolvable_words_reported_and_dropped(mini_net, mini_word_freq):
    net, _, report = expand_with_words(mini_net, mini_word_freq,
                                       WordNetworkConfig())
    dropped = dict(report)
    assert "什么" in dropped and "么" in dropped["什么"]
    assert "早上" in dropped and "上" in dropped["早上"]
    assert "森林" in dropped and "林" in dropped["森林"]
    for word in dropped:
        assert word not in net
    # Single-character tokens pass through silently, in or out of the net.
    assert "山" not in dropped and "山" not in net
    assert "的" in net and net.node("的").kind is GlyphKind.COMPOUND


def test_drop_reason_names_a_multi_code_point_id():
    accented = "e\u0301"
    net = build_network([GlyphNode("口", GlyphKind.PRIMITIVE_CHARACTER, (), 3),
                         GlyphNode(accented, GlyphKind.PRIMITIVE_CHARACTER, (), 2)])
    freq = FrequencyTable.from_counts({"口" + accented: 5, "口日": 4, accented: 3})
    _, _, report = expand_with_words(net, freq, WordNetworkConfig())
    assert report == [
        ("口" + accented, "contains multi-code-point id %s; words are split into "
                          "single code points" % accented),
        ("口日", "unknown character 日"),
        (accented, "id already present in the network"),
    ]


def test_word_spelling_a_multi_code_point_id_from_its_parts_is_dropped():
    # Every code point of 口é is an id, but é (e + U+0301) is an id too:
    # a word built from 口, e and U+0301 would name three other glyphs.
    accented = "e\u0301"
    net = build_network([GlyphNode(g, GlyphKind.PRIMITIVE_CHARACTER, (), 1)
                         for g in ("口", "e", "\u0301", accented)])
    freq = FrequencyTable.from_counts({"口" + accented: 5, "口e": 4})
    out, _, report = expand_with_words(net, freq, WordNetworkConfig())
    assert "口" + accented not in out
    assert out.node("口e").components == ("口", "e")
    assert report == [("口" + accented, "contains multi-code-point id %s; words are "
                                         "split into single code points" % accented)]


@settings(max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_expansion_matches_frozen_oracle(seed):
    rng = random.Random(seed)
    base = random_network(rng, max_nodes=rng.choice([5, 15, 30]))
    # Single code points as ids, and e with a combining acute, whose
    # parts are ids or not.
    rename = {glyph: chr(0x4E00 + k) for k, glyph in enumerate(base.ids())}
    nodes = [GlyphNode(rename[n.id], n.kind, tuple(rename[c] for c in n.components), n.strokes)
             for n in base.nodes()]
    extra = ["e", "\u0301", "e\u0301"]
    nodes += [GlyphNode(glyph, GlyphKind.PRIMITIVE_CHARACTER, (), 1)
              for glyph in rng.sample(extra, rng.randint(0, 3))]
    net = build_network(nodes)
    for glyph in rng.sample(list(net.ids()), rng.randint(0, len(net))):
        net.closure(glyph)
    alphabet = list(net.ids()) + extra + ["山", "水"]
    counts = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4))): rng.randint(1, 9)
              for _ in range(rng.randint(1, 30))}
    top_k = rng.randint(1, len(counts) + 2)
    got, _, report = expand_with_words(net, FrequencyTable.from_counts(counts),
                                       WordNetworkConfig(top_k=top_k))
    want, want_report = oracle_expand_with_words(net, FrequencyTable.from_counts(counts), top_k)
    assert report == want_report
    assert list(got.nodes()) == list(want.nodes())
    for glyph in want.ids():
        assert got.closure(glyph) == want.closure(glyph)
        assert got.containers(glyph) == want.containers(glyph)


def test_top_k_cuts_by_frequency_rank(mini_word_freq):
    assert DEFAULT_TOP_K == 10000
    with pytest.raises(ValueError):
        WordNetworkConfig(top_k=0)


def test_top_k_one_keeps_only_the_most_frequent(mini_net):
    freq = FrequencyTable.from_counts({"知道": 50, "明白": 40, "好": 30})
    net, _, report = expand_with_words(mini_net, freq, WordNetworkConfig(top_k=1))
    assert "知道" in net and "明白" not in net
    assert report == []
    wider, _, _ = expand_with_words(mini_net, freq, WordNetworkConfig(top_k=2))
    assert "明白" in wider


def test_words_are_sinks(mini_net, mini_word_freq):
    net, _, _ = expand_with_words(mini_net, mini_word_freq, WordNetworkConfig())
    for glyph in net.ids():
        if net.node(glyph).kind is GlyphKind.WORD:
            assert net.containers(glyph) == ()


def test_word_order_is_hierarchal(mini_net, mini_word_freq):
    net, freq, _ = expand_with_words(mini_net, mini_word_freq, WordNetworkConfig())
    table = centralities(net, freq, CostParams())
    order = priority_topo_sort(net, table, set(net.ids()))
    assert validate_topological(net, order) == []
    ids = order.ids()
    assert ids.index("知") < ids.index("知道")
    assert ids.index("道") < ids.index("知道")


def target_curve(net, freq, target, c0):
    """The --target path: pool, sweep, curve. Returns (curve, order, missing)."""
    pool, missing = target_pool(net, target)
    order = priority_topo_sort(net, centralities(net, freq, CostParams()), pool)
    return curve(net, order, c0), order, missing


def test_target_subset_curve(mini_net, mini_word_freq):
    net, freq, _ = expand_with_words(mini_net, mini_word_freq, WordNetworkConfig())
    cv, order, missing = target_curve(net, freq, ["知道", "什么", "好", "不存在"], c0=100.0)
    assert missing == ["什么", "不存在"]
    ids = order.ids()
    assert set(ids) >= {"知道", "好", "知", "道", "矢", "口", "女", "子"}
    assert "茶" not in ids
    assert validate_topological(net, order) == []
    # Frequencies stay normalized over the whole corpus, so the curve
    # plateaus below 1 even with every target item learned.
    assert cv.n_learned == len(ids)
    assert 0.0 < cv.final_efficiency < 0.5


def test_empty_target_curve_is_flat(mini_net, mini_word_freq):
    net, freq, _ = expand_with_words(mini_net, mini_word_freq, WordNetworkConfig())
    cv, order, missing = target_curve(net, freq, ["不存在"], c0=10.0)
    assert missing == ["不存在"]
    assert order.ids() == []
    assert cv.final_efficiency == 0.0
    assert cv.mean_efficiency == 0.0


def test_full_target_matches_unrestricted(mini_net, mini_word_freq):
    net, freq, _ = expand_with_words(mini_net, mini_word_freq, WordNetworkConfig())
    cv, order, missing = target_curve(net, freq, sorted(net.ids()), c0=200.0)
    assert missing == []
    table = centralities(net, freq, CostParams())
    direct = priority_topo_sort(net, table, set(net.ids()))
    assert order.ids() == direct.ids()


def test_bundled_corpus_word_curve_regression(mini_net, mini_freq, mini_word_freq):
    """Frozen regression on the bundled corpus. The two corpora are
    normalized independently, so no inequality between the character and
    word curves is principled; the values themselves are pinned."""
    params = CostParams()
    char_table = centralities(mini_net, mini_freq, params)
    char_cv = curve(mini_net, priority_topo_sort(mini_net, char_table,
                                                 set(mini_net.ids())), c0=20.0)
    net, freq, _ = expand_with_words(mini_net, mini_word_freq, WordNetworkConfig())
    word_table = centralities(net, freq, params)
    word_cv = curve(net, priority_topo_sort(net, word_table, set(net.ids())),
                    c0=20.0)
    assert char_cv.n_learned == 15
    assert char_cv.final_efficiency == pytest.approx(0.5291486129086714, abs=1e-12)
    assert char_cv.mean_efficiency == pytest.approx(0.32753418490799613, abs=1e-12)
    assert word_cv.n_learned == 15
    assert word_cv.final_efficiency == pytest.approx(0.6077732727198263, abs=1e-12)
    assert word_cv.mean_efficiency == pytest.approx(0.35906028586640454, abs=1e-12)
