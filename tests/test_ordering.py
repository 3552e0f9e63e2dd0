"""The repair sweep, baselines, brute force, and validity checking."""

import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import glyphorder.network
from glyphorder.costmodel import (Centrality, CentralityTable, CostParams, benefit_ratio,
                                  centralities)
from glyphorder.metrics import CostMode, curve
from glyphorder.ingest import parse_target_list
from glyphorder.network import (DecompositionNetwork, GlyphKind, GlyphNode, UnknownId,
                                build_network)
from glyphorder.ordering import (Provenance, TooLarge, Violation, _place,
                                 brute_force_best_order, expand_selection, external_order,
                                 kahn_order, priority_topo_sort, pure_frequency_order,
                                 serialize_order_csv, target_pool, validate_topological)
from glyphorder.words import WordNetworkConfig, expand_with_words

from conftest import (DATA_DIR, enumerate_topological, oracle_brute_force,
                      oracle_expand_selection, oracle_linked_sweep, oracle_place, oracle_sweep,
                      oracle_sweep_from, oracle_validate_topological, random_centralities,
                      random_network, table_from_counts)

GOLDEN = Path(__file__).resolve().parent / "golden"
P = GlyphKind.PRIMITIVE_CHARACTER
C = GlyphKind.COMPOUND


def small_net():
    return build_network([
        GlyphNode("白", P, (), 5),
        GlyphNode("勺", P, (), 3),
        GlyphNode("的", C, ("白", "勺"), 8),
    ])


def small_table():
    return CentralityTable({
        "的": Centrality(f=0.5, c=1.0, eta=0.5),
        "白": Centrality(f=0.3, c=1.5, eta=0.2),
        "勺": Centrality(f=0.013, c=1.3, eta=0.01),
    })


def test_compound_pulls_both_components_left():
    order = priority_topo_sort(small_net(), small_table(), {"的"})
    assert order.ids() == ["白", "勺", "的"]
    assert order.provenance is Provenance.OPTIMIZED


def test_already_topological_input_unchanged():
    rng = random.Random(4242)
    for _ in range(150):
        net = random_network(rng, max_nodes=12)
        ids = kahn_order_ids(net)
        n = len(ids)
        entries = {g: Centrality(f=1.0 / n, c=1.0, eta=float(n - k))
                   for k, g in enumerate(ids)}
        table = CentralityTable(entries)
        assert table.ranked() == ids
        out = priority_topo_sort(net, table, set(ids))
        assert out.ids() == ids


def kahn_order_ids(net, pool=None):
    """Frozen first-in-first-out Kahn over `pool` (default: the whole
    network): the queue is seeded with the sorted ready ids, and each
    scheduled id releases its sorted containers that lie in the pool."""
    pool = set(net.ids()) if pool is None else pool
    blocked = {g: len(set(net.node(g).components) & pool) for g in pool}
    queue = sorted(g for g, b in blocked.items() if b == 0)
    out = []
    head = 0
    while head < len(queue):
        glyph = queue[head]
        head += 1
        out.append(glyph)
        for parent in sorted(net.containers(glyph)):
            if parent in blocked:
                blocked[parent] -= 1
                if blocked[parent] == 0:
                    queue.append(parent)
    return out


def test_matches_naive_oracle_on_random_networks():
    rng = random.Random(20260814)
    for _ in range(300):
        net = random_network(rng, max_nodes=18)
        table = random_centralities(rng, net)
        ids = list(net.ids())
        select = set(rng.sample(ids, rng.randint(1, len(ids))))
        expected, _ = oracle_sweep(net, table, select)
        got = priority_topo_sort(net, table, select)
        assert got.ids() == expected


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), distinct_eta=st.booleans())
def test_matches_naive_oracle_on_larger_networks(seed, distinct_eta):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=200, sparse=rng.random() < 0.3)
    while len(net) < 50:
        net = random_network(rng, max_nodes=200, sparse=rng.random() < 0.3)
    table = random_centralities(rng, net, distinct_eta=distinct_eta)
    ids = list(net.ids())
    select = set(rng.sample(ids, rng.randint(1, len(ids))))
    expected, _ = oracle_sweep(net, table, select)
    assert priority_topo_sort(net, table, select).ids() == expected


def test_wide_closure_walk_matches_oracle():
    # W lists k zero-frequency components before S, which V shares.
    # While W is repaired its Z's land just left of it first, so S's
    # walk passes all k of them on its way to the front.
    k = 6
    zs = ["Z%d" % i for i in range(k)]
    net = build_network([GlyphNode(z, P, (), 1) for z in zs] + [
        GlyphNode("S", P, (), 2),
        GlyphNode("W", C, tuple(zs) + ("S",), 9),
        GlyphNode("V", C, ("S", zs[-1]), 4),
    ])
    entries = {z: Centrality(f=0.0, c=1.0, eta=0.0) for z in zs}
    entries.update({
        "W": Centrality(f=0.5, c=0.1, eta=5.0),
        "V": Centrality(f=0.4, c=0.1, eta=4.0),
        "S": Centrality(f=0.3, c=0.1, eta=3.0),
    })
    table = CentralityTable(entries)
    expected, _ = oracle_sweep(net, table, {"W", "V"})
    got = priority_topo_sort(net, table, {"W", "V"}).ids()
    assert got == expected == ["S"] + zs + ["W", "V"]
    assert validate_topological(net, got) == []


def test_head_pulls_positive_glyphs_across_itself():
    # H and G are known and never seen: eta 0, ranked right after the
    # infinite etas. P pulls a and z across H first, then H pulls b,
    # which lands right of a, its equal. G holds P, so it pulls P across
    # too, and P then pulls a and z in front of itself again.
    net = build_network([
        GlyphNode("a", P, (), 1),
        GlyphNode("b", P, (), 1),
        GlyphNode("z", P, (), 1),
        GlyphNode("P", C, ("a", "z"), 2),
        GlyphNode("H", C, ("b", "z"), 2),
        GlyphNode("G", GlyphKind.VARIANT, ("P",), 2),
    ])
    table = CentralityTable({
        "G": Centrality(f=0.0, c=0.0, eta=0.0),
        "H": Centrality(f=0.0, c=0.0, eta=0.0),
        "P": Centrality(f=0.5, c=1.0, eta=0.5),
        "a": Centrality(f=0.2, c=1.0, eta=0.2),
        "b": Centrality(f=0.2, c=1.0, eta=0.2),
        "z": Centrality(f=0.1, c=1.0, eta=0.1),
    })
    for select, expected in (({"P", "H"}, ["a", "b", "z", "H", "P"]),
                             ({"G", "H"}, ["a", "z", "P", "b", "G", "H"])):
        assert oracle_sweep(net, table, select)[0] == expected
        assert priority_topo_sort(net, table, select).ids() == expected


def sparse_centralities(rng, net, zero_freq_share, zero_cost):
    """Centralities by the library's eta convention from small integer
    counts and a few costs, so etas tie often. `zero_freq_share` of the
    glyphs never occur; `zero_cost` is "none", "frequent" (only glyphs
    that occur may cost 0, so every eta-0 glyph has a positive cost),
    "any" (zero-cost glyphs of zero frequency too) or "known" (the
    library's `centralities` of those counts, with all primitives known,
    random compounds known, both, or random compounds suppressed to 0)."""
    counts = {g: 0 if rng.random() < zero_freq_share else rng.randint(1, 4) for g in net.ids()}
    if zero_cost == "known":
        primitives = {node.id for node in net.nodes() if node.kind.is_primitive}
        some = {node.id for node in net.nodes() if node.kind is C and rng.random() < 0.1}
        params = rng.choice([CostParams(known=frozenset(primitives)),
                             CostParams(known=frozenset(some)),
                             CostParams(known=frozenset(primitives | some)),
                             CostParams(suppression=dict.fromkeys(some, 0.0))])
        # A frequency table needs one token at least; x-0 is in every network.
        occurring = {g: count for g, count in counts.items() if count} or {"x-0": 1}
        return table_from_counts(net, occurring, params)
    total = sum(counts.values()) or 1
    entries = {}
    for glyph, count in counts.items():
        free = zero_cost == "any" or (zero_cost == "frequent" and count)
        c = 0.0 if free and rng.random() < 0.15 else rng.choice([0.5, 1.0, 2.0])
        f = count / total
        entries[glyph] = Centrality(f=f, c=c, eta=benefit_ratio(f, c))
    return CentralityTable(entries)


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), zero_freq_share=st.sampled_from([0.2, 0.5, 0.8]),
       zero_cost=st.sampled_from(["none", "frequent", "any", "known"]))
def test_zero_frequency_glyphs_match_oracle(seed, zero_freq_share, zero_cost):
    # Eta-0 glyphs are placed after the positive etas: the zero-frequency
    # tail of positive cost, and the zero-cost head of zero frequency,
    # whose glyphs pull positive members across themselves.
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=rng.choice([12, 40, 80]), sparse=rng.random() < 0.3)
    table = sparse_centralities(rng, net, zero_freq_share, zero_cost)
    ids = list(net.ids())
    select = set(rng.sample(ids, rng.randint(1, len(ids))))
    expected, _ = oracle_sweep(net, table, select)
    assert priority_topo_sort(net, table, select).ids() == expected


def test_zero_frequency_block_is_closure_postorder():
    # Every component has eta 0, so all of them wait in one block in
    # front of W: each node after its own components, at its first visit.
    net = build_network([
        GlyphNode("x", P, (), 1),
        GlyphNode("y", P, (), 1),
        GlyphNode("z", P, (), 1),
        GlyphNode("A", C, ("x", "y"), 2),
        GlyphNode("B", C, ("x", "z"), 2),
        GlyphNode("W", C, ("A", "B"), 4),
    ])
    table = table_from_counts(net, {"W": 1})
    expected, _ = oracle_sweep(net, table, {"W"})
    assert priority_topo_sort(net, table, {"W"}).ids() == expected == ["x", "y", "A", "z",
                                                                       "B", "W"]


def test_deep_zero_frequency_chain():
    # 1,500 nested variants that never occur, under one frequent compound:
    # deeper than Python's recursion limit.
    chain = [GlyphNode("v0", P, (), 1)]
    chain += [GlyphNode("v%d" % k, GlyphKind.VARIANT, ("v%d" % (k - 1),), 1)
              for k in range(1, 1500)]
    net = build_network(chain + [GlyphNode("p", P, (), 1),
                                 GlyphNode("W", C, ("v1499", "p"), 2)])
    table = table_from_counts(net, {"W": 5, "p": 3})
    out = priority_topo_sort(net, table, {"W"}).ids()
    assert out == ["p"] + [node.id for node in chain] + ["W"]


def test_deep_chain_of_containers_ranked_above_their_components():
    # 1,500 nested variants, each ranked above its own component: every
    # block holds the next one, deeper than Python's recursion limit.
    n = 1500
    ids = ["v%d" % k for k in range(n)]
    net = build_network([GlyphNode(ids[0], P, (), 1)] + [
        GlyphNode(ids[k], GlyphKind.VARIANT, (ids[k - 1],), 1) for k in range(1, n)])
    table = CentralityTable({glyph: Centrality(f=(k + 1) / n**2, c=1.0, eta=(k + 1) / n**2)
                             for k, glyph in enumerate(ids)})
    assert table.ranked() == ids[::-1]
    assert priority_topo_sort(net, table, {ids[-1]}).ids() == ids


def test_nested_blocks_match_the_closure_oracle():
    # v_k = v_(k-1) + p_k, every v ranked above every p: the walk from
    # v_k claims down the v's and then, on the way back, each p, and
    # each v's block holds the next v's block and one p that no v inside
    # it holds, 300 levels deep.
    n = 300
    nodes = [GlyphNode("v0", P, (), 1)]
    etas = {"v0": n}
    for k in range(1, n):
        nodes += [GlyphNode("p%d" % k, P, (), 1),
                  GlyphNode("v%d" % k, C, ("v%d" % (k - 1), "p%d" % k), 2)]
        etas.update({"v%d" % k: n + k, "p%d" % k: k})
    net = build_network(nodes)
    eta = {glyph: e / n**2 for glyph, e in etas.items()}
    ranked = sorted(eta, key=lambda glyph: -eta[glyph])
    placed = _place({node.id: node.components for node in net.nodes()}, ranked, eta)
    assert placed == oracle_place(net, ranked, eta)
    assert validate_topological(net, placed) == []


def test_linked_sweep_matches_the_naive_sweep():
    # Both transcribe the sweep, over any initial list.
    rng = random.Random(20261019)
    for _ in range(300):
        net = random_network(rng, max_nodes=18)
        table = sparse_centralities(rng, net, rng.choice([0.2, 0.5]),
                                    rng.choice(["none", "any", "known"]))
        ids = list(net.ids())
        initial = sorted(expand_selection(net, rng.sample(ids, rng.randint(1, len(ids)))))
        rng.shuffle(initial)
        eta = {glyph: table.eta(glyph) for glyph in initial}
        assert oracle_linked_sweep(net, initial, eta) == oracle_sweep_from(net, table, initial)[0]


def sweep_and_placement(net, table, select):
    ranked = table.ranked(expand_selection(net, select))
    eta = {glyph: table.eta(glyph) for glyph in ranked}
    return oracle_linked_sweep(net, ranked, eta), priority_topo_sort(net, table, select).ids()


@pytest.mark.parametrize("etas", ["distinct", "tied", "known"])
@pytest.mark.parametrize("whole", [True, False], ids=["whole", "subset"])
def test_placement_matches_the_sweep_on_large_networks(etas, whole):
    # Too large for the naive oracle, so the linked sweep is the
    # reference. "known" tables rank a zero-cost head of known compounds
    # and never-seen glyphs ahead of the positive etas.
    rng = random.Random(9001 + 2 * (etas == "distinct") + 4 * (etas == "known") + whole)
    for _ in range(2):
        net = random_network(rng, max_nodes=3000, sparse=rng.random() < 0.5)
        while len(net) < 1000:
            net = random_network(rng, max_nodes=3000, sparse=rng.random() < 0.5)
        if etas == "known":
            table = sparse_centralities(rng, net, 0.5, "known")
        else:
            table = random_centralities(rng, net, distinct_eta=etas == "distinct")
        ids = list(net.ids())
        select = set(ids) if whole else set(rng.sample(ids, rng.randint(1, len(ids) // 3)))
        swept, placed = sweep_and_placement(net, table, select)
        assert placed == swept


def test_hub_under_many_containers_is_placed_once():
    # The sweep pulls h left again for each of the 300 containers;
    # priority_topo_sort puts it once, in the block of the highest-ranked one.
    k = 300
    net = build_network([GlyphNode("h", P, (), 1)]
                        + [GlyphNode("p%d" % i, P, (), 1) for i in range(k)]
                        + [GlyphNode("C%d" % i, C, ("p%d" % i, "h"), 2) for i in range(k)])
    etas = {"h": 1.0}
    etas.update({"C%d" % i: 3.0 * k - i for i in range(k)})
    etas.update({"p%d" % i: 2.0 * k - i for i in range(k)})
    table = CentralityTable({g: Centrality(f=e / 10**4, c=1.0, eta=e / 10**4)
                             for g, e in etas.items()})
    expected = ["p0", "h", "C0"] + [g for i in range(1, k) for g in ("p%d" % i, "C%d" % i)]
    swept, placed = sweep_and_placement(net, table, set(net.ids()))
    assert placed == swept == expected


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["random", "nested"]),
       lazy_share=st.sampled_from([0.0, 0.3, 0.6]))
def test_placement_and_expansion_match_the_closure_oracles(seed, shape, lazy_share):
    # Lazy (eta 0) ids stay out of the placed list, as priority_topo_sort
    # leaves them out, so a walk must pass through them to reach the
    # ranked components below them. "nested" ranks later ids, which
    # include every container, mostly above earlier ones, so blocks nest
    # several levels deep. The generator repeats some components.
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=rng.choice([12, 40, 120]), sparse=rng.random() < 0.3)
    ids = list(net.ids())
    n = len(ids)
    entries = {}
    for k, glyph in enumerate(ids):
        if rng.random() < lazy_share:
            entries[glyph] = Centrality(f=0.0, c=1.0, eta=0.0)
        else:
            rank = k + 1 + rng.randint(0, 3) if shape == "nested" else rng.randint(1, 3 * n)
            entries[glyph] = Centrality(f=rank / (4 * n), c=1.0, eta=rank / (4 * n))
    table = CentralityTable(entries)

    select = rng.sample(ids, rng.randint(1, n))
    pool = expand_selection(net, select)
    assert pool == oracle_expand_selection(net, select)
    ranked = table.ranked(pool)
    eta = {glyph: table.eta(glyph) for glyph in ranked}
    listed = [glyph for glyph in ranked if eta[glyph] > 0]
    lazy = [glyph for glyph in ranked if eta[glyph] == 0]
    components = {node.id: node.components for node in net.nodes()}
    assert _place(components, listed, eta) == oracle_place(net, listed, eta)
    assert _place(components, lazy, eta) == oracle_place(net, lazy, eta)

    # The first absent id, in selection order, is the one named.
    absent = select[:]
    for k in range(rng.randint(1, 2)):
        absent.insert(rng.randint(0, len(absent)), "absent-%d" % k)
    with pytest.raises(UnknownId) as oracle_error:
        oracle_expand_selection(net, absent)
    with pytest.raises(UnknownId) as error:
        expand_selection(net, absent)
    assert error.value.args == oracle_error.value.args


def test_placement_builds_no_closures(monkeypatch, mini_net, mini_freq, mini_table,
                                      mini_word_freq):
    # Every pool is placed by walking components, those with known
    # glyphs of zero frequency ranked ahead of positive etas too.
    def refuse(self, glyph):
        raise AssertionError("closure(%s) called" % glyph)

    primitives = frozenset(node.id for node in mini_net.nodes() if node.kind.is_primitive)
    variants = frozenset((GOLDEN / "known_variants.txt").read_text(encoding="utf-8").split())
    monkeypatch.setattr(DecompositionNetwork, "closure", refuse)
    words_net, word_freq, _ = expand_with_words(mini_net, mini_word_freq, WordNetworkConfig())
    tables = [(mini_net, mini_table), (words_net, centralities(words_net, word_freq, CostParams()))]
    tables += [(mini_net, centralities(mini_net, mini_freq, CostParams(known=known)))
               for known in (primitives, variants)]
    targets = parse_target_list((DATA_DIR / "target_basic.txt").read_text(encoding="utf-8"))
    for net, table in tables:
        for select in (set(net.ids()), target_pool(net, targets)[0]):
            order = priority_topo_sort(net, table, select)
            assert validate_topological(net, order) == []


def test_output_valid_and_permutation_random():
    rng = random.Random(1)
    for _ in range(400):
        net = random_network(rng, max_nodes=30)
        table = random_centralities(rng, net)
        out = priority_topo_sort(net, table, set(net.ids()))
        assert validate_topological(net, out) == []
        assert sorted(out.ids()) == sorted(net.ids())


def test_unmoved_items_keep_ranking_order():
    rng = random.Random(5150)
    for _ in range(120):
        net = random_network(rng, max_nodes=16)
        table = random_centralities(rng, net)
        expected, moved = oracle_sweep(net, table, set(net.ids()))
        got = priority_topo_sort(net, table, set(net.ids())).ids()
        assert got == expected
        unmoved_in_rank = [g for g in table.ranked() if g not in moved]
        unmoved_in_out = [g for g in got if g not in moved]
        assert unmoved_in_out == unmoved_in_rank


def test_idempotent_on_own_output():
    rng = random.Random(77)
    for _ in range(80):
        net = random_network(rng, max_nodes=16)
        table = random_centralities(rng, net)
        out = priority_topo_sort(net, table, set(net.ids())).ids()
        again, moved = oracle_sweep_from(net, table, out)
        assert again == out
        assert moved == set()


def test_unique_topological_order_forced():
    net = build_network([
        GlyphNode("A", P, (), 1),
        GlyphNode("B", GlyphKind.VARIANT, ("A",), 2),
        GlyphNode("C", GlyphKind.VARIANT, ("B",), 3),
    ])
    table = CentralityTable({
        "C": Centrality(f=0.7, c=1.0, eta=0.7),
        "B": Centrality(f=0.2, c=1.0, eta=0.2),
        "A": Centrality(f=0.1, c=1.0, eta=0.1),
    })
    assert priority_topo_sort(net, table, {"C"}).ids() == ["A", "B", "C"]
    best = brute_force_best_order(net, table, {"C"}, c0=10.0)
    assert best.ids() == ["A", "B", "C"]


def test_moved_item_is_reexamined():
    # A compound that gets repositioned must itself be repaired again:
    # X = M + B, M = A + C, with M ranked between its own component A
    # and X. A cursor that only decremented positions would leave M in
    # front of A.
    net = build_network([
        GlyphNode("A", P, (), 1),
        GlyphNode("B", P, (), 1),
        GlyphNode("C", P, (), 1),
        GlyphNode("M", C, ("A", "C"), 2),
        GlyphNode("X", C, ("M", "B"), 3),
    ])
    table = CentralityTable({
        "C": Centrality(f=0.6, c=0.1, eta=6.0),
        "X": Centrality(f=0.5, c=0.1, eta=5.0),
        "M": Centrality(f=0.3, c=0.1, eta=3.0),
        "A": Centrality(f=0.25, c=0.1, eta=2.5),
        "B": Centrality(f=0.2, c=0.1, eta=2.0),
    })
    out = priority_topo_sort(net, table, {"X"})
    assert validate_topological(net, out) == []
    assert out.ids() == ["C", "A", "M", "B", "X"]


def test_equal_eta_insertion_lands_right_of_equals():
    net = build_network([
        GlyphNode("A", P, (), 1),
        GlyphNode("B", P, (), 1),
        GlyphNode("X", C, ("A", "B"), 2),
    ])
    table = CentralityTable({
        "X": Centrality(f=0.5, c=1.0, eta=0.5),
        "A": Centrality(f=0.2, c=1.0, eta=0.2),
        "B": Centrality(f=0.2, c=1.0, eta=0.2),
    })
    # Ranked [X, A, B]; A moves left of X to the front; B (eta equal to
    # A's) lands right of A, not left.
    assert priority_topo_sort(net, table, {"X"}).ids() == ["A", "B", "X"]


def test_selection_expands_closures():
    net = small_net()
    table = small_table()
    assert expand_selection(net, {"的"}) == {"的", "白", "勺"}
    out = priority_topo_sort(net, table, {"的"})
    assert set(out.ids()) == {"的", "白", "勺"}
    with pytest.raises(UnknownId):
        priority_topo_sort(net, table, {"nope"})


def test_pure_frequency_order():
    table = small_table()
    out = pure_frequency_order(table, {"的", "白", "勺"})
    assert out.ids() == ["的", "白", "勺"]
    assert out.provenance is Provenance.PURE_FREQUENCY
    tied = CentralityTable({
        "b": Centrality(f=0.25, c=1.0, eta=0.25),
        "a": Centrality(f=0.25, c=1.0, eta=0.25),
        "c": Centrality(f=0.25, c=1.0, eta=0.25),
        "z": Centrality(f=0.0, c=1.0, eta=0.0),
    })
    assert pure_frequency_order(tied, set(tied.entries)).ids() == ["a", "b", "c", "z"]


def test_kahn_baseline_is_valid_and_deterministic():
    rng = random.Random(31)
    for _ in range(50):
        net = random_network(rng, max_nodes=20)
        table = random_centralities(rng, net)
        out = kahn_order(net, table, set(net.ids()))
        assert validate_topological(net, out) == []
        assert out.ids() == kahn_order(net, table, set(net.ids())).ids()


def test_kahn_matches_frozen_oracle_on_partial_selections():
    rng = random.Random(2416)
    for _ in range(200):
        net = random_network(rng, max_nodes=30, sparse=rng.random() < 0.3)
        table = random_centralities(rng, net)
        ids = list(net.ids())
        select = rng.sample(ids, rng.randint(1, len(ids)))
        expected = kahn_order_ids(net, expand_selection(net, select))
        assert kahn_order(net, table, select).ids() == expected


def test_kahn_and_brute_force_build_no_container_index(monkeypatch):
    # Both read precedence from their pool alone, so a small selection of
    # a larger network never indexes the whole network's containers.
    rng = random.Random(67)
    net = random_network(rng, max_nodes=200)
    while len(net) < 100:
        net = random_network(rng, max_nodes=200)
    table = random_centralities(rng, net)
    small = [g for g in net.ids() if 2 <= len(expand_selection(net, [g])) <= 10]
    assert len(small) >= 5

    def refuse(nodes):
        raise AssertionError("the network-wide container index was built")

    monkeypatch.setattr(glyphorder.network, "_container_index", refuse)
    for glyph in small[:20]:
        kahn_order(net, table, {glyph})
        brute_force_best_order(net, table, {glyph}, c0=10.0)


def test_kahn_order_is_labelled_kahn(mini_net, mini_freq):
    table = centralities(mini_net, mini_freq, CostParams())
    assert kahn_order(mini_net, table, {"的"}).provenance is Provenance.KAHN


def test_validate_topological_examples(mini_net):
    assert validate_topological(mini_net, ["白", "勺", "的"]) == []
    assert validate_topological(mini_net, ["的", "白", "勺"]) == [
        Violation("的", "白"), Violation("的", "勺")]
    assert validate_topological(mini_net, ["的", "白"]) == [
        Violation("的", "白"), Violation("的", "勺", missing=True)]
    assert validate_topological(mini_net, []) == []


def test_violation_fields_and_default():
    v = Violation(compound="的", component="白")
    assert (v.compound, v.component, v.missing) == ("的", "白", False)
    assert Violation("的", "勺", True) == Violation(component="勺", compound="的",
                                                     missing=True)
    with pytest.raises(AttributeError):
        v.missing = True


def test_validate_dedupes_repeated_components():
    net = build_network([
        GlyphNode("口", P, (), 3),
        GlyphNode("品", C, ("口", "口", "口"), 9),
    ])
    assert validate_topological(net, ["品", "口"]) == [Violation("品", "口")]


@settings(max_examples=120, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["sweep", "shuffled", "partial", "repeated"]),
       as_order=st.booleans())
def test_validate_matches_frozen_check(seed, shape, as_order):
    # Repeated components come from the generator; "partial" leaves
    # components out of the order, "repeated" holds duplicate ids.
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=40, sparse=rng.random() < 0.3)
    ids = list(net.ids())
    if shape == "sweep":
        order = priority_topo_sort(net, random_centralities(rng, net), ids).ids()
    elif shape == "shuffled":
        order = rng.sample(ids, len(ids))
    elif shape == "partial":
        order = rng.sample(ids, rng.randint(0, len(ids)))
    else:
        order = [rng.choice(ids) for _ in range(rng.randint(0, 2 * len(ids)))]
    if as_order:
        order = external_order(random_centralities(rng, net), order)
    assert validate_topological(net, order) == oracle_validate_topological(net, order)


def test_validate_unknown_id_raises_unknown_id():
    net = small_net()
    # The first absent id is named, whatever the violations around it.
    with pytest.raises(UnknownId, match="^夕$"):
        validate_topological(net, ["的", "夕", "白", "勺", "多"])


def test_external_order_rejects_an_absent_id():
    # The first id the table lacks is named.
    with pytest.raises(UnknownId, match="^夕$"):
        external_order(small_table(), ["白", "夕", "勺", "多"])


def test_order_item_is_immutable_with_named_fields():
    item = external_order(small_table(), ["白"]).items[0]
    assert (item.glyph, item.cost, item.freq) == ("白", 1.5, 0.3)
    with pytest.raises(AttributeError):
        item.cost = 2.0


def test_brute_force_single_node_and_too_large():
    net = build_network([GlyphNode("A", P, (), 1)])
    table = CentralityTable({"A": Centrality(f=1.0, c=1.0, eta=1.0)})
    assert brute_force_best_order(net, table, {"A"}, c0=1.0).ids() == ["A"]
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            brute_force_best_order(net, table, {"A"}, c0=bad)

    rng = random.Random(2)
    big = random_network(rng, max_nodes=30)
    while len(big) <= 10:
        big = random_network(rng, max_nodes=30)
    btable = random_centralities(rng, big)
    with pytest.raises(TooLarge, match="^%d nodes exceed the brute-force limit of 10$" % len(big)):
        brute_force_best_order(big, btable, set(big.ids()), c0=5.0)
    # The limit is fixed at 10 nodes: a chain of 10 is searched, one of 11 refused.
    chain = build_network([GlyphNode("V0", P, (), 1)] + [
        GlyphNode("V%d" % k, GlyphKind.VARIANT, ("V%d" % (k - 1),), 1) for k in range(1, 11)])
    ctable = random_centralities(rng, chain)
    ten = ["V%d" % k for k in range(10)]
    assert brute_force_best_order(chain, ctable, {"V9"}, c0=5.0).ids() == ten
    with pytest.raises(TooLarge, match="^11 nodes exceed the brute-force limit of 10$"):
        brute_force_best_order(chain, ctable, {"V10"}, c0=5.0)


def test_brute_force_matches_permutation_filter_oracle():
    rng = random.Random(606)
    checked = 0
    while checked < 40:
        net = random_network(rng, max_nodes=6, sparse=True)
        table = random_centralities(rng, net)
        pool = set(net.ids())
        total_cost = sum(table[g].c for g in pool)
        c0 = rng.uniform(0.4, 1.1) * total_cost
        best = None
        best_order = None
        for candidate in enumerate_topological(net, pool):
            cv = curve(net, external_order(table, candidate), c0)
            score = (cv.mean_efficiency, cv.final_efficiency)
            if best is None or score > best:
                best = score
                best_order = candidate
        got = brute_force_best_order(net, table, pool, c0=c0)
        got_cv = curve(net, got, c0)
        assert (got_cv.mean_efficiency, got_cv.final_efficiency) == pytest.approx(best)
        assert got.ids() == best_order
        checked += 1


def test_known_suboptimal_instance():
    # Hand-checked witness that the sweep is a heuristic. A cheap
    # high-frequency standalone (A) should come before an expensive
    # component chain when the budget cuts off at 7, but the centrality
    # ranking commits to the chain first.
    net = build_network([
        GlyphNode("P", P, (), 1),
        GlyphNode("Q", P, (), 1),
        GlyphNode("A", P, (), 1),
        GlyphNode("X", C, ("P", "Q"), 2),
    ])
    table = CentralityTable({
        "X": Centrality(f=0.5, c=1.0, eta=0.5),
        "A": Centrality(f=0.3, c=1.0, eta=0.3),
        "P": Centrality(f=0.19, c=5.0, eta=0.038),
        "Q": Centrality(f=0.01, c=1.0, eta=0.01),
    })
    pool = set("PQAX")
    sweep = priority_topo_sort(net, table, pool)
    assert sweep.ids() == ["P", "Q", "X", "A"]
    best = brute_force_best_order(net, table, pool, c0=7.0)
    assert best.ids() == ["A", "P", "Q", "X"]
    sweep_cv = curve(net, sweep, 7.0)
    best_cv = curve(net, best, 7.0)
    assert sweep_cv.mean_efficiency == pytest.approx(0.39 / 7.0)
    assert best_cv.mean_efficiency == pytest.approx(1.99 / 7.0)
    # The mean is the objective; on final value alone the sweep wins.
    assert best_cv.final_efficiency < sweep_cv.final_efficiency


def test_brute_force_never_below_the_sweep():
    rng = random.Random(11)
    for _ in range(40):
        net = random_network(rng, max_nodes=7, sparse=True)
        table = random_centralities(rng, net)
        pool = set(net.ids())
        c0 = 0.6 * sum(table[g].c for g in pool)
        sweep_cv = curve(net, priority_topo_sort(net, table, pool), c0)
        best_cv = curve(net, brute_force_best_order(net, table, pool, c0=c0), c0)
        assert best_cv.mean_efficiency >= sweep_cv.mean_efficiency - 1e-12


def cut_candidates(net, table, pool, c0, limit):
    """Every hierarchal order of `pool`, cut after its first item over
    budget at c0, or the first `limit` + 1 of them when there are more.
    A cut order scores the same as each of its completions, so these
    are all the scores a search must compare."""
    ids = sorted(pool)
    comps = {g: set(net.node(g).components) & pool for g in ids}
    out = []
    prefix: list[str] = []

    def walk(cum_cost):
        if len(prefix) == len(ids) or cum_cost > c0:
            out.append(list(prefix))
            return
        for glyph in ids:
            if len(out) > limit:
                return
            if glyph not in prefix and comps[glyph] <= set(prefix):
                prefix.append(glyph)
                walk(cum_cost + table[glyph].c)
                prefix.pop()

    walk(0.0)
    return out


@st.composite
def brute_force_instances(draw, max_candidates=300):
    """Sparse 7-10-node networks with zero-cost items, zero-frequency
    components and repeated (cost, freq) pairs, at a horizon that is
    either a float prefix cost of a hierarchal order or a share of the
    total cost, lowered until the search space is small."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    net = random_network(rng, max_nodes=10, sparse=True)
    while len(net) < 7:
        net = random_network(rng, max_nodes=10, sparse=True)
    pool = set(net.ids())
    zero_cost_share = draw(st.sampled_from([0.0, 0.25]))
    raw = {}
    costs = {}
    for glyph in net.ids():
        is_component = bool(net.containers(glyph))
        raw[glyph] = 0 if is_component and rng.random() < 0.5 else rng.choice([1, 2, 3, 5])
        costs[glyph] = (0.0 if rng.random() < zero_cost_share
                        else rng.choice([0.5, 1.1, 1.1, 1.3, 2.0]))
    total = sum(raw.values()) or 1
    entries = {}
    for glyph in net.ids():
        f, c = raw[glyph] / total, costs[glyph]
        eta = f / c if c > 0 else (float("inf") if f > 0 else 0.0)
        entries[glyph] = Centrality(f=f, c=c, eta=eta)
    table = CentralityTable(entries)

    # Float prefix costs of a random hierarchal order, summed as curve does.
    order = []
    while len(order) < len(pool):
        ready = sorted(g for g in pool if g not in order
                       and set(net.node(g).components) <= set(order))
        order.append(rng.choice(ready))
    prefix_costs = []
    cum = 0.0
    for glyph in order:
        cum += table[glyph].c
        if cum > 0:
            prefix_costs.append(cum)
    assume(prefix_costs)
    if draw(st.booleans()):
        horizons = prefix_costs[:draw(st.integers(1, len(prefix_costs)))][::-1]
    else:
        horizons = [draw(st.floats(0.2, 1.2)) * cum] + prefix_costs[::-1]
    for c0 in horizons:
        cands = cut_candidates(net, table, pool, c0, max_candidates)
        if len(cands) <= max_candidates:
            return net, table, pool, c0, cands
    assume(False)


@settings(max_examples=40, deadline=None, database=None)
@given(instance=brute_force_instances())
def test_brute_force_matches_per_candidate_oracle(instance):
    net, table, pool, c0, cands = instance
    got = brute_force_best_order(net, table, pool, c0=c0)
    assert got.ids() == oracle_brute_force(net, table, pool, c0=c0).ids()
    won = curve(net, got, c0)
    won_score = (won.mean_efficiency, won.final_efficiency)
    for cand in cands:
        cv = curve(net, external_order(table, cand), c0)
        assert won_score >= (cv.mean_efficiency, cv.final_efficiency)


# Float edge cases of the search's running curve: {id: (components,
# frequency, cost)}, the horizon, the order that must win, a rival, and
# what ranks the winner above the rival: a higher mean at an equal final,
# a higher final at an equal mean, or, at an equal score, enumeration order.
FLOAT_CASES = {
    # After B and A, zero-frequency Z fits the horizon and splits the last
    # segment in two. Exactly, both cuts have area 0.41; the float sums
    # of `curve` rank the split one higher, so the search must as well.
    "split-segment": ({"A": ((), 0.1, 0.7), "B": ((), 0.2, 0.5),
                       "Y": ((), 0.1, 1.1), "Z": ((), 0.0, 0.5)},
                      2.1, "BAZY", "BAYZ", "mean"),
    # Zero-cost Y and Z settle at C = 0, before any corner exists; the
    # second merges into the first. Either order of the two scores the
    # same, so enumeration order decides.
    "zero-cost-first": ({"A": ((), 0.3, 1.0), "B": ((), 0.2, 0.6),
                         "Y": ((), 0.2, 0.0), "Z": ((), 0.1, 0.0)},
                        1.5, "YZBA", "ZYBA", "order"),
    # E's cost is lost in 1.0 + 1e-17 == 1.0, so after A it still fits a
    # horizon A's cost has used up, and merges into A's corner as `curve`
    # merges it. Exactly, E would be over budget and A, B, E would win.
    "absorbed-cost": ({"A": ((), 0.5, 1.0), "B": ((), 0.3, 2.0),
                       "E": (("A",), 0.1, 1e-17)},
                      1.0, "AEB", "ABE", "final"),
    # After P, every other item is over budget, and each of B, C and E
    # leads a different lexicographically first completion (D needs C).
    # All score the same cut prefix, so the first sibling's must win.
    "over-budget-siblings": ({"P": ((), 0.5, 1.0), "B": ((), 0.1, 1.0),
                              "C": ((), 0.1, 1.0), "D": (("C",), 0.1, 1.0),
                              "E": ((), 0.1, 1.0)},
                             1.5, "PBCDE", "PEBCD", "order"),
    # The same cut with siblings ranked against their id order: after P,
    # B and E are over budget and E's higher eta ranks it first. The
    # cut still goes to the smaller id's completion.
    "over-budget-siblings-ranked": ({"P": ((), 0.5, 1.0), "B": ((), 0.1, 1.0),
                                     "E": ((), 0.3, 1.0)},
                                    1.5, "PBE", "PEB", "order"),
    # After P, zero-frequency A fits and B is over budget. In floats the
    # segment A splits sums lower than the whole cut before it, so the
    # winner is the over-budget B's completion, not its smaller sibling's.
    "cut-beats-split": ({"A": ((), 0.0, 0.2), "B": ((), 0.3, 2.0), "P": ((), 0.1, 0.2)},
                        1.7, "PBA", "PAB", "mean"),
    # A and B are alike, so the greedy order, A then B, is the optimum
    # itself and the search's first descent. After B the bound sums to
    # 0.26999999999999996, below the 0.27 that A, B scores; the margin
    # keeps that path, and B, A ties A, B and loses on order.
    "greedy-floor-tie": ({"A": ((), 0.1, 0.1), "B": ((), 0.1, 0.1)},
                         1.5, "AB", "BA", "order"),
    # Equal etas rank the more frequent B first, so the first descent
    # scores B, A at 0.38000000000000006. After A the bound sums to
    # 0.38, below that: only the pruning margin keeps the path to A, B,
    # which ties B, A and wins on order.
    "rank-first-tie": ({"A": ((), 0.1, 0.1), "B": ((), 0.2, 0.2)},
                       1.5, "AB", "BA", "order"),
    # No item occurs, so every order scores 0, the floor is 0 and so is
    # the margin: a bound equal to the floor must not prune.
    "all-zero-frequency": ({"A": ((), 0.0, 1.0), "B": ((), 0.0, 1.0),
                            "X": (("A", "B"), 0.0, 1.0)},
                           3.0, "ABX", "BAX", "order"),
}


@pytest.mark.parametrize("case", FLOAT_CASES.values(), ids=FLOAT_CASES.keys())
def test_brute_force_breaks_float_ties_as_curve_does(case):
    spec, c0, expected, rival, decides = case
    kinds = {0: P, 1: GlyphKind.VARIANT}
    net = build_network([GlyphNode(g, kinds.get(len(comps), C), comps, 1)
                         for g, (comps, _, _) in spec.items()])
    table = CentralityTable({g: Centrality(f=f, c=c, eta=f / c if c else 0.0)
                             for g, (_, f, c) in spec.items()})
    won, lost = ((cv.mean_efficiency, cv.final_efficiency)
                 for cv in (curve(net, external_order(table, list(ids)), c0)
                            for ids in (expected, rival)))
    if decides == "order":
        assert won == lost and expected < rival
    else:
        k = ("mean", "final").index(decides)
        assert won[k] > lost[k] and won[1 - k] == lost[1 - k]
    got = brute_force_best_order(net, table, set(spec), c0=c0).ids()
    assert got == oracle_brute_force(net, table, set(spec), c0=c0).ids() == list(expected)


@pytest.mark.parametrize("spoil", ["negative-frequency", "infinite-cost", "negative-cost"])
def test_brute_force_without_pruning_matches_oracle(spoil):
    # Pruning is off for a table that `centralities` cannot give. A
    # negative frequency would break the bound, which assumes that no
    # item takes away from the area; the search must still find the
    # oracle's order. With non-negative costs a pool's orders are all
    # complete or all cut; a negative cost, with `c0` above the pool's
    # total but below the total without it, puts complete and cut
    # prefixes into one search.
    rng = random.Random(2718)
    for _ in range(30):
        net = random_network(rng, max_nodes=8, sparse=True)
        pool = set(net.ids())
        entries = dict(random_centralities(rng, net).entries)
        glyph = rng.choice(sorted(pool))
        f, c, _ = entries[glyph]
        rest = sum(entries[g].c for g in pool if g != glyph)
        if spoil == "negative-frequency":
            f = -rng.uniform(0.1, 1.0)
        elif spoil == "infinite-cost":
            c = math.inf
        else:
            c = -rng.uniform(0.3, 0.9) * rest
        entries[glyph] = Centrality(f=f, c=c, eta=benefit_ratio(f, c))
        table = CentralityTable(entries)
        if spoil == "negative-cost":
            c0 = rest + c - rng.uniform(0.2, 0.8) * c
        else:
            c0 = 0.6 * sum(table[g].c for g in pool if table[g].c < math.inf)
        got = brute_force_best_order(net, table, pool, c0=c0)
        assert got.ids() == oracle_brute_force(net, table, pool, c0=c0).ids()


def test_brute_force_matches_oracle_on_exact_ties():
    # Coarse costs and frequencies, zeros included, make exact score ties
    # common, so the tie rule, not the score, picks many of the winners.
    rng = random.Random(1618)
    tied = 0
    for _ in range(300):
        net = random_network(rng, max_nodes=7, sparse=True)
        pool = set(net.ids())
        entries = {}
        for glyph in net.ids():
            f, c = rng.choice([0.0, 1.0, 2.0]), rng.choice([0.0, 0.1, 0.2])
            entries[glyph] = Centrality(f=f, c=c, eta=benefit_ratio(f, c))
        table = CentralityTable(entries)
        c0 = rng.choice([0.1, 0.2, 0.3, 0.5])
        got = brute_force_best_order(net, table, pool, c0=c0)
        assert got.ids() == oracle_brute_force(net, table, pool, c0=c0).ids()
        scores = [(cv.mean_efficiency, cv.final_efficiency)
                  for cv in (curve(net, external_order(table, ids), c0)
                             for ids in enumerate_topological(net, pool))]
        tied += scores.count(max(scores)) >= 2
    assert tied >= 100


def linear_extension_count(net, pool):
    """Hierarchal orders of a small pool, by dynamic programming over the
    subsets already placed."""
    ids = sorted(pool)
    bit = {g: 1 << k for k, g in enumerate(ids)}
    need = [sum(bit[c] for c in set(net.node(g).components)) for g in ids]
    ways = [1] + [0] * ((1 << len(ids)) - 1)
    for placed, count in enumerate(ways):
        if count:
            for k, mask in enumerate(need):
                if not placed >> k & 1 and mask & placed == mask:
                    ways[placed | 1 << k] += count
    return ways[-1]


def test_brute_force_matches_oracle_on_large_search_spaces():
    # Networks with at least 150 hierarchal orders, as in the benchmark's
    # exhaustive batch, at 60% of their total cost: past the 300 cut
    # candidates the hypothesis instances are held to, and where cutting
    # at the first item over budget prunes the most.
    rng = random.Random(1414)
    checked = 0
    while checked < 5:
        net = random_network(rng, max_nodes=10, sparse=True)
        pool = set(net.ids())
        if linear_extension_count(net, pool) < 150:
            continue
        table = random_centralities(rng, net)
        c0 = 0.6 * sum(table[g].c for g in pool)
        got = brute_force_best_order(net, table, pool, c0=c0)
        assert got.ids() == oracle_brute_force(net, table, pool, c0=c0).ids()
        checked += 1


def test_order_csv_format(mini_net, mini_table):
    order = priority_topo_sort(mini_net, mini_table, set(mini_net.ids()))
    text = serialize_order_csv(mini_net, order)
    lines = text.strip().split("\n")
    assert lines[0] == "rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq"
    assert len(lines) == len(order) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == order.ids()[0]
    # Frequencies carry exactly 9 decimal places.
    assert len(first[4].split(".")[1]) == 9
    assert len(first[7].split(".")[1]) == 9
