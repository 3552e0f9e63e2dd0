"""The repair sweep, baselines, brute force, and validity checking."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glyphorder.costmodel import (Centrality, CentralityTable, CostParams, benefit_ratio,
                                  centralities)
from glyphorder.metrics import CostMode, curve
from glyphorder.network import GlyphKind, GlyphNode, UnknownId, build_network
from glyphorder.ordering import (Provenance, TooLarge, Violation, _place, _repair,
                                 brute_force_best_order, expand_selection, external_order,
                                 kahn_order, priority_topo_sort, pure_frequency_order,
                                 serialize_order_csv, validate_topological)

from conftest import (enumerate_topological, oracle_brute_force, oracle_sweep,
                      oracle_sweep_from, oracle_validate_topological, random_centralities,
                      random_network, table_from_counts)

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


def kahn_order_ids(net):
    blocked = {g: len(set(net.node(g).components)) for g in net.ids()}
    queue = sorted(g for g, b in blocked.items() if b == 0)
    out = []
    head = 0
    while head < len(queue):
        glyph = queue[head]
        head += 1
        out.append(glyph)
        for parent in sorted(net.containers(glyph)):
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


def sparse_centralities(rng, net, zero_freq_share, zero_cost):
    """Centralities by the library's eta convention from small integer
    counts and a few costs, so etas tie often. `zero_freq_share` of the
    glyphs never occur; `zero_cost` is "none", "frequent" (only glyphs
    that occur may cost 0, so every eta-0 glyph has a positive cost) or
    "any" (zero-cost glyphs of zero frequency too)."""
    counts = {g: 0 if rng.random() < zero_freq_share else rng.randint(1, 4) for g in net.ids()}
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
       zero_cost=st.sampled_from(["none", "frequent", "any"]))
def test_zero_frequency_glyphs_match_oracle(seed, zero_freq_share, zero_cost):
    # Zero-frequency glyphs of positive cost are placed without being
    # swept; zero-cost glyphs of zero frequency turn that off.
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


def sweep_and_placement(net, table, select):
    ranked = table.ranked(expand_selection(net, select))
    eta = {glyph: table.eta(glyph) for glyph in ranked}
    return _repair(net, ranked, eta), _place(net, ranked, eta)


@pytest.mark.parametrize("distinct_eta", [True, False], ids=["distinct", "tied"])
@pytest.mark.parametrize("whole", [True, False], ids=["whole", "subset"])
def test_placement_matches_the_sweep_on_large_networks(distinct_eta, whole):
    # Too large for the naive oracle, so the sweep itself is the reference.
    rng = random.Random(9001 + 2 * distinct_eta + whole)
    for _ in range(2):
        net = random_network(rng, max_nodes=3000, sparse=rng.random() < 0.5)
        while len(net) < 1000:
            net = random_network(rng, max_nodes=3000, sparse=rng.random() < 0.5)
        table = random_centralities(rng, net, distinct_eta=distinct_eta)
        ids = list(net.ids())
        select = set(ids) if whole else set(rng.sample(ids, rng.randint(1, len(ids) // 3)))
        swept, placed = sweep_and_placement(net, table, select)
        assert placed == swept


def test_hub_under_many_containers_is_placed_once():
    # The sweep pulls h left again for each of the 300 containers; the
    # placement puts it once, in the block of the highest-ranked one.
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
    assert priority_topo_sort(net, table, set(net.ids())).ids() == expected


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


def test_order_item_is_immutable_with_named_fields():
    item = external_order(small_table(), ["白"]).items[0]
    assert (item.glyph, item.cost, item.freq) == ("白", 1.5, 0.3)
    with pytest.raises(AttributeError):
        item.cost = 2.0


def test_brute_force_single_node_and_too_large():
    net = build_network([GlyphNode("A", P, (), 1)])
    table = CentralityTable({"A": Centrality(f=1.0, c=1.0, eta=1.0)})
    assert brute_force_best_order(net, table, {"A"}, c0=1.0).ids() == ["A"]

    rng = random.Random(2)
    big = random_network(rng, max_nodes=30)
    while len(big) <= 10:
        big = random_network(rng, max_nodes=30)
    btable = random_centralities(rng, big)
    with pytest.raises(TooLarge):
        brute_force_best_order(big, btable, set(big.ids()), c0=5.0)


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


def cut_candidates(net, table, pool, c0):
    """Every hierarchal order of `pool`, cut after its first item over
    budget at c0. A cut order scores the same as each of its
    completions, so these are all the scores a search must compare."""
    ids = sorted(pool)
    comps = {g: set(net.node(g).components) & pool for g in ids}
    out = []
    prefix: list[str] = []

    def walk(cum_cost):
        if len(prefix) == len(ids) or cum_cost > c0:
            out.append(list(prefix))
            return
        for glyph in ids:
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
        cands = cut_candidates(net, table, pool, c0)
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


def test_brute_force_breaks_float_ties_as_curve_does():
    # After B and A, zero-frequency Z fits the horizon and splits the last
    # segment in two. Exactly, both cuts have area 0.41; the float sums
    # of `curve` rank the split one higher, so the search must as well.
    net = build_network([GlyphNode(g, P, (), 1) for g in "ABYZ"])
    table = CentralityTable({
        "A": Centrality(f=0.1, c=0.7, eta=0.1 / 0.7),
        "B": Centrality(f=0.2, c=0.5, eta=0.4),
        "Y": Centrality(f=0.1, c=1.1, eta=0.1 / 1.1),
        "Z": Centrality(f=0.0, c=0.5, eta=0.0),
    })
    split = curve(net, external_order(table, ["B", "A", "Z", "Y"]), 2.1)
    whole = curve(net, external_order(table, ["B", "A", "Y", "Z"]), 2.1)
    assert split.mean_efficiency > whole.mean_efficiency
    assert split.final_efficiency == whole.final_efficiency
    got = brute_force_best_order(net, table, set("ABYZ"), c0=2.1).ids()
    assert got == oracle_brute_force(net, table, set("ABYZ"), c0=2.1).ids() == ["B", "A", "Z", "Y"]


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
