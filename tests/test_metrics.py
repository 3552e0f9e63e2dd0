"""Learning curves, both charging modes, horizons, and cluster stats."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glyphorder.costmodel import Centrality, CentralityTable
from glyphorder.metrics import (CostMode, MissingCost, NonPositiveHorizon, NotTopological,
                                at_horizon, cluster_stats, curve, curve_summary_json,
                                serialize_cluster_csv, serialize_curve_csv, truncate)
from glyphorder.network import GlyphKind, GlyphNode, UnknownId, build_network
from glyphorder.ordering import (external_order, kahn_order, priority_topo_sort,
                                 pure_frequency_order)

from conftest import oracle_cluster_stats, random_centralities, random_network

P = GlyphKind.PRIMITIVE_CHARACTER
C = GlyphKind.COMPOUND


def flat(layout):
    """(net, table, ids) for independent items: {id: (cost, freq)}."""
    net = build_network([GlyphNode(g, P, (), 1) for g in layout])
    table = CentralityTable({
        g: Centrality(f=f, c=c, eta=(f / c if c else 0.0))
        for g, (c, f) in layout.items()})
    return net, table, list(layout)


def test_two_item_curve_exact():
    net, table, ids = flat({"a": (1.0, 0.6), "b": (1.0, 0.4)})
    cv = curve(net, external_order(table, ids), c0=2.0)
    assert cv.points == ((1.0, 0.6), (2.0, 1.0))
    assert cv.counts == (1, 1)
    assert cv.n_learned == 2
    assert cv.final_efficiency == pytest.approx(1.0)
    assert cv.mean_efficiency == pytest.approx(0.3)


def test_frequency_credited_at_right_edge():
    net, table, ids = flat({"a": (2.0, 1.0)})
    order = external_order(table, ids)
    below = curve(net, order, c0=1.999)
    assert below.n_learned == 0
    assert below.points == ()
    assert below.final_efficiency == 0.0
    at = curve(net, order, c0=2.0)
    assert at.n_learned == 1
    assert at.final_efficiency == pytest.approx(1.0)
    assert at.mean_efficiency == pytest.approx(0.0)


def test_first_item_over_budget_ends_the_curve():
    net, table, ids = flat({"a": (3.0, 0.1), "b": (10.0, 0.8), "c": (1.0, 0.1)})
    cv = curve(net, external_order(table, ids), c0=5.0)
    # c would fit after a, but b already went over budget.
    assert cv.n_learned == 1
    assert cv.final_efficiency == pytest.approx(0.1)


def test_zero_cost_items_merge_into_one_corner():
    net, table, ids = flat({"a": (1.0, 0.2), "b": (0.0, 0.3),
                            "c": (0.0, 0.1), "d": (1.0, 0.4)})
    cv = curve(net, external_order(table, ids), c0=2.0)
    assert cv.points == ((1.0, 0.6), (2.0, 1.0))
    assert cv.counts == (3, 1)
    n, final, mean = at_horizon(cv, 1.0)
    assert (n, final) == (3, 0.6)
    assert mean == pytest.approx(0.0)


def test_horizon_must_be_positive():
    net, table, ids = flat({"a": (1.0, 1.0)})
    order = external_order(table, ids)
    for bad in (0.0, -1.0):
        with pytest.raises(NonPositiveHorizon):
            curve(net, order, c0=bad)
    cv = curve(net, order, c0=1.0)
    with pytest.raises(NonPositiveHorizon):
        at_horizon(cv, 0.0)
    with pytest.raises(ValueError):
        at_horizon(cv, 2.0)


def han_net():
    return build_network([
        GlyphNode("白", P, (), 5),
        GlyphNode("勺", P, (), 3),
        GlyphNode("的", C, ("白", "勺"), 8),
    ])


def han_table():
    return CentralityTable({
        "的": Centrality(f=0.5, c=1.0, eta=0.5),
        "白": Centrality(f=0.3, c=1.5, eta=0.2),
        "勺": Centrality(f=0.013, c=1.3, eta=0.01),
    })


def test_hierarchal_mode_rejects_violations():
    net, table = han_net(), han_table()
    rote = external_order(table, ["的", "白", "勺"])
    with pytest.raises(NotTopological) as err:
        curve(net, rote, c0=10.0)
    assert len(err.value.violations) == 2
    assert "的 before 白" in str(err.value)


def test_charge_unlearned_prices_the_closure():
    net, table = han_net(), han_table()
    rote = external_order(table, ["的", "白", "勺"])
    cv = curve(net, rote, c0=10.0, mode=CostMode.CHARGE_UNLEARNED)
    # 的 pays for itself plus unlearned 白 and 勺: 1 + 1.5 + 1.3. The
    # components are not thereby learned and pay again at their own
    # positions: 3.8, 5.3, 6.6.
    assert [c for c, _ in cv.points] == pytest.approx([3.8, 5.3, 6.6])
    assert cv.final_efficiency == pytest.approx(0.813)

    hier = external_order(table, ["白", "勺", "的"])
    for mode in CostMode:
        assert [c for c, _ in curve(net, hier, c0=10.0, mode=mode).points] \
            == pytest.approx([1.5, 2.8, 3.8])


def test_charge_repays_absent_members_every_time():
    net = build_network([
        GlyphNode("a", P, (), 1),
        GlyphNode("x", GlyphKind.VARIANT, ("a",), 2),
        GlyphNode("y", GlyphKind.VARIANT, ("a",), 3),
    ])
    table = CentralityTable({
        "x": Centrality(f=0.6, c=1.0, eta=0.6),
        "y": Centrality(f=0.4, c=1.0, eta=0.4),
    })
    order = external_order(table, ["x", "y"])
    with pytest.raises(MissingCost):
        curve(net, order, c0=10.0, mode=CostMode.CHARGE_UNLEARNED)
    cv = curve(net, order, c0=10.0, mode=CostMode.CHARGE_UNLEARNED,
               cost_lookup={"a": 1.3})
    assert [c for c, _ in cv.points] == pytest.approx([2.3, 4.6])


def test_charge_equals_hierarchal_on_topological_orders():
    rng = random.Random(99)
    for _ in range(60):
        net = random_network(rng, max_nodes=15)
        table = random_centralities(rng, net)
        order = priority_topo_sort(net, table, set(net.ids()))
        c0 = rng.uniform(0.3, 1.2) * sum(table[g].c for g in net.ids())
        a = curve(net, order, c0)
        b = curve(net, order, c0, mode=CostMode.CHARGE_UNLEARNED)
        assert a == b


def test_mean_never_exceeds_final():
    rng = random.Random(321)
    for _ in range(80):
        net = random_network(rng, max_nodes=15)
        table = random_centralities(rng, net)
        order = priority_topo_sort(net, table, set(net.ids()))
        c0 = rng.uniform(0.2, 1.5) * sum(table[g].c for g in net.ids())
        cv = curve(net, order, c0)
        assert cv.mean_efficiency <= cv.final_efficiency + 1e-15


def test_final_and_count_monotone_in_horizon():
    rng = random.Random(8)
    net = random_network(rng, max_nodes=20)
    table = random_centralities(rng, net)
    order = priority_topo_sort(net, table, set(net.ids()))
    total = sum(table[g].c for g in net.ids())
    prev = (0, 0.0)
    for frac in (0.1, 0.3, 0.5, 0.8, 1.0, 1.2):
        cv = curve(net, order, frac * total)
        assert (cv.n_learned, cv.final_efficiency) >= prev
        prev = (cv.n_learned, cv.final_efficiency)


def test_full_horizon_depends_only_on_the_set():
    rng = random.Random(13)
    for _ in range(40):
        net = random_network(rng, max_nodes=14)
        table = random_centralities(rng, net)
        pool = set(net.ids())
        c0 = sum(table[g].c for g in pool) + 1.0
        a = curve(net, priority_topo_sort(net, table, pool), c0)
        b = curve(net, kahn_order(net, table, pool), c0)
        assert a.n_learned == b.n_learned == len(pool)
        assert a.final_efficiency == pytest.approx(b.final_efficiency, abs=1e-12)


def test_at_horizon_matches_fresh_evaluation():
    rng = random.Random(55)
    for _ in range(40):
        net = random_network(rng, max_nodes=18)
        table = random_centralities(rng, net)
        order = priority_topo_sort(net, table, set(net.ids()))
        total = sum(table[g].c for g in net.ids())
        wide = curve(net, order, total * 1.3)
        for frac in (0.15, 0.4, 0.7, 1.0):
            h = frac * total * 1.3
            fresh = curve(net, order, h)
            n, final, mean = at_horizon(wide, h)
            assert n == fresh.n_learned
            assert final == pytest.approx(fresh.final_efficiency, abs=1e-12)
            assert mean == pytest.approx(fresh.mean_efficiency, abs=1e-12)


def test_truncate_equals_fresh_curve():
    # Exact equality, corners and all, including horizons that sit on a
    # corner: the CLI writes truncated curves in place of fresh ones.
    rng = random.Random(56)
    for _ in range(40):
        net = random_network(rng, max_nodes=18)
        table = random_centralities(rng, net)
        cost_lookup = {g: table[g].c for g in net.ids()}
        total = sum(table[g].c for g in net.ids())
        optimized = priority_topo_sort(net, table, set(net.ids()))
        rote = pure_frequency_order(table, net.ids())
        for order, mode in ((optimized, CostMode.HIERARCHAL),
                            (rote, CostMode.CHARGE_UNLEARNED)):
            wide = curve(net, order, total * 1.3, mode, cost_lookup)
            corners = [c for c, _ in wide.points[::3]]
            for h in corners + [frac * total * 1.3 for frac in (0.15, 0.4, 0.7, 1.0)]:
                assert truncate(wide, h) == curve(net, order, h, mode, cost_lookup)


def test_mean_matches_quadrature_oracle():
    integrate = pytest.importorskip("scipy.integrate")
    rng = random.Random(2718)
    for _ in range(15):
        net = random_network(rng, max_nodes=12)
        table = random_centralities(rng, net)
        order = priority_topo_sort(net, table, set(net.ids()))
        c0 = rng.uniform(0.4, 1.1) * sum(table[g].c for g in net.ids())
        cv = curve(net, order, c0)
        if not cv.points:
            continue
        cs = [c for c, _ in cv.points]
        fs = [f for _, f in cv.points]

        def step(x):
            value = 0.0
            for c, f in zip(cs, fs):
                if c <= x:
                    value = f
            return value

        area, _ = integrate.quad(step, 0.0, c0, points=cs, limit=200)
        assert cv.mean_efficiency == pytest.approx(area / c0, abs=1e-9)


def test_cluster_distance_to_nearest_preceding_component():
    net = build_network([
        GlyphNode("口", P, (), 3),
        GlyphNode("日", P, (), 4),
        GlyphNode("刀", P, (), 2),
        GlyphNode("召", C, ("刀", "口"), 5),
        GlyphNode("昭", C, ("日", "召"), 9),
    ])
    stats = cluster_stats(net, ["口", "日", "召", "昭"])
    # 刀 is not in the order, so 召 measures against 口 only: 2 - 0 = 2.
    # 昭 has 召 directly before it: 3 - 2 = 1.
    assert [r.avg_d1 for r in stats.rows] == [None, None, 2.0, pytest.approx(1.5)]


def test_cluster_unknown_id_raises_unknown_id():
    net = build_network([GlyphNode("A", P, (), 1), GlyphNode("X", GlyphKind.VARIANT, ("A",), 2)])
    with pytest.raises(UnknownId, match="^Z$"):
        cluster_stats(net, ["X", "A", "Z", "W"])


def test_cluster_row_is_immutable_with_named_fields():
    net = build_network([GlyphNode("A", P, (), 1), GlyphNode("X", GlyphKind.VARIANT, ("A",), 2)])
    row = cluster_stats(net, ["A", "X"]).rows[1]
    assert (row.n, row.avg_d1, row.avg_d2) == (2, 1.0, None)
    with pytest.raises(AttributeError):
        row.avg_d1 = 2.0


def test_cluster_all_primitives_undefined():
    net = build_network([GlyphNode(g, P, (), 1) for g in "abc"])
    stats = cluster_stats(net, ["a", "b", "c"])
    assert all(r.avg_d1 is None and r.avg_d2 is None for r in stats.rows)


def test_cluster_shared_component_distance_both_directions():
    net = build_network([
        GlyphNode("A", P, (), 1),
        GlyphNode("B", P, (), 1),
        GlyphNode("X", C, ("A", "B"), 2),
        GlyphNode("Y", GlyphKind.VARIANT, ("A",), 2),
    ])
    stats = cluster_stats(net, ["Y", "A", "B", "X"])
    # X and Y share component A; each is the other's nearest sharer, and
    # Y's distance looks forward, so it is defined from the first row.
    assert [r.avg_d2 for r in stats.rows] == [3.0, 3.0, 3.0, 3.0]
    by_n = {r.n: r for r in cluster_stats(net, ["Y", "X", "A", "B"]).rows}
    assert by_n[2].avg_d2 == 1.0


def test_cluster_prefix_restricts_averaging_only():
    net = build_network([
        GlyphNode("A", P, (), 1),
        GlyphNode("X", GlyphKind.VARIANT, ("A",), 2),
        GlyphNode("Y", GlyphKind.VARIANT, ("A",), 2),
    ])
    full = cluster_stats(net, ["A", "X", "Y"])
    capped = cluster_stats(net, ["A", "X", "Y"], max_n=2)
    assert capped.rows == full.rows[:2]
    # d2 at position 1 (X) looks forward to Y even with max_n=2.
    assert capped.rows[1].avg_d2 == 1.0


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["sweep", "kahn", "shuffled", "partial", "repeated"]),
       cap=st.one_of(st.none(), st.integers(0, 80)))
def test_cluster_stats_matches_position_list_oracle(seed, shape, cap):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=60, sparse=rng.random() < 0.3)
    table = random_centralities(rng, net)
    ids = list(net.ids())
    if shape == "sweep":
        order = priority_topo_sort(net, table, rng.sample(ids, rng.randint(1, len(ids))))
    elif shape == "kahn":
        order = kahn_order(net, table, ids)
    elif shape == "shuffled":
        order = rng.sample(ids, len(ids))
    elif shape == "partial":
        order = rng.sample(ids, rng.randint(0, len(ids)))
    else:
        order = [rng.choice(ids) for _ in range(rng.randint(0, 2 * len(ids)))]
    assert cluster_stats(net, order, cap) == oracle_cluster_stats(net, order, cap)


def test_curve_serializers():
    net, table, ids = flat({"a": (1.0, 0.6), "b": (1.0, 0.4)})
    cv = curve(net, external_order(table, ids), c0=2.0)
    assert serialize_curve_csv(cv) == (
        "cum_cost,cum_freq\n1.000000,0.600000000\n2.000000,1.000000000\n")
    payload = json.loads(curve_summary_json(cv))
    assert payload == {"c0": 2.0, "lambda_f": 1.0, "lambda_avg": 0.3, "n_learned": 2}
    assert curve_summary_json(cv) == (
        '{"c0": 2.0, "lambda_avg": 0.3, "lambda_f": 1.0, "n_learned": 2}\n')


def test_cluster_serializer_blanks_undefined():
    net = build_network([
        GlyphNode("A", P, (), 1),
        GlyphNode("X", GlyphKind.VARIANT, ("A",), 2),
    ])
    text = serialize_cluster_csv(cluster_stats(net, ["A", "X"]))
    assert text == "n,avg_d1,avg_d2\n1,,\n2,1.000,\n"
    # X and Y share A, and only X has A before it.
    net = build_network([
        GlyphNode("A", P, (), 1),
        GlyphNode("X", GlyphKind.VARIANT, ("A",), 2),
        GlyphNode("Y", GlyphKind.VARIANT, ("A",), 2),
    ])
    text = serialize_cluster_csv(cluster_stats(net, ["Y", "A", "X"]))
    assert text == "n,avg_d1,avg_d2\n1,,2.000\n2,,2.000\n3,1.000,2.000\n"
