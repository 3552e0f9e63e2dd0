"""Shared fixtures and independent oracles.

The oracles here are deliberately naive re-derivations of the contracts,
written before the library and kept frozen: a quadratic-time
transcription of the repair sweep that re-scans the list instead of
maintaining positions, a permutation-filter enumerator of topological
orders, a brute-force search that scores each candidate with `curve`,
clustering statistics from per-component position lists searched by
bisection, and random network/centrality generators with fixed seeds.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import permutations
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from glyphorder.costmodel import Centrality, CentralityTable, CostParams, centralities
from glyphorder.ingest import FrequencyTable, parse_decompositions, parse_frequencies
from glyphorder.metrics import ClusterRow, ClusterStats, curve
from glyphorder.network import DecompositionNetwork, GlyphKind, GlyphNode, build_network
from glyphorder.ordering import (LearningOrder, Provenance, TooLarge, _make_items,
                                 expand_selection, external_order)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "glyphorder" / "data"

acceptance_results: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_results:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_results:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mini_net() -> DecompositionNetwork:
    text = (DATA_DIR / "decompositions.tsv").read_text(encoding="utf-8")
    return build_network(parse_decompositions(text))


@pytest.fixture(scope="session")
def mini_freq() -> FrequencyTable:
    text = (DATA_DIR / "char_freq.tsv").read_text(encoding="utf-8")
    return parse_frequencies(text)


@pytest.fixture(scope="session")
def mini_word_freq() -> FrequencyTable:
    text = (DATA_DIR / "word_freq.tsv").read_text(encoding="utf-8")
    return parse_frequencies(text)


@pytest.fixture(scope="session")
def mini_table(mini_net, mini_freq) -> CentralityTable:
    return centralities(mini_net, mini_freq, CostParams())


def random_network(rng: random.Random, max_nodes: int = 30,
                   sparse: bool = False) -> DecompositionNetwork:
    """Random acyclic network over synthetic x-<i> ids.

    Nodes are generated in a topological order, each drawing components
    from its predecessors. `sparse` biases toward chains and trees (few
    distinct topological orders), which keeps exhaustive enumeration
    cheap for the brute-force comparisons.
    """
    n = rng.randint(2, max_nodes)
    ids = ["x-%d" % i for i in range(n)]
    nodes = []
    for i, glyph in enumerate(ids):
        pool = ids[:i]
        max_arity = min(len(pool), 3)
        if not pool:
            arity = 0
        elif sparse:
            arity = rng.choice([0, 1, 2, 2])
            arity = min(arity, max_arity)
        else:
            arity = rng.choice([0, 0, 1, 2, 2, 3])
            arity = min(arity, max_arity)
        if arity == 0:
            kind = rng.choice([GlyphKind.PRIMITIVE_CHARACTER, GlyphKind.PRIMITIVE_COMPONENT])
            nodes.append(GlyphNode(glyph, kind, (), rng.randint(0, 15)))
        elif arity == 1:
            nodes.append(GlyphNode(glyph, GlyphKind.VARIANT,
                                   (rng.choice(pool),), rng.randint(1, 15)))
        else:
            comps = rng.sample(pool, arity)
            if rng.random() < 0.15:
                comps.append(rng.choice(comps))
            nodes.append(GlyphNode(glyph, GlyphKind.COMPOUND,
                                   tuple(comps), rng.randint(2, 20)))
    return build_network(nodes)


def random_centralities(rng: random.Random, net: DecompositionNetwork,
                        distinct_eta: bool = True) -> CentralityTable:
    """Synthetic centralities: positive costs, frequencies summing to 1,
    eta consistent with f/c. Distinct etas by default so ranking ties
    never mask ordering differences."""
    ids = list(net.ids())
    if distinct_eta:
        etas = rng.sample(range(1, 10 * len(ids) + 1), len(ids))
    else:
        etas = [rng.randint(1, 5) for _ in ids]
    costs = [rng.choice([0.5, 1.0, 1.3, 2.0, 3.5]) for _ in ids]
    raw_f = [eta * c for eta, c in zip(etas, costs)]
    total = sum(raw_f)
    entries = {}
    for glyph, c, rf in zip(ids, costs, raw_f):
        f = rf / total
        entries[glyph] = Centrality(f=f, c=c, eta=f / c)
    return CentralityTable(entries=entries)


def table_from_counts(net: DecompositionNetwork, counts: dict[str, int],
                      params: CostParams | None = None) -> CentralityTable:
    freq = FrequencyTable.from_counts(counts)
    return centralities(net, freq, params or CostParams())


def oracle_sweep_from(net: DecompositionNetwork, table: CentralityTable,
                      initial: list[str]) -> tuple[list[str], set[str]]:
    """Naive transcription of the repair sweep, starting from `initial`.

    Re-scans the list for every position instead of maintaining an
    index, and records which glyphs were ever repositioned. The rules:
    process the list from its low-centrality end; pull each closure
    member found to the right of the current glyph to the leftmost spot
    where everything strictly to its left has eta >= its own; resume
    just left of the current glyph's final position.
    """
    order = list(initial)
    moved: set[str] = set()
    i = len(order) - 1
    while i >= 0:
        glyph = order[i]
        for member in net.closure(glyph):
            if order.index(member) <= order.index(glyph):
                continue
            moved.add(member)
            order.remove(member)
            q = 0
            for k in range(order.index(glyph) - 1, -1, -1):
                if table.eta(order[k]) >= table.eta(member):
                    q = k + 1
                    break
            order.insert(q, member)
        i = order.index(glyph) - 1
    return order, moved


def oracle_sweep(net: DecompositionNetwork, table: CentralityTable,
                 select) -> tuple[list[str], set[str]]:
    """Ranked selection plus closures, then the naive repair sweep."""
    pool: set[str] = set()
    for glyph in select:
        pool.add(glyph)
        pool.update(net.closure(glyph))
    return oracle_sweep_from(net, table, table.ranked(pool))


def enumerate_topological(net: DecompositionNetwork, pool: set[str]):
    """All hierarchal orders of `pool` by brute permutation filtering.

    Exponential in the worst way; callers keep pools tiny. Yields orders
    in lexicographic sequence order.
    """
    ids = sorted(pool)
    comps = {g: set(net.node(g).components) & pool for g in ids}
    for perm in permutations(ids):
        seen: set[str] = set()
        ok = True
        for glyph in perm:
            if not comps[glyph] <= seen:
                ok = False
                break
            seen.add(glyph)
        if ok:
            yield list(perm)


def oracle_brute_force(net: DecompositionNetwork, table: CentralityTable,
                       select, c0: float, limit: int = 10) -> LearningOrder:
    """Per-candidate brute force: every candidate becomes an order scored
    by `curve`, which validates it again.

    Enumerates every topological order of the selection (plus closure
    members) in lexicographic order and keeps the one with the highest
    mean efficiency at horizon `c0`, breaking ties by higher final
    efficiency and then by the enumeration order itself. Once a prefix's
    cumulative cost exceeds `c0`, items past the first over-budget one
    are excluded from the curve, so every completion scores the same and
    the subtree collapses to its lexicographically first completion.
    """
    pool = expand_selection(net, select)
    if len(pool) > limit:
        raise TooLarge("%d nodes exceed the brute-force limit of %d" % (len(pool), limit))
    if c0 <= 0:
        raise ValueError("c0 must be positive")

    ids = sorted(pool)
    comps_in_pool = {g: set(net.node(g).components) & pool for g in ids}
    blocked = {g: len(comps_in_pool[g]) for g in ids}
    parents = {g: sorted(set(net.containers(g)) & pool) for g in ids}

    best: dict = {"score": None, "order": None}
    prefix: list[str] = []
    placed: set[str] = set()

    def lex_first_completion() -> list[str]:
        extra_blocked = dict(blocked)
        avail = sorted(g for g in ids if g not in placed and extra_blocked[g] == 0)
        tail = []
        while avail:
            glyph = avail.pop(0)
            tail.append(glyph)
            for parent in parents[glyph]:
                extra_blocked[parent] -= 1
                if extra_blocked[parent] == 0:
                    avail.append(parent)
                    avail.sort()
        return prefix + tail

    def consider(candidate: list[str]) -> None:
        lo = external_order(table, candidate, Provenance.BRUTE_FORCE_OPTIMAL)
        cv = curve(net, lo, c0)
        score = (cv.mean_efficiency, cv.final_efficiency)
        if best["score"] is None or score > best["score"]:
            best["score"] = score
            best["order"] = list(candidate)

    def recurse(cum_cost: float) -> None:
        if len(prefix) == len(ids):
            consider(prefix)
            return
        if cum_cost > c0:
            consider(lex_first_completion())
            return
        for glyph in ids:
            if glyph in placed or blocked[glyph] > 0:
                continue
            placed.add(glyph)
            prefix.append(glyph)
            for parent in parents[glyph]:
                blocked[parent] -= 1
            recurse(cum_cost + table[glyph].c)
            for parent in parents[glyph]:
                blocked[parent] += 1
            prefix.pop()
            placed.discard(glyph)

    recurse(0.0)
    if best["order"] is None:
        return LearningOrder(items=(), provenance=Provenance.BRUTE_FORCE_OPTIMAL)
    return LearningOrder(items=_make_items(table, best["order"]),
                         provenance=Provenance.BRUTE_FORCE_OPTIMAL)


def oracle_cluster_stats(net: DecompositionNetwork, order: LearningOrder | Sequence[str],
                         max_n: int | None = None) -> ClusterStats:
    """Clustering statistics by position lists: for each direct component,
    the ascending positions of the items holding it; an item's nearest
    sharers of that component are its neighbours in the list."""
    ids = order.ids() if isinstance(order, LearningOrder) else list(order)
    limit = len(ids) if max_n is None else min(max_n, len(ids))
    pos = {g: k for k, g in enumerate(ids)}

    member_pos: dict[str, list[int]] = {}
    for k, glyph in enumerate(ids):
        for comp in set(net.node(glyph).components):
            member_pos.setdefault(comp, []).append(k)

    d1 = np.full(len(ids), np.nan)
    d2 = np.full(len(ids), np.nan)
    for k, glyph in enumerate(ids):
        comps = set(net.node(glyph).components)
        best1 = None
        best2 = None
        for comp in comps:
            at = pos.get(comp)
            if at is not None and at < k:
                dist = k - at
                if best1 is None or dist < best1:
                    best1 = dist
            for other in _oracle_nearest(member_pos.get(comp, ()), k):
                if best2 is None or other < best2:
                    best2 = other
        if best1 is not None:
            d1[k] = best1
        if best2 is not None:
            d2[k] = best2

    rows = []
    have1 = np.cumsum(~np.isnan(d1))
    have2 = np.cumsum(~np.isnan(d2))
    sum1 = np.cumsum(np.nan_to_num(d1))
    sum2 = np.cumsum(np.nan_to_num(d2))
    for n in range(1, limit + 1):
        avg1 = float(sum1[n - 1] / have1[n - 1]) if have1[n - 1] else None
        avg2 = float(sum2[n - 1] / have2[n - 1]) if have2[n - 1] else None
        rows.append(ClusterRow(n=n, avg_d1=avg1, avg_d2=avg2))
    return ClusterStats(rows=tuple(rows))


def _oracle_nearest(positions: Sequence[int], k: int) -> list[int]:
    """Distances from k to its nearest neighbors (excluding k) in a
    sorted position list; empty when k is the only occupant."""
    out = []
    at = bisect_left(positions, k)
    below = at - 1
    above = at + 1 if at < len(positions) and positions[at] == k else at
    if below >= 0:
        out.append(k - positions[below])
    if above < len(positions):
        out.append(positions[above] - k)
    return out
