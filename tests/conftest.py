"""Shared fixtures and independent oracles.

The oracles here are deliberately naive re-derivations of the contracts,
written before the library and kept frozen: a quadratic-time
transcription of the repair sweep that re-scans the list instead of
maintaining positions, a permutation-filter enumerator of topological
orders, a brute-force search that scores each candidate with `curve`,
clustering statistics from per-component position lists searched by
bisection, the decomposition parser, network builder, centralities and
hierarchy check as they stood before their per-node overhead was cut,
an uncached closure descent, and random network/centrality generators
with fixed seeds.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from itertools import permutations
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from glyphorder.costmodel import (Centrality, CentralityTable, CostParams, benefit_ratio,
                                  centralities)
from glyphorder.ingest import (FrequencyTable, ParseError, _integer, _lines,
                               parse_decompositions, parse_frequencies)
from glyphorder.metrics import ClusterRow, ClusterStats, curve
from glyphorder.network import (CycleDetected, DanglingReference, DecompositionNetwork,
                                DuplicateId, GlyphKind, GlyphNode, InvalidNode, build_network)
from glyphorder.ordering import (LearningOrder, Provenance, TooLarge, Violation, _make_items,
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


_ORACLE_KIND_CODES = {"p", "pc", "c", "v"}
_ORACLE_PRIMITIVES = (GlyphKind.PRIMITIVE_CHARACTER, GlyphKind.PRIMITIVE_COMPONENT)


def oracle_parse_decompositions(text: str) -> list[GlyphNode]:
    """Decomposition records, one check after another in the contract's
    order: field count, kind, strokes, then the id (empty, the "-"
    marker, whitespace, comma)."""
    nodes = []
    for lineno, line in _lines(text):
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError("line %d: expected 4 tab-separated fields, got %d" % (lineno, len(fields)))
        glyph, kind_code, comps_field, strokes_field = fields
        if kind_code not in _ORACLE_KIND_CODES:
            raise ParseError("line %d: unknown kind %r" % (lineno, kind_code))
        components = () if comps_field == "-" else tuple(comps_field.split())
        strokes = _integer(strokes_field, lineno, "strokes")
        if strokes < 0:
            raise ParseError("line %d: negative strokes" % lineno)
        if not glyph:
            raise ParseError("line %d: empty glyph id" % lineno)
        if glyph == "-":
            raise ParseError("line %d: glyph id - is the empty-components marker" % lineno)
        if re.search(r"\s", glyph):
            raise ParseError("line %d: glyph id %r contains whitespace" % (lineno, glyph))
        if "," in glyph:
            raise ParseError("line %d: glyph id %r contains a comma" % (lineno, glyph))
        nodes.append(GlyphNode(id=glyph, kind=GlyphKind(kind_code),
                               components=components, strokes=strokes))
    return nodes


def _oracle_check_shape(node: GlyphNode) -> None:
    n = len(node.components)
    if not node.id:
        raise InvalidNode("empty glyph id")
    if node.strokes < 0:
        raise InvalidNode("%s: negative stroke count" % node.id)
    if node.kind in _ORACLE_PRIMITIVES and n != 0:
        raise InvalidNode("%s: primitive with components" % node.id)
    if node.kind is GlyphKind.VARIANT and n != 1:
        raise InvalidNode("%s: variant must have exactly one component, got %d" % (node.id, n))
    if node.kind is GlyphKind.COMPOUND and n < 2:
        raise InvalidNode("%s: compound needs at least two components, got %d" % (node.id, n))
    if node.kind is GlyphKind.WORD and n < 2:
        raise InvalidNode("%s: word needs at least two characters, got %d" % (node.id, n))


def oracle_build_network(nodes) -> DecompositionNetwork:
    """Shapes and duplicates node by node, then every reference of every
    node in order, then one depth-first cycle check over all nodes."""
    by_id: dict[str, GlyphNode] = {}
    for node in nodes:
        _oracle_check_shape(node)
        if node.id in by_id:
            raise DuplicateId(node.id)
        by_id[node.id] = node

    containers: dict[str, list[str]] = {}
    for node in by_id.values():
        listed: set[str] = set()
        for comp in node.components:
            if comp not in by_id:
                raise DanglingReference("%s: unresolved component %s" % (node.id, comp))
            if by_id[comp].kind is GlyphKind.WORD:
                raise InvalidNode("%s: word %s used as component" % (node.id, comp))
            if comp not in listed:
                listed.add(comp)
                containers.setdefault(comp, []).append(node.id)

    _oracle_check_acyclic(by_id)
    frozen = {glyph: tuple(cs) for glyph, cs in containers.items()}
    return DecompositionNetwork(by_id, frozen)


def _oracle_check_acyclic(by_id: dict[str, GlyphNode]) -> None:
    """Three-colour depth-first search from every node in input order;
    the witness runs from the first grey node met again, back to it."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(by_id, WHITE)
    for start in by_id:
        if color[start] != WHITE:
            continue
        path = [start]
        stack = [iter(by_id[start].components)]
        color[start] = GRAY
        while stack:
            child = next(stack[-1], None)
            if child is None:
                color[path.pop()] = BLACK
                stack.pop()
                continue
            state = color[child]
            if state == BLACK:
                continue
            if state == GRAY:
                cycle = path[path.index(child):] + [child]
                raise CycleDetected(cycle)
            color[child] = GRAY
            path.append(child)
            stack.append(iter(by_id[child].components))


def _oracle_cost(node: GlyphNode, params: CostParams) -> float:
    if node.id in params.known:
        return 0.0
    if node.kind in _ORACLE_PRIMITIVES:
        base = round(1.0 + params.gamma * node.strokes, 12)
    elif node.kind is GlyphKind.VARIANT:
        base = params.variant_cost
    else:
        base = float(len(node.components) - 1)
    return base * params.suppression.get(node.id, 1.0)


def oracle_centralities(net: DecompositionNetwork, freq: FrequencyTable,
                        params: CostParams) -> CentralityTable:
    entries = {}
    for node in net.nodes():
        f = freq.get(node.id)
        c = _oracle_cost(node, params)
        entries[node.id] = Centrality(f=f, c=c, eta=benefit_ratio(f, c))
    return CentralityTable(entries=entries)


def oracle_validate_topological(net: DecompositionNetwork,
                                order: LearningOrder | Sequence[str]) -> list[Violation]:
    """Every id looked up first (UnknownId for the first absent one), then
    each item's distinct direct components in stored order: missing from
    the order, or placed after the item (at an id's last position)."""
    ids = order.ids() if isinstance(order, LearningOrder) else list(order)
    pos: dict[str, int] = {}
    for k, glyph in enumerate(ids):
        net.node(glyph)
        pos[glyph] = k
    out = []
    for k, glyph in enumerate(ids):
        seen: set[str] = set()
        for comp in net.node(glyph).components:
            if comp in seen:
                continue
            seen.add(comp)
            at = pos.get(comp)
            if at is None:
                out.append(Violation(compound=glyph, component=comp, missing=True))
            elif at > k:
                out.append(Violation(compound=glyph, component=comp))
    return out


def oracle_closure(net: DecompositionNetwork, glyph: str) -> tuple[str, ...]:
    """Depth-first preorder from `glyph` over stored component order, each
    id at its first visit, without any cache."""
    out: list[str] = []
    seen = {glyph}
    stack = [iter(net.node(glyph).components)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif child not in seen:
            seen.add(child)
            out.append(child)
            stack.append(iter(net.node(child).components))
    return tuple(out)
