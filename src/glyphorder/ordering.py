"""Learning orders: the priority-constrained topological sort and friends.

The optimizer takes the centrality ranking (best benefit/cost first) and
repairs it into a hierarchal order with as little disturbance as
possible: sweeping from the low-centrality end, any component found to
the right of a glyph that contains it is pulled to the glyph's left, as
far left as its own centrality allows. High-centrality compounds
therefore stay early, dragging just their components in front of them.
That result is built directly, each component placed once, in front of
the highest-ranked container that outranks it.

Also here: a pure-frequency baseline (not hierarchal in general), a
first-in-first-out Kahn baseline (hierarchal but centrality-blind), an
exhaustive brute-force optimizer for small networks (the greedy sweep is
not always optimal), and the hierarchal-validity checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .costmodel import CentralityTable, benefit_ratio
from .network import DecompositionNetwork, UnknownId

BRUTE_FORCE_LIMIT = 10      # the most nodes `brute_force_best_order` enumerates


class TooLarge(Exception):
    """Brute-force enumeration refused: selection exceeds the node limit."""


class Provenance(Enum):
    """How a learning order was produced."""

    OPTIMIZED = "optimized"
    PURE_FREQUENCY = "pure-frequency"
    EXTERNAL = "external"
    KAHN = "kahn"
    BRUTE_FORCE_OPTIMAL = "brute-force-optimal"


class OrderItem(NamedTuple):
    """One scheduled glyph with its learning cost and frequency share."""

    glyph: str
    cost: float
    freq: float


@dataclass(frozen=True)
class LearningOrder:
    """A permutation of the selected nodes, with provenance."""

    items: tuple[OrderItem, ...]
    provenance: Provenance

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[OrderItem]:
        return iter(self.items)

    def ids(self) -> list[str]:
        return [item.glyph for item in self.items]


class Violation(NamedTuple):
    """A component scheduled after (or missing for) a glyph that needs it."""

    compound: str
    component: str
    missing: bool = False


def expand_selection(net: DecompositionNetwork, select: Iterable[str]) -> set[str]:
    """Selection plus every closure member; raises UnknownId for the first
    id of `select` absent from the network.

    One depth-first walk over stored components whose visited set is the
    pool itself: an id already in the pool has its whole closure there
    too, so no id is walked twice and no closure is built.
    """
    nodes = net._nodes
    pool: set[str] = set()
    add = pool.add
    for glyph in select:
        if glyph in pool:
            continue
        if glyph not in nodes:
            raise UnknownId(glyph)
        add(glyph)
        stack = [glyph]
        while stack:
            # Index 2 of a node is its components.
            for comp in nodes[stack.pop()][2]:
                if comp not in pool:
                    add(comp)
                    stack.append(comp)
    return pool


def target_pool(net: DecompositionNetwork, items: Sequence[str]) -> tuple[set[str], list[str]]:
    """Target selection: the items present in the network plus their
    closures, and the items missing from it, in input order."""
    present = [item for item in items if item in net]
    missing = [item for item in items if item not in net]
    return expand_selection(net, present), missing


def _make_items(table: CentralityTable, ids: Sequence[str]) -> tuple[OrderItem, ...]:
    entries = table.entries
    # tuple.__new__ builds each item without a Python-level __new__ call,
    # and an entry's index 1 is its cost, index 0 its frequency.
    new = tuple.__new__
    try:
        return tuple([new(OrderItem, (glyph, (entry := entries[glyph])[1], entry[0]))
                      for glyph in ids])
    except KeyError as exc:
        raise UnknownId(exc.args[0]) from None


def external_order(table: CentralityTable, ids: Sequence[str],
                   provenance: Provenance = Provenance.EXTERNAL) -> LearningOrder:
    """Wrap a fixed glyph sequence (e.g. a published curriculum) as an order."""
    return LearningOrder(items=_make_items(table, ids), provenance=provenance)


# No glyph id is empty, so the empty id can mark the head's place.
_MARKER = ""


def priority_topo_sort(net: DecompositionNetwork, table: CentralityTable,
                       select: Iterable[str]) -> LearningOrder:
    """Sort the selection into a hierarchal order with minimal disturbance.

    The initial list is the selection plus all closure members, ranked by
    descending centrality. The list is then repaired by a sweep: from the
    low-centrality end, each closure member found to the right of the
    glyph under the cursor is pulled to its left, directly right of the
    rightmost item whose eta is at least the member's own (at the very
    front when no such item exists), and the cursor resumes just left of
    the glyph's final place. Equal-eta placement therefore lands right of
    its equals. Items that are never repositioned keep their relative
    ranking, and an already-hierarchal list passes through unchanged.

    The sweep's result is built directly. Items of eta 0 are *lazy* here:
    the zero-cost *head* (zero cost and zero frequency, ranked right
    after the infinite etas) and the positive-cost tail (zero-frequency
    components) alike. The positive etas, the infinite ones and then the
    finite ones in descending order, are eta-monotone: `_place` puts each
    of them once into the block of its owner, the highest-ranked item
    above it whose closure contains it, and its docstring argues why that
    is the sweep's result. Lazy items are left out of that and placed
    afterwards, with the same result as sweeping them:

    - A lazy member's walk stops at once, so the lazy items a glyph pulls
      form one block directly left of it. The cursor drains that block
      before it reaches any other item, and inside it lazy items only
      pull each other.
    - A lazy item never stops the walk of a positive eta. One of the
      tail pulls no positive item: its positive members rank above it,
      and once it is in a block, its owner's positive members lie left
      of that block. So without a head, the positive items move exactly
      as in a sweep of them alone.
    - The head's glyphs do pull positive items. No finite eta exceeds
      that of the first finite eta `p0`, and an equal one stops at `p0`,
      so when the cursor reaches `p0` the infinite etas and then the
      head lie left of it in rank order. The positive members `p0` pulls
      walk past the head. So do those each head glyph pulls when the
      cursor then visits the head from its last glyph to its first:
      everything positive in its closure that is still right of it, `p0`
      included. All of them land after the infinite etas in one block,
      sorted by eta like any block. The positive items therefore move
      as in a sweep of them alone in which a *marker*, ranked between
      the infinite etas and `p0`, owns that block. `_place` gets the
      marker there, and the marker's walk takes `p0`'s components and
      then the head glyphs in reverse rank order, passing through them
      as through any id outside its list. With an empty head, the
      marker's block is the one `p0` would own.
    - Each lazy item ends in the block of its last puller, its *owner*:
      its leftmost container, direct or not, in that sweep's result,
      among the positive items and the head glyphs still in the head.
      The cursor visits the head after every item placed right of the
      marker and before every item left of it. So at the marker's place
      the head glyphs that no owner to its left claimed stand in rank
      order, each the owner of its own block, and a head glyph pulls
      the lazy items it reaches after every owner to its right.
    - A block ends in depth-first postorder from its owner: components
      in stored order, each node at its first visit. A path from an
      owner to an item it owns passes only through items it owns, so the
      walk descends into those alone, and each lazy item is reached once.
    - Lazy items with no such container at all stay at the end, in the
      order a sweep of them alone gives.
    """
    nodes = net._nodes
    entries = table.entries
    ranked = table.ranked(expand_selection(net, select))
    # Index 2 of an entry is its eta, index 1 its cost; index 2 of a node
    # is its components.
    eta = {glyph: entries[glyph][2] for glyph in ranked}
    components = {glyph: nodes[glyph][2] for glyph in ranked}
    # Zero costs rank first: the infinite etas, then the head.
    free = 0
    while free < len(ranked) and not entries[ranked[free]][1]:
        free += 1
    head = [glyph for glyph in ranked[:free] if not eta[glyph]]
    cut = free - len(head)
    listed = [glyph for glyph in ranked if eta[glyph]]
    first = components[listed[cut]] if cut < len(listed) else ()
    listed.insert(cut, _MARKER)
    components[_MARKER] = (*first, *reversed(head))
    lazy = {glyph for glyph in ranked if not eta[glyph]}

    order: list[str] = []
    for owner in _place(components, listed, eta):
        # The marker's postorder holds the head glyphs still unclaimed, in
        # rank order, each right after its block.
        held = components[owner] if owner else head
        for comp in held:
            if comp in lazy:
                break
        else:
            # No lazy item left to pull: the block is the owner alone.
            order.append(owner)
            continue
        # Postorder from the owner through the lazy items no owner to
        # its left has claimed, the owner itself last.
        stack = [(owner, iter(held))]
        while stack:
            glyph, pending = stack[-1]
            for comp in pending:
                if comp in lazy:
                    lazy.remove(comp)
                    stack.append((comp, iter(components[comp])))
                    break
            else:
                stack.pop()
                order.append(glyph)
    order.remove(_MARKER)
    order += _place(components, [glyph for glyph in ranked if glyph in lazy], eta)
    return LearningOrder(items=_make_items(table, order),
                         provenance=Provenance.OPTIMIZED)


def _place(components: dict[str, tuple[str, ...]], ranked: list[str],
           eta: dict[str, float]) -> list[str]:
    """The sweep's result for an eta-monotone `ranked`, built directly;
    `components` maps every id a walk can meet to its components.

    An item's *owner* is the highest-ranked item of the list that ranks
    above it and whose closure contains it. An item with no owner keeps
    its rank. Each owner's *block* sits directly left of it: the items it
    owns, in the order its closure lists them, stable-sorted by eta
    descending, and then arranged by the same rule as a list of its own.

    Why this is the sweep's result: a pulled member lands right of every
    item of equal or higher eta left of the cursor, so an item with no
    owner, which never moves, has only items of equal or higher eta to
    its left when the cursor reaches it. All of its closure members
    ranked below it then lie to its right, and it pulls every one of
    them, wherever earlier pulls put them, into a block directly left of
    itself: in closure order, equal etas in pull order. Nothing in the
    closure of a block member is left right of the block, so the
    cursor's pass over the block is the sweep of the block alone. A
    member that a higher-ranked container also holds is pulled again
    when the cursor reaches that container, with all of its closure
    below the container, and taking out such a closure-closed set leaves
    the order of the rest as it was. So each item ends in the block of
    its last puller, its owner.

    Owners come from one pass in rank order in which the first claim on
    an item wins; an owned item claims nothing, since its owner already
    claimed all of its closure below it. No closure is built: an item
    claims its block by a depth-first preorder walk from it over stored
    components, and each id the walk meets is
    - claimed and walked into, when it is a member of the list being
      arranged that is neither scanned nor claimed yet;
    - walked through, once per list, when it is outside `ranked`: the
      lazy items that `priority_topo_sort` leaves out, whose components
      may be ranked;
    - skipped otherwise, which is exact because it holds nothing the
      walk could still claim. An id the scan or a claim took already
      had the unclaimed members of its closure taken then, by itself or
      by its claimer, and a walked-through id had them taken by its
      walk. An id of `ranked` that an enclosing list did not put into
      this block holds none of the block's members or is out of their
      reach: when its turn came they were unclaimed, so it took any it
      held, and a block member reaches only its owner's closure, all of
      which below the owner the owner took.
    So each block is the owner's closure order restricted to what it
    owns, and a walk stops once the list has nothing left to claim.

    Blocks are arranged from an explicit stack, so nesting depth is not
    bounded by Python's recursion limit. Each level walks the components
    of the ids it claims or passes through once, so n blocks nested
    inside one another cost about n^2 / 2 walk steps; the languages
    `perfbench/synth.py` generates nest at most four levels deep.
    """
    fixed = set(ranked)
    order: list[str] = []
    # Lists still to arrange, and ids whose blocks are already in `order`.
    stack: list[list[str] | str] = [ranked]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            order.append(top)
            continue
        # Ids of the list neither scanned nor claimed yet, and ids outside
        # `fixed` that a walk of this list has passed through.
        below = set(top)
        passed: set[str] = set()
        placed = []
        for glyph in top:
            if glyph not in below:
                continue
            below.remove(glyph)
            block: list[str] = []
            walk = [iter(components[glyph])] if below else []
            while walk:
                for comp in walk[-1]:
                    if comp in below:
                        below.remove(comp)
                        block.append(comp)
                        if not below:
                            # Nothing is left to claim.
                            walk.clear()
                            break
                    elif comp in fixed or comp in passed:
                        continue
                    else:
                        passed.add(comp)
                    walk.append(iter(components[comp]))
                    break
                else:
                    walk.pop()
            placed.append((glyph, block))
        for glyph, block in reversed(placed):
            stack.append(glyph)
            if len(block) > 1:
                block.sort(key=eta.__getitem__, reverse=True)
                stack.append(block)
            else:
                # A block of at most one id is arranged already.
                stack += block
    return order


def pure_frequency_order(table: CentralityTable, select: Iterable[str]) -> LearningOrder:
    """Most frequent first, ties lexicographic; hierarchy ignored.

    Zero-frequency items (components that never occur as corpus tokens)
    fall to the end automatically. The caller chooses whether `select`
    includes closure members; `expand_selection` builds that pool.
    """
    entries = table.entries
    ids = sorted(select, key=lambda g: (-entries[g].f, g))
    return LearningOrder(items=_make_items(table, ids),
                         provenance=Provenance.PURE_FREQUENCY)


def _precedence(net: DecompositionNetwork, ids: Sequence[str]) -> tuple[list[int], list[list[int]]]:
    """Each id's count of distinct components, and the positions in `ids`
    of its containers in ascending order; `ids` is closed under
    components. One pass over the stored components of `ids`, so no
    network-wide container index is built."""
    nodes = net._nodes
    index = {glyph: k for k, glyph in enumerate(ids)}
    blocked = []
    parents: list[list[int]] = [[] for _ in ids]
    for k, glyph in enumerate(ids):
        # Index 2 of a node is its components; a repeated one is one edge.
        comps = set(nodes[glyph][2])
        blocked.append(len(comps))
        for comp in comps:
            parents[index[comp]].append(k)
    return blocked, parents


def kahn_order(net: DecompositionNetwork, table: CentralityTable,
               select: Iterable[str]) -> LearningOrder:
    """Arbitrary hierarchal baseline: first-in-first-out Kahn's algorithm.

    Components count as prerequisites. The queue is seeded with the
    dependency-free nodes in lexicographic id order and new nodes are
    appended as their last prerequisite is scheduled, containers of one
    node in lexicographic order, so the result is deterministic but pays
    no attention to centrality. Precedence is read from the pool's
    stored components.
    """
    ids = sorted(expand_selection(net, select))
    blocked, parents = _precedence(net, ids)
    queue = [k for k, n in enumerate(blocked) if not n]
    for k in queue:
        for parent in parents[k]:
            blocked[parent] -= 1
            if not blocked[parent]:
                queue.append(parent)
    return LearningOrder(items=_make_items(table, [ids[k] for k in queue]),
                         provenance=Provenance.KAHN)


def validate_topological(net: DecompositionNetwork,
                         order: LearningOrder | Sequence[str]) -> list[Violation]:
    """All (glyph, direct component) pairs scheduled out of order.

    A pair is reported when the component appears after the glyph or not
    at all. An empty result means the order is hierarchal: by induction,
    direct components in place puts full closures in place.
    """
    ids = order.ids() if isinstance(order, LearningOrder) else list(order)
    comps = net.components_of(ids)
    pos = {glyph: k for k, glyph in enumerate(ids)}
    # An id absent from the order reads as position n, after every item.
    n = len(ids)
    new = tuple.__new__
    out = []
    for k, components in enumerate(comps):
        for comp in components:
            if pos.get(comp, n) > k:
                break
        else:
            continue
        # Rare: this item has a violation. Report each distinct component
        # once, in stored order.
        glyph = ids[k]
        for comp in dict.fromkeys(components):
            at = pos.get(comp)
            if at is None:
                out.append(new(Violation, (glyph, comp, True)))
            elif at > k:
                out.append(new(Violation, (glyph, comp, False)))
    return out


def brute_force_best_order(net: DecompositionNetwork, table: CentralityTable,
                           select: Iterable[str], c0: float) -> LearningOrder:
    """Exhaustively find the best hierarchal order of a small selection.

    Searches every topological order of the selection (plus closure
    members) and keeps the one with the highest mean efficiency at
    horizon `c0`, breaking ties by higher final efficiency and then by
    the lexicographically smaller id list. Exponential time; refuses
    more than `BRUTE_FORCE_LIMIT` (10) nodes, and a `c0` that is not
    finite and positive. Precedence is read from the pool's stored
    components.

    The search places an item only after its components, so every order
    it builds is hierarchal. Instead of building and validating each
    candidate, each level tries the ready items in the table's ranking
    (highest eta = f / c first) and carries the prefix's curve in three
    floats: the area under it up to its last corner, and that corner
    (C, F), (0, 0) before the first, whose zero-height segment adds
    exactly 0.0 to the area. An item is over budget when C plus its cost exceeds
    `c0`; one that leaves C where it was merges into the last corner. A
    complete or cut prefix scores (area + F (c0 - C)) / c0. These are
    `curve`'s float operations in `curve`'s order, so every score is
    bit-for-bit the one `curve` gives for that order.

    Once an item is over budget, nothing after it counts: every
    completion of that prefix scores the same, and every over-budget
    child of one node scores that same cut prefix. So each prefix is
    scored in one place, after its in-budget children, when it is
    complete or has an over-budget ready child. Its path is the prefix,
    plus its smallest-id over-budget child if it is cut. A path whose
    score is at least the best so far becomes the best, except that an
    equal score goes to the lexicographically smaller path, so the
    result does not depend on the order the search runs in. Two scored
    paths differ before either one ends, so comparing paths picks the
    same winner as comparing their completions. Only the winning path is
    completed, by repeatedly adding the smallest-id ready item: the
    lexicographically first order through it.

    An in-budget child is skipped when no completion below it can reach
    the best score, by branch and bound:

    - Area identity: the score's numerator, area + F (c0 - C), is
      sum f_j (c0 - C_j) over the learned items, where C_j is the cost
      at which item j is learned. This is single-machine total weighted
      completion time under precedence, cut at a horizon.
    - Bound: say the child leaves (area a, cost C, frequency F) and room
      r = c0 - C. An item j placed later is learned at C_j >= C + c_j,
      so it adds at most f_j (r - c_j), and nothing unless c_j < r. Every
      completion's numerator is therefore at most
      a + F r + sum f_j (r - c_j) over the unplaced j with c_j < r, and,
      since F and the unplaced frequencies add up to all of them, at
      most a + (sum of all f) r. The search tests that O(1) form first.
      Only when it does not prune does it add up the sum, over positive
      frequencies, cheapest first, up to the first c_j >= r or until the
      bound reaches the best numerator so far.
    - Floor: nothing is skipped before the first order is scored. With
      no negative cost or frequency, adding an in-budget item never
      lowers a prefix's score, and the ranking puts the greedy choice
      first at every level, so the first descent extends the greedy
      order (always the ready item ranked first, up to its first item
      over budget) and scores at least as high. The best numerator only
      rises from there.
    - Margin: a child is skipped only when its bound is below the best
      numerator so far by more than 1e-9 c0 (sum of all f). Numerators and bounds are sums
      of at most 2 `BRUTE_FORCE_LIMIT` products of non-negative floats,
      adding up to at most c0 (sum of all f), over costs that are float
      sums too, so their rounding is some 1e-15 of that. A skipped
      subtree thus scores strictly below the best: it never holds the
      winner or an order tied with it, so the result, its score bits and
      its tie-breaks are those of the full enumeration. Without the
      margin, a bound that rounds below an equal score can skip the very
      path that reaches it.
    - Non-negativity: the bound needs every cost and frequency of the
      pool finite and >= 0 (a negative cost lowers C, a negative
      frequency makes a cut worth more), as `centralities` always gives.
      For any other table the margin is infinite, so the best numerator
      less the margin stays -inf, even for a NaN score, and nothing is
      skipped. A table that can make a score NaN (a NaN cost or
      frequency, a cost of -inf, or an infinite frequency) has no best
      order, and which order it gets is unspecified.
    """
    pool = expand_selection(net, select)
    if len(pool) > BRUTE_FORCE_LIMIT:
        raise TooLarge("%d nodes exceed the brute-force limit of %d"
                       % (len(pool), BRUTE_FORCE_LIMIT))
    if not 0 < c0 < math.inf:
        raise ValueError("c0 must be finite and positive, got %r" % (c0,))

    # Nodes are their indices in id order, so index order is lexicographic.
    ids = sorted(pool)
    n = len(ids)
    # Index 1 of an entry is its cost, index 0 its frequency.
    entries = table.entries
    costs = [entries[g][1] for g in ids]
    freqs = [entries[g][0] for g in ids]
    # Components not yet placed; a placed node reads -1, so 0 means ready.
    blocked, parents = _precedence(net, ids)

    total = sum(freqs)
    # The items a bound sums over: zero frequencies add nothing to it.
    by_cost = sorted((costs[j], freqs[j], j) for j in range(n) if freqs[j] > 0)
    # A child whose bound is below the best numerator less the margin is
    # skipped; an infinite margin, for a table the bound does not hold
    # on, skips nothing.
    margin = 1e-9 * c0 * total if all(0 <= x < math.inf for x in costs + freqs) else math.inf
    cutoff = -math.inf
    # Sort keys end in the id, so this is the table's ranking.
    rank = sorted(range(n), key=lambda k: table.sort_key(ids[k]))

    best_score: tuple[float, float] | None = None
    best: list[int] = []
    prefix: list[int] = []

    def search(area: float, c: float, f: float) -> None:
        nonlocal best_score, best, cutoff
        over = n
        for k in rank:
            if blocked[k]:
                continue
            step = c + costs[k]
            if step > c0:
                over = min(over, k)
                continue
            after = area if step == c else area + f * (step - c)
            room = c0 - step
            if after + total * room < cutoff:
                continue
            bound = after + (f + freqs[k]) * room
            for cj, fj, j in by_cost:
                if cj >= room or bound >= cutoff:
                    break
                if blocked[j] >= 0 and j != k:
                    bound += fj * (room - cj)
            if bound < cutoff:
                continue
            blocked[k] = -1
            prefix.append(k)
            for parent in parents[k]:
                blocked[parent] -= 1
            search(after, step, f + freqs[k])
            for parent in parents[k]:
                blocked[parent] += 1
            prefix.pop()
            blocked[k] = 0
        if over == n and len(prefix) < n:
            return
        # The prefix is complete, or cut at its smallest-id over-budget child.
        value = area + f * (c0 - c)
        score = (value / c0, f)
        path = prefix + [over] if over < n else prefix[:]
        if best_score is None or not (score < best_score or score == best_score and path > best):
            best_score, best = score, path
            cutoff = max(cutoff, value - margin)

    search(0.0, 0.0, 0.0)
    # Complete the winning path: repeatedly the smallest-id ready node.
    for i, k in enumerate(best):
        blocked[k] = -1
        for parent in parents[k]:
            blocked[parent] -= 1
        if i == len(best) - 1 and 0 in blocked:
            best.append(blocked.index(0))
    return LearningOrder(items=_make_items(table, [ids[k] for k in best]),
                         provenance=Provenance.BRUTE_FORCE_OPTIMAL)


def serialize_order_csv(net: DecompositionNetwork, order: LearningOrder) -> str:
    """Order CSV: rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq.

    Frequencies carry 9 decimal places; the format is stable so repeated
    runs are byte-identical.
    """
    lines = ["rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq"]
    cum_cost = 0.0
    cum_freq = 0.0
    for rank, item in enumerate(order, start=1):
        cum_cost += item.cost
        cum_freq += item.freq
        lines.append("%d,%s,%s,%.6f,%.9f,%.9g,%.6f,%.9f" % (
            rank, item.glyph, net.node(item.glyph).kind.code,
            item.cost, item.freq, benefit_ratio(item.freq, item.cost), cum_cost, cum_freq))
    return "\n".join(lines) + "\n"
