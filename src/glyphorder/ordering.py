"""Learning orders: the priority-constrained topological sort and friends.

The optimizer takes the centrality ranking (best benefit/cost first) and
repairs it into a hierarchal order with as little disturbance as
possible: sweeping from the low-centrality end, any component found to
the right of a glyph that contains it is pulled to the glyph's left, as
far left as its own centrality allows. High-centrality compounds
therefore stay early, dragging just their components in front of them.
For a ranking whose etas never rise, that result is built directly,
each component placed once, in front of the highest-ranked container
that outranks it.

Also here: a pure-frequency baseline (not hierarchal in general), a
first-in-first-out Kahn baseline (hierarchal but centrality-blind), an
exhaustive brute-force optimizer for small networks (the greedy sweep is
not always optimal), and the hierarchal-validity checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .costmodel import CentralityTable, benefit_ratio
from .network import DecompositionNetwork, UnknownId


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


@dataclass(frozen=True)
class Violation:
    """A component scheduled after (or missing for) a glyph that needs it."""

    compound: str
    component: str
    missing: bool = False


def expand_selection(net: DecompositionNetwork, select: Iterable[str]) -> set[str]:
    """Selection plus every closure member; raises UnknownId."""
    pool: set[str] = set()
    for glyph in select:
        if glyph not in net:
            raise UnknownId(glyph)
        pool.add(glyph)
        pool.update(net.closure(glyph))
    return pool


def target_pool(net: DecompositionNetwork, items: Sequence[str]) -> tuple[set[str], list[str]]:
    """Target selection: the items present in the network plus their
    closures, and the items missing from it, in input order."""
    present = [item for item in items if item in net]
    missing = [item for item in items if item not in net]
    return expand_selection(net, present), missing


def _make_items(table: CentralityTable, ids: Sequence[str]) -> tuple[OrderItem, ...]:
    entries = table.entries
    # tuple.__new__ builds each item without a Python-level __new__ call.
    new = tuple.__new__
    try:
        return tuple([new(OrderItem, (glyph, (entry := entries[glyph]).c, entry.f))
                      for glyph in ids])
    except KeyError as exc:
        raise UnknownId(exc.args[0]) from None


def external_order(table: CentralityTable, ids: Sequence[str],
                   provenance: Provenance = Provenance.EXTERNAL) -> LearningOrder:
    """Wrap a fixed glyph sequence (e.g. a published curriculum) as an order."""
    return LearningOrder(items=_make_items(table, ids), provenance=provenance)


def priority_topo_sort(net: DecompositionNetwork, table: CentralityTable,
                       select: Iterable[str]) -> LearningOrder:
    """Sort the selection into a hierarchal order with minimal disturbance.

    The initial list is the selection plus all closure members, ranked by
    descending centrality. The list is then repaired by the sweep that
    `_repair` transcribes: from the low-centrality end, each closure
    member found to the right of the glyph under the cursor is pulled to
    its left, directly right of the rightmost item whose eta is at least
    the member's own (at the very front when no such item exists), and
    the cursor resumes just left of the glyph's final place. Equal-eta
    placement therefore lands right of its equals. Items that are never
    repositioned keep their relative ranking, and an already-hierarchal
    list passes through unchanged.

    When the ranking is eta-monotone, the sweep's result is built
    directly instead (`_place`): each item goes once into the block of
    its owner, the highest-ranked item above it whose closure contains
    it. Items of eta 0 and positive cost (zero-frequency components;
    *lazy* here) are left out of that and placed afterwards, with the
    same result as sweeping them:

    - A lazy member's walk stops at once, so the lazy items a glyph pulls
      form one block directly left of it. The cursor drains that block
      before it reaches any other item, and inside it lazy items only
      pull each other.
    - A lazy item never stops the walk of a positive eta, so the other
      items move exactly as in a sweep of them alone.
    - Each lazy item ends in the block of its last puller, its *owner*:
      its leftmost non-lazy container, direct or not, in that sweep's
      result. A block ends in depth-first postorder from its owner:
      components in stored order, each node at its first visit. A path
      from an owner to an item it owns passes only through items it
      owns, so the walk descends into those alone, and each lazy item is
      reached once.
    - Lazy items with no non-lazy container at all stay at the end, in the
      order a sweep of them alone gives.

    This needs the lazy items to be the ranking's tail and every other
    eta to be positive. A zero-cost item of zero frequency ranks first
    with eta 0, so a pool that ranks one ahead of a positive eta is not
    eta-monotone: there nothing is lazy and the whole ranking takes the
    sweep itself.
    """
    pool = expand_selection(net, select)
    ranked = table.ranked(pool)
    eta = {glyph: table.eta(glyph) for glyph in ranked}
    cut = len(ranked)
    while cut and eta[ranked[cut - 1]] == 0:
        cut -= 1
    repair = _place
    if not all(eta[glyph] > 0 for glyph in ranked[:cut]):
        cut = len(ranked)
        repair = _repair
    lazy = set(ranked[cut:])

    order: list[str] = []
    for owner in repair(net, ranked[:cut], eta):
        # Postorder from the owner through the lazy items no owner to
        # its left has claimed, the owner itself last.
        stack = [(owner, iter(net.node(owner).components))]
        while stack:
            glyph, components = stack[-1]
            for comp in components:
                if comp in lazy:
                    lazy.remove(comp)
                    stack.append((comp, iter(net.node(comp).components)))
                    break
            else:
                stack.pop()
                order.append(glyph)
    order += repair(net, [glyph for glyph in ranked[cut:] if glyph in lazy], eta)
    return LearningOrder(items=_make_items(table, order),
                         provenance=Provenance.OPTIMIZED)


def _place(net: DecompositionNetwork, ranked: list[str],
           eta: dict[str, float]) -> list[str]:
    """`_repair`'s result for an eta-monotone `ranked`, built directly.

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
    claimed all of its closure below it. Blocks are arranged from an
    explicit stack, so nesting depth is not bounded by Python's recursion
    limit. The cost is closure scans times nesting depth: each unowned
    item's closure is scanned once per level of blocks that holds it,
    with no walks and no moves.
    """
    closure = net.closure
    order: list[str] = []
    # Lists still to arrange, and ids whose blocks are already in `order`.
    stack: list[list[str] | str] = [ranked]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            order.append(top)
            continue
        # Ids of the list that rank below the scan and are not yet claimed.
        below = set(top)
        placed = []
        for glyph in top:
            if glyph not in below:
                continue
            below.remove(glyph)
            members = closure(glyph)
            owned = below.intersection(members)
            below -= owned
            placed.append((glyph, [m for m in members if m in owned] if owned else None))
        for glyph, block in reversed(placed):
            stack.append(glyph)
            if block:
                block.sort(key=eta.__getitem__, reverse=True)
                stack.append(block)
    return order


def _repair(net: DecompositionNetwork, ranked: list[str],
            eta: dict[str, float]) -> list[str]:
    """The repair sweep of `priority_topo_sort` over `ranked` alone;
    closure members outside it are left where they are.

    Only rankings that are not eta-monotone take this path: zero-cost
    items of zero frequency rank first with eta 0, ahead of positive
    etas. `_place` builds the same result for every other ranking.

    The list is doubly linked by glyph id and keeps no positions. Every
    move lands left of the cursor and the cursor only walks left, so the
    items right of the cursor are exactly those it has passed and that
    have not moved since (`swept`). A move unlinks the member and walks
    left from the cursor past items of lower eta. Each cursor visit scans
    one closure and a moved member is visited again, so the sweep makes
    len(ranked) + moves visits, each costing one closure scan plus one
    walk per move; a shared component is moved again by every container
    that ranks above it.
    """
    # None is the sentinel joining both ends of a circular list.
    ring = [None, *ranked]
    prev = dict(zip(ring, ring[-1:] + ring[:-1]))
    nxt = dict(zip(ring, ring[1:] + ring[:1]))
    swept: set[str] = set()

    glyph = prev[None]
    while glyph is not None:
        for member in net.closure(glyph):
            if member not in swept:
                continue
            swept.discard(member)
            before, after = prev[member], nxt[member]
            nxt[before] = after
            prev[after] = before
            eta_m = eta[member]
            left = prev[glyph]
            while left is not None and eta[left] < eta_m:
                left = prev[left]
            right = nxt[left]
            prev[member], nxt[member] = left, right
            nxt[left] = prev[right] = member
        swept.add(glyph)
        glyph = prev[glyph]

    order = []
    glyph = nxt[None]
    while glyph is not None:
        order.append(glyph)
        glyph = nxt[glyph]
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


def kahn_order(net: DecompositionNetwork, table: CentralityTable,
               select: Iterable[str]) -> LearningOrder:
    """Arbitrary hierarchal baseline: first-in-first-out Kahn's algorithm.

    Components count as prerequisites. The queue is seeded with the
    dependency-free nodes in lexicographic id order and new nodes are
    appended as their last prerequisite is scheduled, so the result is
    deterministic but pays no attention to centrality.
    """
    pool = expand_selection(net, select)
    missing = {glyph: 0 for glyph in pool}
    for glyph in pool:
        missing[glyph] = sum(1 for c in set(net.node(glyph).components) if c in pool)
    queue = sorted(g for g, n in missing.items() if n == 0)
    out = []
    head = 0
    while head < len(queue):
        glyph = queue[head]
        head += 1
        out.append(glyph)
        for parent in sorted(net.containers(glyph)):
            if parent in missing:
                missing[parent] -= 1
                if missing[parent] == 0:
                    queue.append(parent)
    return LearningOrder(items=_make_items(table, out), provenance=Provenance.KAHN)


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
                out.append(Violation(compound=glyph, component=comp, missing=True))
            elif at > k:
                out.append(Violation(compound=glyph, component=comp))
    return out


def brute_force_best_order(net: DecompositionNetwork, table: CentralityTable,
                           select: Iterable[str], c0: float,
                           limit: int = 10) -> LearningOrder:
    """Exhaustively find the best hierarchal order of a small selection.

    Enumerates every topological order of the selection (plus closure
    members) in lexicographic order and keeps the one with the highest
    mean efficiency at horizon `c0`, breaking ties by higher final
    efficiency and then by the enumeration order itself. Exponential
    time; refuses more than `limit` nodes.

    The search places an item only after its components, so every order
    it builds is hierarchal, and it carries the prefix's curve corners
    along instead of building and validating each candidate. Each item
    is paid by `curve`'s own rule in the same floating-point operations,
    and a candidate is scored from its corners by `curve`'s own area sum,
    so every score is bit-for-bit the one `curve` gives for that order.

    Once an item is over budget, nothing after it counts: every
    completion of that prefix scores the same, so the subtree collapses
    to its lexicographically first completion, built only when its score
    beats the best so far.
    """
    # Local import; metrics depends on this module for LearningOrder.
    from .metrics import _next_corner, _step_area

    pool = expand_selection(net, select)
    if len(pool) > limit:
        raise TooLarge("%d nodes exceed the brute-force limit of %d" % (len(pool), limit))
    if c0 <= 0:
        raise ValueError("c0 must be positive")

    ids = sorted(pool)
    cost = {g: table[g].c for g in ids}
    freq = {g: table[g].f for g in ids}
    blocked = {g: len(set(net.node(g).components) & pool) for g in ids}
    parents = {g: sorted(set(net.containers(g)) & pool) for g in ids}

    best_score: tuple[float, float] | None = None
    best_ids: list[str] = []
    prefix: list[str] = []
    placed: set[str] = set()

    def place(glyph: str) -> None:
        placed.add(glyph)
        prefix.append(glyph)
        for parent in parents[glyph]:
            blocked[parent] -= 1

    def unplace(glyph: str) -> None:
        for parent in parents[glyph]:
            blocked[parent] += 1
        prefix.pop()
        placed.discard(glyph)

    def lex_first_completion() -> list[str]:
        # Lexicographically first valid completion: repeatedly take the
        # smallest available node.
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

    def beats(points: tuple[tuple[float, float], ...]) -> tuple[float, float] | None:
        # The candidate's (mean, final) score when it beats the best so far.
        score = (_step_area(points, c0) / c0, points[-1][1] if points else 0.0)
        return score if best_score is None or score > best_score else None

    def recurse(points: tuple[tuple[float, float], ...]) -> None:
        nonlocal best_score, best_ids
        if len(prefix) == len(ids):
            score = beats(points)
            if score is not None:
                best_score, best_ids = score, list(prefix)
            return
        for glyph in ids:
            if glyph in placed or blocked[glyph] > 0:
                continue
            step = _next_corner(points, cost[glyph], freq[glyph], c0)
            if step is None:
                score = beats(points)
                if score is not None:
                    place(glyph)
                    best_score, best_ids = score, lex_first_completion()
                    unplace(glyph)
                continue
            corner, merge = step
            place(glyph)
            recurse(points[:-1] + (corner,) if merge else points + (corner,))
            unplace(glyph)

    recurse(())
    return LearningOrder(items=_make_items(table, best_ids),
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
