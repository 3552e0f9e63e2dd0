"""Decomposition network: the DAG of glyphs and their components.

A glyph is a character, a component without standalone usage, a variant
form, or a multi-character word. Edges point from a container to its
direct components; the network validates that every reference resolves,
that node shapes match their kinds, and that the graph is acyclic.
Closure queries (everything reachable through component edges, in a
fixed depth-first order, each kept once asked) serve the charge-unlearned
curves and library callers. The ordering and words modules read the
node dict `_nodes` directly and never change it: they only need each id
once, or one block's share of a closure, and building every closure
tuple to intersect it with a set cost more than walking.

Two pieces of work are done only when they can matter. Following edges
around a cycle must at some point reach a node listed later than the one
it leaves (listing order cannot fall all the way round), so the
depth-first cycle check runs only when some node names a component
listed after it: a file that lists components before their containers
is acyclic by its order alone. And the index of each glyph's containers
is built on the first `containers` call, which serves library callers:
nothing in the package calls it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from enum import Enum
from typing import Iterable, Iterator, NamedTuple


class NetworkError(Exception):
    """Base class for network construction and lookup failures."""


class DuplicateId(NetworkError):
    """Two nodes share the same glyph id."""


class DanglingReference(NetworkError):
    """A components list names a glyph with no node."""


class InvalidNode(NetworkError):
    """A node's component list does not match its kind."""


class UnknownId(NetworkError):
    """A query named a glyph absent from the network."""


class CycleDetected(NetworkError):
    """The component graph contains a cycle.

    Attributes:
        cycle: witness path as a list of ids, first == last.
    """

    def __init__(self, cycle: list[str]):
        super().__init__("cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class GlyphKind(Enum):
    """Role of a node in the decomposition network."""

    PRIMITIVE_CHARACTER = "p"
    PRIMITIVE_COMPONENT = "pc"
    COMPOUND = "c"
    VARIANT = "v"
    WORD = "w"

    def __init__(self, code: str):
        # Plain attributes, set once per member: the cost model reads
        # them for every node.
        self.code = code
        self.is_primitive = code in ("p", "pc")


_WORD = GlyphKind.WORD


class GlyphNode(NamedTuple):
    """One glyph: identity, kind, direct components, stroke count.

    Components are ordered and may repeat (品 stores 口 three times);
    multiplicity matters for costs, not for reachability. `strokes` is 0
    when unavailable, which the cost model maps to a cost of exactly 1.
    Hot loops unpack the tuple or index it, which is cheaper than
    reading its fields by name.
    """

    id: str
    kind: GlyphKind
    components: tuple[str, ...] = ()
    strokes: int = 0


# The number of components each kind allows, as (fewest, most, and the
# message for a node outside that range).
_SHAPES = {
    GlyphKind.PRIMITIVE_CHARACTER: (0, 0, "{id}: primitive with components"),
    GlyphKind.PRIMITIVE_COMPONENT: (0, 0, "{id}: primitive with components"),
    GlyphKind.VARIANT: (1, 1, "{id}: variant must have exactly one component, got {n}"),
    GlyphKind.COMPOUND: (2, sys.maxsize, "{id}: compound needs at least two components, got {n}"),
    _WORD: (2, sys.maxsize, "{id}: word needs at least two characters, got {n}"),
}


class DecompositionNetwork:
    """Validated, immutable decomposition DAG. Build via `build_network`.

    `containers` is the index `containers()` reads; when it is None, the
    first call builds it from the nodes.
    """

    def __init__(self, nodes: dict[str, GlyphNode],
                 containers: dict[str, tuple[str, ...]] | None = None):
        self._nodes = nodes
        self._containers = containers
        self._closure_cache: dict[str, tuple[str, ...]] = {}

    def __contains__(self, glyph: str) -> bool:
        return glyph in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def ids(self) -> Iterator[str]:
        """All glyph ids in input order."""
        return iter(self._nodes)

    def nodes(self) -> Iterator[GlyphNode]:
        """All nodes in input order."""
        return iter(self._nodes.values())

    def node(self, glyph: str) -> GlyphNode:
        try:
            return self._nodes[glyph]
        except KeyError:
            raise UnknownId(glyph) from None

    def containers(self, glyph: str) -> tuple[str, ...]:
        """Nodes that list `glyph` as a direct component, in input order."""
        self.node(glyph)
        if self._containers is None:
            self._containers = _container_index(self._nodes)
        return self._containers.get(glyph, ())

    def components_of(self, ids: Iterable[str]) -> list[tuple[str, ...]]:
        """The direct components of each id, in order; raises UnknownId
        for the first id absent from the network."""
        nodes = self._nodes
        try:
            return [nodes[glyph][2] for glyph in ids]
        except KeyError as exc:
            raise UnknownId(exc.args[0]) from None

    def closure(self, glyph: str) -> tuple[str, ...]:
        """Everything reachable from `glyph` through component edges.

        Deterministic depth-first preorder over the stored component
        order, each id kept at its first visit, `glyph` itself excluded.
        Each glyph's closure is walked once, from an explicit stack, and
        the tuple is kept for later calls.
        """
        cached = self._closure_cache.get(glyph)
        if cached is not None:
            return cached
        nodes = self._nodes
        out = []
        seen = {glyph}
        # Index 2 of a node is its components.
        stack = [iter(self.node(glyph)[2])]
        while stack:
            for child in stack[-1]:
                if child not in seen:
                    seen.add(child)
                    out.append(child)
                    stack.append(iter(nodes[child][2]))
                    break
            else:
                stack.pop()
        self._closure_cache[glyph] = result = tuple(out)
        return result


def build_network(nodes: Iterable[GlyphNode],
                  base: DecompositionNetwork | None = None) -> DecompositionNetwork:
    """Validate nodes and assemble the network.

    With a `base` network, the result holds its nodes followed by
    `nodes`, and only `nodes` are checked: the base is valid already and
    none of its nodes can list a new one. The result starts with no
    closure cached, whatever `base` has cached.

    Raises:
        DuplicateId: two nodes share an id.
        InvalidNode: component list inconsistent with the node's kind,
            or a word used as a component.
        DanglingReference: a component id resolves to no node.
        CycleDetected: component graph not acyclic; carries a witness.
    """
    by_id = {} if base is None else dict(base._nodes)
    if _add_nodes(by_id, nodes):
        _check_acyclic(by_id)
    return DecompositionNetwork(by_id)


def _add_nodes(by_id: dict[str, GlyphNode], nodes: Iterable[GlyphNode]) -> bool:
    """Check `nodes` and add them to `by_id` in order; returns whether one
    of them names a component listed after it (a *forward edge*).

    The errors are those of checking every node's shape and id first,
    then every component of every node in order. A node whose components
    all came before it, none of them a word, has no component error, so
    only the others are looked at again once all nodes are in.
    """
    shapes = _SHAPES
    word = _WORD
    get = by_id.get
    # Nodes naming a word or a component not listed before them.
    suspects = []
    for node in nodes:
        glyph, kind, comps, strokes = node
        if not glyph:
            raise InvalidNode("empty glyph id")
        if strokes < 0:
            raise InvalidNode("%s: negative stroke count" % glyph)
        low, high, message = shapes[kind]
        if not low <= len(comps) <= high:
            raise InvalidNode(message.format(id=glyph, n=len(comps)))
        if glyph in by_id:
            raise DuplicateId(glyph)
        for comp in comps:
            target = get(comp)
            if target is None or target[1] is word:
                suspects.append(node)
                break
        by_id[glyph] = node
    for glyph, _, comps, _ in suspects:
        for comp in comps:
            target = get(comp)
            if target is None:
                raise DanglingReference("%s: unresolved component %s" % (glyph, comp))
            if target[1] is word:
                raise InvalidNode("%s: word %s used as component" % (glyph, comp))
    # Every suspect left names a component listed after it.
    return bool(suspects)


def _container_index(nodes: dict[str, GlyphNode]) -> dict[str, tuple[str, ...]]:
    """Each glyph's containers, in input order."""
    containers: defaultdict[str, list[str]] = defaultdict(list)
    for glyph, node in nodes.items():
        # A repeated component makes one edge, not two.
        for comp in dict.fromkeys(node[2]):
            containers[comp].append(glyph)
    return {glyph: tuple(cs) for glyph, cs in containers.items()}


def _check_acyclic(by_id: dict[str, GlyphNode]) -> None:
    """Depth-first cycle check; raises CycleDetected with a witness path."""
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
