"""Decomposition network: the DAG of glyphs and their components.

A glyph is a character, a component without standalone usage, a variant
form, or a multi-character word. Edges point from a container to its
direct components; the network validates that every reference resolves,
that node shapes match their kinds, and that the graph is acyclic.
Closure queries (everything reachable through component edges) drive the
ordering and metrics modules.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


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
        # Plain attributes, set once per member: the cost model and the
        # shape check read them for every node.
        self.code = code
        self.is_primitive = code in ("p", "pc")


_VARIANT = GlyphKind.VARIANT
_COMPOUND = GlyphKind.COMPOUND
_WORD = GlyphKind.WORD


@dataclass(frozen=True, slots=True)
class GlyphNode:
    """One glyph: identity, kind, direct components, stroke count.

    Components are ordered and may repeat (品 stores 口 three times);
    multiplicity matters for costs, not for reachability. `strokes` is 0
    when unavailable, which the cost model maps to a cost of exactly 1.
    """

    id: str
    kind: GlyphKind
    components: tuple[str, ...] = ()
    strokes: int = 0


def _check_shape(node: GlyphNode) -> None:
    n = len(node.components)
    if not node.id:
        raise InvalidNode("empty glyph id")
    if node.strokes < 0:
        raise InvalidNode("%s: negative stroke count" % node.id)
    kind = node.kind
    if kind.is_primitive and n != 0:
        raise InvalidNode("%s: primitive with components" % node.id)
    if kind is _VARIANT and n != 1:
        raise InvalidNode("%s: variant must have exactly one component, got %d" % (node.id, n))
    if kind is _COMPOUND and n < 2:
        raise InvalidNode("%s: compound needs at least two components, got %d" % (node.id, n))
    if kind is _WORD and n < 2:
        raise InvalidNode("%s: word needs at least two characters, got %d" % (node.id, n))


class DecompositionNetwork:
    """Validated, immutable decomposition DAG. Build via `build_network`."""

    def __init__(self, nodes: dict[str, GlyphNode], containers: dict[str, tuple[str, ...]]):
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
        return self._containers.get(glyph, ())

    def closure(self, glyph: str) -> tuple[str, ...]:
        """Everything reachable from `glyph` through component edges.

        Deterministic depth-first preorder over the stored component
        order, each id kept at its first visit, `glyph` itself excluded.
        """
        cached = self._closure_cache.get(glyph)
        if cached is not None:
            return cached
        out: list[str] = []
        seen = {glyph}
        stack = [iter(self.node(glyph).components)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                continue
            if child in seen:
                continue
            seen.add(child)
            out.append(child)
            sub = self._closure_cache.get(child)
            if sub is not None:
                # A finished closure is a complete preorder of the child's
                # subtree, so splicing its unseen members preserves the
                # order a direct descent would produce.
                for member in sub:
                    if member not in seen:
                        seen.add(member)
                        out.append(member)
                continue
            stack.append(iter(self._nodes[child].components))
        result = tuple(out)
        self._closure_cache[glyph] = result
        return result


def build_network(nodes: Iterable[GlyphNode]) -> DecompositionNetwork:
    """Validate nodes and assemble the network.

    Raises:
        DuplicateId: two nodes share an id.
        InvalidNode: component list inconsistent with the node's kind,
            or a word used as a component.
        DanglingReference: a component id resolves to no node.
        CycleDetected: component graph not acyclic; carries a witness.
    """
    by_id: dict[str, GlyphNode] = {}
    for node in nodes:
        _check_shape(node)
        if node.id in by_id:
            raise DuplicateId(node.id)
        by_id[node.id] = node

    containers: defaultdict[str, list[str]] = defaultdict(list)
    for glyph, node in by_id.items():
        comps = node.components
        for comp in comps:
            target = by_id.get(comp)
            if target is None:
                raise DanglingReference("%s: unresolved component %s" % (glyph, comp))
            if target.kind is _WORD:
                raise InvalidNode("%s: word %s used as component" % (glyph, comp))
        # A repeated component makes one edge, not two.
        for comp in dict.fromkeys(comps) if len(comps) > 1 else comps:
            containers[comp].append(glyph)

    _check_acyclic(by_id)
    frozen = {glyph: tuple(cs) for glyph, cs in containers.items()}
    return DecompositionNetwork(by_id, frozen)


def _check_acyclic(by_id: dict[str, GlyphNode]) -> None:
    """Depth-first cycle check; raises CycleDetected with a witness path."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(by_id, WHITE)
    for start, node in by_id.items():
        if color[start] != WHITE:
            continue
        # A node without components closes no cycle: done at once.
        if not node.components:
            color[start] = BLACK
            continue
        path = [start]
        stack = [iter(node.components)]
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
            comps = by_id[child].components
            if not comps:
                color[child] = BLACK
                continue
            color[child] = GRAY
            path.append(child)
            stack.append(iter(comps))
