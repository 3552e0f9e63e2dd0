"""Learning costs and centralities.

A primitive costs 1 + gamma * strokes (missing stroke counts are stored
as 0, so the cost degrades to exactly 1). A compound costs the number of
combinations needed to assemble it: one less than its component count,
with multiplicity. Variants cost a flat amount. Words cost one less than
their character count. Items already known cost 0; partially known items
have their cost multiplied by a suppression factor in [0, 1].

Centrality is the benefit/cost ratio eta = f / c. Zero-cost items need a
convention: eta is 0 when f is also 0, infinite when f > 0. The ranking
places every zero-cost item first (consuming free items early can only
help), ordered by frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, NamedTuple

from .ingest import FrequencyTable
from .network import DecompositionNetwork, GlyphKind, GlyphNode

DEFAULT_GAMMA = 0.1

_VARIANT = GlyphKind.VARIANT


@dataclass(frozen=True)
class CostParams:
    """Knobs of the cost model.

    Attributes:
        gamma: per-stroke surcharge on primitive costs.
        known: ids whose cost is forced to 0 (already learned).
        suppression: id -> factor in [0, 1] for partially known items.

    `variant_cost`, the flat cost of a variant form, is fixed at 1.0 for
    every instance: it is a class constant, not a constructor argument.
    """

    variant_cost: ClassVar[float] = 1.0
    gamma: float = DEFAULT_GAMMA
    known: frozenset[str] = frozenset()
    suppression: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        for glyph, factor in self.suppression.items():
            if not 0.0 <= factor <= 1.0:
                raise ValueError("suppression factor for %s outside [0, 1]" % glyph)


def cost(node: GlyphNode, params: CostParams) -> float:
    """Learning cost of one node under `params`."""
    return next(_centrality_items((node,), {}, params))[1].c


class Centrality(NamedTuple):
    """Frequency share, cost, and their ratio for one node."""

    f: float
    c: float
    eta: float


@dataclass(frozen=True)
class CentralityTable:
    """Per-node centralities plus the deterministic ranking order."""

    entries: dict[str, Centrality]

    def __contains__(self, glyph: str) -> bool:
        return glyph in self.entries

    def __getitem__(self, glyph: str) -> Centrality:
        return self.entries[glyph]

    def eta(self, glyph: str) -> float:
        return self.entries[glyph].eta

    def sort_key(self, glyph: str):
        """Ranking key, ascending = highest centrality first.

        Zero-cost items come first (by frequency, then id); the rest by
        eta descending, frequency descending, id ascending. The id
        tiebreak makes the ranking a total order, hence reproducible.
        """
        f, c, eta = self.entries[glyph]
        if c == 0.0:
            return (0, -f, 0.0, glyph)
        return (1, -eta, -f, glyph)

    def ranked(self, ids: Iterable[str] | None = None) -> list[str]:
        """Ids sorted by descending centrality (all entries by default)."""
        pool = self.entries.keys() if ids is None else ids
        return sorted(pool, key=self.sort_key)


def benefit_ratio(f: float, c: float) -> float:
    """eta = f / c, with the zero-cost convention: inf when f > 0, else 0."""
    if c == 0.0:
        return math.inf if f > 0.0 else 0.0
    return f / c


def centralities(net: DecompositionNetwork, freq: FrequencyTable, params: CostParams,
                 ids: Iterable[str] | None = None) -> CentralityTable:
    """Compute f, c, and eta for the nodes `ids`, in the order given
    (every node of the network, in network order, by default).

    Each entry depends only on its own node and frequency, so a run that
    reads a few glyphs, such as a targeted one, prices only those.
    Raises UnknownId for the first id absent from the network.
    """
    nodes = net.nodes() if ids is None else map(net.node, ids)
    return CentralityTable(entries=dict(_centrality_items(nodes, freq.entries, params)))


def _centrality_items(nodes: Iterable[GlyphNode], shares: dict[str, float],
                      params: CostParams) -> Iterator[tuple[str, Centrality]]:
    """Each node's id and centrality, its share read from `shares`: the
    cost model of the module docstring, written once."""
    known = params.known
    gamma = params.gamma
    suppression = params.suppression
    variant = _VARIANT
    new = tuple.__new__
    for glyph, kind, components, strokes in nodes:
        if glyph in known:
            c = 0.0
        else:
            if kind.is_primitive:
                # Decimal parameters should yield decimal costs: gamma 0.1
                # with 7 strokes is exactly 1.7, not 1 + 0.7000000000000001.
                c = round(1.0 + gamma * strokes, 12)
            elif kind is variant:
                c = params.variant_cost
            else:
                # Compound and word: one combination per extra component,
                # with multiplicity, so a repeated component is paid again.
                c = float(len(components) - 1)
            c *= suppression.get(glyph, 1.0)
        f = shares.get(glyph, 0.0)
        yield glyph, new(Centrality, (f, c, benefit_ratio(f, c)))
