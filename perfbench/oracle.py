"""The benchmark's own transcription of the README's model, in exact arithmetic.

Costs and budgets are `Fraction`s built from the decimal strings of gamma
and the horizons; frequencies are raw integer counts, divided by the
corpus total only when a share is reported. Nothing here imports
`glyphorder`: these functions are what the program's outputs are checked
against.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from synth import Glyph, exact_costs


class Model:
    """One network with its costs and corpus counts, as the README defines them."""

    def __init__(self, glyphs: list[Glyph], counts: dict[str, int], gamma: str,
                 known: frozenset[str] = frozenset()):
        self.glyphs = {g.id: g for g in glyphs}
        self.counts = counts
        self.total = sum(counts.values())
        self.cost = exact_costs(glyphs, Fraction(gamma))
        for gid in known:
            self.cost[gid] = Fraction(0)
        self.cost_den = math.lcm(*(c.denominator for c in self.cost.values()))
        self._units: dict[int, dict[str, int]] = {}
        # Glyphs come components first, so one pass builds every closure.
        self._closure: dict[str, frozenset[str]] = {}
        for g in glyphs:
            self._closure[g.id] = frozenset(g.comps).union(*(self._closure[c] for c in g.comps))

    def closure(self, gid: str) -> frozenset[str]:
        """Everything reachable from gid through component edges."""
        return self._closure[gid]

    def units(self, scale: int) -> dict[str, int]:
        """Costs as integers in units of 1/scale."""
        if scale not in self._units:
            self._units[scale] = {g: int(c * scale) for g, c in self.cost.items()}
        return self._units[scale]

    def selection(self, items) -> set[str]:
        pool: set[str] = set()
        for gid in items:
            pool.add(gid)
            pool |= self.closure(gid)
        return pool


def violations(model: Model, ids: list[str]) -> list[tuple[str, str]]:
    """(glyph, component) pairs where the component is later or absent."""
    pos = {gid: k for k, gid in enumerate(ids)}
    return [(g, c) for k, g in enumerate(ids) for c in set(model.glyphs[g].comps)
            if pos.get(c, len(ids)) > k]


@dataclass(frozen=True)
class ExactCurve:
    n_learned: int
    final: Fraction
    mean: Fraction
    points: list[tuple[float, float]]


def exact_curve(model: Model, ids: list[str], c0: Fraction, charge: bool = False) -> ExactCurve:
    """Consume items while the budget holds; credit each once fully paid.

    With `charge`, an item also pays for every member of its closure not
    yet learned, and those members pay again at their own positions.
    Costs are counted in integer units of 1/scale, so nothing rounds.
    """
    scale = math.lcm(model.cost_den, c0.denominator)
    units = model.units(scale)
    budget = int(c0 * scale)
    cum = credited = 0
    learned: set[str] = set()
    corners: list[list[int]] = []
    for gid in ids:
        pay = units[gid]
        if charge:
            pay += sum(units[m] for m in model.closure(gid) - learned)
        if cum + pay > budget:
            break
        cum += pay
        credited += model.counts.get(gid, 0)
        learned.add(gid)
        if corners and corners[-1][0] == cum:
            corners[-1][1] = credited
        else:
            corners.append([cum, credited])
    edges = [c for c, _ in corners[1:]] + [budget]
    area = sum(n * (nxt - c) for (c, n), nxt in zip(corners, edges))
    total = model.total
    return ExactCurve(n_learned=len(learned),
                      final=Fraction(corners[-1][1] if corners else 0, total),
                      mean=Fraction(area, total * budget),
                      points=[(c / scale, n / total) for c, n in corners])


def float_prefix_overrun(costs: list[float], c0: float) -> int:
    """Items consumed when the running cost is summed in binary floating
    point, as a float accumulator would; used only to attribute a
    disagreement with the exact count to float accumulation."""
    cum = 0.0
    for k, c in enumerate(costs):
        if cum + c > c0:
            return k
        cum += c
    return len(costs)


def cluster_rows(model: Model, ids: list[str]) -> list[tuple[float | None, float | None]]:
    """Prefix averages of d1 (back to the nearest direct component) and d2
    (either way to the nearest other item sharing a direct component)."""
    pos = {gid: k for k, gid in enumerate(ids)}
    holders: dict[str, list[int]] = {}
    for k, gid in enumerate(ids):
        for c in set(model.glyphs[gid].comps):
            holders.setdefault(c, []).append(k)
    rows = []
    s1 = s2 = n1 = n2 = 0
    for k, gid in enumerate(ids):
        comps = set(model.glyphs[gid].comps)
        d1 = min((k - pos[c] for c in comps if pos.get(c, k) < k), default=None)
        d2 = None
        for c in comps:
            ks = holders[c]
            at = bisect_left(ks, k)
            for j in (at - 1, at + 1):
                if 0 <= j < len(ks):
                    d = abs(ks[j] - k)
                    d2 = d if d2 is None else min(d2, d)
        if d1 is not None:
            s1, n1 = s1 + d1, n1 + 1
        if d2 is not None:
            s2, n2 = s2 + d2, n2 + 1
        rows.append((s1 / n1 if n1 else None, s2 / n2 if n2 else None))
    return rows


def word_network(chars: list[Glyph], word_counts: dict[str, int], top_k: int,
                 ) -> tuple[list[Glyph], list[tuple[str, str]]]:
    """Word nodes and drop reasons, re-derived from the top-k ranking."""
    ids = {g.id for g in chars}
    ranked = sorted(word_counts, key=lambda w: (-word_counts[w], w))[:top_k]
    words, dropped = [], []
    for token in ranked:
        if len(token) < 2:
            continue
        if token in ids:
            dropped.append((token, "id already present in the network"))
            continue
        unknown = [ch for ch in token if ch not in ids]
        if unknown:
            dropped.append((token, "unknown character %s" % unknown[0]))
            continue
        words.append(Glyph(token, "w", tuple(token), 0))
    return words, dropped


def word_model(chars: list[Glyph], word_counts: dict[str, int], top_k: int, gamma: str,
               ) -> tuple[Model, list[tuple[str, str]]]:
    words, dropped = word_network(chars, word_counts, top_k)
    return Model(chars + words, word_counts, gamma), dropped


def linear_extensions(glyphs: list[Glyph]) -> int:
    """Number of hierarchal orders of a small network (subset DP)."""
    index = {g.id: k for k, g in enumerate(glyphs)}
    need = [sum(1 << index[c] for c in set(g.comps)) for g in glyphs]
    ways = [0] * (1 << len(glyphs))
    ways[0] = 1
    for placed in range(len(ways)):
        if ways[placed]:
            for k, mask in enumerate(need):
                if not placed >> k & 1 and mask & placed == mask:
                    ways[placed | 1 << k] += ways[placed]
    return ways[-1]


def all_hierarchal_orders(model: Model):
    """Every hierarchal order of the whole (small) network, by DFS."""
    ids = sorted(model.glyphs)
    prefix: list[str] = []
    placed: set[str] = set()

    def extend():
        if len(prefix) == len(ids):
            yield list(prefix)
            return
        for gid in ids:
            if gid not in placed and set(model.glyphs[gid].comps) <= placed:
                placed.add(gid)
                prefix.append(gid)
                yield from extend()
                prefix.pop()
                placed.discard(gid)

    return extend()


def discordant_pairs(ranking: list[str], output: list[str]) -> int:
    """Kendall-tau distance between two orders of the same items."""
    rank = {gid: k for k, gid in enumerate(ranking)}
    seq = [rank[gid] for gid in output]
    tree = [0] * (len(seq) + 1)
    inversions = 0
    for seen, r in enumerate(seq):
        k, below = r + 1, 0
        while k:
            below += tree[k]
            k -= k & -k
        inversions += seen - below
        k = r + 1
        while k <= len(seq):
            tree[k] += 1
            k += k & -k
    return inversions


def min_moves(ranking: list[str], output: list[str]) -> int:
    """Items that must move: size minus the longest subsequence of the
    output that keeps ranking order."""
    rank = {gid: k for k, gid in enumerate(ranking)}
    tails: list[int] = []
    for gid in output:
        r = rank[gid]
        at = bisect_left(tails, r)
        if at == len(tails):
            tails.append(r)
        else:
            tails[at] = r
    return len(output) - len(tails)


def horizon_prefixes(glyphs: list[Glyph], costs: dict, c0) -> int:
    """Hierarchal prefixes an exhaustive search must tell apart at horizon
    c0: each complete order within budget, and each prefix that first goes
    over budget (whatever follows it cannot change the curve)."""
    comps = {g.id: set(g.comps) for g in glyphs}
    placed: set[str] = set()

    def count(spent) -> int:
        if spent > c0 or len(placed) == len(comps):
            return 1
        total = 0
        for gid, need in comps.items():
            if gid not in placed and need <= placed:
                placed.add(gid)
                total += count(spent + costs[gid])
                placed.discard(gid)
        return total

    return count(0)
