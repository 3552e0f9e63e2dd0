"""Learning curves, efficiencies, and clustering diagnostics.

A learning order induces a step function F(C): cumulative usage
frequency against cumulative learning cost. Frequency is credited only
once an item's full cost is paid, so each step jumps at the right edge
of its cost interval. Final efficiency is F at the horizon C0; mean
efficiency is the exact average of F over [0, C0], i.e. the area under
the step function divided by C0. Items are consumed in order while the
running cost stays within C0; the first item over budget ends the curve,
and nothing after it is counted.

Hierarchal orders pay each item exactly once. For non-hierarchal orders
(someone learning by rote, most frequent first) the charging mode prices
an item together with all its still-unlearned closure members, who are
not thereby learned: they cost full price again at their own positions.

Clustering diagnostics measure how far each item sits from the nearest
preceding direct component (d1) and from the nearest other item sharing
a direct component, in either direction (d2), as running prefix
averages over the order.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .network import DecompositionNetwork
from .ordering import LearningOrder, validate_topological

DEFAULT_HORIZONS = (500.0, 1500.0)


class NotTopological(Exception):
    """Hierarchal accounting demanded, but the order violates hierarchy."""

    def __init__(self, violations):
        self.violations = list(violations)
        preview = ", ".join("%s before %s" % (v.compound, v.component)
                            for v in self.violations[:3])
        more = "" if len(self.violations) <= 3 else ", ..."
        super().__init__("%d hierarchy violations (%s%s)" % (len(self.violations), preview, more))


class NonPositiveHorizon(ValueError):
    """The evaluation horizon C0 must be positive."""


class MissingCost(Exception):
    """Charging mode met an unlearned component with no known cost."""


class CostMode(Enum):
    """How an order's items are priced when building its curve."""

    HIERARCHAL = "hierarchal"
    CHARGE_UNLEARNED = "charge-unlearned"


@dataclass(frozen=True)
class LearningCurve:
    """The step function F(C) plus the derived summary numbers.

    `points` holds the jump corners (C, F), C strictly increasing;
    `counts` gives how many items each corner settles (zero-cost items
    merge into the preceding corner). `n_learned` items were fully paid
    within the horizon `c0`.
    """

    points: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    c0: float
    final_efficiency: float
    mean_efficiency: float
    n_learned: int


def _step_area(points: Sequence[tuple[float, float]], c0: float) -> float:
    """Area under the step function on [0, c0]; F is 0 before the
    first corner and holds each corner's value until the next.

    Each corner contributes F times the width up to the next corner (or
    c0), and the contributions are added in floats, left to right. That
    fixed order keeps every caller's score bit-identical for the same
    corners, which brute force relies on to compare candidates.
    """
    area = 0.0
    if points:
        c, f = points[0]
        for right, next_f in points[1:]:
            area += f * (right - c)
            c, f = right, next_f
        area += f * (c0 - c)
    return area


def _next_corner(points: Sequence[tuple[float, float]], cost: float, freq: float,
                 c0: float) -> tuple[tuple[float, float], bool] | None:
    """The corner one more item settles, and whether it replaces the last.

    The running sums are the last corner, (0, 0) before the first. An
    item whose cost would take them past `c0` is over budget and gives
    None. An item that leaves the running cost where it was (zero cost)
    merges into the last corner.
    """
    cum_cost, cum_freq = points[-1] if points else (0.0, 0.0)
    if cum_cost + cost > c0:
        return None
    corner = (cum_cost + cost, cum_freq + freq)
    return corner, bool(points) and cum_cost == corner[0]


def curve(net: DecompositionNetwork, order: LearningOrder, c0: float,
          mode: CostMode = CostMode.HIERARCHAL,
          cost_lookup: dict[str, float] | None = None) -> LearningCurve:
    """Build the learning curve of `order` evaluated at horizon `c0`.

    Hierarchal mode requires a violation-free order and charges each
    item its own cost. Charge-unlearned mode accepts any order; an item
    pays for itself plus every closure member not yet learned, and those
    members still pay full price at their own positions later. Costs of
    members outside the order come from `cost_lookup`.

    Raises:
        NonPositiveHorizon: c0 <= 0.
        NotTopological: hierarchal mode on a violating order.
        MissingCost: charging mode found no cost for an absent member.
    """
    if c0 <= 0:
        raise NonPositiveHorizon("c0 must be positive, got %r" % (c0,))
    if mode is CostMode.HIERARCHAL:
        violations = validate_topological(net, order)
        if violations:
            raise NotTopological(violations)
    else:
        charge_costs = dict(cost_lookup) if cost_lookup else {}
        charge_costs.update((item.glyph, item.cost) for item in order)

    points: list[tuple[float, float]] = []
    counts: list[int] = []
    n_learned = 0
    learned: set[str] = set()
    charge = mode is CostMode.CHARGE_UNLEARNED
    closure = net.closure

    for glyph, eff_cost, freq in order:
        if charge:
            for member in closure(glyph):
                if member in learned:
                    continue
                try:
                    eff_cost += charge_costs[member]
                except KeyError:
                    raise MissingCost(member) from None
            # Nothing reads `learned` once an item is over budget.
            learned.add(glyph)
        step = _next_corner(points, eff_cost, freq, c0)
        if step is None:
            break
        corner, merge = step
        n_learned += 1
        if merge:
            points[-1] = corner
            counts[-1] += 1
        else:
            points.append(corner)
            counts.append(1)

    final = points[-1][1] if points else 0.0
    mean = _step_area(points, c0) / c0
    return LearningCurve(points=tuple(points), counts=tuple(counts), c0=c0,
                         final_efficiency=final, mean_efficiency=mean,
                         n_learned=n_learned)


def at_horizon(cv: LearningCurve, h: float) -> tuple[int, float, float]:
    """(n_learned, final, mean) of a stored curve at a smaller horizon,
    0 < h <= cv.c0: the summary numbers of `truncate(cv, h)`."""
    cut = truncate(cv, h)
    return cut.n_learned, cut.final_efficiency, cut.mean_efficiency


def truncate(cv: LearningCurve, h: float) -> LearningCurve:
    """The stored curve cut back to a smaller horizon h, 0 < h <= cv.c0.

    Consumption is a prefix property, so keeping the corners with C <= h
    and their counts reproduces a fresh evaluation at h: the result
    equals `curve` evaluated at h. Corner costs increase strictly, so the
    kept corners are a prefix found by bisection.
    """
    if h <= 0:
        raise NonPositiveHorizon("horizon must be positive, got %r" % (h,))
    if h > cv.c0:
        raise ValueError("horizon %g exceeds the curve's c0 %g" % (h, cv.c0))
    k = bisect_right(cv.points, h, key=lambda point: point[0])
    kept = cv.points[:k]
    counts = cv.counts[:k]
    return LearningCurve(points=kept, counts=counts, c0=h,
                         final_efficiency=kept[-1][1] if kept else 0.0,
                         mean_efficiency=_step_area(kept, h) / h, n_learned=sum(counts))


class ClusterRow(NamedTuple):
    """Prefix averages at prefix length n; None when nothing is defined."""

    n: int
    avg_d1: float | None
    avg_d2: float | None


@dataclass(frozen=True)
class ClusterStats:
    """Running clustering averages; short prefixes are noisy."""

    rows: tuple[ClusterRow, ...]


def cluster_stats(net: DecompositionNetwork, order: LearningOrder | Sequence[str],
                  max_n: int | None = None) -> ClusterStats:
    """Distance-to-component diagnostics over prefixes of the order.

    For the item at position i (1-based): d1 is the distance back to the
    nearest preceding direct component present in the order; d2 is the
    distance, either direction, to the nearest other item sharing a
    direct component. Both are measured against the full order; the
    prefix length only restricts which positions enter the averages.
    Undefined values (no components present, no sharer) are skipped.
    """
    ids = order.ids() if isinstance(order, LearningOrder) else list(order)
    limit = len(ids) if max_n is None else min(max_n, len(ids))
    comps = net.components_of(ids)
    pos = {g: k for k, g in enumerate(ids)}

    # One pass in order. `last[comp]` is the latest position so far whose
    # item holds comp; it and the item at k are each other's nearest
    # holders of comp on that side, so both take the distance. A 0 marks
    # an undefined distance (real ones are at least 1). A later item has
    # not been seen yet, so the item at k starts with no d2.
    d1 = [0] * len(ids)
    d2 = [0] * len(ids)
    last: dict[str, int] = {}
    for k, components in enumerate(comps):
        near1 = near2 = 0
        for comp in components:
            at = last.get(comp)
            if at is not None:
                if at == k:
                    continue    # a repeated component, already counted
                dist = k - at
                if not near2 or dist < near2:
                    near2 = dist
                if not d2[at] or dist < d2[at]:
                    d2[at] = dist
            last[comp] = k
            # An absent component reads as position k, a distance of 0.
            dist = k - pos.get(comp, k)
            if dist > 0 and (not near1 or dist < near1):
                near1 = dist
        d1[k] = near1
        d2[k] = near2

    # Integer prefix sums, so each average is one correctly rounded division.
    d1, d2 = np.array(d1), np.array(d2)
    have1, sum1, have2, sum2 = (np.cumsum(column).tolist()
                                for column in (d1 > 0, d1, d2 > 0, d2))
    new = tuple.__new__
    rows = tuple([new(ClusterRow, (n, s1 / h1 if h1 else None, s2 / h2 if h2 else None))
                  for n, h1, s1, h2, s2 in zip(range(1, limit + 1), have1, sum1, have2, sum2)])
    return ClusterStats(rows=rows)


def serialize_curve_csv(cv: LearningCurve) -> str:
    """Curve CSV: cum_cost,cum_freq corner rows."""
    return "".join(["cum_cost,cum_freq\n", *["%.6f,%.9f\n" % point for point in cv.points]])


def _summary(cv: LearningCurve) -> dict[str, float]:
    """The curve's summary numbers as every output reports them:
    efficiencies rounded to 12 places."""
    return {"n_learned": cv.n_learned, "lambda_f": round(cv.final_efficiency, 12),
            "lambda_avg": round(cv.mean_efficiency, 12)}


def curve_summary_json(cv: LearningCurve) -> str:
    """JSON sidecar with the curve's summary numbers."""
    return json.dumps({"c0": cv.c0, **_summary(cv)}, sort_keys=True) + "\n"


def serialize_cluster_csv(stats: ClusterStats) -> str:
    """Cluster CSV: n,avg_d1,avg_d2 with blanks for undefined averages."""
    return "".join(["n,avg_d1,avg_d2\n", *[
        "%d,%.3f,%.3f\n" % row if row[1] is not None and row[2] is not None
        else "%d,%s,%s\n" % (row[0], "" if row[1] is None else "%.3f" % row[1],
                              "" if row[2] is None else "%.3f" % row[2])
        for row in stats.rows]])
