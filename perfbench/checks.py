"""Checks of the program's output files against the exact model in oracle.py.

Each check raises CheckFailed on the first disagreement. None of them
compares against a stored copy of earlier output: expected values are
recomputed from the generated inputs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import synth
from oracle import (Model, all_hierarchal_orders, cluster_rows, exact_curve,
                    float_prefix_overrun, violations)

COST_TOL = 2e-6      # %.6f columns
SHARE_TOL = 2e-9     # %.9f columns
SUMMARY_TOL = 1e-9   # values rounded to 12 decimals
TABLE_TOL = 6e-4     # %.3f columns


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(value: float, exact, tol: float) -> bool:
    return abs(value - float(exact)) <= tol


def label(h: str) -> str:
    """Horizon as the CLI spells it in file names and table rows."""
    return "%g" % float(h)


def read_lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    expect(text == "" or text.endswith("\n"), "%s: no final newline" % path.name)
    return text.split("\n")[:-1]


def check_order(model: Model, ids: list[str], pool: set[str], what: str) -> None:
    """A permutation of the selection plus closures, components first."""
    expect(len(ids) == len(set(ids)) == len(pool) and set(ids) == pool,
           "%s: not a permutation of the selection and its closures" % what)
    bad = violations(model, ids)
    expect(not bad, "%s: %s scheduled before its component %s" % (what, *bad[0]) if bad else "")


def check_curve_files(stem: Path, cv, h: str) -> None:
    rows = read_lines(Path(str(stem) + ".csv"))
    expect(rows[0] == "cum_cost,cum_freq" and len(rows) == len(cv.points) + 1,
           "%s: %d corners, expected %d" % (stem.name, len(rows) - 1, len(cv.points)))
    for row, (c, f) in zip(rows[1:], cv.points):
        got_c, got_f = map(float, row.split(","))
        expect(close(got_c, c, COST_TOL) and close(got_f, f, SHARE_TOL),
               "%s: corner %s, expected (%s, %s)" % (stem.name, row, float(c), float(f)))
    summary = json.loads(Path(str(stem) + ".json").read_text(encoding="utf-8"))
    expect(summary["c0"] == float(h) and summary["n_learned"] == cv.n_learned
           and close(summary["lambda_f"], cv.final, SUMMARY_TOL)
           and close(summary["lambda_avg"], cv.mean, SUMMARY_TOL),
           "%s: %s, expected n %d, lambda_f %.12f, lambda_avg %.12f"
           % (stem.name, summary, cv.n_learned, cv.final, cv.mean))


def check_order_csv(model: Model, ids: list[str], path: Path) -> None:
    rows = read_lines(path)
    expect(rows[0] == "rank,glyph,kind,cost,freq,eta,cum_cost,cum_freq" and len(rows) == len(ids) + 1,
           "%s: header or row count" % path.name)
    cum_c, cum_n = Fraction(0), 0
    for rank, (row, gid) in enumerate(zip(rows[1:], ids), start=1):
        r, glyph, kind, c, f, eta, cc, cf = row.split(",")
        cost, count = model.cost[gid], model.counts.get(gid, 0)
        cum_c += cost
        cum_n += count
        share = Fraction(count, model.total)
        if cost:
            eta_ok = math.isclose(float(eta), share / cost, rel_tol=1e-8)
        else:
            eta_ok = float(eta) == (math.inf if count else 0.0)
        expect(int(r) == rank and glyph == gid and kind == model.glyphs[gid].kind
               and close(float(c), cost, COST_TOL) and close(float(f), share, SHARE_TOL)
               and eta_ok and close(float(cc), cum_c, COST_TOL)
               and close(float(cf), Fraction(cum_n, model.total), SHARE_TOL),
               "%s row %d: %s" % (path.name, rank, row))


def check_pipeline(model: Model, run: dict, out: Path) -> None:
    """The files of one `order` or `words` run."""
    p, dropped = run["prefix"], run["dropped"]
    ids = read_lines(out / (p + "order.txt"))
    check_order(model, ids, run["pool"], "%s order" % run["name"])
    check_order_csv(model, ids, out / (p + "order.csv"))
    summary = json.loads((out / (p + "summary.json")).read_text(encoding="utf-8"))
    expect(summary["n_items"] == len(ids), "%s: n_items" % run["name"])
    coverage = Fraction(sum(model.counts.get(g, 0) for g in ids), model.total)
    expect(close(summary["coverage"], coverage, SUMMARY_TOL), "%s: coverage" % run["name"])
    expect(summary.get("missing_targets", []) == run["missing"], "%s: missing targets" % run["name"])
    expect(summary["horizons"] == [float(h) for h in run["horizons"]], "%s: horizons" % run["name"])
    for h in run["horizons"]:
        cv = exact_curve(model, ids, Fraction(h))
        r = summary["results"][label(h)]
        expect(r["n_learned"] == cv.n_learned and close(r["lambda_f"], cv.final, SUMMARY_TOL)
               and close(r["lambda_avg"], cv.mean, SUMMARY_TOL),
               "%s at c0=%s: %s, expected n %d" % (run["name"], h, r, cv.n_learned))
        check_curve_files(out / ("%scurve_c%s" % (p, label(h))), cv, h)
    if dropped is not None:
        expect(read_lines(out / "dropped_words.txt") == ["%s\t%s" % d for d in dropped]
               and summary["n_dropped_words"] == len(dropped),
               "%s: dropped-word report" % run["name"])


def check_compare(model: Model, run: dict, out: Path, cluster_every: int = 97) -> None:
    """comparison.csv, the widest-horizon curve files and the cluster files."""
    want = ["label,cost_mode,c0,n_learned,lambda_f,lambda_avg"]
    got = read_lines(out / "comparison.csv")
    widest = max(run["horizons"], key=Fraction)
    for name, ids in run["candidates"]:
        modes = ([("hierarchal", "hier", False)] if not violations(model, ids) else [])
        modes.append(("charge-unlearned", "charge", True))
        for mode, tag, charge in modes:
            for h in sorted(run["horizons"], key=Fraction):
                cv = exact_curve(model, ids, Fraction(h), charge=charge)
                want.append((name, mode, label(h), cv))
                if h == widest:
                    check_curve_files(out / ("%s_%s_curve" % (name, tag)), cv, h)
        rows = read_lines(out / ("%s_cluster.csv" % name))
        expect(rows[0] == "n,avg_d1,avg_d2" and len(rows) == len(ids) + 1,
               "%s_cluster.csv: row count" % name)
        exact = cluster_rows(model, ids)
        for n in sorted(set(range(1, len(ids) + 1, cluster_every)) | {len(ids)}):
            fields = rows[n].split(",")
            for value, ref in zip(fields[1:], exact[n - 1]):
                expect(int(fields[0]) == n and (value == "" if ref is None else
                       ref is not None and value and close(float(value), ref, TABLE_TOL)),
                       "%s_cluster.csv row %d: %s, expected %s" % (name, n, rows[n], exact[n - 1]))
    expect(len(got) == len(want), "comparison.csv: %d rows, expected %d" % (len(got), len(want)))
    for row, ref in zip(got[1:], want[1:]):
        name, mode, h, cv = ref
        f = row.split(",")
        expect(f[:3] == [name, mode, h] and int(f[3]) == cv.n_learned
               and close(float(f[4]), cv.final, TABLE_TOL) and close(float(f[5]), cv.mean, TABLE_TOL),
               "comparison.csv: %s, expected n %d, lambda_f %.4f, lambda_avg %.4f"
               % (row, cv.n_learned, cv.final, cv.mean))


def check_exhaustive(instances: list[dict], results: list[dict], gamma: str,
                     enumerate_first: int) -> None:
    """Brute force is hierarchal, beats the sweep and Kahn, and on the first
    instances equals the best of an independent enumeration."""
    expect(len(results) == len(instances), "exhaustive: %d results" % len(results))
    for k, (inst, res) in enumerate(zip(instances, results)):
        lang, c0 = inst["language"], Fraction(inst["c0"])
        model = Model(lang.glyphs, lang.char_counts, gamma)
        for name in ("best", "sweep", "kahn"):
            r = res[name]
            check_order(model, r["ids"], set(model.glyphs), "instance %d %s" % (k, name))
            cv = exact_curve(model, r["ids"], c0)
            expect(r["n"] == cv.n_learned and close(r["final"], cv.final, SUMMARY_TOL)
                   and close(r["mean"], cv.mean, SUMMARY_TOL),
                   "instance %d %s: curve %s" % (k, name, r))
        expect(res["kahn"]["ids"] == synth.kahn(lang.glyphs), "instance %d: Kahn order" % k)
        best = (res["best"]["mean"], res["best"]["final"])
        for other in ("sweep", "kahn"):
            expect(best >= (res[other]["mean"], res[other]["final"]),
                   "instance %d: brute force scores below %s" % (k, other))
        if k < enumerate_first:
            top = max(exact_curve(model, ids, c0).mean for ids in all_hierarchal_orders(model))
            got = exact_curve(model, res["best"]["ids"], c0).mean
            expect(abs(got - top) <= Fraction(1, 10 ** 12),
                   "instance %d: brute force mean %s, enumeration best %s" % (k, float(got), float(top)))


def check_probe(model: Model, ids: list[str], horizons: list[str],
                out: Path) -> tuple[int, int]:
    """Rows at horizons equal to exact prefix costs. A row whose count
    disagrees with the exact one is a failed operation when a float
    running sum explains it; any other disagreement fails the check.
    Returns (operations, failed)."""
    by_label = {label(h): Fraction(h) for h in horizons}
    rows = read_lines(out / "comparison.csv")[1:]
    expect(len(rows) == 2 * len(horizons), "probe: %d rows" % len(rows))
    # The decimal costs are exact in the program's float formula too, so
    # the nearest float to each exact cost is what it adds up.
    float_costs = [float(model.cost[g]) for g in ids]
    failed = 0
    for row in rows:
        name, mode, h, n, f, m = row.split(",")
        c0 = by_label[h]
        cv = exact_curve(model, ids, c0, charge=mode == "charge-unlearned")
        if int(n) == cv.n_learned:
            expect(close(float(f), cv.final, TABLE_TOL) and close(float(m), cv.mean, TABLE_TOL),
                   "probe: %s" % row)
            continue
        drifted = float_prefix_overrun(float_costs, float(c0))
        expect(int(n) == drifted < cv.n_learned,
               "probe: %s, expected n %d (float running sum gives %d)" % (row, cv.n_learned, drifted))
        failed += 1
    return len(rows), failed
