"""Self-test: each check must fail when one output is corrupted.

    python3 perfbench/run.py --self-test

Runs a small workload once, confirms that every check passes on its
outputs, then corrupts one output at a time in a copy and confirms that
the checks reject each copy.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run as bench
from session import file_hashes

SMALL = bench.Workload("self-test", chars=300, words=100, full=frozenset({"order", "rerun", "words"}),
                       instances=3, repeat=2, probe=True)


def edit(path: Path, line: int, change) -> None:
    rows = path.read_text(encoding="utf-8").split("\n")
    rows[line] = change(rows[line])
    path.write_text("\n".join(rows), encoding="utf-8")


def set_field(k: int, value: str):
    def change(row: str) -> str:
        fields = row.split(",")
        fields[k] = value
        return ",".join(fields)
    return change


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def compound_first(path: Path, lang) -> None:
    """Move the first glyph that has components to the front."""
    has_parts = {g.id for g in lang.glyphs if g.comps}
    ids = path.read_text(encoding="utf-8").split("\n")[:-1]
    k = next(k for k, gid in enumerate(ids) if gid in has_parts)
    path.write_text("\n".join([ids[k]] + ids[:k] + ids[k + 1:]) + "\n", encoding="utf-8")


def corruptions(inp: bench.Inputs):
    """(what, change) pairs; change(outputs dir, exhaustive results) corrupts one thing."""
    def bump_n(data):
        next(iter(data["results"].values()))["n_learned"] += 1

    def bump_mean(data):
        data["lambda_avg"] += 1e-6

    def drop_first_line(path: Path):
        rows = path.read_text(encoding="utf-8").split("\n")
        path.write_text("\n".join(rows[1:]), encoding="utf-8")

    def probe_off_by_two(row: str) -> str:
        return set_field(3, str(int(row.split(",")[3]) - 2))(row)

    h = checks.label(inp.runs[0]["horizons"][0])
    kahn = inp.runs[-1]["candidates"][0][1]
    return [
        ("order.txt puts a glyph before its component",
         lambda d, r: compound_first(d / "order0/order.txt", inp.lang)),
        ("order.csv misstates one cost",
         lambda d, r: edit(d / "order0/order.csv", 1, set_field(3, "9.000000"))),
        ("summary.json miscounts n_learned",
         lambda d, r: edit_json(d / "order0/summary.json", bump_n)),
        ("a curve corner is off",
         lambda d, r: edit(d / ("order0/curve_c%s.csv" % h), 1, set_field(1, "0.500000000"))),
        ("a curve summary's lambda_avg is off",
         lambda d, r: edit_json(d / ("order0/curve_c%s.json" % h), bump_mean)),
        ("a known-set rerun charges a known primitive",
         lambda d, r: edit(d / "rerun0/order.csv", 1, set_field(3, "1.100000"))),
        ("dropped_words.txt loses a line",
         lambda d, r: drop_first_line(d / "words0/dropped_words.txt")),
        ("comparison.csv misstates a lambda",
         lambda d, r: edit(d / "compare0/comparison.csv", 1, set_field(4, "0.999"))),
        ("a charge-unlearned count is off",
         lambda d, r: edit(d / "compare0/comparison.csv", -2, set_field(3, "1"))),
        ("a cluster average is off",
         lambda d, r: edit(d / "compare0/kahn_cluster.csv", len(kahn), set_field(1, "99.000"))),
        ("brute force reports a wrong mean",
         lambda d, r: r[0]["best"].update(mean=r[0]["best"]["mean"] + 1e-6)),
        ("brute force returns a non-hierarchal order",
         lambda d, r: r[0]["best"]["ids"].reverse()),
        ("a probe count is off by two",
         lambda d, r: edit(d / "probe0/comparison.csv", 1, probe_off_by_two)),
    ]


def main() -> int:
    bench.OUT.mkdir(exist_ok=True)
    work = bench.OUT / ("self-test-%d" % os.getpid())
    try:
        inp = bench.Inputs(SMALL, 1, work / "inputs")
        plan_file = work / "plan.json"
        plan = inp.plan(0, False, work, work / "session.json", work / "trace.tsv")
        plan_file.write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run([sys.executable, str(bench.HERE / "session.py"), str(plan_file)],
                       timeout=bench.SESSION_SLACK, check=True)
        session = json.loads((work / "session.json").read_text(encoding="utf-8"))
        first = Path(session["first_round"])
        clean = json.loads((first / "exhaustive.json").read_text(encoding="utf-8"))
        checks.expect(not session["errors"] and not session["mismatched"], "clean session failed")
        bench.check_all(inp, first, clean)
        bench.check_oracle_sweep(1)
        print("clean outputs pass every check")

        copy = work / "corrupt"
        missed = 0
        for what, change in corruptions(inp):
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(first, copy)
            results = json.loads(json.dumps(clean))
            change(copy, results)
            try:
                bench.check_all(inp, copy, results)
            except (checks.CheckFailed, ValueError, KeyError, IndexError) as exc:
                print("detected: %s (%s)" % (what, str(exc)[:100]))
            else:
                print("MISSED:   %s" % what)
                missed += 1

        shutil.rmtree(copy)
        shutil.copytree(first, copy)
        with open(copy / "order0" / "order.txt", "ab") as fh:
            fh.write(b"\n")
        if file_hashes(copy) != file_hashes(first):
            print("detected: a rerun's output differs by one byte")
        else:
            print("MISSED:   a rerun's output differs by one byte")
            missed += 1
        for network, got, want in bench.oracle_sweeps(1):
            got[0], got[1] = got[1], got[0]
            if got != want:
                print("detected: the sweep departs from the frozen oracle (%s)" % network)
            else:
                print("MISSED:   the sweep departs from the frozen oracle (%s)" % network)
                missed += 1
        print("self-test: %d missed" % missed)
        return 1 if missed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
