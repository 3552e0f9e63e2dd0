"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed 1] [--pairs 10]

PARENT and CHANGE are checkouts of the repository, for example `git
archive` copies of two commits. Pair k runs `perfbench/run.py --workload
W --seed S` in each checkout, one run at a time, the parent first when k
is odd, and reads the JSON object on the last line of each run's output.
Each pair's end-to-end metrics are printed as parent/change when it
ends. Then, for each end-to-end metric of BENCHMARK.json: both medians,
the change in percent, the pairs in which the change is better (ties
count for neither), the parent's interquartile range and quartiles, and
a mark when the change's median is worse than the parent's by more than
the metric's bound. Last, each side's failed share and whether every run read
`correct`. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(checkout: Path, workload: str, seed: int) -> dict:
    """The result object one benchmark run in `checkout` prints last."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("%s: benchmark exited %d\n%s" % (checkout, done.returncode, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def summary(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """The report lines for (parent, change) result pairs."""
    lines = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        before, after = statistics.median(parent), statistics.median(change)
        better = sum(c < p if lower else c > p for p, c in zip(parent, change))
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else parent * 3)
        pct = 100 * (after - before) / before if before else float("nan")
        worse = after - before if lower else before - after
        mark = "  OVER BOUND %g%%" % (100 * m["bound"]) if worse > m["bound"] * abs(before) else ""
        lines.append("%-14s %10.4g -> %10.4g %+7.1f%%  better %d/%d  parent IQR %.4g (%.4g-%.4g)%s"
                     % (name, before, after, pct, better, len(pairs), q3 - q1, q1, q3, mark))
    for side, k in (("parent", 0), ("change", 1)):
        results = [pair[k] for pair in pairs]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = sum(bool(r["correct"]) for r in results)
        lines.append("%s: failed %d of %d (%.2f%%), correct in %d of %d runs" % (
            side, failed, attempted, 100 * failed / attempted if attempted else 0.0,
            correct, len(results)))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    metrics = json.loads(SPEC.read_text(encoding="utf-8"))["end_to_end"]
    pairs = []
    for k in range(1, args.pairs + 1):
        odd = k % 2
        first, second = (args.parent, args.change) if odd else (args.change, args.parent)
        results = run(first, args.workload, args.seed), run(second, args.workload, args.seed)
        pair = results if odd else results[::-1]
        pairs.append(pair)
        print("pair %d (%s first): %s" % (
            k, "parent" if odd else "change",
            ", ".join("%s %.4g/%.4g" % (m["name"], pair[0]["metrics"][m["name"]]["value"],
                                        pair[1]["metrics"][m["name"]]["value"])
                      for m in metrics)), flush=True)
    print("\n".join(summary(metrics, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
