"""One workload's timed session, in a fresh interpreter of its own.

    python3 session.py PLAN.json

The plan (written by run.py) lists the CLI argument vectors of each
operation, the exhaustive-search batch and how many times a round repeats
each operation. The session runs one warm-up
round, then whole rounds until the measured window has passed (and at
least two measured rounds), one operation at a time. Each CLI command
runs in-process through `glyphorder.cli.main`, from input files on disk
to output files on disk. Every round's output files must match the
first round's byte for byte. Between operations, untimed, garbage is
collected, so that no operation pays for collecting the session's
leftovers from earlier ones, and the reference workload of reference.py
runs; each sample keeps the mean of the reference times just before and
just after it. The result file holds the samples with their reference
times, the first round's outputs for checking, and the peak resident
memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from reference import reference_seconds

OPS = ("order", "rerun", "words", "compare")


def file_hashes(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def exhaustive(go, batch: dict) -> list[dict]:
    """Brute force, the sweep and Kahn on each small network, each scored."""
    out = []
    for inst in batch["instances"]:
        net = go.build_network(go.parse_decompositions(inst["decompositions"]))
        table = go.centralities(net, go.parse_frequencies(inst["frequencies"]),
                                go.CostParams(gamma=float(batch["gamma"])))
        pool = list(net.ids())
        c0 = float(inst["c0"])
        orders = {"best": go.brute_force_best_order(net, table, pool, c0),
                  "sweep": go.priority_topo_sort(net, table, pool),
                  "kahn": go.kahn_order(net, table, pool)}
        row = {}
        for name, order in orders.items():
            cv = go.curve(net, order, c0)
            row[name] = {"ids": order.ids(), "n": cv.n_learned,
                         "final": cv.final_efficiency, "mean": cv.mean_efficiency}
        out.append(row)
    return out


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import glyphorder as go
    from glyphorder import cli

    recorder = None
    if plan["trace"]:
        import oracle
        from spans import Recorder
        recorder = Recorder(go)
        recorder.install()

    rounds_dir = Path(plan["rounds_dir"])
    devnull = open(os.devnull, "w", encoding="utf-8")
    samples: dict[str, list[float]] = {op: [] for op in OPS + ("exhaustive",)}
    reference: dict[str, list[float]] = {op: [] for op in samples}
    layers: list[dict] = []
    errors: list[str] = []
    mismatched: list[str] = []
    first_hashes: dict[str, str] = {}

    def run_cli(argv: list[str], out: Path) -> None:
        argv = [a.replace("{out}", str(out)) for a in argv]
        try:
            with redirect_stdout(devnull):
                if recorder is None:
                    code = cli.main(argv)
                else:
                    code = recorder.call("cli.self", cli.main, argv)
        except Exception:
            errors.append("%s: %s" % (" ".join(argv[:1]), traceback.format_exc()))
            return
        if code != 0:
            errors.append("%s exited with %d" % (argv[0], code))

    measured = 0
    window_start = None
    round_no = 0
    while window_start is None or measured < 2 or time.perf_counter() - window_start < plan["seconds"]:
        here = rounds_dir / ("r%d" % round_no)
        first_span = len(recorder.spans) if recorder else 0
        if recorder:
            recorder.on = True
        times: dict[str, list[float]] = {op: [] for op in samples}
        refs: dict[str, list[float]] = {op: [] for op in samples}
        marks = [reference_seconds()]

        def timed(op: str, run) -> None:
            start = time.perf_counter()
            run()
            times[op].append(time.perf_counter() - start)
            marks.append(reference_seconds())
            refs[op].append((marks[-2] + marks[-1]) / 2)

        def run_op(op: str) -> None:
            for k, argv in enumerate(plan["ops"][op]):
                run_cli(argv, here / ("%s%d" % (op, k)))

        for op in OPS:
            for _ in range(plan["repeat"][op]):
                timed(op, lambda: run_op(op))
        results: list[dict] = []

        def run_exhaustive() -> None:
            try:
                results[:] = exhaustive(go, plan["exhaustive"])
            except Exception:
                errors.append("exhaustive: %s" % traceback.format_exc())
                results.clear()

        for _ in range(plan["repeat"]["exhaustive"]):
            timed("exhaustive", run_exhaustive)
        if recorder:
            recorder.on = False
        for k, argv in enumerate(plan["probe"]):
            run_cli(argv, here / ("probe%d" % k))
        here.mkdir(parents=True, exist_ok=True)
        (here / "exhaustive.json").write_text(json.dumps(results), encoding="utf-8")

        if recorder:
            written = sum(p.stat().st_size for p in here.rglob("*")
                          if p.is_file() and not p.parts[len(here.parts)].startswith(("probe", "exhaustive")))
            layers.append(recorder.round_metrics(first_span, written, oracle))
            layers[-1]["reference"] = statistics.fmean(marks)
        hashes = file_hashes(here)
        if round_no == 0:
            first_hashes = hashes
        else:
            if hashes != first_hashes:
                mismatched.extend(sorted(k for k in set(hashes) | set(first_hashes)
                                         if hashes.get(k) != first_hashes.get(k)))
            shutil.rmtree(here)
        if window_start is None:
            window_start = time.perf_counter()
        else:
            measured += 1
            for op, ts in times.items():
                samples[op].extend(ts)
                reference[op].extend(refs[op])
        round_no += 1

    if recorder:
        recorder.write(plan["trace_file"])
    result = {
        "rounds": round_no,
        "samples": samples,
        "reference": reference,
        "layers": layers[1:],
        "errors": errors,
        "mismatched": sorted(set(mismatched)),
        "first_round": str(rounds_dir / "r0"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
