"""Seeded benchmark for glyphorder.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root; the program is imported from `src/`.
Each workload generates its inputs from the seed, measures its set-up in
fresh interpreters, runs its timed session in a fresh interpreter of its
own, and then checks every output against the exact model in oracle.py.
Times are scaled to a nominal machine speed by the reference workload of
reference.py, run between the timed operations.
With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 a separate, instrumented session gives
the per-layer metrics instead. Without --workload, every workload runs
in turn. See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import synth  # noqa: E402
from oracle import Model, horizon_prefixes, linear_extensions, word_model  # noqa: E402
from reference import NOMINAL_S, scale  # noqa: E402
from session import OPS  # noqa: E402

GAMMA, RERUN_GAMMA = "0.1", "0.25"
SETUP_RUNS = 9
IMPORT_RUNS = 3
PROBE_SEED = 20160226       # the probe's inputs never depend on --seed
ENUMERATED = 4              # exhaustive instances also checked by full enumeration
SEARCH_TARGET = 225         # prefixes an exhaustive search must tell apart, per network
SEARCH_SLACK = 40           # how far a batch's running total may stray from its target
SESSION_SLACK = 60          # seconds a session may take beyond --seconds: warm-up, last round

# Metric names, units and directions live in BENCHMARK.json only.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    """One input shape. The operations in `full` run at full size; the
    others run on small selections of the same language, so that every
    operation is measured on every workload, and `repeat` times a round,
    each run a sample of its own: they are short, and one sample a round
    would leave their medians at the mercy of a few slow calls."""

    name: str
    chars: int
    words: int
    full: frozenset[str]
    instances: int
    repeat: int
    random_curricula: int = 0
    probe: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("chars-rerun", chars=3000, words=300, full=frozenset({"order", "rerun"}),
             instances=10, repeat=3),
    Workload("words-full", chars=2000, words=2000, full=frozenset({"words"}), instances=10,
             repeat=3),
    Workload("score-curricula", chars=8000, words=300, full=frozenset({"compare"}),
             instances=10, repeat=2, random_curricula=3, probe=True),
    Workload("exhaustive-small", chars=400, words=200, full=frozenset({"exhaustive"}),
             instances=150, repeat=5),
)}


class Inputs:
    """Generated files, the CLI runs over them, and what each run should produce."""

    def __init__(self, w: Workload, seed: int, root: Path):
        self.root = root
        self.workload = w
        rng = random.Random("%s:%d" % (w.name, seed))
        lang = self.lang = synth.language(rng, w.chars)
        plain_words = synth.add_words(rng, lang, w.words)
        self.decompositions = self.write("decompositions.tsv", lang.decompositions_tsv())
        self.char_freq = self.write("char_freq.tsv", synth.counts_tsv(lang.char_counts))
        self.word_freq = self.write("word_freq.tsv", synth.counts_tsv(lang.word_counts))
        self.top_k = len(lang.word_counts) * (9 if "words" in w.full else 10) // 10
        self.runs: list[dict] = []
        self.models: dict = {}

        chars = [g.id for g in lang.glyphs if g.kind in ("p", "c")]
        absent = chr(synth.UNKNOWN_BASE + 200)
        small = self.write("target_small.txt", synth.lines(rng.sample(chars, 20) + [absent]))
        small2 = self.write("target_small2.txt", synth.lines(rng.sample(chars, 20) + [absent]))
        large = self.write("target_large.txt", synth.lines(rng.sample(chars, min(300, len(chars) // 2)) + [absent]))
        word_target = self.write("word_target.txt",
                                 synth.lines(rng.sample(plain_words, 20) + [absent + absent]))
        whole = "order" in w.full
        self.pipeline("order", "order", target=None if whole else small)
        whole = "rerun" in w.full
        self.pipeline("rerun", "known", known=True, target=None if whole else small)
        self.pipeline("rerun", "gamma", gamma=RERUN_GAMMA, target=None if whole else small)
        self.pipeline("rerun", "target", target=large if whole else small2)
        self.pipeline("words", "words", words=True, target=None if "words" in w.full else word_target)

        curricula = [("kahn", synth.kahn(lang.glyphs))]
        curricula += [("random-%d" % (k + 1), synth.random_topological(rng, lang.glyphs))
                      for k in range(w.random_curricula)]
        curricula.append(("rote", synth.rote(rng, lang)))
        fracs = (0.5, 0.8, 0.95) if "compare" in w.full else (0.3,)
        self.compare(curricula, fracs)

        # The batch's cost follows the prefixes its searches tell apart, so
        # its running total is kept on target: the cost does not hinge on
        # the seed or on one huge network.
        self.instances = []
        searched = 0
        while len(self.instances) < w.instances:
            small_lang = synth.small_network(rng)
            if not 150 <= linear_extensions(small_lang.glyphs) <= 3000:
                continue    # cheap pre-filter: too few orders, or slow to count
            costs = synth.exact_costs(small_lang.glyphs, Fraction(GAMMA))
            c0 = synth.off_grid(float(sum(costs.values())) * 0.6)
            size = horizon_prefixes(small_lang.glyphs, costs, Fraction(c0))
            if abs(searched + size - (len(self.instances) + 1) * SEARCH_TARGET) <= SEARCH_SLACK:
                self.instances.append({"language": small_lang, "c0": c0})
                searched += size
        self.probes = self.make_probes() if w.probe else []

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return str(path)

    def model(self, words: bool, gamma: str, known: bool):
        key = (words, gamma, known)
        if key not in self.models:
            lang = self.lang
            if words:
                self.models[key] = word_model(lang.glyphs, lang.word_counts, self.top_k, gamma)
            else:
                prims = frozenset(g.id for g in lang.glyphs if g.kind in ("p", "pc")) if known else frozenset()
                self.models[key] = (Model(lang.glyphs, lang.char_counts, gamma, prims), None)
        return self.models[key]

    def pipeline(self, op: str, name: str, *, target: str | None = None, words: bool = False,
                 gamma: str = GAMMA, known: bool = False) -> None:
        model, dropped = self.model(words, gamma, known)
        argv = ["words" if words else "order", "--decompositions", self.decompositions,
                "--frequencies", self.char_freq, "--word-frequencies", self.word_freq,
                "--gamma", gamma, "--top-k", str(self.top_k)]
        missing: list[str] = []
        pool = set(model.glyphs)
        if target:
            items = Path(target).read_text(encoding="utf-8").split("\n")[:-1]
            missing = [t for t in items if t not in model.glyphs]
            pool = model.selection(t for t in items if t in model.glyphs)
            argv += ["--target", target]
        if known:
            argv += ["--known", "all-primitives"]
        total = sum(model.cost[g] for g in pool)
        horizons = [synth.off_grid(float(total) * f) for f in (0.1, 0.4)]
        for h in horizons:
            argv += ["--c0", h]
        self.runs.append({"op": op, "name": name, "argv": argv + ["--out", "{out}"],
                          "prefix": "words_" if words else "", "model": (words, gamma, known),
                          "pool": pool, "missing": missing, "horizons": horizons,
                          "dropped": dropped})

    def compare(self, curricula: list[tuple[str, list[str]]], fracs) -> None:
        files = [self.write("curricula/%s.txt" % name, synth.lines(ids)) for name, ids in curricula]
        model, _ = self.model(False, GAMMA, False)
        total = sum(model.cost.values())
        horizons = [synth.off_grid(float(total) * f) for f in fracs]
        argv = ["compare", *files, "--include-pure-frequency", "--decompositions",
                self.decompositions, "--frequencies", self.char_freq]
        for h in horizons:
            argv += ["--c0", h]
        pure = sorted(model.glyphs, key=lambda g: (-model.counts.get(g, 0), g))
        self.runs.append({"op": "compare", "name": "compare", "argv": argv + ["--out", "{out}"],
                          "horizons": horizons, "model": (False, GAMMA, False),
                          "candidates": curricula + [("pure-frequency", pure)]})

    def make_probes(self) -> list[dict]:
        """Hierarchal orders scored at horizons equal to exact prefix costs."""
        fixed = synth.language(random.Random(PROBE_SEED), 1000)
        tiny = synth.Language([synth.Glyph(chr(synth.BASE + k), "p", (), 1) for k in range(3)],
                              {chr(synth.BASE + k): 1 for k in range(3)})
        probes = []
        for name, lang, ids, every in (
                ("fixed", fixed, synth.random_topological(random.Random(PROBE_SEED), fixed.glyphs), 10),
                ("three", tiny, synth.kahn(tiny.glyphs), 3)):
            model = Model(lang.glyphs, lang.char_counts, GAMMA)
            prefix, horizons = Fraction(0), []
            for k, gid in enumerate(ids, start=1):
                prefix += model.cost[gid]
                if k % every == 0:
                    horizons.append(synth.decimal_str(prefix))
            argv = ["compare", self.write("probe/%s/order.txt" % name, synth.lines(ids)),
                    "--decompositions", self.write("probe/%s/d.tsv" % name, lang.decompositions_tsv()),
                    "--frequencies", self.write("probe/%s/f.tsv" % name, synth.counts_tsv(lang.char_counts))]
            for h in horizons:
                argv += ["--c0", h]
            probes.append({"argv": argv + ["--out", "{out}"], "model": model, "ids": ids,
                           "horizons": horizons})
        return probes

    def repeats(self) -> dict[str, int]:
        return {op: 1 if op in self.workload.full else self.workload.repeat
                for op in OPS + ("exhaustive",)}

    def plan(self, seconds: int, trace: bool, work: Path, result: Path, trace_file: Path) -> dict:
        ops = {op: [r["argv"] for r in self.runs if r["op"] == op] for op in OPS}
        batch = {"gamma": GAMMA, "instances": [
            {"decompositions": i["language"].decompositions_tsv(),
             "frequencies": synth.counts_tsv(i["language"].char_counts), "c0": i["c0"]}
            for i in self.instances]}
        return {"src": str(SRC), "seconds": seconds, "trace": trace, "ops": ops,
                "repeat": self.repeats(),
                "exhaustive": batch, "probe": [p["argv"] for p in self.probes],
                "rounds_dir": str(work / "rounds"), "result": str(result),
                "trace_file": str(trace_file)}


def check_all(inp: Inputs, first_round: Path, exhaustive_results: list) -> tuple[int, int]:
    """Every output check for one round; returns (probe operations, failed)."""
    counters = {}
    for r in inp.runs:
        counters[r["op"]] = counters.get(r["op"], -1) + 1
        out = first_round / ("%s%d" % (r["op"], counters[r["op"]]))
        model, _ = inp.model(*r["model"])
        if r["op"] == "compare":
            checks.check_compare(model, r, out)
        else:
            checks.check_pipeline(model, r, out)
    checks.check_exhaustive(inp.instances, exhaustive_results, GAMMA, ENUMERATED)
    ops = failed = 0
    for k, p in enumerate(inp.probes):
        n, bad = checks.check_probe(p["model"], p["ids"], p["horizons"], first_round / ("probe%d" % k))
        ops, failed = ops + n, failed + bad
    return ops, failed


def oracle_sweeps(seed: int):
    """(network, program's sweep, frozen naive sweep from tests/conftest.py) on
    check-sized instances: a character network and a word network."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.spec_from_file_location("frozen_oracles", ROOT / "tests" / "conftest.py")
    frozen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frozen)
    import glyphorder as go

    rng = random.Random("check:%d" % seed)
    for chars, words in ((1000, 0), (500, 500)):
        lang = synth.language(rng, chars)
        synth.add_words(rng, lang, max(words, 20))
        net = go.build_network(go.parse_decompositions(lang.decompositions_tsv()))
        freq = go.parse_frequencies(synth.counts_tsv(lang.char_counts))
        if words:
            freq = go.parse_frequencies(synth.counts_tsv(lang.word_counts))
            net, freq, _ = go.expand_with_words(net, freq, go.WordNetworkConfig())
        table = go.centralities(net, freq, go.CostParams())
        got = go.priority_topo_sort(net, table, set(net.ids())).ids()
        want, _ = frozen.oracle_sweep(net, table, set(net.ids()))
        yield "%d-node %s network" % (len(net), "word" if words else "character"), got, want


def check_oracle_sweep(seed: int) -> None:
    for network, got, want in oracle_sweeps(seed):
        checks.expect(got == want, "sweep differs from the frozen oracle on the %s" % network)


def setup_seconds(w: Workload, inp: Inputs) -> float:
    argv = [inp.decompositions, inp.char_freq]
    if "words" in w.full:
        argv += [inp.word_freq, str(inp.top_k)]
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), *argv],
                              capture_output=True, text=True, timeout=30, check=True)
        elapsed, reference = map(float, done.stdout.split()[-2:])
        times.append(scale(elapsed, reference))
    return statistics.median(times)


def import_seconds() -> dict[str, float]:
    """Cumulative import times of glyphorder and numpy, from -X importtime."""
    got: dict[str, list[float]] = {"import.glyphorder_s": [], "import.numpy_s": []}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import glyphorder"],
                              capture_output=True, text=True, timeout=30, env=env, check=True)
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if m and "import.%s_s" % m.group(2) in got:
                got["import.%s_s" % m.group(2)].append(int(m.group(1)) / 1e6)
    return {k: statistics.median(v) for k, v in got.items()}


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / ("%s-%d-%d" % (w.name, seed, os.getpid()))
    try:
        inp = Inputs(w, seed, work / "inputs")
        metrics: dict[str, float] = {}
        if not trace:
            metrics["setup_s"] = setup_seconds(w, inp)
        plan_file = work / "plan.json"
        result_file = work / "session.json"
        plan = inp.plan(seconds, trace, work, result_file, OUT / ("%s-trace.tsv" % w.name))
        plan_file.write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "session.py"), str(plan_file)],
                       timeout=seconds + SESSION_SLACK, check=True)
        session = json.loads(result_file.read_text(encoding="utf-8"))
        shutil.copyfile(result_file, OUT / ("%s-session.json" % w.name))

        correct = True
        probe_ops = probe_failed = 0
        try:
            checks.expect(not session["errors"], "command failed: %s" % session["errors"][:1])
            checks.expect(not session["mismatched"],
                          "outputs differ between rounds: %s" % session["mismatched"][:3])
            first = Path(session["first_round"])
            results = json.loads((first / "exhaustive.json").read_text(encoding="utf-8"))
            probe_ops, probe_failed = check_all(inp, first, results)
            check_oracle_sweep(seed)
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            # A missing or malformed output file is a wrong output too.
            print("check failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
            correct = False

        repeat = inp.repeats()
        per_round = (sum(repeat[r["op"]] for r in inp.runs)
                     + repeat["exhaustive"] * len(inp.instances) + probe_ops)
        if trace:
            layers = session["layers"]
            for name, unit in PER_LAYER.items():
                if name.startswith("import."):
                    continue
                # Counts repeat exactly from round to round; times vary.
                if unit == "s":
                    metrics[name] = statistics.median(scale(layer.get(name, 0), layer["reference"])
                                                      for layer in layers)
                else:
                    metrics[name] = layers[0].get(name, 0)
            metrics.update(import_seconds())
        else:
            metrics["peak_rss_mb"] = session["peak_rss_mb"]
            for op, samples in session["samples"].items():
                metrics[op + "_s"] = statistics.median(
                    map(scale, samples, session["reference"][op]))
        units = PER_LAYER if trace else END_TO_END
        reference = [t for ts in session["reference"].values() for t in ts]
        print("reference workload: median %.2f ms over %d samples (nominal %.2f ms)"
              % (1000 * statistics.median(reference), len(reference), 1000 * NOMINAL_S))
        return {"correct": correct, "attempted": per_round * session["rounds"],
                "failed": probe_failed * session["rounds"],
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, result: dict) -> None:
    print("== %s: attempted %d, failed %d, correct %s"
          % (name, result["attempted"], result["failed"], result["correct"]))
    for metric, v in result["metrics"].items():
        print("   %-36s %14.6f %s" % (metric, v["value"], v["unit"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one output per check and confirm each check fails")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "glyphorder" / "__init__.py").is_file():
        print("error: %s/glyphorder not found; run from a glyphorder checkout" % SRC, file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
