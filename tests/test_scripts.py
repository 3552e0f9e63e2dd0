"""Whole programs in fresh interpreters (the command line under two hash
seeds, every demo script, the modules an import loads, the benchmark's
traced session, the code-line counter, the benchmark pair runner), and
the package names the benchmark reaches."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glyphorder
from glyphorder.cli import DATA_ENV_VAR

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def python(argv, cwd, **env):
    base = {k: v for k, v in os.environ.items() if k != DATA_ENV_VAR}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       base.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env={**base, **env},
                          capture_output=True, timeout=120)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # The ordering, word expansion and cluster statistics group glyphs in
    # sets; set order varies with PYTHONHASHSEED, and none of it may reach
    # an output. Every run here places its ranking by owner rather than
    # sweeping it: the rerun's target pool holds no known glyph of zero
    # frequency. The bundled corpus has zero-frequency components in both
    # modes, so both runs also place some glyphs in postorder in front of
    # their owners. The rote order is not hierarchal, so `compare` prices
    # it in charge mode and reuses the optimized order's hierarchal curve.
    # The rerun takes its known set from the glyph kinds, whose hash is
    # that of their name. Targeted runs build their centrality table from
    # the target pool, a set, in both modes.
    data = ROOT / "src" / "glyphorder" / "data"
    target = str(data / "target_basic.txt")
    commands = {"order": ["order"], "words": ["words"],
                "compare": ["compare", str(data / "rote_order.txt"), "--include-optimized"],
                "rerun": ["order", "--known", "all-primitives", "--gamma", "0.25",
                          "--target", target],
                "words-target": ["words", "--target", target]}
    runs = {}
    for seed in ("1", "2"):
        cwd = tmp_path / seed
        cwd.mkdir()
        for name, argv in commands.items():
            done = python(["-m", "glyphorder.cli", *argv, "--c0", "12",
                           "--out", name], cwd, PYTHONHASHSEED=seed)
            assert done.returncode == 0, done.stderr
            files = {p.relative_to(cwd).as_posix(): p.read_bytes()
                     for p in sorted((cwd / name).iterdir())}
            runs.setdefault(seed, []).append((done.stdout, files))
    assert runs["1"] == runs["2"]
    assert [len(files) for _, files in runs["1"]] == [5, 6, 9, 5, 6]


def test_traced_benchmark_session_runs_clean(tmp_path):
    # The benchmark's traced session wraps the functions in spans.SPANS
    # and reads their results after each call (len() of every parsed
    # table, the arguments and output of each sweep). Run it once on the
    # bundled corpus, with one small exhaustive instance, and require
    # that no command failed and every round wrote the same bytes.
    data = ROOT / "src" / "glyphorder" / "data"
    ops = {"order": [["order"], ["cluster"]],
           "rerun": [["order", "--known", "all-primitives",
                      "--target", str(data / "target_basic.txt")]],
           "words": [["words"]],
           "compare": [["compare", str(data / "rote_order.txt"), "--include-optimized",
                        "--include-pure-frequency"]]}
    instance = {"decompositions": "A\tp\t-\t5\nP\tp\t-\t9\nQ\tp\t-\t9\nX\tc\tP Q\t0\n",
                "frequencies": "A\t3\nX\t2\nP\t3\nQ\t2\n", "c0": "3.37"}
    plan = {"src": str(ROOT / "src"), "seconds": 0, "trace": True,
            "ops": {op: [[*argv, "--out", "{out}"] for argv in runs] for op, runs in ops.items()},
            "repeat": dict.fromkeys(["order", "rerun", "words", "compare", "exhaustive"], 1),
            "exhaustive": {"gamma": "0.1", "instances": [instance]}, "probe": [],
            "rounds_dir": str(tmp_path / "rounds"), "result": str(tmp_path / "result.json"),
            "trace_file": str(tmp_path / "trace.tsv")}
    (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    done = python([str(ROOT / "perfbench" / "session.py"), str(tmp_path / "plan.json")],
                  tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["errors"] == [] and result["mismatched"] == []
    assert [layer["ordering.brute_force_instances"] for layer in result["layers"]] == [1, 1]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(tmp_path, script):
    done = python([str(script)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []


def test_code_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path):
    # Code lines 3, 6, 8, 9, 11 and 12: a statement split over two lines
    # counts twice, and a string that is not a docstring counts too.
    sample = ('"""Module docstring,\n'
              'over two lines."""\n'
              'import os\n'
              '\n'
              '    # an indented comment line\n'
              'class C:\n'
              '    """Class docstring."""\n'
              '    def f(self, a,\n'
              '          b):\n'
              '        """Method docstring."""\n'
              '        x = "not a docstring"\n'
              '        return a + b  # a comment after code\n')
    (tmp_path / "sample.py").write_text(sample, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "empty.py").write_text("", encoding="utf-8")
    done = python([str(ROOT / "tools" / "code_lines.py"), "sample.py", "pkg"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().splitlines() == [
        "     6     12 sample.py",
        "     0      0 %s" % Path("pkg", "empty.py"),
        "     6     12 total"]


# A stand-in for perfbench/run.py: it logs its checkout and arguments,
# prints a table line, then the next canned result of its checkout.
FAKE_RUN = """import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
log = here.parent / "log.txt"
with open(log, "a", encoding="utf-8") as f:
    f.write("%s %s\\n" % (here.name, " ".join(sys.argv[1:])))
done = log.read_text(encoding="utf-8").split().count(here.name)
print("== table")
print(json.dumps(json.loads((here / "canned.json").read_text(encoding="utf-8"))[done - 1]))
"""


def test_pair_runner_alternates_and_summarizes_canned_pairs(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {"setup_s": ([0.10, 0.12, 0.11], [0.09, 0.13, 0.10]),
              "peak_rss_mb": ([40, 40, 41], [40, 40, 41]),
              "compare_s": ([0.30, 0.32, 0.31], [0.40, 0.41, 0.39])}
    flat = ([0.05] * 3, [0.05] * 3)
    for side, name in enumerate(("parent", "change")):
        canned = [{"correct": (side, k) != (1, 1), "attempted": 1000,
                   "failed": 61 if (side, k) == (1, 2) else 60,
                   "metrics": {m["name"]: {"value": values.get(m["name"], flat)[side][k],
                                           "unit": m["unit"]} for m in spec["end_to_end"]}}
                  for k in range(3)]
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
        (tmp_path / name / "canned.json").write_text(json.dumps(canned), encoding="utf-8")
    done = python([str(ROOT / "tools" / "bench_pairs.py"), "parent", "change",
                   "--workload", "score-curricula", "--pairs", "3"], tmp_path)
    assert done.returncode == 0, done.stderr
    runs = (tmp_path / "log.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split()[0] for line in runs] == ["parent", "change", "change",
                                                  "parent", "parent", "change"]
    assert set(line.split(None, 1)[1] for line in runs) == {"--workload score-curricula --seed 1"}
    lines = done.stdout.decode().splitlines()
    assert lines[0].startswith("pair 1 (parent first): setup_s 0.1/0.09, peak_rss_mb 40/40,")
    assert lines[1].startswith("pair 2 (change first): setup_s 0.12/0.13,")
    report = {line.split()[0]: line for line in lines[3:]}
    assert len(report) == len(spec["end_to_end"]) + 2
    assert report["setup_s"].split() == ["setup_s", "0.11", "->", "0.1", "-9.1%",
                                         "better", "2/3", "parent", "IQR", "0.01",
                                         "(0.105-0.115)"]
    assert report["peak_rss_mb"].split()[4:7] == ["+0.0%", "better", "0/3"]
    assert report["compare_s"].split()[4:] == ["+29.0%", "better", "0/3", "parent", "IQR",
                                               "0.01", "(0.305-0.315)", "OVER", "BOUND", "25%"]
    assert [name for name, line in report.items() if "OVER BOUND" in line] == ["compare_s"]
    assert report["parent:"] == "parent: failed 180 of 3000 (6.00%), correct in 3 of 3 runs"
    assert report["change:"] == "change: failed 181 of 3000 (6.03%), correct in 2 of 3 runs"


def test_import_loads_only_the_declared_dependencies(tmp_path):
    # The top-level modules outside the standard library that `import
    # glyphorder` adds to a bare interpreter, besides glyphorder, are
    # exactly pyproject's dependencies; each distribution here is named
    # like its module. Site hooks (certifi, _distutils_hack) load in both.
    tomllib = pytest.importorskip("tomllib")
    probe = ("import sys; %s; print(*{name.partition('.')[0] for name in sys.modules}"
             " - sys.stdlib_module_names)")
    loaded = []
    for statement in ("pass", "import glyphorder"):
        done = python(["-c", probe % statement], tmp_path)
        assert done.returncode == 0, done.stderr
        loaded.append(set(done.stdout.decode().split()))
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", spec).group() for spec in project["dependencies"]}
    assert loaded[1] - loaded[0] - {"glyphorder"} == declared


def test_benchmark_names_exist():
    # perfbench/ wraps the functions in spans.SPANS by module and calls
    # the package by attribute; a removed or renamed name would break
    # its traced runs. Read its sources as text, so nothing there runs.
    reached = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
                for module, names in zip(node.value.keys, node.value.values):
                    reached.update((module.value, key.value) for key in names.keys)
            elif isinstance(node, ast.Attribute):
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id in ("go", "glyphorder")
                        or isinstance(owner, ast.Attribute) and owner.attr == "go"):
                    reached.add(("", node.attr))
                elif isinstance(owner, ast.Name) and owner.id == "cli":
                    reached.add(("cli", node.attr))
    assert ("metrics", "at_horizon") in reached and ("", "expand_with_words") in reached
    missing = [(module, name) for module, name in sorted(reached)
               if not hasattr(getattr(glyphorder, module) if module else glyphorder, name)]
    assert missing == []
