"""Whole programs in fresh interpreters: the command line under two hash
seeds, and every demo script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # The sweep and word expansion group glyphs in sets; set order varies
    # with PYTHONHASHSEED, and none of it may reach an output. The bundled
    # corpus has zero-frequency components in both modes, so both runs
    # place some glyphs without sweeping them.
    runs = {}
    for seed in ("1", "2"):
        cwd = tmp_path / seed
        cwd.mkdir()
        for command in ("order", "words"):
            done = python(["-m", "glyphorder.cli", command, "--c0", "12", "--out", command],
                          cwd, PYTHONHASHSEED=seed)
            assert done.returncode == 0, done.stderr
            files = {p.relative_to(cwd).as_posix(): p.read_bytes()
                     for p in sorted((cwd / command).iterdir())}
            runs.setdefault(seed, []).append((done.stdout, files))
    assert runs["1"] == runs["2"]
    assert [len(files) for _, files in runs["1"]] == [5, 6]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(tmp_path, script):
    done = python([str(script)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
