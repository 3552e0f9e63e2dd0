"""Golden outputs: `compare` on the bundled corpus, checked byte for byte.

`golden/compare.json` holds, for each case below, the exit code and the
sha256 of stdout (with the output directory written as OUT) and of every
file the command writes. A change that alters any of them on purpose
rewrites the manifest and names the changed entries:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from glyphorder.cli import DATA_ENV_VAR, main

from conftest import DATA_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "compare.json"

KAHN = GOLDEN / "kahn_order.txt"            # plain, hierarchal
OPTIMIZED_CSV = GOLDEN / "optimized_order.csv"
ROTE = DATA_DIR / "rote_order.txt"          # plain, not hierarchal

CASES = {
    "plain": [KAHN],
    "csv": [OPTIMIZED_CSV],
    "non-hierarchal": [ROTE],
    "include-optimized": [ROTE, "--include-optimized"],
    "include-pure-frequency": [KAHN, "--include-pure-frequency"],
    "two-c0": [KAHN, ROTE, "--include-optimized", "--include-pure-frequency",
               "--c0", 12, "--c0", 40],
    "one-small-c0": [ROTE, OPTIMIZED_CSV, "--c0", 7.5],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, out: Path) -> dict:
    """Exit code and hashes of one `compare` run into the empty `out`."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["compare", *map(str, argv), "--out", str(out)])
    files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    text = stdout.getvalue().replace(str(out), "OUT")
    return {"exit": code, "stdout": _sha(text.encode("utf-8")), "files": files}


def run_all(root: Path) -> dict:
    return {name: run_case(argv, root / name) for name, argv in CASES.items()}


def test_compare_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.delenv(DATA_ENV_VAR, raising=False)
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    changed = sorted(name for name in expected.keys() | got.keys()
                     if expected.get(name) != got.get(name))
    assert changed == [], "golden entries changed: %s" % changed


if __name__ == "__main__":
    os.environ.pop(DATA_ENV_VAR, None)
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = run_all(Path(tmp))
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print("changed: %s" % name)
    sys.exit(0)
