"""Golden outputs: CLI runs on the bundled corpus, checked byte for byte.

`golden/manifest.json` holds, for each case below, the exit code and the
sha256 of stdout and stderr (with the output directory written as OUT
and the golden directory as GOLDEN) and of every file the command
writes. A change that alters any of them on purpose rewrites the
manifest and names the changed entries:

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
MANIFEST = GOLDEN / "manifest.json"

KAHN = GOLDEN / "kahn_order.txt"            # plain, hierarchal
KNOWN_VARIANTS = GOLDEN / "known_variants.txt"  # ranks positive glyphs across a zero-cost head
OPTIMIZED_CSV = GOLDEN / "optimized_order.csv"
ROTE = DATA_DIR / "rote_order.txt"          # plain, not hierarchal
TARGET = DATA_DIR / "target_basic.txt"
TARGET_REPEATED = GOLDEN / "target_repeated.txt"  # names 好 twice: rejected when read
UNKNOWN = GOLDEN / "unknown_glyph.txt"      # names 不存在, which no network holds
EMPTY = GOLDEN / "empty_order.txt"          # a comment line and no glyph
NOT_UTF8 = GOLDEN / "not_utf8.txt"          # the bytes ff fe 0a: not UTF-8

CASES = {
    "plain": ["compare", KAHN],
    "csv": ["compare", OPTIMIZED_CSV],
    "non-hierarchal": ["compare", ROTE],
    "include-optimized": ["compare", ROTE, "--include-optimized"],
    "include-pure-frequency": ["compare", KAHN, "--include-pure-frequency"],
    "two-c0": ["compare", KAHN, ROTE, "--include-optimized", "--include-pure-frequency",
               "--c0", 12, "--c0", 40],
    "one-small-c0": ["compare", ROTE, OPTIMIZED_CSV, "--c0", 7.5],
    "compare-unknown-only": ["compare", UNKNOWN],
    "compare-unknown-and-rote": ["compare", UNKNOWN, ROTE],
    # The target list limits only the built-in orders.
    "compare-unused-target": ["compare", KAHN, "--target", TARGET_REPEATED],
    "compare-used-target": ["compare", KAHN, "--target", TARGET_REPEATED, "--include-optimized"],
    "order": ["order"],
    "order-known-primitives": ["order", "--known", "all-primitives"],
    "order-known-variants": ["order", "--known", KNOWN_VARIANTS],
    "order-gamma": ["order", "--gamma", 0.25],
    "order-target": ["order", "--target", TARGET],
    "order-target-known-primitives": ["order", "--target", TARGET, "--known", "all-primitives"],
    "order-target-gamma": ["order", "--target", TARGET, "--gamma", 0.25],
    # The gamma check runs before the target list is read.
    "error-gamma-before-target": ["order", "--gamma", -1, "--target", TARGET_REPEATED],
    "words": ["words"],
    "words-target": ["words", "--target", TARGET],
    "words-known-variants": ["words", "--known", KNOWN_VARIANTS],
    "order-words": ["order", "--mode", "words"],
    "cluster": ["cluster"],
    "cluster-max-n": ["cluster", "--max-n", 5],
    "cluster-target": ["cluster", "--target", TARGET],
    "error-cluster-max-n-zero": ["cluster", "--max-n", 0],
    "order-top-k-zero": ["order", "--top-k", 0],
    "words-top-k-zero": ["words", "--top-k", 0],
    "validate-hierarchal": ["validate", KAHN],
    "validate-rote": ["validate", ROTE],
    "error-validate-gamma": ["validate", KAHN, "--gamma", -1],
    "validate-empty": ["validate", EMPTY],
    "validate-unknown": ["validate", UNKNOWN],
    "cluster-unknown": ["cluster", UNKNOWN],
    "compare-not-utf8": ["compare", NOT_UTF8, KAHN],
    "validate-not-utf8": ["validate", NOT_UTF8],
    "compare-words-built-in": ["compare", "--mode", "words", "--include-optimized",
                               "--include-pure-frequency"],
    "cluster-words": ["cluster", "--mode", "words"],
    "validate-words": ["validate", "--mode", "words", KAHN],
    # An empty path names a file like any other path; it is not "not given".
    "order-empty-decompositions": ["order", "--decompositions", ""],
    "order-empty-frequencies": ["order", "--frequencies", ""],
    "order-empty-known": ["order", "--known", ""],
    "order-empty-target": ["order", "--target", ""],
    "words-empty-word-frequencies": ["words", "--word-frequencies", ""],
    "compare-empty-target": ["compare", "--include-optimized", "--target", ""],
    "compare-empty-unused-target": ["compare", KAHN, "--target", ""],
    "cluster-empty-order": ["cluster", ""],
}

# One error per ingest check: the bundled file with one line replaced
# (or, with an empty old line, one line appended), run through `order`.
# A decompositions file cannot declare a word: the `w` record that a
# compound names fails parsing as an unknown kind, so no file input
# reaches the word-as-component check.
BROKEN = {
    "error-field-count": ("decompositions.tsv", "口\tp\t-\t3\n", "口\tp\t3\n"),
    "error-unknown-kind": ("decompositions.tsv", "日\tp\t-\t4\n", "日\tq\t-\t4\n"),
    "error-bad-strokes": ("decompositions.tsv", "日\tp\t-\t4\n", "日\tp\t-\t+4\n"),
    "error-whitespace-id": ("decompositions.tsv", "日\tp\t-\t4\n", "日 \tp\t-\t4\n"),
    "error-duplicate-id": ("decompositions.tsv", "日\tp\t-\t4\n", "口\tp\t-\t4\n"),
    "error-dangling-component": ("decompositions.tsv", "品\tc\t口 口 口\t9\n",
                                 "品\tc\t口 口 吅\t9\n"),
    "error-word-kind-in-decompositions": ("decompositions.tsv", "",
                                          "明白\tw\t明 白\t0\n明白白\tc\t明白 白\t13\n"),
    "error-zero-count": ("char_freq.tsv", "的\t9000\n", "的\t0\n"),
    "error-cycle": ("decompositions.tsv", "口\tp\t-\t3\n", "口\tc\t品 日\t3\n"),
    "error-negative-strokes": ("decompositions.tsv", "日\tp\t-\t4\n", "日\tp\t-\t-4\n"),
    # Accepted: "-0" reads as 0 strokes, so 日 costs exactly 1.
    "strokes-minus-zero": ("decompositions.tsv", "日\tp\t-\t4\n", "日\tp\t-\t-0\n"),
    "error-empty-id": ("decompositions.tsv", "日\tp\t-\t4\n", "\tp\t-\t4\n"),
    "error-dash-id": ("decompositions.tsv", "日\tp\t-\t4\n", "-\tp\t-\t4\n"),
    "error-comma-id": ("decompositions.tsv", "日\tp\t-\t4\n", "日,月\tp\t-\t4\n"),
    "error-primitive-with-components": ("decompositions.tsv", "日\tp\t-\t4\n",
                                        "日\tp\t口\t4\n"),
    "error-variant-no-component": ("decompositions.tsv", "灬\tv\t火\t4\n", "灬\tv\t-\t4\n"),
    "error-compound-one-component": ("decompositions.tsv", "召\tc\t刀 口\t5\n",
                                     "召\tc\t刀\t5\n"),
    "error-freq-field-count": ("char_freq.tsv", "是\t3000\n", "是\t3000\t1\n"),
    "error-whitespace-token": ("char_freq.tsv", "是\t3000\n", "是 不\t3000\n"),
    "error-repeated-token": ("char_freq.tsv", "是\t3000\n", "的\t3000\n"),
    "error-fractional-count": ("char_freq.tsv", "是\t3000\n", "是\t3.5\n"),
}
_FLAGS = {"decompositions.tsv": "--decompositions", "char_freq.tsv": "--frequencies"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, out: Path) -> dict:
    """Exit code and hashes of one CLI run into the empty `out`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*map(str, argv), "--out", str(out)])
    files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())} if out.exists() else {}

    def digest(stream: io.StringIO) -> str:
        text = stream.getvalue().replace(str(out), "OUT").replace(str(GOLDEN), "GOLDEN")
        return _sha(text.encode("utf-8"))

    return {"exit": code, "stdout": digest(stdout), "stderr": digest(stderr), "files": files}


def broken_input(root: Path, name: str, old: str, new: str) -> list:
    """The flag and path of a copy of the bundled `name` with `old`
    replaced by `new`, or `new` appended when `old` is empty."""
    text = (DATA_DIR / name).read_text(encoding="utf-8")
    assert not old or text.count(old) == 1, old
    path = root / name
    root.mkdir(parents=True)
    path.write_text(text.replace(old, new) if old else text + new, encoding="utf-8")
    return ["order", _FLAGS[name], path]


def run_all(root: Path) -> dict:
    results = {name: run_case(argv, root / name) for name, argv in CASES.items()}
    for name, edit in BROKEN.items():
        argv = broken_input(root / "inputs" / name, *edit)
        results[name] = run_case(argv, root / name)
    return results


def test_cli_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
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
