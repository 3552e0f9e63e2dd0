"""Metamorphic relations: inputs that mean the same give the same outputs.

Each relation runs the command line on a seeded `perfbench/synth.py`
language of a few hundred glyphs, once as generated and once rewritten in
a way that leaves its meaning unchanged, and compares the written files
byte for byte. No oracle is needed: the program is checked against
itself.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from glyphorder.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import synth  # noqa: E402  (plain Python, no glyphorder import)

HORIZONS = ["--c0", "60.37", "--c0", "400.37"]
SEEDS = range(4)


def _language(seed: int) -> synth.Language:
    return synth.language(random.Random(seed), 600)


def _write_inputs(root: Path, decompositions: str, counts: str) -> list[str]:
    root.mkdir(parents=True)
    (root / "decompositions.tsv").write_text(decompositions, encoding="utf-8")
    (root / "char_freq.tsv").write_text(counts, encoding="utf-8")
    return ["--decompositions", str(root / "decompositions.tsv"),
            "--frequencies", str(root / "char_freq.tsv")]


def _run(argv: list[str], out: Path) -> dict[str, bytes]:
    """Every file one command writes into `out`, by name."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, *HORIZONS, "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _shuffled(rng: random.Random, text: str) -> str:
    lines = text.splitlines(keepends=True)
    rng.shuffle(lines)
    return "".join(lines)


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffled_lines_give_the_same_bytes(tmp_path, seed):
    lang = _language(seed)
    rng = random.Random(seed)
    plain = _write_inputs(tmp_path / "plain", lang.decompositions_tsv(),
                          synth.counts_tsv(lang.char_counts))
    shuffled = _write_inputs(tmp_path / "shuffled", _shuffled(rng, lang.decompositions_tsv()),
                             _shuffled(rng, synth.counts_tsv(lang.char_counts)))
    assert (_run(["order", *shuffled], tmp_path / "b")
            == _run(["order", *plain], tmp_path / "a"))


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_counts_give_the_same_bytes(tmp_path, seed):
    lang = _language(seed)
    runs = []
    for factor in (1, 2, 7):
        counts = {token: factor * n for token, n in lang.char_counts.items()}
        flags = _write_inputs(tmp_path / str(factor), lang.decompositions_tsv(),
                              synth.counts_tsv(counts))
        runs.append(_run(["order", *flags], tmp_path / ("out%d" % factor)))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_targeting_every_glyph_gives_the_plain_run(tmp_path, seed):
    lang = _language(seed)
    flags = _write_inputs(tmp_path / "in", lang.decompositions_tsv(),
                          synth.counts_tsv(lang.char_counts))
    target = tmp_path / "in" / "target.txt"
    target.write_text(synth.lines(g.id for g in lang.glyphs), encoding="utf-8")
    assert (_run(["order", *flags, "--target", str(target)], tmp_path / "b")
            == _run(["order", *flags], tmp_path / "a"))


@pytest.mark.parametrize("seed", SEEDS)
def test_compare_reproduces_the_widest_order_curve(tmp_path, seed):
    lang = _language(seed)
    flags = _write_inputs(tmp_path / "in", lang.decompositions_tsv(),
                          synth.counts_tsv(lang.char_counts))
    ordered = _run(["order", *flags], tmp_path / "order")
    compared = _run(["compare", *flags, str(tmp_path / "order" / "order.txt")],
                    tmp_path / "compare")
    widest = "curve_c400.37"
    assert compared["order_hier_curve.csv"] == ordered[widest + ".csv"]
    assert compared["order_hier_curve.json"] == ordered[widest + ".json"]
