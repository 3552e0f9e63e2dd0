"""End-to-end runs of the glyphorder command line."""

import gc
import json
import shutil

import pytest

from glyphorder import cli
from glyphorder.cli import DATA_ENV_VAR, _horizons, build_parser, main
from glyphorder.ingest import parse_order, parse_order_csv

from conftest import DATA_DIR


@pytest.fixture(autouse=True)
def isolate_env(monkeypatch):
    monkeypatch.delenv(DATA_ENV_VAR, raising=False)


def run(*argv):
    return main([str(a) for a in argv])


def test_order_writes_the_full_bundle(tmp_path, capsys):
    assert run("order", "--out", tmp_path) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"order.csv", "order.txt", "curve_c500.csv", "curve_c500.json",
                     "curve_c1500.csv", "curve_c1500.json", "summary.json"}
    out = capsys.readouterr().out
    assert out.count("wrote ") == len(names)

    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["schema_version"] == 1
    assert summary["provenance"] == "optimized"
    assert summary["mode"] == "characters"
    assert summary["gamma"] == 0.1
    assert summary["horizons"] == [500.0, 1500.0]
    assert set(summary["results"]) == {"500", "1500"}
    for r in summary["results"].values():
        assert set(r) == {"n_learned", "lambda_f", "lambda_avg"}
        assert 0.0 <= r["lambda_avg"] <= r["lambda_f"] <= 1.0

    csv_ids = parse_order_csv((tmp_path / "order.csv").read_text(encoding="utf-8"))
    txt_ids = parse_order((tmp_path / "order.txt").read_text(encoding="utf-8"))
    assert csv_ids == txt_ids
    assert summary["n_items"] == len(csv_ids)


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("order", "--out", a, "--c0", 7) == 0
    assert run("order", "--out", b, "--c0", 7) == 0
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_order_output_passes_validate(tmp_path, capsys):
    assert run("order", "--out", tmp_path) == 0
    assert run("validate", tmp_path / "order.txt") == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out


def test_custom_horizons_and_rejection(tmp_path, capsys):
    assert run("order", "--out", tmp_path, "--c0", 7, "--c0", 3) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["horizons"] == [3.0, 7.0]
    assert (tmp_path / "curve_c3.csv").exists()
    assert (tmp_path / "curve_c7.json").exists()
    assert run("order", "--out", tmp_path, "--c0", -1) == 1
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_gamma_exits_one(tmp_path, capsys, value):
    assert run("order", "--out", tmp_path, "--gamma", value) == 1
    assert "gamma must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_c0_rejected_before_reading_inputs(tmp_path, capsys, value):
    # The horizon fails first, so the missing input is never opened.
    assert run("order", "--out", tmp_path, "--c0", value,
               "--decompositions", tmp_path / "nope.tsv") == 1
    err = capsys.readouterr().err
    assert "--c0 horizons must be finite" in err
    assert "nope.tsv" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("second", ["12", "12.0000001"])
def test_horizons_that_print_alike_rejected_before_reading_inputs(tmp_path, capsys, second):
    # Both would write curve_c12.* and one summary key "12".
    assert run("order", "--out", tmp_path, "--c0", 12, "--c0", second,
               "--decompositions", tmp_path / "nope.tsv") == 1
    err = capsys.readouterr().err
    assert "share the name c12" in err
    assert "nope.tsv" not in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("order", "--out", tmp_path, "--min-reported-n", 250)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_known_primitives_dominate_default(tmp_path):
    base, known = tmp_path / "base", tmp_path / "known"
    assert run("order", "--out", base, "--c0", 10) == 0
    assert run("order", "--out", known, "--c0", 10, "--known", "all-primitives") == 0
    b = json.loads((base / "summary.json").read_text(encoding="utf-8"))["results"]["10"]
    k = json.loads((known / "summary.json").read_text(encoding="utf-8"))["results"]["10"]
    assert k["n_learned"] >= b["n_learned"]
    assert k["lambda_f"] >= b["lambda_f"]
    assert k["lambda_avg"] >= b["lambda_avg"]


def test_known_file_with_unknown_glyph_fails(tmp_path, capsys):
    bad = tmp_path / "known.txt"
    bad.write_text("口\n龘\n", encoding="utf-8")
    assert run("order", "--out", tmp_path, "--known", bad) == 1
    assert "龘" in capsys.readouterr().err


def test_data_dir_env_var(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    (data / "decompositions.tsv").write_text(
        "a\tp\t\t1\nb\tp\t\t2\nx\tc\ta b\t3\n", encoding="utf-8")
    (data / "char_freq.tsv").write_text("x\t6\na\t3\nb\t1\n", encoding="utf-8")
    monkeypatch.setenv(DATA_ENV_VAR, str(data))
    out = tmp_path / "out"
    assert run("order", "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_items"] == 3
    assert summary["coverage"] == 1.0

    # An explicit flag still wins over the environment directory.
    flat = tmp_path / "flat.tsv"
    flat.write_text("z\tp\t\t4\n", encoding="utf-8")
    out2 = tmp_path / "out2"
    assert run("order", "--out", out2, "--decompositions", flat,
               "--frequencies", data / "char_freq.tsv") == 0
    txt = (out2 / "order.txt").read_text(encoding="utf-8")
    assert txt.strip() == "z"


def test_missing_input_file_names_the_path(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    assert run("order", "--out", tmp_path, "--decompositions", missing) == 1
    assert "nope.tsv" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["order", "--decompositions"], ["order", "--frequencies"],
                                     ["order", "--known"], ["validate"], ["cluster"]])
def test_non_utf8_input_names_the_file_and_line(tmp_path, capsys, command):
    # CRLF and a lone CR each end a line, as in text-mode reading; the
    # bad byte lies far beyond the first read buffer.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a\r\nb\rc\n" + b"x\n" * 100000 + b"\xe4\xb8\n")
    out = tmp_path / "out"
    assert run(*command, bad, "--out", out) == 1
    assert capsys.readouterr().err == "error: %s: line 100004: not UTF-8\n" % bad
    assert not out.exists()


def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch):
    # A UTF-8 byte-order mark must not join the first id of a table, nor
    # hide an order CSV's header and turn it into a plain order.
    results = []
    for bom in ("", "﻿"):
        cwd = tmp_path / ("bom" if bom else "plain")
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for name in ("decompositions.tsv", "char_freq.tsv"):
            text = (DATA_DIR / name).read_text(encoding="utf-8")
            (cwd / name).write_text(bom + text, encoding="utf-8")
        code = run("order", "--out", "out", "--decompositions", "decompositions.tsv",
                   "--frequencies", "char_freq.tsv")
        files = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
        csv = cwd / "order.csv"
        csv.write_text(bom + (cwd / "out" / "order.csv").read_text(encoding="utf-8"),
                       encoding="utf-8")
        validated = run("validate", "order.csv", "--decompositions", "decompositions.tsv",
                        "--frequencies", "char_freq.tsv")
        results.append((code, files, validated, capsys.readouterr()))
    assert results[0][0] == 0 and results[0][2] == 0
    assert "violations: 0" in results[0][3].out
    assert results[1] == results[0]


def test_cycle_exits_two(tmp_path, capsys):
    bad = tmp_path / "cyclic.tsv"
    bad.write_text("a\tc\tb b\t5\nb\tc\ta a\t5\n", encoding="utf-8")
    assert run("order", "--out", tmp_path, "--decompositions", bad) == 2
    assert "cycle" in capsys.readouterr().err.lower()


def test_validate_rote_order_exits_three(capsys):
    assert run("validate", DATA_DIR / "rote_order.txt") == 3
    out = capsys.readouterr().out
    assert "violation: " in out
    assert "coverage: " in out
    violations = [l for l in out.splitlines() if l.startswith("violation: ")]
    counted = [l for l in out.splitlines() if l.startswith("violations: ")]
    assert counted == ["violations: %d" % len(violations)]


def test_main_restores_the_collector_state(tmp_path, capsys):
    unparsable = tmp_path / "unparsable.tsv"
    unparsable.write_text("a\tq\t-\t5\n", encoding="utf-8")
    cyclic = tmp_path / "cyclic.tsv"
    cyclic.write_text("a\tc\tb b\t5\nb\tc\ta a\t5\n", encoding="utf-8")
    commands = [(0, ["order", "--out", tmp_path / "out"]),
                (1, ["order", "--out", tmp_path, "--decompositions", unparsable]),
                (2, ["order", "--out", tmp_path, "--decompositions", cyclic]),
                (3, ["validate", DATA_DIR / "rote_order.txt"])]
    try:
        for code, argv in commands:
            gc.enable()
            assert run(*argv) == code
            assert gc.isenabled()
            gc.disable()
            assert run(*argv) == code
            assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("argv", [
    ["order"],
    ["words"],
    ["order", "--known", "all-primitives"],
    ["cluster"],
    ["validate", DATA_DIR / "rote_order.txt"],
    ["compare", DATA_DIR / "rote_order.txt", "--include-optimized",
     "--include-pure-frequency"],
], ids=["order", "words", "order-known", "cluster", "validate", "compare"])
def test_commands_create_no_reference_cycles(tmp_path, capsys, argv):
    # main pauses the cyclic collector while a command runs; that is free
    # only while a command leaves no cyclic garbage behind.
    if argv[0] != "validate":
        argv = argv + ["--out", tmp_path]
    # An argparse parser holds reference cycles: keep it alive so that
    # only what the command leaves behind is counted.
    parser = build_parser()
    args = parser.parse_args([str(a) for a in argv])
    args.c0 = _horizons(args.c0)
    gc.collect()
    gc.disable()
    try:
        code = args.func(args)
    finally:
        freed = gc.collect()
        gc.enable()
    assert code == (3 if argv[0] == "validate" else 0)
    assert freed == 0


def test_validate_empty_order_warns(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n", encoding="utf-8")
    assert run("validate", empty) == 0
    assert capsys.readouterr().out == ("warning: empty order\n"
                                       "coverage: 0.000000\n"
                                       "violations: 0\n")


@pytest.mark.parametrize("command", ["validate", "cluster"])
def test_order_file_with_an_unknown_glyph_is_named(tmp_path, capsys, command):
    # The same message compare prints before it skips such a file.
    order = tmp_path / "bad.txt"
    order.write_text("口\n不存在\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(command, order, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: bad: unknown glyph 不存在\n"
    assert captured.out == ""
    assert not out.exists()


def test_compare_rote_against_baselines(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert run("compare", DATA_DIR / "rote_order.txt", "--out", out,
               "--include-optimized", "--include-pure-frequency",
               "--c0", 12) == 0
    stdout = capsys.readouterr().out
    assert "rote_order: not hierarchal" in stdout

    rows = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "label,cost_mode,c0,n_learned,lambda_f,lambda_avg"
    by_key = {}
    for row in rows[1:]:
        label, mode, c0, n, lf, la = row.split(",")
        by_key[label, mode] = (int(n), float(lf), float(la))
    # A non-hierarchal order gets charge-mode scores only; the built-in
    # orders get both, and hierarchal equals charge on them.
    assert ("rote_order", "hierarchal") not in by_key
    assert by_key["optimized", "hierarchal"] == by_key["optimized", "charge-unlearned"]
    assert by_key["optimized", "hierarchal"][2] >= by_key["rote_order", "charge-unlearned"][2]

    names = {p.name for p in out.iterdir()}
    assert {"rote_order_charge_curve.csv", "rote_order_cluster.csv",
            "optimized_hier_curve.csv", "optimized_charge_curve.csv",
            "optimized_cluster.csv", "pure-frequency_charge_curve.json",
            "comparison.csv"} <= names
    assert "rote_order_hier_curve.csv" not in names


def test_hierarchal_order_reuses_its_curve_for_charge_mode(tmp_path):
    # Charging unlearned members adds nothing to a hierarchal order, so
    # its charge files are its hierarchal ones; a rote order gets its own.
    out = tmp_path / "cmp"
    assert run("compare", DATA_DIR / "rote_order.txt", "--include-optimized",
               "--out", out, "--c0", 12) == 0
    for suffix in ("csv", "json"):
        hier = (out / ("optimized_hier_curve." + suffix)).read_bytes()
        assert (out / ("optimized_charge_curve." + suffix)).read_bytes() == hier
    assert not (out / "rote_order_hier_curve.csv").exists()
    rote = (out / "rote_order_charge_curve.csv").read_text(encoding="utf-8")
    optimized = (out / "optimized_charge_curve.csv").read_text(encoding="utf-8")
    assert rote != optimized and len(rote.splitlines()) > 1


def test_compare_skips_bad_files_but_continues(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert run("compare", tmp_path / "absent.txt", DATA_DIR / "rote_order.txt",
               "--out", out, "--c0", 12) == 0
    captured = capsys.readouterr()
    assert "absent.txt" in captured.err
    assert (out / "rote_order_charge_curve.csv").exists()


def test_compare_skips_duplicate_labels(tmp_path, capsys):
    rote = (DATA_DIR / "rote_order.txt").read_text(encoding="utf-8")
    for sub, text in (("a", rote), ("b", "口\n")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.txt").write_text(text, encoding="utf-8")
    (tmp_path / "a" / "optimized.txt").write_text("口\n", encoding="utf-8")
    first, later, optimized = (tmp_path / "a" / "x.txt", tmp_path / "b" / "x.txt",
                               tmp_path / "a" / "optimized.txt")
    out, solo = tmp_path / "cmp", tmp_path / "solo"
    assert run("compare", first, later, optimized, "--include-optimized",
               "--c0", 12, "--out", out) == 0
    err = capsys.readouterr().err
    assert "error: duplicate label x: %s skipped" % later in err
    assert "error: duplicate label optimized: --include-optimized skipped" in err
    # The later order and the built-in optimized order leave no trace.
    assert run("compare", first, optimized, "--c0", 12, "--out", solo) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in solo.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (solo / name).read_bytes()


def test_compare_reads_the_target_list_only_for_a_built_in_order(tmp_path, capsys):
    absent = tmp_path / "absent.txt"
    assert run("compare", DATA_DIR / "rote_order.txt", "--target", absent,
               "--c0", 12, "--out", tmp_path / "cmp") == 0
    assert capsys.readouterr().err == ""
    for flag in ("--include-optimized", "--include-pure-frequency"):
        assert run("compare", DATA_DIR / "rote_order.txt", "--target", absent, flag,
                   "--c0", 12, "--out", tmp_path / flag) == 1
        assert "cannot read %s" % absent in capsys.readouterr().err
        assert not (tmp_path / flag).exists()


def test_compare_with_nothing_usable_fails(tmp_path, capsys):
    assert run("compare", tmp_path / "absent.txt", "--out", tmp_path) == 1
    assert "no usable orders" in capsys.readouterr().err


def test_compare_with_only_unknown_glyphs_writes_nothing(tmp_path, capsys):
    order = tmp_path / "bad.txt"
    order.write_text("口\n不存在\n", encoding="utf-8")
    out = tmp_path / "cmp"
    assert run("compare", order, "--out", out) == 1
    assert capsys.readouterr().err == ("error: bad: unknown glyph 不存在\n"
                                       "error: no usable orders\n")
    assert not out.exists()


def test_compare_order_with_an_unknown_glyph_takes_no_label(tmp_path, capsys):
    # The skipped file leaves its label to a later file of the same name.
    for sub, text in (("a", "不存在\n"), ("b", "口\n")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.txt").write_text(text, encoding="utf-8")
    out = tmp_path / "cmp"
    assert run("compare", tmp_path / "a" / "x.txt", tmp_path / "b" / "x.txt",
               "--c0", 12, "--out", out) == 0
    assert capsys.readouterr().err == "error: x: unknown glyph 不存在\n"
    rows = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["x", "hierarchal"],
                                                        ["x", "charge-unlearned"]]


def _order_of(tmp_path, decompositions, frequencies, *flags):
    """Run `order` on these inputs; the output directory."""
    (tmp_path / "d.tsv").write_text(decompositions, encoding="utf-8")
    (tmp_path / "f.tsv").write_text(frequencies, encoding="utf-8")
    out = tmp_path / "out"
    assert run("order", "--decompositions", tmp_path / "d.tsv",
               "--frequencies", tmp_path / "f.tsv", *flags, "--out", out) == 0
    return out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the budget test adds costs in floats, and "
                          "1.1 + 1.1 + 1.1 exceeds a horizon of 3.3")
def test_a_horizon_equal_to_an_exact_prefix_cost_learns_that_prefix(tmp_path):
    # Three 1-stroke primitives cost 1.1 each at the default gamma.
    out = _order_of(tmp_path, "A\tp\t-\t1\nB\tp\t-\t1\nC\tp\t-\t1\n",
                    "A\t1\nB\t1\nC\t1\n", "--c0", 3.3)
    assert json.loads((out / "curve_c3.3.json").read_text(encoding="utf-8"))["n_learned"] == 3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: the ranking compares float etas, and A's "
                          "0.3 / 1.5 rounds below X's 0.2 / 1.0")
def test_an_exact_eta_tie_is_broken_by_frequency(tmp_path):
    # A (cost 1.5, share 0.3) and X (cost 1.0, share 0.2) both have eta
    # 0.2 exactly, so the higher frequency puts A first; X then pulls P
    # and Q ahead of itself.
    out = _order_of(tmp_path, "A\tp\t-\t5\nP\tp\t-\t9\nQ\tp\t-\t9\nX\tc\tP Q\t0\n",
                    "A\t3\nX\t2\nP\t3\nQ\t2\n")
    assert parse_order((out / "order.txt").read_text(encoding="utf-8")) == ["A", "P", "Q", "X"]


def test_cluster_default_and_explicit(tmp_path):
    assert run("cluster", "--out", tmp_path) == 0
    text = (tmp_path / "optimized_cluster.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "n,avg_d1,avg_d2"
    assert lines[1].startswith("1,")

    assert run("cluster", DATA_DIR / "rote_order.txt", "--out", tmp_path,
               "--max-n", 5) == 0
    rote = (tmp_path / "rote_order_cluster.csv").read_text(encoding="utf-8")
    assert len(rote.splitlines()) == 6


@pytest.mark.parametrize("value", [0, -3])
def test_cluster_max_n_below_one_rejected_before_reading_inputs(tmp_path, capsys, value):
    # A header-only table would report nothing, so the value is an error.
    assert run("cluster", "--out", tmp_path, "--max-n", value,
               "--decompositions", tmp_path / "nope.tsv") == 1
    err = capsys.readouterr().err
    assert err == "error: --max-n must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["order", "words", "compare", "validate", "cluster"])
def test_top_k_below_one_rejected_before_reading_inputs(tmp_path, capsys, command):
    # `order` used to ignore the value, and `words` rejected it only after
    # the decompositions were parsed.
    argv = [command, "order.txt"] if command == "validate" else [command]
    assert run(*argv, "--out", tmp_path, "--top-k", 0,
               "--decompositions", tmp_path / "nope.tsv") == 1
    err = capsys.readouterr().err
    assert err == "error: --top-k must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


def test_words_pipeline(tmp_path):
    assert run("words", "--out", tmp_path, "--c0", 15) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"words_order.csv", "words_order.txt", "words_curve_c15.csv",
                     "words_curve_c15.json", "words_summary.json", "dropped_words.txt"}
    summary = json.loads((tmp_path / "words_summary.json").read_text(encoding="utf-8"))
    assert summary["mode"] == "words"
    assert summary["top_k"] == 10000
    dropped = (tmp_path / "dropped_words.txt").read_text(encoding="utf-8")
    assert summary["n_dropped_words"] == len(dropped.splitlines())
    assert "什么" in dropped
    ids = parse_order((tmp_path / "words_order.txt").read_text(encoding="utf-8"))
    assert "知道" in ids
    assert ids.index("知") < ids.index("知道")
    assert "什么" not in ids


def test_order_words_mode_matches_words_command(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("知道\n好\n不存在\n", encoding="utf-8")
    flags = ("--c0", 15, "--c0", 4, "--top-k", 40, "--target", target)
    order, words = tmp_path / "order", tmp_path / "words"
    assert run("order", "--mode", "words", "--out", order, *flags) == 0
    assert run("words", "--out", words, *flags) == 0
    for name in ("order.csv", "order.txt", "curve_c4.csv", "curve_c4.json",
                 "curve_c15.csv", "curve_c15.json"):
        assert (order / name).read_bytes() == (words / ("words_" + name)).read_bytes()
    summary = json.loads((order / "summary.json").read_text(encoding="utf-8"))
    report = (words / "dropped_words.txt").read_text(encoding="utf-8")
    assert summary["dropped_words"]
    assert summary["dropped_words"] == [line.split("\t") for line in report.splitlines()]


def test_words_top_k_restricts_expansion(tmp_path):
    assert run("words", "--out", tmp_path, "--top-k", 1, "--c0", 15) == 0
    ids = parse_order((tmp_path / "words_order.txt").read_text(encoding="utf-8"))
    assert all(len(g) == 1 for g in ids)


def test_order_with_target_list(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("的\n好\n不存在\n", encoding="utf-8")
    assert run("order", "--out", tmp_path, "--target", target) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["missing_targets"] == ["不存在"]
    ids = parse_order((tmp_path / "order.txt").read_text(encoding="utf-8"))
    assert set(ids) == {"的", "白", "勺", "好", "女", "子"}


@pytest.mark.parametrize("command", ["order", "words", "cluster"])
def test_a_targeted_run_prices_only_its_pool(tmp_path, monkeypatch, command):
    # A targeted run builds its one table over the pool it orders, and an
    # untargeted run over every node of the network.
    tables, pools = [], []
    real_centralities, real_sort = cli.centralities, cli.priority_topo_sort

    def centralities(*args, **kwargs):
        table = real_centralities(*args, **kwargs)
        tables.append(set(table.entries))
        return table

    def priority_topo_sort(net, table, select):
        pools.append((set(select), set(net.ids())))
        return real_sort(net, table, select)

    monkeypatch.setattr(cli, "centralities", centralities)
    monkeypatch.setattr(cli, "priority_topo_sort", priority_topo_sort)
    assert run(command, "--target", DATA_DIR / "target_basic.txt", "--out", tmp_path / "t") == 0
    assert run(command, "--out", tmp_path / "w") == 0
    (pool, network), (whole, _) = pools
    assert whole == network and len(pool) < len(network)
    assert tables == [pool, whole]
