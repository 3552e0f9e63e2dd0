"""Command-line pipeline: ingest, cost, order, score, export.

Subcommands:

  order     optimize a learning order and write order/curve/summary files
  compare   score one or more fixed order files side by side
  validate  check an order file for hierarchy violations
  cluster   distance-to-component statistics for an order
  words     word-network pipeline: expand, order, report dropped words

Inputs default to the bundled mini corpus; the GLYPHORDER_DATA
environment variable names a directory searched before the bundled
files. Every output is a deterministic function of the inputs: rerunning
a command reproduces its files byte for byte.

Exit codes: 0 success, 1 parse or validation failure, 2 decomposition
cycle or command-line usage error (from argparse), 3 hierarchy
violations found by `validate`.

Each command runs with the cyclic garbage collector paused, and `main`
restores the collector's state afterwards. No command creates reference
cycles, so the paused passes would free nothing; a test checks this.
Concurrent `main` calls in threads can only turn collection back on
early, which costs speed, never correctness.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from .costmodel import DEFAULT_GAMMA, CostParams, centralities
from .ingest import (ParseError, parse_decompositions, parse_frequencies, parse_order,
                     parse_order_file, parse_target_list, serialize_order)
from .metrics import (DEFAULT_HORIZONS, CostMode, MissingCost, NotTopological, _summary,
                      cluster_stats, curve, curve_summary_json, serialize_cluster_csv,
                      serialize_curve_csv, truncate)
from .network import CycleDetected, NetworkError, UnknownId, build_network
from .ordering import (external_order, priority_topo_sort, pure_frequency_order,
                       serialize_order_csv, target_pool, validate_topological)
from .words import DEFAULT_TOP_K, WordNetworkConfig, expand_with_words

SCHEMA_VERSION = 1
DATA_ENV_VAR = "GLYPHORDER_DATA"


def _read_input(path: str | None, bundled: str = "") -> str:
    """Read the UTF-8 file at `path`. An input with a `bundled` default
    falls back, when no path is given, to that file in $GLYPHORDER_DATA,
    else in the bundled corpus. A file that is not UTF-8 raises
    ParseError naming it and the line of its first bad byte."""
    env_dir = os.environ.get(DATA_ENV_VAR)
    if path is not None or not bundled:
        source = Path(path)
    elif env_dir and (Path(env_dir) / bundled).exists():
        source = Path(env_dir) / bundled
    else:
        source = resources.files("glyphorder").joinpath("data/" + bundled)
    try:
        return source.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError("cannot read %s: %s" % (source, exc)) from exc
    except UnicodeDecodeError as exc:
        # Text mode decodes the whole file in one call, so `exc.object`
        # holds all of its bytes. CRLF and a lone CR each end a line.
        head = exc.object[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError("%s: line %d: not UTF-8" % (source, head.count(b"\n") + 1)) from None


def _horizons(c0: list[float] | None) -> tuple[float, ...]:
    """The --c0 horizons, sorted; the defaults when none are given.
    Horizons name their files and summary keys by their "%g" form, so
    two that print alike are rejected."""
    horizons = c0 or DEFAULT_HORIZONS
    if any(h <= 0 for h in horizons):
        raise ValueError("all --c0 horizons must be positive")
    if not all(math.isfinite(h) for h in horizons):
        raise ValueError("all --c0 horizons must be finite")
    horizons = tuple(sorted(horizons))
    # Rounding to "%g" is monotone, so horizons that print alike are adjacent.
    for low, high in zip(horizons, horizons[1:]):
        if "%g" % low == "%g" % high:
            raise ValueError("--c0 horizons %r and %r share the name c%g" % (low, high, low))
    return horizons


def _load_pipeline(args):
    """Network, frequency table, cost parameters and word drop report.

    Each command builds the centrality table it reads from the
    parameters: a targeted run prices only its pool, and a whole-network
    run or one reading arbitrary orders prices every node.
    """
    net = build_network(parse_decompositions(_read_input(args.decompositions, "decompositions.tsv")))
    dropped: list[tuple[str, str]] = []
    if args.mode == "words":
        word_freq = parse_frequencies(_read_input(args.word_frequencies, "word_freq.tsv"))
        net, freq, dropped = expand_with_words(net, word_freq, WordNetworkConfig(top_k=args.top_k))
    else:
        freq = parse_frequencies(_read_input(args.frequencies, "char_freq.tsv"))

    known: frozenset[str] = frozenset()
    if args.known == "all-primitives":
        known = frozenset(n.id for n in net.nodes() if n.kind.is_primitive)
    elif args.known is not None:
        known = frozenset(parse_order(_read_input(args.known)))
        for glyph in sorted(known):
            if glyph not in net:
                raise ValueError("known-set glyph %s is not in the network" % glyph)

    return net, freq, CostParams(gamma=args.gamma, known=known), dropped


def _read_order(path: str, net) -> list[str]:
    """The ids of the order file at `path`; the first glyph the network
    lacks raises UnknownId naming the file's stem as its label."""
    ids = parse_order_file(_read_input(path))
    unknown = next((glyph for glyph in ids if glyph not in net), None)
    if unknown is not None:
        raise UnknownId("%s: unknown glyph %s" % (Path(path).stem, unknown))
    return ids


def _selection(net, args) -> tuple[set[str], list[str]]:
    """The --target pool (else the whole network) and missing targets."""
    if args.target is None:
        return set(net.ids()), []
    return target_pool(net, parse_target_list(_read_input(args.target)))


def _optimized(args, net, freq, params):
    """The optimized order of the --target pool (else the whole network)
    and the missing targets; a targeted run prices only its pool."""
    pool, missing = _selection(net, args)
    table = centralities(net, freq, params, None if args.target is None else pool)
    return priority_topo_sort(net, table, pool), missing


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print("wrote %s" % path)


def _horizon_curves(net, order, horizons, mode=CostMode.HIERARCHAL, cost_lookup=None):
    """The curve at each horizon, each cut from one curve at the widest;
    consumption is a prefix property, so truncation is exact."""
    widest = curve(net, order, max(horizons), mode, cost_lookup)
    return {h: truncate(widest, h) for h in horizons}


def cmd_order(args) -> int:
    """`order`, and `words`: the same run with `words_` file names, a
    dropped-words report and its count in place of the dropped list."""
    net, freq, params, dropped = _load_pipeline(args)
    order, missing_targets = _optimized(args, net, freq, params)

    prefix = "words_" if args.command == "words" else ""
    out = Path(args.out)
    _write(out / (prefix + "order.csv"), serialize_order_csv(net, order))
    _write(out / (prefix + "order.txt"), serialize_order(order.ids()))
    curves = _horizon_curves(net, order, args.c0)
    for h, cv in curves.items():
        _write(out / ("%scurve_c%g.csv" % (prefix, h)), serialize_curve_csv(cv))
        _write(out / ("%scurve_c%g.json" % (prefix, h)), curve_summary_json(cv))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "provenance": order.provenance.value,
        "mode": args.mode,
        "gamma": args.gamma,
        "n_items": len(order),
        "coverage": round(sum(item.freq for item in order), 12),
        "horizons": list(args.c0),
        "results": {"%g" % h: _summary(cv) for h, cv in curves.items()},
    }
    if args.mode == "words":
        summary["top_k"] = args.top_k
    if prefix:
        _write(out / "dropped_words.txt", "".join("%s\t%s\n" % pair for pair in dropped))
        summary["n_dropped_words"] = len(dropped)
    elif args.mode == "words":
        summary["dropped_words"] = [list(pair) for pair in dropped]
    if missing_targets:
        summary["missing_targets"] = missing_targets
    _write(out / (prefix + "summary.json"),
           json.dumps(summary, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


def cmd_compare(args) -> int:
    net, freq, params, dropped = _load_pipeline(args)
    # The target list limits only the built-in orders, so it is read only for them.
    built_in = args.include_optimized or args.include_pure_frequency
    pool = _selection(net, args)[0] if built_in else set()
    # The whole table: an order file may name any glyph, and charge mode
    # reads the costs of members outside the order.
    table = centralities(net, freq, params)
    cost_lookup = {glyph: c for glyph, (f, c, eta) in table.entries.items()}

    # Labels name the output files and comparison rows, so a repeated label
    # skips its order, as an unreadable file or an unknown glyph does.
    candidates: dict[str, list[str]] = {}

    def fresh(label: str, source: str) -> bool:
        if label in candidates:
            print("error: duplicate label %s: %s skipped" % (label, source), file=sys.stderr)
            return False
        return True

    for path in args.orders:
        label = Path(path).stem
        if fresh(label, path):
            try:
                candidates[label] = _read_order(path, net)
            except (ParseError, OSError, UnknownId) as exc:
                print("error: %s" % exc, file=sys.stderr)
    if args.include_optimized and fresh("optimized", "--include-optimized"):
        candidates["optimized"] = priority_topo_sort(net, table, pool).ids()
    if args.include_pure_frequency and fresh("pure-frequency", "--include-pure-frequency"):
        candidates["pure-frequency"] = pure_frequency_order(table, pool).ids()
    if not candidates:
        print("error: no usable orders", file=sys.stderr)
        return 1

    rows = ["label,cost_mode,c0,n_learned,lambda_f,lambda_avg"]
    out = Path(args.out)
    for label, ids in candidates.items():
        order = external_order(table, ids)
        try:
            hier = _horizon_curves(net, order, args.c0)
        except NotTopological as exc:
            print("%s: not hierarchal (%d violations); hierarchal metrics skipped"
                  % (label, len(exc.violations)))
            hier = None
        # A hierarchal order learns every closure member before its
        # container, so charging unlearned members adds nothing to it.
        # Every tag written thus holds the same curves: serialize once.
        charge = hier if hier is not None else _horizon_curves(
            net, order, args.c0, CostMode.CHARGE_UNLEARNED, cost_lookup)
        widest = charge[max(charge)]
        curve_csv, curve_json = serialize_curve_csv(widest), curve_summary_json(widest)
        for mode, tag, curves in ((CostMode.HIERARCHAL, "hier", hier),
                                  (CostMode.CHARGE_UNLEARNED, "charge", charge)):
            if curves is None:
                continue
            for h, cv in curves.items():
                # Rows format the rounded numbers, as summary.json holds them.
                r = _summary(cv)
                rows.append("%s,%s,%g,%d,%.3f,%.3f" % (
                    label, mode.value, h, r["n_learned"], r["lambda_f"], r["lambda_avg"]))
            _write(out / ("%s_%s_curve.csv" % (label, tag)), curve_csv)
            _write(out / ("%s_%s_curve.json" % (label, tag)), curve_json)
        _write(out / ("%s_cluster.csv" % label), serialize_cluster_csv(cluster_stats(net, order)))
    _write(out / "comparison.csv", "\n".join(rows) + "\n")
    return 0


def cmd_validate(args) -> int:
    # No centralities are read, but --gamma and --known are still checked.
    net, freq, _, _ = _load_pipeline(args)
    ids = _read_order(args.order, net)
    if not ids:
        print("warning: empty order")
    violations = validate_topological(net, ids)
    coverage = sum(freq.get(glyph) for glyph in ids)
    for v in violations:
        what = "missing" if v.missing else "later"
        print("violation: %s needs %s (%s)" % (v.compound, v.component, what))
    print("coverage: %.6f" % coverage)
    print("violations: %d" % len(violations))
    return 3 if violations else 0


def cmd_cluster(args) -> int:
    net, freq, params, dropped = _load_pipeline(args)
    if args.order is not None:
        # The whole table: the order file may name any glyph.
        order = external_order(centralities(net, freq, params), _read_order(args.order, net))
        label = Path(args.order).stem
    else:
        order, _ = _optimized(args, net, freq, params)
        label = "optimized"
    stats = cluster_stats(net, order, max_n=args.max_n)
    _write(Path(args.out) / ("%s_cluster.csv" % label), serialize_cluster_csv(stats))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--decompositions", help="decomposition network TSV")
    parser.add_argument("--frequencies", help="character frequency TSV")
    parser.add_argument("--word-frequencies", help="word frequency TSV")
    parser.add_argument("--gamma", type=float, default=DEFAULT_GAMMA,
                        help="per-stroke cost surcharge")
    parser.add_argument("--c0", type=float, action="append",
                        help="evaluation horizon, repeatable (default 500 and 1500)")
    parser.add_argument("--top-k", type=int, default=DEFAULT_TOP_K,
                        help="word frequency rank cutoff (words mode)")
    parser.add_argument("--known", help="path to already-known glyphs, or 'all-primitives'")
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glyphorder",
        description="Optimize and score hierarchal learning orders for glyph networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="optimize a learning order")
    _add_common(p)
    p.add_argument("--mode", choices=("characters", "words"), default="characters")
    p.add_argument("--target", help="target list file; defaults to the whole network")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("compare", help="score fixed order files side by side")
    _add_common(p)
    p.add_argument("orders", nargs="*", help="order files (plain or order CSV)")
    p.add_argument("--mode", choices=("characters", "words"), default="characters")
    p.add_argument("--target", help="target list limiting the built-in orders")
    p.add_argument("--include-optimized", action="store_true",
                   help="add this package's optimized order to the comparison")
    p.add_argument("--include-pure-frequency", action="store_true",
                   help="add the pure frequency baseline to the comparison")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="check an order file for hierarchy violations")
    _add_common(p)
    p.add_argument("order", help="order file (plain or order CSV)")
    p.add_argument("--mode", choices=("characters", "words"), default="characters")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cluster", help="distance-to-component statistics")
    _add_common(p)
    p.add_argument("order", nargs="?", help="order file; defaults to the optimized order")
    p.add_argument("--mode", choices=("characters", "words"), default="characters")
    p.add_argument("--target", help="target list limiting the default order")
    p.add_argument("--max-n", type=int, help="largest prefix length reported")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("words", help="word-network pipeline")
    _add_common(p)
    p.add_argument("--target", help="target word list file")
    p.set_defaults(func=cmd_order, mode="words")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Horizons, --top-k and --max-n are checked before any input file is read.
        args.c0 = _horizons(args.c0)
        if args.top_k < 1:
            raise ValueError("--top-k must be at least 1")
        if getattr(args, "max_n", None) is not None and args.max_n < 1:
            raise ValueError("--max-n must be at least 1")
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return args.func(args)
        finally:
            if was_enabled:
                gc.enable()
    except CycleDetected as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ParseError, NetworkError, NotTopological, MissingCost, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
