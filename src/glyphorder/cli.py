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
cycle, 3 hierarchy violations found by `validate`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .costmodel import CostParams, centralities
from .ingest import (ParseError, parse_decompositions, parse_frequencies,
                     parse_order, parse_order_csv, parse_target_list, serialize_order)
from .metrics import (DEFAULT_HORIZONS, CostMode, MissingCost, NotTopological, at_horizon,
                      cluster_stats, curve, curve_summary_json, serialize_cluster_csv,
                      serialize_curve_csv, truncate)
from .network import CycleDetected, NetworkError, build_network
from .ordering import (Provenance, external_order, expand_selection, priority_topo_sort,
                       pure_frequency_order, serialize_order_csv, validate_topological)
from .words import WordNetworkConfig, expand_with_words

SCHEMA_VERSION = 1
DATA_ENV_VAR = "GLYPHORDER_DATA"
_BUNDLED = {
    "decompositions": "decompositions.tsv",
    "frequencies": "char_freq.tsv",
    "word_frequencies": "word_freq.tsv",
}


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation."""

    decompositions: object
    frequencies: object
    word_frequencies: object
    gamma: float
    horizons: tuple[float, ...]
    mode: str
    top_k: int
    known: str | None
    target: str | None
    out: Path


def _resolve_input(explicit: str | None, name: str):
    """Pick the file to read: explicit flag, else $GLYPHORDER_DATA, else
    the bundled corpus."""
    if explicit:
        return Path(explicit)
    env_dir = os.environ.get(DATA_ENV_VAR)
    if env_dir:
        candidate = Path(env_dir) / _BUNDLED[name]
        if candidate.exists():
            return candidate
    return resources.files("glyphorder").joinpath("data/" + _BUNDLED[name])


def _read_text(source) -> str:
    try:
        return source.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError("cannot read %s: %s" % (source, exc)) from exc


def _config(args) -> RunConfig:
    horizons = tuple(args.c0) if args.c0 else DEFAULT_HORIZONS
    if any(h <= 0 for h in horizons):
        raise ValueError("all --c0 horizons must be positive")
    return RunConfig(
        decompositions=_resolve_input(args.decompositions, "decompositions"),
        frequencies=_resolve_input(args.frequencies, "frequencies"),
        word_frequencies=_resolve_input(args.word_frequencies, "word_frequencies"),
        gamma=args.gamma,
        horizons=tuple(sorted(horizons)),
        mode=getattr(args, "mode", "characters"),
        top_k=args.top_k,
        known=args.known,
        target=getattr(args, "target", None),
        out=Path(args.out),
    )


def _load_pipeline(cfg: RunConfig):
    """Network, frequency table, params, centralities, word drop report."""
    net = build_network(parse_decompositions(_read_text(cfg.decompositions)))
    dropped: list[tuple[str, str]] = []
    if cfg.mode == "words":
        word_freq = parse_frequencies(_read_text(cfg.word_frequencies))
        net, freq, dropped = expand_with_words(net, word_freq, WordNetworkConfig(top_k=cfg.top_k))
    else:
        freq = parse_frequencies(_read_text(cfg.frequencies))

    known: frozenset[str] = frozenset()
    if cfg.known == "all-primitives":
        known = frozenset(n.id for n in net.nodes() if n.kind.is_primitive)
    elif cfg.known:
        known = frozenset(parse_order(_read_text(Path(cfg.known))))
        for glyph in sorted(known):
            if glyph not in net:
                raise ValueError("known-set glyph %s is not in the network" % glyph)

    params = CostParams(gamma=cfg.gamma, known=known)
    table = centralities(net, freq, params)
    return net, freq, params, table, dropped


def _selection(net, cfg: RunConfig) -> tuple[set[str], list[str]]:
    """Target selection (plus closures) or the whole network; returns the
    pool and any target items missing from the network."""
    if not cfg.target:
        return set(net.ids()), []
    target = parse_target_list(_read_text(Path(cfg.target)))
    missing = [t for t in target.items if t not in net]
    present = [t for t in target.items if t in net]
    return expand_selection(net, present), missing


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print("wrote %s" % path)


def _horizon_results(net, order, horizons, mode=CostMode.HIERARCHAL, cost_lookup=None):
    """Summary numbers per horizon, computed from one curve at the widest
    horizon; consumption is a prefix property, so truncation is exact."""
    widest = curve(net, order, max(horizons), mode, cost_lookup)
    results = {}
    for h in horizons:
        n, final, mean = at_horizon(widest, h)
        results["%g" % h] = {"n_learned": n, "lambda_f": round(final, 12),
                             "lambda_avg": round(mean, 12)}
    return widest, results


def cmd_order(args) -> int:
    cfg = _config(args)
    net, freq, params, table, dropped = _load_pipeline(cfg)
    pool, missing_targets = _selection(net, cfg)
    order = priority_topo_sort(net, table, pool)

    out = cfg.out
    _write(out / "order.csv", serialize_order_csv(net, order))
    _write(out / "order.txt", serialize_order(order.ids()))
    widest, results = _horizon_results(net, order, cfg.horizons)
    for h in cfg.horizons:
        cv = truncate(widest, h)
        _write(out / ("curve_c%g.csv" % h), serialize_curve_csv(cv))
        _write(out / ("curve_c%g.json" % h), curve_summary_json(cv))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "provenance": order.provenance.value,
        "mode": cfg.mode,
        "gamma": cfg.gamma,
        "n_items": len(order),
        "coverage": round(sum(item.freq for item in order), 12),
        "horizons": list(cfg.horizons),
        "results": results,
    }
    if cfg.mode == "words":
        summary["top_k"] = cfg.top_k
        summary["dropped_words"] = [[w, why] for w, why in dropped]
    if missing_targets:
        summary["missing_targets"] = missing_targets
    _write(out / "summary.json", json.dumps(summary, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


def _parse_order_file(path: Path) -> list[str]:
    text = _read_text(path)
    for line in text.split("\n"):
        if line and not line.startswith("#"):
            if line.startswith("rank,glyph,"):
                return parse_order_csv(text)
            break
    return parse_order(text)


def cmd_compare(args) -> int:
    cfg = _config(args)
    net, freq, params, table, dropped = _load_pipeline(cfg)
    pool, _ = _selection(net, cfg)
    cost_lookup = {glyph: table[glyph].c for glyph in net.ids()}

    candidates: list[tuple[str, list[str]]] = []
    failures = 0
    for path in args.orders:
        try:
            candidates.append((Path(path).stem, _parse_order_file(Path(path))))
        except (ParseError, OSError) as exc:
            failures += 1
            print("error: %s" % exc, file=sys.stderr)
    if args.include_optimized:
        candidates.append(("optimized", priority_topo_sort(net, table, pool).ids()))
    if args.include_pure_frequency:
        candidates.append(("pure-frequency", pure_frequency_order(table, pool).ids()))
    if not candidates:
        print("error: no usable orders", file=sys.stderr)
        return 1

    rows = ["label,cost_mode,c0,n_learned,lambda_f,lambda_avg"]
    out = cfg.out
    evaluated = 0
    for label, ids in candidates:
        try:
            order = external_order(table, ids)
        except NetworkError as exc:
            failures += 1
            print("error: %s: unknown glyph %s" % (label, exc), file=sys.stderr)
            continue
        evaluated += 1
        for mode in (CostMode.HIERARCHAL, CostMode.CHARGE_UNLEARNED):
            try:
                widest, results = _horizon_results(net, order, cfg.horizons, mode, cost_lookup)
            except NotTopological as exc:
                print("%s: not hierarchal (%d violations); hierarchal metrics skipped"
                      % (label, len(exc.violations)))
                continue
            tag = "hier" if mode is CostMode.HIERARCHAL else "charge"
            for h in cfg.horizons:
                r = results["%g" % h]
                rows.append("%s,%s,%g,%d,%.3f,%.3f" % (
                    label, mode.value, h, r["n_learned"], r["lambda_f"], r["lambda_avg"]))
            _write(out / ("%s_%s_curve.csv" % (label, tag)), serialize_curve_csv(widest))
            _write(out / ("%s_%s_curve.json" % (label, tag)), curve_summary_json(widest))
        stats = cluster_stats(net, order, min_reported_n=args.min_reported_n)
        _write(out / ("%s_cluster.csv" % label), serialize_cluster_csv(stats))
    _write(out / "comparison.csv", "\n".join(rows) + "\n")
    return 0 if evaluated else 1


def cmd_validate(args) -> int:
    cfg = _config(args)
    net, freq, params, table, dropped = _load_pipeline(cfg)
    ids = _parse_order_file(Path(args.order))
    if not ids:
        print("warning: empty order")
        print("coverage: 0.000000")
        return 0
    violations = validate_topological(net, ids)
    coverage = sum(freq.get(glyph) for glyph in ids)
    for v in violations:
        what = "missing" if v.missing else "later"
        print("violation: %s needs %s (%s)" % (v.compound, v.component, what))
    print("coverage: %.6f" % coverage)
    print("violations: %d" % len(violations))
    return 3 if violations else 0


def cmd_cluster(args) -> int:
    cfg = _config(args)
    net, freq, params, table, dropped = _load_pipeline(cfg)
    if args.order:
        ids = _parse_order_file(Path(args.order))
        order = external_order(table, ids)
        label = Path(args.order).stem
    else:
        pool, _ = _selection(net, cfg)
        order = priority_topo_sort(net, table, pool)
        label = "optimized"
    stats = cluster_stats(net, order, max_n=args.max_n, min_reported_n=args.min_reported_n)
    _write(cfg.out / ("%s_cluster.csv" % label), serialize_cluster_csv(stats))
    return 0


def cmd_words(args) -> int:
    args.mode = "words"
    cfg = _config(args)
    net, freq, params, table, dropped = _load_pipeline(cfg)
    pool, missing_targets = _selection(net, cfg)
    order = priority_topo_sort(net, table, pool)

    out = cfg.out
    _write(out / "words_order.csv", serialize_order_csv(net, order))
    _write(out / "words_order.txt", serialize_order(order.ids()))
    widest, results = _horizon_results(net, order, cfg.horizons)
    for h in cfg.horizons:
        cv = truncate(widest, h)
        _write(out / ("words_curve_c%g.csv" % h), serialize_curve_csv(cv))
        _write(out / ("words_curve_c%g.json" % h), curve_summary_json(cv))
    report_lines = ["%s\t%s" % (w, why) for w, why in dropped]
    _write(out / "dropped_words.txt", "\n".join(report_lines) + "\n" if report_lines else "")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "provenance": order.provenance.value,
        "mode": "words",
        "gamma": cfg.gamma,
        "top_k": cfg.top_k,
        "n_items": len(order),
        "n_dropped_words": len(dropped),
        "coverage": round(sum(item.freq for item in order), 12),
        "horizons": list(cfg.horizons),
        "results": results,
    }
    if missing_targets:
        summary["missing_targets"] = missing_targets
    _write(out / "words_summary.json", json.dumps(summary, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--decompositions", help="decomposition network TSV")
    parser.add_argument("--frequencies", help="character frequency TSV")
    parser.add_argument("--word-frequencies", help="word frequency TSV")
    parser.add_argument("--gamma", type=float, default=0.1, help="per-stroke cost surcharge")
    parser.add_argument("--c0", type=float, action="append",
                        help="evaluation horizon, repeatable (default 500 and 1500)")
    parser.add_argument("--top-k", type=int, default=10000,
                        help="word frequency rank cutoff (words mode)")
    parser.add_argument("--known", help="path to already-known glyphs, or 'all-primitives'")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--min-reported-n", type=int, default=250,
                        help="clustering averages below this prefix are noisy")


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
    p.set_defaults(func=cmd_words)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CycleDetected as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ParseError, NetworkError, NotTopological, MissingCost, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
