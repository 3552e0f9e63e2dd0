"""Spans around calls into glyphorder's public functions.

`Recorder.install` replaces each listed function, in every loaded
`glyphorder` module that holds a reference to it (the CLI imports names
directly), with a wrapper that records (name, start, end, parent) while
recording is on. Spans stay in memory; self time is a span's duration
minus its children's. Counters are taken at the same boundaries. Nothing
in the program's source is changed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SERIALIZE = "metrics.serialize"

# module -> function -> span name. The one-item-per-line parsers share a
# span, and every serializer the CLI calls counts as serialization.
SPANS = {
    "ingest": {"parse_decompositions": "ingest.parse_decompositions",
               "parse_frequencies": "ingest.parse_frequencies",
               "parse_order": "ingest.parse_order",
               "parse_order_csv": "ingest.parse_order",
               "parse_target_list": "ingest.parse_order",
               "serialize_order": SERIALIZE},
    "network": {"build_network": "network.build_network"},
    "costmodel": {"centralities": "costmodel.centralities"},
    "ordering": {"priority_topo_sort": "ordering.priority_topo_sort",
                 "validate_topological": "ordering.validate_topological",
                 "external_order": "ordering.external_order",
                 "kahn_order": "ordering.kahn_order",
                 "pure_frequency_order": "ordering.pure_frequency_order",
                 "brute_force_best_order": "ordering.brute_force",
                 "serialize_order_csv": SERIALIZE},
    "metrics": {"curve": "metrics.curve",
                "at_horizon": "metrics.at_horizon",
                "cluster_stats": "metrics.cluster_stats",
                "serialize_curve_csv": SERIALIZE,
                "curve_summary_json": SERIALIZE,
                "serialize_cluster_csv": SERIALIZE},
    "words": {"expand_with_words": "words.expand_with_words"},
}
CLOSURE = "network.closure"
LEAVES = {CLOSURE, "ordering.validate_topological", "ordering.external_order"}


class Recorder:
    def __init__(self, glyphorder):
        self.go = glyphorder
        self.on = False
        self.spans: list = []
        self.stack: list[int] = []
        self.leaves: dict[tuple[str, int], list] = {}
        self.leaf_log: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sweeps: list = []      # (net, table, select, output ids)
        self.networks: list = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        def leaf(*args, **kwargs):
            # Hot functions that call nothing wrapped: one total per
            # (name, parent) instead of one span per call.
            if not self.on:
                return fn(*args, **kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = self.leaves.setdefault((name, stack[-1] if stack else -1), [0, 0.0])
                total[0] += 1
                total[1] += clock() - start
            if after is not None:
                after(args, kwargs, result)
            return result

        chosen = leaf if name in LEAVES else wrapper
        chosen.__wrapped__ = fn
        return chosen

    def install(self) -> None:
        go = self.go
        charge = go.CostMode.CHARGE_UNLEARNED
        counts = self.counts

        def curve_name(args, kwargs):
            mode = args[3] if len(args) > 3 else kwargs.get("mode")
            return "metrics.curve_charge" if mode is charge else "metrics.curve"

        def records(args, kwargs, result):
            counts["ingest.records"] += len(getattr(result, "items", result))

        def built(args, kwargs, result):
            self.networks.append(result)

        def swept(args, kwargs, result):
            self.sweeps.append((args[0], args[1], args[2], result.ids()))

        def counted(key):
            def after(args, kwargs, result):
                counts[key] += 1
            return after

        def expanded(args, kwargs, result):
            counts["words.word_nodes"] += len(result[0]) - len(args[0])
            counts["words.dropped"] += len(result[2])

        after = {"parse_decompositions": records, "parse_frequencies": records,
                 "parse_order": records, "parse_order_csv": records,
                 "parse_target_list": records, "build_network": built,
                 "priority_topo_sort": swept,
                 "brute_force_best_order": counted("ordering.brute_force_instances"),
                 "curve": counted("metrics.curve_calls"), "expand_with_words": expanded}
        replace = {}
        for module, names in SPANS.items():
            mod = sys.modules["glyphorder." + module]
            for fname, span in names.items():
                orig = getattr(mod, fname)
                replace[id(orig)] = self._wrap(curve_name if fname == "curve" else span,
                                               orig, after.get(fname))
        for modname, mod in list(sys.modules.items()):
            if modname == "glyphorder" or modname.startswith("glyphorder."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace:
                        setattr(mod, attr, replace[id(value)])

        def members(args, kwargs, result):
            counts["network.closure_members"] += len(result)

        net_cls = go.DecompositionNetwork
        net_cls.closure = self._wrap(CLOSURE, net_cls.closure, members)

    def call(self, name, fn, *args):
        """Run fn(*args) as a root span."""
        return self._wrap(name, fn)(*args)

    def round_metrics(self, first: int, bytes_written: int, oracle) -> dict[str, float]:
        """Self time per span name and the counters, for spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        out: dict[str, float] = defaultdict(float)
        for (label, parent), (calls, total) in self.leaves.items():
            out[label + "_s"] += total
            if parent >= first:
                child[parent - first] += total
            self.leaf_log.append((label, calls, total, parent))
        self.leaves.clear()
        for label, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        for (label, start, end, parent), inner in zip(spans, child):
            out[label + "_s"] += end - start - inner
        out["cli.bytes_written"] = bytes_written
        out.update(self.counts)
        for net in self.networks:
            out["network.nodes"] += len(net)
            out["network.edges"] += sum(len(set(n.components)) for n in net.nodes())
        for net, table, select, output in self.sweeps:
            ranking = table.ranked(self.go.expand_selection(net, select))
            out["ordering.sweep_pool"] += len(ranking)
            out["ordering.sweep_min_moves"] += oracle.min_moves(ranking, output)
            out["ordering.sweep_discordant_pairs"] += oracle.discordant_pairs(ranking, output)
        self.counts.clear()
        self.networks.clear()
        self.sweeps.clear()
        return dict(out)

    def write(self, path) -> None:
        """Spans as name, start, end and parent index; then, for the hot
        leaf functions, call count and total time per parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for label, start, end, parent in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\n" % (label, start, end, parent))
            fh.write("name\tcalls\ttotal_s\tparent\n")
            for label, calls, total, parent in self.leaf_log:
                fh.write("%s\t%d\t%.9f\t%d\n" % (label, calls, total, parent))
