"""Per-layer tracing by wrappers installed from the benchmark, not the program.

Every wrapped name gets a call count and a self time: its own time minus the
time spent in wrapped callees, so recursive and cross-module calls are split
correctly.  Every binding of a function is replaced (``spliceops.cli.canonicalize``
as well as ``spliceops.tree.canonicalize``); methods are replaced on their class.
Coarse boundaries also record spans (name, start, end, parent, op id), kept in
memory and written out when the run ends; fine-grained ones (interval and
``Perm`` constructors, ``GroupWord.__mul__``, ``sort_key``) only aggregate, so
the trace stays bounded.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time

# (metric name, module, class or None, attributes, records spans)
TARGETS = [
    ("cubes.LittleInterval.init", "spliceops.cubes", "LittleInterval", ["__init__"], False),
    ("cubes.LittleInterval.compose", "spliceops.cubes", "LittleInterval", ["compose"], False),
    ("cubes.interiors_intersect", "spliceops.cubes", None, ["interiors_intersect"], False),
    ("cubes.CubesElement.init", "spliceops.cubes", "CubesElement", ["__init__"], False),
    ("cubes.cube_compose", "spliceops.cubes", None, ["cube_compose"], True),
    ("cubes.permute_cubes", "spliceops.cubes", None, ["permute_cubes"], False),
    ("cubes.AffineMap.compose", "spliceops.cubes", "AffineMap", ["compose"], False),
    ("cubes.AffineMap.inverse", "spliceops.cubes", "AffineMap", ["inverse"], False),
    ("overlap.overlap_canonical", "spliceops.overlap", None, ["overlap_canonical"], False),
    ("overlap.least_linearization", "spliceops.overlap", None, ["least_linearization"], False),
    ("overlap.overlap_compose", "spliceops.overlap", None, ["overlap_compose"], True),
    ("overlap.permute_overlap", "spliceops.overlap", None, ["permute_overlap"], False),
    ("perm.Perm.init", "spliceops.perm", "Perm", ["__init__"], False),
    ("perm.Perm.inverse", "spliceops.perm", "Perm", ["inverse"], False),
    ("perm.Perm.mul", "spliceops.perm", "Perm", ["__mul__"], False),
    ("perm.block_perm", "spliceops.perm", None, ["block_perm"], False),
    ("words.GroupWord.mul", "spliceops.words", "GroupWord", ["__mul__"], False),
    ("words.GroupWord.inverse", "spliceops.words", "GroupWord", ["inverse"], False),
    ("words.conjugate", "spliceops.words", None, ["conjugate"], False),
    ("words.reduce_word", "spliceops.words", None, ["reduce_word"], False),
    ("splice.splice_compose", "spliceops.splice", None, ["splice_compose"], True),
    ("splice.verify_associativity", "spliceops.splice", None, ["verify_associativity"], True),
    ("splice.compare_elements", "spliceops.splice", None, ["compare_elements"], False),
    ("splice.splice_element", "spliceops.splice", None, ["splice_element"], False),
    ("splice.act_perm", "spliceops.splice", None, ["act_perm"], False),
    ("splice.act_wreath", "spliceops.splice", None, ["act_wreath"], False),
    ("splice.outer_act", "spliceops.splice", None, ["outer_act"], False),
    (
        "harness.generate",
        "spliceops.harness",
        None,
        ["rand_disjoint_element", "rand_overlap_element", "rand_splice_element", "rand_word_wreath"],
        False,
    ),
    (
        "harness.suite",
        "spliceops.harness",
        None,
        ["run_axioms", "run_splice_associativity", "run_equivariance"],
        True,
    ),
    ("tree.canonicalize", "spliceops.tree", None, ["canonicalize"], True),
    ("tree.sort_key", "spliceops.tree", None, ["sort_key"], False),
    ("tree.complexity", "spliceops.tree", None, ["complexity"], True),
    ("tree.mirror_tree", "spliceops.tree", None, ["mirror_tree"], False),
    ("tree.reverse_tree", "spliceops.tree", None, ["reverse_tree"], False),
    ("tree.tree_to_json", "spliceops.tree", None, ["tree_to_json"], True),
    ("tree.tree_to_dot", "spliceops.tree", None, ["tree_to_dot"], True),
    ("tree.load_catalogue", "spliceops.tree", None, ["load_catalogue"], True),
    ("expr.parse_expr", "spliceops.expr", None, ["parse_expr"], True),
    ("expr.print_expr", "spliceops.expr", None, ["print_expr"], True),
    ("realize.check_representation", "spliceops.realize", None, ["check_representation"], True),
    ("realize.enumerate_admissible", "spliceops.realize", None, ["enumerate_admissible"], True),
    ("realize.feasible_k", "spliceops.realize", None, ["feasible_k"], True),
    ("cli.main", "spliceops.cli", None, ["main"], True),
    ("cli.build_parser", "spliceops.cli", None, ["build_parser"], True),
]

OP = "bench.op"
SPAN_CAP = 400_000


class Agg:
    __slots__ = ("calls", "self_s", "top_calls", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.top_calls = 0
        self.counters = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


def _tree_nodes(t, children_of) -> int:
    return 1 + sum(_tree_nodes(c, children_of) for c in children_of(t))


class Tracer:
    """Owns the wrapper stack, the aggregates and the spans of one traced run."""

    def __init__(self):
        self.aggs = {name: Agg() for name, *_ in TARGETS}
        self.aggs[OP] = Agg()
        self.stack = []  # frames: [name, child_time, span index or None]
        self.active = {}  # name -> open frames, for top-level detection
        self.spans = []
        self.dropped_spans = 0
        self.op_id = -1
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = None
        self._restore = []
        self._hooks = {
            "overlap.overlap_canonical": self._count_overlap,
            "perm.block_perm": self._count_block_perm,
            "words.GroupWord.mul": self._count_mul,
            "splice.splice_compose": self._count_compose,
            "tree.canonicalize": self._count_canonicalize,
            "expr.parse_expr": self._count_parse,
            "realize.feasible_k": self._count_feasible,
        }

    # -- counters at the wrapped boundaries ---------------------------------

    def _count_overlap(self, agg, args, kwargs, result, top):
        j = len(result.cubes)
        agg.add("pairs", j * (j - 1) // 2)
        agg.add("constraints", len(result.constraints))

    def _count_block_perm(self, agg, args, kwargs, result, top):
        agg.add("degree_sum", result.degree)

    def _count_mul(self, agg, args, kwargs, result, top):
        letters_in = len(args[0].letters) + len(args[1].letters)
        agg.add("letters_in", letters_in)
        agg.add("letters_out", len(result.letters))
        if self.active.get("splice.splice_compose"):
            agg.add("letters_in_compose", letters_in)

    def _count_compose(self, agg, args, kwargs, result, top):
        agg.add("arity_sum", args[0].arity)
        agg.add("letters_out", len(result.base) + sum(len(p) for p in result.pucks))

    def _count_canonicalize(self, agg, args, kwargs, result, top):
        if top:
            agg.add("input_nodes", _tree_nodes(args[0], self._children_of))

    def _count_parse(self, agg, args, kwargs, result, top):
        agg.add("chars", len(args[0]))

    def _count_feasible(self, agg, args, kwargs, result, top):
        agg.add("k_sum", kwargs["k"] if "k" in kwargs else args[1])

    # -- wrapping ------------------------------------------------------------

    def _enter(self, name, spans):
        active = self.active.get(name, 0)
        self.active[name] = active + 1
        span = None
        if spans and active == 0:
            if len(self.spans) < SPAN_CAP:
                parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
                span = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
            else:
                self.dropped_spans += 1
        frame = [name, 0.0, span]
        self.stack.append(frame)
        return frame, active == 0

    def _leave(self, frame, top, elapsed, end):
        self.stack.pop()
        name = frame[0]
        self.active[name] -= 1
        agg = self.aggs[name]
        agg.calls += 1
        agg.self_s += elapsed - frame[1]
        if top:
            agg.top_calls += 1
        if self.stack:
            self.stack[-1][1] += elapsed
        if frame[2] is not None:
            self.spans[frame[2]][2] = end

    def wrap(self, name, fn, spans):
        hook = self._hooks.get(name)
        errors = name == "expr.parse_expr"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, top = tracer._enter(name, spans)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if errors:
                    tracer.aggs[name].add("errors", 1)
                raise
            finally:
                end = time.perf_counter()
                tracer._leave(frame, top, end - t0, end)
            if hook is not None:
                h0 = time.perf_counter()
                hook(tracer.aggs[name], args, kwargs, result, top)
                if tracer.stack:  # counting is not the caller's own work
                    tracer.stack[-1][1] += time.perf_counter() - h0
            return result

        return wrapper

    def install(self):
        """Replace every binding of every target in the loaded spliceops modules."""
        for module in (t[1] for t in TARGETS):
            importlib.import_module(module)
        self._children_of = sys.modules["spliceops.tree"]._children_of
        loaded = [m for n, m in sys.modules.items() if n.split(".")[0] == "spliceops" and m]
        for name, module, cls, attrs, spans in TARGETS:
            owner = getattr(sys.modules[module], cls) if cls else None
            for attr in attrs:
                if owner is not None:
                    orig = owner.__dict__[attr]
                    self._restore.append((owner, attr, orig))
                    setattr(owner, attr, self.wrap(name, orig, spans))
                    continue
                orig = getattr(sys.modules[module], attr)
                wrapped = self.wrap(name, orig, spans)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    # -- the op boundary, driven by the benchmark loop -------------------------

    def op(self, op_id, call):
        """Run one op as the root frame; returns (elapsed seconds, result)."""
        self.op_id = op_id
        frame, top = self._enter(OP, True)
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            end = time.perf_counter()
            self._leave(frame, top, end - t0, end)
        return end - t0, result

    # -- results -------------------------------------------------------------

    def layer_table(self) -> dict:
        """Raw aggregates: name -> {calls, top_calls, self_s, counters...}."""
        out = {}
        for name, agg in self.aggs.items():
            out[name] = {"calls": agg.calls, "top_calls": agg.top_calls, "self_s": agg.self_s}
            out[name].update(agg.counters)
        out["runtime.gc"] = {"collections": self.gc_collections, "pause_s": self.gc_pause_s}
        out["trace.spans"] = {"recorded": len(self.spans), "dropped": self.dropped_spans}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")


# ---------------------------------------------------------------------------
# the per-layer metrics reported by a traced run, in BENCHMARK.json order

FIELDS = {
    "cubes.LittleInterval.init": ("calls", "self_pct"),
    "cubes.LittleInterval.compose": ("calls", "self_pct"),
    "cubes.interiors_intersect": ("calls", "self_pct"),
    "cubes.CubesElement.init": ("calls", "self_pct"),
    "cubes.cube_compose": ("calls", "self_pct"),
    "cubes.permute_cubes": ("calls", "self_pct"),
    "cubes.AffineMap.compose": ("calls", "self_pct"),
    "cubes.AffineMap.inverse": ("calls",),
    "overlap.overlap_canonical": ("calls", "self_pct", "pairs", "constraints"),
    "overlap.least_linearization": ("calls", "self_pct"),
    "overlap.overlap_compose": ("calls", "self_pct"),
    "overlap.permute_overlap": ("calls", "self_pct"),
    "perm.Perm.init": ("calls", "self_pct"),
    "perm.Perm.inverse": ("calls",),
    "perm.Perm.mul": ("calls",),
    "perm.block_perm": ("calls", "self_pct", "degree_sum"),
    "words.GroupWord.mul": ("calls", "self_pct", "letters_in", "letters_out"),
    "words.conjugate": ("calls", "self_pct"),
    "words.reduce_word": ("calls", "self_pct"),
    "words.GroupWord.inverse": ("calls",),
    "splice.splice_compose": ("calls", "self_pct", "arity_sum", "letters_out"),
    "splice.verify_associativity": ("calls", "self_pct"),
    "splice.compare_elements": ("calls", "self_pct"),
    "splice.splice_element": ("calls", "self_pct"),
    "splice.act_perm": ("calls", "self_pct"),
    "splice.act_wreath": ("calls", "self_pct"),
    "splice.outer_act": ("calls", "self_pct"),
    "harness.generate": ("calls", "self_pct"),
    "harness.suite": ("self_pct",),
    "tree.canonicalize": ("calls", "top_calls", "self_pct", "input_nodes"),
    "tree.sort_key": ("calls", "self_pct"),
    "tree.complexity": ("calls", "self_pct"),
    "tree.mirror_tree": ("calls",),
    "tree.reverse_tree": ("calls",),
    "tree.tree_to_json": ("self_pct",),
    "tree.tree_to_dot": ("self_pct",),
    "tree.load_catalogue": ("self_pct",),
    "expr.parse_expr": ("calls", "self_pct", "chars"),
    "expr.print_expr": ("calls", "self_pct"),
    "realize.check_representation": ("calls", "self_pct"),
    "realize.enumerate_admissible": ("calls", "self_pct"),
    "realize.feasible_k": ("calls", "self_pct", "k_sum"),
    "cli.main": ("calls", "self_pct"),
    "cli.build_parser": ("calls", "self_pct"),
    OP: ("self_pct",),
}
# name, unit, numerator, denominator: ratios that show wasted work
RATIOS = [
    # constraints recorded per pair tested
    ("overlap.overlap_canonical.hit_ratio", ("overlap.overlap_canonical", "constraints"), ("overlap.overlap_canonical", "pairs")),
    # letters a composite keeps per letter multiplied inside splice_compose
    ("splice.splice_compose.letter_yield", ("splice.splice_compose", "letters_out"), ("words.GroupWord.mul", "letters_in_compose")),
    # canonicalize calls per node of the top-level input trees
    ("tree.canonicalize.calls_per_node", ("tree.canonicalize", "calls"), ("tree.canonicalize", "input_nodes")),
]
EXTRA = [
    ("expr.errors", "count"),
    ("cli.exit_0", "count"),
    ("cli.exit_1", "count"),
    ("cli.exit_2", "count"),
    ("runtime.gc.collections", "count"),
    ("runtime.gc.pause_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
LAYER_METRICS = (
    [(f"{name}.{f}", "%" if f == "self_pct" else "count") for name, fields in FIELDS.items() for f in fields]
    + [(name, "ratio") for name, _, _ in RATIOS]
    + EXTRA
)


def layer_metrics(layers, op_time, overhead_ratio, exit_codes):
    """(metrics {name: (value, unit)}, table) from a traced run's aggregates.

    ``op_time`` is the traced ops' total time, the base of every self share;
    ``overhead_ratio`` is that time over the same ops' time without tracing."""
    table = {}
    for name, row in layers.items():
        row = dict(row)
        if "self_s" in row:
            row["self_pct"] = 100.0 * row["self_s"] / op_time if op_time else 0.0
        table[name] = row
    units = dict(LAYER_METRICS)
    metrics = {}
    for name, fields in FIELDS.items():
        for f in fields:
            metrics[f"{name}.{f}"] = (table[name].get(f, 0), units[f"{name}.{f}"])
    for metric, (num_row, num), (den_row, den) in RATIOS:
        d = table[den_row].get(den, 0)
        metrics[metric] = (table[num_row].get(num, 0) / d if d else 0.0, "ratio")
    codes = [c for c in exit_codes or [] if c is not None]
    metrics["expr.errors"] = (table["expr.parse_expr"].get("errors", 0), "count")
    for rc in (0, 1, 2):
        metrics[f"cli.exit_{rc}"] = (sum(c == rc for c in codes), "count")
    metrics["runtime.gc.collections"] = (table["runtime.gc"]["collections"], "count")
    metrics["runtime.gc.pause_s"] = (table["runtime.gc"]["pause_s"], "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics, table
