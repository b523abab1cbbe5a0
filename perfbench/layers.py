"""Traced run: spans and counts around the calls into each monideal module.

``installed(tracer)`` rebinds each traced function in every module that
holds a reference to it (``minimalize`` is bound separately in ``core`` and
``trie``, ``paths`` in ``trie`` and ``recursive``), and restores the
originals on exit.  A span records its name, start, end and the span that
was open when it began.  Each thread keeps its own stack of open spans, so
parent links stay right under recursion; a span opened by a CLI worker
thread with nothing open in its own thread is parented to the span open in
the main thread.  Counts are taken by adapters at the same call boundaries
as the spans.  Spans stay in memory until the pass ends; then they are
folded into per-name totals.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

import contextlib
import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (metric, unit, better, end-to-end metric and workload it should move)
METRICS = (
    ("core.from_vectors.s", "s", "lower",
     "incremental_s on generic-large, batch_s on certified-batch"),
    ("core.artinianize.s", "s", "lower", "incremental_s on generic-large"),
    ("core.deartinianize.s", "s", "lower", "incremental_s on generic-large"),
    ("core.minimalize.calls", "count", "lower", "incremental_s, recursive_s on all"),
    ("core.minimalize.s", "s", "lower", "incremental_s, recursive_s on all"),
    ("core.maximalize.calls", "count", "lower", "incremental_s on generic-large"),
    ("core.maximalize.s", "s", "lower", "incremental_s on generic-large"),
    ("incremental.add_generator.calls", "count", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.add_generator.s", "s", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.add_generator.self_s", "s", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.partition_components.calls", "count", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.partition_components.s", "s", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.partition_components.scanned", "count", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.affected_ratio", "ratio", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.dividing_generators.calls", "count", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.dividing_generators.s", "s", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.divisor_hit_ratio", "ratio", "higher",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.lowering_limits.s", "s", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.kept_ratio", "ratio", "higher",
     "incremental_s on generic-large and nongeneric-dense"),
    ("incremental.peak_components", "count", "lower",
     "incremental_s on generic-large and nongeneric-dense"),
    ("recursive.decompose_trie.calls", "count", "lower",
     "recursive_s on nongeneric-dense and generic-large"),
    ("recursive.decompose_trie.self_s", "s", "lower",
     "recursive_s on nongeneric-dense and generic-large"),
    ("recursive.difference.calls", "count", "lower",
     "recursive_s on nongeneric-dense and generic-large"),
    ("recursive.difference.s", "s", "lower",
     "recursive_s on nongeneric-dense and generic-large"),
    ("trie.min_merge.calls", "count", "lower",
     "recursive_s on nongeneric-dense and generic-large"),
    ("trie.min_merge.s", "s", "lower", "recursive_s on nongeneric-dense and generic-large"),
    ("trie.build.s", "s", "lower", "recursive_s on nongeneric-dense and generic-large"),
    ("trie.paths.s", "s", "lower", "recursive_s on nongeneric-dense and generic-large"),
    ("trie.top_slices.s", "s", "lower", "recursive_s on nongeneric-dense and generic-large"),
    ("files.parse_ideal.s", "s", "lower", "batch_s and certified_per_s on certified-batch"),
    ("files.emit_components.s", "s", "lower", "batch_s on certified-batch"),
    ("files.parse_components.s", "s", "lower", "certified_per_s on certified-batch"),
    ("oracle.components_generate.calls", "count", "lower",
     "certified_per_s on certified-batch"),
    ("oracle.components_generate.s", "s", "lower", "certified_per_s on certified-batch"),
    ("oracle.cells", "count", "lower", "certified_per_s on certified-batch"),
    ("oracle.budget_refusals", "count", "lower",
     "certified_per_s on certified-batch"),
    ("cli.decompose.self_s", "s", "lower", "batch_s on certified-batch"),
    ("trace.overhead_s", "s", "lower",
     "none: traced minus untraced pass time, both probe-scaled"),
)
UNITS = {name: unit for name, unit, _, _ in METRICS}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []          # (id, name, parent id, start, end) of the open pass
        self.last_spans = []
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.peaks = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, k=1):
        with self._lock:
            self.counts[key] += k

    def peak(self, key, v):
        with self._lock:
            self.peaks[key] = max(self.peaks[key], v)

    def span(self, name, fn):
        """``fn`` wrapped in a span; ``name`` may be a function of the args."""
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            label = name if isinstance(name, str) else name(args)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, label, parent, start, end))
        return traced

    def collect(self):
        """Fold the open pass's spans into per-name calls, total and self time."""
        spans = self.last_spans = list(self.spans)
        self.spans.clear()
        children = defaultdict(list)
        for _, _, parent, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        for sid, name, _, start, end in spans:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - _covered(children.get(sid, ()), start, end)

    def write_spans(self, path):
        """Write the last traced pass's spans as JSON lines, times from its start."""
        t0 = min((s[3] for s in self.last_spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, parent, start, end in self.last_spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start - t0, "end": end - t0}) + "\n")

    def metrics(self, passes):
        """Per-layer metrics per traced pass, ``trace.overhead_s`` excluded."""
        c = self.counts
        derived = {
            "incremental.partition_components.scanned": c["partition.scanned"],
            "incremental.affected_ratio": _ratio(c["partition.affected"], c["partition.scanned"]),
            "incremental.divisor_hit_ratio": _ratio(c["divisors.returned"],
                                                    c["divisors.probed"]),
            "incremental.kept_ratio": _ratio(c["lowerings.kept"], c["lowerings.tried"]),
            "oracle.cells": c["oracle.cells"],
            "oracle.budget_refusals": c["oracle.budget_refusals"],
        }
        out = {}
        for metric, _, _, _ in METRICS:
            if metric == "trace.overhead_s":
                continue
            if metric == "incremental.peak_components":
                out[metric] = self.peaks[metric]
            elif metric in derived:
                v = derived[metric]
                out[metric] = v if "ratio" in metric else v / passes
            else:
                span, _, kind = metric.rpartition(".")
                table = {"calls": self.calls, "s": self.total, "self_s": self.self_time}[kind]
                out[metric] = table[span] / passes
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _box_cells(c, g):
    degs = [0] * g.n
    for vs in (g.gens, c.comps):
        for v in vs:
            for i, e in enumerate(v):
                if e != math.inf and e > degs[i]:
                    degs[i] = int(e)
    return math.prod(d + 1 for d in degs)


def _adapters(tr):
    """Counting adapters, keyed by span name, for the call boundaries whose
    counts the per-layer metrics need."""
    lib = tr.lib
    local = threading.local()

    def partition_components(fn):
        def adapted(comps, alpha, counter=None):
            untouched, affected = out = fn(comps, alpha, counter)
            tr.count("partition.scanned", len(untouched) + len(affected))
            tr.count("partition.affected", len(affected))
            local.affected = len(affected)
            return out
        return adapted

    def dividing_generators(fn):
        def adapted(beta, index, counter=None):
            probe = counter if counter is not None else lib.OpCounter()
            before = probe.ops
            out = fn(beta, index, probe)
            tr.count("divisors.probed", probe.ops - before)
            tr.count("divisors.returned", len(out))
            return out
        return adapted

    def add_generator(fn):
        def adapted(state, *args, **kwargs):
            before = len(state.components)
            local.affected = 0
            out = fn(state, *args, **kwargs)
            after = len(state.components)
            # components after = untouched + kept, untouched = before - affected
            tr.count("lowerings.kept", after - before + local.affected)
            tr.count("lowerings.tried", state.n * local.affected)
            tr.peak("incremental.peak_components", after)
            return out
        return adapted

    def components_generate(fn):
        def adapted(c, g, *args, **kwargs):
            try:
                out = fn(c, g, *args, **kwargs)
            except lib.BudgetError:
                tr.count("oracle.budget_refusals")
                raise
            tr.count("oracle.cells", _box_cells(c, g))
            return out
        return adapted

    return {"incremental.partition_components": partition_components,
            "incremental.dividing_generators": dividing_generators,
            "incremental.add_generator": add_generator,
            "oracle.components_generate": components_generate}


def _cli_name(args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


# (module, attribute, span name); "Class.method" attributes are rebound on
# the class.
TARGETS = (
    ("core", "GeneratorSet.from_vectors", "core.from_vectors"),
    ("core", "minimalize", "core.minimalize"),
    ("core", "maximalize", "core.maximalize"),
    ("core", "artinianize", "core.artinianize"),
    ("core", "deartinianize", "core.deartinianize"),
    ("incremental", "decompose_incremental", "incremental.decompose_incremental"),
    ("incremental", "IncrementalState.add_generator", "incremental.add_generator"),
    ("incremental", "partition_components", "incremental.partition_components"),
    ("incremental", "dividing_generators", "incremental.dividing_generators"),
    ("incremental", "lowering_limits", "incremental.lowering_limits"),
    ("recursive", "decompose_recursive", "recursive.decompose_recursive"),
    ("recursive", "decompose_trie", "recursive.decompose_trie"),
    ("recursive", "difference", "recursive.difference"),
    ("trie", "min_merge", "trie.min_merge"),
    ("trie", "build", "trie.build"),
    ("trie", "paths", "trie.paths"),
    ("trie", "top_slices", "trie.top_slices"),
    ("files", "parse_ideal", "files.parse_ideal"),
    ("files", "emit_components", "files.emit_components"),
    ("files", "parse_components", "files.parse_components"),
    ("oracle", "components_generate", "oracle.components_generate"),
    ("cli", "cli_main", _cli_name),
)


def _importers():
    """Namespaces that may hold a traced function: the package and this benchmark."""
    out = []
    for name, mod in list(sys.modules.items()):
        file = getattr(mod, "__file__", None)
        if name == "monideal" or name.startswith("monideal.") or (
                file and Path(file).resolve().parent == HERE):
            out.append(vars(mod))
    return out


@contextlib.contextmanager
def installed(tracer):
    """Trace one pass with ``tracer``; a ``None`` tracer changes nothing."""
    if tracer is None:
        yield
        return
    adapters = _adapters(tracer)
    namespaces = _importers()
    undo = []
    try:
        for module, attr, name in TARGETS:
            mod = sys.modules[f"monideal.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if name in adapters:
                    fn = adapters[name](fn)
                wrapped = tracer.span(name, fn)
                setattr(cls, meth, classmethod(wrapped) if isinstance(raw, classmethod)
                        else wrapped)
                undo.append((cls, meth, raw))
                continue
            original = getattr(mod, attr)
            fn = adapters[name](original) if name in adapters else original
            wrapped = tracer.span(name, fn)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapped
                        undo.append((ns, key, original))
        yield
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        tracer.collect()
