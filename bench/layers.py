"""Outside-in span tracing of the wlra layers, and the per-layer metric table.

A Tracer wraps each layer's public functions at the module (or class)
attribute where their callers look them up, so the package source stays
untouched and the wrapped calls compute exactly what the unwrapped ones
do.  Spans nest through a stack; a span's self time is its duration minus
the durations of its direct children, so the self times of one operation
add up to the wall time of its outermost spans.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from wlra import cli, grouped_als, opt_bounds, pattern_index, weighted_cost


# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.read_instance_s": ("s", "lower", "solve_s and peak_mem_mb on dense_cli; 0 on compressed workloads"),
    "cli.self_s": ("s", "lower", "solve_s on dense_cli (argument parsing, factor and report writes); 0 on compressed workloads"),
    "cli.bytes_read": ("bytes", "lower", "solve_s and peak_mem_mb on dense_cli; 0 on compressed workloads"),
    "pattern_index.build_instance_s": ("s", "lower", "solve_s and peak_mem_mb on dense_cli; 0 on compressed workloads"),
    "pattern_index.detect_groups_s": ("s", "lower", "solve_s and peak_mem_mb on dense_cli; 0 on compressed workloads"),
    "pattern_index.refine_s": ("s", "lower", "solve_s on dense_cli (refine minus its detect_groups); 0 on compressed workloads"),
    "pattern_index.validate_s": ("s", "lower", "solve_s on dense_cli; 0 on compressed workloads"),
    "pattern_index.groups": ("count", "lower", "solve_s on dense_cli (four partitions summed); 0 on compressed workloads"),
    "pattern_index.bytes_scanned": ("bytes", "lower", "solve_s and peak_mem_mb on dense_cli (computed from matrix sizes); 0 on compressed workloads"),
    "sketch.gaussian_sketch_s": ("s", "lower", "solve_s (and grouped_als.cost_ratio) on compressed_sketched; small on dense_cli; 0 on compressed_exact"),
    "sketch.sketched_design_s": ("s", "lower", "solve_s (and grouped_als.cost_ratio) on compressed_sketched; small on dense_cli; 0 on compressed_exact"),
    "sketch.draws": ("count", "lower", "solve_s on compressed_sketched; 0 on compressed_exact"),
    "sketch.normals": ("count", "lower", "solve_s on compressed_sketched (t*n per draw); 0 on compressed_exact"),
    "grouped_als.solve_s": ("s", "lower", "solve_s on compressed_exact (solver self time: init draw, loop)"),
    "grouped_als.update_rows_s": ("s", "lower", "solve_s on compressed_exact (self time: assembly, SVDs, per-group apply)"),
    "grouped_als.half_sweeps": ("count", "lower", "solve_s and grouped_als.cost_ratio on dense_cli through the stopping rule"),
    "grouped_als.cost_ratio": ("ratio", "lower", "none gated: final_cost / upper_bound, median over instances; bimodal on dense_cli, where sketched runs on 0/1 weights can stall"),
    "grouped_als.regressions": ("count", "lower", "solve_s on compressed_exact"),
    "weighted_cost.cost_grouped_s": ("s", "lower", "solve_s on compressed_exact"),
    "weighted_cost.expand_s": ("s", "lower", "solve_s on compressed_exact"),
    "weighted_cost.groups_evaluated": ("count", "lower", "solve_s on compressed_exact"),
    "opt_bounds.upper_bound_s": ("s", "lower", "its share of solve_s on all workloads"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced median solve_s"),
    "trace.unattributed_s": ("s", "lower", "none: traced solve_s minus the layers' self times"),
}


def _bytes_read(args, result):
    return {"cli.bytes_read": os.path.getsize(args[0])}


def _groups(args, inst):
    parts = (inst.w_rows, inst.w_cols, inst.wa_rows, inst.wa_cols)
    return {"pattern_index.groups": sum(p.num_groups for p in parts)}


def _bytes_scanned(args, result):
    return {"pattern_index.bytes_scanned": args[0].nbytes}


def _draw(args, result):
    t, n = args[1], args[2]
    return {"sketch.draws": 1, "sketch.normals": t * n}


def _half_sweep(args, result):
    return {"grouped_als.half_sweeps": 1, "grouped_als.regressions": args[0].wa_rows.num_groups}


def _groups_evaluated(args, result):
    return {"weighted_cost.groups_evaluated": args[0].wa_rows.num_groups}


# (owner, attribute, span name, counter): every place a caller looks up a
# layer function.  The same function imported into two modules is wrapped
# in both; each wrapper calls the original, so no call is traced twice.
_TARGETS = (
    (cli, "main", "cli.self", None),
    (cli, "read_instance", "cli.read_instance", _bytes_read),
    (cli, "build_instance", "pattern_index.build_instance", _groups),
    (cli, "solve", "grouped_als.solve", None),
    (pattern_index, "detect_groups", "pattern_index.detect_groups", _bytes_scanned),
    (pattern_index, "refine", "pattern_index.refine", None),
    (pattern_index.StructuredInstance, "validate", "pattern_index.validate", None),
    (grouped_als, "solve", "grouped_als.solve", None),
    (grouped_als, "update_rows", "grouped_als.update_rows", _half_sweep),
    (grouped_als, "gaussian_sketch", "sketch.gaussian_sketch", _draw),
    (grouped_als, "sketched_design", "sketch.sketched_design", None),
    (grouped_als, "cost_grouped", "weighted_cost.cost_grouped", _groups_evaluated),
    (grouped_als, "cost_grouped_cols", "weighted_cost.cost_grouped", None),
    (grouped_als, "upper_bound", "opt_bounds.upper_bound", None),
    (opt_bounds, "cost_grouped", "weighted_cost.cost_grouped", _groups_evaluated),
    (weighted_cost, "cost_grouped", "weighted_cost.cost_grouped", _groups_evaluated),
    (weighted_cost.GroupedFactor, "expand", "weighted_cost.expand", None),
)


class Tracer:
    """Spans and counts of one traced operation.

    Spans are [name, start, end, parent index] kept in memory; counts are
    summed per metric name at the same boundaries.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in _TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, children):
            out[name] += (end - start) - child
        return dict(out)

    def layer_values(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of this operation, 0 for layers it never entered.

        trace.unattributed_s is the wall time not covered by any layer's
        self time; trace.overhead_s and grouped_als.cost_ratio come from the
        untraced operations, so the caller fills them.
        """
        selfs = self.self_times()
        values = {name: 0.0 for name in PER_LAYER}
        for name, seconds in selfs.items():
            values[f"{name}_s"] = seconds
        values.update(self.counts)
        values["trace.unattributed_s"] = wall - sum(selfs.values())
        return values
