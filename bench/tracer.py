"""Spans and counters around countkernel's layers, recorded from outside the
package.

``Tracer.install`` replaces the module-level names that ``cli``, ``driver``,
``reduce``, ``chain_gadget`` and ``fvs_count`` call, and a few
``MultiGraph`` methods, with wrappers that time the call as a span and
update counters; ``uninstall`` puts the originals back. Nothing is wrapped
unless a traced run installs it.

A span's self time is its duration minus the durations of its child spans
(spans nest strictly: one thread, one call stack). Spans of one pass over
the workload are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter

from countkernel import chain_gadget, cli, driver, fvs_count, reduce
from countkernel.multigraph import MultiGraph

#: MultiGraph methods that build a new graph; a build nested in another
#: (delete_vertices calls induced) counts once.
REBUILDS = ("__init__", "induced", "delete_vertices", "delete_edge_one", "contract_edge")
CYCLE_CHECKS = ("is_forest", "has_cycle_within")

#: Per-layer metrics derived from span self times, in milliseconds.
SELF_MS = {
    "cli.self_ms": "cli",
    "graph_io.parse_ms": "graph_io.parse",
    "graph_io.write_ms": "graph_io.write",
    "driver.self_ms": "driver",
    "reduce.kernelize_ms": "reduce.kernelize",
    "reduce.approx_fvs_ms": "reduce.approx_fvs",
    "reduce.degree_reduce_ms": "reduce.degree_reduce",
    "chain_gadget.replace_ms": "chain_gadget.replace",
    "fvs_count.count_ms": "fvs_count.count",
    "multigraph.rebuild_ms": "multigraph.rebuild",
    "multigraph.cycle_check_ms": "multigraph.cycle_check",
}

#: Share of the time inside ``cli`` spent inside each layer's spans,
#: MultiGraph calls made from the layer included.
SHARES = {
    "reduce.share": ("reduce.kernelize",),
    "chain_gadget.share": ("chain_gadget.replace",),
    "fvs_count.share": ("fvs_count.count",),
    "graph_io.share": ("graph_io.parse", "graph_io.write"),
}

COUNTERS = (
    "graph_io.bytes_in",
    "graph_io.bytes_out",
    "reduce.approx_fvs_calls",
    "reduce.degree_reduce_calls",
    "reduce.edges_dropped",
    "reduce.peeled",
    "reduce.trivially_zero",
    "chain_gadget.chains_replaced",
    "chain_gadget.exponent_sum",
    "chain_gadget.too_long",
    "fvs_count.approx_size",
    "fvs_count.subsets_tried",
    "fvs_count.dj_calls",
    "multigraph.rebuilds",
    "multigraph.cycle_checks",
    "multigraph.chains_calls",
)


class Tracer:
    """Span stack, per-name time totals and counters for one traced run."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._in_rebuild = False
        self._dj_depth = 0
        self.missing: list[str] = []
        self.recording = False
        self.instance = -1
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Clear totals and counters (recorded spans are kept)."""
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.n_in = 0
        self.n_out = 0
        self.feasible_subsets = 0

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        index = -1
        if self.recording:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.instance])
        frame = [name, perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        self.total_s[frame[0]] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            self.spans[frame[3]][1:3] = [frame[1], end]

    def _spanned(self, name, original, after=None):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- install -------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        span = self._spanned
        c = self.counts

        def parsed(args, result):
            c["graph_io.bytes_in"] += len(args[0].encode())

        def written(args, result):
            c["graph_io.bytes_out"] += len(result.encode())

        def kernelized(args, result):
            g, k = args[0], args[1]
            if result is reduce.TRIVIALLY_ZERO:
                c["reduce.trivially_zero"] += 1
                return
            out, k_out = result
            c["reduce.peeled"] += k - k_out
            self.n_in += g.num_vertices
            self.n_out += out.num_vertices

        def approx(args, result):
            c["reduce.approx_fvs_calls"] += 1

        def degree_reduced(args, result):
            g, v = args[0], args[2]
            c["reduce.degree_reduce_calls"] += 1
            c["reduce.edges_dropped"] += g.degree(v) - result.degree(v)

        def replaced(args, result):
            if result is chain_gadget.TOO_LONG:
                c["chain_gadget.too_long"] += 1

        self._patch(cli, "main", lambda f: span("cli", f))
        self._patch(cli, "parse_instance", lambda f: span("graph_io.parse", f, parsed))
        self._patch(cli, "write_instance", lambda f: span("graph_io.write", f, written))
        self._patch(cli, "count_or_reduce", lambda f: span("driver", f))
        self._patch(cli, "count_min_fvs_pair", lambda f: span("fvs_count.count", f))
        self._patch(driver, "kernelize_fvs", lambda f: span("reduce.kernelize", f, kernelized))
        self._patch(driver, "replace_all_chains", lambda f: span("chain_gadget.replace", f, replaced))
        self._patch(driver, "count_min_fvs_pair", lambda f: span("fvs_count.count", f))
        self._patch(reduce, "approx_fvs", lambda f: span("reduce.approx_fvs", f, approx))
        self._patch(reduce, "degree_reduce", lambda f: span("reduce.degree_reduce", f, degree_reduced))
        self._patch(chain_gadget, "replace_chain", self._counted_replace_chain)
        self._patch(fvs_count, "approx_fvs", self._counted_counter_approx)
        self._patch(fvs_count, "_dj", self._counted_dj)
        for attr in REBUILDS:
            self._patch(MultiGraph, attr, self._rebuild)
        for attr in CYCLE_CHECKS:
            self._patch(MultiGraph, attr, self._cycle_check)
        self._patch(MultiGraph, "chains", self._counted_chains)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers that need more than a span ----------------------------------

    def _rebuild(self, original):
        def wrapper(*args, **kwargs):
            if self._in_rebuild:
                return original(*args, **kwargs)
            self.counts["multigraph.rebuilds"] += 1
            self._in_rebuild = True
            frame = self._enter("multigraph.rebuild")
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(frame)
                self._in_rebuild = False

        return wrapper

    def _cycle_check(self, original):
        def wrapper(*args, **kwargs):
            self.counts["multigraph.cycle_checks"] += 1
            frame = self._enter("multigraph.cycle_check")
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _counted_chains(self, original):
        def wrapper(*args, **kwargs):
            self.counts["multigraph.chains_calls"] += 1
            return original(*args, **kwargs)

        return wrapper

    def _counted_replace_chain(self, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.counts["chain_gadget.chains_replaced"] += 1
            self.counts["chain_gadget.exponent_sum"] += result[1] - args[2]
            return result

        return wrapper

    def _counted_counter_approx(self, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.counts["fvs_count.approx_size"] += len(result)
            return result

        return wrapper

    def _counted_dj(self, original):
        # a call made at depth 0 is one subset of the compression loop
        def wrapper(*args, **kwargs):
            self.counts["fvs_count.dj_calls"] += 1
            top = self._dj_depth == 0
            self._dj_depth += 1
            try:
                result = original(*args, **kwargs)
            finally:
                self._dj_depth -= 1
            if top:
                self.counts["fvs_count.subsets_tried"] += 1
                self.feasible_subsets += result.size != math.inf
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values accumulated since the last ``reset``; counters
        whose wrapped name is missing are left out rather than reported 0."""
        out: dict[str, float] = {}
        for metric, name in SELF_MS.items():
            out[metric] = 1000.0 * self.self_s[name]
        cli_total = self.total_s["cli"]
        for metric, names in SHARES.items():
            out[metric] = sum(self.total_s[n] for n in names) / cli_total if cli_total else 0.0
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["reduce.shrink_ratio"] = self.n_out / self.n_in if self.n_in else 0.0
        tried = self.counts["fvs_count.subsets_tried"]
        out["fvs_count.subset_yield"] = self.feasible_subsets / tried if tried else 0.0
        if "countkernel.fvs_count._dj" in self.missing:
            for name in ("fvs_count.dj_calls", "fvs_count.subsets_tried", "fvs_count.subset_yield"):
                out.pop(name)
        return out

    def self_time_check(self) -> float:
        """Sum of all self times minus the total time inside ``cli`` spans,
        in seconds; zero up to rounding when every span nests in one."""
        return sum(self.self_s.values()) - self.total_s["cli"]

    def write(self, path, meta: dict) -> None:
        """Write the recorded spans as JSON: one [name, start_s, end_s,
        parent index, instance index] list per span, times relative to
        the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "names": names, "spans": rows}, handle, separators=(",", ":"))
