"""Per-layer spans and counters for the benchmark's traced run.

The layers are arborsim's modules. The tracer wraps their public entry
points from outside the package: a module-level function is replaced at
every binding in every loaded ``arborsim`` module (the package imports
names with ``from ... import``, so patching only the defining module would
miss most calls), and a method is replaced on its class. For a generator
function, each pull by the consumer is one span, so the span covers the
work done on the consumer's behalf and not the consumer's own work between
pulls.

A span's self time is its duration minus the durations of the spans it
contains. A ``*_s`` metric sums the self times of its spans. Public
functions that are not listed in ``SPANS`` (for example
``strongly_connected_components``, called only from
``has_spanning_arborescence``) stay unwrapped, so their time is self time
of the listed caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import arborsim.edgelist  # noqa: F401  (loaded so its bindings get wrapped)
import arborsim.experiments  # noqa: F401


def _useful_edges(tr, args, kwargs, ht, elapsed):
    tr.counts["process.useful_edges"] += max(
        m for m in (ht.m_c, ht.m_z, ht.m_a, ht.m_r) if m is not None)


def _graph_at_edges(tr, args, kwargs, g, elapsed):
    tr.counts["process.graph_at_edges"] += args[1] if len(args) > 1 else kwargs["m"]


def _assign_fail(tr, args, kwargs, assignment, elapsed):
    if assignment is None:
        tr.counts["matching.assign_fails"] += 1


def _heuristic_success(tr, args, kwargs, outcome, elapsed):
    if outcome.success:
        tr.counts["rainbow.heuristic_successes"] += 1


def _decide_unknown(tr, args, kwargs, result, elapsed):
    if result.outcome == "unknown":
        tr.counts["rainbow.unknown"] += 1


def _exact_max(tr, args, kwargs, cert, elapsed):
    tr.exact_ms_max = max(tr.exact_ms_max, elapsed * 1000.0)


# (module, function or Class.method, self-time key, count keys, hook).
# For a generator function the count keys count yielded items.
SPANS = [
    ("arborsim.rng", "SplitMix64.next_u64", "rng.s", ("rng.draws",), None),
    ("arborsim.rng", "SplitMix64.below", "rng.s", (), None),
    ("arborsim.rng", "SplitMix64.unit", "rng.s", (), None),
    ("arborsim.rng", "SplitMix64.unit_positive", "rng.s", (), None),
    ("arborsim.rng", "SplitMix64.sample_distinct", "rng.s", (), None),
    ("arborsim.rng", "derive_trial_seed", "rng.s", (), None),
    ("arborsim.rng", "derive_stream_seed", "rng.s", (), None),
    ("arborsim.process", "generate_trace", "process.s", (), None),
    ("arborsim.process", "sample_dnp", "process.s", (), None),
    ("arborsim.process", "ProcessTrace.prefix_pairs", "process.s",
     ("process.edges_streamed",), None),
    ("arborsim.process", "ProcessTrace.prefix_colours", "process.s", (), None),
    ("arborsim.process", "ProcessTrace.prefix", "process.s", (), None),
    ("arborsim.process", "ProcessTrace.materialize", "process.s", (), None),
    ("arborsim.process", "ProcessTrace.graph_at", "process.s",
     ("process.graph_at_calls",), _graph_at_edges),
    ("arborsim.process", "ProcessTrace.export", "process.s", (), None),
    ("arborsim.digraph", "ColouredDigraph.add_edge", "digraph.add_edge_s",
     ("digraph.add_edge_calls",), None),
    ("arborsim.digraph", "has_spanning_arborescence", "digraph.arb_test_s",
     ("digraph.arb_tests",), None),
    ("arborsim.digraph", "reachable_from", "digraph.reach_s",
     ("digraph.reach_calls",), None),
    ("arborsim.hitting", "hitting_times", "hitting.s", ("hitting.calls",), _useful_edges),
    ("arborsim.hitting", "event_holds", "hitting.s", (), None),
    ("arborsim.matching", "build_colour_bigraph", "matching.s",
     ("matching.bigraph_builds",), None),
    ("arborsim.matching", "find_colour_assignment", "matching.s",
     ("matching.assign_calls",), _assign_fail),
    ("arborsim.matching", "find_k_witness", "matching.s", (), None),
    ("arborsim.matching", "materialize_assignment", "matching.s", (), None),
    ("arborsim.rainbow", "decide", "rainbow.decide_s", ("rainbow.decide_calls",),
     _decide_unknown),
    ("arborsim.rainbow", "heuristic_construct", "rainbow.heuristic_s",
     ("rainbow.heuristic_calls",), _heuristic_success),
    ("arborsim.rainbow", "decide_exact", "rainbow.exact_s", ("rainbow.exact_calls",),
     _exact_max),
    ("arborsim.rainbow", "verify_certificate", "rainbow.verify_s",
     ("rainbow.verify_calls",), None),
    ("arborsim.rainbow", "brute_force_oracle", "rainbow.exact_s", (), None),
    ("arborsim.edgelist", "load", "edgelist.load_s", ("edgelist.load_calls",), None),
    ("arborsim.experiments", "run_theorem_experiment", "experiments.self_s", (), None),
    ("arborsim.experiments", "run_poisson_experiment", "experiments.self_s", (), None),
    ("arborsim.experiments", "run_coupon_experiment", "experiments.self_s", (), None),
    ("arborsim.experiments", "run_degree_property_experiment", "experiments.self_s", (), None),
    ("arborsim.experiments", "run_mapping_experiment", "experiments.self_s", (), None),
]

# Extra counts for calls made through one module's binding of a name: the
# probes that hitting_times makes while searching for m_A and m_R.
BINDING_COUNTS = {
    ("arborsim.hitting", "has_spanning_arborescence"): "hitting.arb_probes",
    ("arborsim.hitting", "decide"): "hitting.rainbow_probes",
}


class Tracer:
    """Spans and counts of one traced pass; ``with tracer:`` installs it."""

    def __init__(self):
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.exact_ms_max = 0.0
        # Time covered by child spans, one entry per open span over a root.
        self._child = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "arborsim" or name.startswith("arborsim.")]
        for modname, qualname, time_key, count_keys, hook in SPANS:
            owner = importlib.import_module(modname)
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(vars(cls)[attr], time_key, count_keys, hook))
                continue
            fn = getattr(owner, attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        extra = BINDING_COUNTS.get((module.__name__, name))
                        keys = count_keys + (extra,) if extra else count_keys
                        self._patch(module, name, self._wrap(fn, time_key, keys, hook))
        return self

    def __exit__(self, *exc):
        while self._restore:
            target, name, original = self._restore.pop()
            setattr(target, name, original)

    def _patch(self, target, name, wrapper):
        self._restore.append((target, name, getattr(target, name)))
        setattr(target, name, wrapper)

    def _wrap(self, fn, time_key, count_keys, hook):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return self._pulls(fn(*args, **kwargs), time_key, count_keys)
            return generator_wrapper

        child = self._child
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in count_keys:
                counts[key] += 1
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[time_key] += elapsed - child.pop()
                child[-1] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result
        return wrapper

    def _pulls(self, gen, time_key, count_keys):
        child = self._child
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter
        while True:
            child.append(0.0)
            start = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                self_s[time_key] += elapsed - child.pop()
                child[-1] += elapsed
            for key in count_keys:
                counts[key] += 1
            yield item

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        c, s = self.counts, self.self_s

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {}
        for name in ("rng.draws", "process.edges_streamed", "process.graph_at_calls",
                     "process.graph_at_edges", "digraph.add_edge_calls",
                     "digraph.arb_tests", "digraph.reach_calls", "hitting.calls",
                     "hitting.arb_probes", "hitting.rainbow_probes",
                     "matching.bigraph_builds", "matching.assign_calls",
                     "rainbow.decide_calls", "rainbow.heuristic_calls",
                     "rainbow.exact_calls", "rainbow.verify_calls", "rainbow.unknown",
                     "edgelist.load_calls"):
            out[name] = (c[name], "count")
        for name in ("rng.s", "process.s", "digraph.add_edge_s", "digraph.arb_test_s",
                     "digraph.reach_s", "hitting.s", "matching.s", "rainbow.decide_s",
                     "rainbow.heuristic_s", "rainbow.exact_s", "rainbow.verify_s",
                     "edgelist.load_s", "experiments.self_s"):
            out[name] = (s[name], "s")
        out["process.useful_edge_ratio"] = (
            ratio("process.useful_edges", "process.edges_streamed"), "ratio")
        out["matching.assign_fail_ratio"] = (
            ratio("matching.assign_fails", "matching.assign_calls"), "ratio")
        out["rainbow.heuristic_success_ratio"] = (
            ratio("rainbow.heuristic_successes", "rainbow.heuristic_calls"), "ratio")
        out["rainbow.exact_ms_max"] = (self.exact_ms_max, "ms")
        return out
