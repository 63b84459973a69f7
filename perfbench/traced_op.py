"""Run one pmspec CLI command with timing and counting wrappers installed.

    python perfbench/traced_op.py TRACE_OUT.json <pmspec arguments...>

Behaves like ``python -m pmspec.cli <arguments>`` (same stdout, stderr and
exit status) but first replaces the public names each calling module looks
up, such as ``pmspec.pm_spectrum.eta`` or ``pmspec.oracle.numeric_spectrum``,
with wrappers that record spans.  A span has a name, a start, an end and a
parent; a layer's self time is its spans minus their child spans.  Spans are
aggregated per name as they close (per-call records for millions of calls
would cost more than the work measured); the first spans are also kept raw.
When the command ends, the aggregates and counters go to TRACE_OUT.json.

A name that no longer exists is listed under ``absent`` instead of failing,
so the trace keeps working when a later version of pmspec removes it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

RAW_SPAN_LIMIT = 2000


class Tracer:
    """Span aggregates and counters.  ``verify`` runs its suites on a thread
    pool by default, so each thread keeps its own span stack and totals,
    merged when the command ends; the hot path takes no lock."""

    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.threads = []  # per-thread state: {"stack", "calls", "total", "self", "raw"}
        self.counters = {}
        self.constructions = itertools.count()

    def count(self, name, amount=1):
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _state(self):
        state = self.local.__dict__.get("state")
        if state is None:
            state = {"stack": [], "calls": {}, "total": {}, "self": {}, "raw": []}
            self.local.state = state
            with self.lock:
                self.threads.append(state)
        return state

    def call(self, name, fn, args, kwargs, on_result):
        state = self._state()
        stack = state["stack"]  # open spans: [name, start, seconds in child spans]
        # a recursive call of a traced name is part of the outer span
        if any(open_span[0] == name for open_span in stack):
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else None
        span = [name, time.perf_counter(), 0.0]
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - span[1]
            if stack:
                stack[-1][2] += duration
            calls, total, self_time = state["calls"], state["total"], state["self"]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - span[2]
            if len(state["raw"]) < RAW_SPAN_LIMIT:
                state["raw"].append((name, span[1], end, parent))
        if on_result is not None:
            on_result(self, result)
        return result

    def merged(self, key):
        out = {}
        for state in self.threads:
            for name, value in state[key].items():
                out[name] = out.get(name, 0) + value
        return out


def _wrap(tracer, name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_result)

    return wrapper


def _count_rows(tracer, result):
    tracer.count("partitions.enumerate_count", len(result))


def _count_bytes(tracer, result):
    tracer.count("tables.render_bytes", len(result.encode()))


def _count_checks(tracer, result):
    tracer.count("analysis.checks_run", result.checks_run)


def _count_graph(tracer, result):
    vertices = result.vertex_count
    tracer.count("oracle.vertices", vertices)
    # the dense solve converts the adjacency to a float64 V x V matrix
    matrix_mb = vertices * vertices * 8 / 1e6
    with tracer.lock:
        tracer.counters["oracle.matrix_mb"] = max(tracer.counters.get("oracle.matrix_mb", 0.0), matrix_mb)


# span name -> ([(module, attribute), ...], result hook).  Each attribute is
# replaced wherever a calling module looks the function up.
TARGETS = {
    "partitions.enumerate": (
        [("partitions", "enumerate_partitions"), ("pm_spectrum", "enumerate_partitions"),
         ("sym_spectrum", "enumerate_partitions"), ("analysis", "enumerate_partitions")],
        _count_rows,
    ),
    "partitions.dominance_compare": (
        [("partitions", "dominance_compare"), ("analysis", "dominance_compare")], None,
    ),
    "partitions.dominance_chain": (
        [("partitions", "dominance_chain"), ("analysis", "dominance_chain")], None,
    ),
    "pm_spectrum.eta": (
        [("pm_spectrum", "eta"), ("analysis", "eta"), ("cli", "eta")], None,
    ),
    "sym_spectrum.xi": (
        [("sym_spectrum", "xi_by_first_part"), ("analysis", "xi_by_first_part"),
         ("sym_spectrum", "xi"), ("cli", "xi")],
        None,
    ),
    "exact.irrep_dimension": (
        [("exact", "irrep_dimension"), ("pm_spectrum", "irrep_dimension"),
         ("sym_spectrum", "irrep_dimension")],
        None,
    ),
    "tables.render": (
        [("tables.SpectrumTable", "to_csv"), ("tables.SpectrumTable", "to_json")], _count_bytes,
    ),
    # the per-range suite functions, not the run_suite dispatcher: verify runs
    # them on a thread pool by default, and only spans opened inside a worker
    # thread see that thread's child spans
    "analysis.suite": (
        [("analysis", name)
         for name in ("verify_abs_dominance", "verify_xi_comparison", "scan_cross_gap_conjecture")],
        _count_checks,
    ),
    "oracle.build": (
        [("oracle", "build_pm_graph"), ("oracle", "build_derangement_graph")], _count_graph,
    ),
    "oracle.solve": ([("oracle", "numeric_spectrum")], None),
    "oracle.certify": ([("oracle", "certify")], None),
}


def _resolve(path):
    module_name, _, attr = path.partition(".")
    try:
        obj = importlib.import_module(f"pmspec.{module_name}")
    except ImportError:
        return None
    return getattr(obj, attr, None) if attr else obj


def install(tracer):
    """Replace every target name; return the span names with no target left."""
    absent = []
    for span_name, (targets, hook) in TARGETS.items():
        wrapped = {}  # one wrapper per original function
        found = False
        for owner_path, attr in targets:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            found = True
            key = id(fn)
            if key not in wrapped:
                wrapped[key] = _wrap(tracer, span_name, fn, hook)
            setattr(owner, attr, wrapped[key])
        if not found:
            absent.append(span_name)

    partition_cls = getattr(_resolve("partitions"), "Partition", None)
    if partition_cls is None:
        absent.append("partitions.construct")
    else:
        original_new = partition_cls.__new__

        def counting_new(cls, *args, **kwargs):
            next(tracer.constructions)  # atomic under the interpreter lock
            return original_new(cls, *args, **kwargs)

        partition_cls.__new__ = staticmethod(counting_new)
    return absent


def cache_entries(namespace):
    """Total entries of the module-level caches that expose cache_info()."""
    sizes = [
        obj.cache_info().currsize
        for obj in namespace.values()
        if callable(getattr(obj, "cache_info", None))
    ]
    return sum(sizes) if sizes else None


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import pmspec.cli
    import pmspec.pm_spectrum

    import_s = time.perf_counter() - start
    tracer = Tracer()
    pm_names = dict(vars(pmspec.pm_spectrum))  # before any name is wrapped
    absent = install(tracer)
    status = 1
    try:
        status = tracer.call("cli.main", pmspec.cli.main, (cli_args,), {}, None)
    finally:
        sys.stdout.flush()
        entries = cache_entries(pm_names)
        tracer.counters["partitions.construct_calls"] = next(tracer.constructions)
        record = {
            "import_s": import_s,
            "calls": tracer.merged("calls"),
            "total_s": tracer.merged("total"),
            "self_s": tracer.merged("self"),
            "counters": tracer.counters,
            "pm_cache_entries": entries,
            "absent": absent,
            "spans": [span for state in tracer.threads for span in state["raw"]][:RAW_SPAN_LIMIT],
        }
        with open(trace_path, "w") as handle:
            json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
