"""Benchmark of the pmspec command line, end to end and layer by layer.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a pmspec checkout.  Every operation is one fresh
``python -m pmspec.cli ...`` process, run one at a time (a closed loop with
a single caller) and started through ``spawner.py``, which times it and
reads that child's own rusage for CPU time and peak RSS.  A run makes a
fixed number of whole rounds of its workload's operations, as many as fit in
``--seconds`` at the workload's nominal round cost, checks every output
against values computed in ``checks.py``, and prints one JSON object as its
last line.  ``--trace 1`` runs one plain round and one round through
``traced_op.py`` and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up samples per plain run, spread evenly between its operations so that
# their median spans the whole run, not one moment of it; about 0.2 s each
SETUP_SAMPLES = 20
SETUP_SAMPLE_S = 0.21
WARMUP = ["table", "--family", "pm", "--n", "4", "--format", "csv"]


def child_env(extra: dict) -> dict:
    """The fixed environment of every child process."""
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        # two BLAS threads on two shared cores made the dense solve track
        # neighbour load; the benchmark measures the single-thread solve
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    env.update(extra)
    return env


@dataclass
class Op:
    argv: list  # pmspec CLI arguments
    check: object  # stdout text -> list of problems
    env: dict = field(default_factory=dict)
    known_fault: str | None = None  # the error a known program fault ends in


@dataclass
class Sample:
    argv: list
    wall: float
    cpu: float
    rss_mb: float
    status: int
    problems: list
    stderr_tail: str
    trace: dict | None
    known_fault: str | None

    @property
    def failed(self) -> bool:
        return self.status != 0 or bool(self.problems)

    @property
    def sound(self) -> bool:
        """Output accepted, or failed with nothing but its known fault."""
        if self.problems:
            return False
        return self.status == 0 or (self.known_fault is not None and self.known_fault in self.stderr_tail)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def tables_ops(rng):
    ops = []
    for family, n in (("pm", 36), ("sym", 38)):
        for fmt in ("csv", "json"):
            ops.append(Op(
                ["table", "--family", family, "--n", str(n), "--format", fmt],
                lambda text, fmt=fmt, family=family, n=n: checks.check_table(text, fmt, family, n, rng),
            ))
    return ops


VERIFY_N_MAX = 18


def verify_ops(rng):
    def suite(name):
        return lambda text: checks.check_suite_json(
            text, name, VERIFY_N_MAX, checks.expected_checks_run(name, VERIFY_N_MAX)
        )

    def scan(text):
        return checks.check_scan_text(text, VERIFY_N_MAX, checks.expected_checks_run("scan", VERIFY_N_MAX))

    return [
        Op(["verify", "--suite", "thm6", "--n-max", str(VERIFY_N_MAX), "--format", "json"], suite("thm6")),
        Op(["verify", "--suite", "kuwong-xi", "--n-max", str(VERIFY_N_MAX), "--format", "json"], suite("kuwong-xi")),
        Op(["scan", "--n-max", str(VERIFY_N_MAX)], scan),
    ]


def oracle_ops(rng):
    return [
        Op(["oracle", "--family", "sym", "--n", "7", "--format", "json"],
           lambda text: checks.check_oracle_json(text, "sym", 7), env={"PMSPEC_ORACLE_CAP": "7"}),
        Op(["oracle", "--family", "pm", "--n", "5", "--format", "json"],
           lambda text: checks.check_oracle_json(text, "pm", 5)),
    ]


def _random_partition(rng, n, max_part):
    parts, rest = [], n
    while rest:
        part = rng.randint(1, min(rest, max_part))
        parts.append(part)
        rest -= part
    return tuple(sorted(parts, reverse=True))


def _many_parts(rng):
    return tuple(sorted((rng.choice((1, 2, 3)) for _ in range(rng.randint(150, 300))), reverse=True))


def query_shapes(rng):
    """40 (family, partition) queries: the mix is fixed, the seed picks the
    shapes.  Seeded shapes have at most 300 parts and, beyond one- and
    two-part shapes, parts of at most 60: well inside the recursion depth
    the program survives."""
    shapes = []
    for family in ("pm", "sym"):
        shapes += [(family, _random_partition(rng, rng.randint(2, 14), 14)) for _ in range(7)]
        shapes += [(family, _random_partition(rng, rng.randint(100, 300), 60)) for _ in range(5)]
        shapes += [(family, _many_parts(rng)) for _ in range(4)]
    m = rng.randint
    a, b, k = m(1, 100), m(0, 150), m(3, 300)
    shapes += [
        ("pm", (1,) * m(50, 300)),
        ("pm", (2,) * a + (1,) * b),
        ("pm", (m(2, 300),)),
        ("sym", (1,) * m(50, 300)),
        ("sym", (m(2, 300),)),
        ("sym", (k - 1, 1)),
    ]
    # seed-independent: over 500 parts, eta overflows the recursion limit
    shapes += [("pm", (1,) * 600), ("pm", (2,) * 300 + (1,) * 250)]
    return shapes


def query_ops(rng):
    ops = []
    for family, lam in query_shapes(rng):
        command = "eta" if family == "pm" else "xi"
        ops.append(Op(
            [command, "--partition", "+".join(map(str, lam))],
            lambda text, family=family, lam=lam: checks.check_query(text, family, lam),
            # _eta_strip recurses one Python frame per part
            known_fault="RecursionError" if family == "pm" and len(lam) > 500 else None,
        ))
    return ops


# workload -> (operations of one round, nominal seconds of one plain round on
# a 2-vCPU host, with some room for a slow spell)
WORKLOADS = {
    "tables": (tables_ops, 16.0),
    "verify": (verify_ops, 11.0),
    "oracle": (oracle_ops, 22.0),
    "query": (query_ops, 10.5),
}


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------


class Spawner:
    """Runs commands through ``spawner.py``, a small process of its own, so
    that each child's peak RSS is its own and not this process's."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT, env=child_env({}), start_new_session=True,
        )
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            # also stops an operation still running in the spawner's group
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd, env, stdout_path, stderr_path):
        """Run cmd to completion; return (wall s, cpu s, peak RSS MB, exit status)."""
        request = {"cmd": cmd, "env": env, "stdout": str(stdout_path), "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        reply = json.loads(line)
        # ru_maxrss is in KiB on Linux; report decimal megabytes
        return reply["wall"], reply["cpu"], reply["maxrss_kb"] * 1024 / 1e6, reply["status"]


def run_op(spawner: Spawner, op: Op, traced: bool) -> Sample:
    stdout_path, stderr_path, trace_path = OUT / "op.stdout", OUT / "op.stderr", OUT / "op.trace.json"
    if traced:
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "traced_op.py"), str(trace_path), *op.argv]
    else:
        cmd = [sys.executable, "-m", "pmspec.cli", *op.argv]
    wall, cpu, rss, status = spawner.run(cmd, child_env(op.env), stdout_path, stderr_path)
    stderr = stderr_path.read_text(errors="replace").strip().splitlines()
    problems = op.check(stdout_path.read_text()) if status == 0 else []
    trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
    return Sample(op.argv, wall, cpu, rss, status, problems, stderr[-1] if stderr else "", trace, op.known_fault)


def setup_seconds(spawner: Spawner) -> float:
    """Wall time of a fresh interpreter that imports pmspec.cli and exits."""
    wall, _, _, status = spawner.run(
        [sys.executable, "-c", "import pmspec.cli"], child_env({}), OUT / "setup.stdout", OUT / "setup.stderr"
    )
    if status != 0:
        raise SystemExit(f"importing pmspec.cli failed: see {OUT / 'setup.stderr'}")
    return wall


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _succeeded(rounds):
    """Each round's operations that did not fail; every round fails the same
    ones, so the rounds stay comparable."""
    return [[s for s in r if not s.failed] for r in rounds]


def end_to_end(rounds, setup):
    rounds = _succeeded(rounds)
    walls = [s.wall for r in rounds for s in r]
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(s.wall for s in r) for r in rounds), "s"),
        "cpu_s": (statistics.median(sum(s.cpu for s in r) for r in rounds), "s"),
        "peak_rss_mb": (max(s.rss_mb for r in rounds for s in r), "MB"),
        "op_s.p50": (statistics.median(walls), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _span_sum(field_name, span):
    return lambda traces: sum(t[field_name].get(span, 0) for t in traces)


def _counter(name, combine=sum):
    return lambda traces: combine([t["counters"].get(name, 0) for t in traces] or [0])


def _cache_entries(traces):
    found = [t["pm_cache_entries"] for t in traces if t["pm_cache_entries"] is not None]
    return max(found) if found else None


# per-layer metric -> (unit, value from one round's traces, span it depends on)
LAYER_METRICS = {
    "cli.import_s": ("s", lambda traces: statistics.median(t["import_s"] for t in traces), None),
    "partitions.enumerate_s": ("s", _span_sum("total_s", "partitions.enumerate"), "partitions.enumerate"),
    "partitions.enumerate_count": ("count", _counter("partitions.enumerate_count"), "partitions.enumerate"),
    "partitions.construct_calls": ("count", _counter("partitions.construct_calls"), "partitions.construct"),
    "partitions.dominance_compare_s": ("s", _span_sum("total_s", "partitions.dominance_compare"),
                                       "partitions.dominance_compare"),
    "partitions.dominance_compare_calls": ("count", _span_sum("calls", "partitions.dominance_compare"),
                                           "partitions.dominance_compare"),
    "partitions.dominance_chain_s": ("s", _span_sum("total_s", "partitions.dominance_chain"),
                                     "partitions.dominance_chain"),
    "partitions.dominance_chain_calls": ("count", _span_sum("calls", "partitions.dominance_chain"),
                                         "partitions.dominance_chain"),
    "pm_spectrum.eta_s": ("s", _span_sum("total_s", "pm_spectrum.eta"), "pm_spectrum.eta"),
    "pm_spectrum.eta_calls": ("count", _span_sum("calls", "pm_spectrum.eta"), "pm_spectrum.eta"),
    "pm_spectrum.cache_entries": ("count", _cache_entries, None),
    "sym_spectrum.xi_s": ("s", _span_sum("total_s", "sym_spectrum.xi"), "sym_spectrum.xi"),
    "sym_spectrum.xi_calls": ("count", _span_sum("calls", "sym_spectrum.xi"), "sym_spectrum.xi"),
    "exact.irrep_dimension_s": ("s", _span_sum("total_s", "exact.irrep_dimension"), "exact.irrep_dimension"),
    "exact.irrep_dimension_calls": ("count", _span_sum("calls", "exact.irrep_dimension"),
                                    "exact.irrep_dimension"),
    "tables.render_s": ("s", _span_sum("total_s", "tables.render"), "tables.render"),
    "tables.render_bytes": ("B", _counter("tables.render_bytes"), "tables.render"),
    "analysis.suite_s": ("s", _span_sum("total_s", "analysis.suite"), "analysis.suite"),
    "analysis.self_s": ("s", _span_sum("self_s", "analysis.suite"), "analysis.suite"),
    "analysis.checks_run": ("count", _counter("analysis.checks_run"), "analysis.suite"),
    "oracle.build_s": ("s", _span_sum("total_s", "oracle.build"), "oracle.build"),
    "oracle.solve_s": ("s", _span_sum("total_s", "oracle.solve"), "oracle.solve"),
    "oracle.match_s": ("s", _span_sum("self_s", "oracle.certify"), "oracle.certify"),
    "oracle.vertices": ("count", _counter("oracle.vertices"), "oracle.build"),
    "oracle.matrix_mb": ("MB", _counter("oracle.matrix_mb", max), "oracle.build"),
}


def per_layer(plain_rounds, traced_rounds):
    metrics = {}
    round_traces = [[s.trace for s in r if s.trace is not None] for r in traced_rounds]
    for name, (unit, value_of, span) in LAYER_METRICS.items():
        absent = span is not None and all(span in t["absent"] for traces in round_traces for t in traces)
        values = [value_of(traces) for traces in round_traces if traces]
        values = [v for v in values if v is not None]
        if absent or not values:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = sum(s.wall for r in _succeeded(traced_rounds) for s in r) - sum(
        s.wall for r in _succeeded(plain_rounds) for s in r
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def round_count(name: str, seconds: float) -> int:
    """Plain rounds of a run: as many as fit in ``seconds`` beside the
    warm-up and the set-up samples, at least one.  The count depends on
    ``seconds`` alone, so every run of a workload attempts the same
    operations."""
    budget = seconds - 1 - SETUP_SAMPLES * SETUP_SAMPLE_S
    return max(1, int(budget // WORKLOADS[name][1]))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = WORKLOADS[name][0](random.Random(seed))
    warmup = Op(WARMUP, lambda text: checks.check_table(text, "csv", "pm", 4, random.Random(0)))
    rounds = 1 if trace else round_count(name, seconds)
    # one set-up sample before each listed position of the run's operations
    setup_at = [] if trace else [i * rounds * len(ops) // SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    with Spawner() as spawner:
        warm = run_op(spawner, warmup, False)
        if warm.failed:
            raise SystemExit(f"warm-up operation failed: {warm.stderr_tail or warm.problems}")
        setup, plain = [], []
        for r in range(rounds):
            plain.append([])
            for i, op in enumerate(ops):
                position = r * len(ops) + i
                setup += [setup_seconds(spawner) for _ in range(setup_at.count(position))]
                plain[-1].append(run_op(spawner, op, False))
        traced = [[run_op(spawner, op, True) for op in ops]] if trace else []

    samples = [s for r in plain + traced for s in r]
    if all(s.failed for s in samples):
        first = samples[0]
        raise SystemExit(f"every {name} operation failed; the first: exit status {first.status}, "
                         f"{first.stderr_tail or first.problems}")
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setup)
    result = {
        "correct": all(s.sound for s in samples),
        "attempted": len(samples),
        "failed": sum(s.failed for s in samples),
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "result": result,
        "setup_s": setup, "rounds": {"plain": len(plain), "traced": len(traced)},
        "operations": [
            {"argv": " ".join(s.argv)[:120], "traced": s.trace is not None, "wall_s": s.wall, "cpu_s": s.cpu,
             "rss_mb": s.rss_mb, "status": s.status, "problems": s.problems[:5],
             "stderr_tail": s.stderr_tail if s.failed else "", "sound": s.sound}
            for s in samples
        ],
        "traces": [s.trace for s in samples if s.trace is not None][: len(ops)],
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pmspec" / "cli.py").is_file():
        print(f"perfbench: no pmspec sources at {SRC / 'pmspec'}; run from a pmspec checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        shown = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()
                          if m["value"] is not None)
        print(f"{name:7s} attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}  {shown}")
        combined["metrics"].update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
