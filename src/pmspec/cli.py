"""Command line front end.

Subcommands map one-to-one onto library operations:

    pmspec eta    --partition 3+2+1
    pmspec xi     --partition 2+1
    pmspec table  --n 3 [--family pm|sym] [--format text|csv|json]
    pmspec verify --suite thm6 --n-max 14 [--format text|json]
    pmspec oracle --n 4 [--family pm|sym] [--format text|json]
    pmspec scan   --n-max 12 [--progress]

Exit codes: 0 success/pass, 1 verification failure, 2 usage error, out of
memory, or a failed write to stdout (a closed pipe, a full disk, a closed
stdout).  All numbers print in plain decimal; identical invocations produce
byte-identical json/csv output.

:func:`main` is the in-process API: it returns the exit status and leaves
the process running.  :func:`run` is the process entry of
``python -m pmspec.cli`` and of the ``pmspec`` script: it runs :func:`main`,
flushes stdout and stderr, and ends the process with ``os._exit``, so no
interpreter teardown and no ``atexit`` handler runs.  Embedders and coverage
runs should call :func:`main`.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis
from .exact import admit_query, admit_table
from .partitions import Partition, parse_digits
from .pm_spectrum import eta, pm_spectrum_table
from .sym_spectrum import sym_spectrum_table, xi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmspec",
        description="Exact eigenvalues of the matching and permutation derangement graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eta = sub.add_parser("eta", help="eigenvalue of the matching family for one partition")
    p_eta.add_argument("--partition", required=True, help="'+'-joined parts, e.g. 3+2+1; '0' for empty")

    p_xi = sub.add_parser("xi", help="eigenvalue of the permutation family for one partition")
    p_xi.add_argument("--partition", required=True)

    p_table = sub.add_parser("table", help="full spectrum table for one n")
    p_table.add_argument("--n", type=parse_digits, required=True)
    p_table.add_argument("--family", choices=("pm", "sym"), default="pm")
    p_table.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=analysis.SUITE_NAMES)
    p_verify.add_argument("--n-max", type=parse_digits, required=True)
    p_verify.add_argument("--format", choices=("json", "text"), default="text")

    p_oracle = sub.add_parser("oracle", help="certify a table against the real graph")
    p_oracle.add_argument("--family", choices=("pm", "sym"), default="pm")
    p_oracle.add_argument("--n", type=parse_digits, required=True)
    p_oracle.add_argument("--format", choices=("json", "text"), default="text")

    p_scan = sub.add_parser("scan", help="exploratory conjecture scan (always exit 0)")
    p_scan.add_argument("--n-max", type=parse_digits, required=True)
    p_scan.add_argument("--progress", action="store_true")

    return parser


def _cmd_eta(args) -> int:
    lam = Partition.from_text(args.partition)
    admit_query("pm", lam)
    value = eta(lam)  # raises on a sign off the pattern
    print(f"partition: {lam.to_text()}")
    print(f"eta: {value.eta}")
    print(f"f: {value.f}")
    print("sign-pattern: ok")
    return 0


def _cmd_xi(args) -> int:
    mu = Partition.from_text(args.partition)
    admit_query("sym", mu)
    value = xi(mu)
    print(f"partition: {mu.to_text()}")
    print(f"xi: {value.xi}")
    return 0


def _cmd_table(args) -> int:
    if args.n < 1:
        return _usage_error("--n must be at least 1")
    admit_table(args.family, args.n)
    table = pm_spectrum_table(args.n) if args.family == "pm" else sym_spectrum_table(args.n)
    table.write(sys.stdout, args.format)
    return 0


def _write_report(report, fmt: str) -> int:
    sys.stdout.write(report.to_json() if fmt == "json" else report.to_text())
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    return _write_report(analysis.run_suite(args.suite, args.n_max), args.format)


def _cmd_oracle(args) -> int:
    from . import oracle  # this command alone builds graphs

    if args.family == "pm":
        graph = oracle.build_pm_graph(args.n)
        table = pm_spectrum_table(args.n)
    else:
        graph = oracle.build_derangement_graph(args.n)
        table = sym_spectrum_table(args.n)
    return _write_report(oracle.certify(table, graph), args.format)


def _cmd_scan(args) -> int:
    progress = None
    if args.progress:
        def progress(n, checks):
            print(f"scan: finished n={n} ({checks} checks so far)", file=sys.stderr)
    report = analysis.scan_cross_gap_conjecture(args.n_max, progress=progress)
    if report.failure_count:
        print("*** CONJECTURE VIOLATIONS FOUND ***")
        for item in report.failures:
            print(f"  violation: {item}")
        print(f"*** total violations: {report.failure_count} ***")
    else:
        print(f"0 violations in {report.checks_run} dominated pairs (n <= {args.n_max})")
    return 0


def _usage_error(message: str) -> int:
    print(f"pmspec: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    """Run the command that ``argv`` (``sys.argv[1:]`` by default) names and
    return its exit status.  argparse raises ``SystemExit`` for ``--help``
    and for the usage errors it finds itself."""
    # exact eigenvalues run to thousands of digits (eta at 1600 has about
    # 4,900); lift the decimal conversion limit, which Python gained in 3.10.7
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        set_limit(0)
    args = _build_parser().parse_args(argv)
    handlers = {
        "eta": _cmd_eta,
        "xi": _cmd_xi,
        "table": _cmd_table,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "scan": _cmd_scan,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        return _usage_error(str(exc))
    except MemoryError:
        pass  # reported below, once the traceback and the frames it keeps alive are freed
    return _usage_error("out of memory, though the memory check admitted this input; discard any output written")


class _WriteFailed(Exception):
    """A write to stdout failed, told apart from an OSError anywhere else."""


class _Stdout:
    """The stdout that :func:`run` hands to the commands: its failed writes
    raise :class:`_WriteFailed`, and all else is the stream's own."""

    def __init__(self, stream) -> None:
        self.stream = stream

    def __getattr__(self, name: str):
        return getattr(self.stream, name)

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except OSError as exc:
            raise _WriteFailed(exc) from None


def run() -> None:
    """Run :func:`main` as the process, and end it at once with its status:
    the status argparse exits with, or 2 with one ``pmspec: error:`` line
    when stdout is closed or a write to it fails.  Nothing but stdout and
    stderr is flushed, and no ``atexit`` handler runs; it never returns."""
    stdout = sys.stdout
    try:
        if stdout is None:
            raise _WriteFailed("stdout is closed")
        sys.stdout = _Stdout(stdout)
        try:
            status = main()
        except SystemExit as exc:  # argparse: --help, or a usage error it found
            status = exc.code
        try:
            stdout.flush()
        except OSError as exc:
            raise _WriteFailed(exc) from None
    except _WriteFailed as exc:
        status = _usage_error(f"cannot write output: {exc}")
    if sys.stderr is not None:  # closed, as stdout can be
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
