import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pmspec import analysis, cli, exact, oracle
from pmspec.cli import main
from pmspec.exact import pm_degree
from pmspec.partitions import Partition
from pmspec.pm_spectrum import f_closed_form_2a1b, pm_spectrum_table
from pmspec.sym_spectrum import xi_by_last_part
from pmspec.tables import SpectrumTable
from test_golden_reports import GOLDEN, _install_fault


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eta_command(capsys):
    code, out, _ = run(capsys, "eta", "--partition", "3+2+1")
    assert code == 0
    assert "eta: -14" in out and "f: 14" in out and "sign-pattern: ok" in out


def test_eta_empty_partition(capsys):
    code, out, _ = run(capsys, "eta", "--partition", "0")
    assert code == 0 and "eta: 1" in out


def test_eta_parse_error(capsys):
    # int() alone would read '1_0' as 10 and an Arabic-Indic digit as 3
    for command, text in (("eta", "2+3"), ("eta", "1_0"), ("xi", "\u0663")):
        code, out, err = run(capsys, command, "--partition", text)
        assert code == 2 and "error" in err and out == ""


def test_xi_command(capsys):
    code, out, _ = run(capsys, "xi", "--partition", "2+1")
    assert code == 0 and "xi: -1" in out


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--n", "3", "--family", "pm", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "partition,eigenvalue,multiplicity",
        "3,8,1",
        "2+1,-2,9",
        "1+1+1,2,5",
    ]
    code, out, _ = run(capsys, "table", "--n", "3", "--family", "sym", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["3,2,1", "2+1,-1,4", "1+1+1,2,1"]


@pytest.mark.parametrize(
    "family, digest",
    [
        ("pm", "5052bb82aed2a2204cee31f4dac947c9f920f75ee7267c68682c501eb632fd98"),
        ("sym", "b40667d1895867d0feb8a249ab2d7fbfa6692b3f0f03c918a30b0e53eb21f45a"),
    ],
    ids=["pm", "sym"],
)
def test_table_csv_golden_digest(capsys, family, digest):
    # sha256 of the n = 30 csv, recorded before the table engine was rebuilt
    code, out, _ = run(capsys, "table", "--n", "30", "--family", family, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "family, fmt, digest",
    [
        ("pm", "json", "f361641e3f04e9021bb2deb5a3a9a9ffcd6d0bdbb9ee143c1a041ebdd8ff1c9f"),
        ("pm", "text", "b4792ec5a7e59810ecbe388d1a485ce1bad59bf8b0b8e140e016c88e1ca98094"),
        ("sym", "json", "84c48d30acb080773808c41e1b49060961f1828d186f231417f5d0c5ad6066dc"),
        ("sym", "text", "5b3b4d029119b845e9ace963360ba13d05564835238f71979c3489b5a4f51c38"),
    ],
    ids=["pm-json", "pm-text", "sym-json", "sym-text"],
)
def test_table_json_and_text_golden_digest(capsys, family, fmt, digest):
    # sha256 of the n = 30 json and text, recorded before the partition-lattice sweep
    code, out, _ = run(capsys, "table", "--n", "30", "--family", family, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the tables the benchmark writes, by (family, n, format)
BENCHMARK_TABLE_SHA256 = {
    ("pm", 36, "csv"): "cd0c0b24ca5f932b2f11b13adacf7c40b525cb3b0652e47c6315f1481b1749e4",
    ("pm", 36, "json"): "25eda21d0106d3b8f46e72d1681f9fb649a5c5d909130f3660e6902b66214680",
    ("sym", 38, "csv"): "1c0cc0a1ffa062b6c4bd195383517cb6f950c79802e6d719a70aa7bfd46100e1",
    ("sym", 38, "json"): "f9ee0e286abdb0a89afe74612398eb157167b8b37da534b1cb142e3abe62b4f4",
}


@pytest.mark.parametrize(
    "family, n, fmt, digest",
    [(*key, digest) for key, digest in BENCHMARK_TABLE_SHA256.items()],
    ids=["pm-csv", "pm-json", "sym-csv", "sym-json"],
)
def test_table_benchmark_sizes_golden_digest(capsys, family, n, fmt, digest):
    # sha256 of the tables the benchmark writes, recorded before the hook
    # products moved into the lattice walk and rows were rendered part by part
    code, out, _ = run(capsys, "table", "--n", str(n), "--family", family, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("verify", "--suite", "thm6", "--n-max", "24", "--format", "json"),
            "4628af8dc1e3ddeef7f4699dc230b5d761d0d1aa41720a3faf73e75795c36040",
        ),
        (
            ("verify", "--suite", "kuwong-xi", "--n-max", "24", "--format", "json"),
            "28e3be1202552de9d40867ffdb6818f02cd3f13a2e6b487fe5e69e4352e312bb",
        ),
        (("scan", "--n-max", "26"), "dc6c8e29bc5fadff374c1bc85b2e98b9d2df0056450db25b334509ff6774ea93"),
    ],
    ids=["thm6", "kuwong-xi", "scan"],
)
def test_pair_suite_golden_digest(capsys, argv, digest):
    # sha256 of the output, recorded while every pair was still checked by a
    # call of its own
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scan_to_36(capsys):
    # n = 36 is the first n where some |eta| with first part u is above the
    # smallest |eta| with first part u + 2, so the first n where the scan's
    # dominance restriction does any work; the count was recorded with one
    # check call per pair
    code, out, _ = run(capsys, "scan", "--n-max", "36")
    assert code == 0
    assert out == "0 violations in 291290751 dominated pairs (n <= 36)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "\u0663", "--format", "csv"),
        ("scan", "--n-max", "1_0"),
        ("verify", "--suite", "thm6", "--n-max", "1_0"),
        ("oracle", "--n", "\u0663"),
    ],
    ids=["table", "scan", "verify", "oracle"],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    # int() alone reads '1_0' as 10 and the Arabic-Indic digit three as 3
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "invalid" in captured.err


@pytest.mark.parametrize(
    "argv",
    [("scan", "--n-max", "50"), ("verify", "--suite", "thm6", "--n-max", "50")],
    ids=["scan", "verify"],
)
def test_pair_suites_refuse_what_memory_cannot_hold(capsys, monkeypatch, argv):
    # at n = 50 the dominance bitsets alone hold p(50)^2 / 2 = 2.1e10 bits
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 2**30)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "physical memory" in err and "MB" in err and "Traceback" not in err


def test_pair_suites_refuse_huge_n_max_at_once():
    # the estimate stops at the first n that overflows memory, long before
    # n = 10^9, so the refusal takes no longer than any other
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "pmspec.cli", "scan", "--n-max", "1000000000"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "physical memory" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("family", ["pm", "sym"])
def test_table_refuses_what_memory_cannot_hold(capsys, monkeypatch, family):
    # with 1 GiB the partitions of size at most 61 (pm) or 62 (sym) overflow,
    # and the estimate stops there, long before n = 100,000
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 2**30)
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "--n", "100000", "--family", family)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "physical memory" in err and "MB" in err and "Traceback" not in err
    exact.admit_table(family, 40)  # 215,308 partitions of size at most 40 fit


def test_dualpath_admission_counts_its_store(capsys, monkeypatch):
    # the 28,629 partitions of size at most 30 need about 4 MB as a pm
    # table, and about 11 MB with the eta_alt store that dualpath fills
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 8e6)
    code, out, _ = run(capsys, "table", "--family", "pm", "--n", "30", "--format", "csv")
    assert code == 0 and out
    code, out, err = run(capsys, "verify", "--suite", "dualpath", "--n-max", "30")
    assert code == 2 and out == ""
    assert "physical memory" in err and "Traceback" not in err
    assert "a pm sweep to n=30 and the eta_alt store: the" in err


# a budget of 8,419,655,680 bytes, and the largest n that each memory check
# admits with it: pinned so that rewriting the checks cannot move them
_PINNED_BUDGET = 8_419_655_680

# by check: the ledger entry whose rate sets its boundary, the check, and the
# largest n it admits under the pinned budget
PINNED_BOUNDARIES = {
    "table-pm": ("a pm sweep", lambda n: exact.admit_table("pm", n), 74),
    "table-sym": ("a sym sweep", lambda n: exact.admit_table("sym", n), 77),
    "dualpath": ("the eta_alt store", lambda n: exact.admit_table("pm", n, "the eta_alt store"), 67),
    "kuwong-xi-sweeps": (
        "its alpha = 1 strip sweep", lambda n: exact.admit_table("sym", n, "its alpha = 1 strip sweep"), 72
    ),
    "pair-suites": ("pair suites", lambda n: exact.admit(analysis._level_needs(n)), 53),
    "oracle-pm": ("oracle pm", lambda n: oracle._admit("pm", n), 8),
    "oracle-sym": ("oracle sym", lambda n: oracle._admit("sym", n), 10),
    "identities": ("the shapes", lambda n: exact.admit(analysis._shapes_needs(n)), 11776),
    "crossblock": ("the shapes", lambda n: exact.admit(analysis._family_needs(n)), 45873),
}


@pytest.mark.parametrize("name, check, largest", PINNED_BOUNDARIES.values(), ids=PINNED_BOUNDARIES)
def test_admission_boundaries_are_pinned(monkeypatch, name, check, largest):
    assert name in exact.LEDGER
    monkeypatch.setattr(exact, "memory_budget", lambda: (_PINNED_BUDGET, "physical memory"))
    check(largest)
    with pytest.raises(ValueError, match="MB"):
        check(largest + 1)


@pytest.mark.parametrize("family", ["pm", "sym"])
def test_table_ids_fit_in_four_bytes(capsys, monkeypatch, family):
    # the 2,098,739,073 partitions of size at most 102 take ids below 2^31,
    # and the 2,369,988,023 of size at most 103 do not; with 10^15 bytes
    # memory would admit both, so n = 103 is refused for its ids alone,
    # before anything is built
    monkeypatch.setattr(exact, "memory_budget", lambda: (10**15, "physical memory"))
    exact.admit_table(family, 102)
    with pytest.raises(ValueError, match="4-byte"):
        exact.admit_table(family, 103)
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "--n", "103", "--family", family)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "2369988023 partitions" in lines[0] and "Traceback" not in err


@pytest.mark.parametrize(
    "family, largest, vertices, past, columns",
    [("pm", 10, 13749310575, 12, 276), ("sym", 12, 6227020800, 17, 289)],
)
def test_oracle_vertices_fit_their_compact_form(capsys, monkeypatch, family, largest, vertices, past, columns):
    # a vertex holds each column in a byte and its id in a 4-byte int; with
    # 10^18 bytes memory would admit every n here, so the n after `largest`
    # is refused for its vertex ids, up to `past`, refused for its columns,
    # before anything is built
    monkeypatch.setattr(exact, "memory_budget", lambda: (10**18, "physical memory"))
    oracle._admit(family, largest)
    with pytest.raises(ValueError, match=f" {vertices} vertices, .*4-byte"):
        oracle._admit(family, largest + 1)
    for n in range(largest + 1, past):
        with pytest.raises(ValueError, match="4-byte"):
            oracle._admit(family, n)
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--family", family, "--n", str(past))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and f" {columns} columns, past the 256" in lines[0] and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("scan",), ("verify", "--suite", "thm6"), ("verify", "--suite", "kuwong-xi")],
    ids=["scan", "thm6", "kuwong-xi"],
)
def test_pair_suites_refuse_four_byte_ids_at_once(capsys, monkeypatch, argv):
    # with 10^18 bytes every level up to n = 103 is admitted, so each pair
    # suite's sweep to 150 is refused for its ids before any n is run
    monkeypatch.setattr(exact, "memory_budget", lambda: (10**18, "physical memory"))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--n-max", "150")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "4-byte" in lines[0] and "Traceback" not in err


def test_kuwong_xi_refusal_names_its_strip_sweep(capsys, monkeypatch):
    # kuwong-xi admits its sym sweep with the ledger's rate for its alpha = 1
    # strip sweep beside it, and its refusals say so: with the levels let
    # through, the pinned budget refuses n_max 73 for memory, 190 bytes for
    # each of 46,329,631 partitions; with 10^18 bytes, n_max 150 is refused
    # for its 4-byte ids
    monkeypatch.setattr(exact, "memory_budget", lambda: (_PINNED_BUDGET, "physical memory"))
    monkeypatch.setattr(analysis, "_level_needs", lambda n_max: ())
    with pytest.raises(ValueError) as refused:
        analysis.verify_xi_comparison(73)
    assert str(refused.value).startswith(
        "a sym sweep to n=73 and its alpha = 1 strip sweep: the 46329631 partitions of size at most 73 need about"
        " 8803 MB"
    )
    monkeypatch.setattr(exact, "memory_budget", lambda: (10**18, "physical memory"))
    code, out, err = run(capsys, "verify", "--suite", "kuwong-xi", "--n-max", "150")
    assert code == 2 and out == ""
    assert "a sym sweep to n=150 and its alpha = 1 strip sweep:" in err and "4-byte" in err


@pytest.mark.parametrize("suite", ["identities", "crossblock"])
def test_shape_suites_refuse_a_huge_n_max_at_once(capsys, monkeypatch, suite):
    # identities keeps every shape's f and crossblock one n's family, so at
    # n_max 10^9 both outgrow the budget within the first u or n = 45,874
    # and are refused before anything is evaluated
    monkeypatch.setattr(exact, "memory_budget", lambda: (_PINNED_BUDGET, "physical memory"))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"pmspec: error: {suite}") and "MB" in lines[0], err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "--family sym --n 1000000",
            "oracle sym n=1000000: the graph has 1000000000000 columns and at least 1 vertices,"
            " which need about 3.01e+06 MB, more than the 8419 MB of physical memory",
        ),
        (
            "--family pm --n 100000",
            "oracle pm n=100000: the graph has 19999900000 columns and at least 1 vertices,"
            " which need about 60000 MB, more than the 8419 MB of physical memory",
        ),
    ],
    ids=["sym", "pm"],
)
def test_oracle_refusal_names_the_columns(capsys, monkeypatch, argv, message):
    # at a huge n the columns' bits overflow at the first factor of V, so
    # the vertex count alone would not say why the graph cannot fit
    monkeypatch.setattr(exact, "memory_budget", lambda: (_PINNED_BUDGET, "physical memory"))
    code, out, err = run(capsys, "oracle", *argv.split())
    assert code == 2 and out == ""
    assert err == f"pmspec: error: {message}\n"


def test_oracle_refuses_a_need_past_any_float(capsys, monkeypatch):
    # at n = 10^200 the columns alone need more bytes than a float can hold,
    # and the refusal rounds that int need without converting it
    monkeypatch.setattr(exact, "memory_budget", lambda: (_PINNED_BUDGET, "physical memory"))
    code, out, err = run(capsys, "oracle", "--family", "pm", "--n", "1" + "0" * 200)
    assert code == 2 and out == ""
    assert err.endswith(" which need about 6e+394 MB, more than the 8419 MB of physical memory\n"), err


@pytest.mark.parametrize(
    "family, partition, admitted",
    [
        ("pm", "5000+5000", True),
        ("sym", "5000+5000", True),
        ("pm", "5000+5000+5000", False),
        ("sym", "5000+5000+5000", True),
        ("pm", "100000000", False),
        ("sym", "100000000", False),
    ],
)
def test_query_admission_is_pinned(monkeypatch, family, partition, admitted):
    monkeypatch.setattr(exact, "memory_budget", lambda: (_PINNED_BUDGET, "physical memory"))
    lam = Partition.from_text(partition)
    if admitted:
        exact.admit_query(family, lam)
    else:
        with pytest.raises(ValueError, match="MB"):
            exact.admit_query(family, lam)


@pytest.mark.parametrize(
    "limit_mib, argv",
    [(60, "verify --suite thm6 --n-max 36"), (100, "table --n 50 --family pm --format csv")],
    ids=["thm6", "table"],
)
def test_address_space_limit_bounds_the_budget(limit_mib, argv):
    # the import maps about 18 MB, and the level model needs about 71 MB at
    # n = 36, the pm sweep to n = 50 about 181 MB; under these limits both
    # commands used to run until a MemoryError, and exit 1
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mib << 20, limit_mib << 20))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pmspec.cli", *argv.split()],
        env=env, capture_output=True, text=True, preexec_fn=cap, timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].endswith("MB of address space left under RLIMIT_AS"), done.stderr


def test_budget_takes_a_cgroup_memory_max(monkeypatch):
    files = {"/proc/self/cgroup": "0::/jobs/run\n", "/sys/fs/cgroup/jobs/run/memory.max": "50000000\n"}
    monkeypatch.setattr(exact, "_read", lambda path: files.get(path, ""))
    assert exact.memory_budget() == (50_000_000, "memory allowed by the cgroup's memory.max")
    files["/sys/fs/cgroup/jobs/run/memory.max"] = "max\n"  # no limit
    assert "cgroup" not in exact.memory_budget()[1]


def test_budget_takes_what_the_cgroup_has_not_used(monkeypatch):
    # the cgroup's memory.current, the interpreter and all else it holds, is
    # not there to take; a budget already spent reads 0, not a negative
    files = {
        "/proc/self/cgroup": "0::/jobs/run\n",
        "/sys/fs/cgroup/jobs/run/memory.max": "50000000\n",
        "/sys/fs/cgroup/jobs/run/memory.current": "18000000\n",
    }
    monkeypatch.setattr(exact, "_read", lambda path: files.get(path, ""))
    assert exact.memory_budget() == (32_000_000, "memory allowed by the cgroup's memory.max")
    files["/sys/fs/cgroup/jobs/run/memory.current"] = "60000000\n"
    assert exact.memory_budget() == (0, "memory allowed by the cgroup's memory.max")
    with pytest.raises(ValueError, match="more than the 0 MB of memory allowed by the cgroup's memory.max"):
        exact.admit_table("pm", 1)


def test_budget_takes_the_address_space_left_under_rlimit_as(monkeypatch):
    soft = exact.physical_memory_bytes() // 2
    files = {"/proc/self/statm": "1000 200 50 1 0 300 0\n", "/proc/self/cgroup": ""}
    monkeypatch.setattr(resource, "getrlimit", lambda which: (soft, resource.RLIM_INFINITY))
    monkeypatch.setattr(exact, "_read", files.__getitem__)
    left = soft - 1000 * os.sysconf("SC_PAGE_SIZE")
    assert exact.memory_budget() == (left, "address space left under RLIMIT_AS")


def test_out_of_memory_is_one_line_and_exit_2(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_verify", exhausted)
    code, out, err = run(capsys, "verify", "--suite", "thm6", "--n-max", "5")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pmspec: error: out of memory"), err


def test_table_rejects_bad_n(capsys):
    code, _, err = run(capsys, "table", "--n", "0", "--family", "pm", "--format", "csv")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "scan --n-max 1",
        "verify --suite crossblock --n-max 9",
        "verify --suite signs --n-max 1",
        "oracle --n 0",
        "table --n 0",
        "eta --partition 3+x",
    ],
)
def test_usage_errors_print_one_line_and_exit_2(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "pmspec.cli", *argv.split()], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pmspec: error:"), done.stderr


def _process(*args, **kwargs):
    """python with ``args``, ``src`` and ``tests`` on its path, and stdout
    buffered, as it is unless PYTHONUNBUFFERED is set."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(tests).parent / "src")
    path = os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


# table writes its rows a chunk at a time, so its write fails mid-command;
# the others print less than stdout's buffer, which fails at the last flush
WRITERS = {
    "table": "table --n 30 --format csv",
    "verify": "verify --suite thm6 --n-max 8",
    "oracle": "oracle --family sym --n 4",
    "eta": "eta --partition 3+2+1",
}


# by stdout: why its writes fail
UNWRITABLE = {
    "closed-pipe": "[Errno 32] Broken pipe",
    "dev-full": "[Errno 28] No space left on device",
    "closed": "stdout is closed",
}


@pytest.mark.parametrize("stdout", UNWRITABLE)
@pytest.mark.parametrize("command", WRITERS)
def test_a_failed_write_is_one_line_and_exit_2(command, stdout):
    argv = ["-m", "pmspec.cli", *WRITERS[command].split()]
    if stdout == "closed-pipe":
        # a pipe whose reader is gone before anything is written
        read, write = os.pipe()
        os.close(read)
        try:
            done = _process(*argv, stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
    elif stdout == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        with open("/dev/full", "w") as full:
            done = _process(*argv, stdout=full, stderr=subprocess.PIPE, text=True)
    else:
        # as the shell's >&- leaves it
        done = _process("-c", "import os, sys; os.close(1); os.execv(sys.argv[1], sys.argv[1:])",
                        sys.executable, *argv, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"pmspec: error: cannot write output: {UNWRITABLE[stdout]}\n"


def test_an_oserror_elsewhere_keeps_its_traceback():
    # only a write to stdout is a usage error; any other OSError is a fault
    probe = (
        "import pmspec.cli as cli\n"
        "def planted(args): raise OSError(5, 'planted')\n"
        "cli._cmd_eta = planted\n"
        "cli.run()\n"
    )
    done = _process("-c", probe, "eta", "--partition", "3", capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" in done.stderr and done.stderr.endswith("OSError: [Errno 5] planted\n")
    assert "pmspec: error" not in done.stderr


@pytest.mark.parametrize("key", [("pm", 36, "csv"), ("sym", 38, "json")], ids=["pm-csv", "sym-json"])
@pytest.mark.parametrize("to", ["pipe", "file"])
def test_process_entry_writes_every_byte(tmp_path, key, to):
    # the process ends with os._exit, which flushes nothing: a flush missed
    # before it would cut the table's tail
    family, n, fmt = key
    argv = ["-m", "pmspec.cli", "table", "--n", str(n), "--family", family, "--format", fmt]
    if to == "pipe":
        done = _process(*argv, capture_output=True)
        out = done.stdout
    else:
        with open(tmp_path / "table.out", "wb") as file:
            done = _process(*argv, stdout=file, stderr=subprocess.PIPE)
        out = (tmp_path / "table.out").read_bytes()
    assert done.returncode == 0 and done.stderr == b""
    assert hashlib.sha256(out).hexdigest() == BENCHMARK_TABLE_SHA256[key]


def test_process_entry_passes_each_status_through(capsys, monkeypatch):
    # 1: a failed check, under the golden reports' fault planted before run()
    argv = ["verify", "--suite", "thm6", "--n-max", "12"]
    probe = (
        "import pytest, test_golden_reports, pmspec.cli\n"
        "test_golden_reports._install_fault(pytest.MonkeyPatch())\n"
        "pmspec.cli.run()\n"
    )
    done = _process("-c", probe, *argv, capture_output=True, text=True)
    _install_fault(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert done.returncode == code == 1 and done.stdout == out and done.stderr == ""
    assert out.endswith("verdict: FAIL\n")
    # 2: a usage error found by argparse; those found by pmspec are
    # test_usage_errors_print_one_line_and_exit_2's, through run() as well
    done = _process("-m", "pmspec.cli", "verify", "--suite", "bogus", "--n-max", "5", capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert "invalid choice: 'bogus'" in done.stderr and "Traceback" not in done.stderr
    # 0: --help prints its text
    done = _process("-m", "pmspec.cli", "--help", capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: pmspec ") and "{eta,xi,table,verify,oracle,scan}" in done.stdout


@pytest.mark.parametrize(
    "call, stderr", [("run()", ""), ("main(sys.argv[1:])", "returned 0\natexit ran\n")], ids=["run", "main"]
)
def test_run_ends_the_process_and_main_returns(call, stderr):
    # run() ends the process with no atexit handler; main() returns its
    # status and leaves the process to end as usual
    probe = (
        "import atexit, sys, pmspec.cli as cli\n"
        "atexit.register(sys.stderr.write, 'atexit ran\\n')\n"
        f"status = cli.{call}\n"
        "sys.stderr.write(f'returned {status}\\n')\n"
    )
    done = _process("-c", probe, "eta", "--partition", "3+2+1", capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout == "partition: 3+2+1\neta: -14\nf: 14\nsign-pattern: ok\n"
    assert done.stderr == stderr


@pytest.mark.parametrize(
    "suite, n_min",
    [
        ("signs", 2),
        ("thm6", 2),
        ("prop2", 2),
        ("lemmas", 2),
        ("identities", 3),
        ("crossblock", 10),
        ("kuwong-xi", 2),
        ("dualpath", 1),
        ("conjecture2", 2),
    ],
)
def test_verify_below_a_suites_smallest_n_is_a_usage_error(capsys, suite, n_min):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", str(n_min - 1))
    assert code == 2 and out == ""
    assert err == f"pmspec: error: suite {suite} needs n_max >= {n_min}\n"


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dualpath", "--n-max", "8", "--format", "json")
    assert code == 0 and '"failure_count":0' in out
    code, _, err = run(capsys, "verify", "--suite", "signs", "--n-max", "1")
    assert code == 2


def test_verify_conjecture2(capsys):
    args = ("verify", "--suite", "conjecture2", "--n-max", "6", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["checks_run"] == analysis.scan_cross_gap_conjecture(6).checks_run


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus", "--n-max", "5"])
    assert exc.value.code == 2


def test_verify_json_deterministic(capsys):
    args = ("verify", "--suite", "thm6", "--n-max", "7", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "pm", "--n", "4")
    assert code == 0 and "PASS" in out and "105 vertices" in out
    code, out, _ = run(capsys, "oracle", "--family", "sym", "--n", "5")
    assert code == 0 and "120 vertices" in out
    code, out, _ = run(capsys, "oracle", "--family", "sym", "--n", "5", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["method"] == "quotient" and report["quotient_size"] == 7
    assert all(check["passed"] for check in report["quotient_checks"])


def test_oracle_exits_1_on_a_wrong_table(capsys, monkeypatch):
    table = pm_spectrum_table(4)
    rows = dict(table.rows)
    (lam, (a, ma)), (mu, (b, mb)) = list(rows.items())[:2]
    rows[lam], rows[mu] = (a, ma - 1), (b, mb + 1)  # a multiplicity moved between rows
    monkeypatch.setattr(cli, "pm_spectrum_table", lambda n: SpectrumTable.from_rows("pm", n, rows))
    code, out, _ = run(capsys, "oracle", "--family", "pm", "--n", "4")
    assert code == 1
    assert "quotient walk_moments: FAIL" in out and "verdict: FAIL" in out


def test_oracle_cap_refusal(capsys, monkeypatch):
    code, _, err = run(capsys, "oracle", "--family", "pm", "--n", "0")
    assert code == 2 and "n >= 1" in err
    # pm n=10 has 654,729,075 vertices: about 310 GB at 400 bytes per vertex
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 64 * 2**30)
    code, _, err = run(capsys, "oracle", "--family", "pm", "--n", "10")
    assert code == 2 and "physical memory" in err


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--n-max", "8")
    assert code == 0 and "0 violations" in out


def test_scan_lists_each_violation(capsys, monkeypatch):
    # the golden reports' value fault breaks 9 cross-block pairs to n = 14
    _install_fault(monkeypatch)
    failures = analysis.scan_cross_gap_conjecture(14).failures
    code, out, _ = run(capsys, "scan", "--n-max", "14")
    assert code == 0
    assert out.splitlines() == [
        "*** CONJECTURE VIOLATIONS FOUND ***",
        *(f"  violation: {item}" for item in failures),
        "*** total violations: 9 ***",
    ]
    assert len(failures) == GOLDEN["conjecture2"][2][2] == 9


def test_scan_progress_goes_to_stderr(capsys):
    code, out, err = run(capsys, "scan", "--n-max", "6", "--progress")
    assert code == 0
    assert "finished n=6" in err and "finished" not in out


def test_import_leaves_numpy_out():
    # no command loads numpy, and json loads only where a report is written
    # as json: a table writes its json itself;
    # dataclasses, which pulls in inspect, ast and dis, loads for none of
    # them.  Each command runs in a fresh interpreter, and the modules it
    # adds to a bare one's go to stderr
    probe = (
        "import sys; bare = set(sys.modules); import pmspec.cli; "
        "code = pmspec.cli.main(sys.argv[1:]); "
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - bare))); sys.exit(code)"
    )
    commands = [
        (["eta", "--partition", "3+2+1"], False),
        (["xi", "--partition", "2+1"], False),
        (["table", "--n", "4", "--format", "csv"], False),
        (["verify", "--suite", "thm6", "--n-max", "6", "--format", "text"], False),
        (["scan", "--n-max", "6"], False),
        (["table", "--n", "4", "--format", "json"], False),
        (["verify", "--suite", "thm6", "--n-max", "6", "--format", "json"], True),
        (["oracle", "--family", "pm", "--n", "3", "--format", "text"], False),
        (["oracle", "--family", "sym", "--n", "3", "--format", "text"], False),
        (["oracle", "--family", "pm", "--n", "3", "--format", "json"], True),
        (["oracle", "--family", "sym", "--n", "3", "--format", "json"], True),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv, writes_json in commands:
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, (argv, done.stderr)
        added = set(done.stderr.split())
        assert "pmspec.cli" in added
        assert not added & {"dataclasses", "inspect", "numpy"}, (argv, added)
        assert ("json" in added) == writes_json, (argv, added)


def test_oracle_leaves_numpy_ma_out():
    # numpy.ma alone costs some 17 ms of start-up that the oracle has no use
    # for; the oracle loads no numpy at all, so numpy.ma stays out as well
    probe = (
        "import sys, pmspec.cli; code = pmspec.cli.main(sys.argv[1:]); "
        "sys.exit(3 if 'numpy.ma' in sys.modules else code)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for family in ("pm", "sym"):
        done = subprocess.run(
            [sys.executable, "-c", probe, "oracle", "--n", "3", "--family", family],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, (family, done.returncode, done.stderr)


def test_eta_deep_partitions(capsys):
    # one recurrence step per part: far past the interpreter's recursion limit
    code, out, _ = run(capsys, "eta", "--partition", "+".join(["1"] * 600))
    assert code == 0 and "eta: -599\n" in out  # (-1)^(n-1) (n-1) on 1^n
    code, out, _ = run(capsys, "eta", "--partition", "+".join(["2"] * 300 + ["1"] * 250))
    assert code == 0 and f"f: {f_closed_form_2a1b(300, 250)}\n" in out


def test_eta_prints_integers_past_the_decimal_limit(capsys):
    # d_1600 has 4,914 digits, beyond Python's default 4,300 for int -> str
    code, out, _ = run(capsys, "eta", "--partition", "1600")
    assert code == 0
    assert f"eta: {pm_degree(1600)}\n" in out


@pytest.mark.parametrize("command", ["eta", "xi"])
def test_single_part_queries_run_in_bounded_memory(command):
    # d_20000 and D_20000 are rolled, not stored with every smaller term;
    # the 300 MB address-space limit applies to the child alone
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "pmspec.cli", command, "--partition", "20000"],
        env=env, capture_output=True, text=True, preexec_fn=cap, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert f"{command}: " in done.stdout


@pytest.mark.parametrize("command, bound", [("eta", "d_n"), ("xi", "D_n")])
def test_queries_too_large_for_memory_are_refused(command, bound):
    # d_n and D_n at n = 10^20 have over 10^21 digits: refused before any
    # term is rolled, where the roll itself would never end
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "pmspec.cli", command, "--partition", "99999999999999999999"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert bound in done.stderr and "MB" in done.stderr and "physical memory" in done.stderr


@pytest.mark.parametrize(
    "partition, memory",
    [("1200+1200+1200", 200e6), ("100000000", 8 * 2**30)],
    ids=["coefficient-rows", "checkpoints"],
)
def test_queries_refused_by_what_they_hold_at_their_peak(capsys, monkeypatch, partition, memory):
    # 1200+1200+1200 would cache about 420 MB of coefficient rows, and 10^8
    # keep 64 checkpoint pairs of values of about 330 MB each, where one
    # value alone would fit
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: memory)
    start = time.perf_counter()
    code, out, err = run(capsys, "eta", "--partition", partition)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "at its peak" in err and "physical memory" in err and "Traceback" not in err


def test_query_admitted_below_its_peak(capsys, monkeypatch):
    # 600+600+600 holds about 50 MB
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 200e6)
    code, out, _ = run(capsys, "eta", "--partition", "600+600+600")
    assert code == 0 and "sign-pattern: ok" in out


def test_deep_query_peaks_where_the_import_does(peak_rss, import_peak):
    # the prefix table of 2^300 1^250 holds two rows of at most three values
    status, peak = peak_rss("-m", "pmspec.cli", "eta", "--partition", "+".join(["2"] * 300 + ["1"] * 250))
    assert status == 0
    assert peak - import_peak <= 1 << 20


def test_xi_deep_partition(capsys):
    code, out, _ = run(capsys, "xi", "--partition", "600+600")
    assert code == 0
    assert f"xi: {xi_by_last_part(Partition((600, 600)))}\n" in out


def test_oracle_refuses_what_memory_cannot_hold(capsys, monkeypatch):
    # sym n=5 needs 450 bytes for each of its 120 vertices, and 16 bytes for
    # each of its 25 columns in each of 3 layouts: 55,200 bytes
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 50_000)
    code, _, err = run(capsys, "oracle", "--family", "sym", "--n", "5")
    assert code == 2 and "physical memory" in err
    # pm n=10 would need about 310 GB
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 64 * 2**30)
    code, _, err = run(capsys, "oracle", "--family", "pm", "--n", "10")
    assert code == 2 and "physical memory" in err


def _readme_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("pmspec ")]


# sha256 of the stdout of each example in the README's CLI block
README_STDOUT_SHA256 = {
    "eta --partition 3+2+1":
        "e57ee1c032c1d2d34e50d3c290c2b010534a8e2808d58d6db21c25ac8d1b4a90",
    "xi --partition 2+2":
        "edc18ff3ba89fb2cc7664667c2d304745ac63836d20fef683e5034a92e12af8c",
    "table --n 4 --family pm --format csv":
        "672b3d529b7be46e8177bb92e78d9f3b71a01cf4b4764445b308cea2c0236522",
    "table --n 5 --family sym --format json":
        "ff83aa6f5e92b4ceb59a87ea1be56ce3d05152ade3710990408fdb35da73ec77",
    "verify --suite thm6 --n-max 8 --format text":
        "605c75e43dbd160883e336275d046813010d47b1587cc8e17aa2c53d1c45287d",
    "verify --suite dualpath --n-max 10 --format json":
        "76479923ce7ac10dd2e6fe9826e5fe4be0d0ea674fe32dc26f524163e7b3a426",
    "verify --suite conjecture2 --n-max 8 --format json":
        "322e12b0b296e13ebbe0ea6b37c760597f0ba24c330526a4b7e69fb6f8ae6df8",
    "oracle --n 4 --family pm":
        "7c491f493bcde0abc4a1c0de30ffa98cb2b9181004cfc66bce59d9ca7a786aa9",
    "oracle --n 5 --family sym --format json":
        "5e7a1be79f495223d07a0a7e0382102629b6e94d69d7b70563b6e9eb374098f6",
    "scan --n-max 8 --progress":
        "153f6869311c25f78723a4914847e3821a14c4f0aa4011a22f3fcbe329adb16e",
}


def test_readme_cli_examples_run(capsys):
    commands = _readme_cli_commands()
    assert len(commands) >= 6
    assert sorted(" ".join(argv[1:]) for argv in commands) == sorted(README_STDOUT_SHA256)
    for argv in commands:
        assert argv[0] == "pmspec"
        code, out, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
        assert hashlib.sha256(out.encode()).hexdigest() == README_STDOUT_SHA256[" ".join(argv[1:])], argv
