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


@pytest.mark.parametrize(
    "family, n, fmt, digest",
    [
        ("pm", 36, "csv", "cd0c0b24ca5f932b2f11b13adacf7c40b525cb3b0652e47c6315f1481b1749e4"),
        ("pm", 36, "json", "25eda21d0106d3b8f46e72d1681f9fb649a5c5d909130f3660e6902b66214680"),
        ("sym", 38, "csv", "1c0cc0a1ffa062b6c4bd195383517cb6f950c79802e6d719a70aa7bfd46100e1"),
        ("sym", 38, "json", "f9ee0e286abdb0a89afe74612398eb157167b8b37da534b1cb142e3abe62b4f4"),
    ],
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
    monkeypatch.setattr(analysis, "physical_memory_bytes", lambda: 2**30)
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


@pytest.mark.parametrize(
    "suite, n_min",
    [("signs", 2), ("thm6", 2), ("prop2", 2), ("lemmas", 2), ("crossblock", 10), ("kuwong-xi", 2)],
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
    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 64 * 2**30)
    code, _, err = run(capsys, "oracle", "--family", "pm", "--n", "10")
    assert code == 2 and "physical memory" in err


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--n-max", "8")
    assert code == 0 and "0 violations" in out


def test_scan_progress_goes_to_stderr(capsys):
    code, out, err = run(capsys, "scan", "--n-max", "6", "--progress")
    assert code == 0
    assert "finished n=6" in err and "finished" not in out


def test_import_leaves_numpy_out():
    # no command loads numpy, and json loads only where json is written;
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
        (["table", "--n", "4", "--format", "json"], True),
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


def test_deep_query_peaks_where_the_import_does(peak_rss):
    # the prefix table of 2^300 1^250 holds two rows of at most three values
    status, baseline = peak_rss("-c", "import pmspec.cli")
    assert status == 0
    status, peak = peak_rss("-m", "pmspec.cli", "eta", "--partition", "+".join(["2"] * 300 + ["1"] * 250))
    assert status == 0
    assert peak - baseline <= 1 << 20


def test_xi_deep_partition(capsys):
    code, out, _ = run(capsys, "xi", "--partition", "600+600")
    assert code == 0
    assert f"xi: {xi_by_last_part(Partition((600, 600)))}\n" in out


def test_oracle_refuses_what_memory_cannot_hold(capsys, monkeypatch):
    # sym n=5 needs 450 bytes for each of its 120 vertices, and 16 bytes for
    # each of its 25 columns in each of 3 layouts: 55,200 bytes
    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 50_000)
    code, _, err = run(capsys, "oracle", "--family", "sym", "--n", "5")
    assert code == 2 and "physical memory" in err
    # pm n=10 would need about 310 GB
    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 64 * 2**30)
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
