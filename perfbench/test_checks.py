"""Tests of the benchmark's own output checkers.

    python3 -m pytest perfbench/test_checks.py

Each checker must accept the real pmspec output at small n and reject a
corrupted copy of it.  The count formulas must reproduce the program's
``checks_run`` at n <= 12.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def pmspec(*args, env=None):
    run_env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(ROOT / "src"),
               "OPENBLAS_NUM_THREADS": "1", **(env or {})}
    out = subprocess.run([sys.executable, "-m", "pmspec.cli", *args], cwd=ROOT, env=run_env,
                         capture_output=True, text=True, check=False)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _table_rows(text, fmt):
    if fmt == "json":
        return json.loads(text)["rows"]
    return text.splitlines()[1:]


def _rebuild(text, fmt, rows):
    if fmt == "json":
        payload = json.loads(text)
        payload["rows"] = rows
        return json.dumps(payload)
    return "\n".join([text.splitlines()[0], *rows]) + "\n"


def _corrupt_row(text, fmt, index, column):
    """Copy of a table with one eigenvalue negated or one multiplicity + 1."""
    rows = _table_rows(text, fmt)
    if fmt == "json":
        row = dict(rows[index])
        row[column] = -row[column] if column == "eigenvalue" else row[column] + 1
        rows[index] = row
    else:
        part, val, mult = rows[index].split(",")
        if column == "eigenvalue":
            val = str(-int(val))
        else:
            mult = str(int(mult) + 1)
        rows[index] = ",".join((part, val, mult))
    return _rebuild(text, fmt, rows)


@pytest.mark.parametrize("family,n", [("pm", 7), ("sym", 8)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_checker(family, n, fmt):
    text = pmspec("table", "--family", family, "--n", str(n), "--format", fmt)
    rng = random.Random(0)
    assert checks.check_table(text, fmt, family, n, rng) == []
    rows = len(_table_rows(text, fmt))
    for index in (0, rows // 2, rows - 1):
        flipped = _corrupt_row(text, fmt, index, "eigenvalue")
        assert checks.check_table(flipped, fmt, family, n, rng)
        off_by_one = _corrupt_row(text, fmt, index, "multiplicity")
        assert checks.check_table(off_by_one, fmt, family, n, rng)
    missing = _rebuild(text, fmt, _table_rows(text, fmt)[:-1])
    assert checks.check_table(missing, fmt, family, n, rng)


def test_table_checker_catches_a_multiplicity_swap_by_frobenius():
    # swapping two multiplicities keeps every sum that does not weigh by theta
    text = pmspec("table", "--family", "sym", "--n", "6", "--format", "csv")
    rows = _table_rows(text, "csv")
    a, b = rows[1].split(","), rows[2].split(",")
    a[2], b[2] = b[2], a[2]
    rows[1], rows[2] = ",".join(a), ",".join(b)
    swapped = _rebuild(text, "csv", rows)
    assert any("Frobenius" in p for p in checks.check_table(swapped, "csv", "sym", 6, random.Random(0)))


@pytest.mark.parametrize("suite", ["thm6", "kuwong-xi"])
def test_suite_checker(suite):
    text = pmspec("verify", "--suite", suite, "--n-max", "9", "--format", "json")
    expected = checks.expected_checks_run(suite, 9)
    assert checks.check_suite_json(text, suite, 9, expected) == []
    report = json.loads(text)
    report["checks_run"] += 1
    assert checks.check_suite_json(json.dumps(report), suite, 9, expected)
    report = json.loads(text)
    report["failure_count"] = 1
    assert checks.check_suite_json(json.dumps(report), suite, 9, expected)


def test_scan_checker():
    text = pmspec("scan", "--n-max", "11")
    expected = checks.expected_checks_run("scan", 11)
    assert checks.check_scan_text(text, 11, expected) == []
    assert checks.check_scan_text(text.replace(str(expected), str(expected - 1)), 11, expected)


@pytest.mark.parametrize("suite", ["thm6", "kuwong-xi", "scan"])
def test_count_formulas_match_the_program(suite):
    for n_max in (2, 5, 12):
        if suite == "scan":
            text = pmspec("scan", "--n-max", str(n_max))
            assert checks.check_scan_text(text, n_max, checks.expected_checks_run(suite, n_max)) == []
        else:
            report = json.loads(pmspec("verify", "--suite", suite, "--n-max", str(n_max), "--format", "json"))
            assert report["checks_run"] == checks.expected_checks_run(suite, n_max)


@pytest.mark.parametrize("family,n", [("pm", 4), ("sym", 5)])
def test_oracle_checker(family, n):
    text = pmspec("oracle", "--family", family, "--n", str(n), "--format", "json")
    assert checks.check_oracle_json(text, family, n) == []
    for key, bad in (("spectrum_match", False), ("vertex_count", 1), ("degree_observed", 0)):
        report = json.loads(text)
        report[key] = bad
        assert checks.check_oracle_json(json.dumps(report), family, n)
    report = json.loads(text)
    report["trace_checks"][0]["passed"] = False
    assert checks.check_oracle_json(json.dumps(report), family, n)


QUERIES = [
    ("pm", (5, 3, 3, 1)), ("pm", (1,) * 40), ("pm", (2,) * 7 + (1,) * 5), ("pm", (17,)),
    ("sym", (4, 4, 2)), ("sym", (1,) * 30), ("sym", (12,)), ("sym", (11, 1)),
]


@pytest.mark.parametrize("family,lam", QUERIES)
def test_query_checker(family, lam):
    command = "eta" if family == "pm" else "xi"
    text = pmspec(command, "--partition", "+".join(map(str, lam)))
    assert checks.check_query(text, family, lam) == []
    key = f"{command}: "
    value = next(line for line in text.splitlines() if line.startswith(key))[len(key):]
    flipped = text.replace(key + value, key + str(-int(value)))
    assert checks.check_query(flipped, family, lam)
    shifted = text.replace(key + value, key + str(int(value) + (1 if int(value) > 0 else -1)))
    if len(lam) == 1 or lam[0] <= 2 or lam == (11, 1):
        assert checks.check_query(shifted, family, lam)


def test_independent_arithmetic():
    assert [checks.partition_count(n) for n in range(12)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
    assert all(len(checks.partitions_of(n)) == checks.partition_count(n) for n in range(1, 15))
    assert [checks.pm_degree(n) for n in range(1, 6)] == [0, 2, 8, 60, 544]
    assert [checks.derangements(n) for n in range(1, 8)] == [0, 1, 2, 9, 44, 265, 1854]
    assert checks.frobenius_dimension((3, 2, 1)) == 16
    assert sum(checks.frobenius_dimension(lam) ** 2 for lam in checks.partitions_of(7)) == 5040
