"""Every committed ``BENCH_*.json`` follows the one schema of the README's
"Benchmark records" section, so that a tool can read the trajectory across
records."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _run_line(line) -> None:
    """The last stdout line of ``perfbench/run.py``."""
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["correct"], bool)
    assert isinstance(line["attempted"], int) and isinstance(line["failed"], int)
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] is None or _number(metric["value"])
        assert isinstance(metric["unit"], str)


def _lower_in(text) -> None:
    """A count of pairs as "k of m"."""
    k, of, m = text.split()
    assert of == "of" and 0 <= int(k) <= int(m)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_follows_the_schema(path):
    record = json.loads(path.read_text())
    assert list(record) == [
        "schema", "change", "host", "claim", "calibration", "commands", "notes", "workloads", "scale"
    ]
    assert record["schema"] == 1
    assert all(isinstance(record[key], str) and record[key] for key in ("change", "host", "claim"))

    calibration = record["calibration"]
    assert set(calibration) == {"command", "times"} and calibration["times"]
    for time in calibration["times"]:
        assert set(time) == {"when", "value"}
        assert time["value"].endswith(" s") and _number(float(time["value"][:-2]))

    commands = record["commands"]
    assert set(commands) == ({"workloads", "scale"} if record["scale"] else {"workloads"})
    assert all(isinstance(text, str) for text in commands.values())
    assert all(isinstance(note, str) for note in record["notes"])

    assert record["workloads"]
    for workload in record["workloads"].values():
        assert set(workload) == {"summary", "pairs"}
        for pair in workload["pairs"]:
            assert set(pair) == {"seed", "first", "parent", "change"}
            assert isinstance(pair["seed"], int) and pair["first"] in ("parent", "change")
            _run_line(pair["parent"])
            _run_line(pair["change"])
        for summary in workload["summary"].values():
            assert set(summary) == {"parent_median", "parent_quartiles", "change_median", "change_lower_in"}
            assert _number(summary["parent_median"]) and _number(summary["change_median"])
            low, high = summary["parent_quartiles"]
            assert _number(low) and _number(high) and low <= high
            _lower_in(summary["change_lower_in"])

    for row in record["scale"]:
        assert set(row) == {"command", "pairs", "summary"}
        for pair in row["pairs"]:
            assert set(pair) == {"parent", "change"}
            assert set(pair["parent"]) == set(pair["change"]) == set(row["summary"])
            assert all(map(_number, [*pair["parent"].values(), *pair["change"].values()]))
        for summary in row["summary"].values():
            assert {"parent_median", "change_median"} <= set(summary)
            for key, value in summary.items():
                if key == "change_lower_in":
                    _lower_in(value)
                else:
                    assert _number(value), key
