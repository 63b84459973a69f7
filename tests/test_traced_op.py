import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--n", "4", "--family", "pm", "--format", "csv"],
        ["oracle", "--family", "sym", "--n", "3", "--format", "json"],
    ],
    ids=["table", "oracle"],
)
def test_tracer_finds_every_traced_name(tmp_path, args):
    # the benchmark's tracer wraps pmspec's functions by name and writes a
    # null metric for a span whose names are all gone, or for the eta cache
    # count when pm_spectrum has no cache; a renamed function must fail here.
    # The oracle's build span reads vertex_count off the graph it returns
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_op.py"), str(trace), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "pmspec.cli", *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0 and traced.stdout == plain.stdout
    record = json.loads(trace.read_text())
    assert record["absent"] == []
    if args[0] == "table":
        assert record["pm_cache_entries"] is not None
    else:
        assert record["counters"]["oracle.vertices"] == 6
