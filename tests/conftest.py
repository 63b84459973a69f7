import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs python with its arguments and prints the exit code and the peak RSS
# in KiB.  The child is spawned by this small intermediate process, not by
# the test process: on Linux the peak of a process started from a large one
# includes the large one's resident set.
_RUNNER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],"
    " dict(os.environ), file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@pytest.fixture(scope="session")
def peak_rss(tmp_path_factory):
    """``peak_rss(*args)`` runs ``python *args`` with ``src`` on the path, its
    stdout discarded, and returns its exit code and peak RSS in bytes.

    Compiling a module on import peaks above most queries, so the children
    keep their bytecode in a cache of this session's own, which one ``eta``
    run and one small ``oracle`` run fill before any is measured: compiling
    ``oracle.py`` and ``json`` took ``oracle --family pm --n 5`` from 14.6
    to 15.8 MiB on Python 3.11.
    """
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path_factory.mktemp("pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(*args):
        result = subprocess.run(
            [sys.executable, "-c", _RUNNER, *args], env=env, capture_output=True, text=True, timeout=300
        )
        status, peak_kb = map(int, result.stdout.split())
        return status, peak_kb * 1024

    run("-m", "pmspec.cli", "eta", "--partition", "1")
    run("-m", "pmspec.cli", "oracle", "--family", "sym", "--n", "1", "--format", "json")
    return run


@pytest.fixture(scope="session")
def import_peak(peak_rss):
    """The peak RSS in bytes of a bare ``import pmspec.cli``, measured once."""
    status, peak = peak_rss("-c", "import pmspec.cli")
    assert status == 0
    return peak


@pytest.fixture
def held_by_level(monkeypatch):
    """``held_by_level(sweep)`` runs ``sweep()`` with the lattice's levels
    watched, and returns, for the lists of values a sweep hands the lattice
    and then its hook products, the most entries of each not None at the
    start of any level, and what ``sweep()`` returned."""
    from pmspec.lattice import PartitionLattice

    levels = PartitionLattice.levels

    def watched(self, nodes=None, slotted=None):
        lists = [values for values in (nodes, slotted, self.hooks) if values is not None]
        for item in levels(self, nodes, slotted):
            held = [sum(value is not None for value in values) for values in lists]
            peaks[:] = map(max, peaks, held) if peaks else held
            yield item

    peaks = []
    monkeypatch.setattr(PartitionLattice, "levels", watched)

    def held(sweep):
        peaks.clear()
        result = sweep()
        return list(peaks), result

    return held
