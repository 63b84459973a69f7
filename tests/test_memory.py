"""Each rate of the memory ledger, ``pmspec.exact.LEDGER``, against the peak
RSS of the command it models.

A command is measured at two sizes in fresh processes, and its peak must
grow no faster than its model's need: the last share its need generator
yields, all it holds at that size.
"""

import re

import pytest

from pmspec import analysis, exact, oracle
from test_cli import PINNED_BOUNDARIES

# by ledger name: the command, the two sizes its last argument takes, and the
# need generator of its model at a size.  On Python 3.11 the peaks grew, in
# MiB against the model's growth: tables pm 40 -> 45 about 12 against 43.4,
# sym 9 against 27.9; dualpath 30 -> 36 21 against 26.2; kuwong-xi 7
# against 12.8, its levels' bitsets, which "pair suites" counts, left out;
# scan 24 -> 34 18 against 37.6; identities 100 -> 300 2.6 against 3.6;
# the oracle sym 7 -> 8 6.5 against 16.0, and pm 5 -> 6 2.1-2.3
# against 3.84
CASES = {
    "a pm sweep": ("table --family pm --format csv --n", 40, 45, lambda n: exact._table_needs("pm", n)),
    "a sym sweep": ("table --family sym --format csv --n", 40, 45, lambda n: exact._table_needs("sym", n)),
    "the eta_alt store": (
        "verify --suite dualpath --n-max", 30, 36, lambda n: exact._table_needs("pm", n, "the eta_alt store")
    ),
    "its alpha = 1 strip sweep": (
        "verify --suite kuwong-xi --n-max", 30, 36,
        lambda n: exact._table_needs("sym", n, "its alpha = 1 strip sweep"),
    ),
    "pair suites": ("scan --n-max", 24, 34, analysis._level_needs),
    "the shapes": ("verify --suite identities --n-max", 100, 300, analysis._shapes_needs),
    "oracle pm": ("oracle --family pm --format json --n", 5, 6, lambda n: oracle._graph_needs("pm", n)),
    "oracle sym": ("oracle --family sym --format json --n", 7, 8, lambda n: oracle._graph_needs("sym", n)),
}


def _need(needs) -> float:
    """The bytes of a need generator's last share."""
    *_, (needed, _) = needs
    return needed


@pytest.mark.parametrize("name", CASES, ids=lambda name: re.sub(r"\W+", "-", name))
def test_model_covers_the_peak_growth(peak_rss, name):
    command, small, large, needs = CASES[name]
    peaks = []
    for n in (small, large):
        status, peak = peak_rss("-m", "pmspec.cli", *command.split(), str(n))
        assert status == 0
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= _need(needs(large)) - _need(needs(small))


def test_every_ledger_entry_is_measured_and_pinned():
    assert set(CASES) == set(exact.LEDGER)
    assert {name for name, _, _ in PINNED_BOUNDARIES.values()} == set(exact.LEDGER)
