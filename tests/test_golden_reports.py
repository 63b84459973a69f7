"""Pin every suite's report, byte for byte, clean and under an injected fault.

Each case hashes ``to_json() + to_text()`` of ``run_suite(name, n_max)``.  The
fault perturbs the values the suites read at a handful of partitions, where
they are produced: the rows of eta's sweeps at alpha = 2 (which every pm row
suite and ``lemmas`` read) and of xi's sweeps, the single query f and the
second eta path.  So 24 of the 29 relations list failures: the digests then
pin the witness rendering of every relation, the failure order and the cap,
not only the clean verdicts.  A census counts every relation's failures under the fault,
listed or not, and pins the four that it cannot reach; each of those four
fails under a fault of its own kind.
"""

import hashlib
from collections import Counter

import pytest

from pmspec import analysis
from pmspec.partitions import Dominance, Partition, enumerate_partitions
from pmspec.pm_spectrum import eta_alt, f_value

# suite: (n_max, clean (digest, checks_run, failure_count), faulty (...))
GOLDEN = {
    "signs": (
        12,
        ("5dd8b802c43465d6", 270, 0),
        ("ec939847f53c739d", 270, 2),
    ),
    "thm6": (
        12,
        ("0516b57ad66de925", 2196, 0),
        ("34451891871c8c37", 2196, 57),
    ),
    "prop2": (
        12,
        ("4504999167c9b495", 592, 0),
        ("03778281afa95d0c", 592, 10),
    ),
    "lemmas": (
        12,
        ("e06a95ba610b9443", 1937, 0),
        ("6adca317d0d287c5", 1937, 294),
    ),
    "identities": (
        30,
        ("033eba95d1a89ea0", 306, 0),
        ("b654829527c720ab", 306, 14),
    ),
    "crossblock": (
        14,
        ("0e98fc71349876cd", 52, 0),
        ("0e0dca13840c44e3", 52, 2),
    ),
    "kuwong-xi": (
        12,
        ("db349415e927e107", 2005, 0),
        ("c4f5db813136f9df", 2005, 44),
    ),
    "dualpath": (
        12,
        ("4f15e98bc78827e4", 694, 0),
        ("6f19294d583a6147", 694, 32),
    ),
    "conjecture2": (
        14,
        ("67c71b295c63c19c", 11315, 0),
        ("ef6f59039cd4e3ac", 11315, 9),
    ),
}

# the suites with a smallest n, at that n alone: (n_min, clean (digest,
# checks_run, failure_count))
SINGLE_N = {
    "signs": (2, ("87610f0a3a2cebf0", 2, 0)),
    "thm6": (2, ("6fc5d532a5d4645c", 0, 0)),
    "prop2": (2, ("455e83ed7dcec1cb", 0, 0)),
    "lemmas": (2, ("64df842f7dec58d3", 2, 0)),
    "crossblock": (10, ("460387dbc3cc0915", 4, 0)),
    "kuwong-xi": (2, ("90bd00d1bee40caf", 5, 0)),
}

FACTORS = {
    (4, 2, 2, 1, 1): 0,
    (3, 3, 1, 1, 1, 1): 3,
    (5, 3, 2, 2): 50,
    (3, 2, 1): 2,
    (2, 2, 1, 1): 5,
    (3, 3, 3, 1): 7,
    (4, 4, 1): 0,
    (2, 1): 3,
    (3, 1, 1, 1): 2,
    (2, 2, 2, 2, 1, 1): 2,
    (3, 2, 2, 2, 1): 0,
}
SHIFTED = {(2, 2, 1, 1), (4, 1)}


def _scale(lam, value):
    # a zero factor leaves the value 1, so both signs and magnitudes break
    return value * FACTORS[lam] or 1 if lam in FACTORS else value


def _scaled_rows(sweep):
    # the sweep with its row list, the values at the partitions of n in
    # table order, scaled
    def faulty(n, *args, **kwargs):
        lattice, values, by_row, hooks = sweep(n, *args, **kwargs)
        return lattice, values, list(map(_scale, enumerate_partitions(n), by_row)), hooks

    return faulty


def _install_fault(monkeypatch):
    # eta's rows only: the strip sweep at alpha = 1 is kuwong-xi's clean
    # second xi, which the faulty first one must disagree with
    eta_sweep, faulty = analysis._eta_sweep, _scaled_rows(analysis._eta_sweep)
    monkeypatch.setattr(analysis, "_eta_sweep", lambda n, alpha=2: faulty(n) if alpha == 2 else eta_sweep(n, alpha=alpha))
    monkeypatch.setattr(analysis, "_xi_sweep", _scaled_rows(analysis._xi_sweep))
    monkeypatch.setattr(analysis, "f_value", lambda lam: _scale(lam, f_value(lam)))
    monkeypatch.setattr(analysis, "eta_alt", lambda lam: eta_alt(lam) + (lam in SHIFTED))


def _fingerprint(name, n_max):
    report = analysis.run_suite(name, n_max)
    digest = hashlib.sha256((report.to_json() + report.to_text()).encode()).hexdigest()
    return digest[:16], report.checks_run, report.failure_count


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_clean_report_is_golden(name):
    n_max, clean, _ = GOLDEN[name]
    assert _fingerprint(name, n_max) == clean


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_faulty_report_is_golden(name, monkeypatch):
    n_max, _, faulty = GOLDEN[name]
    _install_fault(monkeypatch)
    assert _fingerprint(name, n_max) == faulty


@pytest.mark.parametrize("name", sorted(SINGLE_N))
def test_single_n_report_is_golden(name):
    n_min, clean = SINGLE_N[name]
    assert _fingerprint(name, n_min) == clean


def test_golden_covers_every_suite():
    assert set(GOLDEN) == set(analysis.SUITE_NAMES)


# the declared relations that the value fault cannot make fail: each reads
# structure (dominance, a fixed transcription, one degree), not the values
# the fault perturbs, and needs a fault of its own kind
UNREACHED = {
    ("crossblock", "staircase dominated by special partition"),
    ("identities", "tail shape exceeds raised shape for long rectangles"),
    ("kuwong-xi", "mis-transcribed variant disagrees at (1,1)"),
    ("lemmas", "raising identity must fail at index 1"),
}


def _count_failures(monkeypatch, names):
    """Run each named suite at its golden n_max and count the failures of
    every declared relation, also past the listing cap, by (suite, name)."""
    failures, declared = Counter(), set()
    relation = analysis.VerificationReport.relation

    def counting(self, name, *fields):
        check = relation(self, name, *fields)
        key = self.suite, name
        declared.add(key)

        def counted(ok, *values):
            failures[key] += not ok
            check(ok, *values)

        return counted

    monkeypatch.setattr(analysis.VerificationReport, "relation", counting)
    for name in names:
        analysis.run_suite(name, GOLDEN[name][0])
    return failures, declared


def test_relation_census(monkeypatch):
    # every relation but the unreached four fails at least once under the fault
    _install_fault(monkeypatch)
    failures, declared = _count_failures(monkeypatch, GOLDEN)
    assert len(declared) == 29
    assert {key for key in declared if not failures[key]} == UNREACHED


def _lowered_tail_shape(lam):
    # f(1,1,1,1) below f(2,1,1): the tail shape of u = 1, q = 3 no longer exceeds
    return f_value(Partition((2, 1, 1))) - 1 if lam == (1, 1, 1, 1) else f_value(lam)


# for each unreached relation, a fault of its own kind: the name it patches
# in analysis and what that name becomes
OWN_FAULTS = {
    ("crossblock", "staircase dominated by special partition"): (
        "dominance_compare",
        lambda mu, nu: Dominance.INCOMPARABLE,
    ),
    ("identities", "tail shape exceeds raised shape for long rectangles"): ("f_value", _lowered_tail_shape),
    ("kuwong-xi", "mis-transcribed variant disagrees at (1,1)"): (
        "xi_by_last_part_printed_variant",
        lambda mu: -1,
    ),
    ("lemmas", "raising identity must fail at index 1"): (
        "raising_identity_fails_at_first_index",
        lambda: False,
    ),
}


@pytest.mark.parametrize("key", sorted(OWN_FAULTS), ids=lambda key: key[0])
def test_unreached_relation_fails_under_its_own_fault(monkeypatch, key):
    assert set(OWN_FAULTS) == UNREACHED
    monkeypatch.setattr(analysis, *OWN_FAULTS[key])
    failures, declared = _count_failures(monkeypatch, [key[0]])
    assert key in declared and failures[key] >= 1
