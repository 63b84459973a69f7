"""Pin every suite's report, byte for byte, clean and under an injected fault.

Each case hashes ``to_json() + to_text()`` of ``run_suite(name, n_max)``.  The
fault perturbs the values the suites read (eta, f and xi off a lattice sweep,
the single query f and the second eta path) at a handful of partitions, so
that 24 of the 29 relations list failures: the digests then pin the witness
rendering of every relation, the failure order and the cap, not only the
clean verdicts.
"""

import hashlib

import pytest

from pmspec import analysis
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


def _install_fault(monkeypatch):
    for name in ("value", "f"):
        read = getattr(analysis._Sweep, name)
        monkeypatch.setattr(analysis._Sweep, name, lambda self, lam, read=read: _scale(lam, read(self, lam)))
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
