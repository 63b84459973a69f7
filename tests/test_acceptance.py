"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Everything is exact integer arithmetic, the oracle included: it
certifies each table through the equitable quotient of the literal graph,
up to the matching family at n=6 (10395 vertices) and the permutation
family at n=7 (5040 vertices).
"""

import pytest

from pmspec import analysis, oracle
from pmspec.exact import pm_degree, pm_degree_inclusion_exclusion
from pmspec.partitions import Partition, enumerate_partitions
from pmspec.pm_spectrum import (
    eta,
    eta_alt,
    f_closed_form_2a1b,
    f_value,
    pm_spectrum_table,
)
from pmspec.sym_spectrum import (
    sym_spectrum_table,
    xi_by_first_part,
    xi_by_last_part,
    xi_by_last_part_printed_variant,
)
from test_exact import pm_degree_truncated_sum

def _report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_01_dual_path_exactness():
    ok = True
    for n in range(1, 31):
        for lam in enumerate_partitions(n):
            if eta(lam).eta != eta_alt(lam):
                ok = False
    _report("1 dual-path exactness n<=30", ok)


def test_criterion_02_xi_cross_recurrence():
    ok = all(
        xi_by_first_part(mu) == xi_by_last_part(mu)
        for n in range(1, 31)
        for mu in enumerate_partitions(n)
    )
    one_one = Partition((1, 1))
    ok = ok and xi_by_last_part_printed_variant(one_one) == -2
    ok = ok and xi_by_first_part(one_one) == -1
    _report("2 xi cross-recurrence n<=30 + printed-form divergence", ok)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_criterion_03_oracle_pm(n):
    report = oracle.certify(pm_spectrum_table(n), oracle.build_pm_graph(n))
    _report(f"3 oracle certification pm n={n}", report.passed)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_criterion_04_oracle_sym(n):
    report = oracle.certify(sym_spectrum_table(n), oracle.build_derangement_graph(n))
    _report(f"4 oracle certification sym n={n}", report.passed)


def test_criterion_05_sign_property():
    ok = analysis.verify_sign_pattern(30).passed
    _report("5 alternating sign property n<=30", ok)


def test_criterion_06_abs_dominance_exhaustive():
    ok = analysis.verify_abs_dominance(18).passed
    _report("6 |eta| dominance + equality characterization n<=18", ok)


def test_criterion_07_step_identities():
    ok = analysis.verify_step_identities(16).passed
    ok = ok and analysis.verify_transfer_monotone(16).passed
    ok = ok and analysis.raising_identity_fails_at_first_index()
    _report("7 step identities n<=16 incl. index-1 falsification", ok)


def test_criterion_08_special_family_and_closed_form():
    ok = True
    for n in range(3, 31):
        for mu in analysis.first_part_three_family(n):
            ok = ok and f_value(mu) == 2 * n + 2
    for a in range(1, 16):
        for b in range(0, 31 - 2 * a):
            ok = ok and f_closed_form_2a1b(a, b) == f_value(Partition([2] * a + [1] * b))
    _report("8 special-family constant 2n+2 and staircase closed form", ok)


def test_criterion_09_product_identities_and_crossblock():
    ok = analysis.verify_product_identities(size_budget=40).passed
    ok = ok and analysis.find_cross_block_counterexamples(20).passed
    _report("9 near-rectangle identities (size<=40) + cross-block n=10..20", ok)


def test_criterion_10_conjecture_scan():
    report = analysis.scan_cross_gap_conjecture(18)
    if report.failure_count:
        print("CONJECTURE VIOLATIONS (reported, not failed):")
        for item in report.failures:
            print(f"  {item}")
    _report("10 cross-gap conjecture scan n<=18 (0 violations expected)", True)
    assert report.failure_count == 0, "scan found violations; see printed report"


def test_criterion_11_degree_discrepancy():
    ok = True
    for n in range(1, 31):
        ok = ok and pm_degree_inclusion_exclusion(n) == pm_degree(n)
        ok = ok and pm_degree_truncated_sum(n) == pm_degree(n) - (-1) ** n
    for n in range(1, 6):
        report = oracle.certify(pm_spectrum_table(n), oracle.build_pm_graph(n))
        ok = ok and report.degree_observed == pm_degree(n)
    _report("11 degree: recurrence = full sum = brute force; truncated sum off by (-1)^n", ok)
