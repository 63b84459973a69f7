import json

import pytest

from pmspec import analysis
from pmspec.partitions import Partition
from pmspec.pm_spectrum import eta, f_value

P = Partition


def test_sign_pattern_suite():
    for n in range(2, 16):
        report = analysis.verify_sign_pattern(n)
        assert report.passed, report.failures[:3]
    with pytest.raises(ValueError):
        analysis.verify_sign_pattern(1)


def test_abs_dominance_suite():
    for n in range(2, 13):
        report = analysis.verify_abs_dominance(n)
        assert report.passed, report.failures[:3]


def test_abs_dominance_equality_example():
    # inside the first-part-3 family both sides sit at the constant 2n+2
    assert eta(P((3, 1, 1, 1))).f == 14
    assert eta(P((3, 2, 1))).f == 14
    report = analysis.verify_abs_dominance(6)
    witnesses = {(w["lo"], w["hi"]) for w in report.equality_witnesses}
    assert ("3+1+1+1", "3+2+1") in witnesses
    # strict case across the same first part
    assert f_value(P((2, 1, 1, 1, 1))) == 2
    assert f_value(P((2, 2, 2))) == 10


def test_abs_dominance_vacuous_at_2():
    report = analysis.verify_abs_dominance(2)
    assert report.passed and not report.equality_witnesses


def test_transfer_monotone_suite():
    for n in range(2, 13):
        report = analysis.verify_transfer_monotone(n)
        assert report.passed, report.failures[:3]


def test_transfer_equality_cases():
    assert f_value(P((3, 1, 1, 1)).transfer((2, 4))) == f_value(P((3, 1, 1, 1)))
    assert f_value(P((3, 2, 1)).transfer((2, 3))) > f_value(P((3, 2, 1)))
    assert f_value(P((4, 1, 1)).transfer((2, 3))) > f_value(P((4, 1, 1)))


def test_step_identities_suite():
    for n in range(2, 14):
        report = analysis.verify_step_identities(n)
        assert report.passed, report.failures[:3]


def test_raising_identity_breaks_at_index_one():
    assert analysis.raising_identity_fails_at_first_index()


def test_lemma_desk_example():
    # f(2,2) - f(2,1) = 3 >= f(1,1) = 1 > 0
    assert f_value(P((2, 2))) - f_value(P((2, 1))) == 3
    assert f_value(P((1, 1))) == 1


def test_product_identities():
    report = analysis.verify_product_identities(30)
    assert report.passed, report.failures[:3]
    # derived proportionality at (u=1, q=2): 2 f(2,1) = 2 f(1,1,1)
    assert 2 * f_value(P((2, 1))) == 2 * f_value(P((1, 1, 1))) == 4
    with pytest.raises(ValueError):
        analysis.verify_product_identities(2)


def test_cross_block_counterexamples():
    report = analysis.find_cross_block_counterexamples(10)
    assert report.passed
    # the n=10, a=4 instance: 2n+2 = 22 < 23 = closed form
    assert f_value(P((2, 2, 2, 2, 1, 1))) == 23
    for n in range(10, 16):
        assert analysis.find_cross_block_counterexamples(n).passed
    with pytest.raises(ValueError):
        analysis.find_cross_block_counterexamples(9)


def test_special_family_constant():
    for n in range(3, 31):
        for mu in analysis.first_part_three_family(n):
            assert f_value(mu) == 2 * n + 2, mu


def test_conjecture_scan_clean_to_10():
    report = analysis.scan_cross_gap_conjecture(10)
    assert report.failure_count == 0
    assert report.checks_run > 0


def test_conjecture_scan_skips_adjacent_blocks():
    # v = u+1 pairs are outside the hypothesis: (2,...) vs (3,...) not counted
    report = analysis.scan_cross_gap_conjecture(5)
    for item in report.failures:
        raise AssertionError(item)
    # n<=4 admits exactly (2,2) vs (4) and (2,1,1) vs (4); u=1 blocks excluded
    report4 = analysis.scan_cross_gap_conjecture(4)
    assert report4.checks_run == 2


def test_xi_comparison_suite():
    for n in range(2, 15):
        report = analysis.verify_xi_comparison(n)
        assert report.passed, report.failures[:3]


def test_dual_recurrence_suite():
    report = analysis.verify_dual_recurrences(14)
    assert report.passed


def test_run_suite_dispatch_and_merge():
    report = analysis.run_suite("signs", 6)
    assert report.n_range == (2, 6) and report.passed
    report = analysis.run_suite("thm6", 8)
    assert report.passed
    with pytest.raises(ValueError):
        analysis.run_suite("nope", 5)
    with pytest.raises(ValueError):
        analysis.run_suite("signs", 1)


def test_report_serialization_deterministic():
    a = analysis.verify_sign_pattern(8).to_json()
    b = analysis.verify_sign_pattern(8).to_json()
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {
        "suite",
        "n_range",
        "checks_run",
        "failures",
        "failure_count",
        "equality_witnesses",
    }
    text = analysis.verify_sign_pattern(8).to_text()
    assert "PASS" in text


def test_report_failure_capping():
    report = analysis.VerificationReport(suite="x", n_range=(1, 1))
    for k in range(250):
        report.check(False, k=k)
    assert report.failure_count == 250
    assert len(report.failures) == analysis.MAX_LISTED_FAILURES
    assert "more failures" in report.to_text()
