import json
import weakref

import pytest

from pmspec import analysis
from pmspec.partitions import (
    Dominance,
    Partition,
    dominance_chain,
    dominance_compare,
    enumerate_partitions,
)
from pmspec.pm_spectrum import eta, f_value
from pmspec.sym_spectrum import xi_by_first_part, xi_by_last_part, xi_by_last_part_printed_variant

P = Partition


def test_sign_pattern_suite():
    report = analysis.verify_sign_pattern(15)
    assert report.passed, report.failures[:3]
    with pytest.raises(ValueError):
        analysis.verify_sign_pattern(1)


def test_abs_dominance_suite():
    report = analysis.verify_abs_dominance(12)
    assert report.passed, report.failures[:3]


def test_abs_dominance_equality_example():
    # inside the first-part-3 family both sides sit at the constant 2n+2
    assert eta(P((3, 1, 1, 1))).f == 14
    assert eta(P((3, 2, 1))).f == 14
    report = analysis.verify_abs_dominance(6)
    assert report.n_range == (2, 6)
    witnesses = {(w["lo"], w["hi"]) for w in report.equality_witnesses}
    assert ("3+1+1+1", "3+2+1") in witnesses
    # strict case across the same first part
    assert f_value(P((2, 1, 1, 1, 1))) == 2
    assert f_value(P((2, 2, 2))) == 10


def test_abs_dominance_vacuous_at_2():
    report = analysis.verify_abs_dominance(2)
    assert report.passed and not report.equality_witnesses


def test_transfer_monotone_suite():
    report = analysis.verify_transfer_monotone(12)
    assert report.passed, report.failures[:3]


def test_transfer_equality_cases():
    assert f_value(P((3, 1, 1, 1)).transfer((2, 4))) == f_value(P((3, 1, 1, 1)))
    assert f_value(P((3, 2, 1)).transfer((2, 3))) > f_value(P((3, 2, 1)))
    assert f_value(P((4, 1, 1)).transfer((2, 3))) > f_value(P((4, 1, 1)))


def test_step_identities_suite():
    report = analysis.verify_step_identities(13)
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
    assert analysis.find_cross_block_counterexamples(15).passed
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
    report = analysis.verify_xi_comparison(14)
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
    check = report.relation("x", "k")
    for k in range(250):
        check(False, k)
    assert report.failure_count == 250
    assert len(report.failures) == analysis.MAX_LISTED_FAILURES
    assert "more failures" in report.to_text()


# ---------------------------------------------------------------------------
# the per-n pair engine against the literal pair loop
# ---------------------------------------------------------------------------


def _blocks(n):
    blocks = {}
    for lam in enumerate_partitions(n):
        blocks.setdefault(lam[0], []).append(lam)
    return blocks


def _literal_chain_monotone(value, lam, target):
    cur = lam
    for move in dominance_chain(lam, target):
        nxt = cur.transfer(move)
        if value(nxt) < value(cur):
            return False
        cur = nxt
    return cur == target


# The literal loops read the single queries, eta and xi_by_first_part, so the
# suites' values, read off lattice sweeps, are checked against a second engine.


def _reference_thm6(n_max, eta_of):
    report = analysis.VerificationReport(suite="thm6", n_range=(2, n_max))
    order = report.relation("|eta(lo)| <= |eta(hi)|", "lo", "hi", "values")
    equal = report.relation("equality iff first part 3 with small tail", "lo", "hi", "values")
    chain = report.relation("stepwise |eta| monotone along chain", "lo", "hi")
    abs_eta = lambda lam: abs(eta_of(lam))  # noqa: E731
    star = analysis.has_first_part_three_rest_small
    for n in range(2, n_max + 1):
        for u, block in _blocks(n).items():
            for lam in block:
                for lam2 in block:
                    if lam == lam2 or dominance_compare(lam, lam2) is not Dominance.LESS:
                        continue
                    a, b = abs_eta(lam), abs_eta(lam2)
                    order(a <= b, lam, lam2, (a, b))
                    if a == b:
                        report.witness_equality(lo=lam.to_text(), hi=lam2.to_text(), abs_eta=str(a))
                    equal((a == b) == (u == 3 and star(lam) and star(lam2)), lam, lam2, (a, b))
                    chain(_literal_chain_monotone(abs_eta, lam, lam2), lam, lam2)
    return report


def _reference_xi(n_max, xi_of):
    report = analysis.VerificationReport(suite="kuwong-xi", n_range=(2, n_max))
    agree = report.relation("xi recurrence agreement", "partition", "values")
    extremes = report.relation("lexicographic extremes bound |xi|", "partition", "values")
    variant = report.relation("mis-transcribed variant disagrees at (1,1)")
    order = report.relation("|xi(lo)| <= |xi(hi)|", "lo", "hi", "values")
    equal = report.relation("xi equality characterization", "lo", "hi", "values")
    abs_xi = lambda lam: abs(xi_of(lam))  # noqa: E731
    star = analysis.has_first_part_three_rest_small
    for n in range(2, n_max + 1):
        for mu in enumerate_partitions(n):
            a, b = xi_of(mu), xi_by_last_part(mu)
            agree(a == b, mu, (a, b))
        if n == 2:
            one_one = P((1, 1))
            variant(
                xi_by_last_part_printed_variant(one_one) == -2
                and xi_of(one_one) == -1
            )
        for u, block in _blocks(n).items():
            for lam in block:
                for lam2 in block:
                    if lam == lam2 or dominance_compare(lam, lam2) is not Dominance.LESS:
                        continue
                    a, b = abs_xi(lam), abs_xi(lam2)
                    order(a <= b, lam, lam2, (a, b))
                    if a == b:
                        report.witness_equality(lo=lam.to_text(), hi=lam2.to_text(), abs_xi=str(a))
                    equal((a == b) == (u == 3 and star(lam) and star(lam2)), lam, lam2, (a, b))
            # the block runs from its lexicographically largest member down
            low, high = abs_xi(block[-1]), abs_xi(block[0])
            for lam in block:
                extremes(low <= abs_xi(lam) <= high, lam, (low, abs_xi(lam), high))
    return report


def _reference_scan(n_max, eta_of):
    report = analysis.VerificationReport(suite="conjecture2", n_range=(2, n_max))
    grows = report.relation("strict |eta| growth across blocks", "lo", "hi", "values")
    abs_eta = lambda lam: abs(eta_of(lam))  # noqa: E731
    for n in range(2, n_max + 1):
        blocks = _blocks(n)
        for u, low_block in blocks.items():
            for v, high_block in blocks.items():
                if u < 2 or v < u + 2:
                    continue
                for lam in low_block:
                    for mu in high_block:
                        if dominance_compare(lam, mu) is not Dominance.LESS:
                            continue
                        a, b = abs_eta(lam), abs_eta(mu)
                        grows(a < b, lam, mu, (a, b))
    return report


def test_level_dominance_matches_dominance_compare():
    for n in range(1, 13):
        parts = enumerate_partitions(n)
        level = analysis._Level(parts, [len(lam) for lam in parts])
        assert level.parts == enumerate_partitions(n)
        assert level.values == [len(lam) for lam in level.parts]
        assert level.blocks == {
            u: [level.parts.index(lam) for lam in block] for u, block in _blocks(n).items()
        }
        for i, lam in enumerate(level.parts):
            for j, mu in enumerate(level.parts):
                less = dominance_compare(lam, mu) is Dominance.LESS
                assert bool(level.above[i] >> j & 1) == less, (lam, mu)


def _scrambled(lam):
    # an arbitrary value, so that many chains fail, at many different steps
    return sum((k + 3) * p * p for k, p in enumerate(lam)) * 7919 % 23


def _abs_eta(lam):
    return abs(eta(lam).eta)


@pytest.mark.parametrize("value", [_abs_eta, _scrambled], ids=["abs_eta", "scrambled"])
def test_monotone_chains_match_literal_walk(value):
    # each pair is settled once, whatever order the pairs are asked in
    failed = 0
    for n in range(2, 15):
        parts = enumerate_partitions(n)
        level = analysis._Level(parts, list(map(value, parts)))
        for block in level.blocks.values():
            monotone = analysis._monotone_chains(level, block)
            for k, row in enumerate(level.rows(block)):
                assert monotone[k] & ~row == 0
                for j in range(len(block)):
                    if not row >> j & 1:
                        continue
                    lam, target = level.parts[block[k]], level.parts[block[j]]
                    expected = _literal_chain_monotone(value, lam, target)
                    assert bool(monotone[k] >> j & 1) == expected, (lam, target)
                    failed += not expected
    assert failed > 1000 if value is _scrambled else failed == 0


FAULTY = {P((4, 2, 2, 1, 1)): 0, P((3, 3, 1, 1, 1, 1)): 3, P((5, 3, 2, 2)): 50}


def _faulty(value, lam, factors=FAULTY):
    # the zero factor leaves the value 1, so |value| breaks in both directions
    return value * factors[lam] or 1 if lam in factors else value


def _install_fault(monkeypatch, factors):
    """Fault the values the suites read off their sweeps; return the single
    queries under the same fault, for the literal loops."""
    read = analysis._Sweep.value
    monkeypatch.setattr(analysis._Sweep, "value", lambda self, lam: _faulty(read(self, lam), lam, factors))
    return (
        lambda lam: _faulty(eta(lam).eta, lam, factors),
        lambda mu: _faulty(xi_by_first_part(mu), mu, factors),
    )


def test_pair_suites_match_literal_loops_under_injected_fault(monkeypatch):
    eta_of, xi_of = _install_fault(monkeypatch, FAULTY)
    thm6 = analysis.run_suite("thm6", 14)
    reference = _reference_thm6(14, eta_of)
    assert thm6.to_json() == reference.to_json()
    assert thm6.to_text() == reference.to_text()
    assert thm6.failure_count > 0
    relations = {item["relation"] for item in thm6.failures}
    assert "stepwise |eta| monotone along chain" in relations

    scan = analysis.run_suite("conjecture2", 14)
    assert scan.to_json() == _reference_scan(14, eta_of).to_json()
    assert scan.failure_count > 0

    xi = analysis.run_suite("kuwong-xi", 14)
    reference = _reference_xi(14, xi_of)
    assert xi.to_json() == reference.to_json()
    assert xi.to_text() == reference.to_text()
    assert "|xi(lo)| <= |xi(hi)|" in {item["relation"] for item in xi.failures}


def test_one_broken_row_mid_block_is_listed_among_bulk_rows(monkeypatch):
    # |value| of (4,3,2,2,1) grows a thousandfold: in its block of 15 members
    # it is below 6 and above 7, so only its own row of the order relation
    # fails, while every other row of the block is counted in bulk
    broken = P((4, 3, 2, 2, 1))
    eta_of, xi_of = _install_fault(monkeypatch, {broken: 1000})
    for suite, reference, value in (("thm6", _reference_thm6, eta_of), ("kuwong-xi", _reference_xi, xi_of)):
        report = analysis.run_suite(suite, 12)
        expected = reference(12, value)
        assert report.to_json() == expected.to_json()
        assert report.to_text() == expected.to_text()
        order = [item for item in report.failures if item["relation"].startswith("|")]
        assert len(order) == 6 and {item["lo"] for item in order} == {"4+3+2+2+1"}
        assert report.checks_run > report.failure_count > len(order)


def test_pair_suites_keep_one_level_alive_at_a_time(monkeypatch):
    # a level holds up to p(n)^2/2 dominance bits, so each must be freed
    # before the next n's is built
    built = []
    init = analysis._Level.__init__

    def tracked(self, parts, values):
        assert [ref() for ref in built if ref() is not None] == [], "an earlier level is alive"
        init(self, parts, values)
        built.append(weakref.ref(self))

    monkeypatch.setattr(analysis._Level, "__init__", tracked)
    for suite in ("thm6", "kuwong-xi", "conjecture2"):
        built.clear()
        assert analysis.run_suite(suite, 12).passed
        assert len(built) == 11
