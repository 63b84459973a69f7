import json
import weakref

import pytest

from pmspec import analysis, sym_spectrum
from pmspec.partitions import (
    Dominance,
    Partition,
    bounded_partition_counts,
    dominance_chain,
    dominance_compare,
    enumerate_partitions,
)
from pmspec.pm_spectrum import eta, eta_alt, f_value
from pmspec.sym_spectrum import xi_by_first_part, xi_by_last_part, xi_by_last_part_printed_variant
from test_golden_reports import GOLDEN, _fingerprint

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


@pytest.mark.parametrize(
    "lo, hi, etas, xis",
    [
        # equality with first part 4, not 3
        ((4, 2, 2, 2), (4, 3, 1, 1, 1), (138, 138), (33, 33)),
        # the lexicographically later partition has the smaller |value|
        ((4, 2, 2, 2, 1), (4, 3, 1, 1, 1, 1), (-152, -150), (-38, -37)),
    ],
)
def test_lexicographic_reading_fails_where_dominance_is_silent(lo, hi, etas, xis):
    # the "almost" of the paper's title: read as the lexicographic order
    # within a first-part block, the statement "|x(lo)| <= |x(hi)|, with
    # equality iff the first part is 3" fails at n = 10 and n = 11 for both
    # families; the pairs are incomparable in dominance, the order the
    # suites check, so no suite sees them
    lo, hi = P(lo), P(hi)
    assert tuple(lo) < tuple(hi) and lo[0] == hi[0] == 4
    assert dominance_compare(lo, hi) is Dominance.INCOMPARABLE
    assert (eta(lo).eta, eta(hi).eta) == (eta_alt(lo), eta_alt(hi)) == etas
    assert (xi_by_first_part(lo), xi_by_first_part(hi)) == xis
    assert (xi_by_last_part(lo), xi_by_last_part(hi)) == xis
    assert abs(etas[0]) >= abs(etas[1]) and abs(xis[0]) >= abs(xis[1])


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


@pytest.mark.parametrize("name", ["signs", "thm6", "prop2", "lemmas", "conjecture2", "dualpath", "kuwong-xi"])
def test_row_suites_read_each_n_from_its_rows(name, monkeypatch):
    # these suites read their values from the row lists of each size's own
    # sweeps, in row order: handed the rows alone, with no lattice and no
    # values by node id, their clean reports keep their golden digests
    def rows_only(sweep):
        return lambda *args, **kwargs: (None, None, *sweep(*args, **kwargs)[2:])

    monkeypatch.setattr(analysis, "_eta_sweep", rows_only(analysis._eta_sweep))
    monkeypatch.setattr(analysis, "_xi_sweep", rows_only(analysis._xi_sweep))
    n_max, clean, _ = GOLDEN[name]
    assert _fingerprint(name, n_max) == clean


def test_place_is_the_row_order(monkeypatch):
    # sum_i P(s_i, lam_(i-1)) - P(s_i, lam_i), with lam_0 = k, puts every
    # partition of k at its place in enumerate_partitions(k): with each row
    # its own place, the reader reads back 0, 1, ..., p(k) - 1
    def places(k):
        return None, None, list(range(bounded_partition_counts(k)[k][k])), None

    monkeypatch.setattr(analysis, "_eta_sweep", places)
    f = analysis._f_by_place(20)
    for k in range(21):
        assert list(map(f, enumerate_partitions(k))) == list(range(len(enumerate_partitions(k)))), k


def test_lemmas_reads_f_as_the_single_query_does():
    # |eta| off each size's rows, found by place, against f_value, which
    # normalizes the prefix table's eta by its sign and checks that sign
    f = analysis._f_by_place(16)
    for k in range(17):
        for lam in enumerate_partitions(k):
            assert f(lam) == f_value(lam), lam


def test_xi_comparison_fills_no_last_part_store():
    # the second xi comes off one alpha = 1 strip sweep, not the
    # xi_by_last_part store, so the suite leaves that store empty
    sym_spectrum._xi_last.cache_clear()
    assert analysis.run_suite("kuwong-xi", 12).passed
    assert sym_spectrum._xi_last.cache_info().currsize == 0


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
    # the whole level of each n, and each first-part block on a level of its
    # own, whose first partition is not (n,)
    for n in range(1, 13):
        for parts in [enumerate_partitions(n), *_blocks(n).values()]:
            rows = analysis._dominance_rows(parts)
            assert len(rows) == len(parts)
            for i, lam in enumerate(parts):
                for j, mu in enumerate(parts):
                    less = dominance_compare(lam, mu) is Dominance.LESS
                    assert bool(rows[i] >> j & 1) == less, (lam, mu)


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
        for block in _blocks(n).values():
            rows = analysis._dominance_rows(block)
            monotone = analysis._monotone_chains(block, list(map(value, block)), rows)
            for k, row in enumerate(rows):
                assert monotone[k] & ~row == 0
                for j in range(len(block)):
                    if not row >> j & 1:
                        continue
                    lam, target = block[k], block[j]
                    expected = _literal_chain_monotone(value, lam, target)
                    assert bool(monotone[k] >> j & 1) == expected, (lam, target)
                    failed += not expected
    assert failed > 1000 if value is _scrambled else failed == 0


FAULTY = {P((4, 2, 2, 1, 1)): 0, P((3, 3, 1, 1, 1, 1)): 3, P((5, 3, 2, 2)): 50}


def _faulty(value, lam, factors=FAULTY):
    # the zero factor leaves the value 1, so |value| breaks in both directions
    return value * factors[lam] or 1 if lam in factors else value


def _install_fault(monkeypatch, factors):
    """Fault the rows the suites read off eta's sweeps at alpha = 2 and off
    xi's; return the single queries under the same fault, for the literal
    loops."""

    def faulty_rows(sweep):
        def faulty(n, *args, **kwargs):
            lattice, values, by_row, hooks = sweep(n, *args, **kwargs)
            rows = [_faulty(value, lam, factors) for lam, value in zip(enumerate_partitions(n), by_row)]
            return lattice, values, rows, hooks

        return faulty

    eta_sweep, faulty = analysis._eta_sweep, faulty_rows(analysis._eta_sweep)
    monkeypatch.setattr(analysis, "_eta_sweep", lambda n, alpha=2: faulty(n) if alpha == 2 else eta_sweep(n, alpha=alpha))
    monkeypatch.setattr(analysis, "_xi_sweep", faulty_rows(analysis._xi_sweep))
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
    # a level, the dominance rows of a run of partitions, holds up to p^2/2
    # bits for its p partitions, so each must be freed before the next is
    # built.  thm6 and kuwong-xi read only pairs within a first-part block,
    # so they build one level per block (n of them at each n, 77 for
    # n = 2..12); the scan one per n
    built, first_parts = [], []
    rows_of = analysis._dominance_rows

    class Rows(list):
        pass  # a list that can be weakly referenced

    def tracked(parts):
        assert [ref() for ref in built if ref() is not None] == [], "an earlier level is alive"
        rows = Rows(rows_of(parts))
        built.append(weakref.ref(rows))
        first_parts.append({lam[0] for lam in parts})
        return rows

    monkeypatch.setattr(analysis, "_dominance_rows", tracked)
    for suite, levels in (("thm6", 77), ("kuwong-xi", 77), ("conjecture2", 11)):
        built.clear()
        first_parts.clear()
        assert analysis.run_suite(suite, 12).passed
        assert len(built) == levels
        if suite != "conjecture2":
            assert all(len(firsts) == 1 for firsts in first_parts)


@pytest.mark.parametrize("suite, bound_mib", [("thm6", 14), ("kuwong-xi", 10)])
def test_block_suites_peak_near_the_import(peak_rss, import_peak, suite, bound_mib):
    # with a level per first-part block, thm6 and kuwong-xi to n_max 33 grow
    # about 8.5 and 6 MiB over the import (Python 3.11); one level per n,
    # holding every cross-block pair, took them to about 21 and 29 MiB, and
    # kuwong-xi's xi_by_last_part store, its second xi before the alpha = 1
    # strip sweep, to about 14 MiB
    status, peak = peak_rss("-m", "pmspec.cli", "verify", "--suite", suite, "--n-max", "33")
    assert status == 0
    assert peak - import_peak <= bound_mib * 2**20
