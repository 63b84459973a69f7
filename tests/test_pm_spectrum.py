import functools
import re
import tracemalloc
from bisect import bisect_right
from itertools import accumulate
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmspec import lattice, pm_spectrum, sym_spectrum
from pmspec.exact import binomial, irrep_dimension, odd_double_factorial, pm_degree
from pmspec.partitions import Partition, enumerate_partitions
from pmspec.pm_spectrum import (
    _eta_sweep,
    eta,
    eta_alt,
    eta_alt_at,
    f_closed_form_2a1b,
    f_value,
    pm_spectrum_table,
)
from pmspec.sym_spectrum import xi
from reference import node_id

P = Partition

# partitions of at most 40 parts, each at most 12
SHAPES = st.lists(st.integers(1, 12), max_size=40).map(lambda parts: P(sorted(parts, reverse=True)))


def test_f_desk_values():
    assert f_value(P()) == 1
    assert f_value(P((1,))) == 0
    assert f_value(P((1, 1))) == 1
    assert f_value(P((2, 1))) == 2
    assert f_value(P((2, 2))) == 5
    assert f_value(P((3, 2, 1))) == 14
    for n in range(1, 12):
        assert f_value(P((n,))) == pm_degree(n)


def test_f_strip_recurrence():
    # the unsigned strip recurrence f_value documents, checked against eta's f
    for n in range(2, 13):
        for lam in enumerate_partitions(n):
            if len(lam) < 2:
                continue
            head, last = lam.remove_last_part(), lam[-1]
            rhs = f_value(head) + sum(
                binomial(last, k) * odd_double_factorial(k) * f_value(head.subtract_all(k))
                for k in range(1, last + 1)
            )
            assert f_value(lam) == rhs, lam


def test_eta_desk_values():
    assert eta(P((2,))).eta == 2
    assert eta(P((1, 1))).eta == -1
    assert eta(P((2, 1))).eta == -2
    assert eta(P()).eta == 1


def test_eta_sign_identity():
    for n in range(1, 17):
        for lam in enumerate_partitions(n):
            val = eta(lam)
            assert val.eta == (-1) ** (n - lam[0]) * val.f
            assert val.f >= 0
            assert (val.f == 0) == (lam == (1,))


def test_eta_alt_desk_values():
    assert eta_alt(P((2, 1))) == -2
    assert eta_alt(P((2, 2))) == 5
    assert eta_alt(P((1, 1))) == -1


def test_dual_paths_agree():
    for n in range(1, 17):
        for lam in enumerate_partitions(n):
            assert eta(lam).eta == eta_alt(lam), lam


def test_eta_alt_every_admissible_index():
    for n in range(2, 12):
        for lam in enumerate_partitions(n):
            s = len(lam)
            if s < 2:
                continue
            for i in range(2, s + 1):
                if i < s and lam[i - 1] <= lam[i]:
                    continue
                assert eta_alt_at(lam, i) == eta(lam).eta, (lam, i)


def test_eta_alt_at_rejects_bad_index():
    with pytest.raises(ValueError):
        eta_alt_at(P((2, 2, 2)), 2)  # no descent after index 2
    with pytest.raises(ValueError):
        eta_alt_at(P((3,)), 1)


def test_weighted_sum_identity():
    # shifted-coefficient sum against a combination of lowered partitions
    for n in range(2, 15):
        for mu in enumerate_partitions(n):
            if len(mu) < 2:
                continue
            head = mu.remove_last_part()
            last = mu[-1]
            lhs = sum(
                binomial(last, k)
                * odd_double_factorial(k + 1)
                * f_value(head.subtract_all(k))
                for k in range(1, last + 1)
            )
            rhs = (
                (2 * last + 1) * f_value(mu)
                - 2 * last * f_value(mu.lower_part(len(mu)))
                - f_value(head)
            )
            assert lhs == rhs, mu


def test_closed_form():
    assert f_closed_form_2a1b(2, 0) == 5
    assert f_closed_form_2a1b(1, 1) == 2
    assert f_closed_form_2a1b(4, 2) == 23
    for a in range(1, 16):
        for b in range(0, 31 - 2 * a):
            assert f_closed_form_2a1b(a, b) == f_value(P([2] * a + [1] * b))
    with pytest.raises(ValueError):
        f_closed_form_2a1b(0, 1)


def test_table_small():
    t = pm_spectrum_table(2)
    assert t.rows == {P((2,)): (2, 1), P((1, 1)): (-1, 2)}
    t = pm_spectrum_table(3)
    assert t.rows == {P((3,)): (8, 1), P((2, 1)): (-2, 9), P((1, 1, 1)): (2, 5)}
    t = pm_spectrum_table(1)
    assert t.rows == {P((1,)): (0, 1)}
    with pytest.raises(ValueError):
        pm_spectrum_table(0)


def test_table_trace_identities():
    # k = 0 checks the multiplicities, k = 1 and 2 the eigenvalues with them
    for n in range(1, 25):
        t = pm_spectrum_table(n)
        assert t.multiplicity_total() == odd_double_factorial(n)
        assert sum(v * m for v, m in t.rows.values()) == 0
        assert sum(v * v * m for v, m in t.rows.values()) == odd_double_factorial(
            n
        ) * pm_degree(n)


def test_table_rows_match_reference_paths():
    # the table's lattice sweep of the strip and doubled hook recurrences
    # against the lowering recurrence and the cell-by-cell hook product
    for n in range(1, 21):
        for lam, (value, mult) in pm_spectrum_table(n).rows.items():
            assert value == eta_alt(lam), lam
            assert mult == irrep_dimension(P([2 * p for p in lam])), lam


def test_table_rows_match_the_single_query_store():
    # the lattice sweep and the single query on each row's prefixes are
    # separate engines
    for n in range(1, 25):
        for lam, (value, _) in pm_spectrum_table(n).rows.items():
            assert value == eta(lam).eta, lam


def test_table_checks_every_sign_and_every_dimension(monkeypatch):
    quotients = []

    def hook_quotient(order, product):
        quotients.append(product)
        return quotient_check(order, product)

    quotient_check = lattice._hook_quotient
    monkeypatch.setattr(lattice, "_hook_quotient", hook_quotient)
    rows = list(pm_spectrum_table(9).rows)
    assert len(quotients) == len(rows) == 30

    # a row of the wrong sign, or zero, anywhere in the table is named
    sweep = pm_spectrum._eta_sweep
    for index, lam in enumerate(rows):
        for broken in (neg, lambda value: 0):

            def faulty(*args, **kwargs):
                lattice, by_id, values, hooks = sweep(*args, **kwargs)
                values[index] = broken(values[index])
                return lattice, by_id, values, hooks

            monkeypatch.setattr(pm_spectrum, "_eta_sweep", faulty)
            with pytest.raises(AssertionError, match=re.escape(f"sign normalization violated at {tuple(lam)!r}:")):
                pm_spectrum_table(9)


@pytest.mark.parametrize("row", [0, -1])
def test_table_rejects_a_zero_row_other_than_one_box(row, monkeypatch):
    # the rows' parts reach _normalized from the streamed partition walk;
    # f = 0 is allowed at (1) alone, so a zero at (4) or (1, 1, 1, 1) fails
    sweep = pm_spectrum._eta_sweep

    def zeroed(*args, **kwargs):
        lattice, by_id, values, hooks = sweep(*args, **kwargs)
        values[row] = 0
        return lattice, by_id, values, hooks

    monkeypatch.setattr(pm_spectrum, "_eta_sweep", zeroed)
    with pytest.raises(AssertionError, match="sign normalization violated"):
        pm_spectrum_table(4)
    assert pm_spectrum_table(1).rows == {P((1,)): (0, 1)}


def test_table_rows_match_the_untrimmed_sweep():
    # the table's sweep drops the values no later level reads; its rows are
    # those of the sweep that keeps every value
    for n in range(1, 31):
        assert pm_spectrum_table(n).values == _eta_sweep(n)[2]


def test_table_sweep_ends_holding_only_live_values(held_by_level):
    # at n = 30 the table's sweep holds at most 6,504 values by node at the
    # start of a level and ends holding 4, in a list no longer than twice
    # that: (), (1^29), (2, 1^28) and (1^30), each the full sweep's.  Its hook
    # products by slot peak at 3,425 of 5,604 and end at 1.  The suites'
    # sweeps, at alpha = 2 and 1, read every size and keep every value
    peaks, (trimmed, held, _, _) = held_by_level(lambda: _eta_sweep(30, table=True))
    kept, full = _eta_sweep(30)[:2]
    live = [value for value in held if value is not None]
    assert peaks[0] <= 6504 and peaks[1] <= 3425
    assert len(full) == 28629 and len(live) == 4 and len(held) <= 2 * len(live)
    for lam in ((), (1,) * 29, (2,) + (1,) * 28, (1,) * 30):
        assert held[node_id(trimmed, lam)] == full[node_id(kept, lam)], lam
    assert sum(h is not None for h in trimmed.hooks) == 1
    assert None not in full and None not in _eta_sweep(30, alpha=1)[1]


def test_table_leaves_module_stores_alone():
    # each table runs its recurrences on a lattice of its own; the stores
    # left are those of the cross-check recurrences
    stores = (pm_spectrum._eta_alt, sym_spectrum._xi_last)
    for store in stores:
        store.cache_clear()
    pm_spectrum_table(12)
    sym_spectrum.sym_spectrum_table(12)
    assert [store.cache_info().currsize for store in stores] == [0, 0]


def test_table_row_order_is_decreasing_lex():
    keys = list(pm_spectrum_table(6).rows)
    assert keys == sorted(keys, reverse=True)


def test_csv_rendering():
    csv = pm_spectrum_table(3).to_csv()
    assert csv.splitlines() == [
        "partition,eigenvalue,multiplicity",
        "3,8,1",
        "2+1,-2,9",
        "1+1+1,2,5",
    ]


def test_eta_on_deep_partitions():
    # one recurrence step per part, far past the interpreter's recursion limit
    assert eta(P((1,) * 5000)).eta == -4999
    lam = P((3, 2) + (1,) * 1998)
    assert eta_alt(lam) == eta(lam).eta


def test_recurrence_stores_are_separate():
    # eta neither reads nor fills the store of the lowering recurrence
    lam = P((4, 3, 1))
    pm_spectrum._eta_alt.cache_clear()
    value = eta(lam).eta
    assert pm_spectrum._eta_alt.cache_info().currsize == 0
    assert value == eta_alt(lam)
    assert pm_spectrum._eta_alt.cache_info().currsize > 0
    pm_spectrum._eta_alt.cache_clear()
    assert eta(lam).eta == value


def test_single_queries_retain_no_memory():
    # no store outlives a call: a deep shape keeps nothing once answered
    eta(P((1, 1))), xi(P((3, 3)))  # the sequences' first terms, kept for good
    tracemalloc.start()
    try:
        assert eta(P((1,) * 5000)).eta == -4999
        xi(P((3,) * 2000))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_deep_shapes_against_the_lowering_recurrence():
    lam = P((60, 41, 7, 7, 1))
    assert eta(lam).eta == eta_alt(lam)


@pytest.mark.parametrize("alpha", [1, 2])
def test_strip_rows_have_a_unit_past_the_head_only_at_last_part_1(alpha):
    # the sweep multiplies every child past the head, with no case for a
    # coefficient of 1 or -1: for last >= 2 it is last at j = 1 and a
    # multiple of P_j >= alpha + 1 from j = 2 on.  At last = 1, which the
    # sweep and the prefix table take with no product, both rows are all units
    for parity in (0, 1):
        assert list(map(abs, pm_spectrum._strip_row(1, parity, alpha))) == [1, 1]
        for last in range(2, 61):
            assert all(abs(c) >= 2 for c in pm_spectrum._strip_row(last, parity, alpha)[1:]), (last, parity)


def test_two_long_parts_evaluate_one_coefficient_row(monkeypatch):
    # the reach bound: (5000, 5000) reads prefix_1 - j for j <= 5000 and one
    # coefficient row, 5,001 terms, where every prefix_2 - j would be 12.5M.
    # The lowering recurrence would store 12.5M partitions here, so the
    # value is checked modulo a prime against the two-part strip sum
    # eta(a, b) = (-1)^b sum_j C(b, j) (2j-1)!! d_(a-j), with the
    # coefficient row taken modulo that prime too, which keeps the products
    # small (row 1, the degrees, rolls up in the row itself)
    prime, a, b = (1 << 61) - 1, 5000, 5000
    degrees = [1, 0]  # d_k mod prime
    for k in range(2, a + 1):
        degrees.append(2 * (k - 1) * (degrees[-1] + degrees[-2]) % prime)
    requested = []
    strip_row = pm_spectrum._strip_row
    monkeypatch.setattr(
        pm_spectrum,
        "_strip_row",
        lambda last, parity: requested.append((last, parity)) or [c % prime for c in strip_row(last, parity)],
    )
    value = pm_spectrum._eta_prefixes(P((a, b)))
    assert requested == [(b, 0)]
    total, c = 0, 1  # c = C(b, j) (2j-1)!! mod prime
    for j in range(b + 1):
        total = (total + c * degrees[a - j]) % prime
        c = c * (b - j) * (2 * j + 1) * pow(j + 1, -1, prime) % prime
    assert value % prime == (-total if b & 1 else total) % prime


@pytest.mark.parametrize(
    "lam, lasts",
    [((1,) * 5000, set()), ((2,) * 300 + (1,) * 250, {2}), ((7, 4, 4, 2, 1), {2, 3, 4})],
    ids=["ones", "twos-and-ones", "mixed"],
)
def test_last_part_1_builds_no_coefficient_row(monkeypatch, lam, lasts):
    # at last part lam_i - j = 1 the row is two units, taken with no
    # product: 1^5000 builds no row at all, and 2^300 1^250 only rows of
    # last part 2
    built = []
    strip_row = pm_spectrum._strip_row
    monkeypatch.setattr(pm_spectrum, "_strip_row", lambda last, parity: built.append(last) or strip_row(last, parity))
    eta(P(lam))
    assert set(built) == lasts


def test_three_long_parts_peak_at_one_coefficient_row():
    # 300+300+300 reads 299 coefficient rows at level 2 and one at level 3,
    # about 6 MiB together; built one at a time, the query's traced peak is
    # about 0.2 MiB
    eta(P((1, 1))), eta(P((300,)))  # the degrees' checkpoints, kept for good
    tracemalloc.start()
    try:
        eta(P((300, 300, 300)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("lam", [(1, 1), (3, 1), (6, 6), (9, 4, 2), (12, 5, 5, 1)])
def test_first_row_takes_two_degrees(monkeypatch, lam):
    # row 1, d_(lam_1 - j) for j <= lam_2, takes its degrees from pm_degree
    # in ascending order, which rolls one step per degree
    expected, calls = eta_alt(P(lam)), []
    monkeypatch.setattr(pm_spectrum, "pm_degree", lambda k: calls.append(k) or pm_degree(k))
    assert pm_spectrum._eta_prefixes(P(lam)) == expected
    assert calls == list(range(lam[0] - lam[1], lam[0] + 1))


@settings(max_examples=60, deadline=None)
@given(SHAPES)
def test_single_query_matches_the_lowering_recurrence(lam):
    assert eta(lam).eta == eta_alt(lam)


@functools.cache
def _swept(n):
    lattice, values, rows, _ = _eta_sweep(n)
    return lattice, values, dict(zip(enumerate_partitions(n), rows))


@settings(max_examples=60, deadline=None)
@given(SHAPES.map(lambda lam: P(lam[: bisect_right(list(accumulate(lam)), 30)])))
def test_single_query_matches_the_sweep(lam):
    # the prefix table against the lattice sweep, which holds every
    # partition of size at most 30, and against the rows of the sweep of
    # lam's size
    lattice, values, _ = _swept(30)
    assert eta(lam).eta == values[node_id(lattice, lam)] == _swept(lam.size)[2][lam]
