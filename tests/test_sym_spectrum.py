import functools
import math
import tracemalloc
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmspec import lattice, sym_spectrum
from pmspec.exact import derangement_count, irrep_dimension
from pmspec.lattice import PartitionLattice
from pmspec.partitions import Partition, enumerate_partitions
from pmspec.pm_spectrum import _eta_sweep
from pmspec.sym_spectrum import (
    _xi_sweep,
    sym_spectrum_table,
    xi,
    xi_by_first_part,
    xi_by_last_part,
    xi_by_last_part_printed_variant,
)
from reference import node_id

P = Partition

# partitions of at most 40 parts, each at most 12
SHAPES = st.lists(st.integers(1, 12), max_size=40).map(lambda parts: P(sorted(parts, reverse=True)))


def test_desk_values():
    assert xi_by_first_part(P((1, 1))) == -1
    assert xi_by_first_part(P((2, 1))) == -1
    assert xi_by_first_part(P((3, 1))) == -3
    assert xi_by_last_part(P((1, 1))) == -1
    assert xi_by_last_part(P((2, 2))) == 3
    assert xi_by_last_part(P((2, 1))) == -1
    assert xi(P((2, 1))).xi == -1
    assert xi_by_first_part(P()) == 1
    for n in range(1, 12):
        assert xi_by_first_part(P((n,))) == derangement_count(n)


def test_recurrences_agree():
    for n in range(1, 17):
        for mu in enumerate_partitions(n):
            assert xi_by_first_part(mu) == xi_by_last_part(mu), mu


def test_printed_variant_disagrees():
    assert xi_by_last_part_printed_variant(P((1, 1))) == -2
    assert xi_by_first_part(P((1, 1))) == -1
    with pytest.raises(ValueError):
        xi_by_last_part_printed_variant(P((3,)))


def test_table_small():
    t = sym_spectrum_table(2)
    assert t.rows == {P((2,)): (1, 1), P((1, 1)): (-1, 1)}
    t = sym_spectrum_table(3)
    assert t.rows == {P((3,)): (2, 1), P((2, 1)): (-1, 4), P((1, 1, 1)): (2, 1)}


def test_table_trace_identities():
    # k = 0 checks the multiplicities, k = 1 and 2 the eigenvalues with them
    for n in range(1, 25):
        t = sym_spectrum_table(n)
        assert t.multiplicity_total() == math.factorial(n)
        assert sum(v * m for v, m in t.rows.values()) == 0
        assert sum(v * v * m for v, m in t.rows.values()) == math.factorial(
            n
        ) * derangement_count(n)


def test_table_rows_match_reference_paths():
    # the table's lattice sweep of the first-part and hook recurrences
    # against the last-part recurrence and the cell-by-cell hook product
    for n in range(1, 21):
        for mu, (value, mult) in sym_spectrum_table(n).rows.items():
            assert value == xi_by_last_part(mu), mu
            assert mult == irrep_dimension(mu) ** 2, mu


def test_table_rows_match_the_single_query_store():
    # the lattice sweep and the single query on each row's suffixes are
    # separate engines
    for n in range(1, 25):
        for mu, (value, _) in sym_spectrum_table(n).rows.items():
            assert value == xi_by_first_part(mu), mu


def test_table_checks_every_dimension(monkeypatch):
    quotients = []

    def hook_quotient(order, product):
        quotients.append(product)
        return quotient_check(order, product)

    quotient_check = lattice._hook_quotient
    monkeypatch.setattr(lattice, "_hook_quotient", hook_quotient)
    rows = sym_spectrum_table(9).rows
    assert len(quotients) == len(rows)


def test_table_rows_match_the_untrimmed_sweep():
    # the table's sweep drops the values no later level reads; its rows are
    # those of the sweep that keeps every value
    for n in range(1, 31):
        assert sym_spectrum_table(n).values == _xi_sweep(n)[2]


def test_table_sweep_ends_holding_only_live_values(held_by_level):
    # at n = 30 the table's sweep holds at most 3,673 of its 5,604 values by
    # slot at the start of a level and ends holding 1, and its hook products
    # likewise, each the untrimmed sweep's at its slot; the suites' sym
    # sweep keeps every value
    peaks, (trimmed, held, _, _) = held_by_level(lambda: _xi_sweep(30, table=True))
    full = _xi_sweep(30)[1]
    hooked = PartitionLattice(30, doubled=False, hooks=True)
    for _ in hooked.levels():
        pass
    assert peaks[0] <= 3673 and peaks[1] <= 3673
    for values, kept in ((held, full), (trimmed.hooks, hooked.hooks)):
        assert len(values) == len(kept) == 5604 and None not in kept
        assert sum(value is not None for value in values) == 1
        assert all(value is None or value == k for value, k in zip(values, kept))


def test_n4_trace_desk_check():
    t = sym_spectrum_table(4)
    vals = {k.to_text(): v for k, v in t.rows.items()}
    assert vals == {
        "4": (9, 1),
        "3+1": (-3, 9),
        "2+2": (3, 4),
        "2+1+1": (1, 9),
        "1+1+1+1": (-3, 1),
    }


def test_deep_shapes_against_the_last_part_recurrence():
    for mu in [(60, 41, 7, 7, 1), (5, 5, 3), (600, 600), (7,) + (1,) * 30, (3,) * 200]:
        assert xi_by_first_part(P(mu)) == xi_by_last_part(P(mu)), mu


def test_single_part_evaluates_one_node(monkeypatch):
    # suffix_1 - j past j = mu_2 has one part, so (m,) needs D_m alone
    asked = []
    monkeypatch.setattr(sym_spectrum, "derangement_count", lambda k: asked.append(k) or derangement_count(k))
    assert xi_by_first_part(P((40,))) == derangement_count(40)
    assert asked == [40]
    # nor does it build anything of length m: a list or tuple of 10^6 entries
    # would take 8 MB
    monkeypatch.setattr(sym_spectrum, "derangement_count", lambda k: k)
    mu = P((10**6,))
    tracemalloc.start()
    try:
        assert xi_by_first_part(mu) == 10**6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@settings(max_examples=60, deadline=None)
@given(SHAPES)
def test_single_query_matches_the_last_part_recurrence(mu):
    assert xi_by_first_part(mu) == xi_by_last_part(mu)


@functools.cache
def _swept(n):
    lattice, values, rows, _ = _xi_sweep(n)
    return lattice, values, dict(zip(enumerate_partitions(n), rows))


@settings(max_examples=60, deadline=None)
@given(SHAPES.map(lambda mu: P(mu[: bisect_right(list(accumulate(mu)), 30)])))
def test_single_query_matches_the_sweep(mu):
    # the suffix table against the lattice sweep of mu's size, which holds
    # the partitions of that size in row order, and by slot the nu with
    # |nu| + len(nu) at most that size, mu - 1 among them
    lattice, values, rows = _swept(mu.size)
    assert xi(mu).xi == rows[mu]
    if mu:
        # mu - 1 = (m,) + t is in the block of t, the place of the row (|mu| - |t|,) + t
        below = P(part - 1 for part in mu)
        t = below[1:]
        block = enumerate_partitions(mu.size).index((mu.size - sum(t),) + t)
        assert xi(below).xi == values[lattice.slots[block] + sum(below[:1])]


def test_four_xi_paths_agree_up_to_twenty():
    # every partition of size <= 20: the first-part recurrence as each n's
    # sym sweep and as a single query, the strip recurrence at alpha = 1 as
    # one sweep to 20, and the last-part recurrence with its store
    lattice, strip, _, _ = _eta_sweep(20, alpha=1)
    checked = 0
    for n in range(1, 21):
        for mu, row in zip(enumerate_partitions(n), _xi_sweep(n)[2]):
            assert row == strip[node_id(lattice, mu)] == xi_by_first_part(mu) == xi_by_last_part(mu), mu
            checked += 1
    assert checked == 2713  # p(1) + ... + p(20)
