import math

import pytest

from pmspec import sym_spectrum
from pmspec.exact import derangement_count, irrep_dimension
from pmspec.partitions import Partition, enumerate_partitions
from pmspec.sym_spectrum import (
    sym_spectrum_table,
    xi,
    xi_by_first_part,
    xi_by_last_part,
    xi_by_last_part_printed_variant,
)

P = Partition


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
    # the lattice sweep and the memoized single query are separate engines
    for n in range(1, 25):
        for mu, (value, _) in sym_spectrum_table(n).rows.items():
            assert value == xi_by_first_part(mu), mu


def test_table_checks_every_dimension(monkeypatch):
    quotients = []

    def hook_quotient(order, product):
        quotients.append(product)
        return quotient_check(order, product)

    quotient_check = sym_spectrum._hook_quotient
    monkeypatch.setattr(sym_spectrum, "_hook_quotient", hook_quotient)
    rows = sym_spectrum_table(9).rows
    assert len(quotients) == len(rows)


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
