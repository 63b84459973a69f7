import math

import pytest

from pmspec import exact
from pmspec.exact import (
    _hook_quotient,
    binomial,
    conjugate,
    derangement_count,
    irrep_dimension,
    odd_double_factorial,
    pm_degree,
    pm_degree_inclusion_exclusion,
)
from pmspec.lattice import PartitionLattice
from pmspec.partitions import Partition, enumerate_partitions


def pm_degree_truncated_sum(n: int) -> int:
    """The inclusion-exclusion sum for d_n truncated at i = n-1.

    Diagnostic only: this differs from the true degree by exactly (-1)^n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return sum(
        (-1) ** i * binomial(n, i) * odd_double_factorial(n - i) for i in range(n)
    )


def test_odd_double_factorial_values():
    assert odd_double_factorial(0) == 1
    assert odd_double_factorial(3) == 15
    assert odd_double_factorial(5) == 945


def test_odd_double_factorial_relates_to_factorial():
    for k in range(21):
        assert odd_double_factorial(k) * 2**k * math.factorial(k) == math.factorial(2 * k)


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(17, 0) == 1
    assert binomial(5, 7) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pm_degree_small():
    assert pm_degree(0) == 1
    assert pm_degree(1) == 0
    assert pm_degree(2) == 2
    assert pm_degree(4) == 60


def test_pm_degree_brute_force_oracle():
    # count matchings of K_{2n} disjoint from the identity matching {12,34,...}
    import itertools

    def matchings(verts):
        if not verts:
            yield ()
            return
        a = verts[0]
        for i in range(1, len(verts)):
            for rest in matchings(verts[1:i] + verts[i + 1 :]):
                yield ((a, verts[i]),) + rest

    for n in range(1, 6):
        base = {(2 * i + 1, 2 * i + 2) for i in range(n)}
        count = sum(
            1 for m in matchings(tuple(range(1, 2 * n + 1))) if not base & set(m)
        )
        assert count == pm_degree(n)


def test_inclusion_exclusion_matches_recurrence():
    assert pm_degree_inclusion_exclusion(1) == 0
    assert pm_degree_inclusion_exclusion(2) == 2
    assert pm_degree_inclusion_exclusion(3) == 8
    for n in range(1, 31):
        assert pm_degree_inclusion_exclusion(n) == pm_degree(n)


def test_truncated_sum_differs_by_alternating_unit():
    # the sum stopped at i = n-1 misses exactly the (-1)^n term
    for n in range(1, 15):
        assert pm_degree_truncated_sum(n) == pm_degree(n) - (-1) ** n
        assert pm_degree_truncated_sum(n) != pm_degree(n)


def test_sequences_roll_past_the_stored_index():
    # past the stored index each term is rolled from the last two kept,
    # and the stores stay at their fixed length
    n = exact._STORED + 6
    assert pm_degree(n) == pm_degree_inclusion_exclusion(n)
    assert derangement_count(n) == sum(
        (-1) ** k * (math.factorial(n) // math.factorial(k)) for k in range(n + 1)
    )
    assert odd_double_factorial(n) == math.factorial(2 * n) // (2**n * math.factorial(n))
    assert pm_degree(n + 1) == 2 * n * (pm_degree(n) + pm_degree(n - 1))
    for store in (exact._pm_deg, exact._derange, exact._odd_df):
        assert len(store) == exact._STORED + 1


def test_checkpoints_match_the_plain_recurrence(monkeypatch):
    # past the stored index a roll starts at the nearest kept checkpoint
    # below: at the store, at a checkpoint below a term asked for earlier,
    # or at the last one kept.  The terms on both sides of several
    # checkpoints, two of them where the spacing doubles, equal the
    # recurrences run straight through
    top = 4 * exact._STORED + 2
    d, big_d, odd = [1, 0], [1, 0], [1, 1]
    for m in range(2, top + 1):
        d.append(2 * (m - 1) * (d[-1] + d[-2]))
        big_d.append((m - 1) * (big_d[-1] + big_d[-2]))
        odd.append(odd[-1] * (2 * m - 1))
    sequences = [
        ("_pm_deg_marks", pm_degree, d),
        ("_derange_marks", derangement_count, big_d),
        ("_odd_df_marks", odd_double_factorial, odd),
    ]
    indices = [2049, 1025, 1088, 1087, 1089, 2047, 2048, 2176, 2175, 2177, 1151, 1152, 4097, 4096, 3000]
    for marks_name, term, plain in sequences:
        monkeypatch.setattr(exact, marks_name, {})
        for k in indices:
            assert term(k) == plain[k], (term.__name__, k)
        marks = getattr(exact, marks_name)
        expected = [m for m in range(exact._STORED, top) if exact._checkpoint_below(m) == m]
        # sixteen per doubling, from the stored index on: spacing 64 from
        # 1024, 128 from 2048 and 256 from 4096
        assert list(marks) == expected
        assert len(expected) == 16 + 16 + 1
        assert all(marks[m] == (plain[m], plain[m - 1]) for m in expected)
    # each roll starts at the highest kept pair at or below its index
    store, marks, steps = [1, 0], {}, []

    def step(m, prev, prev2):
        steps.append(m)
        return 2 * (m - 1) * (prev + prev2)

    exact._term(store, marks, exact._STORED, step)
    for k in indices:
        start = max([exact._STORED, *(m for m in marks if m <= k)])
        steps.clear()
        assert exact._term(store, marks, k, step) == d[k]
        assert steps == list(range(start + 1, k + 1)), k


def test_derangement_count():
    assert derangement_count(1) == 0
    assert derangement_count(3) == 2
    assert derangement_count(4) == 9
    import itertools

    for n in range(1, 8):
        brute = sum(
            1
            for p in itertools.permutations(range(n))
            if all(p[i] != i for i in range(n))
        )
        assert brute == derangement_count(n)


def test_positivity():
    for n in range(2, 31):
        assert pm_degree(n) > 0
        assert derangement_count(n) > 0


def test_conjugate():
    assert conjugate(Partition((4, 2))) == (2, 2, 1, 1)
    assert conjugate(Partition()) == ()


def test_irrep_dimension_examples():
    assert irrep_dimension(Partition((6,))) == 1
    assert irrep_dimension(Partition((4, 2))) == 9
    assert irrep_dimension(Partition((2, 2, 2))) == 5
    with pytest.raises(ValueError):
        irrep_dimension(Partition())


def test_hook_dimensions_check_the_remainder():
    # the tables divide n! by the lattice's hook products in _hook_quotient
    lattice = PartitionLattice(6, doubled=False, hooks=True)
    for _ in lattice.levels():
        pass
    rows = dict(zip(enumerate_partitions(6), lattice.row_hooks))
    products = [rows[mu] for mu in ((4, 2), (2, 2, 2))]
    assert [_hook_quotient(math.factorial(6), h) for h in products] == [9, 5]
    # a hook product that does not divide n! signals a hook bug: 4 for (2, 1)
    with pytest.raises(ArithmeticError):
        _hook_quotient(math.factorial(3), 4)


def test_irrep_dimension_sum_of_squares():
    for n in range(1, 13):
        total = sum(irrep_dimension(mu) ** 2 for mu in enumerate_partitions(n))
        assert total == math.factorial(n)
