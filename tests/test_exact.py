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
from pmspec.sym_spectrum import xi_by_first_part


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


def _fresh(monkeypatch, name):
    """Replace the sequence ``name`` by one that keeps nothing rolled yet,
    and return the list its step appends each index it rolls to."""
    step, _, _ = getattr(exact, name)
    steps = []

    def counted(m, prev, prev2):
        steps.append(m)
        return step(m, prev, prev2)

    monkeypatch.setattr(exact, name, (counted, {0: (1, 0)}, [0, 1, 0]))
    return steps


def test_sequences_roll_past_the_stored_index():
    # past index 1,024, where the query model starts counting checkpoint
    # pairs, each term is rolled from the pairs kept below it
    n = 1024 + 6
    assert pm_degree(n) == pm_degree_inclusion_exclusion(n)
    assert derangement_count(n) == sum(
        (-1) ** k * (math.factorial(n) // math.factorial(k)) for k in range(n + 1)
    )
    assert odd_double_factorial(n) == math.factorial(2 * n) // (2**n * math.factorial(n))
    assert pm_degree(n + 1) == 2 * n * (pm_degree(n) + pm_degree(n - 1))


def test_checkpoints_match_the_plain_recurrence(monkeypatch):
    # a roll starts at the highest pair kept at or below its index: a
    # checkpoint below a term asked for earlier, the last checkpoint kept, or
    # the pair last rolled to.  The terms on both sides of several
    # checkpoints, three of them where the spacing doubles, equal the
    # recurrences run straight through
    top = 4 * 1024 + 2
    d, big_d, odd = [1, 0], [1, 0], [1, 1]
    for m in range(2, top + 1):
        d.append(2 * (m - 1) * (d[-1] + d[-2]))
        big_d.append((m - 1) * (big_d[-1] + big_d[-2]))
        odd.append(odd[-1] * (2 * m - 1))
    sequences = [
        ("_pm_deg", pm_degree, d),
        ("_derange", derangement_count, big_d),
        ("_odd_df", odd_double_factorial, odd),
    ]
    indices = [5, 0, 33, 31, 2049, 1025, 1088, 1087, 1089, 2047, 2048, 2176, 2175, 2177, 1151, 1152, 4097, 4096, 3000]
    for name, term, plain in sequences:
        steps = _fresh(monkeypatch, name)
        _, marks, last = getattr(exact, name)
        for k in indices:
            start = max([m for m in marks if m <= k] + [last[0]] * (last[0] <= k))
            steps.clear()
            assert term(k) == plain[k], (name, k)
            assert steps == list(range(start + 1, k + 1)), (name, k)
        expected = [m for m in range(top) if exact._checkpoint_below(m) == m]
        # every index below 32, then sixteen per doubling: spacing 2 from 32,
        # 64 from 1024, 128 from 2048 and 256 from 4096
        assert list(marks) == sorted(marks) == expected
        assert len(expected) == 32 + 7 * 16 + 1
        assert all(marks[m] == (plain[m], plain[m - 1]) for m in expected if m)
        assert last == [3000, plain[3000], plain[2999]]


def test_ascending_reads_take_one_step_each(monkeypatch):
    # past the highest pair kept each read in ascending order takes one step,
    # and a read below the pair last rolled to starts at the checkpoint below
    d = [1, 0]
    for m in range(2, 1600):
        d.append(2 * (m - 1) * (d[-1] + d[-2]))
    steps = _fresh(monkeypatch, "_pm_deg")
    assert pm_degree(1500) == d[1500] and len(steps) == 1500
    for k in range(1501, 1600):
        steps.clear()
        assert pm_degree(k) == d[k] and steps == [k]
    steps.clear()
    assert pm_degree(1571) == d[1571]
    assert steps == list(range(1537, 1572))  # from the checkpoint 1536, spacing 64
    steps.clear()
    assert pm_degree(20) == d[20] and steps == []  # every index below 32 is kept


def test_fresh_xi_query_steps_once_per_one_part_node(monkeypatch):
    # xi's one-part nodes of (2000, 2000) read D_1 ... D_2000 in ascending
    # order, one step each
    expected = xi_by_first_part((2000, 2000))
    steps = _fresh(monkeypatch, "_derange")
    assert xi_by_first_part((2000, 2000)) == expected
    assert len(steps) <= 2000


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
    # the lattice divides n! by each row's hook product in _hook_quotient
    lattice = PartitionLattice(6, doubled=False, hooks=True)
    for _ in lattice.levels():
        pass
    rows = dict(zip(enumerate_partitions(6), lattice.row_dims))
    assert [rows[mu] for mu in ((4, 2), (2, 2, 2))] == [9, 5]
    # their hook products, 5*4*2*1 * 2*1 and 4*3 * 3*2 * 2*1
    assert [_hook_quotient(math.factorial(6), h) for h in (80, 144)] == [9, 5]
    # a hook product that does not divide n! signals a hook bug: 4 for (2, 1)
    with pytest.raises(ArithmeticError):
        _hook_quotient(math.factorial(3), 4)


def test_irrep_dimension_sum_of_squares():
    for n in range(1, 13):
        total = sum(irrep_dimension(mu) ** 2 for mu in enumerate_partitions(n))
        assert total == math.factorial(n)


@pytest.mark.parametrize(
    "budget, needed, amounts",
    [
        # both were once printed as the same whole MB
        (2_028_400_000, 2_028_400_001, ("2029", "2028")),
        (10**12, 10**12 + 1, ("1.01e+06", "1000000")),
        (8_419_655_680, 8_419_655_681, ("8420", "8419")),
        # an int need past any float is still rounded up, not overflowed
        (10**12, 10**900 + 1, ("1.01e+894", "1000000")),
        (10**12, 999 * 10**897 + 1, ("1e+894", "1000000")),
    ],
)
def test_a_refused_need_reads_larger_than_the_budget(monkeypatch, budget, needed, amounts):
    # the need is rounded up and the budget down
    monkeypatch.setattr(exact, "memory_budget", lambda: (budget, "physical memory"))
    exact.admit([(budget, "at the budget")])
    with pytest.raises(ValueError) as refusal:
        exact.admit([(needed, "just over it, needs")])
    need, have = amounts
    assert str(refusal.value) == f"just over it, needs about {need} MB, more than the {have} MB of physical memory"
