import pytest
from hypothesis import given, strategies as st

from pmspec.partitions import (
    Dominance,
    Partition,
    TransferMove,
    bounded_partition_counts,
    dominance_chain,
    dominance_compare,
    enumerate_partitions,
    first_part_counts,
    has_first_part_three_rest_small,
    parse_digits,
    valid_transfers,
    walk_partitions,
)

WEAKLY_BELOW = (Dominance.LESS, Dominance.EQUAL)


def test_normalize():
    assert Partition((3, 1, 0, 0)) == (3, 1)
    assert Partition((0, 0)) == ()
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, -1))


def test_parts_must_be_integers():
    import numpy as np

    for parts in ([2.5, 1], ["3", "2"], [2.9, 1.2], [2, 1.0]):
        with pytest.raises(TypeError):
            Partition(parts)
    lam = Partition([np.int64(3), np.uint8(2), 1])
    assert lam == (3, 2, 1) and all(type(p) is int for p in lam)


def test_construction_strips_long_zero_tails_and_reuses_partitions():
    k = 5000
    assert Partition((1,) * k + (0,) * k) == (1,) * k
    assert Partition((0,) * k) == ()
    p = Partition((3, 1))
    assert Partition(p) is p


def test_size_and_length():
    p = Partition((3, 2, 1))
    assert p.size == 6 and len(p) == 3
    assert Partition().size == 0


def test_text_roundtrip():
    assert Partition((3, 2, 1)).to_text() == "3+2+1"
    assert Partition().to_text() == "0"
    assert Partition.from_text("3+2+1") == (3, 2, 1)
    assert Partition.from_text("0") == ()
    with pytest.raises(ValueError):
        Partition.from_text("2+3")
    with pytest.raises(ValueError):
        Partition.from_text("abc")


def test_remove_last_part():
    assert Partition((3, 2, 1)).remove_last_part() == (3, 2)
    assert Partition((5,)).remove_last_part() == ()
    with pytest.raises(ValueError):
        Partition().remove_last_part()


def test_subtract_all():
    assert Partition((3, 2, 1)).subtract_all(1) == (2, 1)
    assert Partition((2, 2)).subtract_all(2) == ()
    with pytest.raises(ValueError):
        Partition((3, 1)).subtract_all(2)


def test_raise_part():
    assert Partition((3, 1)).raise_part(2) == (3, 2)
    assert Partition((4, 2, 1)).raise_part(3) == (4, 2, 2)
    with pytest.raises(ValueError):
        Partition((2, 2)).raise_part(2)
    with pytest.raises(ValueError):
        Partition((3, 1)).raise_part(1)


def test_lower_part():
    assert Partition((3, 2)).lower_part(2) == (3, 1)
    assert Partition((3, 1)).lower_part(2) == (3,)
    with pytest.raises(ValueError):
        Partition((3, 2, 2)).lower_part(2)


def test_transfer():
    assert Partition((3, 2, 1)).transfer(TransferMove(2, 3)) == (3, 3)
    assert Partition((3, 1, 1)).transfer(TransferMove(2, 3)) == (3, 2)
    with pytest.raises(ValueError):
        Partition((2, 2, 1)).transfer(TransferMove(2, 3))


def test_transfer_exhaustive():
    # transfer succeeds exactly on its valid moves, and is a raise then a lower
    for n in range(10):
        for lam in enumerate_partitions(n):
            s = len(lam)
            for i in range(s + 2):
                for j in range(s + 2):
                    valid = 2 <= i < j <= s and lam[i - 2] > lam[i - 1] and (j == s or lam[j - 1] > lam[j])
                    if valid:
                        assert lam.transfer(TransferMove(i, j)) == lam.raise_part(i).lower_part(j)
                    else:
                        with pytest.raises(ValueError):
                            lam.transfer(TransferMove(i, j))


def test_raise_then_lower_is_identity():
    for n in range(2, 11):
        for mu in enumerate_partitions(n):
            for i in range(2, len(mu) + 1):
                if mu[i - 2] <= mu[i - 1]:
                    continue
                raised = mu.raise_part(i)
                assert raised.lower_part(i) == mu


def test_enumerate_partitions():
    assert enumerate_partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert enumerate_partitions(0) == [()]
    assert len(enumerate_partitions(7)) == 15


def test_enumerate_partitions_lex_and_count():
    # partition numbers p(n) for n = 0..40
    expected = [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231,
        297, 385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718,
        4565, 5604, 6842, 8349, 10143, 12310, 14883, 17977, 21637, 26015,
        31185, 37338,
    ]
    for n in range(41):
        parts = enumerate_partitions(n)
        assert len(parts) == expected[n]
        assert all(a > b for a, b in zip(parts, parts[1:]))  # strict decreasing lex
        for lam in parts:
            assert type(lam) is Partition
            assert all(p > 0 for p in lam) and sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
    assert list(zip(range(41), bounded_partition_counts(40)[40])) == list(enumerate(expected))


def test_partition_texts_follow_the_walk():
    for n in range(31):
        walk = [(tuple(parts[:m]), text, parts[m:n]) for parts, m, text in walk_partitions(n)]
        assert [text for _, text, _ in walk] == [lam.to_text() for lam in enumerate_partitions(n)]
        assert all(lam == Partition.from_text(text) and set(ones) <= {1} for lam, text, ones in walk)
    with pytest.raises(ValueError):
        next(walk_partitions(-1))


def test_first_part_counts_are_the_walk_runs():
    for n, total in zip(range(31), bounded_partition_counts(30)[30]):
        firsts = [parts[0] for parts, _, _ in walk_partitions(n)]
        assert firsts == [lam[0] if lam else 0 for lam in enumerate_partitions(n)]
        runs = [firsts.count(first) for first in range(n, 0, -1)] if n else [1]
        assert first_part_counts(n) == runs
        assert sum(runs) == total
    with pytest.raises(ValueError):
        first_part_counts(-1)


def test_partition_counts_far_out():
    counts = iter(bounded_partition_counts(100)[100])
    assert [next(counts) for _ in range(101)][100] == 190569292


def test_parse_digits():
    assert parse_digits("12") == 12 and parse_digits(" 0 ") == 0
    for text in ("1_0", "-1", "+1", "\u0663", "", "1.0", "0x1"):
        with pytest.raises(ValueError):
            parse_digits(text)


def test_dominance_compare():
    assert dominance_compare(Partition((2, 2)), Partition((3, 1))) is Dominance.LESS
    assert dominance_compare(Partition((3, 1, 1)), Partition((2, 2, 1))) is Dominance.GREATER
    assert dominance_compare(Partition((4, 1, 1)), Partition((3, 3))) is Dominance.INCOMPARABLE
    assert dominance_compare(Partition((2, 1)), Partition((2, 1))) is Dominance.EQUAL
    with pytest.raises(ValueError):
        dominance_compare(Partition((2,)), Partition((3,)))


def test_transfer_strictly_dominates():
    for n in range(2, 13):
        for mu in enumerate_partitions(n):
            for move in valid_transfers(mu):
                moved = mu.transfer(move)
                assert dominance_compare(mu, moved) is Dominance.LESS
                assert len(moved) <= len(mu)
                strict = move.j == len(mu) and mu[move.j - 1] == 1
                assert (len(moved) < len(mu)) == strict


def test_dominance_chain_examples():
    chain = dominance_chain(Partition((3, 1, 1, 1)), Partition((3, 3)))
    assert len(chain) == 2
    cur = Partition((3, 1, 1, 1))
    seen = [cur]
    for move in chain:
        cur = cur.transfer(move)
        seen.append(cur)
    assert cur == (3, 3)
    assert (3, 2, 1) in seen
    assert dominance_chain(Partition((2, 2)), Partition((2, 2))) == []
    with pytest.raises(ValueError):
        dominance_chain(Partition((2, 2)), Partition((3, 1)))


def test_dominance_chain_exhaustive_replay():
    for n in range(2, 13):
        parts = enumerate_partitions(n)
        for lam in parts:
            for target in parts:
                if lam == target or lam[0] != target[0]:
                    continue
                if dominance_compare(lam, target) is not Dominance.LESS:
                    continue
                cur = lam
                for move in dominance_chain(lam, target):
                    # the tie-break: the first admissible move that stays dominated
                    assert move == next(
                        m
                        for m in valid_transfers(cur)
                        if dominance_compare(cur.transfer(m), target) in WEAKLY_BELOW
                    )
                    cur = cur.transfer(move)
                    assert cur[0] == lam[0]
                    assert dominance_compare(cur, target) in WEAKLY_BELOW
                assert cur == target


def test_special_family_predicate():
    assert has_first_part_three_rest_small(Partition((3, 2, 2, 1)))
    assert has_first_part_three_rest_small(Partition((3,)))
    assert not has_first_part_three_rest_small(Partition((3, 3, 1)))
    assert not has_first_part_three_rest_small(Partition((4, 2)))
    assert not has_first_part_three_rest_small(Partition())


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=12))
def test_normalize_accepts_any_sorted_input(raw):
    raw.sort(reverse=True)
    p = Partition(raw)
    assert p.size == sum(raw)
    assert all(x > 0 for x in p)
    assert Partition(p) == p  # idempotent


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=8))
def test_dominance_is_a_partial_order_sample(raw):
    raw.sort(reverse=True)
    mu = Partition(raw)
    assert dominance_compare(mu, mu) is Dominance.EQUAL
    # conjugation reverses dominance against the two extremes
    flat = Partition([1] * mu.size)
    tall = Partition([mu.size])
    assert dominance_compare(flat, mu) in WEAKLY_BELOW
    assert dominance_compare(mu, tall) in WEAKLY_BELOW
