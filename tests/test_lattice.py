from itertools import chain

import pytest

from pmspec import memo
from pmspec.lattice import PartitionLattice
from pmspec.partitions import enumerate_partitions
from pmspec.sym_spectrum import _first_part_children, _first_part_combine, _xi_sweep


def minus(lam, j):
    return tuple(p - j for p in lam if p > j)


def index(lattice, lam):
    """The id of lam: (m,) + t is base[t] + m, walked from the empty partition."""
    node = 0
    for part in reversed(lam):
        node = lattice.base[node] + part
    return node


def swept(n):
    lattice = PartitionLattice(n, doubled=False)
    blocks = list(chain.from_iterable(level for _, level in lattice.levels()))
    return lattice, blocks


@pytest.mark.parametrize("n", range(1, 13))
def test_every_partition_gets_one_id_and_the_walk_finds_it(n):
    lattice, blocks = swept(n)
    # the blocks' ids, in the order they come, are 1, 2, ... with no gap
    ids = [offset + m for _, offset, lo, hi, _, _, _ in blocks for m in range(lo, hi + 1)]
    assert ids == list(range(1, len(ids) + 1))
    partitions = list(chain.from_iterable(enumerate_partitions(k) for k in range(n + 1)))
    assert len(ids) + 1 == len(partitions) == len(lattice.base) == len(lattice.minus1)
    walked = {index(lattice, lam): lam for lam in partitions}
    assert sorted(walked) == list(range(len(partitions)))
    assert lattice.rows() == [index(lattice, lam) for lam in enumerate_partitions(n)]
    # each block's partitions are (m,) + t for its tail t
    for tail, offset, lo, hi, _, _, _ in blocks:
        t = walked[tail]
        assert lo == (t[0] if t else 1) and hi == n - sum(t)
        assert [walked[offset + m] for m in range(lo, hi + 1)] == [(m,) + t for m in range(lo, hi + 1)]


@pytest.mark.parametrize("n", range(1, 13))
def test_children_are_found_by_index_and_come_first(n):
    lattice, blocks = swept(n)
    base, minus1 = lattice.base, lattice.minus1
    walked = {index(lattice, lam): lam for k in range(n + 1) for lam in enumerate_partitions(k)}
    for tail, offset, lo, hi, head, last, _ in blocks:
        t = walked[tail]
        assert minus1[tail] == index(lattice, minus(t, 1))
        if t:
            assert walked[head] == t[:-1] and last == t[-1]
        for m in range(lo, hi + 1):
            lam, node = (m,) + t, offset + m
            assert tail < node
            # lam - 1
            assert base[minus1[tail]] + m - 1 == index(lattice, minus(lam, 1)) < node
            if not t:
                continue
            # the head and head - j, as the strip recurrence reads them
            child = head
            for j in range(last + 1):
                assert base[child] + m - j == index(lattice, minus(lam[:-1], j)) < node
                child = minus1[child]


@pytest.mark.parametrize("n", range(2, 13))
def test_sym_sweep_evaluates_the_first_part_closure(n):
    lattice, values, hooks = _xi_sweep(n)
    evaluated = {node for node, value in enumerate(values) if value is not None}
    assert evaluated == {node for node, value in enumerate(hooks) if value is not None}
    # the same set a memoized first-part recurrence stores for every row
    recurrence = memo.Recurrence(_first_part_children, _first_part_combine)
    for mu in enumerate_partitions(n):
        recurrence(mu)
    stored = {index(lattice, nu): value for nu, value in recurrence._store.items()}
    assert evaluated == set(stored) | {index(lattice, (n - 1,))}
    assert all(values[node] == value for node, value in stored.items())

