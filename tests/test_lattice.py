from itertools import chain

import pytest

from pmspec.lattice import ID_LIMIT, PartitionLattice
from pmspec.partitions import Partition, bounded_partition_counts, enumerate_partitions
from pmspec.sym_spectrum import _xi_sweep, xi_by_last_part


def minus(lam, j):
    return tuple(p - j for p in lam if p > j)


def swept(n):
    lattice = PartitionLattice(n, doubled=False)
    blocks = list(chain.from_iterable(level for _, level in lattice.levels()))
    return lattice, blocks


@pytest.mark.parametrize("n", range(1, 13))
def test_every_partition_gets_one_id_and_the_walk_finds_it(n):
    lattice, blocks = swept(n)
    # the blocks' ids, in the order they come, are 1, 2, ... with no gap
    ids = [offset + m for _, offset, lo, hi, _, _, _, _ in blocks for m in range(lo, hi + 1)]
    assert ids == list(range(1, len(ids) + 1))
    partitions = list(chain.from_iterable(enumerate_partitions(k) for k in range(n + 1)))
    assert len(ids) + 1 == len(partitions) == len(lattice.base) == len(lattice.minus1)
    walked = {lattice.index(lam): lam for lam in partitions}
    assert sorted(walked) == list(range(len(partitions)))
    # each block's partitions are (m,) + t for its tail t
    for tail, offset, lo, hi, _, _, _, _ in blocks:
        t = walked[tail]
        assert lo == (t[0] if t else 1) and hi == n - sum(t)
        assert [walked[offset + m] for m in range(lo, hi + 1)] == [(m,) + t for m in range(lo, hi + 1)]


@pytest.mark.parametrize("n", range(1, 13))
def test_children_are_found_by_index_and_come_first(n):
    lattice, blocks = swept(n)
    base, minus1 = lattice.base, lattice.minus1
    walked = {lattice.index(lam): lam for k in range(n + 1) for lam in enumerate_partitions(k)}
    for tail, offset, lo, hi, head, last, _, _ in blocks:
        t = walked[tail]
        assert minus1[tail] == lattice.index(minus(t, 1))
        if t:
            assert walked[head] == t[:-1] and last == t[-1]
        for m in range(lo, hi + 1):
            lam, node = (m,) + t, offset + m
            assert tail < node
            # lam - 1
            assert base[minus1[tail]] + m - 1 == lattice.index(minus(lam, 1)) < node
            if not t:
                continue
            # the head and head - j, as the strip recurrence reads them
            child = head
            for j in range(last + 1):
                assert base[child] + m - j == lattice.index(minus(lam[:-1], j)) < node
                child = minus1[child]


@pytest.mark.parametrize("n", range(1, 31))
def test_block_places_are_the_row_order(n):
    # each block's one partition of n, (hi,) + t, is put at its place: the
    # places are 0, 1, ..., p(n) - 1 with no gap or repeat, and the ids in
    # place are those of enumerate_partitions(n), in its order
    lattice, blocks = swept(n)
    rows = enumerate_partitions(n)
    assert len(blocks) == len(rows) == lattice.row_count
    placed = {place: offset + hi for _, offset, _, hi, _, _, _, place in blocks}
    assert sorted(placed) == list(range(len(rows)))
    assert [placed[place] for place in range(len(rows))] == [lattice.index(lam) for lam in rows]


@pytest.mark.parametrize("n", range(2, 13))
def test_sym_sweep_evaluates_the_first_part_closure(n):
    lattice, values, rows, row_hooks = _xi_sweep(n, hooks=True)
    evaluated = {node for node, value in enumerate(values) if value is not None}
    # the rows' hook products are kept in row order, apart from the others
    row_ids = [lattice.index(lam) for lam in enumerate_partitions(n)]
    assert evaluated == {node for node, value in enumerate(lattice.hooks) if value is not None} | set(row_ids)
    assert None not in row_hooks and all(lattice.hooks[node] is None for node in row_ids)
    assert rows == [values[node] for node in row_ids]
    # what the first-part recurrence reaches from the rows: mu - 1 and the
    # tail after mu's first part, - 1, for every mu of two parts or more
    closure, todo = set(), list(enumerate_partitions(n))
    while todo:
        mu = tuple(todo.pop())
        if mu not in closure:
            closure.add(mu)
            if len(mu) > 1:
                todo += [minus(mu, 1), minus(mu[1:], 1)]
    assert evaluated == {lattice.index(nu) for nu in closure} | {lattice.index((n - 1,))}
    for nu in closure:
        assert values[lattice.index(nu)] == xi_by_last_part(Partition(nu)), nu


def test_id_limit_is_the_least_n_past_four_byte_ids():
    # the partitions of size at most n take the ids 0, 1, ... of an array("i")
    counts = bounded_partition_counts(ID_LIMIT)[ID_LIMIT]
    assert sum(counts[:ID_LIMIT]) < 2**31 <= sum(counts)
