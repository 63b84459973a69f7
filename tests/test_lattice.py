import math
from array import array
from itertools import chain, repeat

import pytest

from pmspec.exact import irrep_dimension
from pmspec.lattice import ID_LIMIT, PartitionLattice
from pmspec.partitions import Partition, bounded_partition_counts, enumerate_partitions
from pmspec.pm_spectrum import _eta_sweep
from pmspec.sym_spectrum import _xi_sweep, xi_by_last_part
from reference import node_id


def minus(lam, j):
    return tuple(p - j for p in lam if p > j)


def swept(n):
    # base is filled by a walk only if it was set before it; each block as
    # (b, lo, hi, head, last, F(t), below), F(t) None with no hooks
    lattice = PartitionLattice(n, doubled=False)
    lattice.base = array("i", [0]) * lattice.row_count
    blocks = []
    for _, level in lattice.levels():
        blocks += zip(level.b, level.lo, level.hi, level.head, level.last, repeat(None), level.below)
    return lattice, blocks


def tails(n):
    # block b's tail is the tail of the b-th partition of n in row order
    return [tuple(lam[1:]) for lam in enumerate_partitions(n)]


def slotted(lattice):
    # the partitions nu with |nu| + len(nu) <= n by slot, read off the
    # blocks' slots: in the block of t they are m <= n - |t| - len(t) - 1
    by_slot = {0: ()}
    for b, t in enumerate(tails(lattice.n)):
        for m in range(t[0] if t else 1, lattice.n - sum(t) - len(t)):
            by_slot[lattice.slots[b] + m] = (m,) + t
    return by_slot


@pytest.mark.parametrize("n", range(1, 13))
def test_every_partition_gets_one_id_and_the_walk_finds_it(n):
    lattice, blocks = swept(n)
    base, t_of = lattice.base, tails(n)
    # the blocks' node ids, in the order they come, are 1, 2, ... with no gap
    ids = [base[b] + m for b, lo, hi, *_ in blocks for m in range(lo, hi + 1)]
    assert ids == list(range(1, len(ids) + 1))
    partitions = list(chain.from_iterable(enumerate_partitions(k) for k in range(n + 1)))
    assert len(ids) + 1 == len(partitions)
    walked = {node_id(lattice, lam): lam for lam in partitions}
    assert sorted(walked) == list(range(len(partitions)))
    # each block's partitions are (m,) + t for its tail t
    for b, lo, hi, *_ in blocks:
        t = t_of[b]
        assert lo == (t[0] if t else 1) and hi == n - sum(t)
        assert [walked[base[b] + m] for m in range(lo, hi + 1)] == [(m,) + t for m in range(lo, hi + 1)]


@pytest.mark.parametrize("n", [1, 2, 12])
def test_only_the_pm_sweeps_make_base(n):
    # neither sym sweep reads a node id, so neither sets base, and it stays
    # None: a node id read off a sym sweep's lattice fails, not wrong.  The
    # pm sweeps, at alpha = 2 and 1, set it before their walk, which fills it
    for table in (False, True):
        assert _xi_sweep(n, table=table)[0].base is None
        for alpha in (1, 2):
            assert len(_eta_sweep(n, table=table, alpha=alpha)[0].base) == bounded_partition_counts(n)[n][n]


@pytest.mark.parametrize("n", range(1, 13))
def test_children_are_found_by_index_and_come_first(n):
    lattice, blocks = swept(n)
    base, minus1, slots, t_of = lattice.base, lattice.minus1, lattice.slots, tails(n)
    slot_of = {nu: slot for slot, nu in slotted(lattice).items()}
    for b, lo, hi, head, last, _, below in blocks:
        t, r = t_of[b], len(t_of[b]) + 1
        assert t_of[minus1[b]] == minus(t, 1) and below == slot_of[minus(t, 1)]
        if t:
            assert t_of[head] == t[:-1] and last == t[-1]
        for m in range(lo, hi + 1):
            lam, node = (m,) + t, base[b] + m
            assert node_id(lattice, t) < node
            # lam - 1, by node and, for the evaluated lam and the row, by slot
            assert base[minus1[b]] + m - 1 == node_id(lattice, minus(lam, 1)) < node
            if m <= hi - r or m == hi:
                assert slots[minus1[b]] + m - 1 == slot_of[minus(lam, 1)]
            if m <= hi - r:
                assert slot_of[lam] == slots[b] + m > slot_of[minus(lam, 1)]
            if not t:
                continue
            # the head and head - j, as the strip recurrence reads them
            child = head
            for j in range(last + 1):
                assert base[child] + m - j == node_id(lattice, minus(lam[:-1], j)) < node
                child = minus1[child]


@pytest.mark.parametrize("n", range(1, 31))
def test_block_places_are_the_row_order(n):
    # each block's number is the place of its one partition of n, (hi,) + t:
    # they are 0, 1, ..., p(n) - 1 with no gap or repeat, the ids in place
    # are those of enumerate_partitions(n), in its order, and the block of
    # (m,) + t is step[hi][m] past the block of t
    lattice, blocks = swept(n)
    rows, t_of = enumerate_partitions(n), tails(n)
    place_of = {t: b for b, t in enumerate(t_of)}
    assert sorted(b for b, *_ in blocks) == list(range(len(rows))) and len(rows) == lattice.row_count
    assert [lattice.base[b] + hi for b, _, hi, *_ in sorted(blocks)] == [node_id(lattice, lam) for lam in rows]
    for b, lo, hi, *_ in blocks:
        t = t_of[b]
        assert [b + lattice.step[hi][m] for m in range(lo, hi // 2 + 1)] == [
            place_of[(m,) + t] for m in range(lo, hi // 2 + 1)
        ]


@pytest.mark.parametrize("n", range(1, 31))
@pytest.mark.parametrize("doubled", [False, True])
def test_lattice_lists_hold_one_slot_per_row(n, doubled):
    # the per-block arrays, the hook products by slot and the sym sweep's
    # values hold p(n) entries each, none of them unset: the partitions nu
    # with |nu| + len(nu) <= n, one per partition of n
    lattice = PartitionLattice(n, doubled=doubled, hooks=True)
    p = lattice.row_count
    assert lattice.base is None and len(lattice.minus1) == len(lattice.slots) == p == len(enumerate_partitions(n))
    for _ in lattice.levels():
        pass
    assert len(lattice.hooks) == p and None not in lattice.hooks and None not in lattice.row_dims
    values = _xi_sweep(n)[1]
    assert len(values) == p and None not in values
    # the slots hold those nu, and H(nu) (of 2 nu when doubled) at each
    by_slot = slotted(lattice)
    assert sorted(by_slot) == list(range(p))
    assert set(by_slot.values()) == {
        lam for k in range(n + 1) for lam in enumerate_partitions(k) if k + len(lam) <= n
    }
    for slot, nu in by_slot.items():
        shape = Partition(tuple(2 * part for part in nu) if doubled else nu)
        size = sum(shape)
        assert lattice.hooks[slot] * (irrep_dimension(shape) if size else 1) == math.factorial(size), nu


@pytest.mark.parametrize("n", range(2, 13))
def test_sym_sweep_evaluates_the_first_part_closure(n):
    lattice, values, rows, _ = _xi_sweep(n)
    hooked = PartitionLattice(n, doubled=False, hooks=True)
    for _ in hooked.levels():
        pass
    by_slot = slotted(lattice)
    # the values and hook products by slot are of the same partitions, and
    # the rows' are kept in row order, apart from them
    parts = enumerate_partitions(n)
    assert len(values) == len(hooked.hooks) == len(by_slot) and None not in hooked.row_dims
    assert not set(parts) & set(by_slot.values())
    # what the first-part recurrence reaches from the rows: mu - 1 and the
    # tail after mu's first part, - 1, for every mu of two parts or more
    closure, todo = set(), list(parts)
    while todo:
        mu = tuple(todo.pop())
        if mu not in closure:
            closure.add(mu)
            if len(mu) > 1:
                todo += [minus(mu, 1), minus(mu[1:], 1)]
    assert set(by_slot.values()) | set(parts) == closure | {(n - 1,)}
    for slot, nu in by_slot.items():
        assert values[slot] == xi_by_last_part(Partition(nu)), nu
    assert rows == [xi_by_last_part(mu) for mu in parts]


def test_id_limit_is_the_least_n_past_four_byte_ids():
    # the partitions of size at most n take the node ids 0, 1, ... of an array("i")
    counts = bounded_partition_counts(ID_LIMIT)[ID_LIMIT]
    assert sum(counts[:ID_LIMIT]) < 2**31 <= sum(counts)
