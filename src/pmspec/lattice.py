"""The partitions of size at most n as an integer lattice, for the forward
sweeps of the spectrum tables and the verification suites.

A partition lam = (m,) + t, with first part m and tail t, lies in the
block of its tail t: the partitions (m,) + t for lo <= m <= hi, where lo
is t's first part and (hi,) + t is the one of size n.  So there is one
block per partition of n, p(n) in all, and a block is numbered by the
place of its row (hi,) + t in the table, decreasing lexicographic order.
The lattice keeps three kinds of index:

* by block, in ``array("i")`` of p(n) entries: ``base``, the node id of
  (0,) + t, so that (m,) + t has the node id ``base[b] + m``, set only for
  the pm sweeps, which read node ids; ``minus1``, the block of t - 1,
  where ``nu - j`` subtracts j from every part and drops the zeros; and
  ``slots``, the slot of (0,) + t (below), where the block has slots;
* by node: each of the partitions of size at most n has a node id, assigned
  level by level (by number of parts), then by block, then by ascending m.
  Within a level the blocks come by descending node count, hi - lo + 1,
  and as their parents came within one count.  The empty partition is 0
  and (m,) is m.  Only the pm strip sweep keeps values by node: it reads
  its children at every size;
* by slot, for the evaluated nodes: the hook products and the sym sweep's
  values are needed only at the partitions nu with |nu| + len(nu) <= n,
  which nu -> nu + 1, padded with 1s, maps one to one onto the partitions
  of n.  In a block of r-part partitions these are m <= hi - r, and
  ``slots[b] + m`` numbers them 0, 1, ..., p(n) - 1 in node order.

A table's sweep drops each value once no later level reads it, on one
schedule that :meth:`PartitionLattice.levels` keeps for all the lists a
table holds; the suites' sweeps keep every value.  A node nu of k parts
is read by level k + 1 as a head, and by a later level r only as head - j
with j >= 1, whose reader has size at least |nu| + r, at most n: nu is
dead after level max(k + 1, n - |nu|), so before level r every m > hi - r
of a block of level below r - 1 is dead.  A slot nu is read by level r
only as mu - 1 or t - 1 of a partition of r parts and size |nu| + r or
more, evaluated or a row, so of at most n: before level r every slot
m > hi - r of a block of a lower level is dead.  In a block of c nodes,
then, c - r of its nodes and slots are live before level r: the blocks of
one level and one node count die alike, and are one run in node order and
in slot order.

Each read is one slice of a block, found by arithmetic with no tuple built
or hashed, and every child of lam a table recurrence takes comes first in
node order (and in slot order, where it has a slot).  The children of
(m,) + t are:

* lam - 1 = (m - 1,) + (t - 1), at ``base[minus1[b]] + m - 1`` and, for the
  evaluated lam and the row m = hi, at ``slots[minus1[b]] + m - 1``: in t -
  1's block, and evaluated there, with its m's still contiguous;
* head - j, lam without its last part less j on every part: at
  ``base[h] + m - j``, where h is the block of t without its last part and
  each j steps h by ``minus1``;
* t - 1, which the sym recurrence reads: evaluated, at a slot that each
  block carries.

Block numbers are found by arithmetic too.  The rows before (h,) + u are
those of first part above h, and the (h,) + u' with u' a partition of |u|
with parts at most h, after u in increasing lexicographic order, so a
block's number is first[h] - rank(u), where first[h] counts the partitions
of n with first part h or more, less one, and rank(u) is u's place among
the partitions of |u|.  The partitions of |t| + m before (m,) + t are
those of first part below m and the (m,) + u with u before t, so
rank((m,) + t) = P(|t| + m, m - 1) + rank(t), with P from
:func:`pmspec.partitions.bounded_partition_counts`.  The block of (m,) + t
is thus the block of t plus ``step[hi][m]``, which depends on hi and m
alone.  Where t - 1 keeps all the parts of t, its block holds len(t) + 1
more nodes than t's, so it comes first in their level, as (m - 1,) +
(t - 1) must.

A level's blocks are held in flat columns, a :class:`Level`: b, lo, hi,
head, last and below in ``array("i")``, and F(t) in one list where hook
products are taken, so a block costs 24 bytes and its F(t), not a tuple and
three boxed ids.  The next level fills one ``array("i")`` per node count,
six ints a child, while the level before it is read, and is joined into
columns once that level is done; its groups' ids are slices of its b column.
The pm sweep reads b, lo, hi, head and last, the sym sweep b, lo, hi and
below, and the lattice's own pass over a level b, lo, hi, head, last and
F(t); ``base`` and the next level's slots are set from b and lo, a run of
one node count at a time.
:func:`pmspec.exact.admit_table` refuses every n whose node ids would not
fit in 4 bytes.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, compress, count, repeat
from operator import attrgetter, mul
from struct import Struct
from typing import Iterator

from .partitions import bounded_partition_counts

# the least n with 2^31 partitions of size at most n or more, too many for the
# node ids of an ``array("i")``: :func:`pmspec.exact.admit_table` refuses n >= it
ID_LIMIT = 103

# a block's six ints, b, lo, hi, head, last and below, as the bytes of an array("i")
_BLOCK = Struct("6i").pack

# entries a compaction of a table sweep's values by node cuts at a time
_CUT = 1 << 14


class PartitionLattice:
    """Blocks, node ids and slots for the partitions of size at most n,
    assigned by :meth:`levels`, and, with ``hooks``, their hook products.
    ``base``, ``minus1`` and ``slots`` are ``array("i")`` of one entry per
    block, p(n) in all, ``base`` None but where a pm sweep set it before
    its walk; ``step[h][m]`` is what the block of (m,) + t adds to that of
    t, for t of size n - h.  ``hooks`` is H in a list by slot, and
    ``row_dims`` holds N!/H at the partitions of n, of size N, in the order
    of :func:`pmspec.partitions.enumerate_partitions`, each checked to
    divide exactly; both are None without ``hooks``.

    H(nu) = F(nu) H(nu - 1) with H(()) = 1, where F(nu) is the product of
    the hooks in nu's first column: removing that column changes no other
    cell's hook.  For nu = (m,) + t with r parts, F(nu) = (m + r - 1) F(t).
    With ``doubled``, H is the hook product of 2 nu, every part doubled: its
    first two columns go together and leave 2 (nu - 1), so
    F(nu) = (2m + r - 1)(2m + r - 2) F(t).
    """

    def __init__(self, n: int, doubled: bool, hooks: bool = False) -> None:
        # imported here: loading array at start-up raised the peak of every
        # single query, which builds no lattice, by about 0.13 MB
        from array import array

        self.n = n
        self.doubled = doubled
        # row n of the bounded counts is p(0), ..., p(n), parts at most n
        # being no bound
        bounded = bounded_partition_counts(n)
        self.row_count = bounded[n][n]
        first, at_least = [0] * (n + 1), -1
        for h in range(n, 0, -1):
            at_least += bounded[h][n - h]
            first[h] = at_least
        # (m,) + t is a tail, and has a block, iff m <= hi // 2
        self.step = [
            [0] + [first[h - m] - first[h] - bounded[m - 1][n - h + m] for m in range(1, h // 2 + 1)]
            for h in range(n + 1)
        ]
        # by block, set by :meth:`levels`; block 0, of the empty tail, is 0
        # in all three.  Only a sweep that reads node ids sets ``base``, to an
        # array of zeros, before its walk
        self.base = None
        self.minus1 = array("i", [0]) * self.row_count
        self.slots = array("i", [0]) * self.row_count
        # H by slot, and N!/H at each row; complete once :meth:`levels` is exhausted
        self.hooks = self.row_dims = None
        if hooks:
            self.hooks = []
            self.row_dims = [None] * self.row_count

    def levels(self, nodes: list = None, slotted: list = None) -> Iterator[tuple]:
        """Yield ``(r, level)`` for r = 1, 2, ..., n, the partitions of r
        parts, each level a :class:`Level` of blocks in flat columns.

        A block holds the partitions (m,) + t for lo <= m <= hi: ``b`` is
        its number, the place of (hi,) + t among the partitions of n, lo is
        t's first part (1 for the empty t) and (hi,) + t is the one of size
        n.  ``head`` is the block of t without its last part and ``last``
        is t's last part; both are 0 at r = 1, where t is empty.  ``column``
        holds F(t), and is None without hook products, and ``below`` is the
        slot of t - 1.  Blocks come in node order, which is also slot order:
        by descending node count, hi - lo + 1, and then as their parents
        came.  ``minus1`` and ``slots`` are set for every block of a level
        before it is yielded, and ``base``, if the sweep set it before the
        walk, once the level has been read, before the next level;
        ``hooks`` at every slot of fewer than r parts, and ``row_dims`` at
        every row of fewer than r parts.

        No tuple or boxed int per block outlives the pass that reads it.
        While a level is read, the next fills one ``array("i")`` per node
        count, six ints a child (b, lo, hi, head, last, below), with F(t) in
        a list beside it; the buckets are then joined into the next level's
        columns.  Each pass reads the columns it needs: the pass over a
        level that finds its children and its hook products reads b, lo,
        hi, head, last and F(t), and ``base``, the next level's slots and
        its groups' ids are set from b and lo, one run of one node count at
        a time.

        ``nodes``, a list by node id, or ``slotted``, a list by slot, makes
        this a table's sweep: the caller extends the list with each level's
        values, after 1 at the empty partition for ``nodes``, and each of
        them, and each hook product, is set to None once no later level
        reads it (the liveness rules of :mod:`pmspec.lattice`).  The blocks
        of one level and one node count are visited as a group: first once
        half of what it holds is dead (its nodes, or without ``nodes`` its
        slots), then each time half of what it still holds has died.  Once
        at most half of ``nodes`` is live, its live ranges are moved to its
        front and ``base`` follows them, so that a table's sweep finds its
        live nodes where they moved.
        """
        from array import array  # loaded already by __init__

        n, minus1, slots, step = self.n, self.minus1, self.slots, self.step
        hooks, row_dims = self.hooks, self.row_dims
        hooked = hooks is not None
        if hooked:
            order = math.factorial(2 * n if self.doubled else n)
        by_node = nodes is not None
        trim = by_node or slotted is not None
        # None but for the pm sweeps, which set it before this walk
        base = self.base
        by_slot = [values for values in (slotted, hooks) if values is not None]
        # due[s]: the groups to visit before level s; those past n are kept whole
        due = [[] for _ in range(n + 2)]
        held = 0  # the values ``nodes`` holds
        # the empty partition and the (m,): nodes 0 to n and slots 0 to n - 1,
        # in the one block of the empty tail, whose head and last are 0
        empty = [array("i", [value]) for value in (0, 1, n, 0, 0, 0)]  # b, lo, hi, head, last, below
        level = Level(*empty, [1] if hooked else None, [(n, 1)], int(n > 1))
        groups = [_Group(array("i", [0]), 1, n + 1, 0, 0, n)]
        # start: the node id of the first block's m = lo in the level read last
        r, start, next_slot = 1, 1, n
        while level:
            yield r, level
            if trim:
                # a node of a block of level k is dead before level r once
                # m > hi - r and r > k + 1, a slot once m > hi - r and r > k:
                # a group of count nodes per block holds count - k slots, and
                # count - r of each are live.  Its first visit comes once half
                # of its nodes, or with no nodes its slots, are dead
                for group in groups:
                    first = group.count - (group.held if by_node else group.slot_stride) // 2
                    due[min(max(r + 1 + by_node, first), n + 1)].append(group)
                    held += group.count * group.blocks
            # F((m,) + t) = weights[m] F(t), in a list: indexing a range is slower
            if not hooked:
                weights = None
            elif self.doubled:
                weights = [(2 * m + r - 1) * (2 * m + r - 2) for m in range(n + 1)]
            else:
                weights = list(range(r - 1, n + r))
            # the next level's blocks by node count, six ints a block in an
            # array: b, lo, hi, head, last and below; F(t) apart
            by_count = [array("i") for _ in range(n + 1)]
            columns = [[] for _ in range(n + 1)] if hooked else None
            if r == 1:
                if hooked:
                    # H((m,)) = weights[1] ... weights[m]; (n,) is the row
                    *hooks[:], h = accumulate(weights[1 : n + 1], mul, initial=1)
                    row_dims[0] = _hook_quotient(order, h)
                # (m,) - 1 is (m - 1,), of slot m - 1, and (m,)'s head is empty
                children = step[n]
                for m in range(1, n // 2 + 1):
                    child = children[m]
                    minus1[child] = children[m - 1]
                    by_count[n - 2 * m + 1].frombytes(_BLOCK(child, m, n - m, 0, m, m - 1))
                    if hooked:
                        columns[n - 2 * m + 1].append(weights[m])
            else:
                # (m,) + t extends to (m', m) + t iff |t| + 2m <= n, i.e. m <= hi // 2.
                # That tail's head, (m,) + head(t), is in the block of t's head,
                # whose hi is hi + last, and its - 1, (m - 1,) + (t - 1), is in
                # t - 1's, whose hi is hi + r - 1, at slot shifted + m
                blocks = zip(level.b, level.lo, level.hi, level.head, level.last, level.column or repeat(None))
                for b, lo, hi, head, last, f in blocks:
                    down = minus1[b]
                    shifted = slots[down] - 1  # the slot of (m,) + t - 1 is shifted + m
                    if hooked:
                        # H at m <= hi - r, in slot order, and the row's dimension, m = hi
                        top = hi - r + 1
                        if lo < top:
                            hooks += map(mul, map(f.__mul__, weights[lo:top]), hooks[shifted + lo : shifted + top])
                        row_dims[b] = _hook_quotient(order, f * weights[hi] * hooks[shifted + hi])
                    if lo > hi // 2:
                        continue
                    children, heads, shifts = step[hi], step[hi + last], step[hi + r - 1]
                    for m in range(lo, hi // 2 + 1):
                        minus1[child := b + children[m]] = down + shifts[m - 1]
                        by_count[hi - 2 * m + 1].frombytes(_BLOCK(child, m, hi - m, head + heads[m], last, shifted + m))
                        if hooked:
                            columns[hi - 2 * m + 1].append(f * weights[m])
            r += 1
            if trim and r <= n:
                for group in due[r]:
                    held -= group.drop(r, nodes, by_slot)
                    if group.held:
                        due[group.count - group.held // 2].append(group)
                due[r] = None
                if by_node and 2 * held <= len(nodes):
                    start = _compact(nodes, base, chain.from_iterable(due[r + 1 :]), start)
            # the level read last is in place now, and no later compaction
            # before the next level moves it: its base, the node id of each
            # block's m = lo less lo, its blocks' nodes a run at a time
            if base is not None:
                firsts = []
                for count, blocks in level.runs:
                    # every block has a node, but for the empty tail's at
                    # n = 0, whose base stays 0
                    if count:
                        firsts.append(range(start, start + count * blocks, count))
                        start += count * blocks
                for b, first, lo in zip(level.b, chain.from_iterable(firsts), level.lo):
                    base[b] = first - lo
            # the next level by descending count, with its slots and the node
            # ids of its groups: the block of t - 1 has r more nodes than that
            # of t, so (m - 1,) + (t - 1) comes before (m,) + t where the two
            # have r parts
            runs = [(count, len(by_count[count]) // 6) for count in range(n, 0, -1) if by_count[count]]
            joined, column = array("i"), [] if hooked else None
            for count, _ in runs:
                joined += by_count[count]
                if hooked:
                    column += columns[count]
            del by_count, columns
            with_slots = sum(blocks for count, blocks in runs if count > r)
            level = Level(*(joined[i::6] for i in range(6)), column, runs, with_slots)
            del joined, column
            groups, node, pos = [], start, 0
            for count, blocks in runs:
                evaluated = max(count - r, 0)  # m <= hi - r
                if by_node or trim and evaluated:
                    ids = level.b[pos : pos + blocks] if by_node else None
                    groups.append(_Group(ids, blocks, count, node, next_slot, evaluated))
                # a block with no slot is no block's t - 1, and its slots is
                # never read
                if evaluated:
                    firsts = range(next_slot, next_slot + evaluated * blocks, evaluated)
                    for child, first, m in zip(level.b[pos : pos + blocks], firsts, level.lo[pos : pos + blocks]):
                        slots[child] = first - m
                    next_slot += evaluated * blocks
                node += blocks * count
                pos += blocks


class Level:
    """The blocks of one level of :meth:`PartitionLattice.levels`, in node
    order, as flat columns: ``b``, ``lo``, ``hi``, ``head``, ``last`` and
    ``below`` are ``array("i")`` of one entry per block, and ``column`` is a
    list of F(t), or None without hook products.  ``runs`` holds the node
    count and the number of blocks of each run of one count, by descending
    count, and ``evaluated`` counts the blocks of more than r nodes, which
    come first and alone have slots."""

    __slots__ = ("b", "lo", "hi", "head", "last", "below", "column", "runs", "evaluated")

    def __init__(self, b, lo, hi, head, last, below, column, runs, evaluated) -> None:
        self.b, self.lo, self.hi, self.head, self.last, self.below = b, lo, hi, head, last, below
        self.column, self.runs, self.evaluated = column, runs, evaluated

    def __len__(self) -> int:
        return len(self.b)


class _Group:
    """The blocks of one level and one node count of a table's sweep, which
    die alike and are one run in node order and in slot order: block i of
    the run holds its nodes from ``node + i * node_stride`` on and its
    slots from ``slot + i * slot_stride`` on, of which the first ``held``
    (of the slots, at most ``slot_stride``) are still set.  ``ids`` are the
    blocks' numbers, kept for :func:`_compact`, only for a sweep by node."""

    __slots__ = ("ids", "blocks", "count", "node", "node_stride", "slot", "slot_stride", "held")

    def __init__(self, ids, blocks: int, count: int, node: int, slot: int, slot_stride: int) -> None:
        self.ids, self.blocks, self.count, self.held = ids, blocks, count, count
        self.node, self.node_stride, self.slot, self.slot_stride = node, count, slot, slot_stride

    def drop(self, r: int, nodes: list, by_slot: list) -> int:
        """Set to None what the blocks hold that is dead before level r, in
        ``nodes`` (if not None) and in each list of ``by_slot``, and return
        the count of nodes dropped."""
        live, held = max(self.count - r, 0), self.held
        if nodes is not None:
            _clear(nodes, self.node, self.node_stride, self.blocks, live, held)
        for values in by_slot:
            _clear(values, self.slot, self.slot_stride, self.blocks, live, min(held, self.slot_stride))
        self.held = live
        return (held - live) * self.blocks


def _clear(values: list, start: int, stride: int, blocks: int, live: int, held: int) -> None:
    """Set offsets live to held - 1 of each of ``blocks`` runs of ``stride``
    entries of ``values``, from ``start`` on, to None: one slice of all the
    runs once none is live, else one slice per block or one strided slice
    per offset, whichever are fewer."""
    end = start + blocks * stride
    if not live:
        values[start:end] = repeat(None, end - start)
    elif blocks < held - live:
        dead = [None] * (held - live)
        for first in range(start, end, stride):
            values[first + live : first + held] = dead
    else:
        dead = [None] * blocks
        for offset in range(live, held):
            values[start + offset : end : stride] = dead


def _compact(nodes: list, base, groups, unbased: int) -> int:
    """Move the nodes that ``groups`` hold to the front of ``nodes``, in
    place and in node order, each group's blocks one after another with no
    gap, and cut ``nodes`` after them.  The blocks of the groups before node
    id ``unbased`` are re-based; those from it on, the level read last, get
    their base once the level is in place.  Returns where ``unbased`` moved."""
    kept, moved = 0, unbased
    for group in sorted(groups, key=attrgetter("node")):
        start, stride, held, blocks = group.node, group.node_stride, group.held, group.blocks
        end = start + blocks * stride
        if start == unbased:
            moved = kept
        if start == kept and held == stride:
            kept = end  # in place already
            continue
        live = nodes[start:end]
        if held < stride:
            # the first held of each block's stride entries
            live = list(compress(live, (b"\1" * held + b"\0" * (stride - held)) * blocks))
        # kept <= start, and no later group has moved yet
        nodes[kept : kept + len(live)] = live
        if start < unbased:
            for b, shift in zip(group.ids, count(kept - start, held - stride)):
                base[b] += shift
        group.node, group.node_stride = kept, held
        kept += len(live)
    # a slice at a time: a cut copies the references it drops
    while len(nodes) > kept:
        del nodes[max(kept, len(nodes) - _CUT) :]
    return moved


def _hook_quotient(n_factorial: int, hook_product: int) -> int:
    """n! over the hook product of a shape of size n, which must divide it."""
    dim, rem = divmod(n_factorial, hook_product)
    if rem:
        raise ArithmeticError(f"hook product {hook_product} does not divide {n_factorial}")
    return dim

