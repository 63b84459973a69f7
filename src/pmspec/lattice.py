"""The partitions of size at most n as an integer lattice, for the forward
sweeps of the spectrum tables and the verification suites.

A partition lam = (m,) + t, with first part m and tail t, lies in the
block of its tail t: the partitions (m,) + t for lo <= m <= hi, where lo
is t's first part and (hi,) + t is the one of size n.  So there is one
block per partition of n, p(n) in all, and a block is numbered by the
place of its row (hi,) + t in the table, decreasing lexicographic order.
The lattice keeps three kinds of index:

* by block, in ``array("i")`` of p(n) entries: ``base``, the node id of
  (0,) + t, so that (m,) + t has the node id ``base[b] + m``; ``minus1``,
  the block of t - 1, where ``nu - j`` subtracts j from every part and
  drops the zeros; and ``slots``, the slot of (0,) + t (below);
* by node: each of the partitions of size at most n has a node id, assigned
  level by level (by number of parts), then by block, then by ascending m.
  The empty partition is 0 and (m,) is m.  Only the pm strip sweep keeps
  values by node: it reads its children at every size.  A node nu of k
  parts is read by no level after max(k + 1, n - |nu|), so in a block of
  level below r - 1 every m > hi - r is dead before level r.  The table's
  sweep drops those values on a schedule; the suites' sweeps keep them;
* by slot, for the evaluated nodes: the hook products and the sym sweep's
  values are needed only at the partitions nu with |nu| + len(nu) <= n,
  which nu -> nu + 1, padded with 1s, maps one to one onto the partitions
  of n.  In a block of r-part partitions these are m <= hi - r, and
  ``slots[b] + m`` numbers them 0, 1, ..., p(n) - 1 in node order.

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
alone.  A partition's node id is walked that way from the empty block
(:meth:`PartitionLattice.index`), which is how the suites read a pm sweep.
:func:`pmspec.exact.admit_table` refuses every n whose node ids would not
fit in 4 bytes.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Iterator

from .partitions import bounded_partition_counts

# the least n with 2^31 partitions of size at most n or more, too many for the
# node ids of an ``array("i")``: :func:`pmspec.exact.admit_table` refuses n >= it
ID_LIMIT = 103


class PartitionLattice:
    """Blocks, node ids and slots for the partitions of size at most n,
    assigned by :meth:`levels`, and, with ``hooks``, their hook products.
    ``base``, ``minus1`` and ``slots`` are ``array("i")`` of one entry per
    block, p(n) in all; ``step[h][m]`` is what the block of (m,) + t adds
    to that of t, for t of size n - h.  ``hooks`` is a list by slot, and
    ``row_hooks`` holds H at the partitions of n in the order of
    :func:`pmspec.partitions.enumerate_partitions`; both are None without
    ``hooks``.

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
        # in all three
        self.base = array("i", [0]) * self.row_count
        self.minus1 = array("i", [0]) * self.row_count
        self.slots = array("i", [0]) * self.row_count
        # H by slot, and at each row; complete once :meth:`levels` is exhausted
        self.hooks = self.row_hooks = None
        if hooks:
            self.hooks = []
            self.row_hooks = [None] * self.row_count

    def levels(self) -> Iterator[tuple]:
        """Yield ``(r, blocks)`` for r = 1, 2, ..., n, the partitions of r parts.

        A block ``(b, lo, hi, head, last, column, below)`` holds the
        partitions (m,) + t for lo <= m <= hi: ``b`` is its number, the
        place of (hi,) + t among the partitions of n, lo is t's first part
        (1 for the empty t) and (hi,) + t is the one of size n.  ``head`` is
        the block of t without its last part and ``last`` is t's last part;
        both are None at r = 1, where t is empty.  ``column`` is F(t), None
        without hook products, and ``below`` is the slot of t - 1.  Blocks
        come in node order, which is also slot order.  ``base``, ``minus1``
        and ``slots`` are set for every block of a level before it is
        yielded, and ``hooks`` at every slot of fewer than r parts.
        """
        n, base, minus1, slots, step = self.n, self.base, self.minus1, self.slots, self.step
        hooks, row_hooks = self.hooks, self.row_hooks
        hooked = hooks is not None
        blocks = [(0, 1, n, None, None, 1 if hooked else None, 0)]
        r, next_id, next_slot = 1, n + 1, n
        while blocks:
            yield r, blocks
            # F((m,) + t) = weights[m] F(t)
            if not hooked:
                weights = None
            elif self.doubled:
                weights = [(2 * m + r - 1) * (2 * m + r - 2) for m in range(n + 1)]
            else:
                weights = range(r - 1, n + r)
            level = []
            for b, lo, hi, head, last, f, _ in blocks:
                if head is None:
                    if hooked:
                        # H((m,)) = weights[1] ... weights[m]; (n,) is the row
                        *hooks[:], row_hooks[0] = accumulate(weights[1 : n + 1], mul, initial=1)
                    # (m,) - 1 is (m - 1,), of slot m - 1, and (m,)'s head is empty
                    children = step[n]
                    for m in range(1, n // 2 + 1):
                        child = children[m]
                        base[child], minus1[child], slots[child] = next_id - m, children[m - 1], next_slot - m
                        column = weights[m] if hooked else None
                        level.append((child, m, n - m, 0, m, column, m - 1))
                        next_id += n - 2 * m + 1
                        if n - 2 * m > 1:
                            next_slot += n - 2 * m - 1
                    continue
                down = minus1[b]
                shifted = slots[down] - 1  # the slot of (m,) + t - 1 is shifted + m
                if hooked:
                    # H at m <= hi - r, in slot order, and at the row, m = hi
                    top = hi - r
                    if lo <= top:
                        factors = map(f.__mul__, weights[lo : top + 1])
                        hooks += map(mul, factors, hooks[shifted + lo : shifted + top + 1])
                    row_hooks[b] = f * weights[hi] * hooks[shifted + hi]
                # (m,) + t extends to (m', m) + t iff |t| + 2m <= n, i.e. m <= hi // 2.
                # That tail's head, (m,) + head(t), is in the block of t's head,
                # whose hi is hi + last, and its - 1, (m - 1,) + (t - 1), is in
                # t - 1's, whose hi is hi + r - 1, at slot shifted + m
                half = hi // 2
                if lo > half:
                    continue
                children, heads, shifts = step[hi], step[hi + last], step[hi + r - 1]
                for m in range(lo, half + 1):
                    child = b + children[m]
                    base[child], minus1[child], slots[child] = next_id - m, down + shifts[m - 1], next_slot - m
                    column = f * weights[m] if hooked else None
                    level.append((child, m, hi - m, head + heads[m], last, column, shifted + m))
                    # the child's nodes are m to hi - m, and its evaluated ones
                    # m to (hi - m) - (r + 1), if any
                    next_id += hi - 2 * m + 1
                    if hi - 2 * m > r:
                        next_slot += hi - 2 * m - r
            blocks = level
            r += 1

    def index(self, lam: tuple) -> int:
        """The node id of a partition of size at most n: the block of its
        tail is walked from the empty tail's, block 0, one part at a time."""
        b, hi, step = 0, self.n, self.step
        for part in lam[:0:-1]:
            b += step[hi][part]
            hi -= part
        return self.base[b] + lam[0] if lam else 0
