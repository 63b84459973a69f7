"""The partitions of size at most n as an integer lattice, for the forward
sweeps of the spectrum tables and the verification suites.

A partition lam = (m,) + t, with first part m and tail t, gets the id
``base[t] + m``; the empty partition is 0 and (m,) is m.  Ids are assigned
level by level (by number of parts), then by tail, then by ascending m.
In that order every partition a table recurrence takes as a child of lam
has a smaller id than lam: its tail t, its head (lam without its last
part), head - j and lam - 1, where ``nu - j`` subtracts j from every part
and drops the zeros.  Each of them is found by index, with no tuple built
or hashed:

* ``lam - 1 = base[minus1[t]] + m - 1``, where ``minus1[t]`` is the id of
  t - 1;
* ``head = base[head(t)] + m``, where head(t) is the id of t without its
  last part, and ``head - j = base[minus1^j(head(t))] + m - j``.

Only ``base``, ``minus1``, the hook products and the values a sweep
computes live longer than one level.  ``base`` and ``minus1`` are flat
arrays of 4-byte ints, with 0 where no id is set (and at the empty
partition, whose base and t - 1 are both 0); :func:`pmspec.exact.admit_table`
refuses every n whose ids would not fit.  A partition's id can also be
walked from ``base`` (:meth:`PartitionLattice.index`), which is how the
suites read a pm sweep.

The rows of a table, the partitions of n, and every nu - 1 they lead to
are the partitions nu with |nu| = n or |nu| + len(nu) <= n; in a block of
r-part partitions (m,) + t these are m <= hi - r and m = hi (see
:meth:`PartitionLattice.levels`).  The lattice's hook products are
evaluated only there, and so is the sym table's first-part recurrence,
whose other child t - 1 lies in the same set.  Each block knows the
position of its row among the rows, so a sweep writes the rows' values
straight into a list in table order.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Iterator

from .partitions import bounded_partition_counts

# the least n with 2^31 partitions of size at most n or more, too many for the
# ids of an ``array("i")``: :func:`pmspec.exact.admit_table` refuses n >= it
ID_LIMIT = 103


class PartitionLattice:
    """Ids for the partitions of size at most n, assigned by :meth:`levels`,
    and, with ``hooks``, their hook products.  ``base`` and ``minus1`` are
    ``array("i")`` of one entry per id, 0 where unset.  ``hooks`` is a list
    by id, None where unset, and ``row_hooks`` holds H at the partitions of
    n in the order of :func:`pmspec.partitions.enumerate_partitions`; both
    are None without ``hooks``; ``bounded`` is ``bounded_partition_counts(n)``.

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
        # By id, for the partitions t that some (m,) + t of size <= n
        # extends, and 0 elsewhere: (m,) + t has id base[t] + m, and
        # minus1[t] is the id of t - 1.  The empty partition is 0.  Row n of
        # the bounded counts is p(0), ..., p(n), parts at most n being no bound
        self.bounded = bounded_partition_counts(n)
        nodes = sum(self.bounded[n])
        self.row_count = self.bounded[n][n]
        self.base = array("i", [0]) * nodes
        self.minus1 = array("i", [0]) * nodes
        # H by id where a row's chain nu - 1, nu - 2, ... can reach, and
        # None elsewhere, and H at each row; complete once :meth:`levels`
        # is exhausted
        self.hooks = self.row_hooks = None
        if hooks:
            self.hooks = [None] * nodes
            self.hooks[0] = 1
            self.row_hooks = [None] * self.row_count

    def levels(self) -> Iterator[tuple]:
        """Yield ``(r, blocks)`` for r = 1, 2, ..., n, the partitions of r parts.

        A block ``(tail, offset, lo, hi, head, last, column, place)`` holds the
        partitions (m,) + t for lo <= m <= hi, with ids ``offset + m``:
        ``tail`` is the id of t, ``offset`` is base[t], lo is t's first part
        (1 for the empty t), and (hi,) + t is the one of size n.  ``head`` is
        the id of t without its last part and ``last`` is t's last part; both
        are None at r = 1, where t is empty.  ``column`` is F(t), None
        without hook products, and ``place`` is the place of (hi,) + t among
        the partitions of n in decreasing lexicographic order.  Blocks come
        in id order.  ``base``, ``minus1`` and ``hooks`` are set for every
        partition of fewer than r parts.

        The rows before (h,) + t are those of first part above h, and the
        (h,) + u with u a partition of |t| with parts at most h, after t in
        increasing lexicographic order.  Those u are the first P(|t|, h)
        partitions of |t| in that order, so the row is first[h] - rank(t),
        where first[h] counts the partitions of n with first part h or more,
        less one, and rank(t) is t's place among the partitions of |t|.
        The partitions of |t| + m before (m,) + t are those of first part
        below m and the (m,) + u with u before t, so
        rank((m,) + t) = P(|t| + m, m - 1) + rank(t), with P from
        :func:`pmspec.partitions.bounded_partition_counts`.
        """
        n, base, minus1, hooks, row_hooks = self.n, self.base, self.minus1, self.hooks, self.row_hooks
        bounded = self.bounded
        first, at_least = [0] * (n + 1), -1
        for h in range(n, 0, -1):
            at_least += bounded[h][n - h]
            first[h] = at_least
        blocks = [(0, 0, 1, n, None, None, 1 if hooks else None, 0)]
        r, next_id = 1, n + 1
        while blocks:
            yield r, blocks
            # F((m,) + t) = weights[m] F(t)
            if hooks is None:
                weights = None
            elif self.doubled:
                weights = [(2 * m + r - 1) * (2 * m + r - 2) for m in range(n + 1)]
            else:
                weights = range(r - 1, n + r)
            level = []
            for tail, offset, lo, hi, head, last, f, place in blocks:
                half = hi // 2
                if head is None:
                    if hooks:
                        # H((m,)) = weights[1] ... weights[m]; (n,) is the row
                        *hooks[:n], row_hooks[0] = accumulate(weights[1 : n + 1], mul, initial=1)
                    # (m,) - 1 is (m - 1,), the partition just before
                    for m in range(1, half + 1):
                        base[m], minus1[m] = next_id - m, m - 1
                        column = weights[m] if hooks else None
                        child_place = first[n - m] - bounded[m - 1][m]
                        level.append((m, next_id - m, m, n - m, 0, m, column, child_place))
                        next_id += n - 2 * m + 1
                else:
                    shifted = base[minus1[tail]] - 1  # (m,) + t - 1 is shifted + m
                    rank, size = first[hi] - place, n - hi  # rank(t), and |t|
                    if hooks:
                        # H at m <= hi - r and at the row, m = hi; None between
                        top = hi - r
                        if lo <= top:
                            factors = map(f.__mul__, weights[lo : top + 1])
                            below = hooks[shifted + lo : shifted + top + 1]
                            hooks[offset + lo : offset + top + 1] = map(mul, factors, below)
                        row_hooks[place] = f * weights[hi] * hooks[shifted + hi]
                    # (m,) + t extends to (m', m) + t iff |t| + 2m <= n, i.e. m <= hi // 2
                    for m in range(lo, half + 1):
                        base[offset + m], minus1[offset + m] = next_id - m, shifted + m
                        column = f * weights[m] if hooks else None
                        child_place = first[hi - m] - bounded[m - 1][size + m] - rank
                        level.append((offset + m, next_id - m, m, hi - m, base[head] + m, last, column, child_place))
                        next_id += hi - 2 * m + 1
            blocks = level
            r += 1

    def index(self, lam: tuple) -> int:
        """The id of a partition of size at most n, walked from the empty
        partition: (m,) + t is base[t] + m."""
        node, base = 0, self.base
        for part in reversed(lam):
            node = base[node] + part
        return node
