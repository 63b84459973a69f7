"""The partitions of size at most n as an integer lattice, for the spectrum
tables' forward sweeps.

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

Only ``base``, ``minus1`` and the values a sweep computes live longer
than one level.

The rows of a table, the partitions of n, and every nu - 1 they lead to
are the partitions nu with |nu| = n or |nu| + len(nu) <= n; in a block of
r-part partitions (m,) + t these are m <= hi - r and m = hi (see
:meth:`PartitionLattice.levels`).  :class:`HookProducts` evaluates only
those, and so does the sym table's first-part recurrence, whose other
child t - 1 lies in the same set.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Iterator


class PartitionLattice:
    """Ids for the partitions of size at most n, assigned by :meth:`levels`."""

    def __init__(self, n: int) -> None:
        self.n = n
        # By id, for the partitions t that some (m,) + t of size <= n
        # extends, and None elsewhere: (m,) + t has id base[t] + m, and
        # minus1[t] is the id of t - 1.  The empty partition is 0.
        self.base: list = [0]
        self.minus1: list = [0]

    def levels(self) -> Iterator[tuple]:
        """Yield ``(r, blocks)`` for r = 1, 2, ..., n, the partitions of r parts.

        A block ``(tail, offset, lo, hi, head, last)`` holds the partitions
        (m,) + t for lo <= m <= hi, with ids ``offset + m``: ``tail`` is the
        id of t, ``offset`` is base[t], lo is t's first part (1 for the empty
        t), and (hi,) + t is the one of size n.  ``head`` is the id of t
        without its last part and ``last`` is t's last part; both are None at
        r = 1, where t is empty.  Blocks come in id order.  ``base`` and
        ``minus1`` are set for every partition of fewer than r parts.
        """
        n, base, minus1 = self.n, self.base, self.minus1
        blocks = [(0, 0, 1, n, None, None)]
        r, next_id = 1, n + 1
        while blocks:
            yield r, blocks
            level = []
            for tail, offset, lo, hi, head, last in blocks:
                shifted = base[minus1[tail]] - 1  # (m,) + t - 1 is shifted + m
                # (m,) + t extends to (m', m) + t iff |t| + 2m <= n, i.e. m <= hi // 2
                half = hi // 2
                for m in range(lo, half + 1):
                    base.append(next_id - m)
                    minus1.append(shifted + m)
                    if head is None:
                        level.append((offset + m, next_id - m, m, hi - m, 0, m))
                    else:
                        level.append((offset + m, next_id - m, m, hi - m, base[head] + m, last))
                    next_id += hi - 2 * m + 1
                unextended = [None] * (hi - max(lo, half + 1) + 1)
                base += unextended
                minus1 += unextended
            blocks = level
            r += 1

    def rows(self) -> list:
        """The ids of the partitions of n in decreasing lexicographic order,
        the order of :func:`pmspec.partitions.enumerate_partitions`; valid
        once :meth:`levels` is exhausted.

        (m,) + t has size n iff m = n - |t|, and it is a partition iff t is
        a tail: t_1 <= n - |t|.  The tails of size s are built in increasing
        lexicographic order from smaller ones, (f,) + u for f = 1, 2, ...
        with u a tail of size s - f and u_1 <= f, which is a prefix of
        that size's list.
        """
        n, base = self.n, self.base
        tails = [[0]]  # tails[s]: ids of the tails t of size s, increasing
        at_most = [[1]]  # at_most[s][f]: how many of those have t_1 <= f
        for s in range(1, n):
            ids, counts = [], [0]
            for f in range(1, min(s, n - s) + 1):
                u = s - f
                ids += [base[i] + f for i in tails[u][: at_most[u][min(f, u)]]]
                counts.append(len(ids))
            tails.append(ids)
            at_most.append(counts)
        return [base[t] + n - s for s in range(n) for t in reversed(tails[s])]


def row_entries(lattice: PartitionLattice, *by_id: list) -> list:
    """Each by-id list's entries at the partitions of n, in decreasing
    lexicographic order; the lattice and the lists can go once this returns."""
    ids = lattice.rows()
    return [[entries[node] for node in ids] for entries in by_id]


class HookProducts:
    """Hook products on a lattice sweep, one level at a time.

    H(nu) = F(nu) H(nu - 1) with H(()) = 1, where F(nu) is the product of
    the hooks in nu's first column: removing that column changes no other
    cell's hook.  For nu = (m,) + t with r parts, F(nu) = (m + r - 1) F(t).
    With ``doubled``, H is the hook product of 2 nu, every part doubled: its
    first two columns go together and leave 2 (nu - 1), so
    F(nu) = (2m + r - 1)(2m + r - 2) F(t).  F is kept for one level; H is
    evaluated where a row's chain nu, nu - 1, nu - 2, ... can reach, and is
    None elsewhere.
    """

    def __init__(self, lattice: PartitionLattice, doubled: bool) -> None:
        self._lattice = lattice
        self._doubled = doubled
        self.values = [1]  # H by id
        self._column = [1]  # F of the last level's tails, in the order of its blocks

    def extend(self, r: int, blocks: list) -> None:
        """Evaluate level r, whose blocks :meth:`PartitionLattice.levels` yielded."""
        base, minus1 = self._lattice.base, self._lattice.minus1
        values = self.values
        column = []
        for (tail, _, lo, hi, head, _), f in zip(blocks, self._column):
            # F is needed at the next level's tails, m <= hi // 2, and where H is
            ms = [*range(lo, max(hi // 2, hi - r) + 1), hi]
            if self._doubled:
                factors = [(2 * m + r - 1) * (2 * m + r - 2) * f for m in ms]
            else:
                factors = [(m + r - 1) * f for m in ms]
            column += factors[: max(0, hi // 2 - lo + 1)]
            if head is None:
                # (m,) - 1 is (m - 1,), the partition just before
                values.extend(accumulate(factors, mul))
                continue
            shifted = base[minus1[tail]] - 1  # nu - 1 is shifted + m
            # H at m <= hi - r, then None up to the row, m = hi
            values += map(mul, factors, values[shifted + lo : shifted + max(lo, hi - r + 1)])
            values += [None] * min(hi - lo, r - 1)
            values.append(factors[-1] * values[shifted + hi])
        self._column = column
