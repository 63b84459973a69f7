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
integer arrays, with 0 where no id is set (and at the empty partition,
whose base and t - 1 are both 0).  A partition's id can also be walked
from ``base`` (:meth:`PartitionLattice.index`), which is how the suites
read a sweep.

The rows of a table, the partitions of n, and every nu - 1 they lead to
are the partitions nu with |nu| = n or |nu| + len(nu) <= n; in a block of
r-part partitions (m,) + t these are m <= hi - r and m = hi (see
:meth:`PartitionLattice.levels`).  The lattice's hook products are
evaluated only there, and so is the sym table's first-part recurrence,
whose other child t - 1 lies in the same set.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import mul
from typing import Iterator, Sequence

from .partitions import partition_counts


class PartitionLattice:
    """Ids for the partitions of size at most n, assigned by :meth:`levels`,
    and their hook products.  ``base`` and ``minus1`` are ``array("q")`` of
    one entry per id, 0 where unset; ``hooks`` is a list, None where unset.

    H(nu) = F(nu) H(nu - 1) with H(()) = 1, where F(nu) is the product of
    the hooks in nu's first column: removing that column changes no other
    cell's hook.  For nu = (m,) + t with r parts, F(nu) = (m + r - 1) F(t).
    With ``doubled``, H is the hook product of 2 nu, every part doubled: its
    first two columns go together and leave 2 (nu - 1), so
    F(nu) = (2m + r - 1)(2m + r - 2) F(t).
    """

    def __init__(self, n: int, doubled: bool) -> None:
        # imported here: loading array at start-up raised the peak of every
        # single query, which builds no lattice, by about 0.13 MB
        from array import array

        self.n = n
        self.doubled = doubled
        # By id, for the partitions t that some (m,) + t of size <= n
        # extends, and 0 elsewhere: (m,) + t has id base[t] + m, and
        # minus1[t] is the id of t - 1.  The empty partition is 0.
        nodes = sum(islice(partition_counts(), n + 1))
        self.base = array("q", [0]) * nodes
        self.minus1 = array("q", [0]) * nodes
        # H by id where a row's chain nu, nu - 1, nu - 2, ... can reach, and
        # None elsewhere; complete once :meth:`levels` is exhausted
        self.hooks: list = [None] * nodes
        self.hooks[0] = 1

    def levels(self) -> Iterator[tuple]:
        """Yield ``(r, blocks)`` for r = 1, 2, ..., n, the partitions of r parts.

        A block ``(tail, offset, lo, hi, head, last, column)`` holds the
        partitions (m,) + t for lo <= m <= hi, with ids ``offset + m``:
        ``tail`` is the id of t, ``offset`` is base[t], lo is t's first part
        (1 for the empty t), and (hi,) + t is the one of size n.  ``head`` is
        the id of t without its last part and ``last`` is t's last part; both
        are None at r = 1, where t is empty.  ``column`` is F(t).  Blocks come
        in id order.  ``base``, ``minus1`` and ``hooks`` are set for every
        partition of fewer than r parts.
        """
        n, base, minus1, hooks = self.n, self.base, self.minus1, self.hooks
        blocks = [(0, 0, 1, n, None, None, 1)]
        r, next_id = 1, n + 1
        while blocks:
            yield r, blocks
            # F((m,) + t) = weights[m] F(t)
            if self.doubled:
                weights = [(2 * m + r - 1) * (2 * m + r - 2) for m in range(n + 1)]
            else:
                weights = range(r - 1, n + r)
            level = []
            for tail, offset, lo, hi, head, last, f in blocks:
                half = hi // 2
                if head is None:
                    # (m,) - 1 is (m - 1,), the partition just before
                    hooks[1 : n + 1] = accumulate(weights[1:], mul)
                    for m in range(1, half + 1):
                        base[m], minus1[m] = next_id - m, m - 1
                        level.append((m, next_id - m, m, n - m, 0, m, weights[m]))
                        next_id += n - 2 * m + 1
                else:
                    shifted = base[minus1[tail]] - 1  # (m,) + t - 1 is shifted + m
                    # H at m <= hi - r and at the row, m = hi; None between
                    top = hi - r
                    if lo <= top:
                        factors = map(f.__mul__, weights[lo : top + 1])
                        below = hooks[shifted + lo : shifted + top + 1]
                        hooks[offset + lo : offset + top + 1] = map(mul, factors, below)
                    hooks[offset + hi] = f * weights[hi] * hooks[shifted + hi]
                    # (m,) + t extends to (m', m) + t iff |t| + 2m <= n, i.e. m <= hi // 2
                    for m in range(lo, half + 1):
                        base[offset + m], minus1[offset + m] = next_id - m, shifted + m
                        column = f * weights[m]
                        level.append((offset + m, next_id - m, m, hi - m, base[head] + m, last, column))
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

    def rows(self) -> Sequence[int]:
        """The ids of the partitions of n in decreasing lexicographic order,
        the order of :func:`pmspec.partitions.enumerate_partitions`; valid
        once :meth:`levels` is exhausted.

        (m,) + t has size n iff m = n - |t|, and it is a partition iff t is
        a tail: t_1 <= n - |t|.  The tails of size s are built in increasing
        lexicographic order from smaller ones, (f,) + u for f = 1, 2, ...
        with u a tail of size s - f and u_1 <= f, which is a prefix of
        that size's list.  The tails and the result are ``array("q")``.
        """
        from array import array

        n, base = self.n, self.base
        tails = [array("q", [0])]  # tails[s]: ids of the tails t of size s, increasing
        at_most = [[1]]  # at_most[s][f]: how many of those have t_1 <= f
        for s in range(1, n):
            ids, counts = array("q"), [0]
            for f in range(1, min(s, n - s) + 1):
                u = s - f
                ids.extend(map(f.__add__, map(base.__getitem__, tails[u][: at_most[u][min(f, u)]])))
                counts.append(len(ids))
            tails.append(ids)
            at_most.append(counts)
        ids = array("q")
        for s in range(n):
            ids.extend(map((n - s).__add__, map(base.__getitem__, reversed(tails[s]))))
        return ids


def row_entries(lattice: PartitionLattice, *by_id: list) -> list:
    """Each by-id list's entries at the partitions of n, in decreasing
    lexicographic order; the lattice and the lists can go once this returns."""
    ids = lattice.rows()
    return [[entries[node] for node in ids] for entries in by_id]
