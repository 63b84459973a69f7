"""Memoized evaluation of a recurrence over partitions, without recursion.

A recurrence supplies two functions: ``children(lam)``, the partitions its
value at ``lam`` depends on (empty at a base case), and ``combine(lam,
values)``, the value at ``lam`` from its children's values, in the order
``children`` gave them.  The evaluator resolves dependencies depth-first on
an explicit stack, so the depth of a recurrence is bounded by memory, not by
the interpreter's recursion limit.  Each stack frame keeps its children
list, so children are built once per node.

Every recurrence gets its own store: two recurrences computing the same
quantity never share values, which keeps their agreement a real
cross-check.  A store lives as long as its ``Recurrence``.  The only
instances are module-level stores, which keep their nodes until
``cache_clear``: that of ``eta_alt``, the dualpath suite's second eta, and
that of ``xi_by_last_part``, a single query that no suite calls.  The
single queries ``eta`` and ``xi_by_first_part`` use no store: each
evaluates on a table indexed by its argument's own prefixes or suffixes,
which lives for one call.  The spectrum tables and the other verification
suites read their values off forward sweeps over the partitions of size
at most n (:mod:`pmspec.lattice`); the kuwong-xi suite checks the rows of
xi's first-part sweep of each n against the strip recurrence's at alpha = 1.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence


class CacheInfo(NamedTuple):
    """Store statistics, field-compatible with ``functools.lru_cache``.

    ``hits`` and ``misses`` count calls answered from the store and calls
    that had to evaluate; ``currsize`` counts stored nodes.
    """

    hits: int
    misses: int
    maxsize: None
    currsize: int


class Recurrence:
    """A memoized recurrence; call it on a partition to get its value."""

    def __init__(
        self,
        children: Callable[[tuple], Sequence[tuple]],
        combine: Callable[[tuple, list], int],
    ) -> None:
        self._children = children
        self._combine = combine
        self._store: dict = {}
        self._hits = 0
        self._misses = 0

    def __call__(self, lam: tuple) -> int:
        store = self._store
        if lam in store:
            self._hits += 1
            return store[lam]
        self._misses += 1
        children, combine = self._children, self._combine
        kids = children(lam)
        # frame: (node, its children, iterator over the children not yet seen)
        stack = [(lam, kids, iter(kids))]
        while stack:
            node, kids, pending = stack[-1]
            for kid in pending:
                if kid not in store:
                    grandkids = children(kid)
                    stack.append((kid, grandkids, iter(grandkids)))
                    break
            else:
                stack.pop()
                store[node] = combine(node, [store[kid] for kid in kids])
        return store[lam]

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, None, len(self._store))

    def cache_clear(self) -> None:
        self._store.clear()
        self._hits = self._misses = 0
