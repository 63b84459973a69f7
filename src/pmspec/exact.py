"""Exact integer kernel: double factorials, binomials, derangement numbers,
matching-graph degrees, and hook-length dimensions.

Everything here is arbitrary-precision integer arithmetic; the sequences
are authoritative recurrences, stored up to a fixed index and rolled past
it.  :func:`irrep_dimension` computes a hook product cell by cell, the
reference for the first-column hook recurrences the spectrum tables run on
the partition lattice (:class:`pmspec.lattice.HookProducts`).
"""

from __future__ import annotations

import math

from .partitions import Partition

# Terms up to this index are kept, index = argument; past it a term is
# rolled forward from the last two kept and nothing more is stored, since
# kept terms add up quadratically (d_20000 alone has about 83,000 digits).
# A table of size n reads terms up to n, and a single query up to its
# largest part, so tables and parts below it never pass it.
_STORED = 1024
_odd_df = [1, 1]       # (2k-1)!!, with (-1)!! = 1
_pm_deg = [1, 0]       # degree of the matching derangement graph on 2n points
_derange = [1, 0]      # derangement numbers


def _term(store: list, k: int, step) -> int:
    """Term k of the sequence whose first terms ``store`` holds, where
    ``step(m, term m-1, term m-2)`` is term m."""
    while len(store) <= min(k, _STORED):
        store.append(step(len(store), store[-1], store[-2]))
    if k < len(store):
        return store[k]
    prev, prev2 = store[-1], store[-2]
    for m in range(len(store), k + 1):
        prev, prev2 = step(m, prev, prev2), prev
    return prev


def odd_double_factorial(k: int) -> int:
    """(2k-1)!! = 1*3*...*(2k-1); the empty product 1 for k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _term(_odd_df, k, lambda m, prev, _: prev * (2 * m - 1))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return math.comb(n, k) if k <= n else 0


def pm_degree(n: int) -> int:
    """Degree d_n of the perfect matching derangement graph on K_{2n}.

    d_0 = 1, d_1 = 0, d_n = 2(n-1)(d_{n-1} + d_{n-2}).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _term(_pm_deg, n, lambda m, prev, prev2: 2 * (m - 1) * (prev + prev2))


def pm_degree_inclusion_exclusion(n: int) -> int:
    """d_n by inclusion-exclusion over shared edges, summed to i = n.

    The i = n term contributes (-1)^n under the (-1)!! = 1 convention and is
    required for agreement with the recurrence (and with the actual graphs):
    the sum stopped at i = n-1 is off by exactly (-1)^n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return sum(
        (-1) ** i * binomial(n, i) * odd_double_factorial(n - i) for i in range(n + 1)
    )


def derangement_count(n: int) -> int:
    """Number of fixed-point-free permutations of [n]; D_0 = 1, D_1 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _term(_derange, n, lambda m, prev, prev2: (m - 1) * (prev + prev2))


def conjugate(mu: Partition) -> Partition:
    """Transpose of the Young diagram, in one pass over the parts."""
    columns: list[int] = []
    # from the last row up: the columns beyond the ones seen so far and
    # within row i all have height i
    for i in range(len(mu), 0, -1):
        columns += [i] * (mu[i - 1] - len(columns))
    return Partition._trusted(tuple(columns))


def irrep_dimension(mu: Partition) -> int:
    """Dimension of the symmetric-group irreducible indexed by mu.

    Computed as N! over the product of hook lengths, cell by cell, in exact
    integers; the division must be remainder-free, anything else signals a
    hook bug.  The reference the lattice hook recurrences are tested against.
    """
    n = mu.size
    if n < 1:
        raise ValueError("partition must be nonempty")
    conj = conjugate(mu)
    hook_product = 1
    for i, row in enumerate(mu):
        for j in range(row):
            hook_product *= row - j + conj[j] - i - 1
    return _hook_quotient(math.factorial(n), hook_product)


def _hook_quotient(n_factorial: int, hook_product: int) -> int:
    """n! over the hook product of a shape of size n, which must divide it."""
    dim, rem = divmod(n_factorial, hook_product)
    if rem:
        raise ArithmeticError(f"hook product {hook_product} does not divide {n_factorial}")
    return dim
