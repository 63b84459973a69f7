"""Exact integer kernel: double factorials, binomials, derangement numbers,
matching-graph degrees, and hook-length dimensions.

Everything here is arbitrary-precision integer arithmetic; recurrences are
authoritative and memoized in growable tables.  Hook products come two
ways: cell by cell in :func:`irrep_dimension`, the reference, and one
first column at a time through the column-strip recurrences the spectrum
tables run (:func:`hook_dimensions`).
"""

from __future__ import annotations

import math

from . import memo
from .partitions import Partition

# memo tables, index = argument
_odd_df = [1]          # (2k-1)!!, with (-1)!! = 1
_pm_deg = [1, 0]       # degree of the matching derangement graph on 2n points
_derange = [1, 0]      # derangement numbers


def odd_double_factorial(k: int) -> int:
    """(2k-1)!! = 1*3*...*(2k-1); the empty product 1 for k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    while len(_odd_df) <= k:
        m = len(_odd_df)
        _odd_df.append(_odd_df[-1] * (2 * m - 1))
    return _odd_df[k]


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
    while len(_pm_deg) <= n:
        m = len(_pm_deg)
        _pm_deg.append(2 * (m - 1) * (_pm_deg[m - 1] + _pm_deg[m - 2]))
    return _pm_deg[n]


def pm_degree_inclusion_exclusion(n: int) -> int:
    """d_n by inclusion-exclusion over shared edges, summed to i = n.

    The i = n term contributes (-1)^n under the (-1)!! = 1 convention and is
    required for agreement with the recurrence (and with the actual graphs);
    see pm_degree_truncated_sum for the variant that stops at i = n-1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return sum(
        (-1) ** i * binomial(n, i) * odd_double_factorial(n - i) for i in range(n + 1)
    )


def pm_degree_truncated_sum(n: int) -> int:
    """The same alternating sum truncated at i = n-1.

    Diagnostic only: this differs from the true degree by exactly (-1)^n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return sum(
        (-1) ** i * binomial(n, i) * odd_double_factorial(n - i) for i in range(n)
    )


def derangement_count(n: int) -> int:
    """Number of fixed-point-free permutations of [n]; D_0 = 1, D_1 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_derange) <= n:
        m = len(_derange)
        _derange.append((m - 1) * (_derange[m - 1] + _derange[m - 2]))
    return _derange[n]


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
    hook bug.  The reference the column-strip recurrences are tested against.
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


# Removing the first column of a Young diagram changes no other cell's hook,
# so a hook product is the first column's hooks times the hook product of
# the rest: a recurrence with a single child, run through memo.Recurrence.


def column_strip(mu: tuple) -> tuple:
    """The children of both hook recurrences: mu without its first column."""
    return (tuple([p - 1 for p in mu if p > 1]),) if mu else ()


def hook_combine(mu: tuple, values: list) -> int:
    """H(mu) = prod_i (mu_i + r - i) * H(mu - 1), with H(()) = 1."""
    if not mu:
        return 1
    r = len(mu)
    return math.prod([p + r - i for i, p in enumerate(mu, 1)]) * values[0]


def doubled_hook_combine(lam: tuple, values: list) -> int:
    """H(2 lam), the hook product of lam with every part doubled.

    H(2 lam) = prod_i (2 lam_i + r - i)(2 lam_i + r - i - 1) * H(2 (lam - 1)):
    every row of 2 lam has at least two cells, so its first two columns go
    together and leave the doubled shape of lam - 1.
    """
    if not lam:
        return 1
    r = len(lam)
    return math.prod([(2 * p + r - i) * (2 * p + r - i - 1) for i, p in enumerate(lam, 1)]) * values[0]


def hook_dimensions(shapes: list, size: int, combine) -> list:
    """size! over the hook product ``combine`` gives each shape, in order.

    ``combine`` is :func:`hook_combine` for the shapes themselves, or
    :func:`doubled_hook_combine` for the doubled shapes they stand for.  The
    column-strip recurrence runs in a store of this call's own, freed when
    it returns.
    """
    hook_product = memo.Recurrence(column_strip, combine)
    order = math.factorial(size)
    return [_hook_quotient(order, hook_product(mu)) for mu in shapes]
