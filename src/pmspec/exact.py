"""Exact integer kernel: double factorials, binomials, derangement numbers,
matching-graph degrees, and hook-length dimensions.

Everything here is arbitrary-precision integer arithmetic; recurrences are
authoritative and memoized in growable tables.
"""

from __future__ import annotations

import math

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

    Computed as N! over the product of hook lengths, in exact integers; the
    division must be remainder-free, anything else signals a hook bug.
    """
    n = mu.size
    if n < 1:
        raise ValueError("partition must be nonempty")
    conj = conjugate(mu)
    hook_product = 1
    for i, row in enumerate(mu):
        for j in range(row):
            hook_product *= row - j + conj[j] - i - 1
    dim, rem = divmod(math.factorial(n), hook_product)
    if rem:
        raise ArithmeticError(f"hook product {hook_product} does not divide {n}!")
    return dim
