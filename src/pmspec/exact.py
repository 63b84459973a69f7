"""Exact integer kernel: double factorials, binomials, derangement numbers,
matching-graph degrees, and hook-length dimensions.

Everything here is arbitrary-precision integer arithmetic; the sequences
are authoritative recurrences, stored up to a fixed index and rolled past
it.  :func:`irrep_dimension` computes a hook product cell by cell, the
reference for the first-column hook recurrences the spectrum tables run on
the partition lattice (:class:`pmspec.lattice.PartitionLattice`).
:func:`admit_query` refuses a single query, and :func:`admit_table` a table,
whose evaluation could not fit in physical memory.
"""

from __future__ import annotations

import math
import os
from itertools import count

from .partitions import Partition, partition_counts

# Terms up to this index are kept, index = argument, since kept terms add up
# quadratically (d_20000 alone has about 83,000 digits).  A table of size n
# reads terms up to n, and a single query up to its largest part, so tables
# and parts below it never pass it.  Past it a term is rolled forward from
# the nearest checkpoint below: a roll keeps the pair (term m, term m-1) at
# every checkpoint m it passes, the multiples of 2^(b-5) for m of bit
# length b, sixteen per doubling of the index.  A roll then takes fewer than
# m/16 steps, and the pairs kept for a sequence rolled to m hold at most
# about 64 times the bits of term m (39 times at m = 20,000).
_STORED = 1024
_odd_df, _odd_df_marks = [1, 1], {}       # (2k-1)!!, with (-1)!! = 1
_pm_deg, _pm_deg_marks = [1, 0], {}       # degree of the matching derangement graph on 2n points
_derange, _derange_marks = [1, 0], {}     # derangement numbers


def _checkpoint_below(m: int) -> int:
    """The checkpoint at or below index m >= _STORED (_STORED is one)."""
    return m - m % (1 << (m.bit_length() - 5))


def _term(store: list, marks: dict, k: int, step) -> int:
    """Term k of the sequence whose first terms ``store`` holds and whose
    checkpoint pairs ``marks`` holds, by index from _STORED on, where
    ``step(m, term m-1, term m-2)`` is term m."""
    while len(store) <= min(k, _STORED):
        store.append(step(len(store), store[-1], store[-2]))
    if k < len(store):
        return store[k]
    if not marks:
        marks[_STORED] = (store[-1], store[-2])
    m = _checkpoint_below(k)
    if m not in marks:
        # every checkpoint up to the highest index rolled so far is kept, so
        # one missing lies past them all
        m = next(reversed(marks))
    prev, prev2 = marks[m]
    for m in range(m + 1, k + 1):
        prev, prev2 = step(m, prev, prev2), prev
        if _checkpoint_below(m) == m:
            marks[m] = (prev, prev2)
    return prev


def physical_memory_bytes() -> int:
    """Physical memory of this machine, as the operating system reports it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _log_bound(family: str, n: int) -> float:
    """ln d_n (family "pm") or ln D_n ("sym"), from lgamma: d_n is about
    (2n-1)!!/sqrt(e) and D_n about n!/e.  Past n = 2^1000 it is taken at
    2^1000, where it already exceeds any memory."""
    x = float(min(n, 1 << 1000))
    if family == "pm":
        return math.lgamma(2 * x + 1) - math.lgamma(x + 1) - x * math.log(2) - 0.5
    return math.lgamma(x + 1) - 1


def _held_bytes(bits: float, ints: float) -> float:
    """Bytes of ``ints`` ints of ``bits`` bits in all, held in a list: 4
    bytes per 30-bit digit, and 32 per int for its header and list slot."""
    return bits / 7.5 + 32 * ints


def _strip_row_bits(x: float) -> float:
    """sum over last < x of the bits of the strip recurrence's coefficient
    row, C(last, j) (2j-1)!! for j <= last, to within 0.1% from last = 50 on:
    a row has about last^2 (ln(2 last) - 1/2) / (2 ln 2) bits, integrated."""
    return (x**3 / 3 * math.log(2 * x) - 5 * x**3 / 18) / (2 * math.log(2))


def _strip_rows_bytes(lam: tuple) -> float:
    """Bytes of the coefficient rows an eta query caches: (last, parity) =
    (lam_i - j, i mod 2) for each part lam_i after the first and each
    j <= min(lam_(i+1), lam_i - 1), with lam_(r+1) = 0."""
    spans = sorted(
        {(i & 1, part - min(reach, part - 1), part) for i, part, reach in zip(count(2), lam[1:], lam[2:] + (0,))}
    )
    total, seen, done = 0.0, None, 0  # done: the last counted so far at parity seen
    for parity, lo, hi in spans:
        if parity != seen:
            seen, done = parity, 0
        lo = max(lo, done + 1)
        if lo <= hi:
            bits = _strip_row_bits(hi + 0.5) - _strip_row_bits(lo - 0.5)
            total += _held_bytes(bits, (hi - lo + 1) * (hi + lo + 2) / 2)
            done = hi
    return total


def admit_query(family: str, lam: tuple) -> None:
    """Refuse a single query whose evaluation could not fit in memory.

    Every value the recurrences of a partition of n hold is at most d_n
    (family "pm") or D_n ("sym") in absolute value, and a query holds at
    its peak two rows of at most lam_2 + 1 values (see
    :func:`pmspec.pm_spectrum._eta_prefixes` and
    :func:`pmspec.sym_spectrum._xi_suffixes`), the checkpoint pairs of d or
    D it rolls to at most lam_1 (at most 64 times the bits of term lam_1),
    and, for eta, the coefficient rows it caches.  eta rolls its sequence
    only to lam_1 - lam_2 + 1 and the rest of row 1 in the row itself, so
    for eta this is an upper bound.  One value that alone exceeds physical
    memory is refused first, and so is the sum.
    """
    n, memory = sum(lam), physical_memory_bytes()
    bound = "d_n" if family == "pm" else "D_n"
    bits = _log_bound(family, n) / math.log(2)
    if bits / 8 > memory:
        raise ValueError(
            f"a partition of size n={n} has values up to {bound}, about "
            f"{bits / 8e6:.3g} MB each, more than the {memory / 1e6:.0f} MB of physical memory"
        )
    first, second = (tuple(lam) + (0, 0))[:2]
    needed = _held_bytes(2 * (second + 1) * bits, 2 * (second + 1))
    if first > _STORED:
        needed += _held_bytes(64 * _log_bound(family, first) / math.log(2), 64)
    if family == "pm":
        needed += _strip_rows_bytes(lam)
    if needed > memory:
        raise ValueError(
            f"the {family} query on this partition of size n={n} holds about {needed / 1e6:.0f} MB "
            f"at its peak, more than the {memory / 1e6:.0f} MB of physical memory"
        )


# bytes per lattice node, a partition of size at most n, of a table of size
# n: the growth of the table command's peak RSS from n = 45 to n = 50, 106
# (pm) and 64 (sym), plus the growth of one value's digits to the largest n
# admitted in a few GB (about 22 bytes), rounded up
_TABLE_BYTES_PER_NODE = {"pm": 140, "sym": 90}


def admit_table(family: str, n: int, held: int = 0) -> None:
    """Refuse a table of size n whose sweep could not fit in physical memory.

    The sweep holds its values for every partition of size at most n, and
    its caller may hold ``held`` more bytes for each of them.  p(k)
    comes from the pentagonal number recurrence, which stops at the first k
    whose partitions of size at most k overflow memory, so a huge n costs
    no more than a small one.
    """
    memory, per_node = physical_memory_bytes(), _TABLE_BYTES_PER_NODE[family] + held
    nodes = 0
    for k, count in enumerate(partition_counts()):
        nodes += count
        needed = per_node * nodes
        if needed > memory:
            raise ValueError(
                f"a {family} sweep to n={n}: the {nodes} partitions of size at most {k} need "
                f"about {needed / 1e6:.0f} MB, more than the {memory / 1e6:.0f} MB of physical memory"
            )
        if k >= n:
            return


def odd_double_factorial(k: int) -> int:
    """(2k-1)!! = 1*3*...*(2k-1); the empty product 1 for k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _term(_odd_df, _odd_df_marks, k, lambda m, prev, _: prev * (2 * m - 1))


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
    return _term(_pm_deg, _pm_deg_marks, n, lambda m, prev, prev2: 2 * (m - 1) * (prev + prev2))


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
    return _term(_derange, _derange_marks, n, lambda m, prev, prev2: (m - 1) * (prev + prev2))


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
