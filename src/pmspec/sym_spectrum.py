"""Eigenvalues of the permutation derangement graph on S_n, the baseline
family the matching-graph results parallel.

Two published recurrences are implemented and must agree:
``xi_by_first_part`` carries the coefficient (mu_1 + r - 1) and recurses on
the first-column strip, on a table of its argument's suffixes that lives
for one call; ``xi_by_last_part`` carries the coefficient mu_r, recurses by
dropping the last part, and memoizes in a store of its own.  A common
transcription of the second one subtracts 1 from every part of the
dropped-tail term as well; that variant is kept as a diagnostic because it
already disagrees at (1,1).  The kuwong-xi suite checks the rows of the
first-part recurrence's lattice sweep of each n (:func:`_xi_sweep`) against
those of a third path, the strip recurrence of eta at alpha = 1
(:func:`pmspec.pm_spectrum._eta_sweep`), so it fills no store;
``xi_by_last_part`` stays a public single query.
"""

from __future__ import annotations

from itertools import cycle
from operator import add, mul
from typing import NamedTuple

from . import memo
from .exact import conjugate, derangement_count
from .lattice import PartitionLattice
from .partitions import Partition
from .tables import SpectrumTable


class XiValue(NamedTuple):
    partition: Partition
    xi: int


def _last_part_children(mu: Partition) -> tuple:
    if len(mu) < 2:
        return ()
    return (mu.subtract_all(1), mu.remove_last_part())


def _last_part_combine(mu: Partition, values: list) -> int:
    if not mu:
        return 1
    if len(mu) == 1:
        return derangement_count(mu[0])
    r = len(mu)
    shifted, head = values
    return (-1) ** (r - 1) * mu[-1] * shifted + (-1) ** mu[-1] * head


_xi_last = memo.Recurrence(_last_part_children, _last_part_combine)


def xi_by_first_part(mu: Partition) -> int:
    """xi by the recurrence with coefficient (mu_1 + r - 1).

    xi(mu) = (-1)^(r-1) (mu_1 + r - 1) xi(mu - 1 everywhere) + (-1)^(mu_1 +
    r - 1) xi(mu's tail after its first part, - 1 everywhere), with bases
    xi(()) = 1 and xi((n)) = D_n, the derangement number.
    """
    return _xi_suffixes(Partition(mu))


def _xi_suffixes(mu: tuple) -> int:
    """xi by the first-part recurrence, on a table indexed by mu's own suffixes.

    Every node the recurrence reaches from mu = (mu_1, ..., mu_r) is
    suffix_i - j, the parts from mu_i on each minus j with zeros dropped:
    its children are suffix_i - (j + 1) and suffix_(i+1) - (j + 1).  Below
    j = mu_i it has first part mu_i - j and conj[j] - i + 1 parts, where
    conj[j] counts the parts of mu above j; at j = mu_i it is empty.  Row i
    holds i - 1 <= j <= mu_i, and row 1 only j <= mu_2, past which suffix_1
    - j has one part.  Row i is built from row i + 1 alone, so two rows are
    alive at a time, and there are at most |mu| + r nodes.  No j past mu_2
    is read, so conj is taken of mu with its parts capped at mu_2 + 1.
    """
    if not mu:
        return 1
    cap = (mu[1] if len(mu) > 1 else 0) + 1
    conj = conjugate(tuple(min(part, cap) for part in mu))
    below = None  # row i + 1: suffix_(i+1) - j at index j - i
    for i in range(len(mu), 0, -1):
        part = mu[i - 1]
        top = part if i > 1 else (mu[1] if len(mu) > 1 else 0)
        if top < i - 1:
            continue  # reached from no node
        row = [1] * (top - i + 2)  # suffix_i - j at index j - (i - 1)
        for j in range(min(top, part - 1), i - 2, -1):
            r, m = conj[j] - i + 1, part - j
            if r == 1:
                row[j - i + 1] = derangement_count(m)
            else:
                shifted, tail = row[j - i + 2], below[j - i + 1]
                value = (m + r - 1) * shifted if r & 1 else -(m + r - 1) * shifted
                row[j - i + 1] = value + tail if (m + r) & 1 else value - tail
        below = row
    return below[0]


def xi_by_last_part(mu: Partition) -> int:
    """xi by the recurrence with coefficient mu_r; must equal xi_by_first_part.

    xi(mu) = (-1)^(r-1) mu_r xi(mu - 1 everywhere) + (-1)^(mu_r) xi(mu minus
    its last part).
    """
    return _xi_last(Partition(mu))


def xi_by_last_part_printed_variant(mu: Partition) -> int:
    """One step of the commonly mis-transcribed form of the last-part recurrence.

    The dropped-tail term additionally subtracts 1 from every remaining part.
    Diagnostic only: at mu = (1,1) this gives -2 while both agreed recurrences
    give -1.  Sub-values are taken from the agreed recurrence.
    """
    mu = Partition(mu)
    if len(mu) < 2:
        raise ValueError("variant applies only to partitions with >= 2 parts")
    r = len(mu)
    return (-1) ** (r - 1) * mu[-1] * xi_by_first_part(mu.subtract_all(1)) + (
        -1
    ) ** mu[-1] * xi_by_first_part(mu.remove_last_part().subtract_all(1))


def xi(mu: Partition) -> XiValue:
    mu = Partition(mu)
    return XiValue(partition=mu, xi=xi_by_first_part(mu))


def _xi_sweep(n: int, table: bool = False) -> tuple:
    """xi by lattice slot at the partitions nu the table needs, and xi at
    the partitions of n in row order; for a ``table``, also dim(lam) at
    those, and only the values by slot some later level still reads.

    One forward sweep of the first-part recurrence: the children of
    mu = (m,) + t are mu - 1 and t - 1.  Only the rows and the partitions
    with |nu| + len(nu) <= n are evaluated, p(n) of the latter, each at its
    slot (:mod:`pmspec.lattice`).  A block's evaluated mu - 1 are one slice
    of the block of t - 1, and t - 1 is at the slot the block carries, so a
    block's values are appended as one product of that slice with a range
    of coefficients, with no Python step per value.  The blocks with slots
    come first in their level, and a second pass over every block takes
    the rows; the two read the level's b, lo, hi and below columns.  For a
    ``table`` the lattice drops each value by slot, and each hook product,
    once no later level reads it
    (:meth:`pmspec.lattice.PartitionLattice.levels`).  Returns the
    lattice, the p(n) xi values by slot (None where dropped), the xi values
    of the rows and the dimensions of the rows (None but for a ``table``).
    """
    lattice = PartitionLattice(n, doubled=False, hooks=table)
    minus1, slots = lattice.minus1, lattice.slots
    # xi(()) = D_0 and xi((m,)) = D_m, at slots 0 to n - 1, and (n,) is a row
    values = list(map(derangement_count, range(n)))
    by_row = [None] * lattice.row_count
    by_row[0] = derangement_count(n)
    for r, level in lattice.levels(slotted=values if table else None):
        if r == 1:
            continue
        sign = 1 if r & 1 else -1  # (-1)^(r-1)
        # (-1)^(r-1) (m + r - 1) xi(mu - 1) + (-1)^(m + r - 1) xi(t - 1), where
        # mu - 1 is at slot slots[minus1[b]] + m - 1 and t - 1 at below: at
        # m <= hi - r, the next slots, in the blocks of more than r nodes,
        # which come first
        for place, lo, hi, below in zip(level.b[: level.evaluated], level.lo, level.hi, level.below):
            shifted, tail_value, top = slots[minus1[place]] - 1, values[below], hi - r + 1
            coefficients = range(sign * (lo + r - 1), sign * hi, sign)  # m = lo to top - 1
            tails = cycle((tail_value, -tail_value) if (lo + r) & 1 else (-tail_value, tail_value))
            values += map(add, map(mul, coefficients, values[shifted + lo : shifted + top]), tails)
        # and at each row, m = hi
        for place, hi, below in zip(level.b, level.hi, level.below):
            row, tail_value = sign * (hi + r - 1) * values[slots[minus1[place]] + hi - 1], values[below]
            by_row[place] = row + tail_value if (hi + r) & 1 else row - tail_value
    return lattice, values, by_row, lattice.row_dims


def sym_spectrum_table(n: int) -> SpectrumTable:
    """Eigenvalue table of the derangement graph on S_n.

    The row indexed by mu has multiplicity dim(mu)^2; multiplicities total
    n!.  Like :func:`pmspec.pm_spectrum.pm_spectrum_table`, the table runs
    the first-part recurrence and the hook recurrence in one sweep over the
    partition lattice (:func:`_xi_sweep`).  Every nu that a row of n
    reaches by mu - 1 and t - 1 steps has |nu| + len(nu) <= n, so the sweep
    keeps xi only at those, p(n) of them, each until no later level reads
    it.  Each row's dimension is taken as soon as its hook product is
    known, and squared in place once the sweep ends.
    """
    if n < 1:
        raise ValueError("n must be positive")
    values, squares = _xi_sweep(n, table=True)[2:]
    for i, dim in enumerate(squares):
        squares[i] = dim * dim
    return SpectrumTable(family="sym", n=n, values=values, multiplicities=squares)
