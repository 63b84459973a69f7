"""Eigenvalues of the perfect matching derangement graph on K_{2n}.

Two fully independent recurrence paths are provided:

* ``eta`` expands on the last part: stripping it and subtracting uniform
  hats yields a signed sum over smaller partitions.
* ``eta_alt`` compares a partition against the one obtained by lowering its
  last part, recursing only through that comparison.

``eta`` evaluates on a table of its argument's prefixes that lives for one
call; ``eta_alt`` memoizes in a store of its own (:mod:`pmspec.memo`).  No
value passes between them, so their agreement is a genuine cross-check of
the code, not a cache readback.  The strip recurrence's lattice sweep,
:func:`_eta_sweep`, also runs at alpha = 1, where it gives the xi of
:mod:`pmspec.sym_spectrum`.
``f_value`` is the sign-normalized quantity (-1)^(n - lambda_1) * eta, which
is nonnegative and vanishes only at the single-box partition (1).
"""

from __future__ import annotations

from itertools import islice
from operator import add, mul, neg, sub
from typing import NamedTuple

from . import memo
from .exact import derangement_count, pm_degree
from .lattice import PartitionLattice
from .partitions import Partition, first_part_counts, walk_partitions
from .tables import SpectrumTable


class EtaValue(NamedTuple):
    partition: Partition
    eta: int
    f: int


class _StripRows(dict):
    """Coefficient rows of the strip recurrence of the family alpha, by
    (last, r mod 2), each computed on first use.  One lives for one query
    or one sweep:

    (-1)^last x(lam) = x(head) + sum_j (-1)^(j r) C(last, j) P_j x(head - j),

    where P_j = (alpha + 1)(2 alpha + 1) ... ((j - 1) alpha + 1), so x is
    the children's values dotted with the row
    [(-1)^(last + j r) C(last, j) P_j for j in 0..last].  At alpha = 2,
    P_j = (2j-1)!! and x is eta; at alpha = 1, P_j = j! and x is xi."""

    def __init__(self, alpha: int = 2) -> None:
        super().__init__()
        self.alpha = alpha

    def __missing__(self, key: tuple) -> list:
        last, parity = key
        alpha = self.alpha
        # C(last, j+1) P_(j+1) = C(last, j) P_j (last - j)(alpha j + 1)/(j + 1)
        row, c = [], 1
        for j in range(last + 1):
            row.append(c)
            c = c * (last - j) * (alpha * j + 1) // (j + 1)
        if parity:
            row[(last + 1) & 1 :: 2] = map(neg, row[(last + 1) & 1 :: 2])
        elif last & 1:
            row = list(map(neg, row))
        self[key] = row
        return row


def _normalized(lam: tuple, value: int) -> int:
    """f = (-1)^(n - lam_1) eta, checked nonnegative and zero only at (1)."""
    first = lam[0] if lam else 0
    f = -value if (sum(lam) - first) & 1 else value
    if f < 0 or (f == 0) != (lam == (1,)):
        raise AssertionError(f"sign normalization violated at {lam!r}: eta={value}")
    return f


def eta(lam: Partition) -> EtaValue:
    """Eigenvalue indexed by lam, with its sign-normalized companion."""
    lam = Partition(lam)
    value = _eta_prefixes(lam)
    return EtaValue(partition=lam, eta=value, f=_normalized(lam, value))


def _eta_prefixes(lam: tuple) -> int:
    """eta by the strip recurrence, on a table indexed by lam's own prefixes.

    Every node the recurrence reaches from lam = (lam_1, ..., lam_r) is
    prefix_i - j, its first i parts each minus j with zeros dropped: the
    head of prefix_i - j is prefix_(i-1) - j, and its children are
    prefix_(i-1) - j - j' for j' <= lam_i - j.  Row i holds prefix_i - j
    for j <= lam_(i+1), the most row i + 1 reads (lam_(r+1) = 0), and is
    built from row i - 1 alone; at j = lam_i the last part vanishes and the
    node is row i - 1's.  So two rows are alive at a time and no tuple is
    built or hashed.  Row 1 is d_(lam_1 - j) for j <= lam_2, read from
    :func:`pmspec.exact.pm_degree` in ascending order, one roll step each.
    """
    if len(lam) < 2:
        return pm_degree(lam[0]) if lam else 1
    rows = _StripRows()
    row = list(map(pm_degree, range(lam[0] - lam[1], lam[0] + 1)))[::-1]
    for i in range(2, len(lam) + 1):
        part, parity = lam[i - 1], i & 1
        reach = lam[i] if i < len(lam) else 0
        row = [
            row[j] if j == part else sum(map(mul, rows[part - j, parity], row[j : part + 1]))
            for j in range(reach + 1)
        ]
    return row[0]


def f_value(lam: Partition) -> int:
    """Sign-normalized eigenvalue (-1)^(n - lambda_1) * eta, read from :func:`eta`.

    f(()) = 1, f((n)) = d_n, and for r >= 2 parts
    f(lam) = f(head) + sum_k C(last, k) (2k-1)!! f(head - k on every part),
    where head drops the last part.  Every value comes from the strip
    recurrence on lam's prefixes, as for :func:`eta`;
    :func:`pm_spectrum_table` runs the same recurrence on the partition
    lattice instead.
    """
    return eta(lam).f


def _lowering_children(lam: Partition, i: int) -> tuple:
    # i is admissible: 2 <= i <= s, and i = s or part i exceeds part i+1
    if len(lam) < 2:
        return ()
    if lam[i - 1] == 1:  # forces i = s
        return (lam.remove_last_part(), lam.subtract_all(1))
    lowered = lam.lower_part(i)
    return (lowered, lam.subtract_all(1), lowered.subtract_all(1))


def _lowering_combine(lam: Partition, i: int, values: list) -> int:
    if not lam:
        return 1
    if len(lam) == 1:
        return pm_degree(lam[0])
    s = len(lam)
    if lam[i - 1] == 1:
        # f(lam) - f(lam minus last part) = f(lam - 1 everywhere)
        head, shifted = values
        return -head + (-1) ** (s - 1) * shifted
    lowered, shifted, lowered_shifted = values
    sign = (-1) ** (s + 1)
    c = 2 * lam[i - 1] + s - i - 1
    return -lowered + sign * c * shifted + sign * (c - 1) * lowered_shifted


# the recurrence lowers the last part
_eta_alt = memo.Recurrence(
    lambda lam: _lowering_children(lam, len(lam)),
    lambda lam, values: _lowering_combine(lam, len(lam), values),
)


def eta_alt(lam: Partition) -> int:
    """Eigenvalue by the lowering-comparison recurrence, last-part flavor.

    For s >= 2 parts, compare lam with lam' = lam with its last part lowered:
    when the last part is 1 the difference of normalized values telescopes to
    a single uniform-subtraction term; otherwise a three-term relation in
    eta(lam'), eta(lam - 1 everywhere) and eta(lam' - 1 everywhere) applies.
    Kept fully independent of :func:`eta`.
    """
    return _eta_alt(Partition(lam))


def eta_alt_at(lam: Partition, i: int) -> int:
    """One step of the lowering-comparison recurrence at an arbitrary index i.

    Admissible when 2 <= i <= s and either i = s or part i strictly exceeds
    part i+1.  Sub-values come from the ``eta_alt`` store; used to check that
    every admissible index yields the same eigenvalue.
    """
    lam = Partition(lam)
    s = len(lam)
    if s < 2 or not 2 <= i <= s:
        raise ValueError(f"index {i} inadmissible for {lam!r}")
    if i < s and lam[i - 1] <= lam[i]:
        raise ValueError(f"index {i} inadmissible for {lam!r}: no descent at {i}")
    return _lowering_combine(lam, i, [eta_alt(kid) for kid in _lowering_children(lam, i)])


def f_closed_form_2a1b(a: int, b: int) -> int:
    """Closed form of f on the staircase family (2^a, 1^b): a^2 + b(a-1) + 1."""
    if a < 1 or b < 0:
        raise ValueError("need a >= 1, b >= 0")
    return a * a + b * (a - 1) + 1


def _eta_sweep(n: int, table: bool = False, alpha: int = 2) -> tuple:
    """eta at every partition of size <= n, by lattice node id, and at the
    partitions of n in row order; for a ``table``, also N!/H(2 lam) at
    those, and only the values some later level still reads.
    At ``alpha`` = 1 the values are xi, not eta; the hooks stay doubled.

    One forward sweep of the strip recurrence (:class:`_StripRows`): the
    children of lam = (m,) + t are its head and head - j for j <= last,
    all of fewer parts and of every size, so the values are kept by node,
    not by slot (:mod:`pmspec.lattice`).  head - j of a block's partitions
    is one slice of the nodes of one block, that of t's head stepped j
    times by ``minus1``, at ``base`` of that block, so a block's values are
    its coefficient row dotted with one slice of the values per child.
    The terms are chained maps, one per coefficient, read once as the
    block's values are appended, so no list of partial sums is built.  The
    head's coefficient is 1 or -1: it is added with no product, or
    subtracted last, not negated first.  Past j = 0 every coefficient is at
    least 2 in size, last at j = 1 and a multiple of P_j >= alpha + 1 from
    j = 2 on, but at last = 1: a block of last part 1, most of them, is one
    pass over its head and its one other child, with no product.  The sweep
    sets ``base`` before its walk, so that the lattice fills it, and reads
    each level's b, lo, hi, head and last columns.  The one-part values are d_m
    (alpha = 2) or D_m (alpha = 1).

    For a ``table`` the lattice drops each value, and each hook product,
    once no later level reads it, and moves the live values to the front of
    the list whenever at most half of it is live
    (:meth:`pmspec.lattice.PartitionLattice.levels`); the suites' sweeps
    keep every value.  Returns the lattice, the values by node id (for a
    ``table``, the live ones at the node ids its ``base`` gives, the rest
    None or gone), the values of the rows and the dimensions of the doubled
    rows (None but for a ``table``).
    """
    from array import array  # loaded already by the lattice

    lattice = PartitionLattice(n, doubled=True, hooks=table)
    lattice.base = base = array("i", [0]) * lattice.row_count  # filled by the walk
    minus1 = lattice.minus1
    # the coefficient rows by the level's parity and t's last part, at most n / 2
    strip = _StripRows(alpha)
    rows = [[strip[last, parity] for last in range(n // 2 + 1)] for parity in (0, 1)]
    one_part = pm_degree if alpha == 2 else derangement_count
    values = [1]
    by_row = [None] * lattice.row_count
    for r, level in lattice.levels(nodes=values if table else None):
        if r == 1:
            # (m,) for m = 1 to n, after the empty partition
            values.extend(map(one_part, range(1, n + 1)))
            by_row[0] = values[n]
            continue
        level_rows = rows[r & 1]
        # most blocks have last part 1: their row is [-1, 1] or [-1, -1] by
        # the level's parity, and head - 1 is their one other child
        kids_less_heads = level_rows[1][1] == 1
        for place, lo, hi, head, last in zip(level.b, level.lo, level.hi, level.head, level.last):
            # head - j of (m,) + t is base[head] + m - j, where head starts
            # as the block of t without its last part and steps by minus1
            count = hi - lo + 1
            start = base[head] + lo
            heads = values[start : start + count]
            if last == 1:
                start = base[minus1[head]] + lo - 1
                kids = values[start : start + count]
                values += map(sub, kids, heads) if kids_less_heads else map(neg, map(add, kids, heads))
                by_row[place] = values[-1]
                continue
            row = level_rows[last]
            acc = heads if row[0] == 1 else None
            for j in range(1, last + 1):
                head = minus1[head]
                start = base[head] + lo - j
                term = map(row[j].__mul__, values[start : start + count])
                acc = term if acc is None else map(add, acc, term)
            if row[0] == -1:
                acc = map(sub, acc, heads)
            values += acc
            by_row[place] = values[-1]  # at m = hi, the row
    return lattice, values, by_row, lattice.row_dims


def pm_spectrum_table(n: int) -> SpectrumTable:
    """Full eigenvalue table of the matching derangement graph on K_{2n}.

    The multiplicity of the row indexed by lam is the hook-length dimension
    of the doubled partition 2*lam; multiplicities total (2n-1)!!.  The
    strip recurrence and the doubled-shape hook recurrence run in one
    sweep over the partitions of size <= n (:func:`_eta_sweep`), which
    leaves the module stores as they were.  The sweep drops each value
    once it is dead: a partition nu of k parts is read by no level after
    max(k + 1, n - |nu|).  Each row's dimension is taken as soon as its hook
    product is known.  Every row passes the sign check and every dimension
    the remainder check.
    """
    if n < 1:
        raise ValueError("n must be positive")
    values, dims = _eta_sweep(n, table=True)[2:]
    # (-1)^(n - lam_1) is one sign over each run of rows with one first
    # part, so a run's check is one min or max; for n >= 2 no row is (1),
    # and f > 0 on every row is the whole check.  When a run fails, or at
    # n = 1, whose one row is 0, the rows are checked one by one, which
    # names the first faulty row.
    rest = iter(values)
    if not all(
        min(islice(rest, count)) > 0 if (n - first) % 2 == 0 else max(islice(rest, count)) < 0
        for first, count in zip(range(n, 0, -1), first_part_counts(n))
    ):
        for (parts, m, _), value in zip(walk_partitions(n), values):
            _normalized(tuple(parts[:m]), value)
    return SpectrumTable(family="pm", n=n, values=values, multiplicities=dims)
