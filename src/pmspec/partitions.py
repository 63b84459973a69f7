"""Integer partitions with the surgery operations used by the eigenvalue
recurrences: part removal, uniform subtraction, single-box raising/lowering,
box transfers, dominance (majorization) order, and chain construction.

Conventions: a partition is a non-increasing tuple of positive integers; the
empty tuple is the unique partition of 0.  All part indices in the public
interface are 1-based, matching the usual mu_1 >= mu_2 >= ... notation.
"""

from __future__ import annotations

import enum
import operator
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple


class Partition(tuple):
    """Canonical partition: non-increasing positive parts, no trailing zeros.

    Construction normalizes by stripping trailing zeros; an all-zero input
    yields the empty partition.  Each part must be an integer, by
    ``operator.index``: a float or a string raises TypeError.  Negative
    entries or increasing sequences are rejected.  A Partition argument is
    returned as it is.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts
        data = tuple(map(operator.index, parts))
        if any(p < 0 for p in data):
            raise ValueError(f"negative part in {data!r}")
        if any(a < b for a, b in zip(data, data[1:])):
            raise ValueError(f"parts not non-increasing: {data!r}")
        end = len(data)
        while end and data[end - 1] == 0:
            end -= 1
        return super().__new__(cls, data[:end])

    @classmethod
    def _trusted(cls, parts: tuple) -> "Partition":
        """Wrap a tuple that is already a partition, without checking it.

        Only for results that are non-increasing with positive parts by
        construction, such as surgery on a valid partition after its own
        argument checks; outside input goes through ``Partition(parts)``.
        """
        return tuple.__new__(cls, parts)

    # -- basic attributes -------------------------------------------------

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}"

    # -- text format ------------------------------------------------------

    def to_text(self) -> str:
        """Render as '+'-joined parts; the empty partition renders as '0'."""
        return "+".join(map(str, self)) if self else "0"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the '+'-joined format; '0' denotes the empty partition.

        Each part is read by :func:`parse_digits`.
        """
        text = text.strip()
        if text == "0":
            return cls()
        try:
            parts = [parse_digits(tok) for tok in text.split("+")]
        except ValueError:
            raise ValueError(f"cannot parse partition {text!r}") from None
        if any(p <= 0 for p in parts):
            raise ValueError(f"cannot parse partition {text!r}")
        return cls(parts)

    # -- surgery ----------------------------------------------------------

    def remove_last_part(self) -> "Partition":
        """Drop the last part."""
        if not self:
            raise ValueError("empty partition has no last part")
        return Partition._trusted(self[:-1])

    def subtract_all(self, k: int) -> "Partition":
        """Subtract k from every part (1 <= k <= last part), normalizing."""
        if not self:
            raise ValueError("cannot subtract from the empty partition")
        if not 1 <= k <= self[-1]:
            raise ValueError(f"k={k} out of range [1, {self[-1]}] for {self!r}")
        return Partition._trusted(tuple([p - k for p in self if p > k]))

    def raise_part(self, i: int) -> "Partition":
        """Increment part i (1-based); requires 2 <= i <= length and a strict
        descent before i so the result stays non-increasing."""
        if not 2 <= i <= len(self):
            raise ValueError(f"raise index {i} out of range for {self!r}")
        if self[i - 2] <= self[i - 1]:
            raise ValueError(f"cannot raise part {i} of {self!r}: no descent at {i - 1}")
        return Partition._trusted(self[: i - 1] + (self[i - 1] + 1,) + self[i:])

    def lower_part(self, i: int) -> "Partition":
        """Decrement part i (1-based); requires i = length or a strict descent
        after i.  A part lowered to zero is stripped."""
        if not 2 <= i <= len(self):
            raise ValueError(f"lower index {i} out of range for {self!r}")
        if i < len(self) and self[i - 1] <= self[i]:
            raise ValueError(f"cannot lower part {i} of {self!r}: no descent at {i}")
        lowered = self[i - 1] - 1
        return Partition._trusted(self[: i - 1] + ((lowered,) if lowered else ()) + self[i:])

    def transfer(self, move: "TransferMove") -> "Partition":
        """Move one box down the index axis: raise part i, lower part j (i < j).

        The result has the same size, never a greater length, and strictly
        dominates the input.
        """
        i, j = move
        if not 2 <= i < j <= len(self):
            raise ValueError(f"transfer ({i},{j}) out of range for {self!r}")
        # raising part i leaves parts j and j + 1 alone, so each step checks its own descent
        return self.raise_part(i).lower_part(j)


def parse_digits(text: str) -> int:
    """The integer that a run of ASCII digits spells, with optional
    whitespace around it; ``int`` alone would also take '1_0', a sign or
    non-ASCII digits."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a run of ASCII digits: {text!r}")
    return int(digits)


class TransferMove(NamedTuple):
    """A single box transfer: raise at index i, lower at index j, 2 <= i < j."""

    i: int
    j: int


class Dominance(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def walk_partitions(n: int) -> Iterator[tuple[list, int, str]]:
    """Every partition of n in decreasing lexicographic order, (n) first, by
    algorithm ZS1 (Zoghbi and Stojmenovic 1998), as ``(parts, m, text)``.

    ``parts[:m]`` is the partition, followed by 1s; ``parts`` is the walk's
    own list, valid only until the next step, and ``parts[0]`` is the first
    part, 0 for the empty partition.  ``text`` is what
    :meth:`Partition.to_text` writes.  h indexes the last part above 1, and
    pre[i] is the text of ``parts[:i]`` for i <= h + 1: a step rebuilds only
    the entries of the parts it changes.  Each text is pre[h + 1] followed
    by the trailing 1s, a cached run of '+1'; the last, (1^n), has no part
    above 1 (h = -1) and is written whole.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    parts = [n] + [1] * (n - 1)
    if n < 2:
        yield parts, n, str(n)
        return
    plus = [f"+{k}" for k in range(n + 1)]
    ones = ["+1" * k for k in range(n)]
    pre = [""] * (n + 1)
    pre[1] = str(n)
    m, h = 1, 0
    yield parts, m, pre[1]
    while True:
        if parts[h] == 2:
            parts[h], h, m = 1, h - 1, m + 1
            if h < 0:
                yield parts, m, "1" + ones[n - 1]
                return
        else:
            # lower part h by one, and regroup the freed box and the
            # trailing 1s greedily into parts no larger than it
            part, rest = parts[h] - 1, m - h
            parts[h] = part
            pre[h + 1] = pre[h] + plus[part] if h else str(part)
            while rest >= part:
                h += 1
                parts[h], rest = part, rest - part
                pre[h + 1] = pre[h] + plus[part]
            m = h + 2 if rest else h + 1
            if rest > 1:
                h += 1
                parts[h] = rest
                pre[h + 1] = pre[h] + plus[rest]
        yield parts, m, pre[h + 1] + ones[m - h - 1]


def first_part_counts(n: int) -> list[int]:
    """How many partitions of n have first part n, n - 1, ..., 1: the
    lengths of the first-part runs of :func:`walk_partitions`.  For n = 0
    it is [1], the empty partition, whose first part counts as 0.

    A partition of n with first part m is m followed by a partition of
    n - m with parts at most m (:func:`bounded_partition_counts`).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [1]
    bounded = bounded_partition_counts(n)
    return [bounded[m][n - m] for m in range(n, 0, -1)]


def bounded_partition_counts(n: int) -> list[list[int]]:
    """``bounded[m][s]``, how many partitions of s have parts at most m, for
    0 <= m, s <= n.

    A partition of s with parts at most m either has none equal to m or is
    m followed by one of s - m with parts at most m, so each m's counts are
    the previous m's with those added, one m at a time.
    """
    row = [1] + [0] * n
    bounded = [row[:]]
    for m in range(1, n + 1):
        for s in range(m, n + 1):
            row[s] += row[s - m]
        bounded.append(row[:])
    return bounded


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in decreasing lexicographic order, (n) first: the
    walk of :func:`walk_partitions`."""
    return [Partition._trusted(parts[:m]) for parts, m, _ in walk_partitions(n)]


def dominance_compare(mu: Partition, nu: Partition) -> Dominance:
    """Compare two partitions of the same size in dominance order."""
    if mu.size != nu.size:
        raise ValueError(f"size mismatch: |{mu!r}| != |{nu!r}|")
    le = ge = True
    acc_mu = acc_nu = 0
    for k in range(max(len(mu), len(nu))):
        acc_mu += mu[k] if k < len(mu) else 0
        acc_nu += nu[k] if k < len(nu) else 0
        if acc_mu > acc_nu:
            le = False
        if acc_mu < acc_nu:
            ge = False
    if le and ge:
        return Dominance.EQUAL
    if le:
        return Dominance.LESS
    if ge:
        return Dominance.GREATER
    return Dominance.INCOMPARABLE


def valid_transfers(mu: Partition) -> list[TransferMove]:
    """All transfer moves admissible on mu, by raise index i, then lower index j."""
    return list(_transfers(mu))


def _transfers(mu: Partition) -> Iterator[TransferMove]:
    r = len(mu)
    for i in range(2, r + 1):
        if mu[i - 2] <= mu[i - 1]:
            continue
        for j in range(i + 1, r + 1):
            if j < r and mu[j - 1] <= mu[j]:
                continue
            yield TransferMove(i, j)


def next_transfer(cur: Partition, target: Partition) -> TransferMove:
    """The move a dominance chain takes from cur toward target.

    cur must be strictly dominated by target.  The move is the first of
    ``valid_transfers(cur)`` (smallest raise index i, then smallest lower
    index j) whose result is still dominated by target.  A move (i, j) adds
    one to the prefix sums S_i .. S_{j-1} and leaves the others alone, so it
    does not overshoot iff cur's prefix sums there are strictly below
    target's.
    """
    below = [t > c for c, t in zip(accumulate(cur), accumulate(target))]
    # past target's last part its prefix sums are n, and cur's stay below n
    # until cur's own last part, which no move's range reaches
    below += [True] * (len(cur) - 1 - len(below))
    for move in _transfers(cur):
        if all(below[move.i - 1 : move.j - 1]):
            return move
    raise RuntimeError(f"no admissible move from {cur!r} toward {target!r}")


def dominance_chain(lam: Partition, target: Partition) -> list[TransferMove]:
    """A sequence of transfer moves taking lam to target.

    Both partitions must have the same size and the same first part, with
    lam dominated by target.  Every intermediate partition keeps the common
    first part (moves never touch index 1) and stays dominated by target.
    Each move is :func:`next_transfer`'s choice.
    """
    if lam.size != target.size:
        raise ValueError("size mismatch")
    if (lam[:1] or (0,)) != (target[:1] or (0,)):
        raise ValueError(f"first parts differ: {lam!r} vs {target!r}")
    cmp = dominance_compare(lam, target)
    if cmp is Dominance.EQUAL:
        return []
    if cmp is not Dominance.LESS:
        raise ValueError(f"{lam!r} is not dominated by {target!r}")

    moves: list[TransferMove] = []
    cur = lam
    while cur != target:
        move = next_transfer(cur, target)
        moves.append(move)
        cur = cur.transfer(move)
    return moves


def has_first_part_three_rest_small(mu: Partition) -> bool:
    """True iff the first part is 3 and every later part is at most 2.

    These partitions form the exact equality class of the absolute-value
    comparison: raising a box inside this family leaves the normalized
    eigenvalue unchanged.
    """
    return bool(mu) and mu[0] == 3 and all(p <= 2 for p in mu[1:])
