"""Exact integer kernel: double factorials, binomials, derangement numbers,
matching-graph degrees, and hook-length dimensions.

Everything here is arbitrary-precision integer arithmetic; the sequences
are authoritative recurrences, each kept one way, as checkpoint pairs and
the pair it last rolled to.  :func:`irrep_dimension` computes a hook
product cell by cell, the reference for the first-column hook recurrences
the spectrum tables run on the partition lattice
(:class:`pmspec.lattice.PartitionLattice`).
:func:`admit` refuses work whose memory model exceeds :func:`memory_budget`,
for :func:`admit_query` a single query and for :func:`admit_table` a table.
Each memory model's measured bytes-per-unit rate is one entry of
:data:`LEDGER`, which every model's need generator reads.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate

from .lattice import ID_LIMIT, _hook_quotient
from .partitions import Partition, bounded_partition_counts

# Each sequence is kept one way: its step, step(m, term m-1, term m-2) =
# term m, the pair (term m, term m-1) at each checkpoint m rolled past, and
# the index and pair it last rolled to.  A term is rolled from the highest
# pair kept at or below its index, so ascending reads take one step each.
# Kept terms add up (d_20000 alone has about 83,000 digits), so checkpoints
# thin out: the multiples of 2^(b-5) for m of bit length b, every m below
# 32, then sixteen per doubling.  A read below the last pair takes fewer
# than m/16 steps, and past m = 1,024 the pairs of a sequence rolled to m
# hold at most 47 times the bits of term m (43 at m = 20,000), which
# _query_needs rounds up to 64.  Index 0's pair holds 0 for term -1, which
# the step at m = 1 multiplies by 0 or does not read.
_odd_df = (lambda m, prev, _: prev * (2 * m - 1), {0: (1, 0)}, [0, 1, 0])  # (2k-1)!!
_pm_deg = (lambda m, prev, prev2: 2 * (m - 1) * (prev + prev2), {0: (1, 0)}, [0, 1, 0])  # d_n
_derange = (lambda m, prev, prev2: (m - 1) * (prev + prev2), {0: (1, 0)}, [0, 1, 0])  # D_n


def _checkpoint_below(m: int) -> int:
    """The checkpoint at or below index m."""
    return m - m % (1 << (m >> 5).bit_length())


def _term(sequence: tuple, k: int) -> int:
    """Term k of ``sequence``, (step, checkpoint pairs, last index and pair)."""
    step, marks, last = sequence
    m = _checkpoint_below(k)
    if m not in marks:
        # every checkpoint up to the highest index rolled to is kept, so one
        # missing lies past them all
        m = max(marks)
    at, prev, prev2 = last
    if not m <= at <= k:
        at, (prev, prev2) = m, marks[m]
    for at in range(at + 1, k + 1):
        prev, prev2 = step(at, prev, prev2), prev
        if _checkpoint_below(at) == at:
            marks[at] = (prev, prev2)
    last[:] = k, prev, prev2
    return prev


def physical_memory_bytes() -> int:
    """Physical memory of this machine, as the operating system reports it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def admit(needs) -> None:
    """Refuse work that could not fit in memory.  ``needs`` yields ``(bytes,
    description)`` for a growing share of the work, and the first share over
    :func:`memory_budget` raises a ValueError that names the binding limit.
    Nothing past it is computed, so a model that grows without end costs no
    more than one that fits."""
    memory, limit = memory_budget()
    for needed, what in needs:
        if needed > memory:
            # the need is rounded up and the budget down, so the need reads larger
            have = memory // 10**6
            raise ValueError(f"{what} about {_megabytes_up(needed)} MB, more than the {have:.0f} MB of {limit}")


def _megabytes_up(needed) -> str:
    """``needed`` bytes in MB, rounded up: to whole MB below 10^6 MB, and to
    three significant digits from there, exactly for an int of any size."""
    mb = int(-(-needed // 10**6))
    if mb < 10**6:
        return f"{mb}"
    from decimal import ROUND_CEILING, Context  # only a need this large reads it

    up = Context(prec=3, rounding=ROUND_CEILING).plus(mb)
    return f"{up.scaleb(-up.adjusted()).normalize()}e+{up.adjusted():02d}"


def memory_budget() -> tuple:
    """The bytes this process may still take, and the name of the limit that
    binds: the least of physical memory, the soft address-space limit less
    the address space mapped so far, and a numeric cgroup v2 memory.max less
    the cgroup's memory.current; never below 0."""
    import resource  # only a memory check needs it

    limits = [(physical_memory_bytes(), "physical memory")]
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        mapped = int((_read("/proc/self/statm") or "0").split()[0]) * os.sysconf("SC_PAGE_SIZE")
        limits.append((soft - mapped, "address space left under RLIMIT_AS"))
    for line in _read("/proc/self/cgroup").splitlines():
        if line.startswith("0::"):
            group = f"/sys/fs/cgroup{line[3:]}"
            cap = _read(f"{group}/memory.max").strip()
            if cap.isdigit():
                used = int(_read(f"{group}/memory.current") or 0)
                limits.append((int(cap) - used, "memory allowed by the cgroup's memory.max"))
    memory, limit = min(limits)
    return max(memory, 0), limit


def _read(path: str) -> str:
    """A file's text, or "" where it cannot be read."""
    try:
        with open(path) as file:
            return file.read()
    except OSError:
        return ""


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


def admit_query(family: str, lam: tuple) -> None:
    """Refuse a single query whose evaluation could not fit in memory.

    Every value the recurrences of a partition of n hold is at most d_n
    (family "pm") or D_n ("sym") in absolute value, and a query holds at
    its peak two rows of at most lam_2 + 1 values (see
    :func:`pmspec.pm_spectrum._eta_prefixes` and
    :func:`pmspec.sym_spectrum._xi_suffixes`), the checkpoint pairs of d or
    D it rolls to lam_1 (at most 64 times the bits of term lam_1, counted
    past lam_1 = 1,024, below which they hold under 100 KB), and, for eta,
    one coefficient row, the largest it builds, of last part lam_2 (see
    :func:`pmspec.pm_spectrum._strip_row`).  Both families roll their sequence
    through :mod:`pmspec.exact` up to lam_1.  One value that alone exceeds
    memory is refused first, and so is the sum.
    """
    admit(_query_needs(family, lam))


def _query_needs(family: str, lam: tuple):
    """One value of a query, then all it holds at its peak (see
    :func:`admit_query`), for :func:`admit`.  eta's coefficient row is
    charged from lam_2 = 2 on: at last part 1 it builds none."""
    n = sum(lam)
    bits = _log_bound(family, n) / math.log(2)
    yield bits / 8, f"a partition of size n={n} has values up to {'d_n' if family == 'pm' else 'D_n'}, each"
    first, second = (tuple(lam) + (0, 0))[:2]
    needed = _held_bytes(2 * (second + 1) * bits, 2 * (second + 1))
    if first > 1024:
        needed += _held_bytes(64 * _log_bound(family, first) / math.log(2), 64)
    if family == "pm" and second > 1:
        needed += _held_bytes(_strip_row_bits(second + 0.5) - _strip_row_bits(second - 0.5), second + 1)
    yield needed, f"the {family} query on this partition of size n={n} holds at its peak"


# The memory ledger: what each held thing costs, in bytes per unit, by the
# name a refusal prints.  A rate is the growth of a command's peak RSS between
# two sizes, or a sum of CPython object sizes, rounded up; tests/test_memory.py
# measures each again.  A node is a partition of size at most n.
LEDGER = {
    # per node: lemmas' reader, the rows of every size off each size's own sweep, grew 58 bytes from
    # n = 45 to 50 (signs, a sweep per n, 53; table --n, which drops the dead ones, 35), plus ~22 of digits
    "a pm sweep": 140,
    # per node: table --n 45 to 50 grew 24 bytes, plus ~22 of one value's digit growth
    "a sym sweep": 90,
    # per node: dualpath --n-max 40 to 46 grew 304 bytes less the pm table's 97, plus digits
    "the eta_alt store": 250,
    # per node: kuwong-xi --n-max 36 to 42 grew 85 bytes less the sym table's 31, plus digits;
    # it over-counts, as each n's strip sweep is freed before that n's sym sweep runs
    "its alpha = 1 strip sweep": 100,
    # per node beside a level's bits: scan, thm6, kuwong-xi to 32, 36, 39 grew 321-449 bytes
    "pair suites": 500,
    # per shape kept: a tuple's 56 bytes and a 64-byte slot; identities 100 to 300 grew 2.6 MiB of a 3.6 MiB need
    "the shapes": 120,
    # per vertex: oracle pm n=6 to 7 grew 210-212 bytes a vertex more than the layouts' bits, 326
    # while a vertex was tuples and lists; the rate stays, so that no admitted n moves
    "oracle pm": 400,
    # per vertex: oracle sym n=7 to 8 grew 168-170 bytes a vertex more than the layouts' bits, 8 to 9
    # 208, against 374 and 382 while a vertex was tuples and lists; the rate stays, as for pm
    "oracle sym": 450,
}


def _table_needs(family: str, n: int, *also: str):
    """The bytes a sweep of size n holds, with what the ledger names in
    ``also`` beside it, for :func:`admit`: its per-node rates for each
    partition of size at most k, for each k up to n or ID_LIMIT."""
    per_node = sum(LEDGER[name] for name in (f"a {family} sweep", *also))
    what = " and ".join((f"a {family} sweep to n={n}", *also))
    for k, nodes in enumerate(accumulate(bounded_partition_counts(min(n, ID_LIMIT))[-1])):
        yield per_node * nodes, f"{what}: the {nodes} partitions of size at most {k} need"


def admit_table(family: str, n: int, *also: str) -> None:
    """Refuse a table of size n whose sweep could not fit in memory, or
    whose lattice node ids could not fit in 4 bytes.

    The need is counted per partition of size at most n, at which the pm
    sweep holds its values, at the ledger's rate for the sweep and for what
    ``also`` names, which its caller holds beside it; a refusal names them
    all.  Those partitions are the node ids 0, 1, ..., which the lattice's
    ``base``, an ``array("i")``, holds offsets into, so there must be fewer
    than 2^31 of them, n < ID_LIMIT, and no count past it is needed.
    """
    admit(_table_needs(family, n, *also))
    nodes = sum(bounded_partition_counts(min(n, ID_LIMIT))[-1])
    if nodes >= 2**31:  # n >= ID_LIMIT
        what = " and ".join((f"a {family} sweep to n={n}", *also))
        raise ValueError(
            f"{what}: the {nodes} partitions of size at most {ID_LIMIT} need ids"
            f" up to {nodes - 1}, past {2**31 - 1}, the largest 4-byte int"
        )


def odd_double_factorial(k: int) -> int:
    """(2k-1)!! = 1*3*...*(2k-1); the empty product 1 for k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _term(_odd_df, k)


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
    return _term(_pm_deg, n)


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
    return _term(_derange, n)


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

