"""Executable verification suites for the comparison theorems, the step
identities behind them, the closed-form families, and the open cross-block
conjecture scan.

Each suite walks an exhaustive range of partitions, checks the claimed
relation in exact integers, and returns a VerificationReport listing every
failure with its witnesses.  A suite declares each relation once, with the
names of its witness fields; the report renders the raw values of a failure
only when it lists one.  Suites with a characterized equality case also
record the equality witnesses and check the characterization in both
directions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate

from .exact import admit_table, binomial, odd_double_factorial, physical_memory_bytes, pm_degree
from .partitions import (
    Dominance,
    Partition,
    TransferMove,
    dominance_compare,
    enumerate_partitions,
    has_first_part_three_rest_small,
    partition_counts,
    valid_transfers,
)
from .pm_spectrum import _eta_sweep, _normalized, eta_alt, eta_alt_at, f_closed_form_2a1b, f_value
from .sym_spectrum import _xi_sweep, xi_by_last_part, xi_by_last_part_printed_variant

MAX_LISTED_FAILURES = 100


def _render(value):
    """A witness value as a report shows it: a partition in its text form, a
    move as a list, a tuple of exact values as decimal strings."""
    if isinstance(value, Partition):
        return value.to_text()
    if isinstance(value, TransferMove):
        return list(value)
    if isinstance(value, tuple):
        return tuple(map(str, value))
    return value


class VerificationReport:
    """The checks one suite ran over a range of n, its failures (the first
    MAX_LISTED_FAILURES listed) and its equality witnesses."""

    def __init__(self, suite: str, n_range: tuple) -> None:
        self.suite = suite
        self.n_range = n_range
        self.checks_run = 0
        self.failures = []
        self.failure_count = 0
        self.equality_witnesses = []

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def relation(self, name, *fields):
        """The counting check for one relation: ``check(ok, *values)``.

        A listed failure is the dict of the relation's name (unless None) and
        each field with its rendered value; values are rendered only for the
        failures that are listed.
        """

        def check(ok: bool, *values) -> None:
            self.checks_run += 1
            if not ok:
                self.failure_count += 1
                if len(self.failures) < MAX_LISTED_FAILURES:
                    witness = {} if name is None else {"relation": name}
                    witness.update(zip(fields, map(_render, values)))
                    self.failures.append(witness)

        return check

    def check_count(self, passed: int) -> None:
        """Count ``passed`` checks that held, without a call each.  A check
        that fails still goes through its relation's check, which lists it."""
        self.checks_run += passed

    def witness_equality(self, **witness) -> None:
        self.equality_witnesses.append(witness)

    def to_json(self) -> str:
        import json  # loaded only when json is written

        payload = {
            "suite": self.suite,
            "n_range": list(self.n_range),
            "checks_run": self.checks_run,
            "failures": self.failures,
            "failure_count": self.failure_count,
            "equality_witnesses": self.equality_witnesses,
        }
        return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"

    def to_text(self) -> str:
        lo, hi = self.n_range
        lines = [
            f"suite {self.suite} (n {lo}..{hi}): "
            f"{self.checks_run} checks, {self.failure_count} failures"
        ]
        for item in self.failures:
            lines.append(f"  FAIL {item}")
        if self.failure_count > len(self.failures):
            lines.append(f"  ... {self.failure_count - len(self.failures)} more failures")
        if self.equality_witnesses:
            lines.append(f"  equality witnesses: {len(self.equality_witnesses)}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _report(suite: str, n_min: int, n_max: int) -> VerificationReport:
    """The empty report of a suite that checks each n from n_min to n_max."""
    if n_max < n_min:
        raise ValueError(f"suite {suite} needs n_max >= {n_min}")
    return VerificationReport(suite, (n_min, n_max))


class _Sweep:
    """A family's eigenvalues by partition, read off one lattice sweep of
    size n: at every partition of size at most n for pm (:func:`_eta_sweep`),
    and for sym (:func:`_xi_sweep`) at the partitions of n and what their
    first-part recurrence reaches.  Each partition's id is found by walking
    the lattice's ``base``.  A sweep that could not fit in physical memory,
    with ``held`` bytes per partition that its suite keeps besides it, is
    refused before it starts."""

    def __init__(self, family: str, n: int, held: int = 0) -> None:
        admit_table(family, n, held)
        lattice, self._values, _ = (_eta_sweep if family == "pm" else _xi_sweep)(n)
        self._index = lattice.index

    def value(self, lam: Partition) -> int:
        """eta(lam) on a pm sweep, xi(lam) on a sym sweep."""
        return self._values[self._index(lam)]

    def f(self, lam: Partition) -> int:
        """(-1)^(n - lam_1) eta, checked nonnegative and zero only at (1)."""
        return _normalized(lam, self._values[self._index(lam)])


class _Level:
    """The partitions of n with what the pair suites need of each, computed once.

    ``parts`` are the partitions of n in decreasing lexicographic order, so
    each first part owns a run of consecutive indices, and ``blocks`` maps
    each first part to its run.  ``values[i]`` belongs to ``parts[i]``.  Bit j
    of ``above[i]`` is set iff
    parts[i] is strictly dominated by parts[j]: lam is dominated by mu iff
    every prefix sum of lam is at most mu's.  Each set is the intersection,
    over lam's prefix positions k, of the partitions whose k-th prefix sum
    reaches lam's; at lam's last position that says mu has no more parts.
    Lexicographic order extends dominance, so every such j is below i.
    """

    def __init__(self, parts: list, values: list) -> None:
        n = parts[0][0]  # the first partition is (n,)
        self.parts, self.values = parts, values
        self.blocks: dict = {}
        for i, lam in enumerate(self.parts):
            self.blocks.setdefault(lam[0], []).append(i)
        sums = [list(accumulate(lam)) for lam in self.parts]
        # reaching[k][s]: the partitions whose k-th prefix sum is at least s.
        # Each is read off the column of k-th sums (n past a partition's last
        # part), one byte per partition, translated to '1' or '0' with the
        # lowest index last, as one base-2 int.  The k-th sum is at least k + 1,
        # so every partition reaches each s <= k + 1
        tables = [b"0" * s + b"1" * (256 - s) for s in range(n + 1)]
        columns = zip(*(row + [n] * (n - 1 - len(row)) for row in sums))
        everyone = (1 << len(sums)) - 1
        reaching = [
            [everyone] * (k + 2) + [int(column.translate(t), 2) for t in tables[k + 2 :]]
            for k, column in enumerate(bytes(col)[::-1] for col in columns)
        ]
        self.above = []
        for i, row in enumerate(sums):
            mask = (1 << i) - 1
            for k, s in enumerate(row[: n - 1]):  # every last prefix sum is n
                mask &= reaching[k][s]
            self.above.append(mask)

    def rows(self, block: list) -> list:
        """For each member of a block, the members of the block above it, as
        a bitset of indices local to the block (bit k is block[k])."""
        start, full = block[0], (1 << len(block)) - 1
        return [self.above[i] >> start & full for i in block]


# A level's dominance bitsets hold up to p^2/2 bits for its p partitions, at
# 4 bytes per 30-bit digit of a Python int.  Besides them, the per-block
# masks, the partitions and the stored eta or xi values took 321 to 449
# bytes per partition of size at most n: the peak-RSS growth of scan, thm6
# and kuwong-xi to n = 32, 36 and 39, less the bitsets
_BYTES_PER_BIT = 4 / 30
_BYTES_PER_PARTITION = 500


def admit_levels(n_max: int) -> None:
    """Refuse a pair suite whose levels up to n_max could not fit in
    physical memory.

    p(n) comes from the pentagonal number recurrence, which stops at the
    first n whose level alone overflows memory, so a huge n_max costs no
    more than a small one.
    """
    memory = physical_memory_bytes()
    stored = 0
    for n, count in enumerate(partition_counts()):
        stored += count
        needed = _BYTES_PER_BIT * count * count / 2 + _BYTES_PER_PARTITION * stored
        if needed > memory:
            raise ValueError(
                f"pair suites to n={n_max} need about {needed / 1e6:.0f} MB at n={n} "
                f"({count} partitions), more than the {memory / 1e6:.0f} MB of physical memory"
            )
        if n >= n_max:
            return


def _ranked(values: list) -> tuple:
    """A block's members by value, for counting a row's passes in one popcount.

    Returns ``(keys, reaching)``: the distinct values in ascending order, and
    bitsets where bit k of ``reaching[t]`` is set iff member k's value is at
    least keys[t]; the last entry is empty.  So ``reaching[bisect_left(keys,
    x)]`` holds the members whose value is at least x, and ``bisect_right``
    gives those above x.  Built from the members sorted by value, with
    suffix ORs.
    """
    keys, masks = [], []
    for k in sorted(range(len(values)), key=values.__getitem__):
        if not keys or values[k] != keys[-1]:
            keys.append(values[k])
            masks.append(0)
        masks[-1] |= 1 << k
    return keys, list(accumulate(reversed(masks), int.__or__, initial=0))[::-1]


def _span(block: list) -> int:
    """Bitset of a run of consecutive indices."""
    return (1 << (block[-1] + 1)) - (1 << block[0])


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _block_order(report, level: _Level, block: list, symbol: str, equality: str, chain=None):
    """Check |x(lo)| <= |x(hi)| for every dominated pair of one first-part block.

    x is the eigenvalue named by ``symbol``, and the level's values are its
    absolute values.  Equality must hold exactly when both partitions have
    first part 3 and all later parts at most 2 (the relation ``equality``);
    each equal pair is recorded as a witness.  ``chain``, if given, is a
    third relation with the block's :func:`_monotone_chains`.

    Each row, the pairs (i, j) of one lo, is counted with bitsets: the checks
    that hold are counted in bulk, and each failing check goes through its
    relation in the order a loop over the pairs would list it, by j and then
    by relation.
    """
    parts, values = level.parts, level.values
    order = report.relation(f"|{symbol}(lo)| <= |{symbol}(hi)|", "lo", "hi", "values")
    equal = report.relation(equality, "lo", "hi", "values")
    along, monotone = chain or (None, None)
    per_pair = 2 if chain is None else 3
    key, start = f"abs_{symbol}", block[0]
    keys, reaching = _ranked(values[start : start + len(block)])
    star = sum(
        1 << k for k, i in enumerate(block) if has_first_part_three_rest_small(parts[i])
    )
    for k, row in enumerate(level.rows(block)):
        if not row:
            continue
        lam, a = parts[start + k], values[start + k]
        reach = reaching[bisect_left(keys, a)]
        low = row & ~reach
        same = row & reach & ~reaching[bisect_right(keys, a)]
        unequal = same ^ (row & star if star >> k & 1 else 0)
        broken = 0 if chain is None else row & ~monotone[k]
        failing = low | unequal | broken
        report.check_count(
            per_pair * row.bit_count()
            - low.bit_count() - unequal.bit_count() - broken.bit_count()
        )
        for j in _bits(same):
            hi = parts[start + j].to_text()
            report.witness_equality(lo=lam.to_text(), hi=hi, **{key: str(a)})
        for j in _bits(failing):
            hi, b = parts[start + j], values[start + j]
            if low >> j & 1:
                order(False, lam, hi, (a, b))
            if unequal >> j & 1:
                equal(False, lam, hi, (a, b))
            if broken >> j & 1:
                along(False, lam, hi)


# ---------------------------------------------------------------------------
# sign pattern
# ---------------------------------------------------------------------------


def verify_sign_pattern(n_max: int) -> VerificationReport:
    """(-1)^(n - lambda_1) * eta > 0 for every partition of each n from 2 to
    n_max, read off one pm sweep of size n_max."""
    report = _report("signs", 2, n_max)
    sweep = _Sweep("pm", n_max)
    sign = report.relation(None, "partition", "eta")
    for n in range(2, n_max + 1):
        for lam in enumerate_partitions(n):
            value = sweep.value(lam)
            sign((-1) ** (n - lam[0]) * value > 0, lam, str(value))
    return report


# ---------------------------------------------------------------------------
# absolute-value dominance within a fixed first part (matching family)
# ---------------------------------------------------------------------------


def verify_abs_dominance(n_max: int) -> VerificationReport:
    """|eta| is monotone under dominance among partitions sharing a first
    part, for each n from 2 to n_max.

    Equality is characterized: it occurs exactly for comparable pairs with
    first part 3 and all later parts at most 2.  Additionally |eta| must be
    non-decreasing at every single step of a dominance chain, not merely
    end-to-end.
    """
    report = _report("thm6", 2, n_max)
    admit_levels(n_max)
    sweep = _Sweep("pm", n_max)
    for n in range(2, n_max + 1):
        _abs_dominance_level(report, n, sweep)
    return report


def _abs_dominance_level(report, n: int, sweep: _Sweep) -> None:
    """thm6's checks at one n, whose level is freed on return."""
    chain = report.relation("stepwise |eta| monotone along chain", "lo", "hi")
    parts = enumerate_partitions(n)
    level = _Level(parts, [abs(sweep.value(lam)) for lam in parts])
    equality = "equality iff first part 3 with small tail"
    for block in level.blocks.values():
        monotone = _monotone_chains(level, block)
        _block_order(report, level, block, "eta", equality, (chain, monotone))


def _monotone_chains(level: _Level, block: list) -> list:
    """For each member k of a block, the bitset of the members j above it
    (local indices, as in ``level.rows``) for which the level's value never
    decreases along the dominance chain from k to j.

    The chain from lam toward a target takes the first of
    ``valid_transfers(lam)`` whose result is the target or is still
    dominated by it (:func:`next_transfer`), and goes on along that
    successor's own chain.  So lam's row splits among its successors, each
    taking the targets that no earlier successor took, and the chains to
    them are monotone iff the step to the successor is and the successor's
    chains are.  Successors come earlier in lexicographic order, so each is
    settled before the members below it.
    """
    parts, values, start = level.parts, level.values, block[0]
    index = {parts[i]: k for k, i in enumerate(block)}
    rows = level.rows(block)
    monotone, reach = [], []  # reach[k]: monotone[k] and k itself
    for k, row in enumerate(rows):
        lam, ok = parts[start + k], 0
        for move in valid_transfers(lam) if row else ():
            r = index[lam.transfer(move)]
            served = row & (rows[r] | 1 << r)
            if served:
                row ^= served
                if values[start + r] >= values[start + k]:
                    ok |= served & reach[r]
                if not row:
                    break
        monotone.append(ok)
        reach.append(ok | 1 << k)
    return monotone


# ---------------------------------------------------------------------------
# single transfer moves (matching family)
# ---------------------------------------------------------------------------


def verify_transfer_monotone(n_max: int) -> VerificationReport:
    """f never decreases under a transfer move, at every partition of each n
    from 2 to n_max; equality exactly on the first-part-3 small-tail family
    when the raised part is 1."""
    report = _report("prop2", 2, n_max)
    f = _Sweep("pm", n_max).f
    grows = report.relation("f(transfer) >= f", "partition", "move", "values")
    equal = report.relation("transfer equality characterization", "partition", "move", "values")
    for n in range(2, n_max + 1):
        for mu in enumerate_partitions(n):
            for move in valid_transfers(mu):
                lhs, rhs = f(mu.transfer(move)), f(mu)
                grows(lhs >= rhs, mu, move, (lhs, rhs))
                expected_equal = has_first_part_three_rest_small(mu) and mu[move.i - 1] == 1
                if lhs == rhs:
                    report.witness_equality(partition=mu.to_text(), move=list(move))
                equal((lhs == rhs) == expected_equal, mu, move, (lhs, rhs))
    return report


# ---------------------------------------------------------------------------
# step identities for f
# ---------------------------------------------------------------------------


def _raisable_indices(mu: Partition) -> list[int]:
    return [i for i in range(2, len(mu) + 1) if mu[i - 2] > mu[i - 1]]


def raising_identity_fails_at_first_index() -> bool:
    """The three-term raising identity breaks down at index 1.

    For single-part partitions it would force d_{m+1} - d_m = (2m+1) d_m -
    2m d_{m-1}, which contradicts the degree recurrence; returns True iff a
    counterexample exists with m <= 10 (it does, already at m = 2).
    """
    for m in range(1, 11):
        lhs = pm_degree(m + 1) - pm_degree(m)
        rhs = (2 * m + 1) * pm_degree(m) - 2 * m * pm_degree(m - 1)
        if lhs != rhs:
            return True
    return False


def verify_step_identities(n_max: int) -> VerificationReport:
    """Exact identities relating f across one-box and uniform-subtraction moves.

    Covered, over every admissible partition of each n from 2 to n_max:

    * the weighted-sum identity with (2k+1)!! coefficients;
    * the three-term raising identity at every admissible index i >= 2, plus
      the explicit breakdown of the identity at i = 1;
    * the transfer recurrence when the lowered index is the last part;
    * equality of f under transfers inside the first-part-3 small-tail family
      when the raised part is 1;
    * the lower bound f(raise) - f >= f(raise - 1 everywhere) > 0 (n >= 3)
      and the comparison f(raise - 1 everywhere) >= f(mu - 1 everywhere)
      with its equality characterization.

    Raising a part adds a box, so the sweep reaches size n_max + 1.  The
    breakdown at i = 1 is checked once per n.
    """
    report = _report("lemmas", 2, n_max)
    f = _Sweep("pm", n_max + 1).f
    weighted = report.relation("weighted-sum identity", "partition", "values")
    raising = report.relation("raising identity", "partition", "index", "values")
    bounded = report.relation("raising lower bound", "partition", "index", "values")
    shifted = report.relation("raised-vs-plain subtraction bound", "partition", "index", "values")
    shifted_equal = report.relation(
        "subtraction-bound equality characterization", "partition", "index", "values"
    )
    last_transfer = report.relation(
        "last-index transfer recurrence", "partition", "index", "values"
    )
    special = report.relation("special-family transfer equality", "partition", "move")
    fails_at_one = report.relation("raising identity must fail at index 1")
    for n in range(2, n_max + 1):
        for mu in enumerate_partitions(n):
            s, f_mu = len(mu), f(mu)
            if s >= 2:
                # weighted-sum identity with shifted double factorials
                head = mu.remove_last_part()
                last = mu[-1]
                lhs = sum(
                    binomial(last, k) * odd_double_factorial(k + 1) * f(head.subtract_all(k))
                    for k in range(1, last + 1)
                )
                rhs = (2 * last + 1) * f_mu - 2 * last * f(mu.lower_part(s)) - f(head)
                weighted(lhs == rhs, mu, (lhs, rhs))

            lo_plain = f(mu.subtract_all(1))
            for i in _raisable_indices(mu):
                raised = mu.raise_part(i)
                diff = f(raised) - f_mu
                lo_raised = f(raised.subtract_all(1))
                coef = 2 * mu[i - 1] + s - i
                # three-term raising identity (the i = s case is its simplest form)
                rhs = (coef + 1) * lo_raised - coef * lo_plain
                raising(diff == rhs, mu, i, (diff, rhs))
                if n >= 3:
                    bounded(diff >= lo_raised > 0, mu, i, (diff, lo_raised))
                    shifted(lo_raised >= lo_plain, mu, i, (lo_raised, lo_plain))
                    expected_equal = has_first_part_three_rest_small(mu) and mu[i - 1] == 1
                    shifted_equal(
                        (lo_raised == lo_plain) == expected_equal, mu, i, (lo_raised, lo_plain)
                    )

                # transfer recurrence with the last index lowered
                if i <= s - 1:
                    moved = mu.transfer((i, s))
                    lhs = f(moved) - f_mu
                    rhs = (
                        (2 * mu[i - 1] - 2 * mu[-1] + s - i + 2) * lo_raised
                        - (2 * mu[i - 1] + s - i) * lo_plain
                        + 2 * (mu[-1] - 1) * f(moved.subtract_all(1))
                    )
                    last_transfer(lhs == rhs, mu, i, (lhs, rhs))

            # f is constant under transfers of a 1-part inside the special family
            if has_first_part_three_rest_small(mu):
                for move in valid_transfers(mu):
                    if mu[move.i - 1] == 1:
                        special(f(mu.transfer(move)) == f_mu, mu, move)

        fails_at_one(raising_identity_fails_at_first_index())
    return report


# ---------------------------------------------------------------------------
# product-family identities and cross-block counterexamples
# ---------------------------------------------------------------------------


def verify_product_identities(size_budget: int) -> VerificationReport:
    """Identities on near-rectangular families, for all shapes within budget.

    With u, q >= 1 and every involved partition of size <= size_budget:

    * f(u+1, u^(q-1)) = 2u * (f(u, (u-1)^(q-1)) + f((u-1)^q));
    * f((u+2)^q, 1) = (2u+q+1) f((u+1)^q, 1) + 2u f(u^q, 1);
    * q * f(u+1, u^(q-1)) = 2u * f(u^q, 1);
    * consequently f(u^q, 1) > f(u+1, u^(q-1)) whenever q > 2u.
    """
    if size_budget < 3:
        raise ValueError("size budget too small")
    report = VerificationReport(suite="identities", n_range=(2, size_budget))
    one_box = report.relation("one-box-over-rectangle identity", "u", "q", "values")
    proportional = report.relation("rectangle-with-tail proportionality", "u", "q", "values")
    exceeds = report.relation("tail shape exceeds raised shape for long rectangles", "u", "q")
    step = report.relation("rectangle-step identity", "u", "q", "values")
    known: dict = {}

    def f(parts: list) -> int:
        # each shape once per call: most recur at a later u or q
        key = tuple(parts)
        if key not in known:
            known[key] = f_value(Partition(key))
        return known[key]

    u = 1
    while (u + 1) <= size_budget:
        q = 1
        while q * u + 1 <= size_budget:
            # (u+1, u^(q-1)) has size q u + 1, within budget
            lhs = f([u + 1] + [u] * (q - 1))
            rhs = 2 * u * (f([u] + [u - 1] * (q - 1)) + f([u - 1] * q))
            one_box(lhs == rhs, u, q, (lhs, rhs))
            # derived proportionality between the two dominated shapes
            tail_f = f([u] * q + [1])
            proportional(q * lhs == 2 * u * tail_f, u, q, (q * lhs, 2 * u * tail_f))
            if q > 2 * u:
                exceeds(tail_f > lhs, u, q)
            if q * (u + 2) + 1 <= size_budget:
                lhs = f([u + 2] * q + [1])
                rhs = (2 * u + q + 1) * f([u + 1] * q + [1]) + 2 * u * tail_f
                step(lhs == rhs, u, q, (lhs, rhs))
            q += 1
        u += 1
    return report


def first_part_three_family(n: int) -> list[Partition]:
    """All partitions of n with first part 3 and later parts at most 2."""
    return [Partition([3] + [2] * x + [1] * (n - 3 - 2 * x)) for x in range((n - 3) // 2 + 1)]


def find_cross_block_counterexamples(n_max: int) -> VerificationReport:
    """Dominance does not control |eta| across different first parts.

    For each n from 10 to n_max and 4 <= a <= n/2, the staircase (2^a,
    1^(n-2a)) is dominated by every first-part-3 small-tail partition with
    few enough 1-parts, yet its f value a^2 + (n-2a)(a-1) + 1 strictly
    exceeds the constant 2n+2 of that family.  The suite confirms both the
    dominance and the inequality.
    """
    report = _report("crossblock", 10, n_max)
    closed = report.relation("staircase closed form", "a", "b", "values")
    dominated = report.relation("staircase dominated by special partition", "a", "partition")
    larger = report.relation("dominated shape has strictly larger f", "a", "partition", "values")
    for n in range(10, n_max + 1):
        constant = 2 * n + 2
        # f of each member some a checks, once for all of them: a = 4 admits
        # the most 1-parts, n - 9
        family = [
            (mu, f_value(mu), ones)
            for mu in first_part_three_family(n)
            if (ones := mu.count(1)) <= n - 9
        ]
        for a in range(4, n // 2 + 1):
            b = n - 2 * a
            staircase = Partition([2] * a + [1] * b)
            staircase_f, closed_f = f_value(staircase), f_closed_form_2a1b(a, b)
            closed(staircase_f == closed_f, a, b, (staircase_f, closed_f))
            for mu, mu_f, ones in family:
                if ones > n - 2 * a - 1:
                    continue
                dominated(dominance_compare(staircase, mu) is Dominance.LESS, a, mu)
                larger(mu_f == constant and constant < staircase_f, a, mu, (constant, staircase_f))
    return report


def scan_cross_gap_conjecture(n_max: int, progress=None) -> VerificationReport:
    """Scan for strict |eta| growth across blocks whose first parts differ by >= 2.

    For every n <= n_max, lam with first part u >= 2 dominated by mu with
    first part v >= u + 2, record any pair violating |eta(lam)| < |eta(mu)|.
    An empty list is evidence, not proof; a non-empty list is a finding and
    is rendered prominently by the callers.  ``progress(n, checks_run)``, if
    given, is called after each n.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    admit_levels(n_max)
    sweep = _Sweep("pm", n_max)
    report = VerificationReport(suite="conjecture2", n_range=(2, n_max))
    for n in range(2, n_max + 1):
        _scan_level(report, n, sweep)
        if progress is not None:
            progress(n, report.checks_run)
    return report


def _scan_level(report, n: int, sweep: _Sweep) -> None:
    """The scan's checks at one n: one popcount for each lam and block v,
    and a listed failure for each violating pair.  The level is freed on
    return, before the next one is built."""
    grows = report.relation("strict |eta| growth across blocks", "lo", "hi", "values")
    parts = enumerate_partitions(n)
    level = _Level(parts, [abs(sweep.value(lam)) for lam in parts])
    values, above = level.values, level.above
    ranked = {v: _ranked(values[b[0] : b[-1] + 1]) for v, b in level.blocks.items()}
    passed = 0
    for u, low_block in level.blocks.items():
        if u < 2:
            continue
        for v, high_block in level.blocks.items():
            if v < u + 2:
                continue
            start, span = high_block[0], _span(high_block)
            keys, reaching = ranked[v]
            for i in low_block:
                a = values[i]
                row = (above[i] & span) >> start
                held = row & reaching[bisect_right(keys, a)]
                passed += held.bit_count()
                if held != row:
                    for j in _bits(row ^ held):
                        grows(False, parts[i], parts[start + j], (a, values[start + j]))
    report.check_count(passed)


# ---------------------------------------------------------------------------
# permutation family (baseline)
# ---------------------------------------------------------------------------


def verify_xi_comparison(n_max: int) -> VerificationReport:
    """Baseline family: recurrence agreement and |xi| dominance monotonicity.

    Checks, for every partition of each n from 2 to n_max: the two xi
    recurrences agree, and the mis-transcribed variant disagrees somewhere
    (witnessed at (1,1)); within each fixed-first-part block, dominance
    implies |xi(lo)| <= |xi(hi)| with equality exactly on the first-part-3
    small-tail family; and the lexicographic extremes of each block bound
    |xi| from both sides.
    """
    report = _report("kuwong-xi", 2, n_max)
    admit_levels(n_max)
    for n in range(2, n_max + 1):
        _xi_level(report, n)
    return report


def _xi_level(report, n: int) -> None:
    """kuwong-xi's checks at one n, whose level and sweep are freed on return."""
    agree = report.relation("xi recurrence agreement", "partition", "values")
    extremes = report.relation("lexicographic extremes bound |xi|", "partition", "values")
    variant = report.relation("mis-transcribed variant disagrees at (1,1)")
    # a sym sweep holds only what the partitions of its own size reach
    sweep = _Sweep("sym", n)
    parts = enumerate_partitions(n)
    signed = [sweep.value(mu) for mu in parts]
    level = _Level(parts, list(map(abs, signed)))
    values = level.values
    for mu, by_first in zip(parts, signed):
        by_last = xi_by_last_part(mu)
        agree(by_first == by_last, mu, (by_first, by_last))
    if n == 2:
        variant(
            xi_by_last_part_printed_variant(Partition((1, 1))) == -2
            and sweep.value(Partition((1, 1))) == -1
        )

    for block in level.blocks.values():
        _block_order(report, level, block, "xi", "xi equality characterization")
        # lexicographic extremes bound the whole block: it runs in decreasing
        # lexicographic order, from block[0] down to (u, 1^(n-u)) for its
        # first part u
        low, high = values[block[-1]], values[block[0]]
        for i in block:
            extremes(low <= values[i] <= high, parts[i], (low, values[i], high))


# ---------------------------------------------------------------------------
# dual recurrence paths (matching family)
# ---------------------------------------------------------------------------

# up to this n the lowering-comparison recurrence is also evaluated at every
# admissible index, not only the last one
_ALL_INDICES_MAX_N = 12

# bytes the eta_alt store keeps per partition of size at most n_max: the
# growth of dualpath's peak RSS from n_max = 40 to 46 less the pm table's
# (304 less 97 bytes per partition), plus one value's digit growth, rounded up
_ETA_ALT_BYTES_PER_PARTITION = 250


def verify_dual_recurrences(n_max: int) -> VerificationReport:
    """The two independent eta recurrence paths agree on every partition:
    the strip recurrence, read off one lattice sweep, and the lowering one.

    Up to ``_ALL_INDICES_MAX_N`` the lowering-comparison recurrence is also
    evaluated at every admissible index, not only the last one.  Its store,
    filled alongside the sweep, counts in the sweep's admission.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    sweep = _Sweep("pm", n_max, _ETA_ALT_BYTES_PER_PARTITION)
    report = VerificationReport(suite="dualpath", n_range=(1, n_max))
    agree = report.relation("dual-path agreement", "partition", "values")
    any_index = report.relation("lowering recurrence index-independent", "partition", "index")
    for n in range(1, n_max + 1):
        for lam in enumerate_partitions(n):
            a, b = sweep.value(lam), eta_alt(lam)
            agree(a == b, lam, (a, b))
            if n <= _ALL_INDICES_MAX_N:
                s = len(lam)
                for i in range(2, s + 1):
                    if i == s or lam[i - 1] > lam[i]:
                        any_index(eta_alt_at(lam, i) == a, lam, i)
    return report


# ---------------------------------------------------------------------------
# suites by name (used by the CLI)
# ---------------------------------------------------------------------------


# name: suite function, which takes n_max.  Functions are named, and looked
# up when a suite runs, so that a wrapper installed on this module
# (perfbench's tracer) is the one called.
_SUITES = {
    "signs": "verify_sign_pattern",
    "thm6": "verify_abs_dominance",
    "prop2": "verify_transfer_monotone",
    "lemmas": "verify_step_identities",
    "identities": "verify_product_identities",
    "crossblock": "find_cross_block_counterexamples",
    "kuwong-xi": "verify_xi_comparison",
    "dualpath": "verify_dual_recurrences",
    "conjecture2": "scan_cross_gap_conjecture",
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, n_max: int) -> VerificationReport:
    """Run a named suite over its range up to n_max."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return globals()[_SUITES[name]](n_max)
