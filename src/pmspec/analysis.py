"""Executable verification suites for the comparison theorems, the step
identities behind them, the closed-form families, and the open cross-block
conjecture scan.

Each suite walks an exhaustive range of partitions, checks the claimed
relation in exact integers, and returns a VerificationReport listing every
failure with its witnesses.  Suites with a characterized equality case also
record the equality witnesses and check the characterization in both
directions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import accumulate

from .exact import binomial, odd_double_factorial, pm_degree
from .partitions import (
    Dominance,
    Partition,
    dominance_compare,
    enumerate_partitions,
    has_first_part_three_rest_small,
    next_transfer,
    valid_transfers,
)
from .pm_spectrum import eta, eta_alt, eta_alt_at, f_closed_form_2a1b, f_value
from .sym_spectrum import (
    xi_by_first_part,
    xi_by_last_part,
    xi_by_last_part_printed_variant,
)

MAX_LISTED_FAILURES = 100


@dataclass
class VerificationReport:
    suite: str
    n_range: tuple
    checks_run: int = 0
    failures: list = field(default_factory=list)  # capped at MAX_LISTED_FAILURES
    failure_count: int = 0
    equality_witnesses: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def check(self, ok: bool, witness) -> bool:
        """Count one check.  A failure is listed as ``witness()``, a dict, so
        the witness is built only for the failures that are listed."""
        self.checks_run += 1
        if not ok:
            self.failure_count += 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(witness())
        return ok

    def witness_equality(self, **witness) -> None:
        self.equality_witnesses.append(witness)

    def merge(self, other: "VerificationReport") -> None:
        self.checks_run += other.checks_run
        self.failure_count += other.failure_count
        for item in other.failures:
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(item)
        self.equality_witnesses.extend(other.equality_witnesses)
        self.elapsed_ms += other.elapsed_ms
        lo = min(self.n_range[0], other.n_range[0])
        hi = max(self.n_range[1], other.n_range[1])
        self.n_range = (lo, hi)

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "suite": self.suite,
            "n_range": list(self.n_range),
            "checks_run": self.checks_run,
            "failures": self.failures,
            "failure_count": self.failure_count,
            "equality_witnesses": self.equality_witnesses,
        }
        if include_timing:
            payload["elapsed_ms"] = round(self.elapsed_ms, 3)
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


def _timed(report: VerificationReport, start: float) -> VerificationReport:
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _abs_eta(lam: Partition) -> int:
    return abs(eta(lam).eta)


class _Level:
    """The partitions of n with what the pair suites need of each, computed once.

    ``parts`` come in decreasing lexicographic order, so each first part owns
    a run of consecutive indices, and ``blocks`` maps each first part to its
    run.  ``values[i]`` is ``value(parts[i])``.  Bit j of ``above[i]`` is set iff
    parts[i] is strictly dominated by parts[j]: lam is dominated by mu iff
    every prefix sum of lam is at most mu's.  Each set is the intersection,
    over the prefix positions k, of the partitions whose k-th prefix sum
    reaches lam's.
    """

    def __init__(self, n: int, value) -> None:
        self.parts = enumerate_partitions(n)
        self.values = [value(lam) for lam in self.parts]
        self.blocks: dict = {}
        for i, lam in enumerate(self.parts):
            self.blocks.setdefault(lam[0], []).append(i)
        rows = [list(accumulate(lam)) + [n] * (n - len(lam)) for lam in self.parts]
        everyone = (1 << len(rows)) - 1
        self.above = [everyone ^ (1 << i) for i in range(len(rows))]
        for k in range(n - 1):  # the last prefix sum is n for every partition
            reaching = [0] * (n + 2)  # reaching[s]: partitions with k-th sum >= s
            for j, row in enumerate(rows):
                reaching[row[k]] |= 1 << j
            for s in range(n, -1, -1):
                reaching[s] |= reaching[s + 1]
            for i, row in enumerate(rows):
                self.above[i] &= reaching[row[k]]


def _span(block: list) -> int:
    """Bitset of a run of consecutive indices."""
    return (1 << (block[-1] + 1)) - (1 << block[0])


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# sign pattern
# ---------------------------------------------------------------------------


def verify_sign_pattern(n: int) -> VerificationReport:
    """(-1)^(n - lambda_1) * eta > 0 for every partition of n >= 2."""
    if n < 2:
        raise ValueError("sign pattern holds from n = 2")
    start = time.perf_counter()
    report = VerificationReport(suite="signs", n_range=(n, n))
    for lam in enumerate_partitions(n):
        value = eta(lam).eta
        report.check(
            (-1) ** (n - lam[0]) * value > 0,
            lambda: dict(
                partition=lam.to_text(),
                eta=str(value),
            ),
        )
    return _timed(report, start)


# ---------------------------------------------------------------------------
# absolute-value dominance within a fixed first part (matching family)
# ---------------------------------------------------------------------------


def verify_abs_dominance(n: int) -> VerificationReport:
    """|eta| is monotone under dominance among partitions sharing a first part.

    Equality is characterized: it occurs exactly for comparable pairs with
    first part 3 and all later parts at most 2.  Additionally |eta| must be
    non-decreasing at every single step of a dominance chain, not merely
    end-to-end.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    start = time.perf_counter()
    report = VerificationReport(suite="thm6", n_range=(n, n))
    level = _Level(n, _abs_eta)
    parts, values = level.parts, level.values
    index = {lam: i for i, lam in enumerate(parts)}
    for u, block in level.blocks.items():
        span, chain_memo = _span(block), {}
        for i in block:
            lam, a = parts[i], values[i]
            for j in _bits(level.above[i] & span):
                lam2, b = parts[j], values[j]
                report.check(
                    a <= b,
                    lambda: dict(
                        relation="|eta(lo)| <= |eta(hi)|",
                        lo=lam.to_text(),
                        hi=lam2.to_text(),
                        values=(str(a), str(b)),
                    ),
                )
                in_star = has_first_part_three_rest_small(
                    lam
                ) and has_first_part_three_rest_small(lam2)
                if a == b:
                    report.witness_equality(lo=lam.to_text(), hi=lam2.to_text(), abs_eta=str(a))
                report.check(
                    (a == b) == (u == 3 and in_star),
                    lambda: dict(
                        relation="equality iff first part 3 with small tail",
                        lo=lam.to_text(),
                        hi=lam2.to_text(),
                        values=(str(a), str(b)),
                    ),
                )
                report.check(
                    _chain_monotone(level, index, chain_memo, i, j),
                    lambda: dict(
                        relation="stepwise |eta| monotone along chain",
                        lo=lam.to_text(),
                        hi=lam2.to_text(),
                    ),
                )
    return _timed(report, start)


def _chain_monotone(level: _Level, index: dict, memo: dict, start: int, target: int) -> bool:
    """Whether the level's value never decreases along the dominance chain
    from parts[start] to parts[target] (one first part, start below target).

    The chain is deterministic: every node on it continues along the rest of
    the same chain, which is its own chain to target.  So ``memo``, keyed by
    node * len(parts) + target, records each node's outcome once for all the
    chains that pass through it.  ``index`` maps each partition to its index.
    """
    parts, values = level.parts, level.values
    path = []
    node, ok = start, True
    while node != target:
        key = node * len(parts) + target
        if key in memo:
            ok = memo[key]
            break
        path.append(key)
        cur = parts[node]
        nxt = index[cur.transfer(next_transfer(cur, parts[target]))]
        if values[nxt] < values[node]:
            ok = False
            break
        node = nxt
    for key in path:
        memo[key] = ok
    return ok


# ---------------------------------------------------------------------------
# single transfer moves (matching family)
# ---------------------------------------------------------------------------


def verify_transfer_monotone(n: int) -> VerificationReport:
    """f never decreases under a transfer move; equality exactly on the
    first-part-3 small-tail family when the raised part is 1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    start = time.perf_counter()
    report = VerificationReport(suite="prop2", n_range=(n, n))
    for mu in enumerate_partitions(n):
        for move in valid_transfers(mu):
            moved = mu.transfer(move)
            lhs, rhs = f_value(moved), f_value(mu)
            report.check(
                lhs >= rhs,
                lambda: dict(
                    relation="f(transfer) >= f",
                    partition=mu.to_text(),
                    move=list(move),
                    values=(str(lhs), str(rhs)),
                ),
            )
            expected_equal = has_first_part_three_rest_small(mu) and mu[move.i - 1] == 1
            if lhs == rhs:
                report.witness_equality(partition=mu.to_text(), move=list(move))
            report.check(
                (lhs == rhs) == expected_equal,
                lambda: dict(
                    relation="transfer equality characterization",
                    partition=mu.to_text(),
                    move=list(move),
                    values=(str(lhs), str(rhs)),
                ),
            )
    return _timed(report, start)


# ---------------------------------------------------------------------------
# step identities for f
# ---------------------------------------------------------------------------


def _raisable_indices(mu: Partition) -> list[int]:
    return [i for i in range(2, len(mu) + 1) if mu[i - 2] > mu[i - 1]]


def raising_identity_fails_at_first_index(m_max: int = 10) -> bool:
    """The three-term raising identity breaks down at index 1.

    For single-part partitions it would force d_{m+1} - d_m = (2m+1) d_m -
    2m d_{m-1}, which contradicts the degree recurrence; returns True iff a
    counterexample exists with m <= m_max (it does, already at m = 2).
    """
    for m in range(1, m_max + 1):
        lhs = pm_degree(m + 1) - pm_degree(m)
        rhs = (2 * m + 1) * pm_degree(m) - 2 * m * pm_degree(m - 1)
        if lhs != rhs:
            return True
    return False


def verify_step_identities(n: int) -> VerificationReport:
    """Exact identities relating f across one-box and uniform-subtraction moves.

    Covered, over every admissible partition of n:

    * the weighted-sum identity with (2k+1)!! coefficients;
    * the three-term raising identity at every admissible index i >= 2, plus
      the explicit breakdown of the identity at i = 1;
    * the transfer recurrence when the lowered index is the last part;
    * equality of f under transfers inside the first-part-3 small-tail family
      when the raised part is 1;
    * the lower bound f(raise) - f >= f(raise - 1 everywhere) > 0 (n >= 3)
      and the comparison f(raise - 1 everywhere) >= f(mu - 1 everywhere)
      with its equality characterization.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    start = time.perf_counter()
    report = VerificationReport(suite="lemmas", n_range=(n, n))
    for mu in enumerate_partitions(n):
        s = len(mu)
        if s >= 2:
            # weighted-sum identity with shifted double factorials
            head = mu.remove_last_part()
            last = mu[-1]
            lhs = sum(
                binomial(last, k) * odd_double_factorial(k + 1) * f_value(head.subtract_all(k))
                for k in range(1, last + 1)
            )
            rhs = (
                (2 * last + 1) * f_value(mu)
                - 2 * last * f_value(mu.lower_part(s))
                - f_value(head)
            )
            report.check(
                lhs == rhs,
                lambda: dict(
                    relation="weighted-sum identity",
                    partition=mu.to_text(),
                    values=(str(lhs), str(rhs)),
                ),
            )

        for i in _raisable_indices(mu):
            raised = mu.raise_part(i)
            diff = f_value(raised) - f_value(mu)
            coef = 2 * mu[i - 1] + s - i
            # three-term raising identity (the i = s case is its simplest form)
            rhs = (coef + 1) * f_value(raised.subtract_all(1)) - coef * f_value(
                mu.subtract_all(1)
            )
            report.check(
                diff == rhs,
                lambda: dict(
                    relation="raising identity",
                    partition=mu.to_text(),
                    index=i,
                    values=(str(diff), str(rhs)),
                ),
            )
            if n >= 3:
                bound = f_value(raised.subtract_all(1))
                report.check(
                    diff >= bound > 0,
                    lambda: dict(
                        relation="raising lower bound",
                        partition=mu.to_text(),
                        index=i,
                        values=(str(diff), str(bound)),
                    ),
                )
                lo_raised = f_value(raised.subtract_all(1))
                lo_plain = f_value(mu.subtract_all(1))
                report.check(
                    lo_raised >= lo_plain,
                    lambda: dict(
                        relation="raised-vs-plain subtraction bound",
                        partition=mu.to_text(),
                        index=i,
                        values=(str(lo_raised), str(lo_plain)),
                    ),
                )
                expected_equal = (
                    has_first_part_three_rest_small(mu) and mu[i - 1] == 1
                )
                report.check(
                    (lo_raised == lo_plain) == expected_equal,
                    lambda: dict(
                        relation="subtraction-bound equality characterization",
                        partition=mu.to_text(),
                        index=i,
                        values=(str(lo_raised), str(lo_plain)),
                    ),
                )

            # transfer recurrence with the last index lowered
            if i <= s - 1:
                moved = mu.transfer((i, s))
                lhs = f_value(moved) - f_value(mu)
                rhs = (
                    (2 * mu[i - 1] - 2 * mu[-1] + s - i + 2)
                    * f_value(raised.subtract_all(1))
                    - (2 * mu[i - 1] + s - i) * f_value(mu.subtract_all(1))
                    + 2 * (mu[-1] - 1) * f_value(moved.subtract_all(1))
                )
                report.check(
                    lhs == rhs,
                    lambda: dict(
                        relation="last-index transfer recurrence",
                        partition=mu.to_text(),
                        index=i,
                        values=(str(lhs), str(rhs)),
                    ),
                )

        # f is constant under transfers of a 1-part inside the special family
        if has_first_part_three_rest_small(mu):
            for move in valid_transfers(mu):
                if mu[move.i - 1] == 1:
                    report.check(
                        f_value(mu.transfer(move)) == f_value(mu),
                        lambda: dict(
                            relation="special-family transfer equality",
                            partition=mu.to_text(),
                            move=list(move),
                        ),
                    )

    report.check(
        raising_identity_fails_at_first_index(),
        lambda: dict(relation="raising identity must fail at index 1"),
    )
    return _timed(report, start)


# ---------------------------------------------------------------------------
# product-family identities and cross-block counterexamples
# ---------------------------------------------------------------------------


def verify_product_identities(size_budget: int = 40) -> VerificationReport:
    """Identities on near-rectangular families, for all shapes within budget.

    With u, q >= 1 and every involved partition of size <= size_budget:

    * f(u+1, u^(q-1)) = 2u * (f(u, (u-1)^(q-1)) + f((u-1)^q));
    * f((u+2)^q, 1) = (2u+q+1) f((u+1)^q, 1) + 2u f(u^q, 1);
    * q * f(u+1, u^(q-1)) = 2u * f(u^q, 1);
    * consequently f(u^q, 1) > f(u+1, u^(q-1)) whenever q > 2u.
    """
    if size_budget < 3:
        raise ValueError("size budget too small")
    start = time.perf_counter()
    report = VerificationReport(suite="identities", n_range=(2, size_budget))
    u = 1
    while (u + 1) <= size_budget:
        q = 1
        while q * u + 1 <= size_budget:
            lhs_shape = Partition([u + 1] + [u] * (q - 1))
            if lhs_shape.size <= size_budget:
                lhs = f_value(lhs_shape)
                rhs = 2 * u * (
                    f_value(Partition([u] + [u - 1] * (q - 1)))
                    + f_value(Partition([u - 1] * q))
                )
                report.check(
                    lhs == rhs,
                    lambda: dict(
                        relation="one-box-over-rectangle identity",
                        u=u,
                        q=q,
                        values=(str(lhs), str(rhs)),
                    ),
                )
                # derived proportionality between the two dominated shapes
                tail_shape = Partition([u] * q + [1])
                derived_lhs = q * lhs
                derived_rhs = 2 * u * f_value(tail_shape)
                report.check(
                    derived_lhs == derived_rhs,
                    lambda: dict(
                        relation="rectangle-with-tail proportionality",
                        u=u,
                        q=q,
                        values=(str(derived_lhs), str(derived_rhs)),
                    ),
                )
                if q > 2 * u:
                    report.check(
                        f_value(tail_shape) > lhs,
                        lambda: dict(
                            relation="tail shape exceeds raised shape for long rectangles",
                            u=u,
                            q=q,
                        ),
                    )
            if q * (u + 2) + 1 <= size_budget:
                lhs = f_value(Partition([u + 2] * q + [1]))
                rhs = (2 * u + q + 1) * f_value(Partition([u + 1] * q + [1])) + 2 * u * f_value(
                    Partition([u] * q + [1])
                )
                report.check(
                    lhs == rhs,
                    lambda: dict(
                        relation="rectangle-step identity",
                        u=u,
                        q=q,
                        values=(str(lhs), str(rhs)),
                    ),
                )
            q += 1
        u += 1
    return _timed(report, start)


def first_part_three_family(n: int) -> list[Partition]:
    """All partitions of n with first part 3 and later parts at most 2."""
    out = []
    for x in range((n - 3) // 2 + 1):
        y = n - 3 - 2 * x
        if y >= 0:
            out.append(Partition([3] + [2] * x + [1] * y))
    return out


def find_cross_block_counterexamples(n: int) -> VerificationReport:
    """Dominance does not control |eta| across different first parts.

    For n >= 10 and 4 <= a <= n/2, the staircase (2^a, 1^(n-2a)) is dominated
    by every first-part-3 small-tail partition with few enough 1-parts, yet
    its f value a^2 + (n-2a)(a-1) + 1 strictly exceeds the constant 2n+2 of
    that family.  The suite confirms both the dominance and the inequality.
    """
    if n < 10:
        raise ValueError("counterexamples require n >= 10")
    start = time.perf_counter()
    report = VerificationReport(suite="crossblock", n_range=(n, n))
    constant = 2 * n + 2
    for a in range(4, n // 2 + 1):
        b = n - 2 * a
        staircase = Partition([2] * a + [1] * b)
        staircase_f = f_value(staircase)
        report.check(
            staircase_f == f_closed_form_2a1b(a, b),
            lambda: dict(
                relation="staircase closed form",
                a=a,
                b=b,
                values=(str(staircase_f), str(f_closed_form_2a1b(a, b))),
            ),
        )
        for mu in first_part_three_family(n):
            ones = sum(1 for p in mu if p == 1)
            if ones > n - 2 * a - 1:
                continue
            report.check(
                dominance_compare(staircase, mu) is Dominance.LESS,
                lambda: dict(
                    relation="staircase dominated by special partition",
                    a=a,
                    partition=mu.to_text(),
                ),
            )
            report.check(
                f_value(mu) == constant and constant < staircase_f,
                lambda: dict(
                    relation="dominated shape has strictly larger f",
                    a=a,
                    partition=mu.to_text(),
                    values=(str(constant), str(staircase_f)),
                ),
            )
    return _timed(report, start)


def scan_cross_gap_conjecture(n_max: int, progress=None) -> VerificationReport:
    """Scan for strict |eta| growth across blocks whose first parts differ by >= 2.

    For every n <= n_max, lam with first part u >= 2 dominated by mu with
    first part v >= u + 2, record any pair violating |eta(lam)| < |eta(mu)|.
    An empty list is evidence, not proof; a non-empty list is a finding and
    is rendered prominently by the callers.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    start = time.perf_counter()
    report = VerificationReport(suite="conjecture2", n_range=(2, n_max))
    for n in range(2, n_max + 1):
        level = _Level(n, _abs_eta)
        parts, values = level.parts, level.values
        for u, low_block in level.blocks.items():
            if u < 2:
                continue
            for v, high_block in level.blocks.items():
                if v < u + 2:
                    continue
                span = _span(high_block)
                for i in low_block:
                    a = values[i]
                    for j in _bits(level.above[i] & span):
                        b = values[j]
                        report.check(
                            a < b,
                            lambda: dict(
                                relation="strict |eta| growth across blocks",
                                lo=parts[i].to_text(),
                                hi=parts[j].to_text(),
                                values=(str(a), str(b)),
                            ),
                        )
        if progress is not None:
            progress(n, report.checks_run)
    return _timed(report, start)


# ---------------------------------------------------------------------------
# permutation family (baseline)
# ---------------------------------------------------------------------------


def verify_xi_comparison(n: int) -> VerificationReport:
    """Baseline family: recurrence agreement and |xi| dominance monotonicity.

    Checks, for every partition of n: the two xi recurrences agree, and the
    mis-transcribed variant disagrees somewhere (witnessed at (1,1)); within
    each fixed-first-part block, dominance implies |xi(lo)| <= |xi(hi)| with
    equality exactly on the first-part-3 small-tail family; and the
    lexicographic extremes of each block bound |xi| from both sides.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    start = time.perf_counter()
    report = VerificationReport(suite="kuwong-xi", n_range=(n, n))
    level = _Level(n, lambda mu: abs(xi_by_first_part(mu)))
    parts, values = level.parts, level.values
    for mu in parts:
        report.check(
            xi_by_first_part(mu) == xi_by_last_part(mu),
            lambda: dict(
                relation="xi recurrence agreement",
                partition=mu.to_text(),
                values=(str(xi_by_first_part(mu)), str(xi_by_last_part(mu))),
            ),
        )
    if n == 2:
        report.check(
            xi_by_last_part_printed_variant(Partition((1, 1))) == -2
            and xi_by_first_part(Partition((1, 1))) == -1,
            lambda: dict(relation="mis-transcribed variant disagrees at (1,1)"),
        )

    for u, block in level.blocks.items():
        span = _span(block)
        for i in block:
            lam, a = parts[i], values[i]
            for j in _bits(level.above[i] & span):
                lam2, b = parts[j], values[j]
                report.check(
                    a <= b,
                    lambda: dict(
                        relation="|xi(lo)| <= |xi(hi)|",
                        lo=lam.to_text(),
                        hi=lam2.to_text(),
                        values=(str(a), str(b)),
                    ),
                )
                in_star = has_first_part_three_rest_small(
                    lam
                ) and has_first_part_three_rest_small(lam2)
                if a == b:
                    report.witness_equality(lo=lam.to_text(), hi=lam2.to_text(), abs_xi=str(a))
                report.check(
                    (a == b) == (u == 3 and in_star),
                    lambda: dict(
                        relation="xi equality characterization",
                        lo=lam.to_text(),
                        hi=lam2.to_text(),
                        values=(str(a), str(b)),
                    ),
                )
        # lexicographic extremes bound the whole block: it runs in decreasing
        # lexicographic order, from block[0] down to (u, 1^(n-u))
        low, high = values[block[-1]], values[block[0]]
        for i in block:
            report.check(
                low <= values[i] <= high,
                lambda: dict(
                    relation="lexicographic extremes bound |xi|",
                    partition=parts[i].to_text(),
                    values=(str(low), str(values[i]), str(high)),
                ),
            )
    return _timed(report, start)


# ---------------------------------------------------------------------------
# dual recurrence paths (matching family)
# ---------------------------------------------------------------------------


def verify_dual_recurrences(n_max: int, all_indices_up_to: int = 12) -> VerificationReport:
    """The two independent eta recurrence paths agree on every partition.

    Up to ``all_indices_up_to`` the lowering-comparison recurrence is also
    evaluated at every admissible index, not only the last one.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    start = time.perf_counter()
    report = VerificationReport(suite="dualpath", n_range=(1, n_max))
    for n in range(1, n_max + 1):
        for lam in enumerate_partitions(n):
            a, b = eta(lam).eta, eta_alt(lam)
            report.check(
                a == b,
                lambda: dict(
                    relation="dual-path agreement",
                    partition=lam.to_text(),
                    values=(str(a), str(b)),
                ),
            )
            if n <= all_indices_up_to and len(lam) >= 2:
                s = len(lam)
                for i in range(2, s + 1):
                    if i < s and lam[i - 1] <= lam[i]:
                        continue
                    report.check(
                        eta_alt_at(lam, i) == a,
                        lambda: dict(
                            relation="lowering recurrence index-independent",
                            partition=lam.to_text(),
                            index=i,
                        ),
                    )
    return _timed(report, start)


# ---------------------------------------------------------------------------
# aggregation over ranges (used by the CLI)
# ---------------------------------------------------------------------------


def run_suite(name: str, n_max: int, progress=None) -> VerificationReport:
    """Run a named suite aggregated over its natural range up to n_max."""
    per_n = {
        "signs": (verify_sign_pattern, 2),
        "thm6": (verify_abs_dominance, 2),
        "prop2": (verify_transfer_monotone, 2),
        "lemmas": (verify_step_identities, 2),
        "crossblock": (find_cross_block_counterexamples, 10),
        "kuwong-xi": (verify_xi_comparison, 2),
    }
    if name in per_n:
        func, n_min = per_n[name]
        if n_max < n_min:
            raise ValueError(f"suite {name} needs n_max >= {n_min}")
        merged = func(n_min)
        for n in range(n_min + 1, n_max + 1):
            merged.merge(func(n))
        return merged
    if name == "identities":
        return verify_product_identities(size_budget=n_max)
    if name == "dualpath":
        return verify_dual_recurrences(n_max)
    if name == "conjecture2":
        return scan_cross_gap_conjecture(n_max, progress=progress)
    raise ValueError(f"unknown suite {name!r}")


SUITE_NAMES = (
    "signs",
    "thm6",
    "prop2",
    "lemmas",
    "identities",
    "crossblock",
    "kuwong-xi",
    "dualpath",
    "conjecture2",
)
