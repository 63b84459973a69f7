"""Output checkers for the pmspec benchmark.

Every expected value here is computed from first principles, never by
importing pmspec: partition counts by Euler's pentagonal recurrence,
character degrees by the Frobenius determinant formula (not hook lengths),
graph degrees by inclusion-exclusion, and suite check counts by this
module's own dominance test.  Each ``check_*`` function returns a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

# rows of each table output whose multiplicity is checked by the Frobenius formula
TABLE_SAMPLE = 24

# ---------------------------------------------------------------------------
# independent arithmetic
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while True:
        g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
        if g1 > n:
            return total
        sign = 1 if k % 2 else -1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1


def partitions_of(n: int) -> list[tuple]:
    """All partitions of n, each a non-increasing tuple (order unspecified)."""
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, cap), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def odd_double_factorial(n: int) -> int:
    """(2n-1)!!, the number of perfect matchings of K_{2n}."""
    return math.prod(range(1, 2 * n, 2))


def pm_degree(n: int) -> int:
    """d_n: matchings sharing no edge with a fixed one, by inclusion-exclusion."""
    return sum((-1) ** i * math.comb(n, i) * odd_double_factorial(n - i) for i in range(n + 1))


def derangements(n: int) -> int:
    """D_n = sum_k (-1)^k n!/k!."""
    return sum((-1) ** k * (math.factorial(n) // math.factorial(k)) for k in range(n + 1))


def frobenius_dimension(lam: tuple) -> int:
    """Degree of the S_n irreducible lam: n! prod_{i<j}(l_i - l_j) / prod l_i!,
    with l_i = lam_i + k - i over the k parts."""
    k = len(lam)
    ls = [lam[i] + k - 1 - i for i in range(k)]
    num = math.factorial(sum(lam))
    for i in range(k):
        for j in range(i + 1, k):
            num *= ls[i] - ls[j]
    den = math.prod(math.factorial(x) for x in ls)
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Frobenius formula not integral at {lam}")
    return dim


def family_constants(family: str, n: int) -> tuple[int, int]:
    """(vertex count, degree) of the pm or sym derangement graph of size n."""
    if family == "pm":
        return odd_double_factorial(n), pm_degree(n)
    return math.factorial(n), derangements(n)


def expected_sign(n: int, lam: tuple) -> int:
    """(-1)^(n - lam_1): the sign both families' eigenvalues carry for n >= 2."""
    return -1 if (n - lam[0]) % 2 else 1


# ---------------------------------------------------------------------------
# dominance counts for the verification suites
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def dominated_pairs(n: int) -> tuple:
    """Strictly dominated ordered pairs (lo, hi) among partitions of n.

    Returns (first parts, boolean matrix M) with M[i, j] true iff partition i
    is strictly dominated by partition j, by padded cumulative sums.
    """
    parts = partitions_of(n)
    sums = np.zeros((len(parts), n), dtype=np.int64)
    for i, lam in enumerate(parts):
        padded = list(lam) + [0] * (n - len(lam))
        sums[i] = np.cumsum(padded)
    le = (sums[:, None, :] <= sums[None, :, :]).all(axis=2)
    np.fill_diagonal(le, False)
    first = np.array([lam[0] for lam in parts])
    return first, le


def expected_checks_run(suite: str, n_max: int) -> int:
    """``checks_run`` the program must report for a suite over n = 2..n_max.

    thm6: three checks per strictly dominated pair with equal first parts.
    kuwong-xi: per n, one agreement and one extremes check per partition plus
    two checks per such pair, and one variant check at n = 2.
    scan: one check per dominated pair with lo_1 >= 2 and hi_1 >= lo_1 + 2.
    """
    total = 0
    for n in range(2, n_max + 1):
        first, less = dominated_pairs(n)
        same = first[:, None] == first[None, :]
        if suite == "thm6":
            total += 3 * int((less & same).sum())
        elif suite == "kuwong-xi":
            total += 2 * partition_count(n) + 2 * int((less & same).sum())
        elif suite == "scan":
            gap = (first[:, None] >= 2) & (first[None, :] >= first[:, None] + 2)
            total += int((less & gap).sum())
        else:
            raise ValueError(f"no count formula for {suite!r}")
    return total + (1 if suite == "kuwong-xi" else 0)


# ---------------------------------------------------------------------------
# output checkers
# ---------------------------------------------------------------------------


def parse_partition(text: str) -> tuple:
    return () if text == "0" else tuple(int(p) for p in text.split("+"))


def parse_table(text: str, fmt: str, family: str, n: int) -> list[tuple]:
    """Rows (partition, eigenvalue, multiplicity) from csv or json output."""
    if fmt == "json":
        payload = json.loads(text)
        if payload.get("family") != family or payload.get("n") != n:
            raise ValueError(f"header names family={payload.get('family')} n={payload.get('n')}")
        return [
            (parse_partition(r["partition"]), int(r["eigenvalue"]), int(r["multiplicity"]))
            for r in payload["rows"]
        ]
    lines = text.splitlines()
    if not lines or lines[0] != "partition,eigenvalue,multiplicity":
        raise ValueError("missing csv header")
    rows = []
    for line in lines[1:]:
        part, val, mult = line.split(",")
        rows.append((parse_partition(part), int(val), int(mult)))
    return rows


def check_table(text: str, fmt: str, family: str, n: int, rng) -> list[str]:
    """Check a ``table`` output against counts, trace identities, the
    Frobenius formula on a seeded sample of rows, and the closed-form rows."""
    try:
        rows = parse_table(text, fmt, family, n)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable {fmt} table: {exc}"]
    problems = []
    if len(rows) != partition_count(n):
        problems.append(f"{len(rows)} rows, expected p({n}) = {partition_count(n)}")
    parts = [lam for lam, _, _ in rows]
    for lam in parts:
        if sum(lam) != n or any(a < b for a, b in zip(lam, lam[1:])) or min(lam, default=0) < 1:
            problems.append(f"row {lam} is not a partition of {n}")
            return problems
    if any(a <= b for a, b in zip(parts, parts[1:])):
        problems.append("rows not in strictly decreasing lexicographic order")

    vertices, degree = family_constants(family, n)
    if sum(m for _, _, m in rows) != vertices:
        problems.append("sum of multiplicities != vertex count")
    if sum(m * v for _, v, m in rows) != 0:
        problems.append("sum m*theta != 0")
    if sum(m * v * v for _, v, m in rows) != vertices * degree:
        problems.append("sum m*theta^2 != vertices * degree")

    for lam, val, mult in rng.sample(rows, min(TABLE_SAMPLE, len(rows))):
        dim = frobenius_dimension(tuple(2 * p for p in lam)) if family == "pm" else frobenius_dimension(lam) ** 2
        if mult != dim:
            problems.append(f"multiplicity of {lam} is {mult}, Frobenius formula gives {dim}")

    by_part = {lam: val for lam, val, _ in rows}
    if by_part.get((n,)) != degree:
        problems.append(f"theta({n}) != degree {degree}")
    if n >= 2 and by_part.get((1,) * n) != (-1) ** (n - 1) * (n - 1):
        problems.append(f"theta(1^{n}) != (-1)^(n-1)(n-1)")
    if family == "sym" and n >= 3 and (n - 1) * by_part.get((n - 1, 1), 0) != -derangements(n):
        problems.append(f"(n-1) xi({n - 1},1) != -D_{n}")
    if n >= 2:
        wrong = [lam for lam, val, _ in rows if val * expected_sign(n, lam) <= 0]
        if wrong:
            problems.append(f"{len(wrong)} rows break the sign pattern, first {wrong[0]}")
    return problems


def check_suite_json(text: str, suite: str, n_max: int, expected_checks: int) -> list[str]:
    """Check a ``verify --format json`` report."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"unparseable report: {exc}"]
    problems = []
    if report.get("suite") != suite:
        problems.append(f"suite {report.get('suite')!r} != {suite!r}")
    if report.get("n_range") != [2, n_max]:
        problems.append(f"n_range {report.get('n_range')} != [2, {n_max}]")
    if report.get("failure_count") != 0 or report.get("failures"):
        problems.append(f"failure_count {report.get('failure_count')}")
    if report.get("checks_run") != expected_checks:
        problems.append(f"checks_run {report.get('checks_run')} != {expected_checks}")
    return problems


def check_scan_text(text: str, n_max: int, expected_checks: int) -> list[str]:
    """Check the one-line summary of a clean ``scan``."""
    want = f"0 violations in {expected_checks} dominated pairs (n <= {n_max})"
    got = text.strip()
    return [] if got == want else [f"scan printed {got[:200]!r}, expected {want!r}"]


def check_oracle_json(text: str, family: str, n: int) -> list[str]:
    """Check an ``oracle --format json`` certificate."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"unparseable report: {exc}"]
    problems = []
    if (report.get("family"), report.get("n")) != (family, n):
        problems.append(f"report is for {report.get('family')} n={report.get('n')}")
    if report.get("spectrum_match") is not True:
        problems.append("spectrum_match is not true")
    checks = report.get("trace_checks") or []
    if not checks or not all(c.get("passed") is True for c in checks):
        problems.append(f"trace checks not all passed: {checks}")
    vertices, degree = family_constants(family, n)
    if report.get("vertex_count") != vertices:
        problems.append(f"vertex_count {report.get('vertex_count')} != {vertices}")
    if report.get("degree_observed") != degree:
        problems.append(f"degree_observed {report.get('degree_observed')} != {degree}")
    return problems


def _fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_query(text: str, family: str, lam: tuple) -> list[str]:
    """Check an ``eta`` or ``xi`` query: the echoed partition, the sign
    pattern, and the closed forms where the shape has one."""
    fields = _fields(text)
    key = "eta" if family == "pm" else "xi"
    try:
        value = int(fields[key])
    except (KeyError, ValueError):
        return [f"no {key} value in output"]
    problems = []
    text_lam = "+".join(map(str, lam))
    if fields.get("partition") != text_lam:
        problems.append(f"partition echoed as {fields.get('partition', '')[:80]!r}")
    n, first, r = sum(lam), lam[0], len(lam)
    if value * expected_sign(n, lam) <= 0:
        problems.append(f"{key} = {value} breaks the sign pattern")
    if family == "pm":
        f = fields.get("f")
        if f != str(expected_sign(n, lam) * value):
            problems.append(f"f = {f} is not the sign-normalized eta")
        if fields.get("sign-pattern") != "ok":
            problems.append("sign-pattern line is not ok")
        if first == 2 and lam.count(2) + lam.count(1) == r:
            a, b = lam.count(2), lam.count(1)
            if abs(value) != a * a + b * (a - 1) + 1:
                problems.append(f"f(2^{a} 1^{b}) != a^2 + b(a-1) + 1")
    if r == 1 and value != family_constants(family, n)[1]:
        problems.append(f"{key}({n}) != the graph degree")
    if first == 1 and value != (-1) ** (n - 1) * (n - 1):
        problems.append(f"{key}(1^{n}) != (-1)^(n-1)(n-1)")
    if family == "sym" and lam == (n - 1, 1) and n >= 3 and (n - 1) * value != -derangements(n):
        problems.append(f"(n-1) xi({n - 1},1) != -D_{n}")
    return problems
