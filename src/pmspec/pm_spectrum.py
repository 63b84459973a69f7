"""Eigenvalues of the perfect matching derangement graph on K_{2n}.

Two fully independent recurrence paths are provided:

* ``eta`` expands on the last part: stripping it and subtracting uniform
  hats yields a signed sum over smaller partitions.
* ``eta_alt`` compares a partition against the one obtained by lowering its
  last part, recursing only through that comparison.

Each path memoizes in its own store (:mod:`pmspec.memo`), so agreement
between them is a genuine cross-check of the code, not a cache readback.
``f_value`` is the sign-normalized quantity (-1)^(n - lambda_1) * eta, which
is nonnegative and vanishes only at the single-box partition (1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memo
from .exact import binomial, irrep_dimension, odd_double_factorial, pm_degree
from .partitions import Partition, enumerate_partitions
from .tables import SpectrumTable


@dataclass(frozen=True)
class EtaValue:
    partition: Partition
    eta: int
    f: int


def _strip_children(lam: Partition) -> list:
    if len(lam) < 2:
        return []
    head = lam.remove_last_part()
    return [head] + [head.subtract_all(j) for j in range(1, lam[-1] + 1)]


def _strip_combine(lam: Partition, values: list) -> int:
    # (-1)^last * eta = eta(head) + sum_j (-1)^(j r) C(last,j) (2j-1)!! eta(head - j)
    if not lam:
        return 1
    if len(lam) == 1:
        return pm_degree(lam[0])
    r = len(lam)
    last = lam[-1]
    rhs = values[0]
    for j in range(1, last + 1):
        rhs += (-1) ** (j * r) * binomial(last, j) * odd_double_factorial(j) * values[j]
    return (-1) ** last * rhs


_eta_strip = memo.Recurrence(_strip_children, _strip_combine)


def eta(lam: Partition) -> EtaValue:
    """Eigenvalue indexed by lam, with its sign-normalized companion."""
    lam = Partition(lam)
    value = _eta_strip(lam)
    n = lam.size
    first = lam[0] if lam else 0
    f = (-1) ** (n - first) * value
    if f < 0 or (f == 0) != (lam == (1,)):
        raise AssertionError(f"sign normalization violated at {lam!r}: eta={value}")
    return EtaValue(partition=lam, eta=value, f=f)


def f_value(lam: Partition) -> int:
    """Sign-normalized eigenvalue (-1)^(n - lambda_1) * eta, read from :func:`eta`.

    f(()) = 1, f((n)) = d_n, and for r >= 2 parts
    f(lam) = f(head) + sum_k C(last, k) (2k-1)!! f(head - k on every part),
    where head drops the last part.
    """
    return eta(lam).f


def _lowering_children(lam: Partition) -> tuple:
    if len(lam) < 2:
        return ()
    if lam[-1] == 1:
        return (lam.remove_last_part(), lam.subtract_all(1))
    lowered = lam.lower_part(len(lam))
    return (lowered, lam.subtract_all(1), lowered.subtract_all(1))


def _lowering_combine(lam: Partition, values: list) -> int:
    if not lam:
        return 1
    if len(lam) == 1:
        return pm_degree(lam[0])
    s = len(lam)
    if lam[-1] == 1:
        # f(lam) - f(lam minus last part) = f(lam - 1 everywhere)
        head, shifted = values
        return -head + (-1) ** (s - 1) * shifted
    lowered, shifted, lowered_shifted = values
    sign = (-1) ** (s + 1)
    c = 2 * lam[-1] - 1
    return -lowered + sign * c * shifted + sign * (c - 1) * lowered_shifted


_eta_alt = memo.Recurrence(_lowering_children, _lowering_combine)


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
    if lam[i - 1] == 1:  # forces i = s
        return -eta_alt(lam.remove_last_part()) + (-1) ** (s - 1) * eta_alt(
            lam.subtract_all(1)
        )
    lowered = lam.lower_part(i)
    sign = (-1) ** (s + 1)
    c = 2 * lam[i - 1] + s - i - 1
    return (
        -eta_alt(lowered)
        + sign * c * eta_alt(lam.subtract_all(1))
        + sign * (c - 1) * eta_alt(lowered.subtract_all(1))
    )


def f_closed_form_2a1b(a: int, b: int) -> int:
    """Closed form of f on the staircase family (2^a, 1^b): a^2 + b(a-1) + 1."""
    if a < 1 or b < 0:
        raise ValueError("need a >= 1, b >= 0")
    return a * a + b * (a - 1) + 1


def pm_spectrum_table(n: int) -> SpectrumTable:
    """Full eigenvalue table of the matching derangement graph on K_{2n}.

    The multiplicity of the row indexed by lam is the hook-length dimension
    of the doubled partition 2*lam; multiplicities total (2n-1)!!.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rows = {}
    for lam in enumerate_partitions(n):
        doubled = Partition._trusted(tuple([2 * p for p in lam]))
        rows[lam] = (eta(lam).eta, irrep_dimension(doubled))
    return SpectrumTable(family="pm", n=n, rows=rows)
