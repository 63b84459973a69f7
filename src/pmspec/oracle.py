"""Brute-force ground truth: build the actual derangement graphs, take their
numeric spectra, and certify the predicted integer tables against them.

Vertices are encoded as incidence vectors (matchings over the edges of
K_{2n}, permutations over position/value cells), so adjacency reduces to a
single Gram-matrix product: two vertices are adjacent iff their incidence
vectors are orthogonal.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .exact import derangement_count, odd_double_factorial, pm_degree
from .tables import SpectrumTable

DEFAULT_CAP = 6
CAP_ENV_VAR = "PMSPEC_ORACLE_CAP"


def oracle_cap() -> int:
    """Size cap for graph construction; override via PMSPEC_ORACLE_CAP."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"bad {CAP_ENV_VAR}={raw!r}") from exc


def physical_memory_bytes() -> int:
    """Physical memory of this machine, as the operating system reports it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _admit(family: str, n: int, cap: int | None) -> None:
    """Refuse a graph above the size cap, or one whose dense float64
    adjacency (V^2 * 8 bytes, as the spectrum solve needs it) would not fit
    in physical memory, whatever the cap allows."""
    cap = oracle_cap() if cap is None else cap
    if not 1 <= n <= cap:
        raise ValueError(f"n={n} outside oracle cap 1..{cap}")
    vertices = odd_double_factorial(n) if family == "pm" else math.factorial(n)
    matrix_bytes = vertices * vertices * 8
    memory = physical_memory_bytes()
    if matrix_bytes > memory:
        raise ValueError(
            f"oracle {family} n={n}: the dense {vertices}x{vertices} matrix needs "
            f"{matrix_bytes / 1e6:.0f} MB, more than the {memory / 1e6:.0f} MB of physical memory"
        )


@dataclass
class Graph:
    family: str  # "pm" or "sym"
    n: int
    labels: list  # vertex descriptions in enumeration order
    adjacency: np.ndarray  # uint8, symmetric, zero diagonal
    degree: int  # observed common degree

    @property
    def vertex_count(self) -> int:
        return self.adjacency.shape[0]


@dataclass
class OracleReport:
    family: str
    n: int
    vertex_count: int
    degree_observed: int
    spectrum_match: bool
    max_abs_residual: float
    trace_checks: list = field(default_factory=list)  # (name, passed)

    @property
    def passed(self) -> bool:
        return self.spectrum_match and all(ok for _, ok in self.trace_checks)

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "n": self.n,
            "vertex_count": self.vertex_count,
            "degree_observed": self.degree_observed,
            "spectrum_match": self.spectrum_match,
            "max_abs_residual": f"{self.max_abs_residual:.3e}",
            "trace_checks": [{"name": name, "passed": ok} for name, ok in self.trace_checks],
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = [
            f"oracle {self.family} n={self.n}: "
            f"{self.vertex_count} vertices, degree {self.degree_observed}",
            f"  spectrum match: {'yes' if self.spectrum_match else 'NO'}"
            f" (max residual {self.max_abs_residual:.3e})",
        ]
        for name, ok in self.trace_checks:
            lines.append(f"  trace {name}: {'pass' if ok else 'FAIL'}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def enumerate_perfect_matchings(n: int, cap: int | None = None) -> list[tuple]:
    """All perfect matchings of K_{2n}, each a tuple of sorted pairs.

    Deterministic order: the smallest uncovered vertex is paired with each
    larger uncovered vertex in turn.  Count is (2n-1)!!.
    """
    cap = oracle_cap() if cap is None else cap
    if not 1 <= n <= cap:
        raise ValueError(f"n={n} outside oracle cap 1..{cap}")

    def rec(verts: tuple) -> list[tuple]:
        if not verts:
            return [()]
        a = verts[0]
        out = []
        for idx in range(1, len(verts)):
            b = verts[idx]
            rest = verts[1:idx] + verts[idx + 1 :]
            out.extend(((a, b),) + m for m in rec(rest))
        return out

    return rec(tuple(range(1, 2 * n + 1)))


def _gram_adjacency(incidence: np.ndarray) -> np.ndarray:
    shared = incidence @ incidence.T
    return (shared == 0).astype(np.uint8)


def _observed_degree(adjacency: np.ndarray, expected: int, what: str) -> int:
    degrees = adjacency.sum(axis=1, dtype=np.int64)
    if not (degrees == expected).all():
        raise RuntimeError(
            f"{what}: observed degrees {sorted(set(degrees.tolist()))} != {expected}"
        )
    return expected


def build_pm_graph(n: int, cap: int | None = None) -> Graph:
    """Graph on the perfect matchings of K_{2n}, adjacent iff edge-disjoint."""
    _admit("pm", n, cap)
    matchings = enumerate_perfect_matchings(n, cap=cap)
    edge_index = {
        pair: k for k, pair in enumerate(itertools.combinations(range(1, 2 * n + 1), 2))
    }
    incidence = np.zeros((len(matchings), len(edge_index)), dtype=np.float32)
    for v, matching in enumerate(matchings):
        for pair in matching:
            incidence[v, edge_index[pair]] = 1.0
    adjacency = _gram_adjacency(incidence)
    degree = _observed_degree(adjacency, pm_degree(n), f"matching graph n={n}")
    return Graph(family="pm", n=n, labels=matchings, adjacency=adjacency, degree=degree)


def build_derangement_graph(n: int, cap: int | None = None) -> Graph:
    """Graph on all permutations of [n], adjacent iff they differ everywhere."""
    _admit("sym", n, cap)
    perms = list(itertools.permutations(range(n)))
    incidence = np.zeros((len(perms), n * n), dtype=np.float32)
    for v, perm in enumerate(perms):
        for pos, val in enumerate(perm):
            incidence[v, pos * n + val] = 1.0
    adjacency = _gram_adjacency(incidence)
    degree = _observed_degree(adjacency, derangement_count(n), f"derangement graph n={n}")
    return Graph(family="sym", n=n, labels=perms, adjacency=adjacency, degree=degree)


def numeric_spectrum(graph_or_matrix) -> np.ndarray:
    """All adjacency eigenvalues, ascending, by dense symmetric decomposition."""
    matrix = getattr(graph_or_matrix, "adjacency", graph_or_matrix)
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=np.float64))


def certify(table: SpectrumTable, graph: Graph, tol_scale: float = 1e-8) -> OracleReport:
    """Match a predicted table against the graph's numeric spectrum.

    Each numeric eigenvalue is assigned to the nearest predicted integer; the
    match succeeds iff every predicted row receives exactly its multiplicity
    and every residual is within tol = tol_scale * max(1, degree).  Trace
    identities are checked purely in integers.  Mismatches are reported, not
    raised.
    """
    if table.n != graph.n:
        raise ValueError(f"table n={table.n} does not match graph n={graph.n}")
    # distinct partitions can share an eigenvalue (e.g. the permutation family
    # at n = 4); merge such rows before matching
    predicted: dict = {}
    for _, (val, mult) in table.rows.items():
        predicted[val] = predicted.get(val, 0) + mult

    tol = tol_scale * max(1, graph.degree)
    values = sorted(predicted)
    if len(values) > 1:
        gap = min(b - a for a, b in zip(values, values[1:]))
        if tol >= gap / 2:
            raise ValueError(f"tolerance {tol} too large for eigenvalue gap {gap}")

    spectrum = numeric_spectrum(graph)
    counts = dict.fromkeys(values, 0)
    max_residual = 0.0
    for x in spectrum:
        nearest = min(values, key=lambda v: abs(x - v))
        counts[nearest] += 1
        max_residual = max(max_residual, abs(x - nearest))

    match = max_residual <= tol and all(counts[v] == predicted[v] for v in values)

    vertex_count = graph.vertex_count
    expected_count = (
        odd_double_factorial(graph.n) if graph.family == "pm" else None
    )
    sum_mult = sum(predicted.values())
    sum_val = sum(v * m for v, m in predicted.items())
    sum_val_sq = sum(v * v * m for v, m in predicted.items())
    trace_checks = [
        ("sum_mult", sum_mult == vertex_count),
        ("sum_val", sum_val == 0),
        ("sum_val_sq", sum_val_sq == vertex_count * graph.degree),
    ]
    if expected_count is not None:
        trace_checks.append(("vertex_count", vertex_count == expected_count))

    return OracleReport(
        family=graph.family,
        n=graph.n,
        vertex_count=vertex_count,
        degree_observed=graph.degree,
        spectrum_match=match,
        max_abs_residual=float(max_residual),
        trace_checks=trace_checks,
    )


def write_edge_list(graph: Graph, stream) -> int:
    """Dump edges as '<u> <v>' lines, 0-based indices; returns edge count."""
    count = 0
    rows, cols = np.nonzero(np.triu(graph.adjacency, k=1))
    for u, v in zip(rows.tolist(), cols.tolist()):
        stream.write(f"{u} {v}\n")
        count += 1
    return count
