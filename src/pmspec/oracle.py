"""Brute-force ground truth: build the actual derangement graphs and certify
the predicted integer tables against them in exact integers.

Vertices are encoded as incidence vectors (matchings over the edges of
K_{2n}, permutations over position/value cells), so adjacency reduces to a
Gram-matrix product: two vertices are adjacent iff their incidence vectors
are orthogonal.  The graph keeps only the V x edges incidence; rows of the
V x V adjacency A are computed on demand, a block of at most 64 rows and
about 2**21 vertex pairs at a time, and no V x V array is ever held.  The
build streams every row once to check every degree; the certificate streams
every row once more and reads each vertex pair there.

Certification never diagonalises A.  Every vertex is labelled by its cell
relative to the base vertex x0 = vertex 0: the coset type of m ∪ x0 for a
matching m, the cycle type of x0^-1 σ for a permutation σ.  The certificate
checks, on the real graph, that

- the cells form an equitable partition with x0 alone in its cell, so
  A P = P B for the cell indicator P and a p(n) x p(n) integer quotient B;
- a transposition and a full cycle of the points act on the vertices as
  automorphisms of A whose orbit of x0 is every vertex;
- charpoly(B) = prod over the table's rows of (x - theta), q(B) = 0 for
  q = prod over the distinct predicted theta of (x - theta), and
  sum m_theta theta^k = V (B^k)[c0, c0] for every k < #distinct theta.

The first two are checked on every vertex pair, in the streamed pass: each
block of rows A[X] adds its counts A[X] P, and for each generator g the
entries A[g(x), g(y)] for x in X and every y must equal A[x, y].  Together
they give q(A) e_x0 = P q(B) e_c0 = 0, hence q(A) = 0 by transitivity, and
tr(A^k) = V (A^k)[x0, x0] = V (B^k)[c0, c0].  So every eigenvalue of A is a
predicted one, and the walk moments fix each multiplicity (a Vandermonde
system), with no float step anywhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .exact import derangement_count, odd_double_factorial, physical_memory_bytes, pm_degree
from .tables import SpectrumTable


# rows and vertex pairs per row block: one block's float32 Gram product and
# the uint8 rows made from it take 5 bytes per pair, 1.6 MB at sym n=7 (5,040
# vertices) and about 10 MB at most, while 64 rows per Gram product still
# amortise reading the whole incidence (128 rows measured no faster)
_BLOCK_ROWS = 64
_BLOCK_PAIRS = 2**21

# bytes per vertex pair that a block holds at its peak, with room to spare:
# the uint8 rows, then either the float32 copy the count product reads or a
# moved block's float32 Gram product, its rows and their comparison
_BLOCK_BYTES_PER_PAIR = 12

# bytes per vertex beside its float32 incidence row: the label tuples, the
# int8 point rows and the arrays computed from them, and the per-vertex
# arrays (cells, count rows, moves).  Measured as the growth of the oracle
# command's peak RSS, with one row block of 2**21 vertex pairs streamed at
# either size: 849 bytes from pm n=6 to n=7, and 401 from sym n=7 to n=8 but
# 666 from n=8 to n=9, whose count rows have 30 cells, not 22.  Rounded up
# from the largest, since labels and cells grow with n
_BYTES_PER_VERTEX = {"pm": 960, "sym": 700}


def _block_rows(vertex_count: int) -> int:
    return max(1, min(_BLOCK_ROWS, _BLOCK_PAIRS // vertex_count))


def _blocks(vertex_count: int):
    """Consecutive vertex index ranges of at most _BLOCK_ROWS rows and about
    _BLOCK_PAIRS vertex pairs each (one row at least), covering every vertex
    once."""
    step = _block_rows(vertex_count)
    for start in range(0, vertex_count, step):
        yield np.arange(start, min(start + step, vertex_count))


def _admit(family: str, n: int) -> None:
    """Refuse n < 1, and any graph whose build and certificate would not fit
    in physical memory."""
    if n < 1:
        raise ValueError(f"oracle {family} needs n >= 1, got n={n}")
    # memory grows with the vertex count, not with its square: every vertex
    # costs its incidence row (4 bytes per entry, read in place by every Gram
    # product) and its per-vertex bytes, and one row block is alive at a
    # time.  The vertex count (2n-1)!! or n! grows factor by factor, and the
    # check stops at the first factor that overflows memory, so a huge n
    # costs no more than a small one.
    width = n * (2 * n - 1) if family == "pm" else n * n
    per_vertex = _BYTES_PER_VERTEX[family] + 4 * width
    memory = physical_memory_bytes()
    vertices = 1
    for k in range(1, n + 1):
        vertices *= 2 * k - 1 if family == "pm" else k
        block_pairs = min(vertices, _block_rows(vertices)) * vertices
        needed = per_vertex * vertices + _BLOCK_BYTES_PER_PAIR * block_pairs
        if needed > memory:
            raise ValueError(
                f"oracle {family} n={n}: the graph has at least {vertices} vertices, "
                f"which need about {needed / 1e6:.0f} MB, more than the "
                f"{memory / 1e6:.0f} MB of physical memory"
            )


@dataclass
class Graph:
    family: str  # "pm" or "sym"
    n: int
    labels: list  # vertex descriptions in enumeration order
    incidence: np.ndarray  # float32 0/1, one row per vertex: its edges or its position/value cells
    degree: int  # common degree, checked on every row by the build

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def rows(self, index: np.ndarray) -> np.ndarray:
        """Adjacency rows A[index] as uint8: two vertices are adjacent iff
        their incidence rows share no 1.  They are computed as the columns
        A[:, index] of the symmetric Gram product, which runs faster this
        way round, and so lie in memory column by column."""
        return (self.incidence @ self.incidence[index].T == 0).view(np.uint8).T


@dataclass
class OracleReport:
    family: str
    n: int
    vertex_count: int
    degree_observed: int
    quotient_size: int
    quotient_checks: list  # (name, passed), the equitable-quotient certificate
    trace_checks: list = field(default_factory=list)  # (name, passed)

    @property
    def spectrum_match(self) -> bool:
        return all(ok for _, ok in self.quotient_checks)

    @property
    def passed(self) -> bool:
        return self.spectrum_match and all(ok for _, ok in self.trace_checks)

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "n": self.n,
            "method": "quotient",
            "vertex_count": self.vertex_count,
            "degree_observed": self.degree_observed,
            "quotient_size": self.quotient_size,
            "spectrum_match": self.spectrum_match,
            "quotient_checks": [{"name": name, "passed": ok} for name, ok in self.quotient_checks],
            "trace_checks": [{"name": name, "passed": ok} for name, ok in self.trace_checks],
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = [
            f"oracle {self.family} n={self.n}: "
            f"{self.vertex_count} vertices, degree {self.degree_observed}",
            f"  method: quotient ({self.quotient_size} cells)",
            f"  spectrum match: {'yes' if self.spectrum_match else 'NO'}",
        ]
        for name, ok in self.quotient_checks:
            lines.append(f"  quotient {name}: {'pass' if ok else 'FAIL'}")
        for name, ok in self.trace_checks:
            lines.append(f"  trace {name}: {'pass' if ok else 'FAIL'}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def enumerate_perfect_matchings(n: int) -> list[tuple]:
    """All perfect matchings of K_{2n}, each a tuple of sorted pairs.

    Deterministic order: the smallest uncovered vertex is paired with each
    larger uncovered vertex in turn.  Count is (2n-1)!!.  Refuses n < 1 and
    any n whose matching graph would not fit in physical memory.
    """
    _admit("pm", n)

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


def _check_degree(graph: Graph, what: str) -> Graph:
    """Stream every row of the graph; each must have `graph.degree` ones."""
    observed = set()
    for block in _blocks(graph.vertex_count):
        # a degree is below V, far below 2**31 for any graph that fits in memory
        observed.update(graph.rows(block).sum(axis=1, dtype=np.int32).tolist())
    if observed - {graph.degree}:
        raise RuntimeError(f"{what}: observed degrees {sorted(observed)} != {graph.degree}")
    return graph


def _points(family: str, labels: list) -> np.ndarray:
    """The vertex labels as one int8 row each: a permutation's values
    (V x n), or a matching's partner of each point, the points numbered from
    0 (V x 2n).  int8 holds the points of every graph that fits in memory."""
    flat = itertools.chain.from_iterable(labels)
    if family == "pm":
        flat = itertools.chain.from_iterable(flat)
    array = np.fromiter(flat, dtype=np.int8).reshape(len(labels), -1)
    if family == "sym":
        return array
    partner = np.empty_like(array)
    rows = np.arange(len(labels))[:, None]
    partner[rows, array[:, 0::2] - 1] = array[:, 1::2] - 1
    partner[rows, array[:, 1::2] - 1] = array[:, 0::2] - 1
    return partner


def build_pm_graph(n: int) -> Graph:
    """Graph on the perfect matchings of K_{2n}, adjacent iff edge-disjoint."""
    matchings = enumerate_perfect_matchings(n)  # refuses what would not fit
    # edge {a, b} of K_{2n} is column edge[a, b] = edge[b, a], in the order
    # of itertools.combinations; each matching sets its edges from both ends
    edge = np.zeros((2 * n, 2 * n), dtype=np.intp)
    upper = np.triu_indices(2 * n, 1)
    edge[upper] = edge.T[upper] = np.arange(len(upper[0]))
    incidence = np.zeros((len(matchings), len(upper[0])), dtype=np.float32)
    partner = _points("pm", matchings)
    incidence[np.arange(len(matchings))[:, None], edge[np.arange(2 * n), partner]] = 1.0
    graph = Graph(family="pm", n=n, labels=matchings, incidence=incidence, degree=pm_degree(n))
    return _check_degree(graph, f"matching graph n={n}")


def build_derangement_graph(n: int) -> Graph:
    """Graph on all permutations of [n], adjacent iff they differ everywhere."""
    _admit("sym", n)
    perms = list(itertools.permutations(range(n)))
    incidence = np.zeros((len(perms), n * n), dtype=np.float32)
    incidence[np.arange(len(perms))[:, None], n * np.arange(n) + _points("sym", perms)] = 1.0
    graph = Graph(family="sym", n=n, labels=perms, incidence=incidence, degree=derangement_count(n))
    return _check_degree(graph, f"derangement graph n={n}")


def numeric_spectrum(graph: Graph) -> np.ndarray:
    """All adjacency eigenvalues, ascending, by dense symmetric decomposition.

    A small-n cross-check only: it holds the whole V x V matrix, which
    nothing else in this module does.
    """
    adjacency = graph.rows(np.arange(graph.vertex_count))
    return np.linalg.eigvalsh(adjacency.astype(np.float64))


# ---------------------------------------------------------------------------
# exact integer polynomials and matrices
# ---------------------------------------------------------------------------


def charpoly(matrix: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - M), highest degree first, by Berkowitz's
    division-free algorithm in Python integers.

    Splitting M = [[a, R], [C, S]], charpoly(M) is the lower-triangular
    Toeplitz matrix with first column (1, -a, -RC, -RSC, -RS^2C, ...) applied
    to charpoly(S); the loop runs this from the bottom-right corner out.
    """
    size = len(matrix)
    poly = [1]
    for k in range(size - 1, -1, -1):
        row = matrix[k][k + 1 :]
        sub = [r[k + 1 :] for r in matrix[k + 1 :]]
        column = [r[k] for r in matrix[k + 1 :]]
        toeplitz = [1, -matrix[k][k]]
        for _ in range(size - k - 1):
            toeplitz.append(-sum(a * b for a, b in zip(row, column)))
            column = [sum(a * b for a, b in zip(r, column)) for r in sub]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(min(i, len(poly) - 1) + 1))
            for i in range(len(poly) + 1)
        ]
    return poly


def _poly_from_roots(roots) -> list[int]:
    """Coefficients of prod (x - r), highest degree first."""
    poly = [1]
    for r in roots:
        poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------------------
# the equitable partition around x0 and the group acting on the vertices
# ---------------------------------------------------------------------------


def _cells(family: str, points: np.ndarray) -> np.ndarray:
    """Each vertex's cell relative to x0 = vertex 0, as ids 0, 1, ...: the
    cycle type of x0^-1 σ for a permutation σ, the coset type of m ∪ x0 for
    a matching m.  A component of m ∪ x0 on 2k points splits into two
    k-cycles of x0∘m, so the coset type halves the cycle counts of x0∘m."""
    x0 = points[0]
    if family == "sym":
        inverse = np.empty_like(x0)
        inverse[x0] = np.arange(len(x0))
        step, per_part = inverse[points], 1
    else:
        step, per_part = x0[points], 2
    # each point's cycle length: the least k with step^k fixing it
    length = np.zeros_like(step)
    image, identity = step, np.arange(step.shape[1])
    for k in range(1, step.shape[1] + 1):
        length[(image == identity) & (length == 0)] = k
        image = np.take_along_axis(step, image, axis=1)
    # the type as one integer: its number of parts k is a digit of radix n // k + 1
    n = step.shape[1] // per_part
    key = np.zeros(len(points), dtype=np.int64)
    for k in range(1, n + 1):
        key = key * (n // k + 1) + (length == k).sum(axis=1) // (k * per_part)
    return np.unique(key, return_inverse=True)[1]


def _vertex_permutations(family: str, points: np.ndarray) -> list[np.ndarray]:
    """How a transposition and a full cycle of the points move the vertices:
    left multiplication on the values 0..n-1 of a permutation, relabelling
    of the points of a matching.  The two generate the symmetric group.
    A vertex whose image is not on the vertex list maps to -1, and one whose
    image labels several vertices maps to the last of them."""
    width = points.shape[1]

    def keys(rows):
        # a permutation by its values, a matching by the partner of each
        # point that precedes its partner: n digits of base n or 2n, which
        # fit int64 up to sym n=15 and pm n=13, far past any graph that fits
        # in memory
        if family == "pm":
            rows = rows[rows > np.arange(width)].reshape(len(rows), -1)
        return rows @ width ** np.arange(rows.shape[1] - 1, -1, -1)

    own = keys(points)
    order = np.argsort(own, kind="stable")  # equal labels by ascending index
    ordered = own[order]
    identity = np.arange(width)
    swap = np.concatenate([identity[1::-1], identity[2:]])
    shift = np.roll(identity, -1)
    moves = []
    for g in (swap, shift):
        if family == "sym":
            image = g[points]
        else:
            image = np.empty_like(points)
            image[:, g] = g[points]
        wanted = keys(image)
        at = np.searchsorted(ordered, wanted, side="right") - 1
        moves.append(np.where(ordered[at] == wanted, order[at], -1))
    return moves


def _stream(graph: Graph, cell_of: np.ndarray, cell_count: int, moves: list[np.ndarray]):
    """One pass over the row blocks: every vertex's edge counts into each
    cell, and whether each move permutes the vertices and preserves every
    adjacency row, hence every vertex pair."""
    vertex_count = graph.vertex_count
    # a count is at most V, and float32 holds every integer up to 2**24
    dtype = np.float32 if vertex_count <= 2**24 else np.float64
    onehot = np.zeros((vertex_count, cell_count), dtype=dtype)
    onehot[np.arange(vertex_count), cell_of] = 1
    counts = np.empty((vertex_count, cell_count), dtype=dtype)
    preserved = [np.array_equal(np.sort(move), np.arange(vertex_count)) for move in moves]
    for block in _blocks(vertex_count):
        rows = graph.rows(block)
        counts[block] = rows.astype(dtype) @ onehot
        for k, move in enumerate(moves):
            if preserved[k]:
                # the rows lie column by column, so each of their columns is
                # gathered as one run of bytes, a row of their transpose
                moved = np.take(graph.rows(move[block]).T, move, axis=0).T
                preserved[k] = np.array_equal(moved, rows)
    return counts.astype(np.int64), all(preserved)


def _orbit_size(moves: list[np.ndarray], vertex_count: int) -> int:
    """Size of the orbit of vertex 0 under the group the moves generate."""
    reached = np.zeros(vertex_count, dtype=bool)
    reached[0] = True
    frontier = np.array([0])
    while frontier.size:
        images = np.concatenate([move[frontier] for move in moves])
        fresh = np.zeros(vertex_count, dtype=bool)
        fresh[images[images >= 0]] = True
        fresh &= ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
    return int(reached.sum())


def certify(table: SpectrumTable, graph: Graph) -> OracleReport:
    """Certify a predicted table against the graph in exact integers.

    The quotient checks (see the module docstring) establish that the
    graph's spectrum, with multiplicities, is exactly the table's; the trace
    identities are checked separately.  Mismatches are reported, not raised.
    """
    if table.n != graph.n:
        raise ValueError(f"table n={table.n} does not match graph n={graph.n}")
    # distinct partitions can share an eigenvalue (e.g. the permutation family
    # at n = 4); merge such rows for the multiplicity checks
    predicted: dict = {}
    for val, mult in zip(table.values, table.multiplicities):
        predicted[val] = predicted.get(val, 0) + mult

    vertex_count = graph.vertex_count
    points = _points(graph.family, graph.labels)
    cell_of = _cells(graph.family, points)
    cell_count = int(cell_of.max()) + 1
    moves = _vertex_permutations(graph.family, points)
    counts, automorphisms = _stream(graph, cell_of, cell_count, moves)
    # B is the count row of each cell's first vertex; the partition is
    # equitable iff every vertex's count row is its cell's row of B
    quotient = counts[np.unique(cell_of, return_index=True)[1]]
    equitable = bool((counts == quotient[cell_of]).all())
    quotient = quotient.tolist()
    base = int(cell_of[0])

    annihilator = [[int(i == j) for j in range(cell_count)] for i in range(cell_count)]
    for theta in predicted:
        shifted = [
            [b - theta * (i == j) for j, b in enumerate(row)] for i, row in enumerate(quotient)
        ]
        annihilator = _matmul(annihilator, shifted)
    closed_walks = []
    walk = [int(c == base) for c in range(cell_count)]  # row c0 of B^k
    for _ in range(len(predicted)):
        closed_walks.append(walk[base])
        walk = [sum(w * row[j] for w, row in zip(walk, quotient)) for j in range(cell_count)]

    quotient_checks = [
        ("equitable", equitable),
        ("base_alone", int((cell_of == base).sum()) == 1),
        ("automorphisms", automorphisms),
        ("orbit", _orbit_size(moves, vertex_count) == vertex_count),
        ("charpoly", charpoly(quotient) == _poly_from_roots(table.eigenvalues())),
        ("annihilator", not any(any(row) for row in annihilator)),
        (
            "walk_moments",
            all(
                sum(m * theta**k for theta, m in predicted.items()) == vertex_count * walks
                for k, walks in enumerate(closed_walks)
            ),
        ),
    ]

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
        quotient_size=cell_count,
        quotient_checks=quotient_checks,
        trace_checks=trace_checks,
    )

