"""Brute-force ground truth: build the actual derangement graphs and certify
the predicted integer tables against them in exact integers.

Every vertex holds n columns, its support: the edges of K_{2n} of a
matching, the cells n*position + value of a permutation.  Two vertices are
adjacent iff their supports are disjoint.  A layout gives each vertex a bit
position, and each column a holder set: one Python int whose bit at a
vertex's position is set iff that vertex holds the column.  A vertex's
non-neighbours are the OR of its n holder sets, so one adjacency row costs
n ORs on V-bit ints, and no V x V array is ever held.  The build reads no
row: the certificate is the graph's one reader, and it reads every row once
in each layout it needs, the cells' and one per generator.

A vertex is held in compact form: its support as n bytes, one a column; its
label as a matching's tuple of pairs, each pair one tuple that every
matching holding it shares, or as the n bytes of a permutation; and its cell
id, its image under each generator and its bit in each layout as entries of
4-byte int arrays.  So no graph with more than 256 columns, or with 2^31
vertices or more, is built.

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

The first two are checked on every vertex pair, in one streamed pass over a
layout that numbers the vertices cell by cell, each cell padded to whole
bytes, so that a row's count into a cell is the popcount of one byte slice
of it.  B is read off the first vertex of each cell, and every vertex's
counts must equal its cell's row of B.  For each generator g, the row of
g(x) read through holder sets laid out by g (vertex g(y) at the bit of y)
must equal the row of x: that is A[g(x), g(y)] = A[x, y] for every y.
Together they give q(A) e_x0 = P q(B) e_c0 = 0, hence q(A) = 0 by
transitivity, and tr(A^k) = V (A^k)[x0, x0] = V (B^k)[c0, c0].  So every
eigenvalue of A is a predicted one, and the walk moments fix each
multiplicity (a Vandermonde system), with no float step anywhere.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import reduce
from operator import add, mul, or_
from typing import NamedTuple, Sequence

from .exact import LEDGER, admit, odd_double_factorial
from .tables import SpectrumTable


# layouts the certificate holds at once: the cells' and one per generator
_LAYOUTS = 3


def _width(family: str, n: int) -> int:
    """The number of columns: edges of K_{2n}, or position/value cells."""
    return n * (2 * n - 1) if family == "pm" else n * n


def _graph_needs(family: str, n: int):
    """The bytes the build and certificate of a graph hold, for :func:`admit`:
    the ledger's rate for every vertex (its label, support, cell id and moves)
    and one bit per vertex for each column in each layout, V = (2n-1)!! or n!
    counted factor by factor.  For a huge n the columns alone overflow at the
    first factor, so the refusal names their count as well as the vertices."""
    width = _width(family, n)
    factors = (2 * k - 1 if family == "pm" else k for k in range(1, n + 1))
    for vertices in itertools.accumulate(factors, mul):
        yield (
            LEDGER[f"oracle {family}"] * vertices + _LAYOUTS * width * ((vertices + 7) // 8),
            f"oracle {family} n={n}: the graph has {width} columns and at least {vertices} vertices, which need",
        )


def _admit(family: str, n: int) -> None:
    """Refuse n < 1, any graph whose build and certificate would not fit in
    memory, and any whose vertices would not fit their compact form: a
    column in one byte, a vertex id in a 4-byte int."""
    if n < 1:
        raise ValueError(f"oracle {family} needs n >= 1, got n={n}")
    admit(_graph_needs(family, n))
    width = _width(family, n)
    if width > 256:
        raise ValueError(f"oracle {family} n={n}: the graph has {width} columns, past the 256 a byte numbers")
    vertices = odd_double_factorial(n) if family == "pm" else math.factorial(n)
    if vertices >= 2**31:
        raise ValueError(
            f"oracle {family} n={n}: the graph has {vertices} vertices, which need ids past {2**31 - 1},"
            " the largest 4-byte int"
        )


class Layout(NamedTuple):
    position: Sequence[int]  # vertex -> its bit
    holders: list  # column -> int with the bits of the vertices that hold it


class Graph:
    """A derangement graph: its vertices' labels and supports.  A vertex's
    support is the bytes of its n columns, and its label is a matching's
    tuple of shared pairs or a permutation's bytes.  Its rows are read only
    through a layout, once per layout by the certificate."""

    def __init__(self, family: str, n: int, labels: list, support: list):
        self.family = family  # "pm" or "sym"
        self.n = n
        self.labels = labels  # vertex descriptions in enumeration order
        self.support = support  # per vertex, the bytes of the n columns it holds

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def non_neighbours(self, x: int, layout: Layout) -> int:
        """The complement of adjacency row A[x] in `layout`: the bit of vertex
        y is set iff x and y hold a column in common (so x's own bit is set).
        No padding bit is ever set."""
        holders = layout.holders
        return reduce(or_, map(holders.__getitem__, self.support[x]))


def _layout(graph: Graph, position: Sequence[int]) -> Layout:
    """Every column's holder set, with vertex y at bit position[y]."""
    size = max(position) // 8 + 1
    holders = [bytearray(size) for _ in range(_width(graph.family, graph.n))]
    for p, columns in zip(position, graph.support):
        byte, bit = p >> 3, 1 << (p & 7)
        for c in columns:
            holders[c][byte] |= bit
    for c, plane in enumerate(holders):
        holders[c] = int.from_bytes(plane, "little")
    return Layout(position, holders)


class OracleReport(NamedTuple):
    family: str
    n: int
    vertex_count: int
    degree_observed: int
    quotient_size: int
    quotient_checks: list  # (name, passed), the equitable-quotient certificate
    trace_checks: list  # (name, passed)

    @property
    def spectrum_match(self) -> bool:
        return all(ok for _, ok in self.quotient_checks)

    @property
    def passed(self) -> bool:
        return self.spectrum_match and all(ok for _, ok in self.trace_checks)

    def to_json(self) -> str:
        import json

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
    # one tuple per edge, shared by every matching that contains it
    pairs = {pair: pair for pair in itertools.combinations(range(1, 2 * n + 1), 2)}

    def rec(verts: tuple) -> list[tuple]:
        if not verts:
            return [()]
        a = verts[0]
        out = []
        for idx in range(1, len(verts)):
            pair = (pairs[a, verts[idx]],)
            rest = verts[1:idx] + verts[idx + 1 :]
            out.extend(pair + m for m in rec(rest))
        return out

    return rec(tuple(range(1, 2 * n + 1)))


def build_pm_graph(n: int) -> Graph:
    """Graph on the perfect matchings of K_{2n}, adjacent iff edge-disjoint."""
    matchings = enumerate_perfect_matchings(n)  # refuses what would not fit
    edge = {pair: c for c, pair in enumerate(itertools.combinations(range(1, 2 * n + 1), 2))}
    support = [bytes(map(edge.__getitem__, m)) for m in matchings]
    return Graph("pm", n, matchings, support)


def build_derangement_graph(n: int) -> Graph:
    """Graph on all permutations of [n], each the bytes of its values 0..n-1,
    adjacent iff they differ everywhere."""
    _admit("sym", n)
    perms = list(map(bytes, itertools.permutations(range(n))))
    offsets = range(0, n * n, n)
    support = [bytes(map(add, offsets, perm)) for perm in perms]
    return Graph("sym", n, perms, support)


def numeric_spectrum(graph: Graph):
    """All adjacency eigenvalues, ascending, by dense symmetric decomposition.

    A small-n cross-check only: it holds the whole V x V matrix, which
    nothing else in this module does, and it alone needs numpy.
    """
    import numpy as np

    every = range(graph.vertex_count)
    layout = _layout(graph, every)
    shared = [[graph.non_neighbours(x, layout) >> y & 1 for y in every] for x in every]
    return np.linalg.eigvalsh(1.0 - np.array(shared, dtype=np.float64))


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


def _partner(matching: tuple) -> list[int]:
    """Each point's partner in the matching, the points numbered from 0."""
    out = [0] * (2 * len(matching))
    for a, b in matching:
        out[a - 1], out[b - 1] = b - 1, a - 1
    return out


def _cycle_type(step: list[int]) -> tuple:
    """Cycle lengths of the permutation `step` of 0..len-1, ascending."""
    seen = [False] * len(step)
    lengths = []
    for start in range(len(step)):
        length, point = 0, start
        while not seen[point]:
            seen[point] = True
            point = step[point]
            length += 1
        if length:
            lengths.append(length)
    lengths.sort()
    return tuple(lengths)


def _cells(family: str, labels: list) -> array:
    """Each vertex's cell relative to x0 = vertex 0, as an int array of ids
    0, 1, ... in order of first appearance, so x0's cell is 0: the cycle
    type of x0^-1 σ for a permutation σ, the coset type of m ∪ x0 for a
    matching m.  A component of m ∪ x0 on 2k points is two k-cycles of
    x0∘m, so the cycle type of x0∘m names the coset type."""
    if family == "sym":
        # x0^-1 as a translation table of the byte values
        inverse = bytearray(256)
        for position, value in enumerate(labels[0]):
            inverse[value] = position
        steps = map(bytes.translate, labels, itertools.repeat(bytes(inverse)))
    else:
        x0 = _partner(labels[0])
        steps = ([x0[q] for q in _partner(m)] for m in labels)
    ids: dict = {}
    return array("i", (ids.setdefault(_cycle_type(step), len(ids)) for step in steps))


def _vertex_permutations(family: str, labels: list) -> list[array]:
    """How a transposition and a full cycle of the points move the vertices,
    each an int array from vertex to image: left multiplication on the
    values 0..n-1 of a permutation, relabelling of the points 1..2n of a
    matching.  The two generate the symmetric group.  A vertex whose image
    is not on the vertex list maps to -1, and one whose image labels several
    vertices maps to the last of them."""
    index = {label: v for v, label in enumerate(labels)}
    if family == "sym":
        points = list(range(len(labels[0])))
    else:
        points = list(range(1, 2 * len(labels[0]) + 1))
    swap = dict(zip(points, points[1::-1] + points[2:]))
    shift = dict(zip(points, points[1:] + points[:1]))

    def images(g):
        if family == "sym":
            # g as a translation table of the byte values
            return map(bytes.translate, labels, itertools.repeat(bytes(map(g.get, range(256), range(256)))))
        pair = {(a, b): tuple(sorted((g[a], g[b]))) for a, b in itertools.permutations(points, 2)}
        return (tuple(sorted(map(pair.__getitem__, m))) for m in labels)

    return [array("i", map(index.get, images(g), itertools.repeat(-1))) for g in (swap, shift)]


def _cell_positions(cell_of: Sequence[int], cell_count: int):
    """Bit positions, an int array, that number the vertices cell by cell in
    vertex order, each cell from a whole byte on; and each cell's size and
    slice of bytes."""
    sizes = [0] * cell_count
    for c in cell_of:
        sizes[c] += 1
    starts = list(itertools.accumulate(((size + 7) // 8 for size in sizes), initial=0))
    next_bit = [8 * start for start in starts]
    position = array("i")
    for c in cell_of:
        position.append(next_bit[c])
        next_bit[c] += 1
    return position, sizes, list(map(slice, starts, starts[1:]))


def _counts(bits: int, slices: list) -> list[int]:
    """The number of set bits in each slice of bytes."""
    data = bits.to_bytes(slices[-1].stop, "little")
    parts = map(int.from_bytes, map(data.__getitem__, slices), itertools.repeat("little"))
    return list(map(int.bit_count, parts))


def _moved_position(move: array, position: array):
    """The bit of y for vertex move[y], or None if the move does not permute
    the vertices: it maps a vertex to -1, or two vertices to one and so
    leaves some vertex's entry at -1."""
    if -1 in move:
        return None
    moved = array("i", [-1]) * len(move)
    for image, p in zip(move, position):
        moved[image] = p
    return None if -1 in moved else moved


def _stream(graph: Graph, cell_of: array, cell_count: int, moves: list[array]):
    """The quotient B, read off the first vertex of each cell, then one pass
    over every vertex: whether its counts into the cells are its cell's row
    of B, and whether each move permutes the vertices and preserves its
    adjacency row, hence every vertex pair."""
    vertex_count = graph.vertex_count
    position, sizes, slices = _cell_positions(cell_of, cell_count)
    layout = _layout(graph, position)
    # non-neighbours per cell; a vertex's edges into a cell are the rest of it
    shared = [
        _counts(graph.non_neighbours(cell_of.index(c), layout), slices) for c in range(cell_count)
    ]
    moved_positions = [_moved_position(move, position) for move in moves]
    automorphisms = None not in moved_positions
    moved = [(move, _layout(graph, p)) for move, p in zip(moves, moved_positions)] if automorphisms else []
    equitable = True
    for x in range(vertex_count):
        row = graph.non_neighbours(x, layout)
        equitable = equitable and _counts(row, slices) == shared[cell_of[x]]
        for move, moved_layout in moved:
            automorphisms = automorphisms and graph.non_neighbours(move[x], moved_layout) == row
    quotient = [[size - k for size, k in zip(sizes, counts)] for counts in shared]
    return quotient, equitable, automorphisms


def _orbit_size(moves: list[array], vertex_count: int) -> int:
    """Size of the orbit of vertex 0 under the group the moves generate."""
    reached = [False] * vertex_count
    reached[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        for move in moves:
            y = move[x]
            if y >= 0 and not reached[y]:
                reached[y] = True
                stack.append(y)
    return sum(reached)


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
    cell_of = _cells(graph.family, graph.labels)
    cell_count = max(cell_of) + 1
    moves = _vertex_permutations(graph.family, graph.labels)
    quotient, equitable, automorphisms = _stream(graph, cell_of, cell_count, moves)
    base = cell_of[0]
    # x0's degree; the checks below make every vertex's the same
    degree = sum(quotient[base])

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
        ("base_alone", cell_of.count(base) == 1),
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

    sum_mult = sum(predicted.values())
    sum_val = sum(v * m for v, m in predicted.items())
    sum_val_sq = sum(v * v * m for v, m in predicted.items())
    trace_checks = [
        ("sum_mult", sum_mult == vertex_count),
        ("sum_val", sum_val == 0),
        ("sum_val_sq", sum_val_sq == vertex_count * degree),
    ]
    if graph.family == "pm":
        trace_checks.append(("vertex_count", vertex_count == odd_double_factorial(graph.n)))

    return OracleReport(
        family=graph.family,
        n=graph.n,
        vertex_count=vertex_count,
        degree_observed=degree,
        quotient_size=cell_count,
        quotient_checks=quotient_checks,
        trace_checks=trace_checks,
    )
