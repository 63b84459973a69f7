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

Certification never diagonalises A.  The cells around the base vertex
x0 = vertex 0 are the orbits of the stabiliser of x0 in the symmetric group
of the points: the coset type of m ∪ x0 for a matching m, the cycle type of
σ x0^-1 for a permutation σ (Godsil and Meagher 2016, chs. 14-15).  The
certificate checks, on the real graph, that

- a transposition and a full cycle of the points act on the vertices as
  automorphisms of A whose orbit of x0 is every vertex;
- the cells form an equitable partition with x0 alone in its cell, so
  A P = P B for the cell indicator P and a p(n) x p(n) integer quotient B;
- charpoly(B) = prod over the table's rows of (x - theta), q(B) = 0 for
  q = prod over the distinct predicted theta of (x - theta), and
  sum m_theta theta^k = V (B^k)[c0, c0] for every k < #distinct theta.

The automorphisms are checked on every vertex pair, in one streamed pass
over a layout that numbers the vertices cell by cell, each cell padded to
whole bytes.  For each generator g, the row of g(x) read through holder sets
laid out by g (vertex g(y) at the bit of y) must equal the row of x: that is
A[g(x), g(y)] = A[x, y] for every y.  The same pass reads B off the first
vertex of each cell, whose count into a cell is the popcount of one byte
slice of its row: p(n) rows are counted, not V.

Equitability is derived from that symmetry, not counted.  The cells are the
orbits of two or three vertex maps built from x0's label that fix x0:

- pm.  For x0's pairs {a1,b1}, {a2,b2}, ...: swap a1 and b1; swap the first
  two pairs; shift the pairs cyclically.  The two moves, the transposition
  and the full cycle, preserve every row and permute the vertices, so the
  labels are distinct and every relabelling of the 2n points acts as a
  product of the two moves.  So these maps are automorphisms that fix x0.
  Each cell is one of their orbits, and the orbits of a group of
  automorphisms form an equitable partition.
- sym.  The maps conjugate relative to x0, σ ↦ hσx0⁻¹h⁻¹x0, by the
  transposition and by the n-cycle h.  Left multiplication is checked on
  every row and is transitive, so N(g·x0) = g·N(x0), and conjugation sends
  g·x0 to (hgh⁻¹)·x0.  Conjugation is therefore an automorphism iff it maps
  N(x0) onto itself, which it does iff x0's row is a union of its orbits.

So `equitable` passes iff the automorphisms pass, no stabiliser map sends a
vertex off the vertex list, every one fixes vertex 0, and x0's row meets
each cell wholly or not at all.  Together the checks give
q(A) e_x0 = P q(B) e_c0 = 0, hence q(A) = 0 by transitivity, and
tr(A^k) = V (A^k)[x0, x0] = V (B^k)[c0, c0].  So every eigenvalue of A is a
predicted one, and the walk moments fix each multiplicity (a Vandermonde
system), with no float step anywhere.
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
            toeplitz.append(-sum(map(mul, row, column)))
            column = [sum(map(mul, r, column)) for r in sub]
        poly = [sum(map(mul, toeplitz[i::-1], poly)) for i in range(len(poly) + 1)]
    return poly


def _poly_from_roots(roots) -> list[int]:
    """Coefficients of prod (x - r), highest degree first."""
    poly = [1]
    for r in roots:
        poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


# ---------------------------------------------------------------------------
# the equitable partition around x0 and the group acting on the vertices
# ---------------------------------------------------------------------------


def _generators(points: list) -> list[list]:
    """A transposition and a full cycle of the points, each as the list of
    the points' images."""
    return [points[1::-1] + points[2:], points[1:] + points[:1]]


def _relabelled(labels: list, g: dict):
    """Each matching with every point p relabelled g[p], again a sorted tuple
    of sorted pairs."""
    pair = {(a, b): tuple(sorted((g[a], g[b]))) for a, b in itertools.permutations(g, 2)}
    return (tuple(sorted(map(pair.__getitem__, m))) for m in labels)


def _composed(labels: list, g: list, r):
    """Each permutation σ as g∘σ, its values mapped by g, or as g∘σ∘r, g∘σ
    read at the positions r: the bytes of r translated by g∘σ's values."""
    values = map(bytes.translate, labels, itertools.repeat(bytes(g) + bytes(range(len(g), 256))))
    if r is None:
        return values
    return map(bytes.translate, itertools.repeat(bytes(r)), map(bytes.ljust, values, itertools.repeat(256)))


def _vertex_maps(family: str, labels: list, maps: list) -> list[array]:
    """How each map moves the vertices, as an int array from vertex to the
    vertex its image labels.  A map of a matching's points, a dict from
    point to point, relabels them; a map (g, r) of a permutation σ takes it
    to g∘σ∘r, or to g∘σ if r is None.  An image that is not on the vertex
    list maps to -1, and one that labels several vertices maps to the last
    of them."""
    if family == "pm":
        images = [_relabelled(labels, g) for g in maps]
    else:
        images = [_composed(labels, g, r) for g, r in maps]
    index = {label: v for v, label in enumerate(labels)}
    return [array("i", map(index.get, each, itertools.repeat(-1))) for each in images]


def _moves(family: str, labels: list) -> list:
    """A transposition and a full cycle of the points, as maps for
    :func:`_vertex_maps`: left multiplication on the values 0..n-1 of a
    permutation, relabelling of the points 1..2n of a matching.  The two
    generate the symmetric group."""
    if family == "sym":
        return [(g, None) for g in _generators(list(range(len(labels[0]))))]
    points = list(range(1, 2 * len(labels[0]) + 1))
    return [dict(zip(points, g)) for g in _generators(points)]


def _fixers(family: str, labels: list) -> list:
    """Maps for :func:`_vertex_maps` that fix x0 = labels[0] and whose orbits
    are the cells.  For a matching x0 = {a1,b1}, {a2,b2}, ...: swap a1 and
    b1, swap the first two pairs, shift the pairs cyclically.  For a
    permutation, conjugation relative to x0, σ ↦ hσx0⁻¹h⁻¹x0, by a
    transposition and by a full cycle h."""
    x0 = labels[0]
    if family == "pm":
        firsts, seconds = map(list, zip(*x0))
        swaps = [
            (seconds[:1] + firsts[1:], firsts[:1] + seconds[1:]),
            (firsts[1::-1] + firsts[2:], seconds[1::-1] + seconds[2:]),
            (firsts[1:] + firsts[:1], seconds[1:] + seconds[:1]),
        ]
        return [dict(zip(firsts + seconds, a + b)) for a, b in swaps]
    # r = x0⁻¹h⁻¹x0, read off as positions: r[i] = x0⁻¹(h⁻¹(x0[i]))
    return [(h, [x0.index(h.index(v)) for v in x0]) for h in _generators(list(range(len(x0))))]


def _vertex_permutations(family: str, labels: list) -> list[array]:
    """How the two moves of :func:`_moves` move the vertices."""
    return _vertex_maps(family, labels, _moves(family, labels))


def _orbits(maps: list[array]) -> array:
    """Each vertex's orbit under the maps, as an int array of ids 0, 1, ...
    in order of first appearance, so vertex 0's is 0.  An image -1 is no
    vertex and is skipped."""
    orbit = [-1] * len(maps[0])
    count = 0
    for start, seen in enumerate(orbit):
        if seen < 0:
            orbit[start] = count
            stack = [start]
            while stack:
                x = stack.pop()
                for m in maps:
                    y = m[x]
                    if y >= 0 and orbit[y] < 0:
                        orbit[y] = count
                        stack.append(y)
            count += 1
    return array("i", orbit)


def _cells(family: str, labels: list) -> array:
    """Each vertex's cell relative to x0 = vertex 0: its orbit under the
    maps of :func:`_fixers`."""
    return _orbits(_vertex_maps(family, labels, _fixers(family, labels)))


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
    """One pass over every vertex's row in the cells' layout: the quotient B,
    read off the first vertex of each cell; whether x0's row meets each cell
    wholly or not at all; and whether each move permutes the vertices and
    preserves every row, hence every vertex pair."""
    position, sizes, slices = _cell_positions(cell_of, cell_count)
    layout = _layout(graph, position)
    moved_positions = [_moved_position(move, position) for move in moves]
    automorphisms = None not in moved_positions
    moved = [(move, _layout(graph, p)) for move, p in zip(moves, moved_positions)] if automorphisms else []
    shared = []  # non-neighbours per cell of each cell's first vertex
    for x, c in enumerate(cell_of):
        row = graph.non_neighbours(x, layout)
        if c == len(shared):  # cells are numbered by first appearance
            shared.append(_counts(row, slices))
        for move, moved_layout in moved:
            automorphisms = automorphisms and graph.non_neighbours(move[x], moved_layout) == row
    quotient = [[size - k for size, k in zip(sizes, counts)] for counts in shared]
    whole = all(k in (0, size) for k, size in zip(shared[0], sizes))
    return quotient, whole, automorphisms


def certify(table: SpectrumTable, graph: Graph) -> OracleReport:
    """Certify a predicted table against the graph in exact integers.

    The quotient checks (see the module docstring) establish that the
    graph's spectrum, with multiplicities, is exactly the table's; the trace
    identities are checked separately.  Mismatches are reported, not raised.
    """
    if (table.family, table.n) != (graph.family, graph.n):
        raise ValueError(
            f"table {table.family} n={table.n} does not match graph {graph.family} n={graph.n}"
        )
    # distinct partitions can share an eigenvalue (e.g. the permutation family
    # at n = 4); merge such rows for the multiplicity checks
    predicted: dict = {}
    for val, mult in zip(table.values, table.multiplicities):
        predicted[val] = predicted.get(val, 0) + mult

    vertex_count = graph.vertex_count
    family, labels = graph.family, graph.labels
    # one label index for all the maps: a second would outgrow the first's
    # freed memory, by about 3 MiB at pm n=7
    maps = _vertex_maps(family, labels, _moves(family, labels) + _fixers(family, labels))
    moves, fixers = maps[:2], maps[2:]
    fixed = all(-1 not in m and m[0] == 0 for m in fixers)
    cell_of = _orbits(fixers)
    del maps, fixers  # not held through the stream
    cell_count = max(cell_of) + 1
    quotient, whole, automorphisms = _stream(graph, cell_of, cell_count, moves)
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
    columns = list(zip(*quotient))
    for _ in range(len(predicted)):
        closed_walks.append(walk[base])
        walk = [sum(map(mul, walk, col)) for col in columns]

    quotient_checks = [
        ("equitable", automorphisms and fixed and whole),
        ("base_alone", cell_of.count(base) == 1),
        ("automorphisms", automorphisms),
        ("orbit", not any(_orbits(moves))),
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
