
import random
import sys
import tracemalloc
from array import array

import numpy as np
import pytest

from pmspec import exact, oracle
from pmspec.exact import derangement_count, odd_double_factorial, pm_degree
from pmspec.partitions import Partition
from pmspec.pm_spectrum import pm_spectrum_table
from pmspec.sym_spectrum import sym_spectrum_table
from pmspec.tables import SpectrumTable


def test_enumerate_perfect_matchings_counts():
    assert len(oracle.enumerate_perfect_matchings(2)) == 3
    assert len(oracle.enumerate_perfect_matchings(4)) == 105
    assert len(oracle.enumerate_perfect_matchings(5)) == 945


def test_enumeration_is_canonical_and_unique():
    ms = oracle.enumerate_perfect_matchings(3)
    assert len(set(ms)) == len(ms)
    for m in ms:
        covered = sorted(v for pair in m for v in pair)
        assert covered == list(range(1, 7))
        assert all(a < b for a, b in m)
        assert list(m) == sorted(m)


def test_cap_enforced(monkeypatch):
    # the only limits are n >= 1 and physical memory, a fixed number of bytes
    # per vertex plus one bit per vertex and column in each layout
    for n in (0, -1):
        with pytest.raises(ValueError):
            oracle.enumerate_perfect_matchings(n)
        with pytest.raises(ValueError):
            oracle.build_derangement_graph(n)
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 64 * 2**30)
    with pytest.raises(ValueError):
        oracle.enumerate_perfect_matchings(10)  # 654,729,075 vertices, about 310 GB
    with pytest.raises(ValueError):
        oracle.build_derangement_graph(12)  # 479,001,600 vertices, about 240 GB
    with pytest.raises(ValueError, match="physical memory"):
        oracle.build_derangement_graph(10**6)  # refused without computing 10**6!
    oracle._admit("pm", 6)  # n alone refuses nothing that fits
    oracle._admit("sym", 8)
    oracle._admit("pm", 9)  # 34,459,425 vertices, about 16 GB
    oracle._admit("sym", 11)
    monkeypatch.setattr(exact, "physical_memory_bytes", lambda: 1000)
    with pytest.raises(ValueError):
        oracle.build_pm_graph(3)  # 15 vertices of 400 bytes each


def _graph(family, n):
    return oracle.build_pm_graph(n) if family == "pm" else oracle.build_derangement_graph(n)


def _table(family, n):
    return pm_spectrum_table(n) if family == "pm" else sym_spectrum_table(n)


def _degree(family, n):
    return pm_degree(n) if family == "pm" else derangement_count(n)


def _adjacency(graph):
    """The whole adjacency matrix as lists of 0/1, read with vertex y at bit y."""
    every = range(graph.vertex_count)
    layout = oracle._layout(graph, every)
    return [[1 - (graph.non_neighbours(x, layout) >> y & 1) for y in every] for x in every]


def _neighbours(graph, u):
    return [y for y, bit in enumerate(_adjacency(graph)[u]) if bit]


def _degrees(graph):
    """The set of the graph's row sums, read from the whole matrix."""
    return {sum(row) for row in _adjacency(graph)}


@pytest.mark.parametrize("vertex_count", [1, 3, 1449, 5040, 40320])
def test_blocks_cover_every_vertex_once(vertex_count):
    # each cell's block of whole bytes holds its own vertices, one bit each
    # in vertex order, and padding after them; a count per block sees only
    # the cell's vertices
    rng = random.Random(vertex_count)
    cell_count = min(vertex_count, 30)
    cell_of = list(range(cell_count))
    cell_of += [rng.randrange(cell_count) for _ in range(vertex_count - cell_count)]
    position, sizes, slices = oracle._cell_positions(cell_of, cell_count)
    assert sizes == [cell_of.count(c) for c in range(cell_count)]
    assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
    for c, block in enumerate(slices):
        assert [p for p, d in zip(position, cell_of) if d == c] == list(
            range(8 * block.start, 8 * block.start + sizes[c])
        )
        assert block.stop == block.start + (sizes[c] + 7) // 8
    chosen = [rng.random() < 0.5 for _ in range(vertex_count)]
    bits = sum(1 << p for p, pick in zip(position, chosen) if pick)
    expected = [sum(pick for pick, d in zip(chosen, cell_of) if d == c) for c in range(cell_count)]
    assert oracle._counts(bits, slices) == expected


def test_moved_positions_only_for_a_permutation():
    # vertex move[y] takes the bit of y; a move that maps a vertex to -1, or
    # two vertices to one, is no permutation and gets no layout
    position = array("i", [0, 9, 17])
    assert oracle._moved_position(array("i", [2, 0, 1]), position) == array("i", [9, 17, 0])
    assert oracle._moved_position(array("i", [1, -1, 0]), position) is None
    assert oracle._moved_position(array("i", [1, 1, 0]), position) is None
    assert oracle._moved_position(array("i", [2, 2, 2]), position) is None


def _literally_adjacent(family, a, b):
    if family == "pm":
        return not set(a) & set(b)  # the matchings share no edge
    return all(p != q for p, q in zip(a, b))  # the permutations differ in every position


@pytest.mark.parametrize(
    "family, n", [("pm", k) for k in range(1, 5)] + [("sym", k) for k in range(1, 6)]
)
def test_rows_are_the_literal_predicate_in_every_layout(family, n):
    # every vertex pair, against the labels alone, with vertex y at bit y and
    # in the certificate's cell layout, whose cells are padded to whole bytes;
    # pm n=3 (15 vertices), pm n=4 (105) and sym n=3 (6) pad the vertex
    # layout too.  No padding bit enters a row, a degree or a count
    graph = _graph(family, n)
    cell_of = oracle._cells(family, graph.labels)
    position, sizes, slices = oracle._cell_positions(cell_of, max(cell_of) + 1)
    for layout in [oracle._layout(graph, range(graph.vertex_count)), oracle._layout(graph, position)]:
        vertex_bits = sum(1 << p for p in layout.position)
        for x, a in enumerate(graph.labels):
            shared = graph.non_neighbours(x, layout)
            assert shared & ~vertex_bits == 0
            adjacent = [_literally_adjacent(family, a, b) for b in graph.labels]
            assert [not shared >> p & 1 for p in layout.position] == adjacent
            assert graph.vertex_count - shared.bit_count() == sum(adjacent) == _degree(family, n)
            if layout.position is position:
                cells = range(len(sizes))
                per_cell = [sum(not adj for adj, d in zip(adjacent, cell_of) if d == c) for c in cells]
                assert oracle._counts(shared, slices) == per_cell


def test_pm_graph_small():
    g = oracle.build_pm_graph(2)
    assert g.vertex_count == 3 and _degrees(g) == {2} == {pm_degree(2)}  # triangle
    assert _adjacency(g) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    g = oracle.build_pm_graph(3)
    assert g.vertex_count == 15 and _degrees(g) == {8} == {pm_degree(3)}
    g = oracle.build_pm_graph(1)
    assert g.vertex_count == 1 and _degrees(g) == {0} == {pm_degree(1)}


def test_derangement_graph_small():
    g = oracle.build_derangement_graph(2)
    assert g.vertex_count == 2 and _degrees(g) == {1} == {derangement_count(2)}
    g = oracle.build_derangement_graph(3)
    assert g.vertex_count == 6 and _degrees(g) == {2} == {derangement_count(3)}
    g = oracle.build_derangement_graph(4)
    assert g.vertex_count == 24 and _degrees(g) == {9} == {derangement_count(4)}


def test_numeric_spectrum_triangle():
    g = oracle.build_pm_graph(2)
    spec = oracle.numeric_spectrum(g)
    assert np.allclose(spec, [-1.0, -1.0, 2.0])


def test_numeric_spectrum_m6():
    spec = oracle.numeric_spectrum(oracle.build_pm_graph(3))
    rounded = sorted(round(x) for x in spec)
    assert rounded.count(8) == 1 and rounded.count(-2) == 9 and rounded.count(2) == 5


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_certify_pm(n):
    report = oracle.certify(pm_spectrum_table(n), oracle.build_pm_graph(n))
    assert report.spectrum_match
    assert all(ok for _, ok in report.trace_checks)
    assert report.degree_observed == pm_degree(n)
    assert report.vertex_count == odd_double_factorial(n)
    assert report.passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_certify_sym(n):
    report = oracle.certify(sym_spectrum_table(n), oracle.build_derangement_graph(n))
    assert report.passed
    assert report.degree_observed == derangement_count(n)


def test_certify_rejects_mismatched_n():
    with pytest.raises(ValueError):
        oracle.certify(pm_spectrum_table(2), oracle.build_pm_graph(3))


def test_injected_fault_is_detected():
    table = pm_spectrum_table(3)
    rows = dict(table.rows)
    rows[Partition((2, 1))] = (-1, 9)  # perturbed eigenvalue
    broken = SpectrumTable.from_rows("pm", 3, rows)
    report = oracle.certify(broken, oracle.build_pm_graph(3))
    assert not report.spectrum_match
    checks = dict(report.trace_checks)
    assert checks["sum_val"] is False
    assert dict(report.quotient_checks)["charpoly"] is False
    assert not report.passed


def test_report_rendering():
    report = oracle.certify(pm_spectrum_table(3), oracle.build_pm_graph(3))
    text = report.to_text()
    assert "PASS" in text and "15 vertices" in text
    assert "method: quotient (3 cells)" in text and "residual" not in text
    js = report.to_json()
    assert '"spectrum_match":true' in js
    assert '"method":"quotient"' in js and '"quotient_size":3' in js
    assert "max_abs_residual" not in js


@pytest.mark.parametrize(
    "matrix, poly",
    [
        ([], [1]),
        ([[7]], [1, -7]),
        ([[0, 2], [1, 1]], [1, -1, -2]),  # the triangle's quotient: (x - 2)(x + 1)
        ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], [1, -10, 31, -30]),
        # trace 16, principal 2x2 minors -3 - 11 + 2, determinant -3
        ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], [1, -16, -12, 3]),
        ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [1, 0, 0, 0]),  # nilpotent
    ],
)
def test_charpoly_by_hand(matrix, poly):
    assert oracle.charpoly(matrix) == poly


def _with_moved_multiplicity(table):
    # move one unit of multiplicity between the first two rows, whose
    # eigenvalues differ: the eigenvalues and their total count stay the same
    rows = dict(table.rows)
    (lam, (a, ma)), (mu, (b, mb)) = list(rows.items())[:2]
    assert a != b and ma >= 1
    rows[lam], rows[mu] = (a, ma - 1), (b, mb + 1)
    return SpectrumTable.from_rows(table.family, table.n, rows)


@pytest.mark.parametrize("family, n", [("pm", 4), ("sym", 5)])
def test_moved_multiplicity_is_caught_by_walk_moments(family, n):
    table = pm_spectrum_table(n) if family == "pm" else sym_spectrum_table(n)
    graph = oracle.build_pm_graph(n) if family == "pm" else oracle.build_derangement_graph(n)
    report = oracle.certify(_with_moved_multiplicity(table), graph)
    checks = dict(report.quotient_checks)
    assert dict(report.trace_checks)["sum_mult"] is True
    assert checks["charpoly"] and checks["annihilator"] and checks["equitable"]
    assert checks["walk_moments"] is False
    assert not report.spectrum_match and not report.passed


class EditedGraph(oracle.Graph):
    """The graph with some adjacency entries overwritten wherever its rows
    are read, in any layout: `edits` maps a vertex pair (u, v) to 0 or 1."""

    def __init__(self, graph, edits):
        super().__init__(graph.family, graph.n, graph.labels, graph.support)
        self.edits = edits

    def non_neighbours(self, x, layout):
        out = super().non_neighbours(x, layout)
        for (u, v), bit in self.edits.items():
            if u == x:
                mark = 1 << layout.position[v]
                out = out & ~mark if bit else out | mark
        return out


def _edited(graph, *edits):
    """The graph with each (u, v, bit) edit applied to both orders of the pair."""
    pairs = {}
    for u, v, bit in edits:
        pairs[u, v] = pairs[v, u] = bit
    return EditedGraph(graph, pairs)


def _relabelled(graph, labels):
    """The same adjacency under other vertex labels."""
    return oracle.Graph(graph.family, graph.n, labels, graph.support)


@pytest.mark.parametrize("family, n", [("pm", 3), ("pm", 4), ("sym", 4), ("sym", 5)])
def test_removed_edge_fails_the_partition_or_the_symmetry(family, n):
    graph = _graph(family, n)
    table = _table(family, n)
    u = graph.vertex_count // 2
    for edge in [(0, _neighbours(graph, 0)[0]), (u, _neighbours(graph, u)[0])]:
        broken = _edited(graph, (*edge, 0))
        report = oracle.certify(table, broken)
        checks = dict(report.quotient_checks)
        assert not (checks["equitable"] and checks["automorphisms"]), edge
        assert not report.passed
        # a failed report, not an exception, and the degree is x0's as edited
        assert report.degree_observed == sum(_adjacency(broken)[0])


def test_equitable_edge_switch_is_caught_by_the_automorphism_check():
    # swapping edges ab, cd for ad, cb with a, c in one cell and b, d in
    # another keeps every vertex's count per cell, so B and all its checks
    # still pass; only the symmetry the argument relies on is broken
    graph = oracle.build_pm_graph(4)
    adjacency = _adjacency(graph)
    cells = oracle._cells("pm", graph.labels)
    every = range(graph.vertex_count)
    a, b, c, d = next(
        (a, b, c, d)
        for a in every
        for b in every
        if adjacency[a][b]
        for c in every
        if c not in (a, b) and cells[c] == cells[a] and not adjacency[c][b]
        for d in every
        if adjacency[c][d] and d not in (a, b) and cells[d] == cells[b] and not adjacency[a][d]
    )
    broken = _edited(graph, (a, b, 0), (c, d, 0), (a, d, 1), (c, b, 1))
    report = oracle.certify(pm_spectrum_table(4), broken)
    checks = dict(report.quotient_checks)
    assert checks.pop("automorphisms") is False
    assert all(checks.values()) and not report.passed


def test_base_vertex_sharing_its_cell_is_caught():
    graph = oracle.build_pm_graph(3)
    labels = [graph.labels[0]] + graph.labels[:1] + graph.labels[2:]  # vertex 1 relabelled as x0
    broken = _relabelled(graph, labels)
    report = oracle.certify(pm_spectrum_table(3), broken)
    assert dict(report.quotient_checks)["base_alone"] is False and not report.passed


@pytest.mark.parametrize(
    "family, n", [("pm", k) for k in range(1, 5)] + [("sym", k) for k in range(1, 6)]
)
def test_dense_spectrum_equals_table(family, n):
    # the literal cross-check: diagonalise the whole adjacency matrix
    graph = _graph(family, n)
    table = _table(family, n)
    predicted = sorted(val for val, mult in table.rows.values() for _ in range(mult))
    spectrum = oracle.numeric_spectrum(graph)
    assert sorted(round(x) for x in spectrum) == predicted
    assert np.allclose(spectrum, predicted, atol=1e-8 * max(1, _degree(family, n)))


def test_edited_graph_reads_its_edits_in_every_order():
    graph = oracle.build_pm_graph(3)
    v = _neighbours(graph, 0)[0]
    broken = _edited(graph, (0, v, 0), (1, 2, 1))
    expected = _adjacency(graph)
    expected[0][v] = expected[v][0] = 0
    expected[1][2] = expected[2][1] = 1
    assert _adjacency(broken) == expected
    # the vertices at shuffled bits, with padding between them
    position = random.Random(1).sample(range(2 * graph.vertex_count), graph.vertex_count)
    layout = oracle._layout(broken, position)
    for x, row in enumerate(expected):
        shared = broken.non_neighbours(x, layout)
        assert [1 - (shared >> p & 1) for p in position] == row


@pytest.mark.parametrize("family, n, bound", [("sym", 7, 200), ("pm", 6, 250)])
def test_oracle_holds_few_bytes_per_vertex(family, n, bound):
    # the traced peak of build and certificate, per vertex: supports and
    # permutations as bytes, cell ids, moves and bit positions in int arrays
    # read 168 (sym 7) and 221 (pm 6) bytes on Python 3.11, peaking at the
    # label index of the moves; tuples and lists of ints had read 394 and 349
    table = _table(family, n)
    tracemalloc.start()
    try:
        report = oracle.certify(table, _graph(family, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= bound * report.vertex_count


# the most each case below peaked over the import in three sets of eight
# fresh runs, in MiB, by Python version: sym 7, then pm 6.  The tuple-and-list
# vertices of the form before had peaked 2.27-2.45 and 4.12-4.41 on 3.11
_ORACLE_PEAKS = {(3, 11): (1.44, 3.11)}


def _oracle_peak_bound(case: int) -> float:
    """The bound in bytes on a case's peak over the import: the most measured
    on this Python and 0.5 MiB, or on a Python not measured the most on 3.11
    and 1.5 MiB, as the table peaks on 3.10 and 3.12 ran up to 1.04 MiB above
    3.11's."""
    measured = _ORACLE_PEAKS.get(sys.version_info[:2])
    if measured is None:
        return (_ORACLE_PEAKS[3, 11][case] + 1.5) * 2**20
    return (measured[case] + 0.5) * 2**20


def test_oracle_sym7_peak_memory(peak_rss, import_peak):
    # no numpy and no V x V array: sym n=7 (5,040 vertices) holds its labels,
    # supports and moves in about 0.9 MB; numpy alone took the oracle to 36 MB
    status, peak = peak_rss("-m", "pmspec.cli", "oracle", "--family", "sym", "--n", "7", "--format", "json")
    assert status == 0
    assert peak - import_peak <= _oracle_peak_bound(0)


def test_oracle_peak_memory(peak_rss, import_peak):
    status, peak = peak_rss("-m", "pmspec.cli", "oracle", "--family", "pm", "--n", "6", "--format", "json")
    assert status == 0
    # the dense build peaked at 657 MB and the float32 row blocks at 45 MB
    assert peak - import_peak <= _oracle_peak_bound(1)


def test_faults_in_late_blocks_are_caught():
    # an edge removed between the last vertex and its last neighbour: only
    # their rows see it, late in the certificate's pass
    graph = oracle.build_pm_graph(4)
    u = graph.vertex_count - 1
    v = _neighbours(graph, u)[-1]
    broken = _edited(graph, (u, v, 0))
    report = oracle.certify(pm_spectrum_table(4), broken)
    checks = dict(report.quotient_checks)
    assert checks["equitable"] is False and checks["automorphisms"] is False
    assert report.degree_observed == pm_degree(4) and not report.passed


# tuple code independent of the oracle's, kept as its reference


def _cycle_type(step: dict) -> tuple:
    """Cycle lengths of the permutation `step` (point -> point), descending."""
    seen = set()
    lengths = []
    for start in step:
        length, point = 0, start
        while point not in seen:
            seen.add(point)
            point = step[point]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _partner(matching) -> dict:
    out = {}
    for a, b in matching:
        out[a], out[b] = b, a
    return out


def _reference_cells(graph) -> list[tuple]:
    x0 = graph.labels[0]
    if graph.family == "pm":
        x0_partner = _partner(x0)
        return [
            _cycle_type({p: x0_partner[q] for p, q in _partner(m).items()})[::2]
            for m in graph.labels
        ]
    x0_inverse = {value: pos for pos, value in enumerate(x0)}
    return [
        _cycle_type({pos: x0_inverse[v] for pos, v in enumerate(perm)}) for perm in graph.labels
    ]


def _reference_moves(graph) -> list[list[int]]:
    points = list(range(graph.n)) if graph.family == "sym" else list(range(1, 2 * graph.n + 1))
    swap = dict(zip(points, points[1::-1] + points[2:]))
    shift = dict(zip(points, points[1:] + points[:1]))
    index = {tuple(label): v for v, label in enumerate(graph.labels)}

    def act(g, label):
        if graph.family == "sym":
            return tuple(g[v] for v in label)
        return tuple(sorted(tuple(sorted((g[a], g[b]))) for a, b in label))

    return [[index.get(act(g, label), -1) for label in graph.labels] for g in (swap, shift)]


def _assert_matches_reference(graph):
    cells, expected = oracle._cells(graph.family, graph.labels), _reference_cells(graph)
    # the same partition: cell ids and cell labels in bijection
    assert len(set(zip(cells, expected))) == len(set(cells)) == len(set(expected))
    moves = oracle._vertex_permutations(graph.family, graph.labels)
    assert list(map(list, moves)) == _reference_moves(graph)
    return moves


@pytest.mark.parametrize(
    "family, n", [("pm", k) for k in range(1, 6)] + [("sym", k) for k in range(1, 7)]
)
def test_cells_and_moves_match_the_tuple_reference(family, n):
    _assert_matches_reference(_graph(family, n))


@pytest.mark.parametrize("family, n", [("pm", 3), ("sym", 4)])
def test_cells_and_moves_on_edited_labels_match_the_tuple_reference(family, n):
    graph = _graph(family, n)
    # vertex 2 relabelled as vertex 1: images of that label go to the last
    # vertex carrying it, and the old label of vertex 2 is nobody's
    duplicated = _relabelled(graph, graph.labels[:2] + graph.labels[1:2] + graph.labels[3:])
    assert any(-1 in move for move in _assert_matches_reference(duplicated))
    # the last vertex dropped: whatever moved onto it maps to -1
    missing = _relabelled(graph, graph.labels[:-1])
    assert any(-1 in move for move in _assert_matches_reference(missing))
