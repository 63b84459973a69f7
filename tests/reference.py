"""Literal references that the tests check the package against."""

from pmspec import oracle


def node_id(lattice, lam: tuple) -> int:
    """The node id of a partition of size at most ``lattice.n``: the block of
    its tail is walked from the empty tail's, block 0, one part at a time,
    by ``step``, and (m,) + t is ``base`` of its block plus m.  It reads the
    ``base`` a pm sweep sets before its walk; a sym sweep's lattice has none."""
    base, b, hi = lattice.base, 0, lattice.n
    for part in lam[:0:-1]:
        b += lattice.step[hi][part]
        hi -= part
    return base[b] + lam[0] if lam else 0


def count_every_row(graph, cell_of, cell_count, moves):
    """The oracle's brute-force stream, kept as the reference for the
    certificate's B: B read off the first vertex of each cell, then one pass
    over every vertex, whether its counts into the cells are its cell's row
    of B (equitability counted on every row), and whether each move permutes
    the vertices and preserves its adjacency row.  Returns (B, equitable,
    automorphisms)."""
    position, sizes, slices = oracle._cell_positions(cell_of, cell_count)
    layout = oracle._layout(graph, position)
    shared = [
        oracle._counts(graph.non_neighbours(cell_of.index(c), layout), slices) for c in range(cell_count)
    ]
    moved_positions = [oracle._moved_position(move, position) for move in moves]
    automorphisms = None not in moved_positions
    moved = []
    if automorphisms:
        moved = [(move, oracle._layout(graph, p)) for move, p in zip(moves, moved_positions)]
    equitable = True
    for x in range(graph.vertex_count):
        row = graph.non_neighbours(x, layout)
        equitable = equitable and oracle._counts(row, slices) == shared[cell_of[x]]
        for move, moved_layout in moved:
            automorphisms = automorphisms and graph.non_neighbours(move[x], moved_layout) == row
    quotient = [[size - k for size, k in zip(sizes, counts)] for counts in shared]
    return quotient, equitable, automorphisms
