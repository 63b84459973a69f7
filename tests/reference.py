"""Literal references that the tests check the package against."""


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
