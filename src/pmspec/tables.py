"""Spectrum tables: the (eigenvalue, multiplicity) of every partition of n
for one graph family at one size, with deterministic csv/json/text
rendering.  A table holds two lists in row order and no per-row object;
the partitions are walked again whenever they are written
(:func:`pmspec.partitions.walk_partitions`) or looked up."""

from __future__ import annotations

import io
import itertools
from typing import NamedTuple

from .partitions import enumerate_partitions, walk_partitions

CSV_HEADER = "partition,eigenvalue,multiplicity"
# rows rendered per write: a chunk's text is held whole, and at 4,096 rows a
# json chunk of a table at n = 36 outgrew the table's own sweep
_CHUNK_ROWS = 1024


class SpectrumTable(NamedTuple):
    """One row per partition of n.  Row i belongs to the i-th partition of
    :func:`pmspec.partitions.enumerate_partitions`, in decreasing
    lexicographic order, (n) first."""

    family: str  # "pm" or "sym"
    n: int
    values: list  # the eigenvalue of each row, an int
    multiplicities: list  # the multiplicity of each row, an int

    @classmethod
    def from_rows(cls, family: str, n: int, rows: dict) -> "SpectrumTable":
        """The table whose :attr:`rows` is ``rows``; its keys must be the
        partitions of n in row order, and ``family`` "pm" or "sym"."""
        if family not in ("pm", "sym"):
            raise ValueError(f"unknown family {family!r}: a table is of pm or sym")
        if list(rows) != enumerate_partitions(n):
            raise ValueError(f"the keys of rows are not the partitions of {n} in decreasing lexicographic order")
        return cls(family, n, [val for val, _ in rows.values()], [mult for _, mult in rows.values()])

    @property
    def rows(self) -> dict:
        """Partition -> (eigenvalue, multiplicity), in row order, built anew
        on each read."""
        return dict(zip(enumerate_partitions(self.n), zip(self.values, self.multiplicities)))

    def eigenvalues(self) -> list[int]:
        return list(self.values)

    def multiplicity_total(self) -> int:
        return sum(self.multiplicities)

    def write(self, stream, fmt: str) -> None:
        """Write the table as csv, json or text to `stream`, a chunk of rows
        at a time, so that no rendering of the whole table is ever held.
        Partitions render as :meth:`Partition.to_text` does, from the texts
        of :func:`pmspec.partitions.walk_partitions`; json needs no escapes
        in them, nor in the family, so it is written with no json module."""
        rows = zip(walk_partitions(self.n), self.values, self.multiplicities)
        if fmt == "csv":
            head, tail = CSV_HEADER + "\n", ""
            lines = (f"{text},{val},{mult}\n" for (_, _, text), val, mult in rows)
        elif fmt == "json":
            # the family is "pm" or "sym", which need no escape either
            head, tail = f'{{"family":"{self.family}","n":{self.n},"rows":[', "]}\n"
            lines = (
                f',{{"partition":"{text}","eigenvalue":{val},"multiplicity":{mult}}}'
                for (_, _, text), val, mult in rows
            )
            head += next(lines, ",")[1:]  # the first row has no comma before it
        elif fmt == "text":
            title = f"{self.family} spectrum, n={self.n}"
            head, tail = f"{title}\n{'-' * len(title)}\n", ""
            width = max(1, 2 * self.n - 1)  # the text of (1^n); a part has no more digits than units

            def line(parts, text, val, mult):
                sign_ok = val == 0 or (-1) ** (self.n - parts[0]) * val > 0
                return (
                    f"{text:<{width}}  eigenvalue={val}  multiplicity={mult}"
                    f"  sign={'ok' if sign_ok else 'UNEXPECTED'}\n"
                )

            lines = (line(parts, text, val, mult) for (parts, _, text), val, mult in rows)
        else:
            raise ValueError(f"unknown table format {fmt!r}")
        stream.write(head)
        while chunk := "".join(itertools.islice(lines, _CHUNK_ROWS)):
            stream.write(chunk)
        stream.write(tail)

    def _rendered(self, fmt: str) -> str:
        out = io.StringIO()
        self.write(out, fmt)
        return out.getvalue()

    def to_csv(self) -> str:
        return self._rendered("csv")

    def to_json(self) -> str:
        return self._rendered("json")

    def to_text(self) -> str:
        return self._rendered("text")
