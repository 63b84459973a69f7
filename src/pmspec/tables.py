"""Spectrum tables: the (eigenvalue, multiplicity) of every partition of n
for one graph family at one size, with deterministic csv/json/text
rendering.  A table holds two lists in row order and no per-row object;
the partitions are walked again (:func:`pmspec.partitions.iter_partitions`)
whenever they are written or looked up."""

from __future__ import annotations

import io
import itertools
from typing import NamedTuple

from .partitions import enumerate_partitions, iter_partitions

CSV_HEADER = "partition,eigenvalue,multiplicity"
_CHUNK_ROWS = 4096  # rows rendered per write


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
        partitions of n in row order."""
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
        of 0..n; json needs no escapes in them."""
        digits = [str(k) for k in range(self.n + 1)]

        def text(part):
            return "+".join(map(digits.__getitem__, part)) or "0"

        rows = zip(iter_partitions(self.n), self.values, self.multiplicities)
        if fmt == "csv":
            head, tail = CSV_HEADER + "\n", ""
            lines = (f"{text(part)},{val},{mult}\n" for part, val, mult in rows)
        elif fmt == "json":
            import json  # loaded only when json is written

            head, tail = f'{{"family":{json.dumps(self.family)},"n":{self.n},"rows":[', "]}\n"
            lines = (
                f'{"," if i else ""}{{"partition":"{text(part)}",'
                f'"eigenvalue":{val},"multiplicity":{mult}}}'
                for i, (part, val, mult) in enumerate(rows)
            )
        elif fmt == "text":
            title = f"{self.family} spectrum, n={self.n}"
            head, tail = f"{title}\n{'-' * len(title)}\n", ""
            width = max(1, 2 * self.n - 1)  # the text of (1^n); a part has no more digits than units

            def line(part, val, mult):
                sign_ok = val == 0 or (-1) ** (self.n - part[0]) * val > 0
                return (
                    f"{text(part):<{width}}  eigenvalue={val}  multiplicity={mult}"
                    f"  sign={'ok' if sign_ok else 'UNEXPECTED'}\n"
                )

            lines = itertools.starmap(line, rows)
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
