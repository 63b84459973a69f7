"""Spectrum tables: partition-indexed (eigenvalue, multiplicity) maps for one
graph family at one size, with deterministic csv/json/text rendering."""

from __future__ import annotations

import io
import itertools
from typing import NamedTuple

from .partitions import Partition

CSV_HEADER = "partition,eigenvalue,multiplicity"
_CHUNK_ROWS = 4096  # rows rendered per write


class SpectrumTable(NamedTuple):
    """Rows keyed by the partitions of n, in decreasing lexicographic order."""

    family: str  # "pm" or "sym"
    n: int
    rows: dict  # Partition -> (eigenvalue: int, multiplicity: int)

    def eigenvalues(self) -> list[int]:
        return [val for val, _ in self.rows.values()]

    def multiplicity_total(self) -> int:
        return sum(mult for _, mult in self.rows.values())

    def write(self, stream, fmt: str) -> None:
        """Write the table as csv, json or text to `stream`, a chunk of rows
        at a time, so that no rendering of the whole table is ever held.
        Partitions render as :meth:`Partition.to_text` does, from the texts
        of 0..n; json needs no escapes in them."""
        digits = [str(k) for k in range(self.n + 1)]

        def text(part):
            return "+".join(map(digits.__getitem__, part)) or "0"

        if fmt == "csv":
            head, tail = CSV_HEADER + "\n", ""
            lines = (f"{text(part)},{val},{mult}\n" for part, (val, mult) in self.rows.items())
        elif fmt == "json":
            import json  # loaded only when json is written

            head, tail = f'{{"family":{json.dumps(self.family)},"n":{self.n},"rows":[', "]}\n"
            lines = (
                f'{"," if i else ""}{{"partition":"{text(part)}",'
                f'"eigenvalue":{val},"multiplicity":{mult}}}'
                for i, (part, (val, mult)) in enumerate(self.rows.items())
            )
        elif fmt == "text":
            title = f"{self.family} spectrum, n={self.n}"
            head, tail = f"{title}\n{'-' * len(title)}\n", ""
            width = max(len(text(p)) for p in self.rows)

            def line(part, val, mult):
                sign_ok = val == 0 or (-1) ** (self.n - part[0]) * val > 0
                return (
                    f"{text(part):<{width}}  eigenvalue={val}  multiplicity={mult}"
                    f"  sign={'ok' if sign_ok else 'UNEXPECTED'}\n"
                )

            lines = (line(part, val, mult) for part, (val, mult) in self.rows.items())
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
