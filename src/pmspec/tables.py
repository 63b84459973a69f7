"""Spectrum tables: partition-indexed (eigenvalue, multiplicity) maps for one
graph family at one size, with deterministic csv/json/text rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .partitions import Partition

CSV_HEADER = "partition,eigenvalue,multiplicity"


@dataclass(frozen=True)
class SpectrumTable:
    """Rows keyed by the partitions of n, in decreasing lexicographic order."""

    family: str  # "pm" or "sym"
    n: int
    rows: dict  # Partition -> (eigenvalue: int, multiplicity: int)

    def eigenvalues(self) -> list[int]:
        return [val for val, _ in self.rows.values()]

    def multiplicity_total(self) -> int:
        return sum(mult for _, mult in self.rows.values())

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for part, (val, mult) in self.rows.items():
            lines.append(f"{part.to_text()},{val},{mult}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "n": self.n,
            "rows": [
                {"partition": part.to_text(), "eigenvalue": val, "multiplicity": mult}
                for part, (val, mult) in self.rows.items()
            ],
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        header = f"{self.family} spectrum, n={self.n}"
        body = [header, "-" * len(header)]
        width = max(len(p.to_text()) for p in self.rows)
        for part, (val, mult) in self.rows.items():
            sign_ok = val == 0 or (-1) ** (self.n - part[0]) * val > 0
            body.append(
                f"{part.to_text():<{width}}  eigenvalue={val}  multiplicity={mult}"
                f"  sign={'ok' if sign_ok else 'UNEXPECTED'}"
            )
        return "\n".join(body) + "\n"
