"""The streamed table renderer writes the same bytes as whole-string rendering."""

import io
import json
import sys
import tracemalloc

import pytest

from pmspec.partitions import Partition
from pmspec.pm_spectrum import pm_spectrum_table
from pmspec.sym_spectrum import sym_spectrum_table
from pmspec.tables import _CHUNK_ROWS, CSV_HEADER, SpectrumTable


def _reference(table, fmt):
    """Render the whole table as one string, the way it was built before
    rendering was streamed."""
    rows = table.rows.items()
    if fmt == "csv":
        return "\n".join([CSV_HEADER] + [f"{p.to_text()},{v},{m}" for p, (v, m) in rows]) + "\n"
    if fmt == "json":
        payload = {
            "family": table.family,
            "n": table.n,
            "rows": [
                {"partition": p.to_text(), "eigenvalue": v, "multiplicity": m} for p, (v, m) in rows
            ],
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"
    header = f"{table.family} spectrum, n={table.n}"
    width = max(len(p.to_text()) for p in table.rows)
    body = [header, "-" * len(header)]
    for p, (v, m) in rows:
        sign_ok = v == 0 or (-1) ** (table.n - p[0]) * v > 0
        body.append(
            f"{p.to_text():<{width}}  eigenvalue={v}  multiplicity={m}"
            f"  sign={'ok' if sign_ok else 'UNEXPECTED'}"
        )
    return "\n".join(body) + "\n"


@pytest.mark.parametrize("family", ["pm", "sym"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 24])
def test_streamed_bytes_equal_whole_rendering(family, n):
    table = pm_spectrum_table(n) if family == "pm" else sym_spectrum_table(n)
    for fmt in ("csv", "json", "text"):
        stream = io.StringIO()
        table.write(stream, fmt)
        expected = _reference(table, fmt)
        assert stream.getvalue() == expected
        assert getattr(table, f"to_{fmt}")() == expected


def test_write_is_chunked():
    # 5,604 rows: the head holds at most one, every chunk but the last holds
    # exactly _CHUNK_ROWS, and the tail none
    table = sym_spectrum_table(30)
    marks = {"csv": "\n", "json": '"partition":', "text": "  eigenvalue="}

    class Recording(io.StringIO):
        def __init__(self):
            super().__init__()
            self.rows = []

        def write(self, text):
            self.rows.append(text.count(marks[fmt]) - text.startswith(CSV_HEADER))
            return super().write(text)

    for fmt in marks:
        stream = Recording()
        table.write(stream, fmt)
        head, *chunks, last, tail = stream.rows
        assert head <= 1 and tail == 0 and 0 < last <= _CHUNK_ROWS
        assert chunks == [_CHUNK_ROWS] * len(chunks)
        assert head + sum(chunks) + last == len(table.values) > 2 * _CHUNK_ROWS
        assert stream.getvalue() == _reference(table, fmt)


@pytest.mark.parametrize("family", ["pm", "sym"])
def test_write_never_builds_the_rows(family, monkeypatch):
    table = pm_spectrum_table(12) if family == "pm" else sym_spectrum_table(12)
    expected = {fmt: _reference(table, fmt) for fmt in ("csv", "json", "text")}

    def refused(self):
        raise AssertionError("rows read while writing")

    monkeypatch.setattr(SpectrumTable, "rows", property(refused))
    for fmt, text in expected.items():
        stream = io.StringIO()
        table.write(stream, fmt)
        assert stream.getvalue() == text


@pytest.mark.parametrize("family", ["pm", "sym"])
def test_from_rows_round_trips(family):
    table = pm_spectrum_table(9) if family == "pm" else sym_spectrum_table(9)
    assert SpectrumTable.from_rows(table.family, table.n, table.rows) == table
    assert table.eigenvalues() == [val for val, _ in table.rows.values()]
    assert table.multiplicity_total() == sum(mult for _, mult in table.rows.values())


def test_from_rows_refuses_keys_out_of_row_order():
    rows = pm_spectrum_table(5).rows
    items = list(rows.items())
    swapped = dict([items[1], items[0]] + items[2:])
    missing = dict(items[:-1])
    extra = dict(items + [(Partition((1,)), (0, 1))])
    for broken in (swapped, missing, extra):
        with pytest.raises(ValueError):
            SpectrumTable.from_rows("pm", 5, broken)
    with pytest.raises(ValueError):
        SpectrumTable.from_rows("pm", 6, rows)


# the most either case below peaked over the import in three sets of eight
# fresh runs, in MiB, by Python version; sym 38 json peaked highest on each
_TABLE_PEAKS = {(3, 10): 5.73, (3, 11): 4.68, (3, 12): 5.48}


@pytest.mark.parametrize("family, n, fmt", [("sym", 38, "json"), ("pm", 36, "csv")])
def test_table_peaks_near_the_import(peak_rss, import_peak, family, n, fmt):
    # the table's two lists hold about 2.5 MiB (sym 38) and the sweep's
    # traced peak is about 3.3 MiB: the sweep keeps a value only while a
    # later level reads it, and the lattice's ids and levels are int
    # arrays.  The bound is the most measured on this Python, or on any if
    # it is not listed, and 0.5 MiB
    status, peak = peak_rss("-m", "pmspec.cli", "table", "--family", family, "--n", str(n), "--format", fmt)
    assert status == 0
    measured = _TABLE_PEAKS.get(sys.version_info[:2], max(_TABLE_PEAKS.values()))
    assert peak - import_peak <= (measured + 0.5) * 2**20


# the traced peak of each table below in process, in MiB, by Python version:
# tracemalloc counts the same bytes on every run.  While a block was a tuple
# of boxed ints, pm 36 traced 3.81-3.91 MiB and sym 38 3.95-4.09
_TRACED_PEAKS = {
    "pm": {(3, 10): 3.28, (3, 11): 3.33, (3, 12): 3.33},
    "sym": {(3, 10): 3.26, (3, 11): 3.34, (3, 12): 3.34},
}


@pytest.mark.parametrize("family, n", [("pm", 36), ("sym", 38)])
def test_table_sweeps_trace_no_block_objects(family, n):
    # a level's blocks are flat int columns, and no tuple or boxed int per
    # block outlives the pass that reads it.  The bound is the peak measured
    # on this Python, or the most on any if it is not listed, and 5%
    table = pm_spectrum_table if family == "pm" else sym_spectrum_table
    tracemalloc.start()
    try:
        table(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peaks = _TRACED_PEAKS[family]
    assert peak <= peaks.get(sys.version_info[:2], max(peaks.values())) * 1.05 * 2**20


def test_from_rows_refuses_another_family():
    # json is written with the family unescaped, which is safe for "pm" and
    # "sym" alone
    rows = pm_spectrum_table(4).rows
    for family in ("pm", "sym"):
        assert SpectrumTable.from_rows(family, 4, rows).family == family
    for family in ("", "PM", 'p"m'):
        with pytest.raises(ValueError, match="unknown family"):
            SpectrumTable.from_rows(family, 4, rows)


def test_unknown_format_is_refused():
    with pytest.raises(ValueError):
        pm_spectrum_table(3).write(io.StringIO(), "xml")
