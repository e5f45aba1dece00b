"""The one codec for the pipeline's header-row, tab-separated files.

A table is a header row naming its columns, then one line per row with
exactly that many tab-separated cells; blank lines are ignored. Cells are
written with str() (the %s format), which for a Python float is its repr, so
floats read back bit-exactly with float(). Readers stream: rows are parsed
one line at a time and never held as text.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataError

Row = TypeVar("Row")


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write the header, then each row's cells joined by tabs.

    Every row must have one cell per header column (TypeError otherwise).
    """
    line = "\t".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def read_table(
    path: str | Path,
    header: Sequence[str],
    parse: Callable[[list[str]], Row] = list,
) -> Iterator[Row]:
    """Yield parse(cells) for each data row of a file written by write_table.

    A missing file, a header other than the expected one, a row with the
    wrong number of cells, or a ValueError from parse raises DataError naming
    the path and line.
    """
    path = Path(path)
    try:
        fh = path.open(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None
    with fh:
        got = fh.readline().rstrip("\n").split("\t")
        if got != list(header):
            raise DataError(f"{path}:1: bad header, expected {list(header)}, got {got}")
        width = len(got)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != width:
                raise DataError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
            try:
                row = parse(cells)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            yield row


def row_line(path: str | Path, index: int) -> int:
    """The line number of a table file's index-th (0-based) data row."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        numbers = (lineno for lineno, line in enumerate(fh, start=2) if line.rstrip("\n"))
        return next(islice(numbers, index, None))
