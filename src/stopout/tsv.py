"""The one codec for the pipeline's header-row, tab-separated files.

A table is a header row naming its columns, then one line per row with
exactly that many tab-separated cells; blank lines are ignored. Cells are
written with str() (the %s format), which for a Python float is its repr, so
floats read back bit-exactly with float(). Readers take about CHUNK_BYTES of
whole lines at a time, and hold no more than one chunk as text.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .errors import DataError, PipelineError

Row = TypeVar("Row")

CHUNK_BYTES = 1 << 17  # larger chunks read no faster, and their cells raise the peak RSS


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write the header, then each row's cells joined by tabs.

    Every row must have one cell per header column (TypeError otherwise).
    """
    line = "\t".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


@dataclass
class Chunk:
    """Consecutive data rows of a table file."""

    path: Path
    header: list[str]  # the file's header
    rows: list[str]  # the rows' text
    lines: list[str]  # the lines the rows came from, blank ones included
    first_line: int  # the line number of lines[0]
    dropped: int = 0  # rows of the wrong width left out of rows (error() is then off)

    def columns(self) -> dict[str, list[str]]:
        """Each header column's cells."""
        cells = "\t".join(self.rows).split("\t") if self.rows else []
        return {name: cells[i::len(self.header)] for i, name in enumerate(self.header)}

    def error(self, row: int, text: str) -> DataError:
        """A DataError at the path and line of rows[row]; it scans the chunk."""
        line = next(islice((n for n, line in enumerate(self.lines, self.first_line) if line), row, None))
        return DataError(f"{self.path}:{line}: {text}")


@contextmanager
def _reading(path: str | Path, error: type[PipelineError]) -> Iterator[TextIO]:
    """A text file open for reading; one that is missing, unreadable or not
    valid UTF-8 raises error, the last naming its first bad line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        missing = isinstance(exc, FileNotFoundError)
        raise error(f"{path}: " + ("file not found" if missing else f"cannot read: {exc.strerror}")) from None
    except UnicodeDecodeError:
        # read again, each bad byte a lone surrogate: no valid UTF-8 decodes to one, and it encodes only lossily
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            line = next(n for n, text in enumerate(fh, 1) if text.encode("utf-8", "replace").decode() != text)
        raise error(f"{path}:{line}: not valid UTF-8") from None


def read_lines(path: str | Path, error: type[PipelineError] = DataError) -> list[str]:
    """A plain text file's lines, split at "\\n" alone as file iteration does (not also at "\\x85",
    "\\u2028", ... as str.splitlines() does); a file that cannot be read raises error."""
    with _reading(path, error) as fh:
        return fh.read().split("\n")


def line_bound(path: str | Path) -> int:
    """An upper bound on a text file's lines, so also on its rows: its line
    ends, each "\\n" or "\\r" (universal newlines read both), plus one; 0 if
    the file cannot be opened, for read_chunks to report."""
    try:
        with open(path, "rb") as fh:
            return 1 + sum(block.count(b"\n") + block.count(b"\r") for block in iter(lambda: fh.read(1 << 20), b""))
    except OSError:
        return 0


def read_chunks(path: str | Path, header: Sequence[str], lenient: bool = False) -> Iterator[Chunk]:
    """Yield a table file's data rows a chunk at a time. An unreadable file, a
    wrong header or a row of the wrong width raises DataError, the last once
    the rows before it are yielded. lenient allows the header's columns in
    any order, and leaves rows of the wrong width out, counted instead."""
    path = Path(path)
    with _reading(path, DataError) as fh:
        got = fh.readline().rstrip("\n").split("\t")
        if (sorted(got) != sorted(header)) if lenient else (got != list(header)):
            raise DataError(f"{path}:1: bad header, expected {list(header)}{' in any order' * lenient}, got {got}")
        tabs, first_line = len(got) - 1, 2
        while lines := fh.readlines(CHUNK_BYTES):
            # split at "\n" alone, as read_lines does; drop what follows the last
            lines = "".join(lines).split("\n")[:len(lines)]
            chunk = Chunk(path, got, list(filter(None, lines)), lines, first_line)
            first_line += len(lines)
            # a count per row: over the whole chunk, a long row could hide a short one
            counts = list(map(str.count, chunk.rows, repeat("\t")))
            wrong = [i for i, n in enumerate(counts) if n != tabs] if counts.count(tabs) != len(counts) else []
            if wrong and not lenient:
                if wrong[0]:
                    yield Chunk(path, got, chunk.rows[:wrong[0]], lines, chunk.first_line)
                raise chunk.error(wrong[0], f"expected {tabs + 1} cells, got {counts[wrong[0]] + 1}")
            if wrong:
                chunk.rows, chunk.dropped = [row for row, n in zip(chunk.rows, counts) if n == tabs], len(wrong)
            if chunk.rows or chunk.dropped:
                yield chunk


def read_table(path: str | Path, header: Sequence[str], parse: Callable[[list[str]], Row] = list) -> Iterator[Row]:
    """Yield parse(cells) for each data row of a file written by write_table;
    a ValueError from parse is a DataError naming the path and line."""
    for chunk in read_chunks(path, header):
        for index, row in enumerate(chunk.rows):
            try:
                parsed = parse(row.split("\t"))
            except ValueError as exc:
                raise chunk.error(index, str(exc)) from None
            yield parsed
