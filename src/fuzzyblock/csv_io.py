"""Product CSV text and the checked reading of CSV files.

Every command writes its CSV products with ``csv_text`` and reads CSV input
through ``read_csv_rows`` and ``finite_rows``, so one rule serves the crisp
sweep, the dataset, the surrogate and ``plot``.  The commands pass every
field as text, formatted once per column, and ``csv_text`` joins such
fields directly when none needs quoting; ``csv.writer`` writes the rest
with the same bytes.  The module needs only the standard library and numpy.
"""
from __future__ import annotations

import csv
import io
import math
from typing import Optional, Sequence

import numpy as np


def csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A product CSV: the header, then the rows, with bare newlines between lines.

    The text is that of ``csv.writer`` with ``lineterminator="\\n"``.  A line
    of at least two ``str`` fields none of which holds a comma, a quote, a
    carriage return, a newline or a NUL is written unquoted, so it is built
    by joining its fields, with the same bytes.  A comma inside a field shows
    as one more comma than the line's width accounts for, and only such
    lines, and lines of one field or none (a lone empty field is quoted), go
    through ``csv.writer``.  Any other input (a field of another type, a
    quote, a carriage return, a newline or a NUL, which writers before
    Python 3.11 reject) goes through ``csv.writer`` whole.
    """
    lines = [header, *rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    try:
        widths = list(map(len, lines))
        texts = [",".join(line) for line in lines]
    except TypeError:  # a line that is not a sequence or a field that is not a str
        texts = []
    text = "\n".join(texts) + "\n"
    if not texts or text.count("\n") != len(texts) or any(c in text for c in '"\r\0'):
        writer.writerows(lines)
        return buf.getvalue()
    if min(widths) >= 2 and text.count(",") == sum(widths) - len(widths):
        return text
    commas = np.fromiter(map(str.count, texts, [","] * len(texts)), int, len(texts))
    width = np.array(widths)
    quoted = np.flatnonzero((commas != width - 1) | (width < 2)).tolist()
    # no field holds a newline, so the quoted lines split apart
    writer.writerows([lines[k] for k in quoted])
    for k, line in zip(quoted, buf.getvalue().split("\n")):
        texts[k] = line
    return "\n".join(texts) + "\n"


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def finite_rows(
    rows: Sequence[Sequence[str]], columns: Sequence[str], path: str, lines: Sequence[int]
) -> list[list[float]]:
    """CSV fields as floats; ``lines`` holds each row's line number in ``path``.

    A field that is not a finite number is a ValueError naming the file, the
    line and the column, as project files are checked.
    """
    try:
        table = [[float(v) for v in row] for row in rows]
        if np.isfinite(table).all():
            return table
    except ValueError:
        pass
    line, column = next(
        (line, column) for row, line in zip(rows, lines)
        for text, column in zip(row, columns) if not _finite(text)
    )
    raise ValueError(f"{path} line {line}: {column} must be a finite number")


def read_csv_rows(
    path: str, header: Optional[Sequence[str]] = None
) -> tuple[list[str], list[list[str]], list[int]]:
    """Header, nonempty rows and their line numbers, of a CSV whose every row
    is as wide as its header; with ``header`` given, the file's must equal it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if header is not None and (found is None or tuple(found) != tuple(header)):
            raise ValueError(f"{path}: dataset header must be {','.join(header)}, got {found}")
        if found is None:
            raise ValueError(f"{path} is empty")
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(found):
                raise ValueError(f"{path} line {reader.line_num}: expected "
                                 f"{len(found)} fields, got {len(row)}")
            rows.append(row)
            lines.append(reader.line_num)
    return found, rows, lines
