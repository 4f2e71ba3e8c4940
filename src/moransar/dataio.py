"""CSV ingestion and small text outputs.

Input formats:

- sizes: rows of ``id,value``; an optional header row is skipped.
- distances, matrix form: a header row of ids, then one row per element
  (row id first). A headerless all-numeric square matrix is accepted
  too, with positional ids.
- distances, long form: rows of ``id_a,id_b,distance``, after an
  optional header row; each unordered pair must appear at least once,
  repeats must agree.
- critical values: header ``n,alpha,d_l,d_u``; ``n`` is a positive
  integer.

In the sizes and long forms, a first row whose value field is non-empty
and neither is nor starts like a number (a digit, a sign or ``.``) is the
header.

Files are read as UTF-8, and a leading byte-order mark is dropped. Every
number must be finite. All parse failures carry the file path and 1-based
line number; a failure found only at the end of the file points at its
last row, and line 0 means the file as a whole.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateId,
    IdMismatch,
    InputError,
    MissingPair,
    NonSquare,
    ParseError,
)
from .inference import DwCriticalValues
from .spatial_data import RawSizeVector


def _text(path: str | Path, data: bytes | None = None) -> str:
    """The file's text, from ``data`` when the caller has read its bytes.

    Raises:
        ParseError: if the bytes are not UTF-8, at the line of the first
            one that is not.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # lines end at \n, \r or \r\n, as for the CSV reader
        line = len((exc.object[: exc.start] + b"x").splitlines())
        raise ParseError(str(path), line, f"not UTF-8 text ({exc.reason})") from None


def _rows(path: str | Path, text: str) -> list[tuple[int, list[str]]]:
    """Non-empty CSV rows as (1-based line number, stripped fields).

    A row whose quoted field spans lines carries the number of its last
    line.

    Raises:
        ParseError: if the text is not valid CSV.
    """
    out = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            fields = [f.strip() for f in row]
            if not fields or all(f == "" for f in fields):
                continue
            if fields[0].startswith("#"):
                continue
            out.append((reader.line_num, fields))
    except csv.Error as exc:
        raise ParseError(str(path), reader.line_num, f"malformed CSV: {exc}") from None
    return out


def _plain_lines(text: str) -> list[tuple[int, str]] | None:
    """The lines ``_rows`` keeps, as (line number, line), when splitting
    the text at LF and each line at commas gives its rows; None where
    csv.reader may read the text otherwise.

    Without a quote, a carriage return or a NUL, the reader ends lines
    only at LF and fields only at commas; it raises on a field longer
    than its limit, so a line that long is left to it as well. Blank and
    comment rows are judged on stripped fields, as ``_rows`` judges them.
    The lines stay whole, so a caller splits one row at a time.
    """
    if any(c in text for c in ('"', "\r", "\0")):
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    out = []
    for lineno, line in enumerate(lines, 1):
        head = line.split(",", 1)[0].strip()
        if head.startswith("#") or not (head or line.replace(",", "").strip()):
            continue
        out.append((lineno, line))
    return out


_NUMBER_STARTS = frozenset("0123456789+-.")


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _skip_header(
    rows: list[tuple[int, list[str]]], column: int
) -> list[tuple[int, list[str]]]:
    """Drop the first row if its field ``column`` is non-empty and neither
    is nor starts like a number."""
    if rows and len(rows[0][1]) > column:
        text = rows[0][1][column]
        if text and not _is_number(text) and text[0] not in _NUMBER_STARTS:
            return rows[1:]
    return rows


def _parse_float(path: str | Path, lineno: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(str(path), lineno, f"{what} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(str(path), lineno, f"{what} is not finite: {text!r}")
    return value


def load_sizes(path: str | Path, *, data: bytes | None = None) -> RawSizeVector:
    """Read an ``id,value`` CSV into a raw size vector.

    ``data`` is the file's bytes when the caller has read them already;
    ``path`` then only names the file in messages.

    Raises:
        ParseError: malformed rows or too few of them.
        DuplicateId: an id appears twice.
    """
    rows = _skip_header(_rows(path, _text(path, data)), 1)
    ids: list[str] = []
    values: list[float] = []
    seen: set[str] = set()
    for lineno, fields in rows:
        if len(fields) != 2:
            raise ParseError(str(path), lineno, f"expected 2 fields, got {len(fields)}")
        ident, raw_value = fields
        if ident in seen:
            raise DuplicateId(str(path), lineno, f"duplicate id {ident!r}")
        seen.add(ident)
        ids.append(ident)
        values.append(_parse_float(path, lineno, raw_value, "size value"))
    if len(values) < 2:
        raise ParseError(str(path), 0, f"need at least 2 size rows, got {len(values)}")
    return RawSizeVector(ids=tuple(ids), values=np.asarray(values))


def _load_distance_matrix(path: str | Path, text: str) -> tuple[tuple[str, ...], np.ndarray]:
    # split rows keep their whitespace: an id is stripped here, and float()
    # ignores the whitespace around a number that strip() removes
    lines = _plain_lines(text)
    rows = _rows(path, text) if lines is None else lines

    def fields_of(row) -> list[str]:
        return row if lines is None else row.split(",")

    if not rows:
        raise ParseError(str(path), 0, "empty distance file")

    first_fields = [f.strip() for f in fields_of(rows[0][1])]
    has_header = not all(_is_number(f) for f in first_fields)
    if has_header:
        ids = tuple(first_fields[1:])
        body = rows[1:]
        if len(ids) < 2:
            raise ParseError(str(path), rows[0][0], "header lists fewer than 2 ids")
        if len(set(ids)) != len(ids):
            raise DuplicateId(str(path), rows[0][0], "repeated id in distance header")
    else:
        ids = tuple(str(i) for i in range(len(first_fields)))
        body = rows

    n = len(ids)
    if len(body) != n:
        lineno = body[n][0] if len(body) > n else rows[-1][0]
        raise NonSquare(str(path), lineno, f"{n} columns but {len(body)} data rows")
    matrix = np.zeros((n, n))
    for i, (lineno, row) in enumerate(body):
        fields = fields_of(row)
        if has_header:
            if len(fields) != n + 1:
                raise NonSquare(str(path), lineno,
                                f"expected id plus {n} values, got {len(fields)} fields")
            ident = fields[0].strip()
            if ident != ids[i]:
                raise ParseError(
                    str(path), lineno,
                    f"row id {ident!r} does not match header id {ids[i]!r}",
                )
            numbers = fields[1:]
        else:
            if len(fields) != n:
                raise NonSquare(str(path), lineno, f"expected {n} values, got {len(fields)}")
            numbers = fields
        try:
            matrix[i] = list(map(float, numbers))
            clean = np.isfinite(matrix[i]).all()
        except ValueError:
            clean = False
        if not clean:
            # the same float() cell by cell on stripped cells, which names
            # the first bad cell (float() rejects the separators \x1c-\x1f
            # that strip() removes)
            matrix[i] = [_parse_float(path, lineno, cell.strip(), "distance")
                         for cell in numbers]
    return ids, matrix


def _load_distance_long(path: str | Path, text: str) -> tuple[tuple[str, ...], np.ndarray]:
    rows = _skip_header(_rows(path, text), 2)
    index: dict[str, int] = {}
    pair_values: dict[tuple[int, int], float] = {}
    for lineno, fields in rows:
        if len(fields) != 3:
            raise ParseError(str(path), lineno, f"expected 3 fields, got {len(fields)}")
        id_a, id_b, raw_value = fields
        value = _parse_float(path, lineno, raw_value, "distance")
        a, b = index.setdefault(id_a, len(index)), index.setdefault(id_b, len(index))
        if a == b:
            continue  # self-distance is never used
        key = (min(a, b), max(a, b))
        known = pair_values.get(key, value)
        if known != value:
            raise ParseError(
                str(path), lineno,
                f"pair ({id_a}, {id_b}) already given as {known!r}, now {value!r}",
            )
        pair_values[key] = value
    if len(index) < 2:
        raise ParseError(str(path), 0, "long-form file names fewer than 2 elements")
    ids = tuple(index)
    n = len(ids)
    matrix = np.full((n, n), np.nan)
    np.fill_diagonal(matrix, 0.0)
    i, j = np.array(list(pair_values), dtype=np.intp).reshape(-1, 2).T
    matrix[i, j] = matrix[j, i] = list(pair_values.values())
    # row by row the first gap lies above the diagonal: a gap below it
    # mirrors one in an earlier row
    missing = np.argwhere(np.isnan(matrix))
    if missing.size:
        i, j = missing[0].tolist()
        raise MissingPair(str(path), rows[-1][0], ids[i], ids[j])
    return ids, matrix


def load_distances(
    path: str | Path, dist_format: str = "matrix", *, data: bytes | None = None
) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a distance file; returns (ids, raw distance matrix).

    ``data`` is the file's bytes when the caller has read them already;
    ``path`` then only names the file in messages. Symmetry and
    positivity are enforced downstream when the matrix is inverted into
    proximities, under the caller's symmetrize policy.

    Raises:
        ParseError, NonSquare, DuplicateId, MissingPair: per format.
        InputError: on an unknown dist_format.
    """
    if dist_format == "matrix":
        return _load_distance_matrix(path, _text(path, data))
    if dist_format == "long":
        return _load_distance_long(path, _text(path, data))
    raise InputError(f"unknown distance format: {dist_format!r}")


def align_to_ids(raw: RawSizeVector, ids: tuple[str, ...]) -> RawSizeVector:
    """Reorder a size vector to match the distance matrix's id order.

    Raises:
        IdMismatch: if the two id sets differ.
    """
    if set(raw.ids) != set(ids):
        raise IdMismatch(sorted(set(ids) - set(raw.ids)), sorted(set(raw.ids) - set(ids)))
    if raw.ids == ids:
        return raw
    position = {ident: k for k, ident in enumerate(raw.ids)}
    order = [position[ident] for ident in ids]
    return RawSizeVector(ids=ids, values=raw.values[order])


def load_critical_values(path: str | Path) -> dict[tuple[int, float], DwCriticalValues]:
    """Read a ``n,alpha,d_l,d_u`` CSV into a lookup table.

    Raises:
        ParseError: malformed rows, missing header, duplicate (n, alpha),
            or rows violating 0 < d_l < d_u < 2.
    """
    rows = _rows(path, _text(path))
    if not rows or [f.lower() for f in rows[0][1]] != ["n", "alpha", "d_l", "d_u"]:
        raise ParseError(str(path), rows[0][0] if rows else 0,
                         "expected header 'n,alpha,d_l,d_u'")
    table: dict[tuple[int, float], DwCriticalValues] = {}
    for lineno, fields in rows[1:]:
        if len(fields) != 4:
            raise ParseError(str(path), lineno, f"expected 4 fields, got {len(fields)}")
        count = _parse_float(path, lineno, fields[0], "n")
        if count < 1 or not count.is_integer():
            raise ParseError(str(path), lineno,
                             f"n is not a positive integer: {fields[0]!r}")
        n = int(count)
        alpha = _parse_float(path, lineno, fields[1], "alpha")
        d_l = _parse_float(path, lineno, fields[2], "d_l")
        d_u = _parse_float(path, lineno, fields[3], "d_u")
        if (n, alpha) in table:
            raise ParseError(str(path), lineno, f"duplicate row for n={n}, alpha={alpha}")
        try:
            table[(n, alpha)] = DwCriticalValues(n=n, alpha=alpha, d_l=d_l, d_u=d_u)
        except InputError as exc:
            raise ParseError(str(path), lineno, str(exc)) from None
    return table


def load_reference_values() -> dict:
    """Published 35-city results bundled for comparison runs.

    The underlying dataset is not distributed; the dict's
    ``dataset_available`` flag is False and the values serve as the
    comparison target for user-supplied copies of the data.
    """
    # imported here: no verb reads the bundled values, and without a site
    # file that preloads it importlib.resources costs every import 5-12 ms
    from importlib import resources

    text = (
        resources.files("moransar") / "data" / "reference_values.json"
    ).read_text()
    return json.loads(text)


def write_csv(path: str | Path, header: list[str], rows, comments=()) -> None:
    """Write each of ``comments`` as a ``# `` line, then ``header`` and the
    iterable ``rows`` of string lists as CSV, all with LF line ends; every
    CSV artifact is written here."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_sizes(raw: RawSizeVector, path: str | Path) -> None:
    """Write a size vector as an ``id,value`` CSV."""
    write_csv(path, ["id", "value"],
              ([ident, repr(float(value))] for ident, value in zip(raw.ids, raw.values)))


def write_distance_matrix(
    ids: tuple[str, ...], matrix: np.ndarray, path: str | Path
) -> None:
    """Write a distance matrix in the header-row CSV format, which the
    loader reads without csv.reader when no id needs quotes."""
    write_csv(path, ["id", *ids],
              ([ident, *(repr(float(v)) for v in row)] for ident, row in zip(ids, matrix)))


def write_scatter_csv(dataset, path: str | Path) -> None:
    """Write scatter points as x,y rows, with trend lines in # comments."""
    lines = [line for line in (dataset.theoretical_line, dataset.empirical_line)
             if line is not None]
    write_csv(
        path,
        [dataset.x_label.replace(" ", "_"), dataset.y_label.replace(" ", "_")],
        ([repr(float(x)), repr(float(y))] for x, y in dataset.points),
        comments=[f"mode {dataset.mode}",
                  *(f"line {line.slope!r} {line.intercept!r} {line.label}" for line in lines)],
    )
