"""The matrix-form distance loader against the csv.reader loader it replaced.

``load_distances`` splits plain text (no quote, carriage return or NUL)
at newlines and commas and leaves every row that does not parse clean,
and every other file, to csv.reader. The oracle below is the loader as it
was before that split, csv.reader on every file: for any file both give
the same (ids, matrix) bits, or the same exception type and message
(path and line).
"""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moransar.dataio import load_distances
from moransar.errors import DuplicateId, MoranSarError, NonSquare, ParseError


def oracle_rows(path):
    out = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
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


def oracle_is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def oracle_float(path, lineno, text):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(str(path), lineno, f"distance is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(str(path), lineno, f"distance is not finite: {text!r}")
    return value


def oracle_load(path):
    """The csv.reader matrix loader, cell by cell."""
    rows = oracle_rows(path)
    if not rows:
        raise ParseError(str(path), 0, "empty distance file")
    first_fields = rows[0][1]
    has_header = not all(oracle_is_number(f) for f in first_fields)
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
    for i, (lineno, fields) in enumerate(body):
        if has_header:
            if len(fields) != n + 1:
                raise NonSquare(str(path), lineno,
                                f"expected id plus {n} values, got {len(fields)} fields")
            if fields[0] != ids[i]:
                raise ParseError(
                    str(path), lineno,
                    f"row id {fields[0]!r} does not match header id {ids[i]!r}",
                )
            numbers = fields[1:]
        else:
            if len(fields) != n:
                raise NonSquare(str(path), lineno, f"expected {n} values, got {len(fields)}")
            numbers = fields
        matrix[i] = [oracle_float(path, lineno, text) for text in numbers]
    return ids, matrix


def outcome(load, path):
    try:
        ids, matrix = load(path)
    except (MoranSarError, OSError) as exc:
        return type(exc), str(exc)
    return ids, matrix.tobytes()


PADDING = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\xa0", "\x1c", " "])
BAD_CELLS = st.sampled_from(
    ["", "abc", "nan", "NaN", "inf", "-inf", "1e999", "1O", "1_0", "1\x002", "\x00", "#3", "-"]
)


@st.composite
def cells(draw, plain):
    kind = draw(st.sampled_from(["number"] * 6 + ["bad"] + ([] if plain else ["quoted"])))
    if kind == "bad":
        text = draw(BAD_CELLS)
    else:
        text = repr(draw(st.floats(0.01, 100.0)))
    if kind == "quoted":
        text = f'"{text}"'
    return draw(PADDING) + text + draw(PADDING)


@st.composite
def matrix_files(draw):
    # half the files avoid quotes and carriage returns, which csv.reader
    # alone reads, so the split path and its fallbacks meet the oracle
    plain = draw(st.booleans())
    quoted = [] if plain else ['"{}"']
    n = draw(st.integers(1, 5))
    ids = [f"e{i}" for i in range(n)]
    header = draw(st.booleans())
    lines = []
    if header:
        shown = [draw(st.sampled_from(["{}", " {} ", *quoted])).format(i) for i in ids]
        lines.append(",".join([draw(st.sampled_from(["id", "", " ", *quoted])).format("id"),
                               *shown]))
    for i in range(n + draw(st.sampled_from([0, 0, 0, -1, 1]))):
        row = [draw(cells(plain))
               for _ in range(n + draw(st.sampled_from([0] * 8 + [-1, 1])))]
        if header:
            ident = ids[i % n]
            if draw(st.integers(0, 9)) == 0:
                ident = "x" + ident
            row.insert(0, draw(st.sampled_from(["{}", " {}", "{}\t", *quoted])).format(ident))
        lines.append(",".join(row))
    # comment and blank rows anywhere
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", "   ", ",,", " , ", "# note", " #x,1", "#,\x00"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ends = [draw(st.sampled_from(["\n"] * 6 + ([] if plain else ["\r\n", "\r"])))
            for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final line end
    bom = b"\xef\xbb\xbf" if draw(st.integers(0, 4)) == 0 else b""
    return bom + text.encode()


@given(data=matrix_files())
@settings(max_examples=400, deadline=None)
def test_same_bits_or_same_error_as_the_csv_loader(data):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "dist.csv"
        path.write_bytes(data)
        assert outcome(load_distances, path) == outcome(oracle_load, path)


@pytest.mark.parametrize("data", [
    b"id,a,b\na,0,1\nb,1,0\n",
    b"\xef\xbb\xbfid,a,b\r\na,0,1\r\nb,1,0\r\n",
    b"id,a,b\ra,0,1\rb,1,0\r",
    b'id,"a",b\na, 0 ,1\n"b",1,0\n',
    b"0, 1\n 1 ,0",
    b"id,a,b\n\n# c\n  ,  \na,\x1c0\x1c,1\nb,1,0\n",
    b"id,a,b\na,0,1\nb,1,nan\n",
    b"id,a,b\na,0,x\nb,1,inf\n",
    b"id,a,b\na,0,1\x00\nb,1,0\n",
    b"id,a,b\na,0,1\nc,1,0\n",
    b"id,a,b\na,0\nb,1,0\n",
    b"id,a,b\na,0,1\n",
    b"",
    b"\n \n# only\n",
])
def test_hand_picked_files(tmp_path, data):
    path = tmp_path / "dist.csv"
    path.write_bytes(data)
    assert outcome(load_distances, path) == outcome(oracle_load, path)


def test_field_longer_than_the_csv_limit(tmp_path):
    # csv.reader rejects such a field; a line that long goes to it
    path = tmp_path / "dist.csv"
    path.write_text("id,a,b\na,0," + "1" * (csv.field_size_limit() + 1) + "\nb,1,0\n")
    kind, message = outcome(load_distances, path)
    assert (kind, message) == outcome(oracle_load, path)
    assert kind is ParseError and "field larger than field limit" in message
