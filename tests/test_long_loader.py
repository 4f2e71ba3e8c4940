"""The long-form distance loader against the frozenset loader it replaced.

``load_distances(..., "long")`` numbers each id on first appearance and
keys each unordered pair by its two numbers. The oracle below is the
loader as it was before, keyed by a frozenset of the two ids and filling
the matrix pair by pair: for any file both give the same (ids, matrix)
bits, or the same exception type and message (path and line).
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moransar.dataio import _parse_float, _rows, _skip_header, _text, load_distances
from moransar.errors import MissingPair, MoranSarError, ParseError


def oracle_load(path):
    """The frozenset long-form loader, on the shared row reader."""
    rows = _skip_header(_rows(path, _text(path)), 2)
    pair_values = {}
    order = []
    seen = set()
    for lineno, fields in rows:
        if len(fields) != 3:
            raise ParseError(str(path), lineno, f"expected 3 fields, got {len(fields)}")
        id_a, id_b, raw_value = fields
        value = _parse_float(path, lineno, raw_value, "distance")
        for ident in (id_a, id_b):
            if ident not in seen:
                seen.add(ident)
                order.append(ident)
        if id_a == id_b:
            continue
        key = frozenset((id_a, id_b))
        if key in pair_values and pair_values[key] != value:
            raise ParseError(
                str(path), lineno,
                f"pair ({id_a}, {id_b}) already given as {pair_values[key]!r}, "
                f"now {value!r}",
            )
        pair_values[key] = value
    if len(order) < 2:
        raise ParseError(str(path), 0, "long-form file names fewer than 2 elements")
    ids = tuple(order)
    n = len(ids)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            key = frozenset((ids[i], ids[j]))
            if key not in pair_values:
                raise MissingPair(str(path), rows[-1][0], ids[i], ids[j])
            matrix[i, j] = matrix[j, i] = pair_values[key]
    return ids, matrix


def outcome(load, path):
    try:
        ids, matrix = load(path)
    except (MoranSarError, OSError) as exc:
        return type(exc), str(exc)
    return ids, matrix.tobytes()


def new_load(path):
    return load_distances(path, dist_format="long")


# ids as written: padded, quoted (one holding a comma), and two spellings
# of one id
IDS = ["a", "b", "c", "d", "e", " a ", '"a"', '"f,g"', '"h i"', "10"]
VALUES = st.one_of(
    st.sampled_from(["1", "1.0", " 2 ", "0", "0.0", "-0.0", "2.5", "1e-300", "+3"]),
    st.floats(0.01, 100.0).map(repr),
)
BAD_VALUES = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "1,5", '"1"', "--1"])


@st.composite
def long_files(draw):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6, unique=True))
    pairs = draw(st.permutations([(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]))
    values = {}
    lines = []
    for a, b in pairs:
        if draw(st.integers(0, 14)) == 0:
            continue  # a missing pair
        if draw(st.booleans()):
            a, b = b, a
        values[a, b] = draw(VALUES)
        lines.append([a, b, values[a, b]])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["repeat", "conflict", "self", "bad", "short"]))
        at = draw(st.integers(0, len(lines)))
        if kind in ("repeat", "conflict") and values:
            (a, b), value = draw(st.sampled_from(sorted(values.items())))
            if kind == "conflict":
                value = draw(VALUES)
            elif value in ("0", "0.0"):
                value = "-0.0"  # agrees with 0, and replaces its bits
            lines.insert(at, draw(st.sampled_from([[a, b], [b, a]])) + [value])
        elif kind == "self":
            ident = draw(st.sampled_from(IDS))
            lines.insert(at, [ident, ident, draw(st.sampled_from(["0", "5", "x"]))])
        elif kind == "bad" and lines:
            at = min(at, len(lines) - 1)
            lines[at] = lines[at][:2] + [draw(BAD_VALUES)]
        elif kind == "short":
            lines.insert(at, draw(st.sampled_from([["a", "b"], ["a", "b", "1", "2"]])))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from([["id_a", "id_b", "distance"],
                                              ["from", "to", "d"], ["a", "b", "km"]])))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     [draw(st.sampled_from(["", "# note", " , ,"]))])
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = "".join(",".join(line) + end for line in lines)
    bom = b"\xef\xbb\xbf" if draw(st.integers(0, 4)) == 0 else b""
    return bom + text.encode()


@given(data=long_files())
@settings(max_examples=400, deadline=None)
def test_same_bits_or_same_error_as_the_frozenset_loader(data):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "dist.csv"
        path.write_bytes(data)
        assert outcome(new_load, path) == outcome(oracle_load, path)


@pytest.mark.parametrize("data", [
    b"id_a,id_b,distance\na,b,1\nb,c,1\na,c,2\n",
    b"a,b,0\nb,a,-0.0\n",
    b"a,b,-0.0\nb,a,0\na,b,1\n",
    b'"x,y",b,1\r\nb,"x,y",1\r\n',
    b"a,a,0\nb,b,0\n",
    b"a,a,0\n",
    b"a,b,1\nc,d,1\n",
    b"a,b,1\nb,c,1\nc,d,1\na,c,1\n",
    b"a,b,1\nb,a,2\n",
    b"a,b,nan\n",
    b"a,b\n",
    b"",
])
def test_hand_picked_files(tmp_path, data):
    path = tmp_path / "dist.csv"
    path.write_bytes(data)
    assert outcome(new_load, path) == outcome(oracle_load, path)
