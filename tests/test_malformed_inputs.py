"""Fuzzed CSV input through the CLI: every malformed file exits 1 with a
path:line message and no traceback; BOM and CRLF variants of a valid file
are read exactly like the plain file. Malformed command-line values exit 1
with a message naming the value, and no traceback or warning."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moransar.cli import main

LETTERS = ("a", "b", "c", "d", "e")
NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999")
DIGIT_LED = ("1O", "1..2", "-2x", ".5.5")


def element_ids(dist_format, header):
    """A headerless matrix names its elements by position."""
    return tuple("01234") if dist_format == "matrix" and not header else LETTERS


def sizes_lines(ids, values, header):
    lines = [f"{ids[i]},{v!r}" for i, v in enumerate(values)]
    return (["id,value"] if header else []) + lines


def matrix_lines(ids, dist, header):
    n = len(dist)
    if header:
        return ["id," + ",".join(ids[:n])] + [
            ids[i] + "," + ",".join(repr(dist[i][j]) for j in range(n)) for i in range(n)
        ]
    return [",".join(repr(dist[i][j]) for j in range(n)) for i in range(n)]


def long_lines(ids, dist, header):
    n = len(dist)
    rows = [f"{ids[i]},{ids[j]},{dist[i][j]!r}"
            for i in range(n) for j in range(i + 1, n)]
    return (["from,to,distance"] if header else []) + rows


def critical_lines():
    return ["n,alpha,d_l,d_u", "3,0.05,1.1,1.5", "4,0.05,1.2,1.6"]


@st.composite
def instances(draw):
    n = draw(st.integers(3, 5))
    values = draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n, unique=True))
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(st.floats(0.5, 5.0))
    return values, dist


def write(path, lines, crlf=False, bom=False):
    text = ("\r\n" if crlf else "\n").join(lines) + ("\r\n" if crlf else "\n")
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode())


def run_cli(argv):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def replace_field(line, k, text):
    fields = line.split(",")
    fields[k] = text
    return ",".join(fields)


def corrupt(draw, lines, first_data, value_column, kind, value_decides_header):
    """Corrupt one data row; returns (lines, row to get bad bytes, line number).

    The line number is the 1-based line the loader must report, or None
    when the fault is only visible at the file level. Text in the first
    row of a headerless file may read as a header. Where the value field
    decides (value_decides_header), empty text or text that starts like a
    number does not, so that row gets one of those; elsewhere the fault
    goes lower.
    """
    lowest = first_data
    if kind == "not_a_number" and not value_decides_header:
        lowest = max(first_data, 1)
    k = draw(st.integers(lowest, len(lines) - 1))
    lines = list(lines)
    if kind == "non_finite":
        lines[k] = replace_field(lines[k], value_column, draw(st.sampled_from(NON_FINITE)))
    elif kind == "not_a_number":
        texts = ("", *DIGIT_LED) if k == 0 else ("x", "", *DIGIT_LED)
        lines[k] = replace_field(lines[k], value_column, draw(st.sampled_from(texts)))
    elif kind == "ragged":
        fields = lines[k].split(",")
        lines[k] = ",".join(fields[:-1] if draw(st.booleans()) else fields + ["7"])
        if k == 0:
            return lines, None, None
    elif kind == "non_utf8":
        return lines, k, k + 1
    return lines, None, k + 1


def write_corrupt(path, lines, bad_byte_line, crlf, bom):
    write(path, lines, crlf, bom)
    if bad_byte_line is not None:
        data = path.read_bytes()
        ending = b"\r\n" if crlf else b"\n"
        parts = data.split(ending)
        parts[bad_byte_line] = parts[bad_byte_line] + b"\xff\xfe"
        path.write_bytes(ending.join(parts))


ROW_FAULTS = ("non_finite", "not_a_number", "ragged", "non_utf8")


@given(
    inst=instances(),
    target=st.sampled_from(("sizes", "matrix", "long", "critical")),
    header=st.booleans(),
    crlf=st.booleans(),
    bom=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_malformed_file_exits_1_with_location(inst, target, header, crlf, bom, data):
    values, dist = inst
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sizes, dists, crit = tmp / "sizes.csv", tmp / "dist.csv", tmp / "crit.csv"
        dist_format = "long" if target == "long" else "matrix"
        ids = element_ids(dist_format, header)
        size_rows = sizes_lines(ids, values, header)
        dist_rows = (long_lines if target == "long" else matrix_lines)(ids, dist, header)
        crit_rows = critical_lines()
        first = 1 if header else 0
        structural = {
            "sizes": ("duplicate_id",),
            "matrix": ("duplicate_id", "extra_row", "missing_row") if header else (),
            "long": ("gap", "conflicting_pair"),
            "critical": ("bad_count", "bad_bands", "duplicate_row"),
        }[target]
        kind = data.draw(st.sampled_from(ROW_FAULTS + structural))
        value_column = {"sizes": 1, "matrix": -1, "long": 2, "critical": 2}[target]
        rows = {"sizes": size_rows, "matrix": dist_rows, "long": dist_rows,
                "critical": crit_rows}[target]
        first_data = 1 if target == "critical" else first
        bad_byte_line, line = None, None
        if kind in ROW_FAULTS:
            rows, bad_byte_line, line = corrupt(data.draw, rows, first_data, value_column,
                                                kind, target in ("sizes", "long"))
        elif kind == "duplicate_id" and target == "sizes":
            rows = rows + [rows[-1]]
            line = len(rows)
        elif kind == "duplicate_id":
            rows = [rows[0].replace(f",{ids[1]}", f",{ids[0]}", 1)] + rows[1:]
            line = 1
        elif kind == "extra_row":
            rows = rows + [rows[-1]]
        elif kind == "missing_row":
            rows = rows[:-1]
        elif kind == "gap":
            k = data.draw(st.integers(first, len(rows) - 1))
            rows = rows[:k] + rows[k + 1:]
        elif kind == "conflicting_pair":
            rows = rows + [replace_field(rows[-1], 2, "99.5")]
            line = len(rows)
        elif kind == "bad_count":
            count = data.draw(st.sampled_from(("35.7", "0", "-3", "inf", "nan", "x")))
            rows = [rows[0], replace_field(rows[1], 0, count)] + rows[2:]
            line = 2
        elif kind == "bad_bands":
            rows = [rows[0], "5,0.05,1.7,1.2"] + rows[1:]
            line = 2
        elif kind == "duplicate_row":
            rows = rows + [rows[-1]]
            line = len(rows)

        target_path = {"sizes": sizes, "matrix": dists, "long": dists, "critical": crit}[target]
        for path, lines in ((sizes, size_rows), (dists, dist_rows), (crit, crit_rows)):
            if path == target_path:
                write_corrupt(path, rows, bad_byte_line, crlf, bom)
            else:
                write(path, lines)

        argv = ["analyze", "--sizes", str(sizes), "--dist", str(dists),
                "--dist-format", dist_format, "--permutations", "0",
                "--out", str(tmp / "out")]
        if target == "critical":
            argv += ["--dw-critical", str(crit)]
        code, _out, err = run_cli(argv)

    assert code == 1, (kind, err)
    assert "Traceback" not in err
    match = re.search(re.escape(str(target_path)) + r":(\d+): ", err)
    assert match, (kind, err)
    if line is not None:
        assert int(match.group(1)) == line, (kind, err)


@given(
    inst=instances(),
    dist_format=st.sampled_from(("matrix", "long")),
    header=st.booleans(),
    crlf=st.booleans(),
    bom=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_bom_and_crlf_read_like_the_plain_file(inst, dist_format, header, crlf, bom):
    values, dist = inst
    ids = element_ids(dist_format, header)
    build = long_lines if dist_format == "long" else matrix_lines
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for variant, (v_crlf, v_bom) in enumerate(((False, False), (crlf, bom))):
            sizes, dists = tmp / f"sizes{variant}.csv", tmp / f"dist{variant}.csv"
            write(sizes, sizes_lines(ids, values, header), v_crlf, v_bom)
            write(dists, build(ids, dist, header), v_crlf, v_bom)
            code, out, err = run_cli(["bounds", "--sizes", str(sizes), "--dist", str(dists),
                                      "--dist-format", dist_format])
            assert code == 0, err
            outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "dist_format, size_rows, dist_rows, target, message",
    [
        ("matrix", ["a,", "b,2", "c,3"], ["id,a,b,c", "a,0,1,2", "b,1,0,1", "c,2,1,0"],
         "sizes", "size value is not a number: ''"),
        ("long", ["a,1", "b,2", "c,3"], ["a,b,", "a,c,2", "b,c,1"],
         "dist", "distance is not a number: ''"),
    ],
)
def test_empty_first_value_is_data_not_a_header(
    tmp_path, dist_format, size_rows, dist_rows, target, message
):
    write(tmp_path / "sizes.csv", size_rows)
    write(tmp_path / "dist.csv", dist_rows)
    code, _out, err = run_cli(
        ["analyze", "--sizes", str(tmp_path / "sizes.csv"), "--dist", str(tmp_path / "dist.csv"),
         "--dist-format", dist_format, "--permutations", "0", "--out", str(tmp_path / "out")]
    )
    assert code == 1, err
    assert f"{tmp_path / (target + '.csv')}:1: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--n", "0"], "--n must be at least 2, got 0"),
        (["simulate", "--n", "-3"], "--n must be at least 2, got -3"),
        (["simulate", "--n", "1"], "--n must be at least 2, got 1"),
        (["simulate", "--n", "5", "--noise-sd", "nan"], "a, rho and noise_sd must be finite"),
        (["simulate", "--n", "5", "--rho", "inf"], "a, rho and noise_sd must be finite"),
        (["simulate", "--n", "5", "--a=-inf"], "a, rho and noise_sd must be finite"),
        (["verify", "--instances", "-5"], "instance count must be nonnegative"),
    ],
)
def test_malformed_argument_exits_1(tmp_path, argv, message):
    if argv[0] == "simulate":
        argv = argv + ["--seed", "1", "--out", str(tmp_path / "out")]
    code, out, err = run_cli(argv)
    assert code == 1, err
    assert message in err
    assert "Traceback" not in err and "Warning" not in err
    assert out == ""
    assert not (tmp_path / "out").exists()
