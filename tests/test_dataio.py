"""CSV loaders, writers, and the bundled reference-values slot."""

import numpy as np
import pytest

from moransar.autocorr import MODE_AUTOCORRELATION, scatter_dataset
from moransar.dataio import (
    align_to_ids,
    load_critical_values,
    load_distances,
    load_reference_values,
    load_sizes,
    write_distance_matrix,
    write_scatter_csv,
    write_sizes,
)
from moransar.errors import (
    DuplicateId,
    IdMismatch,
    InputError,
    MissingPair,
    NonSquare,
    ParseError,
)
from moransar.sar import fit_sar_ols
from moransar.spatial_data import RawSizeVector, prepare


def write(path, text):
    path.write_text(text)
    return path


class TestLoadSizes:
    def test_with_header(self, tmp_path):
        p = write(tmp_path / "s.csv", "id,value\na,1.5\nb,2.5\n")
        raw = load_sizes(p)
        assert raw.ids == ("a", "b")
        np.testing.assert_array_equal(raw.values, [1.5, 2.5])

    def test_without_header(self, tmp_path):
        p = write(tmp_path / "s.csv", "a,1.5\nb,2.5\n")
        assert load_sizes(p).ids == ("a", "b")

    def test_mistyped_first_value_is_not_a_header(self, tmp_path):
        # a value that starts like a number is data, so the typo is reported
        p = write(tmp_path / "s.csv", "a,1O\nb,2\n")
        with pytest.raises(ParseError, match="is not a number") as err:
            load_sizes(p)
        assert err.value.line == 1

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        p = write(tmp_path / "s.csv", "# generated\na,1\n\nb,2\n")
        assert load_sizes(p).n == 2

    def test_duplicate_id(self, tmp_path):
        p = write(tmp_path / "s.csv", "a,1\na,2\n")
        with pytest.raises(DuplicateId):
            load_sizes(p)

    def test_bad_value(self, tmp_path):
        p = write(tmp_path / "s.csv", "a,1\nb,oops\n")
        with pytest.raises(ParseError) as err:
            load_sizes(p)
        assert err.value.line == 2

    def test_line_numbers_count_lines_not_rows(self, tmp_path):
        # the quoted id spans lines 2-3, so the bad value sits on line 5
        p = write(tmp_path / "s.csv", 'id,value\n"a\nx",1\nb,2\nc,oops\n')
        with pytest.raises(ParseError) as err:
            load_sizes(p)
        assert err.value.line == 5

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        p = write(tmp_path / "s.csv", "id,value\n" + "a" * 200_000 + ",1\nb,2\n")
        with pytest.raises(ParseError) as err:
            load_sizes(p)
        assert err.value.line == 2

    def test_wrong_field_count(self, tmp_path):
        p = write(tmp_path / "s.csv", "a,1\nb,2,3\n")
        with pytest.raises(ParseError):
            load_sizes(p)

    def test_too_few_rows(self, tmp_path):
        p = write(tmp_path / "s.csv", "a,1\n")
        with pytest.raises(ParseError):
            load_sizes(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_sizes(tmp_path / "absent.csv")


class TestLoadDistanceMatrix:
    def test_with_header(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,a,b\na,0,2\nb,2,0\n")
        ids, m = load_distances(p)
        assert ids == ("a", "b")
        np.testing.assert_array_equal(m, [[0.0, 2.0], [2.0, 0.0]])

    def test_headerless_numeric(self, tmp_path):
        p = write(tmp_path / "d.csv", "0,2\n2,0\n")
        ids, m = load_distances(p)
        assert ids == ("0", "1")
        np.testing.assert_array_equal(m, [[0.0, 2.0], [2.0, 0.0]])

    def test_non_square(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,a,b\na,0,2\n")
        with pytest.raises(NonSquare):
            load_distances(p)

    def test_row_id_mismatch(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,a,b\na,0,2\nc,2,0\n")
        with pytest.raises(ParseError):
            load_distances(p)

    def test_repeated_header_id(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,a,a\na,0,2\na,2,0\n")
        with pytest.raises(DuplicateId):
            load_distances(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.csv", "")
        with pytest.raises(ParseError):
            load_distances(p)

    def test_bad_cell_mid_row_is_located(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,a,b,c\na,0,1,2\nb,1,x,1\nc,2,1,0\n")
        with pytest.raises(ParseError, match=r"d\.csv:3: distance is not a number: 'x'"):
            load_distances(p)

    def test_first_of_two_bad_cells_is_named(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,a,b,c\na,0,1,2\nb,1,0,1\nc,2,?,oops\n")
        with pytest.raises(ParseError, match=r"d\.csv:4: distance is not a number: '\?'"):
            load_distances(p)

    def test_earlier_row_fails_first(self, tmp_path):
        # rows fail in file order: the non-finite cell on line 1 before the word on line 2
        p = write(tmp_path / "d.csv", "0,inf,2\n1,0,x\n2,1,0\n")
        with pytest.raises(ParseError, match=r"d\.csv:1: distance is not finite: 'inf'"):
            load_distances(p)

    @pytest.mark.parametrize("cell", ["inf", "1e999", "-inf", "nan"])
    def test_non_finite_cell_is_located(self, tmp_path, cell):
        p = write(tmp_path / "d.csv", f"id,a,b\na,0,2\nb,{cell},0\n")
        with pytest.raises(ParseError, match=rf"d\.csv:3: distance is not finite: '{cell}'"):
            load_distances(p)

    def test_cells_parse_like_float(self, tmp_path):
        cells = ["0", "0.1", "1e-320", "-0", "2.5", "3.000000000000000444"]
        p = write(tmp_path / "d.csv", ",".join(cells) + "\n" + "\n".join([",".join(cells)] * 5) + "\n")
        _, m = load_distances(p)
        expected = np.array([float(c) for c in cells])
        assert m.tobytes() == np.tile(expected, (6, 1)).tobytes()


class TestLoadDistanceLong:
    def test_round_trip_vs_matrix(self, tmp_path, fixtures_dir):
        ids_m, matrix = load_distances(fixtures_dir / "chain_distances.csv")
        ids_l, long = load_distances(
            fixtures_dir / "chain_distances_long.csv", dist_format="long"
        )
        assert set(ids_m) == set(ids_l)
        order = [ids_l.index(i) for i in ids_m]
        np.testing.assert_array_equal(long[np.ix_(order, order)], matrix)

    def test_missing_pair(self, tmp_path):
        p = write(tmp_path / "d.csv", "id_a,id_b,distance\na,b,1\nb,c,1\n")
        with pytest.raises(MissingPair):
            load_distances(p, dist_format="long")

    def test_mistyped_first_distance_is_not_a_header(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,1O\nb,c,1\na,c,1\n")
        with pytest.raises(ParseError, match="is not a number") as err:
            load_distances(p, dist_format="long")
        assert err.value.line == 1

    def test_conflicting_repeat(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,1\nb,a,2\n")
        with pytest.raises(ParseError):
            load_distances(p, dist_format="long")

    def test_agreeing_repeat_ok(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,1\nb,a,1\n")
        ids, m = load_distances(p, dist_format="long")
        assert ids == ("a", "b")
        assert m[0, 1] == 1.0

    def test_self_pair_ignored(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,a,9\na,b,1\n")
        _, m = load_distances(p, dist_format="long")
        assert m[0, 0] == 0.0

    def test_unknown_format(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,1\n")
        with pytest.raises(InputError):
            load_distances(p, dist_format="wide")


class TestAlignToIds:
    def test_reorders(self):
        raw = RawSizeVector(ids=("b", "a"), values=np.array([2.0, 1.0]))
        out = align_to_ids(raw, ("a", "b"))
        assert out.ids == ("a", "b")
        np.testing.assert_array_equal(out.values, [1.0, 2.0])

    def test_identity_short_circuit(self):
        raw = RawSizeVector(ids=("a", "b"), values=np.array([1.0, 2.0]))
        assert align_to_ids(raw, ("a", "b")) is raw

    def test_mismatch(self):
        raw = RawSizeVector(ids=("a", "b"), values=np.array([1.0, 2.0]))
        with pytest.raises(IdMismatch):
            align_to_ids(raw, ("a", "c"))


class TestCriticalValuesFile:
    def test_load(self, tmp_path):
        p = write(tmp_path / "c.csv", "n,alpha,d_l,d_u\n35,0.05,1.402,1.519\n")
        table = load_critical_values(p)
        assert table[(35, 0.05)].d_u == 1.519

    def test_header_required(self, tmp_path):
        p = write(tmp_path / "c.csv", "35,0.05,1.402,1.519\n")
        with pytest.raises(ParseError):
            load_critical_values(p)

    def test_duplicate_row(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "n,alpha,d_l,d_u\n35,0.05,1.402,1.519\n35,0.05,1.3,1.5\n",
        )
        with pytest.raises(ParseError):
            load_critical_values(p)

    def test_invalid_ordering(self, tmp_path):
        p = write(tmp_path / "c.csv", "n,alpha,d_l,d_u\n35,0.05,1.6,1.4\n")
        with pytest.raises(InputError):
            load_critical_values(p)


class TestReferenceValues:
    def test_dataset_not_distributed(self):
        ref = load_reference_values()
        assert ref["dataset_available"] is False

    def test_model_result_shape(self):
        ref = load_reference_values()
        # two size measures, each observed in two census years
        years = [
            entry
            for measure in ref["model_results"].values()
            for entry in measure.values()
        ]
        assert len(years) == 4
        for entry in years:
            for key in ("lag_sum", "moran_index", "intercept", "rho", "r_squared"):
                assert key in entry


class TestWriters:
    def test_sizes_round_trip(self, tmp_path):
        raw = RawSizeVector(ids=("x", "y", "z"), values=np.array([1.25, 2.5, 0.125]))
        p = tmp_path / "s.csv"
        write_sizes(raw, p)
        back = load_sizes(p)
        assert back.ids == raw.ids
        np.testing.assert_array_equal(back.values, raw.values)

    def test_distance_matrix_round_trip(self, tmp_path):
        ids = ("a", "b", "c")
        rng = np.random.default_rng(9)
        d = np.zeros((3, 3))
        iu = np.triu_indices(3, k=1)
        d[iu] = rng.uniform(0.5, 2.0, size=3)
        d = d + d.T
        p = tmp_path / "d.csv"
        write_distance_matrix(ids, d, p)
        back_ids, back = load_distances(p)
        assert back_ids == ids
        np.testing.assert_array_equal(back, d)

    def test_scatter_csv(self, tmp_path, chain):
        inputs = prepare(*chain)
        z = inputs.z
        ds = scatter_dataset(inputs, fit_sar_ols(inputs), MODE_AUTOCORRELATION)
        p = tmp_path / "scatter.csv"
        write_scatter_csv(ds, p)
        text = p.read_text().splitlines()
        assert text[0] == f"# mode {MODE_AUTOCORRELATION}"
        assert sum(1 for line in text if line.startswith("# line")) == 2
        data = [line for line in text if not line.startswith("#")]
        assert data[0] == "z,n_Wz"
        assert len(data) == 1 + z.n
        x0 = float(data[1].split(",")[0])
        assert x0 == z.values[0]
