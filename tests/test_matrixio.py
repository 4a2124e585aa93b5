"""Matrix file format: round trips, schema validation, digit fidelity."""

import json

import numpy as np
import pytest

from pqnorm import (
    MatrixFileError,
    as_matrix,
    dumps_matrix,
    format_float,
    load_matrix,
    loads_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)


class TestFloatFormat:
    def test_17_significant_digits(self):
        # 2.3 is not a binary dyadic; its shortest 17-digit form is explicit
        assert format_float(2.3) == "2.2999999999999998"
        assert format_float(1.0) == "1"
        assert format_float(-0.5) == "-0.5"

    def test_round_trip_lossless(self):
        rng = np.random.default_rng(3)
        for x in rng.standard_normal(50) * 10.0 ** rng.integers(-8, 9, 50):
            assert float(format_float(float(x))) == float(x)


class TestObjRoundTrip:
    def test_real(self):
        M = as_matrix(np.array([[1.0, 2.5], [-3.0, 0.0]]))
        obj = matrix_to_obj(M)
        assert obj["field"] == "real"
        assert obj["rows"] == 2 and obj["cols"] == 2
        back = matrix_from_obj(obj)
        assert np.array_equal(back.entries, M.entries)

    def test_complex_pairs(self):
        M = as_matrix(np.array([[1.0 + 2.0j, -1.0j]]), field="complex")
        obj = matrix_to_obj(M)
        assert obj["data"][0] == [1.0, 2.0]
        back = matrix_from_obj(obj)
        assert np.array_equal(back.entries, M.entries)

    def test_nested_rows_accepted(self):
        obj = {"field": "real", "rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]}
        M = matrix_from_obj(obj)
        assert M.entries[1, 0] == 3.0

    def test_flat_complex_pairs_accepted(self):
        obj = {"field": "complex", "rows": 1, "cols": 2, "data": [[1, 0], [0, 1]]}
        M = matrix_from_obj(obj)
        assert M.entries[0, 1] == 1j

    def test_schema_errors(self):
        with pytest.raises(MatrixFileError):
            matrix_from_obj({"field": "real", "rows": 2, "cols": 2, "data": [1.0]})
        with pytest.raises(MatrixFileError):
            matrix_from_obj({"field": "quaternion", "rows": 1, "cols": 1, "data": [1]})
        with pytest.raises(MatrixFileError):
            matrix_from_obj({"rows": 1, "cols": 1, "data": [1]})
        with pytest.raises(MatrixFileError):
            matrix_from_obj({"field": "real", "rows": 0, "cols": 1, "data": []})

    @pytest.mark.parametrize(
        "field, rows, cols, data",
        [
            ("real", 1, 2, [True, 1.0]),
            ("real", 2, 2, [[1, 2], [3, True]]),  # a bool inside a nested row
            ("complex", 1, 2, [[1, False], [0, 1]]),  # inside a flat pair
            ("complex", 1, 2, [[[1, 0], [0, True]]]),  # inside a nested pair
            ("real", 1, 2, ["1.5", 1]),
            ("real", 1, 2, [None, 1]),
            ("real", 1, 1, [{}]),
            ("real", 1, 1, [10**400]),
            ("real", 1, 2, [float("nan"), 1]),
            ("complex", 1, 1, [[0.0, float("inf")]]),
            ("real", 2, 2, [[1, 2], [3]]),
            ("real", 2, 2, [[1, 2], [3, [4]]]),
            ("real", 1, 1, [[]]),
            ("complex", 1, 1, [[1, 2, 3]]),
            ("complex", 1, 1, [1]),
            ("complex", 1, 1, []),
            ("complex", 1, 2, [[[1, 0]], [[0, 1]]]),
            ("complex", 2, 1, [[[1, 0]], []]),
        ],
    )
    def test_entry_errors(self, field, rows, cols, data):
        with pytest.raises(MatrixFileError):
            matrix_from_obj({"field": field, "rows": rows, "cols": cols, "data": data})

    def test_entries_bit_for_bit(self):
        # signed zeros survive in both parts; rows and pairs may be tuples
        M = loads_matrix('{"field": "complex", "rows": 1, "cols": 2, "data": [[-0.0, 1.5], [2, -0.0]]}')
        assert np.signbit(M.entries.real).tolist() == [[True, False]]
        assert np.signbit(M.entries.imag).tolist() == [[False, True]]
        obj = {"field": "complex", "rows": 2, "cols": 1, "data": [[(1, 2)], [[3, 4.5]]]}
        assert matrix_from_obj(obj).entries.tolist() == [[1 + 2j], [3 + 4.5j]]


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        M = as_matrix(np.array([[2.3, -1e-12], [5e200, 0.125]]))
        path = tmp_path / "m.json"
        save_matrix(M, path)
        back = load_matrix(path)
        assert np.array_equal(back.entries, M.entries)  # bit-exact

    def test_complex_save_load(self, tmp_path):
        rng = np.random.default_rng(11)
        M = as_matrix(
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
            field="complex",
        )
        path = tmp_path / "c.json"
        save_matrix(M, path)
        assert np.array_equal(load_matrix(path).entries, M.entries)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixFileError):
            load_matrix(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MatrixFileError):
            load_matrix(path)

    def test_text_is_valid_json_with_digits(self):
        M = as_matrix(np.array([[2.3]]))
        text = dumps_matrix(M)
        assert "2.2999999999999998" in text
        parsed = json.loads(text)
        assert parsed["field"] == "real"
        again = loads_matrix(text)
        assert again.entries[0, 0] == 2.3
