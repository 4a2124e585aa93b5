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
from pqnorm.matrixio import dumps_json


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


def _per_entry_dumps_matrix(M) -> str:
    """The reference writer: every entry a Python float, formatted one at a
    time at 17 significant digits, complex ones as [re, im] pairs."""
    flat = M.entries.reshape(-1)
    if M.is_complex:
        items = [f"[{float(z.real):.17g}, {float(z.imag):.17g}]" for z in flat]
    else:
        items = [f"{float(x):.17g}" for x in flat]
    data = "[" + ", ".join(items) + "]"
    return f'{{"field": "{M.field}", "rows": {M.n}, "cols": {M.m}, "data": {data}}}'


_EDGE_ENTRIES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 4.0, -3.0, 2.3]


def _writer_corpus():
    rng = np.random.default_rng(2024)
    for n, m in [(1, 1), (1, 7), (6, 1), (3, 4), (9, 9)]:
        for field in ("real", "complex"):
            A = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-300, 300, (n, m))
            if field == "complex":
                A = A + 1j * rng.standard_normal((n, m)) * 10.0 ** rng.integers(-300, 300, (n, m))
            yield as_matrix(A, field=field)
            # the edge values, scattered over the same shape
            E = rng.choice(_EDGE_ENTRIES, (n, m))
            if field == "complex":
                E = E + 1j * rng.choice(_EDGE_ENTRIES, (n, m))
            yield as_matrix(E, field=field)


class TestArrayWriter:
    @pytest.mark.parametrize("M", list(_writer_corpus()), ids=lambda M: f"{M.field}{M.n}x{M.m}")
    def test_matches_per_entry_reference(self, M, tmp_path):
        assert dumps_matrix(M) == _per_entry_dumps_matrix(M)
        obj = matrix_to_obj(M)
        assert json.loads(dumps_matrix(M)) == obj
        assert all(type(x) is float for x in np.ravel(obj["data"]).tolist())
        path = tmp_path / "m.json"
        save_matrix(M, path)
        back = load_matrix(path)
        assert back.field == M.field
        # the same bits, the sign of a zero included
        assert back.entries.tobytes() == M.entries.tobytes()

    def test_negative_zero_tokens(self, monkeypatch):
        # -0 reads as -0.0 in real entries and in both parts of a complex
        # pair; -0.5, -0e1 and exponents such as 1e-05 are no such token
        real = loads_matrix('{"field": "real", "rows": 2, "cols": 2, "data": [[-0, -0], [1, 0]]}')
        assert np.signbit(real.entries).tolist() == [[True, True], [False, False]]
        text = '{"field": "complex", "rows": 1, "cols": 3, "data": [[-0, 0], [0, -0], [-0,-0]]}'
        got = loads_matrix(text).entries.view(float)
        assert np.signbit(got).tolist() == [[True, False, False, True, True, True]]
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda t, **kw: calls.append(kw) or loads(t, **kw))
        other = '{"field": "real", "rows": 1, "cols": 3, "data": [-0.5, -0e1, 1e-05]}'
        assert np.signbit(loads_matrix(other).entries).tolist() == [[True, True, False]]
        assert calls == [{"parse_int": None}]

    def test_integral_and_edge_digits(self):
        M = as_matrix(np.array([[4.0, -0.0, 5e-324, -1.7976931348623157e308]]))
        assert dumps_matrix(M) == (
            '{"field": "real", "rows": 1, "cols": 4, '
            '"data": [4, -0, 4.9406564584124654e-324, -1.7976931348623157e+308]}'
        )
        Z = as_matrix(np.array([[complex(4.0, -0.0)]]), field="complex")
        assert dumps_matrix(Z) == '{"field": "complex", "rows": 1, "cols": 1, "data": [[4, -0]]}'

    @pytest.mark.parametrize(
        "a",
        [
            np.array(2.5),
            np.array(1.0 - 2.0j),
            np.zeros(0),
            np.zeros((3, 0)),
            np.zeros((0, 3), dtype=complex),
            np.arange(24.0).reshape(2, 3, 4),
            (np.arange(6.0) - 2.5j).reshape(3, 2),
            np.arange(10.0)[::3],
            (np.arange(8.0) * 1j)[::2],
            np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            np.arange(4),  # other dtypes keep the nested-list path
            np.array([1.5, 2.0], dtype=np.float32),
        ],
        ids=lambda a: f"{a.dtype}{a.shape}",
    )
    def test_arrays_as_nested_lists(self, a):
        # an array is written exactly as its nested Python lists would be
        assert dumps_json({"v": a}) == dumps_json({"v": a.tolist()})

    def test_matrix_in_payload(self):
        M = as_matrix(np.array([[1.0 + 0.5j, -2.0]]), field="complex")
        assert dumps_json({"m": M}) == '{"m": [[[1, 0.5], [-2, 0]]]}'


class TestNonFiniteJson:
    def test_scalars_and_arrays_parse(self):
        inf, nan = float("inf"), float("nan")
        text = dumps_json(
            {
                "s": [inf, -inf, nan, 1.5],
                "a": np.array([inf, -inf, nan, 0.25]),
                "z": np.array([complex(inf, -inf), complex(nan, 1.0)]),
                "g": np.float64(-inf),
            }
        )
        assert "inf" not in text and "nan" not in text
        doc = json.loads(text)
        assert doc["s"][:2] == [inf, -inf] and doc["s"][2] is None
        assert doc["a"][:2] == [inf, -inf] and doc["a"][2] is None
        assert doc["z"] == [[inf, -inf], [None, 1.0]]
        assert doc["g"] == -inf
        assert text.count("1e999") == 7

    def test_text_output_keeps_inf(self):
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"
