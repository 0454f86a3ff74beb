"""Unit tests for stream schemas."""

from __future__ import annotations

import pytest

from repro.core.cols import COL_F64, COL_I64, COL_STR, COL_TAGGED
from repro.core.errors import SchemaError
from repro.dsms.schema import Field, FieldType, Schema


def make_schema() -> Schema:
    return Schema(
        [
            Field("time", FieldType.INT),
            Field("name", FieldType.STR),
            Field("value", FieldType.FLOAT),
        ]
    )


class TestSchema:
    def test_index_lookup(self):
        schema = make_schema()
        assert schema.index_of("time") == 0
        assert schema.index_of("value") == 2

    def test_unknown_field(self):
        with pytest.raises(SchemaError):
            make_schema().index_of("nope")

    def test_contains_and_names(self):
        schema = make_schema()
        assert "name" in schema
        assert "other" not in schema
        assert schema.names() == ["time", "name", "value"]
        assert len(schema) == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Field("a", FieldType.INT), Field("a", FieldType.STR)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_bad_field_name_rejected(self):
        with pytest.raises(SchemaError):
            Field("not valid", FieldType.INT)

    def test_validate_accepts_good_rows(self):
        schema = make_schema()
        schema.validate_cols([[value] for value in (1, "x", 2.5)])
        # int acceptable for FLOAT
        schema.validate_cols([[value] for value in (1, "x", 3)])

    def test_validate_rejects_arity(self):
        with pytest.raises(SchemaError):
            make_schema().validate_cols([[value] for value in (1, "x")])

    def test_validate_rejects_types(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.validate_cols([[value] for value in ("one", "x", 2.5)])
        with pytest.raises(SchemaError):
            schema.validate_cols([[value] for value in (1, 2, 2.5)])
        with pytest.raises(SchemaError):
            schema.validate_cols([[value] for value in (1, "x", "y")])

    def test_a_bool_passes_an_int_field(self):
        assert make_schema().validate_cols([[True], ["x"], [False]]) == 1

    def test_a_float_does_not_pass_an_int_field(self):
        with pytest.raises(SchemaError, match=r"field 'time' expects int, got 1\.0"):
            make_schema().validate_cols([[1, 1.0], ["x", "y"], [2.5, 2.5]])

    def test_a_number_field_refusal_names_the_first_bad_value(self):
        with pytest.raises(
            SchemaError, match=r"field 'value' expects a number, got 'y'"
        ):
            make_schema().validate_cols([[1, 2, 3], ["x", "x", "x"], [1.5, "y", "z"]])

    def test_a_typed_block_is_judged_by_its_kind(self):
        schema = make_schema()
        cols = [[1, 2], ["x", "y"], [0.5, 1.5]]
        assert schema.validate_cols(cols, [COL_I64, COL_STR, COL_F64]) == 2
        # an int block in a number field, at any width shrink
        ints = [[1, 2], ["x", "y"], [3, 4]]
        assert schema.validate_cols(ints, [COL_I64, COL_STR, COL_I64 | 0x30]) == 2
        strs = [["a", "b"], ["x", "y"], [0.5, 1.5]]
        with pytest.raises(SchemaError, match=r"field 'time' expects int, got 'a'"):
            schema.validate_cols(strs, [COL_STR, COL_STR, COL_F64])

    def test_a_tagged_block_is_swept(self):
        schema = make_schema()
        kinds = [COL_TAGGED, COL_STR, COL_TAGGED]
        assert schema.validate_cols([[True, 7], ["x", "y"], [1, 2.5]], kinds) == 2
        with pytest.raises(SchemaError, match=r"field 'time' expects int, got None"):
            schema.validate_cols([[1, None], ["x", "y"], [1, 2.5]], kinds)

    def test_field_type_python_types(self):
        assert FieldType.INT.python_type() is int
        assert FieldType.FLOAT.python_type() is float
        assert FieldType.STR.python_type() is str
