"""The one CSV formatter and writer: repr for floats, exact line layout."""

import math

import numpy as np
import pytest

from sgnwaves.csvio import format_column, write_csv

FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324,
          1.7976931348623157e308, 0.1, -2.5]


def test_floats_are_written_by_repr():
    assert format_column(np.array(FLOATS)) == [repr(v) for v in FLOATS]
    assert format_column(FLOATS) == [repr(v) for v in FLOATS]


def test_integers_are_digits_and_booleans_are_words():
    assert format_column(np.array([0, -3, 2**62])) == ["0", "-3", repr(2**62)]
    assert format_column(np.array([True, False])) == ["true", "false"]
    assert format_column([False, True, True]) == ["false", "true", "true"]


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "a,b,c", map(format_column, ([1.5, -0.0], [3, 4], [True, False])))
    assert path.read_bytes() == b"a,b,c\n1.5,3,true\n-0.0,4,false\n"


def test_write_csv_writes_one_formatted_column_twice(tmp_path):
    path = tmp_path / "t.csv"
    words = format_column([0.25, 1e-300])
    write_csv(path, "h,h", (words, words))
    assert path.read_bytes() == b"h,h\n0.25,0.25\n1e-300,1e-300\n"


def test_write_csv_with_no_rows_writes_the_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "x,h", (format_column([]), format_column([])))
    assert path.read_bytes() == b"x,h\n"


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(path, "a,b", (format_column([1.0, 2.0]), format_column([1.0])))
    assert not path.exists()
