"""The one type rule every JSON input file passes."""

import math
import re
import sys

import pytest

from gapbench import jsoninput


@pytest.mark.parametrize("value, shown", [
    (True, "true"), (None, "null"), ("3", '"3"'), (2.0, "2.0"), ([1], "[1]"), ({}, "{}"),
])
def test_integer_refuses_every_other_json_value(value, shown):
    with pytest.raises(ValueError, match=rf"^doc 'n' must be an integer, got {re.escape(shown)}$"):
        jsoninput.integer(value, "doc 'n'")


def test_integer_keeps_any_size():
    assert jsoninput.integer(10 ** 400, "doc 'n'") == 10 ** 400
    assert jsoninput.integers([0, -1, 2 ** 70], "doc 'xs'") == (0, -1, 2 ** 70)


def test_integers_name_the_list_and_its_entries():
    with pytest.raises(ValueError, match=r"^doc 'xs' must be a list$"):
        jsoninput.integers(3, "doc 'xs'")
    with pytest.raises(ValueError, match=r"^doc 'xs' entry must be an integer, got false$"):
        jsoninput.integers([1, False], "doc 'xs'")


@pytest.mark.parametrize("value", [False, None, "1", [1.0]])
def test_number_refuses_a_bool_and_every_non_number(value):
    with pytest.raises(ValueError, match=r"^doc 'x' must be a number, got "):
        jsoninput.number(value, "doc 'x'")
    with pytest.raises(ValueError, match=r"^doc 'x' must be a number, got "):
        jsoninput.number(value, "doc 'x'", exact=True)


def test_number_is_a_float_unless_an_exact_integer_is_asked_for():
    assert jsoninput.number(3, "x") == 3.0 and isinstance(jsoninput.number(3, "x"), float)
    assert math.isnan(jsoninput.number(math.nan, "x"))
    assert jsoninput.number(-math.inf, "x") == -math.inf
    assert jsoninput.number(10 ** 400, "x", exact=True) == 10 ** 400
    assert jsoninput.number(0.5, "x", exact=True) == 0.5


def test_number_refuses_an_integer_past_float_range_where_a_float_is_needed():
    assert jsoninput.number(2 ** 1023, "x") == 2.0 ** 1023
    with pytest.raises(ValueError, match=rf"^x must be a number within float range, "
                                         rf"got {2 ** 1024}$"):
        jsoninput.number(2 ** 1024, "x")


def test_parse_refuses_nesting_past_the_recursion_limit_by_name():
    assert jsoninput.parse("[[1]]", "doc") == [[1]]
    with pytest.raises(ValueError, match=r"^doc nests deeper than Python's recursion limit "
                                         rf"\({sys.getrecursionlimit()}\)$"):
        jsoninput.parse("[" * 100_000, "doc")
