"""The one type rule for JSON input files.

The polynomial, circuit and matrix loaders parse their files with `parse`
and check each field with `array`, `integer`, `integers` or `number`.
A JSON bool is never a number, and an integer beyond float range is
refused where a float is needed.  Every refusal is a ValueError that reads
"<what> must be <kind>, got <value as JSON>", where `what` names the
document and the field; a list's refusal does not echo the value.
"""

import json
import sys


def parse(text: str, what: str):
    """The JSON value in `text`; one nested past Python's recursion limit is
    refused in terms of `what` instead of as a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} nests deeper than Python's recursion limit "
                         f"({sys.getrecursionlimit()})") from None


def _refuse(value, what: str, kind: str):
    raise ValueError(f"{what} must be {kind}, got {json.dumps(value)}")


def array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def integer(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _refuse(value, what, "an integer")
    return value


def integers(value, what: str) -> tuple[int, ...]:
    return tuple(integer(v, f"{what} entry") for v in array(value, what))


def number(value, what: str, exact: bool = False) -> float | int:
    """`value` as a float; with `exact`, an integer stays an exact int of
    any size instead."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _refuse(value, what, "a number")
    try:
        return value if exact and isinstance(value, int) else float(value)
    except OverflowError:
        _refuse(value, what, "a number within float range")
