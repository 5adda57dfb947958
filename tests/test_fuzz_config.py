"""Fuzzed configs: every mutation of the demo book prices or fails with a
named error (exit 2 or 3), never a traceback, and priced bounds are finite
and ordered."""

import contextlib
import io
import json
import math
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from robust_rates.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos", "data")


def demo_book() -> dict:
    with open(os.path.join(DATA, "book.json"), encoding="utf-8") as fh:
        book = json.load(fh)
    # The mutated config is written elsewhere, so the curve CSV is named by
    # its absolute path.  The coupled-pair stream runs on a coarse grid: the
    # same code path in milliseconds instead of a second per example.
    book["curve"]["csv"] = os.path.abspath(os.path.join(DATA, book["curve"]["csv"]))
    book["contracts"][-1]["grid"] = {"nx": 21, "nt": 20}
    return book


BOOK = demo_book()
PAST_HORIZON = 1000.0  # years: beyond the demo curve's 30-year horizon


def field_paths(node, path=()):
    """Every field below the root, as key/index paths."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


PATHS = list(field_paths(BOOK))
REPLACEMENTS = (
    # wrong types
    "x", None, True, [], {}, [1.0, "x"],
    # non-finite, zero, negative, past the horizon
    math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, "negate", PAST_HORIZON,
)


def mutated(path, value) -> dict:
    book = json.loads(json.dumps(BOOK))
    parent = book
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if value == "negate":
        value = -old if isinstance(old, (int, float)) and not isinstance(old, bool) else -1.0
    parent[path[-1]] = value
    return book


def leaf(book, path):
    for key in path:
        book = book[key]
    return book


# Every number of the demo book (38 fields) takes each extreme magnitude.
NUMERIC_PATHS = [p for p in PATHS if type(leaf(BOOK, p)) in (int, float)]
EXTREMES = (1e300, -1e300, 1e-300, -1e-300, sys.float_info.max, -sys.float_info.max,
            5e-324, -5e-324, 0.0, -0.0)


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def assert_prices_or_fails_cleanly(config, book) -> None:
    config.write_text(json.dumps(book))
    code, out, err = run_cli(["--format", "json", "price", str(config)])
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        for row in json.loads(out)["contracts"]:
            lower, upper = row["lower"], row["upper"]
            assert math.isfinite(lower) and math.isfinite(upper), row
            assert lower <= upper, row


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(path=st.sampled_from(PATHS), value=st.sampled_from(REPLACEMENTS))
def test_mutated_demo_book_prices_or_fails_cleanly(tmp_path_factory, path, value):
    config = tmp_path_factory.mktemp("fuzz") / "book.json"
    assert_prices_or_fails_cleanly(config, mutated(path, value))


def test_demo_book_has_38_numbers():
    assert len(NUMERIC_PATHS) == 38


@pytest.mark.parametrize("path", NUMERIC_PATHS, ids=lambda p: ".".join(map(str, p)))
def test_extreme_magnitudes_price_or_fail_cleanly(tmp_path, path):
    for value in EXTREMES:
        assert_prices_or_fails_cleanly(tmp_path / "book.json", mutated(path, value))


def test_unmutated_demo_book_prices(tmp_path):
    """The fuzz base itself prices, so the mutations start from exit 0."""
    config = tmp_path / "book.json"
    config.write_text(json.dumps(BOOK))
    code, out, _ = run_cli(["--format", "json", "price", str(config)])
    assert code == 0
    assert len(json.loads(out)["contracts"]) == len(BOOK["contracts"])
