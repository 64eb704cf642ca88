"""The cached-token parser agrees with the per-token parser it replaced.

``parse_markdown`` reads a table in ``to_markdown``'s exact shape in one
split of the whole text, looking its tokens up in a bounded table from
token to cell that it fills as new cell tokens come; it reads any other
text row by row, token by token. The reference below parses every token
afresh at its position, line by line, exactly as the package first did; on
every table both must give an equal grid, or the same ``ParseError`` at
the same line and cell with the same reason.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from mathgrid.core import EMPTY, EQUALS, TARGET, Cell, Grid
from mathgrid.render import markdown
from mathgrid.render.markdown import (
    _CELL_CACHE_SIZE,
    _ONE_LOOKALIKES,
    _OP_ALIASES,
    ParseError,
    parse_markdown,
)

# -- reference implementation -----------------------------------------------


def reference_parse_cell(token: str, line_no: int, col_no: int) -> Cell:
    token = token.strip()
    if not token:
        return EMPTY
    if token == "?":
        return TARGET
    if token == "=":
        return EQUALS
    if token in _OP_ALIASES:
        return Cell.operator(_OP_ALIASES[token])
    digits = token.translate(_ONE_LOOKALIKES)
    if digits.isascii() and digits.isdigit():
        value = int(digits)
        if value < 1:
            raise ParseError(line_no, col_no, f"non-positive number {token!r}")
        return Cell.number(value)
    raise ParseError(line_no, col_no, f"unrecognized cell content {token!r}")


def reference_parse_markdown(text: str) -> Grid:
    rows: list[list[Cell]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.count("|") < 2:
            raise ParseError(line_no, 1, "expected a pipe-delimited table row")
        body = line
        if body.startswith("|"):
            body = body[1:]
        if body.endswith("|"):
            body = body[:-1]
        tokens = body.split("|")
        rows.append(
            [reference_parse_cell(tok, line_no, i + 1) for i, tok in enumerate(tokens)]
        )
    if not rows:
        raise ParseError(1, 1, "no table rows found")
    width = max(len(r) for r in rows)
    for r in rows:
        r.extend([EMPTY] * (width - len(r)))
    return Grid.from_rows(rows)


def outcome(parse, text: str):
    """The grid, or the position and reason of the ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.col, exc.reason)


def assert_agrees(text: str) -> None:
    assert outcome(parse_markdown, text) == outcome(reference_parse_markdown, text)


# -- random tables ------------------------------------------------------------

def _now_and_then(common, rare, odds: int):
    """``rare`` once in ``odds`` draws, ``common`` otherwise."""
    return st.integers(1, odds).flatmap(lambda k: rare if k == 1 else common)


_numbers = st.integers(1, 10**6).map(str)
_lookalikes = st.builds(
    lambda digits, glyph: digits.replace("1", glyph),
    st.integers(1, 10**4).map(str),
    st.sampled_from(["l", "I", "∣", "¦"]),
)
_good_tokens = st.one_of(
    st.sampled_from(["", "?", "=", "+", "-", "×", "÷", "x", "X", "*", "/", "−", "–"]),
    _numbers,
    _lookalikes,
)
_bad_tokens = st.sampled_from(["0", "00", "abc", "1.5", "-3", "??", "1 2", "٣", "+1"])
_pad = st.sampled_from(["", " ", "  ", "\t"])
_tokens = st.builds(
    lambda left, token, right: left + token + right,
    _pad,
    _now_and_then(_good_tokens, _bad_tokens, 25),
    _pad,
)
_rows = st.builds(
    lambda tokens, lead, trail: lead + "|".join(tokens) + trail,
    st.lists(_tokens, min_size=1, max_size=7),
    st.sampled_from(["|", "| ", " |"]),
    st.sampled_from(["|", " |", "| "]),
)
# Without outer pipes a line is a row only from three cells on.
_bare_rows = st.lists(_tokens, min_size=1, max_size=7).map("|".join)
_lines = _now_and_then(_rows, st.one_of(_bare_rows, st.sampled_from(["", "   "])), 8)
_free_tables = st.lists(_lines, min_size=0, max_size=8).map("\n".join)
# to_markdown's shape: every row "| a | b |", one width, each line ending in "\n"
_canonical_tables = st.integers(1, 7).flatmap(
    lambda width: st.lists(
        st.lists(_now_and_then(_good_tokens, _bad_tokens, 25), min_size=width, max_size=width),
        min_size=1,
        max_size=8,
    )
).map(lambda rows: "".join("| " + " | ".join(row) + " |\n" for row in rows))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_free_tables, _canonical_tables))
def test_parser_agrees_with_reference(text):
    assert_agrees(text)


# -- fixed cases ----------------------------------------------------------------


def test_bad_token_after_good_tokens_filled_the_cache():
    good = "| 12 | + | 30 | = | 42 |\n| ? | × | 2 | = | 8 |\n"
    parse_markdown(good)
    text = good + "| 7 | + | 12x | = | ? |\n"
    assert outcome(parse_markdown, text) == (
        "ParseError", 3, 3, "unrecognized cell content '12x'"
    )
    assert_agrees(text)


def test_repeated_bad_token_reports_its_first_position():
    text = "| 1 | + | 1 | = | 2 |\n| 4 |  zz | zz |\n| zz | 1 |\n"
    for _ in range(2):  # a second parse fails the same way
        assert outcome(parse_markdown, text) == (
            "ParseError", 2, 2, "unrecognized cell content 'zz'"
        )
    assert_agrees(text)


def test_token_cache_is_bounded(monkeypatch):
    table = {}
    monkeypatch.setattr(markdown, "_TOKEN_CELLS", table)
    for start in range(1, _CELL_CACHE_SIZE + 200, 100):
        text = "".join(f"| {n} | + | 1 | = | ? |\n" for n in range(start, start + 100))
        assert_agrees(text)
    assert len(table) == _CELL_CACHE_SIZE
    # tokens past the bound are read afresh, and a bad one still fails
    assert_agrees("| 99999 | + | 1 | = | ? |\n")
    assert_agrees("| 99999 | + | 1 | = | 0 |\n")
    assert len(table) == _CELL_CACHE_SIZE


# -- edges of the one-split read ------------------------------------------------

_CANONICAL = "| 12 | + | 30 | = | 42 |\n|  | × |  | ? | 8 |\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_CANONICAL, id="canonical"),
        pytest.param(_CANONICAL[:-1], id="no-final-newline"),
        pytest.param(_CANONICAL.replace("\n", "\r\n"), id="crlf"),
        pytest.param(_CANONICAL.replace("\n", "\n\n", 1), id="blank-line-between-rows"),
        # a 1-cell row made up by a 3-cell one: as many pieces as three rows of 2
        pytest.param("| 1 | 2 |\n| 3 |\n| 4 | 5 | 6 |\n", id="short-row-made-up-by-a-longer-one"),
        pytest.param("| 1 | 2 |\n| 3 | 4 | 5 | 6 |\n", id="rows-of-two-widths"),
        pytest.param(_CANONICAL.replace("30", "3O"), id="bad-token"),
        pytest.param(_CANONICAL.replace("42", "0"), id="non-positive-token"),
        pytest.param(_CANONICAL.replace(" + ", " +\r"), id="carriage-return-inside-a-cell"),
        pytest.param(_CANONICAL.replace(" = ", " =\x0c", 1), id="form-feed-inside-a-cell"),
        pytest.param(" " + _CANONICAL, id="leading-space"),
        pytest.param("|\n|\n", id="no-cells"),
        pytest.param("\n", id="newline-only"),
    ],
)
def test_one_split_read_agrees_at_its_edges(text):
    assert_agrees(text)

