"""Markdown table serialization of grids, with a forgiving inverse parser."""

from __future__ import annotations

from itertools import islice

from ..core import Cell, CellKind, Grid, MathGridError, Operator, EMPTY, EQUALS, TARGET, shown


class ParseError(MathGridError):
    """Unreadable cell; ``line`` is 1-based, ``col`` is the 1-based cell index."""

    def __init__(self, line: int, col: int, reason: str):
        super().__init__(f"line {line}, cell {col}: {reason}")
        self.line = line
        self.col = col
        self.reason = reason


_CELL_TEXT = {
    CellKind.EMPTY: " ",
    CellKind.EQUALS: "=",
    CellKind.TARGET: "?",
}

_OP_ALIASES = {
    "+": Operator.ADD,
    "-": Operator.SUB,
    "−": Operator.SUB,
    "–": Operator.SUB,
    "×": Operator.MUL,
    "x": Operator.MUL,
    "X": Operator.MUL,
    "*": Operator.MUL,
    "÷": Operator.DIV,
    "/": Operator.DIV,
}

_CELL_CACHE_SIZE = 4096  # distinct tokens the parser remembers; a dataset has a few hundred
_TOKEN_CELLS: dict[str, Cell] = {}  # each token read that is a cell; grids share the frozen cells

# OCR confusables that may stand in for the digit 1 inside numeric cells.
_ONE_LOOKALIKES = str.maketrans({"l": "1", "I": "1", "|": "1", "∣": "1", "¦": "1"})

_NUMBER, _OPERATOR = CellKind.NUMBER, CellKind.OPERATOR


def cell_text(cell: Cell) -> str:
    """Canonical single-cell text: digits, + - × ÷ =, ? or a space."""
    kind = cell.kind
    if kind is _NUMBER:
        return str(cell.value)
    if kind is _OPERATOR:
        return cell.op._value_  # the member's symbol, without the ``value`` property
    return _CELL_TEXT[kind]


def to_markdown(grid: Grid) -> str:
    """One pipe-delimited line per row with single-space padding."""
    cols = grid.cols
    # most cells are the one shared EMPTY cell: no call for those
    texts = [" " if cell is EMPTY else cell_text(cell) for cell in grid.cells]
    lines = ["| " + " | ".join(texts[i : i + cols]) + " |" for i in range(0, len(texts), cols)]
    return "\n".join(lines) + "\n"


def _read_cell(token: str) -> Cell | str:
    """The cell a raw token stands for, or the reason it stands for none."""
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
    if not (digits.isascii() and digits.isdigit()):
        return f"unrecognized cell content {shown(token)}"
    try:
        value = int(digits)
    except ValueError:  # more digits than int() converts
        return f"number of {len(digits)} digits is too long"
    if value < 1:
        return f"non-positive number {shown(token)}"
    return Cell.number(value)


def _read_canonical(text: str) -> Grid | None:
    r"""The grid of a table in :func:`to_markdown`'s exact shape, else None.

    Such a table, ``| a | b |\n| c | d |\n``, splits at its pipes into
    ``""``, the cells of each row and a ``"\n"`` after each row's cells. Any
    other text, or a table with an unreadable cell, gives None.
    """
    lines = len(text.splitlines())
    pieces = text.split("|")
    if pieces[0] or "\n" not in pieces:
        return None
    step = pieces.index("\n")  # the cells of a row and their line break
    rows = (len(pieces) - 1) // step
    # Every line break must be one of the row ends, so no cell holds one and
    # nothing follows the last.
    if step < 2 or rows != lines or pieces[step::step].count("\n") != rows:
        return None
    del pieces[::step]  # the leading "" and the line breaks
    try:
        cells = tuple(map(_TOKEN_CELLS.__getitem__, pieces))
    except KeyError:  # a token new to the table, or one that is no cell
        cells = tuple(map(_read_cell, pieces))
        if str in map(type, cells):
            return None
        fresh = {token: cell for token, cell in zip(pieces, cells) if token not in _TOKEN_CELLS}
        _TOKEN_CELLS.update(islice(fresh.items(), _CELL_CACHE_SIZE - len(_TOKEN_CELLS)))
    return Grid(rows, step - 1, cells)


def parse_markdown(text: str) -> Grid:
    """Inverse of :func:`to_markdown`, tolerant of padding and OCR aliases.

    Accepts x/* for ×, / for ÷, and 1-lookalikes (l, I, pipe artifacts)
    inside otherwise numeric cells. Short rows are padded with empty cells.
    A table in ``to_markdown``'s exact shape, such as every manifest holds,
    is read in one split; any other text row by row.
    """
    grid = _read_canonical(text)
    if grid is not None:
        return grid
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
        row = list(map(_read_cell, body.split("|")))
        if str in map(type, row):
            col, reason = next((i, c) for i, c in enumerate(row, 1) if type(c) is str)
            raise ParseError(line_no, col, reason)
        rows.append(row)
    if not rows:
        raise ParseError(1, 1, "no table rows found")
    width = max(len(r) for r in rows)
    for r in rows:
        r.extend([EMPTY] * (width - len(r)))
    return Grid.from_rows(rows)
