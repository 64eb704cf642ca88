"""Markdown table serialization of grids, with a forgiving inverse parser."""

from __future__ import annotations

from ..core import Cell, CellKind, Grid, MathGridError, Operator, EMPTY, EQUALS, TARGET


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

# OCR confusables that may stand in for the digit 1 inside numeric cells.
_ONE_LOOKALIKES = str.maketrans({"l": "1", "I": "1", "|": "1", "∣": "1", "¦": "1"})


def cell_text(cell: Cell) -> str:
    """Canonical single-cell text: digits, + - × ÷ =, ? or a space."""
    if cell.kind is CellKind.NUMBER:
        return str(cell.value)
    if cell.kind is CellKind.OPERATOR:
        return cell.op.value
    return _CELL_TEXT[cell.kind]


def to_markdown(grid: Grid) -> str:
    """One pipe-delimited line per row with single-space padding."""
    cols = grid.cols
    rows = (grid.cells[r * cols : (r + 1) * cols] for r in range(grid.rows))
    lines = ["| " + " | ".join(map(cell_text, row)) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _parse_cell(token: str, line_no: int, col_no: int) -> Cell:
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


def parse_markdown(text: str) -> Grid:
    """Inverse of :func:`to_markdown`, tolerant of padding and OCR aliases.

    Accepts x/* for ×, / for ÷, and 1-lookalikes (l, I, pipe artifacts)
    inside otherwise numeric cells. Short rows are padded with empty cells.
    """
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
            [_parse_cell(tok, line_no, i + 1) for i, tok in enumerate(tokens)]
        )
    if not rows:
        raise ParseError(1, 1, "no table rows found")
    width = max(len(r) for r in rows)
    for r in rows:
        r.extend([EMPTY] * (width - len(r)))
    return Grid.from_rows(rows)
