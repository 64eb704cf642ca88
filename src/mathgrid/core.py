"""Shared domain types for cross-math puzzles.

A puzzle lives on a rectangular grid of cells. Horizontal and vertical
5-cell runs of the form ``a op b = c`` are the equations; blanked operands
(targets) are what a solver or model must fill in. Everything downstream
(generation, solving, rendering, evaluation) works on these types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .generator import GenParams


class MathGridError(Exception):
    """Base class for all package errors."""


#: The JSON name of each type that ``json.loads`` gives.
_JSON_NAMES = {
    dict: "object",
    list: "array",
    str: "string",
    int: "number",
    float: "number",
    bool: "boolean",
    type(None): "null",
}
#: What a slot of each type must hold; a float slot holds any number.
_SLOT_NAMES = {
    dict: "a JSON object",
    list: "a JSON array",
    str: "a string",
    int: "an integer",
    float: "a number",
}


def check_type(value: object, kind: type, what: str):
    """``value`` when its type is exactly ``kind`` (dict, list, str, int, or
    float for any number), else a ValueError saying what ``what`` must be.

    A bool is neither an integer nor a number.
    """
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise ValueError(f"{what} must be {_SLOT_NAMES[kind]}, not {_JSON_NAMES[type(value)]}")


def shown(value: object) -> str:
    """``repr(value)`` for an error line, its middle elided past 60 characters.

    An int too long for ``repr`` (CPython converts at most 4300 digits) is
    shown by its size in bits.
    """
    try:
        text = repr(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"
    return text if len(text) <= 60 else f"{text[:30]}...{text[-27:]}"


#: What ``located`` reports: the errors that reading a value of the wrong
#: type or form gives.
_INPUT_ERRORS = (AttributeError, KeyError, MathGridError, OverflowError, TypeError, ValueError)


class located:
    """Context manager for reading outside input: an error met inside
    becomes ``ValueError("<where>: ...")``, where ``where`` is ``path`` or
    ``path line N``, and a KeyError reads ``missing key 'k'``. A reader of
    many lines sets ``line`` as it moves on."""

    def __init__(self, path: object, line: int | None = None):
        self.path = path
        self.line = line

    def __enter__(self) -> located:
        return self

    def __exit__(self, _kind, exc: BaseException | None, _traceback) -> None:
        if isinstance(exc, _INPUT_ERRORS):
            where = self.path if self.line is None else f"{self.path} line {self.line}"
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{where}: {detail}") from exc


class Coord(NamedTuple):
    """Grid position: row 0 is the top row, col 0 the leftmost column."""

    row: int
    col: int


class Operator(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "×"
    DIV = "÷"

    @property
    def inverse(self) -> Operator | None:
        """The operator that − and ÷ are rotations of; None for + and ×.

        ``a − b = c ⇔ b + c = a`` and ``a ÷ b = c ⇔ b × c = a``: the triple
        ``(a, b, c)`` of ``op`` is the triple ``(b, c, a)`` of its inverse.
        """
        return _INVERSES.get(self)

    def holds(self, a: int, b: int, c: int) -> bool:
        """True when ``a op b = c`` is exact over the integers.

        Written out per operator: the rotation ``b × c = a`` would also
        accept ``0 ÷ 0 = c``.
        """
        if self is Operator.ADD:
            return a + b == c
        if self is Operator.SUB:
            return a - b == c
        if self is Operator.MUL:
            return a * b == c
        return b != 0 and a == b * c


_INVERSES = {Operator.SUB: Operator.ADD, Operator.DIV: Operator.MUL}


class CellKind(enum.Enum):
    EMPTY = "empty"
    NUMBER = "number"
    OPERATOR = "operator"
    EQUALS = "equals"
    TARGET = "target"


@dataclass(frozen=True)
class Cell:
    """One grid cell. ``value`` is set for NUMBER, ``op`` for OPERATOR."""

    kind: CellKind
    value: int | None = None
    op: Operator | None = None

    def __post_init__(self) -> None:
        if self.kind is CellKind.NUMBER:
            if self.value is None or self.value < 1:
                raise ValueError(f"number cells need a value >= 1, got {self.value}")
        elif self.value is not None:
            raise ValueError(f"{self.kind.value} cells carry no value")
        if (self.kind is CellKind.OPERATOR) != (self.op is not None):
            raise ValueError("op is set exactly for operator cells")

    @staticmethod
    def number(value: int) -> Cell:
        return Cell(CellKind.NUMBER, value=value)

    @staticmethod
    def operator(op: Operator) -> Cell:
        return Cell(CellKind.OPERATOR, op=op)


EMPTY = Cell(CellKind.EMPTY)
EQUALS = Cell(CellKind.EQUALS)
TARGET = Cell(CellKind.TARGET)


@dataclass(frozen=True)
class Grid:
    """Immutable rectangular cell array, row-major."""

    rows: int
    cols: int
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        if len(self.cells) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} cells, got {len(self.cells)}"
            )

    @staticmethod
    def from_rows(rows: list[list[Cell]]) -> Grid:
        if not rows or not rows[0]:
            raise ValueError("need at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return Grid(len(rows), width, tuple(chain.from_iterable(rows)))

    def at(self, coord: Coord | tuple[int, int]) -> Cell:
        r, c = coord
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r}, {c}) outside {self.rows}x{self.cols} grid")
        return self.cells[r * self.cols + c]

    def with_cells(self, updates: dict[Coord, Cell]) -> Grid:
        """A copy of the grid with the cells at the given coordinates replaced."""
        new_cells = list(self.cells)
        for coord, cell in updates.items():
            new_cells[coord.row * self.cols + coord.col] = cell
        return Grid(self.rows, self.cols, tuple(new_cells))


class Orientation(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


#: The (row, col) step from one cell of a run to the next, per orientation.
STEP = {Orientation.HORIZONTAL: (0, 1), Orientation.VERTICAL: (1, 0)}


class Equation(NamedTuple):
    """One 5-cell arithmetic constraint ``a op b = c`` on the grid.

    The five cells (a, op_cell, b, eq_cell, c) are consecutive along the
    orientation axis. ``id`` is the equation's index in the list
    ``detect_equations`` returns, which follows detection scan order.
    """

    id: int
    orientation: Orientation
    a: Coord
    b: Coord
    c: Coord
    op: Operator
    op_cell: Coord
    eq_cell: Coord

    @property
    def operands(self) -> tuple[Coord, Coord, Coord]:
        return (self.a, self.b, self.c)


class Resolution(NamedTuple):
    """One deduced value: which equation fixed which coordinate."""

    eq_id: int
    coord: Coord
    value: int


@dataclass(frozen=True)
class SolutionTrace:
    """Deduction steps grouped by iteration: the one record of a solution.

    ``steps[i]`` holds every resolution made in iteration i+1, so i+1 is the
    hop depth of each cell it resolves; a coordinate appears at most once
    across all steps. The other fields are read off ``steps`` when the trace
    is built; equality and hashing look at ``steps`` alone.
    """

    steps: tuple[tuple[Resolution, ...], ...]
    #: ``(coord, value, hop depth)`` of every resolved cell, in target (reading) order.
    resolved: list[tuple[Coord, int, int]] = field(init=False, repr=False, compare=False)
    #: Every resolved value, in target (reading) order.
    answers: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: The hop depth of every resolved cell, aligned with ``answers``.
    hop_depths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        resolved = sorted(
            (r.coord, r.value, hop) for hop, step in enumerate(self.steps, 1) for r in step
        )
        object.__setattr__(self, "resolved", resolved)
        object.__setattr__(self, "answers", tuple([value for _, value, _ in resolved]))
        object.__setattr__(self, "hop_depths", tuple([hop for _, _, hop in resolved]))

    def to_json(self) -> dict:
        return {
            "steps": [
                [
                    {"eq": r.eq_id, "row": r.coord.row, "col": r.coord.col, "value": r.value}
                    for r in step
                ]
                for step in self.steps
            ]
        }

    @staticmethod
    def from_json(data: object) -> SolutionTrace:
        """Exactly ``to_json``'s form, ints not bools or floats: ``to_json`` gives ``data`` back."""
        if len(check_type(data, dict, "trace")) != 1:
            raise ValueError("trace must hold the key 'steps' alone")
        new, steps = tuple.__new__, []  # new: what NamedTuple constructors call, minus a frame
        for step in check_type(data["steps"], list, "trace steps"):
            resolutions = []
            for r in check_type(step, list, "trace step"):
                if type(r) is not dict or len(r) != 4:
                    check_type(r, dict, "trace resolution")
                    raise ValueError("trace resolution must hold eq, row, col and value alone")
                eq, row, col, value = r["eq"], r["row"], r["col"], r["value"]
                if not type(eq) is type(row) is type(col) is type(value) is int:
                    for key in ("eq", "row", "col", "value"):
                        check_type(r[key], int, f"trace {key}")
                resolutions.append(new(Resolution, (eq, new(Coord, (row, col)), value)))
            steps.append(tuple(resolutions))
        return SolutionTrace(tuple(steps))


class Difficulty(enum.Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


@dataclass(frozen=True)
class DatasetExample:
    """One benchmark instance: query grid, its solution trace, and artifacts.

    The trace is the example's one record of its solution: ``gold_answers``
    and ``hop_depths`` are read from it, aligned and ordered by
    :func:`target_order`. ``images`` maps style id to the query-image path
    (relative to the manifest that references it).
    """

    id: str
    grid: Grid
    markdown: str
    images: dict[str, str]
    gen_params: "GenParams"
    trace: SolutionTrace

    def __post_init__(self) -> None:
        if [coord for coord, _, _ in self.trace.resolved] != target_order(self.grid):
            raise ValueError(f"example {self.id}: the trace does not resolve exactly its targets")

    @property
    def difficulty(self) -> Difficulty:
        return self.gen_params.difficulty

    @property
    def seed(self) -> int:
        return self.gen_params.seed

    @property
    def gold_answers(self) -> tuple[int, ...]:
        return self.trace.answers

    @property
    def hop_depths(self) -> tuple[int, ...]:
        return self.trace.hop_depths

    @cached_property
    def answer_grid(self) -> Grid:
        """The query grid with every target filled in with its answer."""
        return self.grid.with_cells(
            {coord: Cell.number(value) for coord, value, _ in self.trace.resolved}
        )


def target_order(grid: Grid) -> list[Coord]:
    """Target coordinates in reading order: top to bottom, left to right.

    This single row-major scan is also what "left-to-right, top-to-bottom"
    means for a grid: rows outer, columns inner. Answers are always listed
    in this order.
    """
    cols, target, new = grid.cols, CellKind.TARGET, tuple.__new__
    return [new(Coord, divmod(i, cols)) for i, cell in enumerate(grid.cells) if cell.kind is target]
