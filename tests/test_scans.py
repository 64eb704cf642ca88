"""The flat-cell scans agree with the per-coordinate scans they replaced.

``target_order``, ``detect_equations`` and ``_initial_knowns`` walk
``Grid.cells`` by index. The reference versions below walk the grid through
``coords()`` and ``at()`` one coordinate at a time, exactly as the package
first did; on every grid both must give equal results, and on a malformed
grid both must raise the same ``MalformedGrid``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from mathgrid.core import (
    EMPTY,
    EQUALS,
    TARGET,
    Cell,
    CellKind,
    Coord,
    Equation,
    Grid,
    Operator,
    Orientation,
    target_order,
)
from mathgrid.solver import MalformedGrid, _initial_knowns, detect_equations

from conftest import coords

# -- reference implementations ----------------------------------------------

_PATTERN_OFFSETS = (0, 1, 2, 3, 4)


def reference_target_order(grid: Grid) -> list[Coord]:
    return [coord for coord in coords(grid) if grid.at(coord).kind is CellKind.TARGET]


def reference_initial_knowns(grid: Grid) -> dict[Coord, int]:
    return {
        coord: grid.at(coord).value
        for coord in coords(grid)
        if grid.at(coord).kind is CellKind.NUMBER
    }


_OPERAND_KINDS = (CellKind.NUMBER, CellKind.TARGET)


def _window_matches(cells: list[Cell]) -> bool:
    return (
        cells[0].kind in _OPERAND_KINDS
        and cells[1].kind is CellKind.OPERATOR
        and cells[2].kind in _OPERAND_KINDS
        and cells[3].kind is CellKind.EQUALS
        and cells[4].kind in _OPERAND_KINDS
    )


def _is_clear(grid: Grid, r: int, c: int) -> bool:
    if not (0 <= r < grid.rows and 0 <= c < grid.cols):
        return True
    return grid.at((r, c)).kind is CellKind.EMPTY


def reference_detect_equations(grid: Grid) -> list[Equation]:
    found: list[tuple[Orientation, Coord, Operator]] = []
    for r in range(grid.rows):
        for c in range(grid.cols - 4):
            window = [grid.at((r, c + i)) for i in _PATTERN_OFFSETS]
            if _window_matches(window) and _is_clear(grid, r, c - 1) and _is_clear(grid, r, c + 5):
                found.append((Orientation.HORIZONTAL, Coord(r, c), window[1].op))
    for r in range(grid.rows - 4):
        for c in range(grid.cols):
            window = [grid.at((r + i, c)) for i in _PATTERN_OFFSETS]
            if _window_matches(window) and _is_clear(grid, r - 1, c) and _is_clear(grid, r + 5, c):
                found.append((Orientation.VERTICAL, Coord(r, c), window[1].op))

    equations = []
    for eq_id, (orientation, start, op) in enumerate(found):
        dr, dc = (0, 1) if orientation is Orientation.HORIZONTAL else (1, 0)
        cells = [Coord(start.row + i * dr, start.col + i * dc) for i in _PATTERN_OFFSETS]
        equations.append(
            Equation(
                id=eq_id,
                orientation=orientation,
                a=cells[0],
                b=cells[2],
                c=cells[4],
                op=op,
                op_cell=cells[1],
                eq_cell=cells[3],
            )
        )

    op_cells = {eq.op_cell for eq in equations}
    eq_cells = {eq.eq_cell for eq in equations}
    for coord in coords(grid):
        kind = grid.at(coord).kind
        if kind is CellKind.OPERATOR and coord not in op_cells:
            raise MalformedGrid(f"operator at {tuple(coord)} belongs to no equation")
        if kind is CellKind.EQUALS and coord not in eq_cells:
            raise MalformedGrid(f"equals sign at {tuple(coord)} belongs to no equation")
    return equations


# -- random grids -----------------------------------------------------------

_OPERANDS = st.sampled_from([TARGET, Cell.number(3), Cell.number(12)])
_ANY_CELL = st.sampled_from(
    [EMPTY, TARGET, EQUALS, Cell.number(7)] + [Cell.operator(op) for op in Operator]
)


@st.composite
def grids(draw) -> Grid:
    """Small grids with a few 5-cell runs stamped in (some clipped by a
    small grid's edge, extended, crossing or touching) plus a few stray
    cells, so both well-formed and malformed grids come up often."""
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 10))
    cells = [EMPTY] * (rows * cols)
    for _ in range(draw(st.integers(0, 4))):
        dr, dc = draw(st.sampled_from([(0, 1), (1, 0)]))
        r = draw(st.integers(0, max(0, rows - 1 - 4 * dr)))
        c = draw(st.integers(0, max(0, cols - 1 - 4 * dc)))
        run = {
            0: draw(_OPERANDS),
            1: Cell.operator(draw(st.sampled_from(list(Operator)))),
            2: draw(_OPERANDS),
            3: EQUALS,
            4: draw(_OPERANDS),
        }
        for beyond in (-1, 5):  # now and then an operand that extends the run
            if draw(st.integers(0, 4)) == 0:
                run[beyond] = draw(_OPERANDS)
        for k, cell in run.items():
            if 0 <= r + k * dr < rows and 0 <= c + k * dc < cols:
                cells[(r + k * dr) * cols + c + k * dc] = cell
    for _ in range(draw(st.integers(0, 2))):
        cells[draw(st.integers(0, rows * cols - 1))] = draw(_ANY_CELL)
    return Grid(rows, cols, tuple(cells))


def _outcome(detect, grid: Grid):
    try:
        return ("equations", detect(grid))
    except MalformedGrid as exc:
        return ("malformed", str(exc))


@settings(max_examples=400, deadline=None)
@given(grids())
def test_flat_scans_match_per_coordinate_reference(grid):
    assert target_order(grid) == reference_target_order(grid)
    knowns = _initial_knowns(grid)
    assert list(knowns.items()) == list(reference_initial_knowns(grid).items())
    assert _outcome(detect_equations, grid) == _outcome(reference_detect_equations, grid)


def test_flat_scans_match_reference_on_generated_puzzles(mixed_corpus):
    for example in mixed_corpus:
        for grid in (example.grid, example.answer_grid):
            assert target_order(grid) == reference_target_order(grid)
            assert _initial_knowns(grid) == reference_initial_knowns(grid)
            assert detect_equations(grid) == reference_detect_equations(grid)
