"""The layout builder's one-rule span check agrees with the check it replaced.

``_span_clear`` once also required the two cells flanking a new 5-cell run
and every perpendicular neighbour of its non-shared cells to be empty, and
re-checked that the shared anchor was placed. The reference below keeps that
check. On the layout lattice (every equation starts at an even row and an
even column) those extra tests reject nothing that the emptiness rule lets
through, so on every call made while generating examples over the golden
configuration grid the two must agree; and no generated operand may leave
the lattice.
"""

from __future__ import annotations

from mathgrid import generator
from mathgrid.core import STEP, Difficulty, Orientation
from mathgrid.generator import _Board, _span, GenParams, generate_batch
from mathgrid.solver import detect_equations

from test_golden import GRID

# -- reference implementation -----------------------------------------------


def reference_span_clear(
    board: _Board,
    start: tuple[int, int],
    orientation: Orientation,
    shared: tuple[int, int] | None,
) -> bool:
    """New cells must land on empty plane, not touching parallel content.

    The two cells flanking the 5-cell run stay empty, and every new cell's
    perpendicular neighbors must be empty; this is what rules out spurious
    or merged patterns no matter what is placed later.
    """
    dr, dc = STEP[orientation]
    before = (start[0] - dr, start[1] - dc)
    after = (start[0] + 5 * dr, start[1] + 5 * dc)
    if before in board.cells or after in board.cells:
        return False
    for pos in _span(start, orientation):
        if pos == shared:
            if pos not in board.cells:
                return False
            continue
        if pos in board.cells:
            return False
        for perp in ((pos[0] + dc, pos[1] + dr), (pos[0] - dc, pos[1] - dr)):
            if perp in board.cells:
                return False
    return True


# ---------------------------------------------------------------------------


def _params(difficulty: str, value_range: str, equation_count: str, seed: int) -> GenParams:
    """The golden grid's configuration, as ``generate`` reads it from its flags."""
    return GenParams(
        difficulty=Difficulty(difficulty),
        value_range=tuple(map(int, value_range.split(":"))),
        equation_count=tuple(map(int, equation_count.split(":"))),
        seed=seed,
    )


def test_span_clear_agrees_with_the_reference_on_every_call(monkeypatch):
    live = generator._span_clear
    calls, rejections, disagreements = 0, 0, []

    def compared(board, start, orientation, shared):
        nonlocal calls, rejections
        result = live(board, start, orientation, shared)
        if result != reference_span_clear(board, start, orientation, shared):
            disagreements.append((dict(board.cells), start, orientation, shared))
        calls += 1
        rejections += not result
        return result

    monkeypatch.setattr(generator, "_span_clear", compared)
    for difficulty, value_range, equation_count in GRID:
        generate_batch(_params(difficulty, value_range, equation_count, 20261019), 10)
    assert disagreements == []
    assert rejections >= 1000, (calls, rejections)


def test_every_operand_lies_on_the_first_equations_lattice():
    for difficulty, value_range, equation_count in GRID:
        for example in generate_batch(_params(difficulty, value_range, equation_count, 18), 15):
            equations = detect_equations(example.grid)
            first = equations[0].a
            off = [
                (eq.id, cell)
                for eq in equations
                for cell in eq.operands
                if (cell.row - first.row) % 2 or (cell.col - first.col) % 2
            ]
            assert off == [], (difficulty, value_range, equation_count, example.id)
