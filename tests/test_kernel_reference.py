"""The per-cell and per-equation kernels agree with the versions they replaced.

``cell_text``, ``to_markdown``, ``_initial_knowns``, ``deduce``,
``Operator.inverse``, ``Equation.operands`` and ``Cell.number`` were rewritten
to run fewer Python frames and no ``Enum.__hash__`` per cell or equation.
The references below keep the earlier code. On every grid that
``tests/test_golden.py`` generates (query and answer grid), and on drawn
grids with every cell kind and operator, including grids that contradict
themselves or cannot be solved, each pair must give equal results, or raise
the same exception type with the same text.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from mathgrid.cli import build_parser
from mathgrid.core import (
    EMPTY,
    TARGET,
    Cell,
    CellKind,
    Coord,
    Difficulty,
    Equation,
    Grid,
    MathGridError,
    Operator,
    Resolution,
    SolutionTrace,
    shown,
    target_order,
)
from mathgrid.generator import GenParams, generate_batch
from mathgrid.render.markdown import cell_text, to_markdown
from mathgrid.solver import (
    Contradiction,
    NoIntegerSolution,
    Unsolvable,
    _initial_knowns,
    deduce,
    detect_equations,
    solve_missing,
)

from test_golden import CASES, GRID, GRID_IMAGE_COUNT, GRID_TEXT_COUNT, SEED
from test_scans import grids

# -- reference implementations ----------------------------------------------

_REFERENCE_CELL_TEXT = {
    CellKind.EMPTY: " ",
    CellKind.EQUALS: "=",
    CellKind.TARGET: "?",
}
_REFERENCE_INVERSES = {Operator.SUB: Operator.ADD, Operator.DIV: Operator.MUL}


def reference_inverse(op: Operator) -> Operator | None:
    return _REFERENCE_INVERSES.get(op)


def reference_operands(eq: Equation) -> tuple[Coord, Coord, Coord]:
    return (eq.a, eq.b, eq.c)


def reference_number(value: int) -> Cell:
    return Cell(CellKind.NUMBER, value=value)


def reference_cell_text(cell: Cell) -> str:
    if cell.kind is CellKind.NUMBER:
        return str(cell.value)
    if cell.kind is CellKind.OPERATOR:
        return cell.op.value
    return _REFERENCE_CELL_TEXT[cell.kind]


def reference_to_markdown(grid: Grid) -> str:
    cols = grid.cols
    rows = (grid.cells[r * cols : (r + 1) * cols] for r in range(grid.rows))
    lines = ["| " + " | ".join(map(reference_cell_text, row)) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def reference_initial_knowns(grid: Grid) -> dict[Coord, int]:
    cols = grid.cols
    return {
        Coord(i // cols, i % cols): cell.value
        for i, cell in enumerate(grid.cells)
        if cell.kind is CellKind.NUMBER
    }


def reference_deduce(grid: Grid, equations: list[Equation] | None = None):
    open_eqs = detect_equations(grid) if equations is None else equations
    known = reference_initial_knowns(grid)
    steps: list[tuple[Resolution, ...]] = []

    while True:
        pending: dict[Coord, Resolution] = {}
        still_open: list[Equation] = []
        for eq in open_eqs:
            values = [known.get(coord) for coord in reference_operands(eq)]
            missing = [i for i, v in enumerate(values) if v is None]
            if len(missing) > 1:
                still_open.append(eq)
                continue
            if not missing:
                a, b, c = values
                if not eq.op.holds(a, b, c):
                    raise Contradiction(
                        f"equation {eq.id}: {shown(a)} {eq.op.value} {shown(b)} != {shown(c)}"
                    )
                continue
            knowns = [v for v in values if v is not None]
            try:
                value = solve_missing(eq.op, missing[0], knowns[0], knowns[1])
            except NoIntegerSolution as exc:
                raise Contradiction(f"equation {eq.id}: {exc}") from exc
            coord = reference_operands(eq)[missing[0]]
            earlier = pending.get(coord)
            if earlier is not None:
                if earlier.value != value:
                    raise Contradiction(
                        f"cell {tuple(coord)} deduced as both {shown(earlier.value)} "
                        f"(eq {earlier.eq_id}) and {shown(value)} (eq {eq.id})"
                    )
            else:
                pending[coord] = Resolution(eq.id, coord, value)

        open_eqs = still_open
        if not pending:
            break
        step = tuple(pending.values())
        steps.append(step)
        for res in step:
            known[res.coord] = res.value

    unresolved = [coord for coord in target_order(grid) if coord not in known]
    if unresolved:
        where = [tuple(c) for c in unresolved[:10]]
        more = f" and {len(unresolved) - 10} more" if len(unresolved) > 10 else ""
        raise Unsolvable(f"targets {where}{more} cannot be deduced")

    hops = {res.coord: hop for hop, step in enumerate(steps, 1) for res in step}
    return SolutionTrace(tuple(steps)), hops


# ---------------------------------------------------------------------------


def _outcome(function, *args):
    """What ``function`` returns, made comparable, or the type and text of
    the error it raises."""
    try:
        result = function(*args)
    except (MathGridError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, dict):
        return list(result.items())  # insertion order too
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], SolutionTrace):
        trace, hops = result
        return trace.steps, list(hops.items())
    return result


def assert_kernels_agree(grid: Grid) -> None:
    assert [cell_text(cell) for cell in grid.cells] == [reference_cell_text(c) for c in grid.cells]
    assert to_markdown(grid) == reference_to_markdown(grid)
    assert _outcome(_initial_knowns, grid) == _outcome(reference_initial_knowns, grid)
    assert _outcome(deduce, grid) == _outcome(reference_deduce, grid)
    equations = _outcome(detect_equations, grid)
    if type(equations) is list:
        assert _outcome(deduce, grid, equations) == _outcome(reference_deduce, grid, equations)
        for eq in equations:
            assert eq.operands == reference_operands(eq)
            assert type(eq.operands) is tuple


def golden_examples():
    """Every example ``tests/test_golden.py`` generates, built with the
    parameters its ``generate`` commands give."""
    parser = build_parser()
    runs = [(argv, 3, SEED) for argv in CASES.values()]
    for difficulty, value_range, eq_count in GRID:
        argv = ["--difficulty", difficulty, "--range", value_range, "--eq-count", eq_count]
        runs += [(argv, GRID_TEXT_COUNT, SEED), (argv, GRID_IMAGE_COUNT, str(int(SEED) + 1))]
    for argv, count, seed in runs:
        args = parser.parse_args(["generate", *argv, "--count", str(count), "--seed", seed, "--out", "-"])
        params = GenParams(
            difficulty=Difficulty(args.difficulty),
            operators=args.ops,
            value_range=args.range,
            equation_count=args.eq_count,
            max_hop=args.max_hop,
            seed=args.seed,
        )
        yield from generate_batch(params, count)


_GOLDEN = list(golden_examples())


def test_every_golden_grid_gives_the_reference_results():
    assert len(_GOLDEN) == 3 * len(CASES) + (GRID_TEXT_COUNT + GRID_IMAGE_COUNT) * len(GRID)
    for example in _GOLDEN:
        for grid in (example.grid, example.answer_grid):
            assert_kernels_agree(grid)


def test_inverse_agrees_with_the_reference_for_every_operator():
    for op in Operator:
        assert op.inverse is reference_inverse(op)


@given(st.one_of(st.integers(-3, 10**30), st.none(), st.booleans(), st.floats(-2, 5), st.text(max_size=2)))
def test_number_cells_agree_with_the_constructor(value):
    assert _outcome(Cell.number, value) == _outcome(reference_number, value)
    if type(value) is int and value >= 1:
        cell = Cell.number(value)
        assert type(cell) is Cell and list(vars(cell).items()) == list(vars(reference_number(value)).items())


@settings(max_examples=400, deadline=None)
@given(grids())
def test_drawn_grids_give_the_reference_results(grid):
    assert_kernels_agree(grid)


@st.composite
def altered_golden_grids(draw) -> Grid:
    """A golden answer grid with some number cells blanked and others given
    a drawn value: solvable, unsolvable and contradictory grids all come up."""
    grid = _GOLDEN[draw(st.integers(0, len(_GOLDEN) - 1))].answer_grid
    numbers = [i for i, cell in enumerate(grid.cells) if cell.kind is CellKind.NUMBER]
    blanked = draw(st.integers(0, 2 ** len(numbers) - 1))  # bit k: blank number cell k
    cells = list(grid.cells)
    for k, i in enumerate(numbers):
        if blanked >> k & 1:
            cells[i] = TARGET
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.integers(1, 10**25))
        cells[draw(st.sampled_from(numbers))] = Cell.number(value) if draw(st.booleans()) else EMPTY
    return Grid(grid.rows, grid.cols, tuple(cells))


@settings(max_examples=300, deadline=None)
@given(altered_golden_grids())
def test_altered_golden_grids_give_the_reference_results(grid):
    assert_kernels_agree(grid)


def test_the_altered_grids_reach_every_outcome():
    """The strategy above makes grids that deduce, contradict and stall."""
    kinds = set()
    for example in _GOLDEN[:60]:
        grid = example.answer_grid
        numbers = [i for i, cell in enumerate(grid.cells) if cell.kind is CellKind.NUMBER]
        for changed in (
            {numbers[0]: TARGET},
            {i: TARGET for i in numbers},
            {numbers[0]: Cell.number(grid.cells[numbers[0]].value + 1)},
            {numbers[0]: TARGET, numbers[1]: Cell.number(grid.cells[numbers[1]].value + 1)},
        ):
            cells = list(grid.cells)
            for i, cell in changed.items():
                cells[i] = cell
            altered = Grid(grid.rows, grid.cols, tuple(cells))
            assert_kernels_agree(altered)
            outcome = _outcome(reference_deduce, altered)
            kinds.add(outcome[0] if outcome[0] in (Contradiction, Unsolvable) else "solved")
    assert kinds == {"solved", Contradiction, Unsolvable}
