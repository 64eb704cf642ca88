"""Equation topology detection and iterative deduction.

``detect_equations`` finds every horizontal/vertical 5-cell pattern
``operand op operand = operand``. ``deduce`` then solves all target cells
by repeated 2-of-3 inference with synchronized per-iteration commits, so
each step depends only on earlier iterations. ``brute_force_oracle`` is an
independent exhaustive check used to confirm uniqueness and correctness.
"""

from __future__ import annotations

from .core import (
    STEP,
    CellKind,
    Coord,
    Equation,
    Grid,
    MathGridError,
    Operator,
    Resolution,
    SolutionTrace,
    shown,
    target_order,
)

HopMap = dict[Coord, int]


class MalformedGrid(MathGridError):
    """An operator or equals cell is not part of any 5-cell equation."""


class NoIntegerSolution(MathGridError):
    """No positive integer completes the equation."""


class Unsolvable(MathGridError):
    """Deduction reached a fixpoint with unresolved targets."""


class Contradiction(MathGridError):
    """Two deductions disagree, or a fully known equation is false."""


class ArityMismatch(MathGridError):
    """Answer list length differs from the number of targets."""


class CapExceeded(MathGridError):
    """Brute-force request outside the configured enumeration caps."""


# Where operand 0, 1 or 2 of ``a op b = c`` (its index in ``Equation.operands``)
# sits in the inverse equation ``b inv c = a``.
INVERSE_SLOT = (2, 0, 1)
# The other two operands of operand 0, 1 or 2, in operand order.
_OTHER_SLOTS = ((1, 2), (0, 2), (0, 1))

# CellKind members bound once: reading one off the Enum class costs several
# times a module global.
_OPERATOR, _EQUALS, _EMPTY = CellKind.OPERATOR, CellKind.EQUALS, CellKind.EMPTY
_OPERAND_KINDS = (CellKind.NUMBER, CellKind.TARGET)


def _run_matches(kinds: list[CellKind], op: int, step: int, first: bool, last: bool) -> bool:
    """``operand op operand = operand`` around the operator at flat index
    ``op``, cells ``step`` apart. ``first``/``last`` say the run touches the
    grid's edge; otherwise the cell beyond that end must be empty, as
    anything else would extend the run."""
    return (
        kinds[op - step] in _OPERAND_KINDS
        and kinds[op + step] in _OPERAND_KINDS
        and kinds[op + 2 * step] is _EQUALS
        and kinds[op + 3 * step] in _OPERAND_KINDS
        and (first or kinds[op - 2 * step] is _EMPTY)
        and (last or kinds[op + 4 * step] is _EMPTY)
    )


def detect_equations(grid: Grid) -> list[Equation]:
    """Find all equations; horizontal ones first, each set in scan order.

    Each equation's operator cell follows its first cell, so a row-major
    pass over the operator cells meets both sets in scan order.

    Raises MalformedGrid when an operator or equals cell is left over, which
    happens for runs longer or shorter than the exact 5-cell pattern; the
    first such cell in reading order is named.
    """
    rows, cols, cells = grid.rows, grid.cols, grid.cells
    kinds = [cell.kind for cell in cells]
    ops = [i for i, kind in enumerate(kinds) if kind is _OPERATOR]
    horizontal: list[int] = []
    vertical: list[int] = []
    for i in ops:
        r, c = divmod(i, cols)
        if 1 <= c <= cols - 4 and _run_matches(kinds, i, 1, c == 1, c == cols - 4):
            horizontal.append(i)
        if 1 <= r <= rows - 4 and _run_matches(kinds, i, cols, r == 1, r == rows - 4):
            vertical.append(i)

    # flat indices of the operator and equals cells no equation takes
    equals = {i for i, kind in enumerate(kinds) if kind is _EQUALS}
    leftover = set(ops).difference(horizontal, vertical) | equals.difference(
        [i + 2 for i in horizontal], [i + 2 * cols for i in vertical]
    )
    if leftover:
        first = min(leftover)
        what = "operator" if kinds[first] is _OPERATOR else "equals sign"
        raise MalformedGrid(f"{what} at {divmod(first, cols)} belongs to no equation")

    equations: list[Equation] = []
    new = tuple.__new__  # what the NamedTuple constructors call, without their frame
    for (orientation, (dr, dc)), found in zip(STEP.items(), (horizontal, vertical)):
        for i in found:
            y, x = divmod(i, cols)
            a, op_cell, b = new(Coord, (y - dr, x - dc)), new(Coord, (y, x)), new(Coord, (y + dr, x + dc))
            eq_cell, c = new(Coord, (y + 2 * dr, x + 2 * dc)), new(Coord, (y + 3 * dr, x + 3 * dc))
            fields = (len(equations), orientation, a, b, c, cells[i].op, op_cell, eq_cell)
            equations.append(new(Equation, fields))
    return equations


def solve_missing(op: Operator, unknown: int, known1: int, known2: int) -> int:
    """Solve ``a op b = c`` for operand ``unknown`` (0, 1 or 2: a, b or c).

    ``known1``/``known2`` are the two known values in operand order. The result
    must be a positive integer; range limits are the generator's concern.
    − and ÷ are solved as their inverse (``b + c = a``, ``b × c = a``), where
    operand i sits at ``INVERSE_SLOT[i]``; the two knowns swap places there
    unless ``a`` is the unknown.
    """
    inverse = op.inverse
    if inverse is not None:
        if unknown != 0:
            known1, known2 = known2, known1
        return solve_missing(inverse, INVERSE_SLOT[unknown], known1, known2)
    if unknown == 2:
        result = known1 + known2 if op is Operator.ADD else known1 * known2
    elif op is Operator.ADD:
        result = known2 - known1
    else:
        if known1 == 0 or known2 % known1 != 0:
            raise NoIntegerSolution(f"{shown(known2)} ÷ {shown(known1)} is not an integer")
        result = known2 // known1
    if result < 1:
        raise NoIntegerSolution(
            f"slot {'abc'[unknown]} of {op.value} with knowns {shown(known1)}, {shown(known2)} "
            f"would be {shown(result)}, below 1"
        )
    return result


def _initial_knowns(grid: Grid) -> dict[Coord, int]:
    cols, number, new = grid.cols, CellKind.NUMBER, tuple.__new__
    return {
        new(Coord, divmod(i, cols)): cell.value
        for i, cell in enumerate(grid.cells)
        if cell.kind is number
    }


def deduce(
    grid: Grid, equations: list[Equation] | None = None
) -> tuple[SolutionTrace, HopMap]:
    """Resolve every target by iterated 2-of-3 deduction.

    Each iteration scans all unresolved equations; any with at least two
    known operands resolves (or, fully known, is consistency-checked). New
    values are committed only after the iteration finishes, so a step never
    depends on values found within the same step. Returns the trace and a
    map from each resolved cell to its hop depth (``trace.hop_depths`` in
    target order). ``equations``, when given, must be ``detect_equations``
    of a grid with the same topology, such as the answer grid, in id order.
    """
    open_eqs = detect_equations(grid) if equations is None else equations  # in id order
    known = _initial_knowns(grid)
    get, new = known.get, tuple.__new__
    steps: list[tuple[Resolution, ...]] = []

    while True:
        pending: dict[Coord, Resolution] = {}
        still_open: list[Equation] = []
        for eq in open_eqs:
            eq_id, _, a, b, c, op, _, _ = eq
            values = (get(a), get(b), get(c))
            missing = values.count(None)
            if missing > 1:
                still_open.append(eq)
                continue
            if not missing:
                if not op.holds(*values):
                    va, vb, vc = values
                    raise Contradiction(
                        f"equation {eq_id}: {shown(va)} {op.value} {shown(vb)} != {shown(vc)}"
                    )
                continue
            unknown = values.index(None)
            first, second = _OTHER_SLOTS[unknown]
            try:
                value = solve_missing(op, unknown, values[first], values[second])
            except NoIntegerSolution as exc:
                raise Contradiction(f"equation {eq_id}: {exc}") from exc
            coord = (a, b, c)[unknown]
            earlier = pending.get(coord)
            if earlier is not None:
                if earlier.value != value:
                    raise Contradiction(
                        f"cell {tuple(coord)} deduced as both {shown(earlier.value)} "
                        f"(eq {earlier.eq_id}) and {shown(value)} (eq {eq_id})"
                    )
                # same value from a higher-id equation: keep the first
            else:
                pending[coord] = new(Resolution, (eq_id, coord, value))

        open_eqs = still_open
        if not pending:
            break
        step = tuple(pending.values())  # each cell's first equation, so in id order
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


def verify_solution(grid: Grid, answers: list[int] | tuple[int, ...]) -> bool:
    """Substitute answers in target order and check every equation exactly."""
    targets = target_order(grid)
    if len(answers) != len(targets):
        raise ArityMismatch(f"{len(targets)} targets, {len(answers)} answers")
    equations = detect_equations(grid)
    values = _initial_knowns(grid)
    values.update(zip(targets, answers))
    return all(
        eq.op.holds(values[eq.a], values[eq.b], values[eq.c]) for eq in equations
    )


def brute_force_oracle(
    grid: Grid,
    value_range: tuple[int, int],
    *,
    max_targets: int = 6,
    max_span: int = 300,
) -> list[list[int]]:
    """Every assignment of targets to [lo, hi] that satisfies all equations.

    Exhaustive backtracking over target values; branches are cut only when a
    fully assigned equation is already false, so the result set is exactly
    what plain enumeration would return. Targets tied into nearly complete
    equations are assigned first to keep the search shallow.
    """
    lo, hi = value_range
    targets = target_order(grid)
    if len(targets) > max_targets:
        raise CapExceeded(f"{len(targets)} targets exceeds cap {max_targets}")
    if hi - lo > max_span:
        raise CapExceeded(f"range span {hi - lo} exceeds cap {max_span}")

    equations = detect_equations(grid)
    fixed = _initial_knowns(grid)
    target_set = set(targets)
    eqs_by_target: dict[Coord, list[Equation]] = {t: [] for t in targets}
    for eq in equations:
        unknowns = [c for c in eq.operands if c in target_set]
        if not unknowns:
            a, b, c = (fixed[x] for x in eq.operands)
            if not eq.op.holds(a, b, c):
                return []
        for coord in unknowns:
            eqs_by_target[coord].append(eq)

    assignment: dict[Coord, int] = {}
    results: list[list[int]] = []

    def lookup(coord: Coord) -> int | None:
        v = fixed.get(coord)
        return v if v is not None else assignment.get(coord)

    def consistent(coord: Coord) -> bool:
        for eq in eqs_by_target[coord]:
            vals = [lookup(x) for x in eq.operands]
            if None not in vals and not eq.op.holds(*vals):
                return False
        return True

    def next_target(open_targets: list[Coord]) -> Coord:
        def open_count(t: Coord) -> tuple[int, Coord]:
            counts = [
                sum(1 for x in eq.operands if x in target_set and x not in assignment)
                for eq in eqs_by_target[t]
            ]
            return (min(counts) if counts else 4, t)

        return min(open_targets, key=open_count)

    def search(open_targets: list[Coord]) -> None:
        if not open_targets:
            results.append([assignment[t] for t in targets])
            return
        t = next_target(open_targets)
        rest = [x for x in open_targets if x != t]
        for v in range(lo, hi + 1):
            assignment[t] = v
            if consistent(t):
                search(rest)
            del assignment[t]

    search(list(targets))
    return results
