"""Procedural construction of cross-math puzzles with unique solutions.

Layout building places intersecting 5-cell equations crossword-style on an
unbounded plane, then crops. The first equation lies across from (0, 0) and
each later one crosses an operand of a placed one at its offset 0, 2 or 4, so
every equation starts at an even row and an even column: the layout lattice.
Blank punching turns number cells into targets so that iterated 2-of-3
deduction recovers all of them; deduction chains of controlled length realize
the difficulty's hop-depth profile. Because every blank is forced by
deduction, solutions are unique by construction (and the brute-force oracle
re-checks that in tests).
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict
from dataclasses import dataclass, field, replace
from math import isqrt
from pathlib import Path

from .core import (
    STEP,
    Cell,
    Coord,
    DatasetExample,
    Difficulty,
    EMPTY,
    EQUALS,
    Equation,
    Grid,
    MathGridError,
    Operator,
    Orientation,
    SolutionTrace,
    TARGET,
    check_type,
    shown,
    target_order,  # unused here; perfbench/tracing.py counts calls under this name
)
from .render.markdown import to_markdown
from .render.svg import STYLE_IDS, RenderView, render_image, texture_seed_for
from .solver import INVERSE_SLOT, Contradiction, Unsolvable, deduce, detect_equations

_M64 = (1 << 64) - 1


def mix_seed(seed: int, k: int) -> int:
    """Derive an independent 64-bit stream seed (splitmix64 step)."""
    z = (seed + k * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


class RangeInfeasible(MathGridError):
    """The value range admits no valid triple for the requested operator."""


class LayoutFailure(MathGridError):
    """A layout attempt could not place the requested equations."""


class ProfileInfeasible(MathGridError):
    """Could not punch a blank set matching the difficulty profile."""


_MEMBERS = {kind: {m.value: m for m in kind} for kind in (Difficulty, Operator)}


def _member(kind: type[enum.Enum], value: object) -> enum.Enum:
    """``kind(value)``, looked up in a plain dict; its ValueError elides a long value."""
    try:
        return _MEMBERS[kind][value]
    except (KeyError, TypeError):  # TypeError: not hashable
        raise ValueError(f"{shown(value)} is not a valid {kind.__name__}") from None


_DEFAULT_MAX_HOP = {Difficulty.EASY: 1, Difficulty.MEDIUM: 4, Difficulty.HARD: 6}


@dataclass(frozen=True)
class GenParams:
    """Generation knobs: difficulty, operators, ranges, counts, seed."""

    difficulty: Difficulty
    operators: tuple[Operator, ...] = (
        Operator.ADD,
        Operator.SUB,
        Operator.MUL,
        Operator.DIV,
    )
    value_range: tuple[int, int] = (50, 250)
    equation_count: tuple[int, int] = (5, 15)
    max_hop: int = 0  # 0 means "difficulty default"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("need at least one operator")
        lo, hi = self.value_range
        if lo < 1 or lo > hi:
            raise ValueError(f"bad value range [{lo}, {hi}]")
        n_min, n_max = self.equation_count
        if n_min < 1 or n_min > n_max:
            raise ValueError(f"bad equation count range [{n_min}, {n_max}]")
        if self.max_hop == 0:
            object.__setattr__(self, "max_hop", _DEFAULT_MAX_HOP[self.difficulty])
        if self.difficulty is Difficulty.EASY and self.max_hop != 1:
            raise ValueError("easy puzzles are single-step: max_hop must be 1")
        if self.max_hop < 1:
            raise ValueError("max_hop must be >= 1")

    def to_json(self) -> dict:
        return {
            "difficulty": self.difficulty.value,
            "operators": [op.value for op in self.operators],
            "value_range": list(self.value_range),
            "equation_count": list(self.equation_count),
            "max_hop": self.max_hop,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(data: object) -> GenParams:
        check_type(data, dict, "gen_params")
        for key in ("value_range", "equation_count"):
            for n in check_type(data[key], list, f"gen_params {key}"):
                check_type(n, int, f"gen_params {key} value")
        return GenParams(
            difficulty=_member(Difficulty, data["difficulty"]),
            operators=tuple(_member(Operator, symbol) for symbol in data["operators"]),
            value_range=tuple(data["value_range"]),
            equation_count=tuple(data["equation_count"]),
            max_hop=check_type(data["max_hop"], int, "gen_params max_hop"),
            seed=check_type(data["seed"], int, "gen_params seed"),
        )


@dataclass(frozen=True)
class DifficultyProfile:
    """Blank-count and hop-depth targets for one difficulty level.

    ``target_hop_histogram`` keys are hop depths 1-4, where 4 stands for
    "4 or more". Values are desired proportions of blanks per depth.
    """

    blanks_per_equation_weights: dict[int, float]
    target_hop_histogram: dict[int, float]

    def __post_init__(self) -> None:
        for dist in (self.blanks_per_equation_weights, self.target_hop_histogram):
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"distribution sums to {total}, not 1")


PROFILES: dict[Difficulty, DifficultyProfile] = {
    Difficulty.EASY: DifficultyProfile(
        blanks_per_equation_weights={1: 1.0, 2: 0.0},
        target_hop_histogram={1: 1.0, 2: 0.0, 3: 0.0, 4: 0.0},
    ),
    Difficulty.MEDIUM: DifficultyProfile(
        blanks_per_equation_weights={1: 0.8, 2: 0.2},
        target_hop_histogram={1: 0.781, 2: 0.156, 3: 0.054, 4: 0.009},
    ),
    Difficulty.HARD: DifficultyProfile(
        blanks_per_equation_weights={1: 0.55, 2: 0.45},
        target_hop_histogram={1: 0.482, 2: 0.237, 3: 0.163, 4: 0.118},
    ),
}


def _op_feasible(op: Operator, lo: int, hi: int) -> bool:
    if (op.inverse or op) is Operator.ADD:
        return 2 * lo <= hi
    return lo * lo <= hi


def sample_equation(
    op: Operator, value_range: tuple[int, int], rng: random.Random
) -> tuple[int, int, int]:
    """Random exact triple ``a op b = c`` with all three values in range.

    − and ÷ rotate a triple ``(x, y, z)`` of their inverse to ``(z, x, y)``.
    """
    lo, hi = value_range
    if not _op_feasible(op, lo, hi):
        raise RangeInfeasible(f"{op.value} admits no triple within [{lo}, {hi}]")
    if op.inverse is not None:
        x, y, z = sample_equation(op.inverse, value_range, rng)
        return (z, x, y)
    if op is Operator.ADD:
        x = rng.randint(lo, hi - lo)
        y = rng.randint(lo, hi - x)
        return (x, y, x + y)
    x = rng.randint(lo, hi // lo)
    y = rng.randint(lo, hi // x)
    return (x, y, x * y)


def _ordered_divisor_pairs(v: int, lo: int, hi: int) -> list[tuple[int, int]]:
    pairs = []
    for d in range(max(lo, 1), isqrt(v) + 1):
        if v % d == 0:
            q = v // d
            if lo <= d <= hi and lo <= q <= hi:
                pairs.append((d, q))
                if q != d:
                    pairs.append((q, d))
    return sorted(pairs)


def sample_equation_at(
    op: Operator,
    slot: int,
    value: int,
    value_range: tuple[int, int],
    rng: random.Random,
) -> tuple[int, int, int] | None:
    """Random triple with operand ``slot`` (0, 1 or 2: a, b or c) pinned to
    ``value``; None if impossible.

    − and ÷ pin operand ``INVERSE_SLOT[slot]`` of their inverse and rotate
    its triple ``(x, y, z)`` to ``(z, x, y)``.
    """
    lo, hi = value_range
    if not (lo <= value <= hi):
        return None
    if op.inverse is not None:
        triple = sample_equation_at(op.inverse, INVERSE_SLOT[slot], value, value_range, rng)
        return None if triple is None else (triple[2], triple[0], triple[1])
    if slot == 2:
        if op is Operator.ADD:
            if 2 * lo > value:
                return None
            a = rng.randint(lo, value - lo)
            return (a, value - a, value)
        pairs = _ordered_divisor_pairs(value, lo, hi)
        if not pairs:
            return None
        a, b = rng.choice(pairs)
        return (a, b, value)
    high = hi - value if op is Operator.ADD else hi // value
    if lo > high:
        return None
    other = rng.randint(lo, high)
    c = value + other if op is Operator.ADD else value * other
    return (value, other, c) if slot == 0 else (other, value, c)


# ---------------------------------------------------------------------------
# Layout construction


@dataclass
class _Board:
    """Sparse plane of placed cells during layout building."""

    cells: dict[tuple[int, int], Cell] = field(default_factory=dict)
    # operand cell -> index of its equation, while no second equation shares it
    anchors: dict[tuple[int, int], int] = field(default_factory=dict)
    crossings: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    orientations: list[Orientation] = field(default_factory=list)


def _span(start: tuple[int, int], orientation: Orientation) -> list[tuple[int, int]]:
    dr, dc = STEP[orientation]
    return [(start[0] + i * dr, start[1] + i * dc) for i in range(5)]


def _span_clear(
    board: _Board,
    start: tuple[int, int],
    orientation: Orientation,
    shared: tuple[int, int],
) -> bool:
    """Every cell of the new 5-cell run but the ``shared`` anchor is empty.

    On the layout lattice that is all it takes to keep runs from touching
    end to end or side by side: cells at an odd row and odd column stay
    empty, so a filled cell flanking the run, or beside one of its
    non-shared cells, belongs to a run through one of its non-shared cells.
    """
    return all(pos == shared or pos not in board.cells for pos in _span(start, orientation))


def _place(
    board: _Board,
    start: tuple[int, int],
    orientation: Orientation,
    op: Operator,
    triple: tuple[int, int, int],
) -> None:
    eq_index = len(board.orientations)
    for i, pos in enumerate(_span(start, orientation)):
        if i % 2 == 0:  # operand i // 2, at offset i
            if pos in board.cells:
                assert board.cells[pos] == Cell.number(triple[i // 2])
                board.crossings[board.anchors.pop(pos)] += 1
                board.crossings[eq_index] += 1
            else:
                board.cells[pos] = Cell.number(triple[i // 2])
                board.anchors[pos] = eq_index
        elif i == 1:
            board.cells[pos] = Cell.operator(op)
        else:
            board.cells[pos] = EQUALS
    board.orientations.append(orientation)


def _board_to_grid(board: _Board) -> Grid:
    rows_idx = [pos[0] for pos in board.cells]
    cols_idx = [pos[1] for pos in board.cells]
    min_r, min_c = min(rows_idx), min(cols_idx)
    height = max(rows_idx) - min_r + 1
    width = max(cols_idx) - min_c + 1
    rows: list[list[Cell]] = [[EMPTY] * width for _ in range(height)]
    for (r, c), cell in board.cells.items():
        rows[r - min_r][c - min_c] = cell
    return Grid.from_rows(rows)


def _try_layout(
    n_eq: int,
    ops: tuple[Operator, ...],
    value_range: tuple[int, int],
    rng: random.Random,
) -> Grid | None:
    board = _Board()
    first_op = rng.choice(ops)
    _place(board, (0, 0), Orientation.HORIZONTAL, first_op, sample_equation(first_op, value_range, rng))

    for _ in range(n_eq - 1):
        placed = False
        for _attempt in range(40):
            anchors = list(board.anchors.items())  # each equation uses one and adds two
            # spread crossings around: hub equations starve the blank punch
            quiet = [a for a in anchors if board.crossings[a[1]] <= 1]
            if quiet and rng.random() < 0.8:
                anchors = quiet
            pos, owner = rng.choice(anchors)
            value = board.cells[pos].value
            orientation = (
                Orientation.VERTICAL
                if board.orientations[owner] is Orientation.HORIZONTAL
                else Orientation.HORIZONTAL
            )
            offset = rng.choice((0, 2, 4))
            dr, dc = STEP[orientation]
            start = (pos[0] - offset * dr, pos[1] - offset * dc)
            if not _span_clear(board, start, orientation, pos):
                continue
            for op in rng.sample(ops, len(ops)):
                triple = sample_equation_at(op, offset // 2, value, value_range, rng)
                if triple is not None:
                    _place(board, start, orientation, op, triple)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            return None
    return _board_to_grid(board)


def build_solved_layout(params: GenParams, rng: random.Random) -> tuple[Grid, list[Equation]]:
    """Build a fully solved, connected layout of intersecting equations in
    one attempt; ``generate`` retries a LayoutFailure on a fresh seed."""
    lo, hi = params.value_range
    ops = tuple(op for op in params.operators if _op_feasible(op, lo, hi))
    if not ops:
        symbols = "".join(op.value for op in params.operators)
        raise RangeInfeasible(f"no operator of {symbols!r} fits range [{lo}, {hi}]")
    n_eq = rng.randint(*params.equation_count)
    grid = _try_layout(n_eq, ops, params.value_range, rng)
    if grid is None or len(equations := detect_equations(grid)) != n_eq:
        raise LayoutFailure(f"no {n_eq}-equation layout found")
    return grid, equations


# ---------------------------------------------------------------------------
# Blank punching


def _plan_chains(
    profile: DifficultyProfile, n_eq: int, max_hop: int, rng: random.Random
) -> list[int]:
    """Chain lengths to carve, deepest first; one blank lands on each hop
    level up to the chain's length.

    A chain of length L makes L-1 equations carry two blanks, so the
    profile's two-blank weight caps the total chain mass. The plan is empty
    exactly when the profile wants no blank past hop 1 or the puzzle has no
    room for one: fewer than two equations, or ``max_hop`` below 2.
    """
    hist = profile.target_hop_histogram
    deep_mass = sum(hist.get(k, 0.0) for k in (2, 3, 4))
    if deep_mass == 0 or n_eq < 2 or max_hop < 2:
        return []
    two_blank_cap = int(n_eq * profile.blanks_per_equation_weights.get(2, 0.0) * 1.4) + 1
    plan: list[int] = []
    for level in (4, 3, 2):
        if level > max_hop:
            continue
        # each planned chain at least this long already puts a blank on this level
        deficit = hist.get(level, 0.0) * n_eq - sum(length >= level for length in plan)
        count = int(deficit) + (1 if rng.random() < deficit - int(deficit) else 0)
        for _ in range(count):
            if level < 4:
                length = level
            else:  # mostly plain 4-chains; longer ones inflate the 4+ bucket
                length = min(4 + (1 if rng.random() < 0.25 else 0), max_hop)
            length = min(length, n_eq - sum(plan), two_blank_cap - (sum(plan) - len(plan)) + 1)
            if length < 2:
                break
            plan.append(length)
    return sorted(plan, reverse=True) or [2]


def _build_eq_graph(
    equations: list[Equation],
) -> tuple[dict[Coord, list[int]], dict[int, dict[int, Coord]]]:
    cell_eqs: dict[Coord, list[int]] = defaultdict(list)
    for eq in equations:
        for coord in eq.operands:
            cell_eqs[coord].append(eq.id)
    neighbors: dict[int, dict[int, Coord]] = defaultdict(dict)
    for coord, ids in cell_eqs.items():
        if len(ids) == 2:
            neighbors[ids[0]][ids[1]] = coord
            neighbors[ids[1]][ids[0]] = coord
    return cell_eqs, neighbors


def _carve_chain(
    length: int,
    equations: list[Equation],
    cell_eqs: dict[Coord, list[int]],
    neighbors: dict[int, dict[int, Coord]],
    blanks: set[Coord],
    rng: random.Random,
) -> bool:
    """Pick a path of blank-free equations and add its cells to ``blanks``:
    a private cell of the head and the junction of each consecutive pair.

    The tail equation of the path resolves first; each junction then enables
    the next equation, and the head's private cell resolves last, at a hop
    depth equal to the path length. ``blanks`` is left alone on failure.
    """
    eligible = [eq.id for eq in equations if blanks.isdisjoint(eq.operands)]
    for _ in range(30):
        if not eligible:
            return False
        path = [rng.choice(eligible)]
        while len(path) < length:
            options = [
                nxt
                for nxt in neighbors[path[-1]]
                if nxt not in path and blanks.isdisjoint(equations[nxt].operands)
            ]
            if not options:
                break
            path.append(rng.choice(sorted(options)))
        if len(path) < length:
            continue
        private = [c for c in equations[path[0]].operands if len(cell_eqs[c]) == 1]
        if not private:
            continue
        blanks.add(rng.choice(sorted(private)))
        blanks.update(neighbors[a][b] for a, b in zip(path, path[1:]))
        return True
    return False


def _cover_remaining(
    equations: list[Equation],
    cell_eqs: dict[Coord, list[int]],
    blanks: set[Coord],
    rng: random.Random,
) -> bool:
    """Add to ``blanks`` one cell of every blank-free equation (possibly
    shared with another blank-free one), so each resolves at hop 1."""
    for eq in rng.sample(equations, len(equations)):
        if not blanks.isdisjoint(eq.operands):
            continue
        candidates = [
            c
            for c in eq.operands
            if all(blanks.isdisjoint(equations[other].operands) for other in cell_eqs[c])
        ]
        if not candidates:
            return False
        # prefer non-shared cells so the blank count tracks the equation count
        private = [c for c in candidates if len(cell_eqs[c]) == 1]
        pool = private if private and rng.random() < 0.95 else candidates
        blanks.add(rng.choice(pool))
    return True


_PUNCH_RETRIES = 200


def punch_blanks(
    answer_grid: Grid,
    equations: list[Equation],
    profile: DifficultyProfile,
    rng: random.Random,
    *,
    max_hop: int,
) -> tuple[Grid, SolutionTrace]:
    """Blank number cells so deduction recovers all of them within max_hop.

    Chains are carved first to hit the profile's deep-hop proportions
    (best effort), then every remaining equation receives one blank that
    resolves immediately. A full deduction check gates every candidate set;
    the accepted query is returned with that check's trace. When the chain
    plan is not empty, the query must also need a hop past 1.
    """
    cell_eqs, neighbors = _build_eq_graph(equations)
    for attempt in range(_PUNCH_RETRIES):
        plan = _plan_chains(profile, len(equations), max_hop, rng)
        deep = bool(plan)
        if attempt > _PUNCH_RETRIES // 2:
            plan = plan[: len(plan) // 2] or plan[:1]
        if attempt > (3 * _PUNCH_RETRIES) // 4 and deep:
            plan = [2]
        blanks: set[Coord] = set()
        if not all(_carve_chain(n, equations, cell_eqs, neighbors, blanks, rng) for n in plan):
            continue
        if not _cover_remaining(equations, cell_eqs, blanks, rng):
            continue
        query = answer_grid.with_cells(dict.fromkeys(blanks, TARGET))
        try:
            trace, _ = deduce(query, equations)  # blanking cannot change the equations
        except (Unsolvable, Contradiction):
            continue
        realized_max = len(trace.steps)
        if realized_max > max_hop or deep and realized_max < 2:
            continue
        return query, trace
    raise ProfileInfeasible(
        f"no blank set matching the profile after {_PUNCH_RETRIES} attempts"
    )


# ---------------------------------------------------------------------------
# Full pipeline


def write_example_images(
    out_dir: Path | str,
    example_id: str,
    query: Grid,
    gold_answers: tuple[int, ...],
    styles: tuple[str, ...] = STYLE_IDS,
) -> dict[str, str]:
    """Write the query and solution SVGs of one example in each style.

    Files go to ``out_dir/images/<id>.<view>.<style>.svg``; the result maps
    each style to its query image's path relative to ``out_dir``.
    """
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    texture_seed = texture_seed_for(example_id)
    images: dict[str, str] = {}
    for style_id in styles:
        for view in (RenderView.QUERY, RenderView.SOLUTION):
            name = f"images/{example_id}.{view.value}.{style_id}.svg"
            svg = render_image(query, style_id, view, texture_seed, answers=gold_answers)
            (out_dir / name).write_bytes(svg)
        images[style_id] = f"images/{example_id}.query.{style_id}.svg"
    return images


def generate(
    params: GenParams,
    *,
    out_dir: Path | str | None = None,
    example_id: str | None = None,
) -> DatasetExample:
    """Generate one example: layout, blanks, trace, markdown, and images.

    Fully deterministic for fixed params. Images (all four styles, query and
    solution views) are written under ``out_dir/images`` when ``out_dir`` is
    given; the example's image map holds the query paths relative to
    ``out_dir``.
    """
    last_error: MathGridError | None = None
    for round_ in range(30):  # a failed layout or punch is retried here, on a fresh seed
        rng = random.Random(params.seed if round_ == 0 else mix_seed(params.seed, round_))
        try:
            answer_grid, equations = build_solved_layout(params, rng)
            query, trace = punch_blanks(
                answer_grid,
                equations,
                PROFILES[params.difficulty],
                rng,
                max_hop=params.max_hop,
            )
            break
        except (LayoutFailure, ProfileInfeasible) as exc:
            last_error = exc
    else:
        raise last_error

    markdown = to_markdown(query)
    if example_id is None:
        example_id = f"{params.difficulty.value}_{params.seed:016x}"

    images: dict[str, str] = {}
    if out_dir is not None:
        images = write_example_images(out_dir, example_id, query, trace.answers)

    return DatasetExample(
        id=example_id,
        grid=query,
        markdown=markdown,
        images=images,
        gen_params=params,
        trace=trace,
    )


def generate_batch(
    params: GenParams,
    count: int,
    *,
    out_dir: Path | str | None = None,
) -> list[DatasetExample]:
    """Generate ``count`` examples with per-example seeds derived from
    ``params.seed``; safe to parallelize since every call is independent."""
    if count < 1:
        raise ValueError(f"count must be at least 1, not {count}")
    examples = []
    for index in range(count):
        example_seed = mix_seed(params.seed, index + 1)
        example = generate(
            replace(params, seed=example_seed),
            out_dir=out_dir,
            example_id=f"{params.difficulty.value}_{params.seed}_{index:04d}",
        )
        examples.append(example)
    return examples
