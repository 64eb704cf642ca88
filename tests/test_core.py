from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from mathgrid.core import (
    Cell,
    CellKind,
    Coord,
    DatasetExample,
    Difficulty,
    EMPTY,
    Grid,
    Operator,
    Resolution,
    SolutionTrace,
    TARGET,
    shown,
    target_order,
)
from mathgrid.generator import GenParams
from mathgrid.render.markdown import to_markdown
from mathgrid.solver import deduce

from conftest import coords, reference_grid


class TestTargetOrder:
    def test_reference_grid_reading_order(self, appendix_grid):
        assert target_order(appendix_grid) == [
            Coord(0, 4),
            Coord(2, 2),
            Coord(4, 0),
            Coord(6, 2),
        ]

    def test_no_targets_gives_empty_list(self):
        grid = Grid.from_rows([[Cell.number(3), EMPTY]])
        assert target_order(grid) == []

    def test_single_cell_target(self):
        grid = Grid.from_rows([[TARGET]])
        assert target_order(grid) == [Coord(0, 0)]

    def test_both_reading_order_phrasings_agree(self):
        # targets spread over multiple rows and columns
        grid = Grid.from_rows(
            [
                [EMPTY, TARGET, EMPTY, TARGET],
                [TARGET, EMPTY, EMPTY, EMPTY],
                [EMPTY, EMPTY, TARGET, EMPTY],
            ]
        )
        order = target_order(grid)
        # "top to bottom, left to right"
        assert order == sorted(order, key=lambda c: (c.row, c.col))
        # "left-to-right, top-to-bottom" read as scanning each row in turn
        reading = [
            Coord(r, c)
            for r in range(grid.rows)
            for c in range(grid.cols)
            if grid.at((r, c)).kind is CellKind.TARGET
        ]
        assert order == reading == [Coord(0, 1), Coord(0, 3), Coord(1, 0), Coord(2, 2)]

    def test_each_target_appears_exactly_once(self, mixed_corpus):
        for example in mixed_corpus[:20]:
            order = target_order(example.grid)
            assert len(order) == len(set(order))


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=20
    )
)
def test_target_order_is_row_major_for_any_target_set(positions):
    rows = max(p[0] for p in positions) + 1
    cols = max(p[1] for p in positions) + 1
    table = [
        [TARGET if (r, c) in set(positions) else EMPTY for c in range(cols)]
        for r in range(rows)
    ]
    order = target_order(Grid.from_rows(table))
    assert order == sorted(set(Coord(*p) for p in positions))


class TestCellAndGrid:
    def test_number_cells_require_positive_values(self):
        with pytest.raises(ValueError):
            Cell.number(0)
        with pytest.raises(ValueError):
            Cell(CellKind.NUMBER)

    def test_non_number_cells_carry_no_value(self):
        with pytest.raises(ValueError):
            Cell(CellKind.TARGET, value=5)

    def test_grid_size_must_match(self):
        with pytest.raises(ValueError):
            Grid(2, 2, (EMPTY, EMPTY, EMPTY))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Grid.from_rows([[EMPTY, EMPTY], [EMPTY]])

    def test_operator_arithmetic(self):
        assert Operator.ADD.holds(2, 3, 5)
        assert Operator.SUB.holds(9, 4, 5)
        assert Operator.MUL.holds(6, 7, 42)
        assert Operator.DIV.holds(42, 6, 7)
        assert not Operator.DIV.holds(43, 6, 7)
        assert not Operator.ADD.holds(2, 3, 6)
        assert not Operator.DIV.holds(0, 0, 5)  # the rotation 0 x 5 = 0 would accept it


def _reference_example(grid: Grid) -> DatasetExample:
    """The reference puzzle as a hand-built example, with its deduced trace."""
    return DatasetExample(
        id="reference",
        grid=grid,
        markdown=to_markdown(grid),
        images={},
        gen_params=GenParams(difficulty=Difficulty.EASY, seed=0),
        trace=deduce(grid)[0],
    )


class TestDatasetInvariants:
    def test_substituting_gold_answers_reproduces_answer_grid(self, mixed_corpus):
        for example in mixed_corpus:
            filled = {
                coord: Cell.number(value)
                for coord, value in zip(target_order(example.grid), example.gold_answers)
            }
            assert example.grid.with_cells(filled) == example.answer_grid

    def test_trace_answers_read_answer_grid_in_target_order(self, mixed_corpus):
        for example in mixed_corpus:
            targets = target_order(example.grid)
            read = tuple(example.answer_grid.at(c).value for c in targets)
            assert example.trace.answers == read

    def test_trace_must_resolve_exactly_the_targets(self, mixed_corpus):
        example = mixed_corpus[0]
        first, *later = example.trace.steps
        number = next(c for c in coords(example.grid) if example.grid.at(c).kind is CellKind.NUMBER)
        for step in (first[1:], first + (Resolution(0, number, 5),)):
            with pytest.raises(ValueError, match=example.id):
                replace(example, trace=SolutionTrace((step, *later)))

    @pytest.mark.parametrize(
        "moved",
        [
            pytest.param({Coord(2, 2): Coord(2, 0)}, id="names-a-number-cell"),
            # (3, 7) and (1, -3) have the flat indices of the targets (4, 0) and (0, 4),
            # and (-9, 4) that of (0, 4) counted from the end
            pytest.param({Coord(4, 0): Coord(3, 7)}, id="names-a-row-end-before-a-target"),
            pytest.param({Coord(0, 4): Coord(-9, 4)}, id="names-a-negative-row"),
            pytest.param({Coord(0, 4): Coord(1, -3)}, id="names-a-negative-column"),
        ],
    )
    def test_a_trace_naming_a_cell_that_is_no_target_is_rejected(self, appendix_grid, moved):
        example = _reference_example(appendix_grid)
        (step,) = example.trace.steps
        step = tuple(r._replace(coord=moved.get(r.coord, r.coord)) for r in step)
        with pytest.raises(ValueError, match="reference: the trace does not resolve exactly its targets"):
            replace(example, trace=SolutionTrace((step,)))

    def test_a_trace_naming_one_cell_in_two_steps_is_rejected(self, appendix_grid):
        example = _reference_example(appendix_grid)
        (step,) = example.trace.steps
        assert sorted(replace(example, trace=SolutionTrace((step[:-1], step[-1:]))).hop_depths) == [1, 1, 1, 2]
        with pytest.raises(ValueError, match="reference: the trace does not resolve exactly its targets"):
            replace(example, trace=SolutionTrace((step[:-1], step[:1])))

    def test_fields_read_from_trace_and_gen_params(self, mixed_corpus):
        for example in mixed_corpus:
            assert example.difficulty is example.gen_params.difficulty
            assert example.seed == example.gen_params.seed
            assert example.gold_answers == tuple(v for _, v, _ in example.trace.resolved)
            assert max(example.hop_depths) == len(example.trace.steps)

    def test_gold_answers_align_with_targets(self, mixed_corpus):
        for example in mixed_corpus:
            n = len(target_order(example.grid))
            assert len(example.gold_answers) == n == len(example.hop_depths)


def test_solution_trace_json_round_trip(appendix_grid):
    trace, _ = deduce(appendix_grid)
    data = trace.to_json()
    assert set(data) == {"steps"}
    assert all(set(r) == {"eq", "row", "col", "value"} for r in data["steps"][0])
    rebuilt = SolutionTrace.from_json(data)
    assert rebuilt == trace


def test_solution_trace_identity_is_its_steps(appendix_grid):
    trace, _ = deduce(appendix_grid)
    twin = SolutionTrace(trace.steps)
    assert twin == trace and hash(twin) == hash(trace) and twin is not trace
    assert replace(trace) == trace
    assert {trace: 1}[twin] == 1
    assert (trace.answers, trace.hop_depths) == ((6, 93, 45, 8), (1, 1, 1, 1))


def test_replacing_a_traces_steps_recomputes_what_it_reads_off_them(appendix_grid):
    trace, _ = deduce(appendix_grid)
    (step,) = trace.steps
    bumped = replace(trace, steps=(tuple(r._replace(value=r.value + 1) for r in step),))
    assert bumped != trace
    assert bumped.answers == (7, 94, 46, 9) and bumped.hop_depths == (1, 1, 1, 1)
    split = replace(trace, steps=(step[:1], step[1:]))
    assert split.answers == trace.answers
    later = {r.coord for r in step[1:]}
    assert split.hop_depths == tuple(2 if c in later else 1 for c in target_order(appendix_grid))
    assert [(c, v) for c, v, _ in split.resolved] == [(c, v) for c, v, _ in trace.resolved]
    for derived in ("resolved", "answers", "hop_depths"):
        with pytest.raises((ValueError, TypeError)):  # TypeError from Python 3.13 on
            replace(trace, **{derived: ()})


def test_reference_grid_matches_cell_construction(appendix_grid):
    assert appendix_grid == reference_grid()


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("digits", [61, 4300, 5000])
def test_shown_bounds_an_int_of_any_size(sign, digits):
    text = shown(sign * 10 ** (digits - 1))
    assert len(text) <= 60 and "\n" not in text, text
