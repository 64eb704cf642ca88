"""The SFT step text agrees with the answer-grid version it replaced.

``format_solution_steps`` looks each equation up by id in the list
``detect_equations`` gives, and writes its five symbols from the query
grid's cells and the trace's values. The reference below builds the answer
grid and reads every symbol off it with ``Grid.at``, exactly as the package
first did; on every example both must give the same text, or raise the
same error with the same text.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from mathgrid.core import DatasetExample, Equation, Resolution, SolutionTrace
from mathgrid.generator import Difficulty, GenParams, generate
from mathgrid.harness.sft import format_solution_steps
from mathgrid.render.markdown import cell_text
from mathgrid.solver import detect_equations

# -- reference implementation -----------------------------------------------


def _reference_equation_text(eq: Equation, example: DatasetExample, resolved: Resolution) -> str:
    symbols = []
    for coord in (eq.a, eq.op_cell, eq.b, eq.eq_cell, eq.c):
        if coord == resolved.coord:
            symbols.append("?")
        else:
            symbols.append(cell_text(example.answer_grid.at(coord)))
    return " ".join(symbols)


def reference_format_solution_steps(example: DatasetExample) -> str:
    equations = {eq.id: eq for eq in detect_equations(example.grid)}
    lines = []
    for i, step in enumerate(example.trace.steps, start=1):
        lines.append(f"Step {i}:")
        for res in step:
            eq = equations.get(res.eq_id)
            if eq is None:
                raise ValueError(
                    f"example {example.id}: the trace names equation {res.eq_id}, "
                    "which the grid lacks"
                )
            lines.append(
                f"- {eq.orientation.value} equation "
                f"{_reference_equation_text(eq, example, res)} gives "
                f"cell ({res.coord.row}, {res.coord.col}) = {res.value}"
            )
    return "\n".join(lines)


def _outcome(fn, example: DatasetExample):
    try:
        return ("text", fn(example))
    except Exception as exc:  # the error's type and text must agree too
        return ("error", type(exc).__name__, str(exc))


def assert_agrees(example: DatasetExample) -> None:
    # fresh copies, so neither version sees an answer grid the other cached
    new = _outcome(format_solution_steps, dataclasses.replace(example))
    assert new == _outcome(reference_format_solution_steps, dataclasses.replace(example))


def _with_steps(example: DatasetExample, steps) -> DatasetExample:
    steps = tuple(tuple(step) for step in steps)
    return dataclasses.replace(example, trace=SolutionTrace(steps))


# -- generated examples, as built and with edited traces ---------------------


def test_generated_examples_agree(mixed_corpus):
    for example in mixed_corpus:
        assert_agrees(example)
        assert _outcome(format_solution_steps, example)[0] == "text"


_RANGES = [(50, 250), (1, 12), (1, 100), (5, 1000)]
_examples = st.builds(
    lambda difficulty, value_range, seed: generate(
        GenParams(difficulty=difficulty, value_range=value_range, seed=seed)
    ),
    st.sampled_from(list(Difficulty)),
    st.sampled_from(_RANGES),
    st.integers(0, 2**32),
)

# (which resolution, what to change, a draw for the new value); the
# resolution is picked modulo the trace's length
_edits = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(["eq_id", "value", "swap_coord", "empty_step"]),
    st.integers(-3, 3),
)


def _edited(example: DatasetExample, edits) -> DatasetExample:
    """The example with each edit applied to its trace. Swapping two
    resolutions' coordinates keeps the set of resolved cells, so the
    example still resolves exactly its targets."""
    steps = [list(step) for step in example.trace.steps]
    n_equations = len(detect_equations(example.grid))
    for which, kind, draw in edits:
        flat = [(i, j) for i, step in enumerate(steps) for j in range(len(step))]
        if not flat:
            break
        i, j = flat[which % len(flat)]
        res = steps[i][j]
        if kind == "eq_id":  # near either end of the valid ids, or past them
            eq_id = draw if draw < 0 else n_equations - 1 + draw
            steps[i][j] = res._replace(eq_id=eq_id)
        elif kind == "value":  # 1 and above are valid cell values; 0 and below are not
            steps[i][j] = res._replace(value=draw + 1)
        elif kind == "swap_coord":
            k, m = flat[(which + draw) % len(flat)]
            other = steps[k][m]
            steps[i][j] = res._replace(coord=other.coord)
            steps[k][m] = other._replace(coord=res.coord)
        else:
            steps.insert(i, [])
    return _with_steps(example, steps)


@settings(max_examples=60, deadline=None)
@given(_examples, st.lists(_edits, max_size=4))
def test_drawn_examples_with_edited_traces_agree(example, edits):
    assert_agrees(example)
    assert_agrees(_edited(example, edits))


# -- fixed cases ----------------------------------------------------------------


@pytest.fixture(scope="module")
def hard_example() -> DatasetExample:
    return generate(GenParams(difficulty=Difficulty.HARD, seed=77))


@pytest.mark.parametrize("position", ["first", "last"])
def test_equations_minus_one_and_past_the_end_give_the_same_error(hard_example, position):
    n_equations = len(detect_equations(hard_example.grid))
    for eq_id in (-1, n_equations):
        steps = [list(step) for step in hard_example.trace.steps]
        i, j = (0, 0) if position == "first" else (-1, -1)
        steps[i][j] = steps[i][j]._replace(eq_id=eq_id)
        example = _with_steps(hard_example, steps)
        assert_agrees(example)
        with pytest.raises(
            ValueError, match=rf"the trace names equation {eq_id}, which the grid lacks"
        ):
            format_solution_steps(example)


def test_a_value_below_one_gives_the_answer_grids_error(hard_example):
    steps = [list(step) for step in hard_example.trace.steps]
    steps[-1][0] = steps[-1][0]._replace(value=0)
    example = _with_steps(hard_example, steps)
    assert_agrees(example)
    with pytest.raises(ValueError, match="number cells need a value >= 1, got 0"):
        format_solution_steps(example)
    # a missing equation named by the first resolution is met before the values
    steps[0][0] = steps[0][0]._replace(eq_id=-1)
    assert_agrees(_with_steps(hard_example, steps))
    assert "equation -1" in _outcome(format_solution_steps, _with_steps(hard_example, steps))[2]
