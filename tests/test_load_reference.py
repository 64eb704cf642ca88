"""The manifest loader agrees with the loader it replaced.

``example_from_json`` once decoded a trace with ``int()`` on each number,
read tokens through ``_read_cell``, compared the trace's coordinates with
``target_order`` and rejected a line only when a stored field, the trace
included, differed by ``==`` from what it re-serialised. The reference below
keeps that loader. Over the fuzz mutations of a manifest line, the two must
accept the same lines with equal ``example_to_json``, except that the loader
now also rejects what ``==`` let through: a bool or float in place of an
integer in the trace or in ``gen_params``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mathgrid.core import (
    Cell,
    Coord,
    DatasetExample,
    Difficulty,
    EMPTY,
    EQUALS,
    Grid,
    Operator,
    Resolution,
    SolutionTrace,
    TARGET,
    check_type,
    located,
    target_order,
)
from mathgrid.generator import GenParams
from mathgrid.manifest import example_from_json, example_to_json, parse_json
from mathgrid.render.markdown import _ONE_LOOKALIKES, _OP_ALIASES

from test_fuzz_inputs import _fixture_lines, _mutated
from test_parse_reference import reference_parse_markdown

# -- reference implementation -----------------------------------------------


def reference_read_cell(token: str) -> Cell | str:
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
        return f"unrecognized cell content {token!r}"
    try:
        value = int(digits)
    except ValueError:  # more digits than int() converts
        return f"number of {len(digits)} digits is too long"
    if value < 1:
        return f"non-positive number {token!r}"
    return Cell.number(value)


def reference_read_markdown(text: str) -> Grid:
    """A table in ``to_markdown``'s exact shape read in one split, any other
    text row by row (as ``test_parse_reference`` shows the two agree)."""
    lines = len(text.splitlines())
    pieces = text.split("|")
    if not pieces[0] and "\n" in pieces:
        step = pieces.index("\n")
        rows = (len(pieces) - 1) // step
        if step >= 2 and rows == lines and pieces[step::step].count("\n") == rows:
            del pieces[::step]
            cells = tuple(map(reference_read_cell, pieces))
            if str not in map(type, cells):
                return Grid(rows, step - 1, cells)
    return reference_parse_markdown(text)


def reference_trace_from_json(data: dict) -> SolutionTrace:
    steps = tuple(
        tuple(
            Resolution(int(r["eq"]), Coord(int(r["row"]), int(r["col"])), int(r["value"]))
            for r in step
        )
        for step in data["steps"]
    )
    return SolutionTrace(steps)


def reference_gen_params_from_json(data: dict) -> GenParams:
    return GenParams(
        difficulty=Difficulty(data["difficulty"]),
        operators=tuple(Operator(symbol) for symbol in data["operators"]),
        value_range=tuple(data["value_range"]),
        equation_count=tuple(data["equation_count"]),
        max_hop=data["max_hop"],
        seed=data["seed"],
    )


class ReferenceExample(DatasetExample):
    def __post_init__(self) -> None:
        if [coord for coord, _, _ in self.trace.resolved] != target_order(self.grid):
            raise ValueError(f"example {self.id}: the trace does not resolve exactly its targets")


def reference_example_from_json(data: object) -> DatasetExample:
    check_type(data, dict, "manifest line")
    markdown = check_type(data["markdown"], str, "markdown")
    images = check_type(data["images"], dict, "images")
    for style_id, path in images.items():
        check_type(path, str, f"images {style_id!r}")
    example = ReferenceExample(
        id=check_type(data["id"], str, "id"),
        grid=reference_read_markdown(markdown),
        markdown=markdown,
        images=images,
        gen_params=reference_gen_params_from_json(data["gen_params"]),
        trace=reference_trace_from_json(data["trace"]),
    )
    stale = [key for key, value in example_to_json(example).items() if data[key] != value]
    if stale:
        raise ValueError(
            f"example {example.id}: stored fields disagree with its trace and gen_params: "
            + ", ".join(stale)
        )
    return example


def outcome(load, line: bytes) -> dict | None:
    """``example_to_json`` of what ``load`` makes of a manifest line, or None
    when the line fails as ``read_manifest`` reports a failure."""
    try:
        with located("manifest.jsonl", 1):
            return example_to_json(load(parse_json(line.decode("utf-8").strip())))
    except ValueError:
        return None


def has_an_inexact_integer(line: bytes) -> bool:
    """A bool or float in an integer slot of the trace or ``gen_params``, on a
    line whose structure the reference accepted."""
    data = parse_json(line.decode("utf-8"))
    params = data["gen_params"]
    numbers = [n for step in data["trace"]["steps"] for r in step for n in r.values()]
    numbers += [*params["value_range"], *params["equation_count"], params["max_hop"], params["seed"]]
    return any(type(n) is not int for n in numbers)


def assert_agrees(line: bytes) -> None:
    new, reference = outcome(example_from_json, line), outcome(reference_example_from_json, line)
    if new is not None:
        assert reference == new
    elif reference is not None:
        assert has_an_inexact_integer(line), line[:300]


# -- fuzz mutations -------------------------------------------------------------


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_loader_agrees_with_reference(dataset_dir, data):
    lines, _ = _fixture_lines(dataset_dir)
    assert_agrees(data.draw(_mutated(data.draw(st.sampled_from(lines)))))


# -- fixed cases ----------------------------------------------------------------


def _edited(dataset_dir, edit) -> bytes:
    """The fixture's deeper-hop manifest line after ``edit``."""
    data = json.loads(_fixture_lines(dataset_dir)[0][1])
    edit(data)
    return json.dumps(data).encode("utf-8")


_NEITHER, _REFERENCE, _BOTH = (False, False), (False, True), (True, True)


@pytest.mark.parametrize(
    "edit, accepted",
    [
        pytest.param(lambda d: None, _BOTH, id="unchanged"),
        pytest.param(lambda d: d["trace"].update(more=[]), _NEITHER, id="extra-trace-key"),
        pytest.param(
            lambda d: d["trace"]["steps"][0][0].update(hop=1), _NEITHER, id="extra-resolution-key"
        ),
        pytest.param(
            lambda d: d["trace"]["steps"][0][0].pop("col"), _NEITHER, id="missing-resolution-key"
        ),
        pytest.param(lambda d: d["trace"]["steps"].append([]), _BOTH, id="empty-last-step"),
        pytest.param(lambda d: d["trace"]["steps"][0].reverse(), _BOTH, id="step-in-another-order"),
        pytest.param(lambda d: d["trace"]["steps"][0][0].update(eq=True), _REFERENCE, id="bool-eq"),
        pytest.param(lambda d: d["trace"]["steps"][0][0].update(row="0"), _NEITHER, id="string-row"),
        pytest.param(
            lambda d: d["gen_params"].update(max_hop=float("inf")), _REFERENCE, id="infinite-max-hop"
        ),
        pytest.param(
            lambda d: d["gen_params"].update(value_range=[1, 2, 3]), _NEITHER, id="three-range-ends"
        ),
    ],
)
def test_loader_agrees_with_reference_on_fixed_edits(dataset_dir, edit, accepted):
    line = _edited(dataset_dir, edit)
    assert_agrees(line)
    new, reference = outcome(example_from_json, line), outcome(reference_example_from_json, line)
    assert (new is not None, reference is not None) == accepted
