from __future__ import annotations

import os
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import settings

import mathgrid
from mathgrid import Difficulty, GenParams, generate
from mathgrid.core import Cell, Coord, EMPTY, EQUALS, Grid, Operator, TARGET, target_order
from mathgrid.evaluation import ExampleResult, Prediction, evaluate_prediction
from mathgrid.generator import mix_seed
from mathgrid.manifest import write_manifest

# A failing property test prints the @reproduce_failure blob that replays it,
# also where no Hypothesis pytest plugin is loaded. Every other setting,
# deadlines and example counts included, is the loaded profile's, such as the
# "ci" profile that Hypothesis loads itself when it sees a CI environment.
settings.register_profile("print-blob", parent=settings.default, print_blob=True)
settings.load_profile("print-blob")


def subprocess_env() -> dict[str, str]:
    """The environment, with this mathgrid first on ``PYTHONPATH``."""
    src = str(Path(mathgrid.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# 9x7 grid with four targets; unique solution [6, 93, 45, 8] in reading order.
REFERENCE_MARKDOWN = """\
|    |    |    |    | ?  |    |    |
|    |    |    |    | +  |    |    |
| 28 |    | ?  | ÷  | 3  | =  | 31 |
| +  |    |    |    | =  |    |    |
| ?  | ÷  | 5  | =  | 9  |    |    |
| =  |    | ×  |    |    |    |    |
| 73 |    | ?  | +  | 57 | =  | 65 |
|    |    | =  |    |    |    |    |
|    |    | 40 |    |    |    |    |
"""

REFERENCE_ANSWERS = [6, 93, 45, 8]

# The test id of operand position 0, 1 or 2 (a, b or c): the name the position
# had when positions were an enum, so that these tests keep their ids.
SLOT_IDS = ("Slot.A", "Slot.B", "Slot.C")


def coords(grid: Grid) -> Iterator[Coord]:
    """All coordinates of the grid in row-major order."""
    for r in range(grid.rows):
        for c in range(grid.cols):
            yield Coord(r, c)


class FakeGold:
    """Minimal stand-in for a dataset example, carrying just what scoring reads."""

    def __init__(self, example_id, gold_answers, hop_depths):
        self.id = example_id
        self.gold_answers = gold_answers
        self.hop_depths = hop_depths


def scored(example_id: str, mask, hops=None) -> ExampleResult:
    """The scoring of a response whose i-th answer is right iff mask[i]
    (every hop 1 unless ``hops`` is given)."""
    hops = hops or [1] * len(mask)
    gold = FakeGold(example_id, tuple(range(1, len(mask) + 1)), tuple(hops))
    answers = " ".join(str(i + 1) if ok else "0" for i, ok in enumerate(mask))
    return evaluate_prediction(Prediction.from_text(example_id, f"<answer>{answers}</answer>"), gold)


def _n(v: int) -> Cell:
    return Cell.number(v)


def _op(symbol: str) -> Cell:
    return Cell.operator(Operator(symbol))


def reference_grid() -> Grid:
    """The reference puzzle built cell by cell (independent of the parser)."""
    e = EMPTY
    rows = [
        [e, e, e, e, TARGET, e, e],
        [e, e, e, e, _op("+"), e, e],
        [_n(28), e, TARGET, _op("÷"), _n(3), EQUALS, _n(31)],
        [_op("+"), e, e, e, EQUALS, e, e],
        [TARGET, _op("÷"), _n(5), EQUALS, _n(9), e, e],
        [EQUALS, e, _op("×"), e, e, e, e],
        [_n(73), e, TARGET, _op("+"), _n(57), EQUALS, _n(65)],
        [e, e, EQUALS, e, e, e, e],
        [e, e, _n(40), e, e, e, e],
    ]
    return Grid.from_rows(rows)


def answered_reference_grid() -> Grid:
    """The reference puzzle with its answers filled in: no targets left."""
    grid = reference_grid()
    return grid.with_cells(
        {coord: _n(value) for coord, value in zip(target_order(grid), REFERENCE_ANSWERS)}
    )


@pytest.fixture(scope="session")
def appendix_grid() -> Grid:
    return reference_grid()


@pytest.fixture(scope="session")
def mixed_corpus() -> list:
    """Reusable examples across all difficulties, default parameters."""
    out = []
    for difficulty in Difficulty:
        for i in range(25):
            out.append(
                generate(GenParams(difficulty=difficulty, seed=mix_seed(99, i)))
            )
    return out


@pytest.fixture
def proxy_env(monkeypatch):
    """Clear every proxy variable of the process; the test sets its own."""
    for name in list(os.environ):
        if name.lower() in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    """Small on-disk dataset with images, shared by harness and CLI tests."""
    root = tmp_path_factory.mktemp("dataset")
    examples = []
    for i in range(6):
        params = GenParams(
            difficulty=Difficulty.EASY, equation_count=(3, 6), seed=mix_seed(7, i)
        )
        examples.append(
            generate(params, out_dir=root, example_id=f"easy_fixture_{i:02d}")
        )
    for i in range(6):
        params = GenParams(
            difficulty=Difficulty.MEDIUM, equation_count=(5, 9), seed=mix_seed(11, i)
        )
        examples.append(
            generate(params, out_dir=root, example_id=f"medium_fixture_{i:02d}")
        )
    write_manifest(examples, root / "manifest.jsonl")
    return root
