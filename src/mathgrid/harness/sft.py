"""Export training-ready trajectory records from a dataset manifest.

Each record pairs the trajectory-generation prompt with the machine-derived
step-by-step solution and the canonical answer line, ready for external
chain-of-thought verbalization or direct supervised fine-tuning.
"""

from __future__ import annotations

import json
from contextlib import closing
from pathlib import Path

from ..core import DatasetExample, located, write_whole
from ..manifest import read_manifest
from ..render.markdown import cell_text
from ..solver import detect_equations
from .prompts import TRAJECTORY_TEMPLATE, load_template, text_prompt


def format_solution_steps(example: DatasetExample) -> str:
    """Numbered textual steps mirroring the deduction trace.

    Each step writes its equation's five symbols as the answer grid shows
    them, with the newly resolved operand masked as '?'.
    """
    cols = example.grid.cols
    equations = detect_equations(example.grid)
    lines = []
    for i, step in enumerate(example.trace.steps, start=1):
        lines.append(f"Step {i}:")
        for res in step:
            if not 0 <= res.eq_id < len(equations):
                raise ValueError(
                    f"example {example.id}: the trace names equation {res.eq_id}, "
                    "which the grid lacks"
                )
            eq = equations[res.eq_id]
            cells = example.answer_grid.cells
            symbols = [
                "?" if coord == res.coord else cell_text(cells[coord.row * cols + coord.col])
                for coord in (eq.a, eq.op_cell, eq.b, eq.eq_cell, eq.c)
            ]
            lines.append(
                f"- {eq.orientation.value} equation {' '.join(symbols)} gives "
                f"cell ({res.coord.row}, {res.coord.col}) = {res.value}"
            )
    return "\n".join(lines)


def answer_line(example: DatasetExample) -> str:
    return "<answer>" + " ".join(str(v) for v in example.gold_answers) + "</answer>"


def export_sft_trajectories(manifest_path: Path | str, out_path: Path | str) -> int:
    """Write one JSONL record per manifest example, whole or not at all; return how many."""
    template = load_template(TRAJECTORY_TEMPLATE)
    count = 0

    def records():
        nonlocal count
        # closing() shuts the manifest file even when an example fails mid-way
        with closing(read_manifest(manifest_path)) as examples:
            for number, example in examples:
                with located(manifest_path, number):  # an id UTF-8 cannot encode names its line
                    record = {
                        "example_id": example.id,
                        "prompt": text_prompt(template, example.markdown),
                        "symbolic_solution": format_solution_steps(example),
                        "answer": answer_line(example),
                    }
                    yield (json.dumps(record, ensure_ascii=False) + "\n").encode()
                count += 1

    write_whole(out_path, records())
    return count
