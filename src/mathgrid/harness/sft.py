"""Export training-ready trajectory records from a dataset manifest.

Each record pairs the trajectory-generation prompt with the machine-derived
step-by-step solution and the canonical answer line, ready for external
chain-of-thought verbalization or direct supervised fine-tuning.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from pathlib import Path

from ..core import DatasetExample, located
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
    """Write one JSONL record per manifest example; return how many.

    Records stream to a temporary file beside ``out_path``, which replaces
    ``out_path`` only once every example is written: a manifest that fails
    part-way leaves ``out_path`` as it was.
    """
    template = load_template(TRAJECTORY_TEMPLATE)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    partial = out_path.with_name(f"{out_path.name}.{os.getpid()}.tmp")
    count = 0
    try:
        # closing() shuts the manifest file even when an example fails mid-way
        with (
            partial.open("w", encoding="utf-8") as sink,
            closing(read_manifest(manifest_path)) as examples,
        ):
            for number, example in examples:
                with located(manifest_path, number):
                    record = {
                        "example_id": example.id,
                        "prompt": text_prompt(template, example.markdown),
                        "symbolic_solution": format_solution_steps(example),
                        "answer": answer_line(example),
                    }
                    sink.write(json.dumps(record, ensure_ascii=False) + "\n")
                count += 1
        os.replace(partial, out_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return count
