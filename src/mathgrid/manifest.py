"""JSONL dataset manifests: one serialized example per line.

The grid itself is stored as its markdown form (the two are equivalent by
the round-trip contract), so a manifest line carries everything needed to
rebuild the example except the image files it references.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .core import DatasetExample, SolutionTrace, check_type, located, shown, write_whole
from .generator import GenParams
from .render.markdown import parse_markdown


def parse_json(text: str | bytes) -> object:
    """``json.loads`` of outside input; text nested too deeply for the parser
    fails with a ValueError, as other text that does not parse does."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def _derived_fields(example: DatasetExample) -> dict:
    """The stored fields that the trace and gen_params give; the loader
    checks a line's copy of each against them."""
    return {
        "difficulty": example.difficulty._value_,  # without the ``value`` property, once per line
        "seed": example.seed,
        "gold_answers": list(example.gold_answers),
        "hop_depths": list(example.hop_depths),
        "gen_params": example.gen_params.to_json(),
    }


def example_to_json(example: DatasetExample) -> dict:
    own = {"id": example.id, "markdown": example.markdown, "images": dict(example.images)}
    return {**own, **_derived_fields(example), "trace": example.trace.to_json()}


def example_from_json(data: object) -> DatasetExample:
    """Rebuild an example from its trace and gen_params, and reject the line
    when a field derived from them disagrees with what they give. The id,
    markdown and images are the line's own."""
    check_type(data, dict, "manifest line")
    markdown = check_type(data["markdown"], str, "markdown")
    images = check_type(data["images"], dict, "images")
    for style_id, path in images.items():
        check_type(path, str, f"images {style_id!r}")
    example = DatasetExample(
        id=check_type(data["id"], str, "id"),
        grid=parse_markdown(markdown),
        markdown=markdown,
        images=images,
        gen_params=GenParams.from_json(data["gen_params"]),
        trace=SolutionTrace.from_json(data["trace"]),
    )
    stale = [key for key, value in _derived_fields(example).items() if data[key] != value]
    if stale:
        raise ValueError(
            f"example {example.id}: stored fields disagree with its trace and gen_params: "
            + ", ".join(stale)
        )
    return example


def dumps_line(example: DatasetExample) -> str:
    return json.dumps(example_to_json(example), ensure_ascii=False, sort_keys=True)


def write_manifest(examples: Iterable[DatasetExample], path: Path | str) -> Path:
    return write_whole(path, (f"{dumps_line(example)}\n".encode() for example in examples))


def read_manifest(path: Path | str) -> Iterator[tuple[int, DatasetExample]]:
    """Line number and example of each line in file order; a line that does
    not load, or repeats an earlier line's example id, fails, naming the file
    and line. Runs and scores key examples by id, so a repeat would be lost."""
    first_line: dict[str, int] = {}
    with Path(path).open("rb") as fh, located(path) as where:
        for number, line in enumerate(fh, start=1):
            where.line = number
            text = line.decode("utf-8").strip()  # decoded per line, so a bad byte names its line
            if text:
                example = example_from_json(parse_json(text))
                if first_line.setdefault(example.id, number) != number:
                    raise ValueError(f"example id {shown(example.id)} repeats line {first_line[example.id]}")
                yield number, example


def load_manifest(path: Path | str) -> list[DatasetExample]:
    return [example for _, example in read_manifest(path)]
