"""README's "Library entry points" block runs as written, so the public API
cannot drift from what README shows."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block under the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_entry_points_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the block writes its images under out/
    exec(compile(_python_block("Library entry points"), str(README), "exec"), {})
    assert len(list((tmp_path / "out" / "images").glob("*.svg"))) == 8
