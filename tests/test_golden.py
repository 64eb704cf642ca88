"""Golden byte digests of the CLI's artifacts, pinned across versions.

Criterion 9 checks that one version reproduces its own bytes; this file
checks that every version reproduces the bytes recorded in
``golden/digests.json``: the manifest and every SVG of ``generate``, the
``export-sft`` JSONL, the ``solve`` output for each example's markdown,
and the ``bench score`` report of the fixed run file ``golden/run.jsonl``. A change that alters these bytes on purpose rewrites
the digests file with ``PYTHONPATH=src python tests/test_golden.py`` and
says why.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from mathgrid.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "20261018"

# Three examples per difficulty at the default settings, one hard set whose
# range admits × and ÷, and two layout shapes at the ends of the equation
# count: a small medium board and a large hard one.
CASES = {
    "easy": ["--difficulty", "easy"],
    "medium": ["--difficulty", "medium"],
    "hard": ["--difficulty", "hard"],
    "hard-muldiv": ["--difficulty", "hard", "--range", "1:100"],
    "medium-small": ["--difficulty", "medium", "--range", "1:12", "--eq-count", "2:4"],
    "hard-large": ["--difficulty", "hard", "--range", "1:100", "--eq-count", "12:20"],
}
SCORED_CASE = "hard"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): _sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _run(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise AssertionError(f"mathgrid {' '.join(argv)} exited {code}")


def _solve_digests(manifest: Path) -> dict[str, str]:
    """Digest what ``solve`` prints for each example's markdown."""
    digests = {}
    for line in manifest.read_text(encoding="utf-8").splitlines():
        example = json.loads(line)
        markdown = manifest.parent / f"{example['id']}.md"
        markdown.write_text(example["markdown"], encoding="utf-8")
        printed = io.StringIO()
        with redirect_stdout(printed):
            _run(["solve", "--markdown", str(markdown)])
        digests[example["id"]] = hashlib.sha256(printed.getvalue().encode()).hexdigest()
    return digests


def build_digests(work: Path) -> dict[str, dict[str, str]]:
    """Run the CLI into ``work`` and digest every artifact it wrote."""
    digests: dict[str, dict[str, str]] = {}
    sft_digests: dict[str, str] = {}
    solve_digests: dict[str, str] = {}
    for name, argv in CASES.items():
        out = work / name
        _run(["generate", *argv, "--count", "3", "--seed", SEED, "--out", str(out)])
        digests[f"generate/{name}"] = _tree_digests(out)
        sft = work / f"{name}.sft.jsonl"
        _run(["export-sft", "--manifest", str(out / "manifest.jsonl"), "--out", str(sft)])
        sft_digests[name] = _sha256(sft)
        for example_id, digest in _solve_digests(out / "manifest.jsonl").items():
            solve_digests[f"{name}/{example_id}"] = digest
    digests["export-sft"] = sft_digests
    digests["solve"] = solve_digests
    report = work / "report.json"
    _run(
        [
            "bench", "score",
            "--run", str(GOLDEN / "run.jsonl"),
            "--manifest", str(work / SCORED_CASE / "manifest.jsonl"),
            "--out", str(report),
        ]
    )
    digests["bench-score"] = {"report.json": _sha256(report)}
    return digests


def _expected() -> dict[str, dict[str, str]]:
    return json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


def test_cli_artifacts_match_golden_digests(tmp_path):
    assert build_digests(tmp_path) == _expected()


def test_render_manifest_reproduces_generated_svgs(tmp_path):
    expected = _expected()
    for name, argv in CASES.items():
        generated = tmp_path / name
        _run(["generate", *argv, "--count", "3", "--seed", SEED, "--out", str(generated)])
        rendered = tmp_path / f"{name}.render"
        _run(
            [
                "render",
                "--manifest", str(generated / "manifest.jsonl"),
                "--out", str(rendered),
            ]
        )
        svgs = {
            path: digest
            for path, digest in expected[f"generate/{name}"].items()
            if path.startswith("images/")
        }
        assert _tree_digests(rendered) == svgs


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = build_digests(Path(tmp))
    (GOLDEN / "digests.json").write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
