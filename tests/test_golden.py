"""Golden byte digests of the CLI's artifacts, pinned across versions.

Criterion 9 checks that one version reproduces its own bytes; this file
checks that every version reproduces the bytes recorded in
``golden/digests.json``: the manifest and every SVG of ``generate``, the
``export-sft`` JSONL, the ``solve`` output for each example's markdown,
the ``bench score`` report of the fixed run file ``golden/run.jsonl``, and
the request bodies that ``bench run`` would send for each ``generate``
case, in every modality and style, built without opening a socket.

The same artifacts are pinned over the generator's configuration grid
(``GRID``: every difficulty, value range and equation-count range), one
digest per configuration and artifact, with a run file made inside the
test from a fixed seed. Nothing here needs pytest: under any Python,
``PYTHONPATH=src python tests/test_golden.py`` compares ``build_digests``
with the file and exits 1 naming each key that differs. A change that
alters these bytes on purpose rewrites the file by adding ``--write``, and
says why.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from mathgrid.cli import main
from mathgrid.harness.client import EndpointConfig, build_chat_payload
from mathgrid.harness.prompts import Modality, build_prompt
from mathgrid.manifest import load_manifest
from mathgrid.render.svg import STYLE_IDS

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
# The endpoint the request bodies are built for: its model field, model name
# and sampling are written into every body.
WIRE_ENDPOINT = EndpointConfig(
    base_url="http://127.0.0.1:9", model_name="golden-model", sampling={"temperature": 0.0, "max_tokens": 4096}
)

# The configuration grid: 3 × 4 × 3 = 36 configurations, each generating
# GRID_TEXT_COUNT examples without images and GRID_IMAGE_COUNT (from another
# seed) with them.
GRID = list(
    itertools.product(
        ("easy", "medium", "hard"),
        ("50:250", "1:12", "1:100", "5:1000"),
        ("2:4", "5:15", "12:20"),
    )
)
GRID_TEXT_COUNT, GRID_IMAGE_COUNT = 15, 3
# What the run file answers, one kind per record: all gold, gold only at hop
# 1, one answer too many, no answer block, or an error record.
RESPONSE_KINDS = ("gold", "partial", "surplus", "no_block", "error")


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


def _response(kind: str, example: dict) -> str:
    gold, hops = example["gold_answers"], example["hop_depths"]
    if kind == "no_block":
        return "The grid has no unique answer."
    if kind == "partial":
        gold = [value if hop == 1 else value + 1 for value, hop in zip(gold, hops)]
    elif kind == "surplus":
        gold = [*gold, 7]
    return "Solving each equation in turn.\n<answer>" + " ".join(map(str, gold)) + "</answer>"


def _write_run_file(manifest: Path, run: Path, seed: str) -> None:
    """A run record per example of ``manifest``, its kind drawn from ``seed``."""
    rng = random.Random(seed)
    records = []
    for index, line in enumerate(manifest.read_text(encoding="utf-8").splitlines()):
        example = json.loads(line)
        kind = rng.choice(RESPONSE_KINDS)
        record = {
            "example_id": example["id"],
            "modality": "text",
            "style_id": None,
            "fingerprint": f"fp-{index:04d}",
            "response_text": "" if kind == "error" else _response(kind, example),
            "latency_ms": rng.randint(1, 9000),
            "status": "error" if kind == "error" else "ok",
        }
        if kind == "error":
            record["error"] = "HTTP 503"
        records.append(json.dumps(record) + "\n")
    run.write_text("".join(records), encoding="utf-8")


def _wire_digests(name: str, manifest: Path) -> dict[str, str]:
    """Digest the bodies of each modality and style, in manifest order: text
    once, and image and image-text once per style."""
    examples = load_manifest(manifest)
    runs = [(Modality.TEXT_ONLY, None)]
    runs += [(modality, style) for modality in (Modality.IMAGE_ONLY, Modality.IMAGE_TEXT) for style in STYLE_IDS]
    digests = {}
    for modality, style in runs:
        bodies = (
            build_chat_payload(build_prompt(example, modality, style, manifest.parent), WIRE_ENDPOINT)
            for example in examples
        )
        key = "/".join(filter(None, (name, modality.value, style)))
        digests[key] = hashlib.sha256(b"\n".join(bodies)).hexdigest()
    return digests


def grid_name(difficulty: str, value_range: str, eq_count: str) -> str:
    return f"grid/{difficulty}/{value_range}/{eq_count}"


def build_grid_digests(work: Path, difficulty: str, value_range: str, eq_count: str) -> dict[str, str]:
    """Digest one configuration's artifacts: its two manifests (merged), the
    image tree, and the ``export-sft``, ``solve`` and ``bench score`` output
    over every example of both."""
    config = ["--difficulty", difficulty, "--range", value_range, "--eq-count", eq_count]
    text, images = work / "text", work / "images"
    _run(["generate", *config, "--count", str(GRID_TEXT_COUNT), "--seed", SEED,
          "--out", str(text), "--no-images"])
    _run(["generate", *config, "--count", str(GRID_IMAGE_COUNT), "--seed", str(int(SEED) + 1),
          "--out", str(images)])
    merged = work / "merged" / "manifest.jsonl"
    merged.parent.mkdir()
    merged.write_bytes((text / "manifest.jsonl").read_bytes() + (images / "manifest.jsonl").read_bytes())
    sft, run, report = work / "sft.jsonl", work / "run.jsonl", work / "report.json"
    _run(["export-sft", "--manifest", str(merged), "--out", str(sft)])
    _write_run_file(merged, run, f"golden-run:{grid_name(difficulty, value_range, eq_count)}")
    _run(["bench", "score", "--run", str(run), "--manifest", str(merged), "--out", str(report)])
    solved = "".join(_solve_digests(merged).values())
    tree = "".join(f"{path}\0{digest}\n" for path, digest in _tree_digests(images / "images").items())
    return {
        "manifest": _sha256(merged),
        "images": hashlib.sha256(tree.encode()).hexdigest(),
        "export-sft": _sha256(sft),
        "solve": hashlib.sha256(solved.encode()).hexdigest(),
        "bench-score": _sha256(report),
    }


def build_case_digests(work: Path) -> dict[str, dict[str, str]]:
    """Run the CLI over ``CASES`` into ``work`` and digest every artifact it wrote."""
    digests: dict[str, dict[str, str]] = {}
    sft_digests: dict[str, str] = {}
    solve_digests: dict[str, str] = {}
    wire_digests: dict[str, str] = {}
    for name, argv in CASES.items():
        out = work / name
        _run(["generate", *argv, "--count", "3", "--seed", SEED, "--out", str(out)])
        digests[f"generate/{name}"] = _tree_digests(out)
        sft = work / f"{name}.sft.jsonl"
        _run(["export-sft", "--manifest", str(out / "manifest.jsonl"), "--out", str(sft)])
        sft_digests[name] = _sha256(sft)
        for example_id, digest in _solve_digests(out / "manifest.jsonl").items():
            solve_digests[f"{name}/{example_id}"] = digest
        wire_digests.update(_wire_digests(name, out / "manifest.jsonl"))
    digests["export-sft"] = sft_digests
    digests["solve"] = solve_digests
    digests["wire"] = wire_digests
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


def build_digests(work: Path) -> dict[str, dict[str, str]]:
    """Every digest ``golden/digests.json`` holds, computed in ``work``."""
    digests = build_case_digests(work / "cases")
    for config in GRID:
        config_work = work / grid_name(*config)
        config_work.mkdir(parents=True)
        digests[grid_name(*config)] = build_grid_digests(config_work, *config)
    return digests


def _expected() -> dict[str, dict[str, str]]:
    return json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


def test_cli_artifacts_match_golden_digests(tmp_path):
    expected = {name: d for name, d in _expected().items() if not name.startswith("grid/")}
    assert build_case_digests(tmp_path) == expected


def pytest_generate_tests(metafunc):
    if "config" in metafunc.fixturenames:  # a hook, so that the module imports no pytest
        metafunc.parametrize("config", GRID, ids="-".join)


def test_configuration_grid_matches_golden_digests(tmp_path, config):
    assert build_grid_digests(tmp_path, *config) == _expected()[grid_name(*config)]


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
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):  # the CLI's lines
        digests = build_digests(Path(tmp))
    if sys.argv[1:] == ["--write"]:
        (GOLDEN / "digests.json").write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        sys.exit()
    expected = _expected()
    differ = sorted(key for key in digests.keys() | expected.keys() if digests.get(key) != expected.get(key))
    for key in differ:
        print(f"differs from golden/digests.json: {key}", file=sys.stderr)
    sys.exit(1 if differ else 0)
