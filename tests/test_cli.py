from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mathgrid
from mathgrid.core import CellKind, Operator
from mathgrid.cli import build_parser, main
from mathgrid.harness.sft import export_sft_trajectories
from mathgrid.render.markdown import _OP_ALIASES, parse_markdown
from mathgrid.manifest import load_manifest

from conftest import REFERENCE_MARKDOWN, coords
from endpointmock import MockEndpoint


def test_cli_imports_no_third_party_http_library():
    # importing requests took about 100 ms of every command's start-up
    src = str(Path(mathgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mathgrid.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_generate_writes_manifest_and_images(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(
        [
            "generate",
            "--difficulty",
            "easy",
            "--count",
            "3",
            "--seed",
            "21",
            "--range",
            "1:100",
            "--eq-count",
            "3:5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    examples = load_manifest(out / "manifest.jsonl")
    assert len(examples) == 3
    images = list((out / "images").iterdir())
    assert len(images) == 3 * 8
    assert "wrote 3 easy examples" in capsys.readouterr().out


def test_generate_is_reproducible(tmp_path):
    args = [
        "generate",
        "--difficulty",
        "medium",
        "--count",
        "2",
        "--seed",
        "5",
        "--out",
    ]
    assert main(args + [str(tmp_path / "a")]) == 0
    assert main(args + [str(tmp_path / "b")]) == 0
    manifest_a = (tmp_path / "a" / "manifest.jsonl").read_bytes()
    manifest_b = (tmp_path / "b" / "manifest.jsonl").read_bytes()
    assert manifest_a == manifest_b


def test_solve_prints_answers(tmp_path, capsys):
    grid_file = tmp_path / "puzzle.md"
    grid_file.write_text(REFERENCE_MARKDOWN, encoding="utf-8")
    assert main(["solve", "--markdown", str(grid_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answers"] == [6, 93, 45, 8]
    assert payload["hop_depths"] == [1, 1, 1, 1]
    assert payload["trace"]["steps"]


def test_solve_reports_errors_cleanly(tmp_path, capsys):
    grid_file = tmp_path / "bad.md"
    grid_file.write_text("| ? | + | ? | = | 12 |", encoding="utf-8")
    assert main(["solve", "--markdown", str(grid_file)]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_a_number_too_long_to_read(tmp_path, capsys):
    grid_file = tmp_path / "long.md"
    grid_file.write_text("| 1 | + | " + "9" * 5000 + " | = | ? |\n", encoding="utf-8")
    assert main(["solve", "--markdown", str(grid_file)]) == 1
    _one_error_line(capsys, "line 1, cell 3: ", "too long")


def test_render_single_markdown(tmp_path):
    grid_file = tmp_path / "puzzle.md"
    grid_file.write_text(REFERENCE_MARKDOWN, encoding="utf-8")
    out = tmp_path / "puzzle.svg"
    assert (
        main(
            [
                "render",
                "--markdown",
                str(grid_file),
                "--styles",
                "original",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert out.read_bytes().startswith(b"<?xml")


def test_render_solution_view_solves_first(tmp_path):
    grid_file = tmp_path / "puzzle.md"
    grid_file.write_text(REFERENCE_MARKDOWN, encoding="utf-8")
    out = tmp_path / "solution.svg"
    assert (
        main(
            [
                "render",
                "--markdown",
                str(grid_file),
                "--view",
                "solution",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert b">93</text>" in out.read_bytes()


def test_render_manifest_regenerates_identical_images(dataset_dir, tmp_path):
    assert (
        main(
            [
                "render",
                "--manifest",
                str(dataset_dir / "manifest.jsonl"),
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    for example in load_manifest(dataset_dir / "manifest.jsonl"):
        for rel in example.images.values():
            assert (tmp_path / rel).read_bytes() == (dataset_dir / rel).read_bytes()


def test_render_needs_a_source(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "error: one of the arguments --manifest --markdown is required" in capsys.readouterr().err


def test_render_takes_one_source(dataset_dir, tmp_path, capsys):
    grid_file = tmp_path / "puzzle.md"
    grid_file.write_text(REFERENCE_MARKDOWN, encoding="utf-8")
    argv = [
        "render",
        "--manifest", str(dataset_dir / "manifest.jsonl"),
        "--markdown", str(grid_file),
        "--out", str(tmp_path / "out"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_render_markdown_rejects_several_styles(tmp_path, capsys):
    grid_file = tmp_path / "puzzle.md"
    grid_file.write_text(REFERENCE_MARKDOWN, encoding="utf-8")
    out = tmp_path / "puzzle.svg"
    argv = ["render", "--markdown", str(grid_file), "--styles", "borderless,original"]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--view", "solution"], ["--seed", "99"]])
def test_render_manifest_rejects_markdown_only_flags(dataset_dir, tmp_path, capsys, flag):
    out = tmp_path / "out"
    argv = ["render", "--manifest", str(dataset_dir / "manifest.jsonl"), "--out", str(out)]
    assert main(argv + flag) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_export_sft_cli(dataset_dir, tmp_path, capsys):
    out = tmp_path / "sft.jsonl"
    assert (
        main(
            [
                "export-sft",
                "--manifest",
                str(dataset_dir / "manifest.jsonl"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert out.exists()
    assert "trajectory records" in capsys.readouterr().out


def test_bench_run_score_and_table(dataset_dir, tmp_path, capsys):
    manifest = dataset_dir / "manifest.jsonl"
    run_path = tmp_path / "run.jsonl"
    report_path = tmp_path / "report.json"
    with MockEndpoint(manifest) as server:
        assert (
            main(
                [
                    "bench",
                    "run",
                    "--manifest",
                    str(manifest),
                    "--out",
                    str(run_path),
                    "--endpoint",
                    server.base_url,
                    "--model",
                    "mock-model",
                    "--modality",
                    "text",
                    "--concurrency",
                    "2",
                ]
            )
            == 0
        )
    assert (
        main(
            [
                "bench",
                "score",
                "--run",
                str(run_path),
                "--manifest",
                str(manifest),
                "--out",
                str(report_path),
                "--table",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Micro Acc" in out and "100.00" in out
    report = json.loads(report_path.read_text())
    assert report["micro"] == 1.0 and report["macro"] == 1.0
    assert main(["bench", "table", "--report", str(report_path)]) == 0
    assert "Micro Acc" in capsys.readouterr().out


def test_bench_run_respects_config_file(dataset_dir, tmp_path):
    manifest = dataset_dir / "manifest.jsonl"
    with MockEndpoint(manifest) as server:
        config_path = tmp_path / "endpoint.json"
        config_path.write_text(
            json.dumps(
                {
                    "base_url": server.base_url,
                    "model_name": "cfg-model",
                    "max_concurrency": 2,
                    "backoff_s": 0.01,
                }
            ),
            encoding="utf-8",
        )
        assert (
            main(
                [
                    "bench",
                    "run",
                    "--manifest",
                    str(manifest),
                    "--out",
                    str(tmp_path / "run.jsonl"),
                    "--config",
                    str(config_path),
                ]
            )
            == 0
        )
    records = [
        json.loads(line)
        for line in (tmp_path / "run.jsonl").read_text().splitlines()
    ]
    assert all(r["status"] == "ok" for r in records)


def test_bad_operator_string_rejected():
    with pytest.raises(SystemExit):
        main(
            [
                "generate",
                "--difficulty",
                "easy",
                "--count",
                "1",
                "--ops",
                "?",
                "--out",
                "x",
            ]
        )


def test_ops_use_the_markdown_alias_table():
    def ops_of(text):
        argv = ["generate", "--difficulty", "easy", "--count", "1", "--ops", text, "--out", "x"]
        return build_parser().parse_args(argv).ops

    for alias, op in _OP_ALIASES.items():
        assert ops_of(alias) == (op,)
    assert ops_of("+−–X÷") == (Operator.ADD, Operator.SUB, Operator.MUL, Operator.DIV)


@pytest.mark.parametrize("case", ["bad-range", "missing-manifest", "report-not-json"])
def test_bad_input_gives_one_error_line(case, tmp_path, capsys):
    run = tmp_path / "run.jsonl"
    run.write_text("", encoding="utf-8")
    report = tmp_path / "report.json"
    report.write_text("{not json", encoding="utf-8")
    argv = {
        "bad-range": [
            "generate", "--difficulty", "easy", "--count", "1",
            "--range", "5:1", "--out", str(tmp_path / "ds"),
        ],
        "missing-manifest": [
            "bench", "score", "--run", str(run), "--manifest", str(tmp_path / "absent.jsonl"),
        ],
        "report-not-json": ["bench", "table", "--report", str(report)],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_endpoint_config_errors(dataset_dir, tmp_path, capsys):
    code = main(
        [
            "bench",
            "run",
            "--manifest",
            str(dataset_dir / "manifest.jsonl"),
            "--out",
            str(tmp_path / "run.jsonl"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"max_concurrency": "2"},
        {"max_concurrency": True},
        {"max_retries": -1},
        {"max_retries": 1.5},
        {"sampling": [1]},
        {"sampling": {"model": "other"}},
        {"sampling": {"messages": []}},
        {"timeout_s": -1},
        {"timeout_s": "30"},
        {"backoff_s": -0.5},
        {"path": ""},
        {"path": "v1/chat/completions"},
        {"base_url": "localhost:9"},
        {"base_url": "ftp://127.0.0.1:9"},
        {"base_url": "http://"},
        {"base_url": "http://127.0.0.1:port"},
        {"model_field": None},
        {"model_name": 7},
        {"auth_token_env": 3},
        ["base_url", "model_name"],
    ],
    ids=lambda config: json.dumps(config),
)
def test_wrongly_typed_endpoint_config_errors(dataset_dir, tmp_path, capsys, config):
    named = next(iter(config)) if isinstance(config, dict) else "must be a JSON object"
    if isinstance(config, dict) and isinstance(config.get("sampling"), dict):
        named = repr(next(iter(config["sampling"])))
    with MockEndpoint() as server:
        if isinstance(config, dict):
            config = {"base_url": server.base_url, "model_name": "m", **config}
        config_path = tmp_path / "endpoint.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = [
            "bench", "run", "--manifest", str(dataset_dir / "manifest.jsonl"),
            "--out", str(tmp_path / "run.jsonl"), "--config", str(config_path),
        ]
        assert main(argv) == 1
        assert server.requests_total == 0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "run.jsonl").exists()


MANIFEST_KEYS = (
    "id", "difficulty", "seed", "markdown", "gold_answers",
    "hop_depths", "images", "gen_params", "trace",
)


def _manifest_with_bad_second_line(dataset_dir, tmp_path, corrupt) -> str:
    """A copy of the fixture manifest's first line and of a medium example
    with deeper hops, whose JSON ``corrupt`` edits in place or replaces with
    the line it returns."""
    lines = (dataset_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    good = lines[0]
    bad = next(line for line in lines if max(json.loads(line)["hop_depths"]) > 1)
    data = json.loads(bad)
    text = corrupt(data)
    bad = text if isinstance(text, str) else json.dumps(data)
    path = tmp_path / "manifest.jsonl"
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    return str(path)


def _misplace_a_resolution(data):
    # move the first resolution onto a number cell of the grid
    grid = parse_markdown(data["markdown"])
    row, col = next(c for c in coords(grid) if grid.at(c).kind is CellKind.NUMBER)
    data["trace"]["steps"][0][0].update(row=row, col=col)


CORRUPTIONS = {
    "reversed-gold-answers": lambda d: d["gold_answers"].reverse(),
    "wrong-hop-depths": lambda d: d.update(hop_depths=[9] * len(d["hop_depths"])),
    "seed-differs-from-gen-params": lambda d: d.update(seed=d["seed"] + 1),
    "difficulty-differs-from-gen-params": lambda d: d.update(difficulty="hard"),
    "no-trace": lambda d: d.pop("trace"),
    "trace-resolves-a-non-target": _misplace_a_resolution,
}


def _one_error_line(capsys, *fragments) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, err


@pytest.mark.parametrize("command", ["bench-score", "export-sft"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_inconsistent_manifest_line_is_rejected(dataset_dir, tmp_path, capsys, corruption, command):
    manifest = _manifest_with_bad_second_line(dataset_dir, tmp_path, CORRUPTIONS[corruption])
    first = json.loads((dataset_dir / "manifest.jsonl").read_text(encoding="utf-8").split("\n")[0])
    record = {
        "example_id": first["id"], "modality": "text", "style_id": None, "fingerprint": "fp",
        "response_text": "<answer>1</answer>", "latency_ms": 1, "status": "ok",
    }
    run = tmp_path / "run.jsonl"
    run.write_text(json.dumps(record) + "\n", encoding="utf-8")
    argv = {
        "bench-score": ["bench", "score", "--run", str(run), "--manifest", manifest],
        "export-sft": ["export-sft", "--manifest", manifest, "--out", str(tmp_path / "sft")],
    }[command]
    assert main(argv) == 1
    _one_error_line(capsys, f"{manifest} line 2: ")


def test_export_sft_rejects_an_unknown_trace_equation(dataset_dir, tmp_path, capsys):
    def corrupt(data):
        data["trace"]["steps"][0][0]["eq"] = 999
        return json.dumps(data)

    manifest = _manifest_with_bad_second_line(dataset_dir, tmp_path, corrupt)
    example_id = json.loads(Path(manifest).read_text(encoding="utf-8").splitlines()[1])["id"]
    out = tmp_path / "sft.jsonl"
    out.write_text("earlier export\n", encoding="utf-8")
    assert main(["export-sft", "--manifest", manifest, "--out", str(out)]) == 1
    _one_error_line(capsys, f"example {example_id}: ", "equation 999")
    # the first example's record went nowhere: no partial file, no leftovers
    assert out.read_text(encoding="utf-8") == "earlier export\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl", "sft.jsonl"]


def test_export_sft_closes_the_manifest_when_an_example_fails(dataset_dir, tmp_path):
    def corrupt(data):
        data["trace"]["steps"][0][0]["eq"] = 999

    manifest = _manifest_with_bad_second_line(dataset_dir, tmp_path, corrupt)
    with pytest.raises(ValueError, match="equation 999") as failure:
        export_sft_trajectories(manifest, tmp_path / "sft.jsonl")
    # ``failure`` holds the traceback and so the failed call's frames; the file is shut anyway.
    # A wrapper over an in-memory buffer, such as pytest's capture, has no name.
    still_open = [
        obj for obj in gc.get_objects()
        if isinstance(obj, io.TextIOWrapper)
        and getattr(obj, "name", None) == manifest
        and not obj.closed
    ]
    assert still_open == []


@pytest.mark.parametrize("key", [*MANIFEST_KEYS, "non-json", "markdown-not-text"])
def test_manifest_load_error_names_file_and_line(dataset_dir, tmp_path, capsys, key):
    def corrupt(data):
        if key == "non-json":
            return json.dumps(data)[:-10]
        if key == "markdown-not-text":
            return json.dumps(dict(data, markdown=5))
        del data[key]

    manifest = _manifest_with_bad_second_line(dataset_dir, tmp_path, corrupt)
    assert main(["export-sft", "--manifest", manifest, "--out", str(tmp_path / "sft")]) == 1
    _one_error_line(capsys, f"{manifest} line 2: ", repr(key) if key in MANIFEST_KEYS else "")


def test_text_runs_are_keyed_without_a_style(dataset_dir, tmp_path, capsys):
    manifest = str(dataset_dir / "manifest.jsonl")
    run = tmp_path / "run.jsonl"
    with MockEndpoint(dataset_dir / "manifest.jsonl") as server:
        argv = [
            "bench", "run", "--manifest", manifest, "--out", str(run),
            "--endpoint", server.base_url, "--model", "mock-model", "--modality", "text",
        ]
        assert main(argv) == 0
        sent = server.requests_total
        assert main([*argv, "--style", "borderless"]) == 0
        assert server.requests_total == sent  # the same prompts: nothing re-sent
    assert all(json.loads(line)["style_id"] is None for line in run.read_text().splitlines())
    assert main(["bench", "score", "--run", str(run), "--manifest", manifest]) == 0
    assert "100.00" in capsys.readouterr().out
