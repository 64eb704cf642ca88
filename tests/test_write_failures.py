"""A command whose output file cannot be written whole exits 1 with one error
line naming that file. It leaves the earlier file byte for byte, or no file if
there was none, and no temporary file beside it.

Each command runs in a child process whose own file-size limit
(``RLIMIT_FSIZE``) is lowered before it starts. CPython ignores ``SIGXFSZ``, so
a write past the limit raises ``OSError`` with errno ``EFBIG``, as a full disk
raises ``ENOSPC``. The test process's own limit is never touched.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mathgrid.cli import main
from mathgrid.harness.client import load_run_records
from mathgrid.manifest import load_manifest

from conftest import REFERENCE_MARKDOWN, subprocess_env
from endpointmock import MockEndpoint

resource = pytest.importorskip("resource")

TOO_LARGE = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"


def _run_limited(argv: list[str], limit: int) -> subprocess.CompletedProcess:
    """``mathgrid argv`` in a child process that may write no file past ``limit`` bytes."""
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]

    def lower() -> None:
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

    return subprocess.run(
        [sys.executable, "-m", "mathgrid.cli", *argv], env=subprocess_env(),
        capture_output=True, text=True, timeout=60, preexec_fn=lower,
    )


def _limit(whole: bytes, where: str) -> int:
    """A size past which ``whole`` cannot be written: the end of its middle
    line, or halfway through the line after it."""
    ends = [index + 1 for index, byte in enumerate(whole) if byte == ord("\n")]
    middle = len(ends) // 2
    assert middle >= 1 and ends[middle] - ends[middle - 1] >= 2
    return ends[middle - 1] if where == "line-end" else (ends[middle - 1] + ends[middle]) // 2


def _gold_run(manifest: Path, run: Path) -> None:
    """A run file answering every example of ``manifest`` with its gold answers."""
    run.write_text("".join(
        json.dumps({
            "example_id": example.id, "modality": "text", "style_id": None,
            "fingerprint": f"fp-{example.id}",
            "response_text": "<answer>" + " ".join(map(str, example.gold_answers)) + "</answer>",
            "latency_ms": 5, "status": "ok",
        }) + "\n"
        for example in load_manifest(manifest)
    ), encoding="utf-8")


def _case(command: str, dataset_dir: Path, tmp_path: Path) -> tuple[list[str], Path, bytes | None]:
    """The arguments of ``command`` with ``{out}`` for its output directory, the
    output file under that directory, and what that file held before (None: no file)."""
    manifest = str(dataset_dir / "manifest.jsonl")
    if command == "generate":
        earlier = tmp_path / "earlier"
        assert main(["generate", "--difficulty", "hard", "--count", "3", "--seed", "3",
                     "--out", str(earlier), "--no-images"]) == 0
        argv = ["generate", "--difficulty", "hard", "--count", "6", "--seed", "4", "--out", "{out}", "--no-images"]
        return argv, Path("manifest.jsonl"), (earlier / "manifest.jsonl").read_bytes()
    if command == "export-sft":
        argv = ["export-sft", "--manifest", manifest, "--out", "{out}/sft.jsonl"]
        return argv, Path("sft.jsonl"), b"earlier export\n"
    if command == "bench-score":
        _gold_run(dataset_dir / "manifest.jsonl", tmp_path / "run.jsonl")
        argv = ["bench", "score", "--run", str(tmp_path / "run.jsonl"), "--manifest", manifest,
                "--out", "{out}/reports/report.json"]
        return argv, Path("reports/report.json"), None
    (tmp_path / "grid.md").write_text(REFERENCE_MARKDOWN, encoding="utf-8")
    argv = ["render", "--markdown", str(tmp_path / "grid.md"), "--view", "solution", "--out", "{out}/grid.svg"]
    return argv, Path("grid.svg"), b"<svg>an earlier render</svg>\n"


@pytest.mark.parametrize("where", ["line-end", "mid-line"])
@pytest.mark.parametrize("command", ["generate", "export-sft", "bench-score", "render"])
def test_a_write_past_the_size_limit_keeps_the_earlier_file(dataset_dir, tmp_path, command, where):
    argv, name, earlier = _case(command, dataset_dir, tmp_path)
    # the whole output, from the same command without a limit
    assert main([arg.replace("{out}", str(tmp_path / "whole")) for arg in argv]) == 0
    whole = (tmp_path / "whole" / name).read_bytes()
    out = tmp_path / "out" / name
    if earlier is not None:
        out.parent.mkdir(parents=True)
        out.write_bytes(earlier)

    proc = _run_limited([arg.replace("{out}", str(tmp_path / "out")) for arg in argv], _limit(whole, where))

    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: {TOO_LARGE}: {str(out)!r}\n"
    if earlier is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == earlier
    assert list(out.parent.glob("*.tmp")) == []


def test_svgs_are_written_before_the_manifest_and_a_failed_one_is_named(tmp_path):
    earlier = ["generate", "--difficulty", "easy", "--count", "2", "--seed", "3", "--out", str(tmp_path)]
    assert main(earlier) == 0
    manifest = (tmp_path / "manifest.jsonl").read_bytes()

    # each SVG is larger than this
    proc = _run_limited(["generate", "--difficulty", "easy", "--count", "2", "--seed", "4",
                         "--out", str(tmp_path)], 1000)

    assert proc.returncode == 1, proc.stderr
    svg = tmp_path / "images" / "easy_4_0000.query.original.svg"
    assert proc.stderr == f"error: {TOO_LARGE}: {str(svg)!r}\n"
    assert (tmp_path / "manifest.jsonl").read_bytes() == manifest
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("command", ["export-sft", "bench-score"])
def test_a_missing_manifest_is_named_and_no_output_is_left(dataset_dir, tmp_path, capsys, command):
    missing = tmp_path / "no-such-manifest.jsonl"
    out = tmp_path / "out" / "result.json"
    _gold_run(dataset_dir / "manifest.jsonl", tmp_path / "run.jsonl")
    argv = {
        "export-sft": ["export-sft", "--manifest", str(missing), "--out", str(out)],
        "bench-score": ["bench", "score", "--run", str(tmp_path / "run.jsonl"),
                        "--manifest", str(missing), "--out", str(out)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(missing)!r}\n"
    assert not out.exists()
    assert not out.parent.exists() or list(out.parent.iterdir()) == []


def test_a_record_write_past_the_size_limit_names_the_run_file_and_resumes(dataset_dir, tmp_path):
    manifest = dataset_dir / "manifest.jsonl"
    run, whole = tmp_path / "run.jsonl", tmp_path / "whole.jsonl"
    with MockEndpoint(manifest) as server:
        def bench_run(out: Path) -> list[str]:
            return ["bench", "run", "--manifest", str(manifest), "--out", str(out),
                    "--endpoint", server.base_url, "--model", "m", "--concurrency", "1"]

        assert main(bench_run(whole)) == 0
        first, second = whole.read_bytes().splitlines(keepends=True)[:2]
        # partway through the third record, give or take a digit of latency
        proc = _run_limited(bench_run(run), len(first) + len(second) + 40)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: {TOO_LARGE}: {str(run)!r}\n"
        assert not run.read_bytes().endswith(b"\n")  # the record it could not finish
        assert main(bench_run(run)) == 0

    assert [r.status for r in load_run_records(run)] == ["ok"] * len(load_manifest(manifest))
    for records in (run, whole):
        argv = ["bench", "score", "--run", str(records), "--manifest", str(manifest), "--out", f"{records}.report"]
        assert main(argv) == 0
    assert Path(f"{run}.report").read_bytes() == Path(f"{whole}.report").read_bytes()
