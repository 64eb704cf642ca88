"""The run file reads as it did when three pieces of code read it.

A run file was once read by three pieces of code: one yielded each line's
record and dropped a torn last line with a warning, one kept each
fingerprint's latest record, and one read the file again before a resume
to cut off a last line that does not parse or to end a whole one. The
reference below keeps those three. Given the same file, the live reader
must return the same records in the same order with the same line numbers,
print the same warning, fail with the same error, and leave the same bytes
in front of what a resume appends.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mathgrid import Difficulty, GenParams, generate
from mathgrid.cli import main
from mathgrid.core import located
from mathgrid.harness import client
from mathgrid.harness.client import EndpointConfig, ManifestMismatch, RunRecord, request_fingerprint
from mathgrid.harness.prompts import Modality
from mathgrid.manifest import parse_json, write_manifest

# -- reference implementation -----------------------------------------------


def reference_end_on_a_whole_line(run_path: Path) -> None:
    """Let appended records start on a line of their own: cut off a last
    line that was torn mid-write, or end a whole one that lacks its newline."""
    data = run_path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    start = data.rfind(b"\n") + 1
    try:
        parse_json(data[start:].decode("utf-8"))
    except ValueError:
        with run_path.open("r+b") as fh:
            fh.truncate(start)
    else:
        with run_path.open("ab") as fh:
            fh.write(b"\n")


def reference_load_run_records(run_path: Path | str) -> list[RunRecord]:
    """Run records with resume duplicates collapsed to the latest attempt."""
    latest = {record.fingerprint: record for _, record in reference_read_run_records(run_path)}
    return list(latest.values())


def reference_read_run_records(run_path: Path | str) -> Iterator[tuple[int, RunRecord]]:
    """Line number and record of each line in file order. A last line with no
    newline that does not parse was torn mid-write and is dropped with a warning;
    any other line that is not a run record fails, naming the file and line."""
    lines = Path(run_path).read_bytes().split(b"\n")
    with located(run_path) as where:
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where.line = number
            try:
                data = parse_json(line.decode("utf-8"))  # strict, unlike json.loads(bytes)
            except ValueError:
                if number < len(lines):
                    raise
                print(
                    f"warning: {run_path} line {number}: dropped a record torn mid-write",
                    file=sys.stderr,
                )
                break
            yield number, RunRecord.from_json(data)


def reference_resume(run_path: Path) -> set[str]:
    """What a resume did to the file before it sent anything; the
    fingerprints it skips."""
    done = {r.fingerprint for r in reference_load_run_records(run_path) if r.status == "ok"}
    reference_end_on_a_whole_line(run_path)
    return done


# -- the live reader ----------------------------------------------------------


def live_lines(run_path: Path) -> list[tuple[str, int]]:
    """Each fingerprint and the line of its latest record, by the live reader."""
    return [(fingerprint, number) for fingerprint, (number, _) in client._read_run(run_path)[0].items()]


# -- run files ------------------------------------------------------------------

EXAMPLE_ID = "runfile_00"
MODEL = "m"
# the manifest's one example; its fingerprint comes up among the others, so
# that some resumes have nothing to send
KEYS = [
    (request_fingerprint(EXAMPLE_ID, Modality.TEXT_ONLY, None, MODEL), EXAMPLE_ID),
    ("fp-a", "other_a"),
    ("fp-b", "other_b"),
]


def _record(key: int, status: str, text: str, latency_ms: int = 1) -> bytes:
    fingerprint, example_id = KEYS[key]
    data = {
        "example_id": example_id, "modality": "text", "style_id": None, "fingerprint": fingerprint,
        "response_text": text, "latency_ms": latency_ms, "status": status,
    }
    if status == "error":
        data["error"] = "ConnectionRefusedError: boom"
    return json.dumps(data, ensure_ascii=False).encode("utf-8")


_records = st.builds(
    _record,
    st.integers(0, len(KEYS) - 1),
    st.sampled_from(["ok", "error"]),
    st.sampled_from(["<answer>1 2</answer>", "", "é ≠ ✓ <answer>3</answer>"]),
    st.integers(0, 99),
)
_BLANKS = [b"", b" ", b"\t", b"\r", b"  \r", b"\x0b", b"\x0c "]
# lines that are not run records: they fail wherever they stand but last
_BAD = [b'{"example_id": "x", "sta', b'["not", "a", "record"]', b'{"status": "ok"}', b"\xff\xfe", b"\xc3"]
_WHITESPACE_TAILS = [b" ", b"   ", b"\r", b"\t", b" \r ", b"\x0b", b"\x0c"]


@st.composite
def run_files(draw) -> bytes:
    """A run file: whole records (CRLF or LF), blank lines and at most one bad
    line, then a last line that is empty, whole, torn, not UTF-8 or only
    whitespace."""
    line = st.one_of(_records, _records, _records.map(lambda r: r + b"\r"), st.sampled_from(_BLANKS))
    lines = draw(st.lists(line, max_size=7))
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD)))
    record = draw(_records)
    tail = draw(
        st.one_of(
            st.just(b""),  # the file ends on a newline
            st.just(record),  # a whole last record that lacks its newline
            st.just(record + b"\r"),
            st.integers(1, len(record) - 1).map(lambda n: record[:n]),  # torn mid-write
            st.integers(1, len(record)).map(lambda n: record[:n] + b"\xff"),  # not UTF-8
            st.sampled_from(_WHITESPACE_TAILS),
            st.sampled_from(_BAD + ["\u00a0".encode("utf-8")]),  # a space that is not ASCII
        )
    )
    return b"".join(line + b"\n" for line in lines) + tail


# -- the comparison -----------------------------------------------------------

_SETTINGS = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory) -> Path:
    """A manifest of one example without images."""
    path = tmp_path_factory.mktemp("runfile") / "manifest.jsonl"
    write_manifest([generate(GenParams(difficulty=Difficulty.EASY, seed=5), example_id=EXAMPLE_ID)], path)
    return path


@pytest.fixture
def resume(manifest, proxy_env):
    """A resume of a run file against an endpoint where nothing listens: each
    request becomes one error record at once."""
    config = EndpointConfig(base_url="http://127.0.0.1:9", model_name=MODEL, max_retries=0, backoff_s=0)
    return lambda run_path: client.run_benchmark(manifest, config, Modality.TEXT_ONLY, None, run_path)


def _observe(capsys, read, run_path):
    """What ``read(run_path)`` returns, or the type and text of what it
    raises, and what it prints on stderr."""
    capsys.readouterr()
    try:
        result = read(run_path)
    except Exception as exc:  # noqa: BLE001 - the failure is what is compared
        result = (type(exc), str(exc))
    return result, capsys.readouterr().err


@_SETTINGS
@given(data=run_files())
@example(data=b"")
@example(data=_record(0, "ok", "x") + b"\n   ")
@example(data=_record(0, "ok", "x") + b"\n\r")
@example(data=_record(0, "ok", "x") + b"\n" + _record(0, "error", "")[:9])
@example(data=_record(1, "ok", "a") + b"\n" + _record(1, "error", "b") + b"\n")
def test_the_live_reader_agrees_with_the_reference(tmp_path, capsys, resume, data):
    run_path = tmp_path / "run.jsonl"
    run_path.write_bytes(data)
    expected = _observe(capsys, reference_load_run_records, run_path)
    assert _observe(capsys, client.load_run_records, run_path) == expected
    assert run_path.read_bytes() == data  # reading writes nothing
    if not isinstance(expected[0], tuple):
        lines = {r.fingerprint: n for n, r in reference_read_run_records(run_path)}
        assert live_lines(run_path) == list(lines.items())
        capsys.readouterr()

    done, warned = _observe(capsys, reference_resume, run_path)
    fixed = run_path.read_bytes()
    run_path.write_bytes(data)
    result, live_warned = _observe(capsys, resume, run_path)
    assert live_warned == warned
    if isinstance(done, tuple):  # a bad line: the resume fails as the reference did, and writes nothing
        assert result == done and run_path.read_bytes() == data
        return
    assert result == run_path
    got = run_path.read_bytes()
    assert got[: len(fixed)] == fixed
    appended = got[len(fixed):]
    if KEYS[0][0] in done:
        assert appended == b""
    else:
        (line,) = appended.splitlines(keepends=True)
        record = RunRecord.from_json(json.loads(line))
        assert line.endswith(b"\n") and (record.example_id, record.status) == (EXAMPLE_ID, "error")


# -- fixed cases ----------------------------------------------------------------

_LONG_AGO_NS = 1_000_000_000 * 10**9  # 2001


def test_a_finished_run_resumed_keeps_its_bytes_and_mtime(tmp_path, resume):
    run_path = tmp_path / "run.jsonl"
    data = _record(1, "ok", "a") + b"\n" + _record(0, "ok", "<answer>1</answer>") + b"\n"
    run_path.write_bytes(data)
    os.utime(run_path, ns=(_LONG_AGO_NS, _LONG_AGO_NS))
    resume(run_path)
    assert run_path.read_bytes() == data
    assert run_path.stat().st_mtime_ns == _LONG_AGO_NS


def test_a_resume_with_nothing_to_send_cuts_off_a_torn_duplicate(tmp_path, capsys, resume):
    run_path = tmp_path / "run.jsonl"
    whole = _record(0, "ok", "<answer>1</answer>")
    run_path.write_bytes(whole + b"\n" + whole[:-7])
    resume(run_path)
    assert run_path.read_bytes() == whole + b"\n"
    assert capsys.readouterr().err == f"warning: {run_path} line 2: dropped a record torn mid-write\n"


def test_a_stray_record_is_named_by_its_latest_line(tmp_path, manifest):
    run_path = tmp_path / "run.jsonl"
    stray = {
        "example_id": "ghost", "modality": "text", "style_id": None, "fingerprint": "fp-ghost",
        "response_text": "<answer>1</answer>", "latency_ms": 1, "status": "ok",
    }
    lines = [
        json.dumps(stray).encode(), _record(0, "ok", "<answer>1</answer>"), b"",
        json.dumps(dict(stray, latency_ms=2)).encode(),
    ]
    run_path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ManifestMismatch) as caught:
        client.score_run(run_path, manifest)
    assert str(caught.value) == f"{run_path} line 4: run references 'ghost', absent from manifest"


def test_bench_score_warns_once_of_a_torn_line_before_a_stray_record(tmp_path, manifest, capsys):
    run_path = tmp_path / "run.jsonl"
    stray = json.dumps({
        "example_id": "ghost", "modality": "text", "style_id": None, "fingerprint": "fp-ghost",
        "response_text": "<answer>1</answer>", "latency_ms": 1, "status": "ok",
    }).encode()
    run_path.write_bytes(stray + b"\n" + stray[:-7])
    assert main(["bench", "score", "--run", str(run_path), "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err == (
        f"warning: {run_path} line 2: dropped a record torn mid-write\n"
        f"error: {run_path} line 1: run references 'ghost', absent from manifest\n"
    )


def test_a_resume_reads_the_run_file_once(tmp_path, resume, monkeypatch):
    run_path = tmp_path / "run.jsonl"
    whole = _record(0, "ok", "<answer>1</answer>")
    run_path.write_bytes(whole + b"\n" + whole[:-7])  # a torn tail, which the resume cuts off
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or read_bytes(path))
    resume(run_path)
    assert reads.count(run_path) == 1
    assert run_path.read_bytes() == whole + b"\n"
