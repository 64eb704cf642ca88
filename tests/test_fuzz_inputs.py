"""Mutation fuzzing of the line inputs (manifest lines and run records) and
of the markdown grid.

Each case takes a valid fixture file, mutates one of its lines and runs
``bench score`` (and, for a manifest, ``export-sft``) through ``cli.main``
in process. A mutation picks any value in the line and swaps its type,
deletes it, puts a 2000-character string in place of it (when it is not an
object or array) or one more entry into it (when it is), or puts in raw JSON
that ``json.dumps`` never writes (deep nesting, ``NaN``, ``Infinity``,
``1e400``, a 5000-digit number); or it inserts bytes that are not UTF-8, or
truncates the line. Whatever it does, the command exits 0 or 1 without a
traceback; on exit 1 it prints one ``error:`` line under 1 KB that names the
file and line; and its ``--out`` file keeps what it held.

A markdown grid is mutated the same ways, a cell standing for a value and
a row for an object, and run through ``solve --markdown``: it exits 0 with
one JSON line, or 1 with one ``error:`` line under 1 KB.

An endpoint config file is mutated as a line is and run through ``bench run
--config`` against the mock endpoint, mutated too by putting a character
that is not ASCII, a space, ``?`` or ``#`` into its ``base_url`` or ``path``:
it exits 1 with one ``error:`` line under 1 KB that names the file and
writes no run file, or it exits 0, and then no request failed before it was
sent (no record's error is an ``OverflowError`` or a ``UnicodeEncodeError``)
and each request the mock got went to ``path`` under ``base_url``'s own
path, as they stand. A chat-completion response
body is mutated as a line is too: ``response_text(parse_json(body))`` gives
a string or raises a ValueError under 1 KB.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mathgrid.cli import main
from mathgrid.harness.client import EndpointConfig, load_run_records, response_text
from mathgrid.manifest import parse_json

from endpointmock import MockEndpoint

_SETTINGS = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_PLACEHOLDER = "\x00placeholder\x00"
_RAW_JSON = [
    "[" * 100_000 + "]" * 100_000,
    "NaN",
    "Infinity",
    "-Infinity",
    "1e400",
    "7" * 5000,
]
# What a raw cell may hold: numbers as long as parse_markdown reads and
# longer, and a run of pipes that splits the row into a thousand cells.
_RAW_CELLS = ["9" * 4000, "9" * 4300, "7" * 5000, "0" * 4000, "|" * 1000]
_CELL_TOKENS = st.one_of(
    st.sampled_from(["", "?", "=", "+", "-", "×", "÷", "x", "*", "/", "0", "-3", "1.5", "l2", "NaN", "1e400"]),
    st.integers(-(10**6), 10**6).map(str),
    st.text(max_size=6),
)
_LONG_STRINGS = st.characters(exclude_categories=["Cs"]).map(lambda char: char * 2000)
_NOT_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
    _LONG_STRINGS,
)


def _places(parent, key):
    """``(parent, key)`` of ``parent[key]`` and of every value inside it."""
    yield parent, key
    value = parent[key]
    if isinstance(value, (dict, list)):
        for inner in list(value) if isinstance(value, dict) else range(len(value)):
            yield from _places(value, inner)


@st.composite
def _mutated(draw, line: str) -> bytes:
    """``line`` (one JSON document) after one mutation, with its newline."""
    kind = draw(st.sampled_from(["swap", "delete", "raw", "bytes", "truncate", "long", "add"]))
    if kind == "bytes":
        data = line.encode("utf-8")
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(_NOT_UTF8)) + data[at:] + b"\n"
    if kind == "truncate":
        data = line.encode("utf-8")
        return data[: draw(st.integers(0, len(data) - 1))] + b"\n"
    box = {"line": copy.deepcopy(json.loads(line))}
    places = [
        (parent, key) for parent, key in _places(box, "line")
        if kind not in ("long", "add") or isinstance(parent[key], (dict, list)) == (kind == "add")
    ]
    parent, key = places[draw(st.integers(0, len(places) - 1))]
    if kind == "delete" and parent is not box:
        del parent[key]
    elif kind == "raw":
        parent[key] = _PLACEHOLDER
    elif kind == "long":
        parent[key] = draw(_LONG_STRINGS)
    elif kind == "add" and isinstance(parent[key], dict):
        parent[key][draw(st.text(max_size=3))] = draw(_JSON_VALUES)
    elif kind == "add":
        parent[key].append(draw(_JSON_VALUES))
    else:
        old = parent[key]
        parent[key] = draw(_JSON_VALUES.filter(lambda value: type(value) is not type(old)))
    text = json.dumps(box["line"], ensure_ascii=False)
    text = text.replace(json.dumps(_PLACEHOLDER), draw(st.sampled_from(_RAW_JSON)))
    return text.encode("utf-8") + b"\n"


@st.composite
def _mutated_grid(draw, markdown: str) -> bytes:
    """``markdown`` (a table in ``to_markdown``'s shape) after one mutation."""
    kind = draw(st.sampled_from(["swap", "delete", "raw", "bytes", "truncate", "long", "add"]))
    data = markdown.encode("utf-8")
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(_NOT_UTF8)) + data[at:]
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    rows = [line[1:-1].split("|") for line in markdown.splitlines()]
    row = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, len(rows[row]) - 1))
    whole_row = draw(st.booleans())
    if kind == "delete" and whole_row:
        del rows[row]
    elif kind == "delete":
        del rows[row][col]
    elif kind == "add" and whole_row:
        rows.insert(row, draw(st.lists(_CELL_TOKENS, min_size=1, max_size=len(rows[row]) + 1)))
    elif kind == "add":
        rows[row].insert(col, draw(_CELL_TOKENS))
    else:
        rows[row][col] = draw({"swap": _CELL_TOKENS, "raw": st.sampled_from(_RAW_CELLS), "long": _LONG_STRINGS}[kind])
    return "".join("|" + "|".join(cells) + "|\n" for cells in rows).encode("utf-8")


def _fixture_lines(dataset_dir) -> tuple[list[str], list[str]]:
    """The first fixture example and one with deeper hops as manifest lines,
    and a run record answering each with its gold answers."""
    lines = (dataset_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    manifest = [lines[0], next(line for line in lines if max(json.loads(line)["hop_depths"]) > 1)]
    run = []
    for line in manifest:
        example = json.loads(line)
        record = {
            "example_id": example["id"], "modality": "text", "style_id": None,
            "fingerprint": f"fp-{example['id']}", "latency_ms": 5, "status": "ok",
            "response_text": f"<answer>{' '.join(map(str, example['gold_answers']))}</answer>",
        }
        run.append(json.dumps(record))
    return manifest, run


def _check(capsys, argv: list[str], out, where: str) -> None:
    out.write_text("held before\n", encoding="utf-8")
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), code
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert len(err.encode("utf-8")) < 1024, err[:200]
        assert where in err, err[:200]
        assert out.read_text(encoding="utf-8") == "held before\n"


@_SETTINGS
@given(data=st.data())
def test_a_mutated_manifest_line_loads_or_fails_on_one_line(dataset_dir, tmp_path, capsys, data):
    (good, other), run = _fixture_lines(dataset_dir)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(good.encode("utf-8") + b"\n" + data.draw(_mutated(other)))
    # the run answers only the first example, which every mutated manifest keeps
    run_path = tmp_path / "run.jsonl"
    run_path.write_text(run[0] + "\n", encoding="utf-8")
    out = tmp_path / "out"
    where = f"{manifest} line 2: "
    _check(capsys, ["export-sft", "--manifest", str(manifest), "--out", str(out)], out, where)
    argv = ["bench", "score", "--run", str(run_path), "--manifest", str(manifest), "--out", str(out)]
    _check(capsys, argv, out, where)


@_SETTINGS
@given(data=st.data())
def test_a_mutated_run_record_scores_or_fails_on_one_line(dataset_dir, tmp_path, capsys, data):
    manifest_lines, run = _fixture_lines(dataset_dir)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(line + "\n" for line in manifest_lines), encoding="utf-8")
    victim = data.draw(st.sampled_from([0, 1]))
    lines = [line.encode("utf-8") + b"\n" for line in run]
    lines[victim] = data.draw(_mutated(run[victim]))
    run_path = tmp_path / "run.jsonl"
    run_path.write_bytes(b"".join(lines))
    out = tmp_path / "report.json"
    argv = ["bench", "score", "--run", str(run_path), "--manifest", str(manifest), "--out", str(out)]
    _check(capsys, argv, out, f"{run_path} line {victim + 1}: ")


@settings(_SETTINGS, max_examples=200)
@given(data=st.data())
def test_a_mutated_markdown_grid_solves_or_fails_on_one_line(dataset_dir, tmp_path, capsys, data):
    manifest_lines, _ = _fixture_lines(dataset_dir)
    markdown = json.loads(data.draw(st.sampled_from(manifest_lines)))["markdown"]
    grid = tmp_path / "grid.md"
    grid.write_bytes(data.draw(_mutated_grid(markdown)))
    capsys.readouterr()
    code = main(["solve", "--markdown", str(grid)])
    out, err = capsys.readouterr()
    assert code in (0, 1), code
    if code == 0:
        assert out.count("\n") == 1 and "answers" in json.loads(out), out[:200]
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err[:200]
        assert len(err.encode("utf-8")) < 1024, err[:200]


# Every config key but auth_token_env, whose mutations would read the
# environment; the base URL stands in for the mock endpoint's.
_BASE_URL = "http://127.0.0.1:1"
_CONFIG = json.dumps({
    "base_url": _BASE_URL, "model_name": "m", "max_concurrency": 2, "timeout_s": 5.0,
    "max_retries": 1, "path": "/v1/chat/completions", "model_field": "model",
    "sampling": {"temperature": 0.0}, "backoff_s": 0.001,
})
_URL_INSERTS = ["\u00fc", "\u20ac", " ", "?", "#"]


@st.composite
def _mutated_config(draw) -> bytes:
    """``_CONFIG`` after one mutation: ``_mutated``'s, or one of ``_URL_INSERTS``
    put into ``base_url`` or ``path``."""
    if draw(st.booleans()):
        return draw(_mutated(_CONFIG))
    config = json.loads(_CONFIG)
    key = draw(st.sampled_from(["base_url", "path"]))
    at = draw(st.integers(0, len(config[key])))
    config[key] = config[key][:at] + draw(st.sampled_from(_URL_INSERTS)) + config[key][at:]
    return json.dumps(config, ensure_ascii=False).encode("utf-8") + b"\n"


@pytest.fixture
def endpoint():
    with MockEndpoint() as server:
        yield server


@_SETTINGS
@given(config=_mutated_config())
@example(config=_CONFIG.replace("5.0", "Infinity").encode() + b"\n")
@example(config=_CONFIG.replace("5.0", "1e10").encode() + b"\n")
def test_a_mutated_endpoint_config_loads_and_sends_or_fails_on_one_line(
    dataset_dir, tmp_path, capsys, endpoint, config
):
    manifest_lines, _ = _fixture_lines(dataset_dir)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(line + "\n" for line in manifest_lines), encoding="utf-8")
    config_path = tmp_path / "endpoint.json"
    config_path.write_bytes(config.replace(_BASE_URL.encode(), endpoint.base_url.encode()))
    run_path = tmp_path / "run.jsonl"
    run_path.unlink(missing_ok=True)
    capsys.readouterr()
    argv = ["bench", "run", "--manifest", str(manifest), "--out", str(run_path), "--config", str(config_path)]
    seen = len(endpoint.request_paths)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), code
    if code == 1:
        assert err.startswith(f"error: {config_path}: ") and err.count("\n") == 1, err[:200]
        assert len(err.encode("utf-8")) < 1024, err[:200]
        assert not run_path.exists()
    else:
        errors = [record.error for record in load_run_records(run_path) if record.error]
        assert not [e for e in errors if e.startswith(("OverflowError", "UnicodeEncodeError"))], errors
        loaded = EndpointConfig.from_json(json.loads(config_path.read_bytes()))
        if loaded.base_url.startswith(endpoint.base_url):
            target = loaded.base_url[len(endpoint.base_url):].rstrip("/") + loaded.path
            assert set(endpoint.request_paths[seen:]) <= {target}, (target, endpoint.request_paths[seen:])


_BODIES = [
    json.dumps({"choices": [{"message": {"role": "assistant", "content": "<answer>7</answer>"}}]}),
    json.dumps({"choices": [{"message": {"content": [{"type": "text", "text": "<answer>7</answer>"}]}}]}),
    json.dumps({"choices": [{"text": "<answer>7</answer>", "finish_reason": "stop"}], "usage": {"total": 9}}),
]


@_SETTINGS
@given(data=st.data())
def test_a_mutated_response_body_gives_text_or_a_short_value_error(data):
    body = data.draw(_mutated(data.draw(st.sampled_from(_BODIES))))
    try:
        assert type(response_text(parse_json(body))) is str
    except ValueError as exc:
        assert len(str(exc).encode("utf-8")) < 1024, str(exc)[:200]
