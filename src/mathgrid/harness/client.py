"""Batch driver for chat-completion endpoints, with resume and retries.

One request per (example, modality, style); at most ``max_concurrency``
requests are in flight. Results append to a JSONL run file keyed by a
request fingerprint, so an interrupted run can be resumed without
re-issuing requests that already succeeded.
"""

from __future__ import annotations

import base64
import hashlib
import http.cookiejar
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import requests

from ..core import MathGridError
from ..evaluation import EvalReport, Prediction, build_report, evaluate_prediction
from ..manifest import load_manifest
from .prompts import (
    ImagePart,
    Modality,
    TEMPLATE_VERSION,
    TextPart,
    build_prompt,
)


class ConfigError(MathGridError):
    """Endpoint configuration is unusable."""


class ManifestMismatch(MathGridError):
    """Run records reference examples not present in the manifest."""


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


@dataclass(frozen=True)
class EndpointConfig:
    """Where and how to send chat-completion requests.

    The auth token is read from the environment variable named by
    ``auth_token_env`` at request time and never stored. ``sampling`` is
    passed through into the request body untouched (temperature, top_p,
    max_tokens, ...), but may not set the model field or the messages;
    endpoint-dialect differences are covered by ``path`` and ``model_field``.
    """

    base_url: str
    model_name: str
    auth_token_env: str | None = None
    max_concurrency: int = 4
    timeout_s: float = 120.0
    max_retries: int = 3
    path: str = "/v1/chat/completions"
    model_field: str = "model"
    sampling: dict = field(default_factory=dict)
    backoff_s: float = 0.5

    def __post_init__(self) -> None:
        for name in ("base_url", "model_name", "path", "model_field"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ConfigError(f"{name} must be a non-empty string, not {value!r}")
        if self.auth_token_env is not None and not isinstance(self.auth_token_env, str):
            raise ConfigError(
                f"auth_token_env must be a string or null, not {self.auth_token_env!r}"
            )
        for name, least in (("max_concurrency", 1), ("max_retries", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, not {value!r}")
        if not _is_number(self.timeout_s) or not self.timeout_s > 0:
            raise ConfigError(f"timeout_s must be a number > 0, not {self.timeout_s!r}")
        if not _is_number(self.backoff_s) or not self.backoff_s >= 0:
            raise ConfigError(f"backoff_s must be a number >= 0, not {self.backoff_s!r}")
        if not isinstance(self.sampling, dict):
            raise ConfigError(f"sampling must be an object, not {self.sampling!r}")
        for key in (self.model_field, "messages"):
            if key in self.sampling:
                raise ConfigError(f"sampling may not set {key!r}: the request builds it")

    @property
    def url(self) -> str:
        return self.base_url.rstrip("/") + self.path

    def headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.auth_token_env:
            token = os.environ.get(self.auth_token_env, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    @staticmethod
    def from_json(data: dict) -> EndpointConfig:
        known = {f for f in EndpointConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown endpoint config keys: {sorted(unknown)}")
        missing = {"base_url", "model_name"} - set(data)
        if missing:
            raise ConfigError(f"endpoint config needs {sorted(missing)}")
        return EndpointConfig(**data)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one request."""

    example_id: str
    modality: str
    style_id: str | None
    fingerprint: str
    response_text: str
    latency_ms: int
    status: str  # "ok" or "error"
    error: str | None = None

    def to_json(self) -> dict:
        data = {
            "example_id": self.example_id,
            "modality": self.modality,
            "style_id": self.style_id,
            "fingerprint": self.fingerprint,
            "response_text": self.response_text,
            "latency_ms": self.latency_ms,
            "status": self.status,
        }
        if self.error is not None:
            data["error"] = self.error
        return data

    @staticmethod
    def from_json(data: dict) -> RunRecord:
        return RunRecord(
            example_id=data["example_id"],
            modality=data["modality"],
            style_id=data.get("style_id"),
            fingerprint=data["fingerprint"],
            response_text=data.get("response_text", ""),
            latency_ms=int(data.get("latency_ms", 0)),
            status=data["status"],
            error=data.get("error"),
        )


def request_fingerprint(
    example_id: str, modality: Modality, style_id: str | None, model_name: str
) -> str:
    """Stable key for resume: same example/modality/style/model/template."""
    payload = "\x1f".join(
        [example_id, modality.value, style_id or "", model_name, TEMPLATE_VERSION]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def bundle_to_messages(parts: tuple[TextPart | ImagePart, ...]) -> list[dict]:
    """Chat-completions message list with text and base64 image parts."""
    content: list[dict] = []
    for part in parts:
        if isinstance(part, TextPart):
            content.append({"type": "text", "text": part.text})
        elif isinstance(part, ImagePart):
            b64 = base64.b64encode(part.data).decode("ascii")
            content.append(
                {
                    "type": "image_url",
                    "image_url": {"url": f"data:{part.media_type};base64,{b64}"},
                }
            )
    return [{"role": "user", "content": content}]


def build_chat_payload(
    parts: tuple[TextPart | ImagePart, ...], config: EndpointConfig
) -> dict:
    payload = {
        config.model_field: config.model_name,
        "messages": bundle_to_messages(parts),
    }
    payload.update(config.sampling)
    return payload


def response_text(data: dict) -> str:
    """Pull the assistant text out of a chat-completion response body."""
    choices = data.get("choices") or []
    if not choices:
        raise ValueError("response has no choices")
    first = choices[0]
    message = first.get("message") or {}
    content = message.get("content", first.get("text"))
    if isinstance(content, list):  # some dialects return part lists
        content = "".join(
            p.get("text", "") for p in content if isinstance(p, dict)
        )
    if not isinstance(content, str):
        raise ValueError("response carries no text content")
    return content


def _open_session(config: EndpointConfig) -> requests.Session:
    """The session that every request of one run goes through.

    It reads from the environment once, for ``config.url``, what a session
    per request would read on every call: the proxies (``NO_PROXY``
    honoured), netrc auth and the CA bundle. It keeps no cookies, so no
    request carries state from an earlier one.
    """
    session = requests.Session()
    session.trust_env = False
    session.proxies = requests.utils.get_environ_proxies(config.url)
    session.auth = requests.utils.get_netrc_auth(config.url)
    session.verify = (
        os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or True
    )
    session.cookies.set_policy(http.cookiejar.DefaultCookiePolicy(allowed_domains=()))
    # One connection per request. A stdlib HTTP server such as
    # perfbench/endpoint.py writes headers and body separately, so on a
    # kept-alive connection each response waits for a delayed ACK: 22 ms per
    # request there, against 1.4 ms with a new connection each time.
    session.headers["Connection"] = "close"
    session.hooks["response"].append(_retire_connection)
    return session


def _retire_connection(response: requests.Response, **_) -> None:
    """Keep a connection that asked for ``Connection: close`` out of reuse.

    A stdlib HTTP/1.1 server closes such a connection without saying so in
    its response, so the pool would hand it to the next request, which then
    fails if the server's close has not arrived yet. Like ``http.client``
    when a server does say so, this leaves the socket to the response, which
    closes it once read, and the pool opens a new connection.
    """
    connection = response.raw.connection
    if connection is not None and connection.sock is not None:
        sock, connection.sock = connection.sock, None
        sock.close()


def _send_once(session: requests.Session, config: EndpointConfig, payload: dict) -> str:
    resp = session.post(
        config.url, json=payload, headers=config.headers(), timeout=config.timeout_s
    )
    if resp.status_code in (408, 429) or resp.status_code >= 500:
        raise requests.RequestException(f"HTTP {resp.status_code}: {resp.text[:200]}")
    resp.raise_for_status()
    return response_text(resp.json())


def _send_with_retries(
    session: requests.Session, config: EndpointConfig, payload: dict
) -> str:
    attempt = 0
    while True:
        try:
            return _send_once(session, config, payload)
        except requests.HTTPError:  # a 4xx other than 408/429 fails the same way again
            raise
        except (requests.RequestException, ValueError):
            if attempt >= config.max_retries:
                raise
            time.sleep(config.backoff_s * (2**attempt))
            attempt += 1


def run_benchmark(
    manifest_path: Path | str,
    endpoint: EndpointConfig,
    modality: Modality,
    style_id: str | None,
    out_path: Path | str,
) -> Path:
    """Query the endpoint for every example and append records to out_path.

    A single writer appends records as workers finish; per-example failures
    become error records and never abort the run. Examples whose latest
    record for this fingerprint is OK are skipped entirely; that record is
    the one ``score_run`` scores. A record torn mid-write at the end of the
    file is cut off before new ones are appended. Image paths resolve
    against the manifest's directory. Text prompts use no style, so their
    records carry none.
    """
    manifest_path = Path(manifest_path)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if modality is Modality.TEXT_ONLY:
        style_id = None
    examples = load_manifest(manifest_path)
    done = set()
    if out_path.exists():
        done = {r.fingerprint for r in load_run_records(out_path) if r.status == "ok"}
        _end_on_a_whole_line(out_path)

    todo = []
    for example in examples:
        fingerprint = request_fingerprint(
            example.id, modality, style_id, endpoint.model_name
        )
        if fingerprint not in done:
            todo.append((example, fingerprint))

    def one(session, example, fingerprint) -> RunRecord:
        started = time.monotonic()
        try:
            parts = build_prompt(example, modality, style_id, manifest_path.parent)
            text = _send_with_retries(session, endpoint, build_chat_payload(parts, endpoint))
            status, error = "ok", None
        except Exception as exc:  # noqa: BLE001 - isolate per-record failures
            text, status, error = "", "error", f"{type(exc).__name__}: {exc}"
        latency_ms = int((time.monotonic() - started) * 1000)
        return RunRecord(
            example_id=example.id,
            modality=modality.value,
            style_id=style_id,
            fingerprint=fingerprint,
            response_text=text,
            latency_ms=latency_ms,
            status=status,
            error=error,
        )

    if todo:
        with _open_session(endpoint) as session, out_path.open("a", encoding="utf-8") as sink:
            with ThreadPoolExecutor(max_workers=endpoint.max_concurrency) as pool:
                futures = [pool.submit(one, session, ex, fp) for ex, fp in todo]
                for future in as_completed(futures):
                    record = future.result()
                    sink.write(json.dumps(record.to_json(), ensure_ascii=False) + "\n")
                    sink.flush()
    return out_path


def _end_on_a_whole_line(run_path: Path) -> None:
    """Let appended records start on a line of their own: cut off a last
    line that was torn mid-write, or end a whole one that lacks its newline."""
    data = run_path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        with run_path.open("r+b") as fh:
            fh.truncate(start)
    else:
        with run_path.open("ab") as fh:
            fh.write(b"\n")


def load_run_records(run_path: Path | str) -> list[RunRecord]:
    """Run records with resume duplicates collapsed to the latest attempt.

    A last line with no newline that does not parse is a record torn
    mid-write: it is dropped with a warning on stderr. Any other line that
    is not a run record fails, naming the file and line.
    """
    lines = Path(run_path).read_bytes().split(b"\n")
    latest: dict[str, RunRecord] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:
            if number < len(lines):
                raise ValueError(f"{run_path} line {number}: {exc}") from exc
            print(
                f"warning: {run_path} line {number}: dropped a record torn mid-write",
                file=sys.stderr,
            )
            break
        try:
            record = RunRecord.from_json(data)
        except KeyError as exc:
            raise ValueError(f"{run_path} line {number}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{run_path} line {number}: {exc}") from exc
        latest[record.fingerprint] = record
    return list(latest.values())


def score_run(run_path: Path | str, manifest_path: Path | str) -> EvalReport:
    """Score every run record against the manifest's gold answers.

    Error records score as all-wrong; manifest examples without a record are
    not counted (finish the run first). A file holds one run configuration:
    two fingerprints for the same example mean mixed runs and are rejected.
    """
    examples = {ex.id: ex for ex in load_manifest(manifest_path)}
    records = load_run_records(run_path)
    seen_ids = [r.example_id for r in records]
    if len(seen_ids) != len(set(seen_ids)):
        raise ManifestMismatch(
            "run file contains records from more than one configuration; "
            "score each run file separately"
        )
    results = []
    for record in sorted(records, key=lambda r: r.example_id):
        gold = examples.get(record.example_id)
        if gold is None:
            raise ManifestMismatch(
                f"run references {record.example_id!r}, absent from manifest"
            )
        text = record.response_text if record.status == "ok" else ""
        pred = Prediction.from_text(record.example_id, text)
        results.append(evaluate_prediction(pred, gold))
    return build_report(results)
