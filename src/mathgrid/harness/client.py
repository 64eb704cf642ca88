"""Batch driver for chat-completion endpoints, with resume and retries.

One request per (example, modality, style); at most ``max_concurrency``
requests are in flight. Results append to a JSONL run file keyed by a
request fingerprint, so an interrupted run can be resumed without
re-issuing requests that already succeeded.
"""

from __future__ import annotations

import base64
import hashlib
import ipaddress
import json
import math
import netrc
import os
import socket
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from threading import TIMEOUT_MAX, Condition, Lock, Thread
from typing import TYPE_CHECKING
from urllib.parse import unquote, urlsplit

from ..core import MathGridError, check_type, located, shown
from ..evaluation import EvalReport, Prediction, build_report, evaluate_prediction
from ..manifest import load_manifest, parse_json
from .prompts import (
    ImagePart,
    Modality,
    TEMPLATE_VERSION,
    TextPart,
    build_prompt,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    import ssl


class ConfigError(MathGridError):
    """Endpoint configuration is unusable."""


class ManifestMismatch(MathGridError):
    """Run records reference examples not present in the manifest."""


def _visible(text: str, banned: str) -> bool:
    """Whether ``text`` is visible ASCII (``!`` to ``~``) holding none of ``banned``."""
    return all("!" <= ch <= "~" and ch not in banned for ch in text)


def _http_url(text: str, schemes: tuple[str, ...]):
    """``urlsplit(text)`` when it has one of ``schemes``, a host and a valid port if any, else None.
    A bracketed host must be an IPv6 address, which urlsplit checks itself only from Python 3.11.4."""
    try:
        url = urlsplit(text)
        url.port
        if "[" in url.netloc:
            ipaddress.IPv6Address(url.hostname)
    except ValueError:  # unbalanced brackets, a bad port, or a bracketed host that is no IPv6 address
        return None
    return url if url.scheme in schemes and url.hostname else None


def _without_userinfo(url: str) -> str:
    """``url`` for an error line: what lies between its ``://`` and its last ``@`` cut
    out, so that no credentials show, even ones holding a ``/``, ``?`` or ``#``."""
    scheme, sep, rest = url.partition("://")
    return scheme + sep + rest.rpartition("@")[2] if sep else url.rpartition("@")[2]


@dataclass(frozen=True)
class EndpointConfig:
    """Where and how to send chat-completion requests.

    The auth token is read once per run from the environment variable
    named by ``auth_token_env``, and never written to a record. ``sampling``
    is passed through into the request body untouched (temperature, top_p,
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
                raise ConfigError(f"{name} must be a non-empty string, not {shown(value)}")
        if not (_http_url(self.base_url, ("http", "https")) and _visible(self.base_url, "?#")):
            raise ConfigError(
                "base_url must be an http:// or https:// URL with a host, in visible ASCII "
                f"with no '?' or '#', not {shown(_without_userinfo(self.base_url))}"
            )
        if not (self.path.startswith("/") and _visible(self.path, "#")):
            raise ConfigError(
                f"path must start with '/' and be visible ASCII, with no '#', not {shown(self.path)}"
            )
        if self.model_field == "messages":  # the body would carry the messages alone
            raise ConfigError("model_field may not be 'messages': the request builds that key itself")
        if self.auth_token_env is not None and not isinstance(self.auth_token_env, str):
            raise ConfigError(
                f"auth_token_env must be a string or null, not {shown(self.auth_token_env)}"
            )
        for name, least in (("max_concurrency", 1), ("max_retries", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, not {shown(value)}")
        if self.max_concurrency > MAX_CONCURRENCY:  # each request in flight holds a thread
            raise ConfigError(f"max_concurrency must be at most {MAX_CONCURRENCY}, not {self.max_concurrency}")
        if type(self.timeout_s) not in (int, float) or not self.timeout_s > 0:
            raise ConfigError(f"timeout_s must be a number > 0, not {shown(self.timeout_s)}")
        if type(self.backoff_s) not in (int, float) or not self.backoff_s >= 0:
            raise ConfigError(f"backoff_s must be a number >= 0, not {shown(self.backoff_s)}")
        for name, value in (("timeout_s", self.timeout_s), ("backoff_s", self.backoff_s)):
            if value > TIMEOUT_MAX:  # the longest socket timeout or sleep
                raise ConfigError(f"{name} must be at most {TIMEOUT_MAX:.0f}, not {shown(value)}")
        if not isinstance(self.sampling, dict):
            raise ConfigError(f"sampling must be an object, not {shown(self.sampling)}")
        for key in (self.model_field, "messages"):
            if key in self.sampling:
                raise ConfigError(f"sampling may not set {shown(key)}: the request builds it")
        for key, value in self.sampling.items():
            try:
                json.dumps(value, allow_nan=False)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"sampling {shown(key)} must be JSON without NaN or Infinity, not {shown(value)}"
                ) from None

    @staticmethod
    def from_json(data: dict) -> EndpointConfig:
        unknown = set(data) - set(EndpointConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown endpoint config keys: {shown(sorted(unknown))}")
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
        data = dict(vars(self))  # the fields in their order
        if self.error is None:
            del data["error"]
        return data

    def to_line(self) -> str:
        """The record as a run-file line, its text as it stands, or in ``\\u`` escapes
        when it holds a lone surrogate, which UTF-8 cannot encode."""
        data = self.to_json()
        line = json.dumps(data, ensure_ascii=False)
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            line = json.dumps(data)
        return line + "\n"

    @staticmethod
    def from_json(data: object) -> RunRecord:
        """The record a run-file line holds; ValueError names a mistyped field."""
        check_type(data, dict, "run record")
        latency_ms = check_type(data.get("latency_ms", 0), float, "latency_ms")
        if type(latency_ms) is float and not math.isfinite(latency_ms):
            raise ValueError(f"latency_ms must be a finite number, not {latency_ms!r}")
        style_id, error = data.get("style_id"), data.get("error")
        status = data["status"]
        if status not in ("ok", "error"):
            raise ValueError(f"status must be 'ok' or 'error', not {shown(status)}")
        return RunRecord(
            example_id=check_type(data["example_id"], str, "example_id"),
            modality=check_type(data["modality"], str, "modality"),
            style_id=style_id if style_id is None else check_type(style_id, str, "style_id"),
            fingerprint=check_type(data["fingerprint"], str, "fingerprint"),
            response_text=check_type(data.get("response_text", ""), str, "response_text"),
            latency_ms=int(latency_ms),
            status=status,
            error=error if error is None else check_type(error, str, "error"),
        )


def request_fingerprint(
    example_id: str, modality: Modality, style_id: str | None, model_name: str
) -> str:
    """Stable key for resume: same example/modality/style/model/template."""
    payload = "\x1f".join(
        [example_id, modality.value, style_id or "", model_name, TEMPLATE_VERSION]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_chat_payload(parts: tuple[TextPart | ImagePart, ...], config: EndpointConfig) -> bytes:
    """The request body: ``json.dumps`` of the model field, one user message
    holding the text and base64 image parts, then ``sampling``, byte for byte.
    It is built without the dict: every string goes through ``json.dumps`` but
    each image's base64 text, which holds no character JSON escapes."""
    dumps = json.dumps
    content = []
    for part in parts:
        if isinstance(part, TextPart):
            content.append(b'{"type": "text", "text": %s}' % dumps(part.text).encode())
        else:
            url = dumps(f"data:{part.media_type};base64,")[:-1].encode()  # without its closing quote
            content.append(b'{"type": "image_url", "image_url": {"url": %s%s"}}' % (url, base64.b64encode(part.data)))
    sampling = dumps(config.sampling, allow_nan=False)[1:-1]
    return b'{%s: %s, "messages": [{"role": "user", "content": [%s]}]%s}' % (
        dumps(config.model_field).encode(),
        dumps(config.model_name).encode(),
        b", ".join(content),
        b", " + sampling.encode() if sampling else b"",
    )


def response_text(data: object) -> str:
    """Pull the assistant text out of a decoded chat-completion response body;
    a ValueError names the part that is missing or of the wrong type."""
    body = check_type(data, dict, "response body")
    choices = check_type(body.get("choices") or [], list, "response choices")
    if not choices:
        raise ValueError("response has no choices")
    first = check_type(choices[0], dict, "response first choice")
    message = check_type(first.get("message") or {}, dict, "response message")
    content = message.get("content", first.get("text"))
    if isinstance(content, list):  # some dialects return part lists
        content = "".join(
            check_type(p.get("text", ""), str, f"response content part {i} text")
            for i, p in enumerate(content)
            if isinstance(p, dict)
        )
    if not isinstance(content, str):
        raise ValueError("response carries no text content")
    return content


class StatusError(Exception):
    """The endpoint answered with a status other than 2xx."""

    def __init__(self, status: int, reason: str, body: bytes):
        super().__init__(f"HTTP {status} {shown(reason)}: {body[:200].decode('utf-8', 'replace')}")
        # a redirect, or a 4xx other than 408/429, fails the same way again
        self.transient = status in (408, 429) or status >= 500


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")


def _env(name: str) -> str | None:
    """A proxy variable, the lower-case form before the upper-case one."""
    return os.environ.get(name) or os.environ.get(name.upper())


def _bypasses_proxy(host: str, port: int, no_proxy: str) -> bool:
    """Whether a ``NO_PROXY`` list names ``host`` on ``port``.

    An entry is ``*``, a host name with or without a leading dot (covering
    its subdomains too), an IP address, or for an IP host a CIDR range; a
    name or address may end in ``:port``.
    """
    try:
        address = ipaddress.ip_address(host)
    except ValueError:
        address = None
    for entry in no_proxy.replace(" ", "").lower().split(","):
        name, entry_port = entry.split(":") if entry.count(":") == 1 else (entry, "")
        name = name.lstrip(".")
        if not name or entry_port not in ("", str(port)):
            continue
        if name in ("*", host):
            return True
        if address is None:
            if host.endswith("." + name):
                return True
        elif "/" in name:
            try:
                if address in ipaddress.ip_network(name, strict=False):
                    return True
            except ValueError:
                pass
    return False


def _netrc_credentials(host: str) -> tuple[str, str] | None:
    """Login and password for ``host`` from ``$NETRC``, else ``~/.netrc`` or ``~/_netrc``.

    A file that does not parse gives none, with a warning: Python 3.10's
    parser refuses some files that later versions read, such as a quoted
    password holding a space.
    """
    paths = [os.environ["NETRC"]] if "NETRC" in os.environ else ["~/.netrc", "~/_netrc"]
    for path in map(os.path.expanduser, paths):
        if os.path.exists(path):
            break
    else:
        return None
    try:
        entry = netrc.netrc(path).authenticators(host)
    except netrc.NetrcParseError as exc:
        print(f"warning: {path}: {exc.msg}; no netrc credentials are sent", file=sys.stderr)
        return None
    except OSError:
        return None
    if entry is None:
        return None
    login, account, password = entry
    return login or account, password


def _ssl_context() -> ssl.SSLContext:
    """Verify against ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE`` when one is
    set (a file or a hashed directory), else against the system trust store.
    A bundle that does not load is a ``ConfigError`` naming the variable."""
    import ssl  # here, so that plain-http runs and ``bench score`` load no TLS

    name = "REQUESTS_CA_BUNDLE" if os.environ.get("REQUESTS_CA_BUNDLE") else "CURL_CA_BUNDLE"
    bundle = os.environ.get(name)
    try:
        if bundle and os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle or None)
    except OSError:  # ssl.SSLError included: a missing or unreadable file, or one with no PEM certificate
        raise ConfigError(f"{name} must name a PEM file or a hashed directory, not {shown(bundle)}") from None


def _head(start: str, fields: dict[str, str]) -> bytes:
    """A request's head: its first line, then one line per header field."""
    lines = [start, *(f"{name}: {value}" for name, value in fields.items()), "", ""]
    return "\r\n".join(lines).encode("latin-1")


@dataclass(frozen=True)
class _Route:
    """How every request of one run reaches the endpoint."""

    address: tuple[str, int]  # what the socket connects to: the endpoint or its proxy
    head: tuple[bytes, bytes]  # the POST head, before and after its Content-Length value
    hostname: str  # the endpoint's host, which its certificate must name
    tunnel: bytes | None = None  # the CONNECT request to a proxy for an https endpoint
    context: ssl.SSLContext | None = None  # set for an https endpoint
    keep_alive: bool = False  # whether a connection may carry more than one request


def _resolve_route(config: EndpointConfig) -> _Route:
    """Read once what the environment says about reaching ``config``'s
    endpoint: the Bearer token, the proxy (``NO_PROXY`` honoured) and its
    credentials, netrc auth, and the CA bundle for an https endpoint."""
    url = urlsplit(config.base_url)
    host, secure = url.hostname, url.scheme == "https"
    port = url.port or (443 if secure else 80)
    target = url.path.rstrip("/") + config.path
    authority = f"[{host}]" if ":" in host else host
    # the fields in http.client's order; netrc Basic auth replaces a Bearer token
    fields = {"Host": authority if port == (443 if secure else 80) else f"{authority}:{port}",
              "Accept-Encoding": "identity", "Content-Length": "", "Content-Type": "application/json"}
    token = os.environ.get(config.auth_token_env, "") if config.auth_token_env else ""
    if token:
        if "\r" in token or "\n" in token or max(token) > "\xff":
            raise ConfigError(f"the token in {shown(config.auth_token_env)} must be Latin-1 on one line")
        fields["Authorization"] = f"Bearer {token}"
    # Each worker keeps its connection for the run. A server that writes a reply's
    # head and body apart, as http.server and perfbench/endpoint.py do, would
    # send the body only after the client's delayed ACK, 22 ms per request there;
    # TCP_QUICKACK before each receive takes that away. Where it does not exist,
    # each request gets a connection of its own, which the server is asked to close.
    keep_alive = hasattr(socket, "TCP_QUICKACK")
    fields["User-Agent"] = "mathgrid"
    if not keep_alive:
        fields["Connection"] = "close"
    credentials = _netrc_credentials(host)
    if credentials is None and url.username:
        credentials = unquote(url.username), unquote(url.password or "")
    if credentials is not None:
        fields["Authorization"] = _basic_auth(*credentials)
    context = _ssl_context() if secure else None
    no_proxy = _env("no_proxy")
    proxy = None
    if not (no_proxy and _bypasses_proxy(host, port, no_proxy)):
        proxy = _env(f"{url.scheme}_proxy") or _env("all_proxy")
    address, tunnel = (host, port), None
    if proxy:
        proxy = proxy if "://" in proxy else f"http://{proxy}"
        via = _http_url(proxy, ("http",))
        if via is None:
            raise ConfigError(
                f"the proxy for {url.scheme} must be an http:// URL with a host and a valid port, "
                f"not {shown(_without_userinfo(proxy))}"
            )
        address = (via.hostname, via.port or 80)
        proxy_auth = {}
        if via.username:
            proxy_auth["Proxy-Authorization"] = _basic_auth(unquote(via.username), unquote(via.password or ""))
        if secure:
            connect = f"{authority}:{port}"
            tunnel = _head(f"CONNECT {connect} HTTP/1.1", {"Host": connect, **proxy_auth})
        else:
            target = f"http://{url.netloc.rpartition('@')[2]}{target}"
            fields.update(proxy_auth)
    # neither the target nor the host holds a space, so this splits at the Content-Length field
    before, name, after = _head(f"POST {target} HTTP/1.1", fields).partition(b"Content-Length: ")
    return _Route(address, (before + name, after), host, tunnel, context, keep_alive)


#: The most bytes of one response: the ``sampling`` pass-through can ask for bodies
#: of a few MiB, such as logprobs for every token; past this, a sender is cut off.
MAX_RESPONSE_BYTES = 64 << 20
MAX_CONCURRENCY = 256  # the most requests a run keeps in flight


class _Attempt:
    """One request and its response over one socket. Each step waits at most
    what is left of ``timeout_s`` from the start."""

    def __init__(self, timeout_s: float, keep_alive: bool):
        self.timeout_s = timeout_s
        self.deadline = time.monotonic() + timeout_s
        self.sock: socket.socket | None = None
        self.buffer = bytearray()  # the response so far
        self.read = 0  # how much of it is parsed
        self.keep_alive = keep_alive  # ACK each receive at once, and let a reply keep the connection
        self.reusable = False  # whether the reply leaves the connection open for another request
        self.sent: Callable[[], None] | None = None  # called once the next send has handed over its bytes

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"no whole response within {shown(self.timeout_s)} s")
        return left

    def fill(self, needed: bool = True) -> bool:
        """Receive more of the response; at its end, False, or a ConnectionError if ``needed``."""
        self.sock.settimeout(self.left())
        if self.keep_alive:  # the kernel drops out of quick-ACK mode by itself, so set it each time
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        data = self.sock.recv(65536)
        if needed and not data:
            raise ConnectionError("the endpoint closed the connection mid-response")
        self.buffer += data
        if len(self.buffer) > MAX_RESPONSE_BYTES:
            raise ValueError(f"response longer than {MAX_RESPONSE_BYTES} bytes")
        return bool(data)

    def take(self, size: int) -> bytes:
        if size < 0:
            raise ValueError(f"negative length {shown(size)}")
        while len(self.buffer) < self.read + size:
            self.fill()
        self.read += size
        return bytes(self.buffer[self.read - size : self.read])

    def line(self) -> bytes:
        while (end := self.buffer.find(b"\n", self.read)) < 0:
            if len(self.buffer) - self.read > 65536:  # as http.client allows
                raise ValueError("response line longer than 65536 bytes")
            self.fill()
        return self.take(end + 1 - self.read).rstrip(b"\r\n")

    def send(self, data: bytes) -> tuple[int, str, dict[bytes, bytes]]:
        """Send ``data``; the status, reason and header fields of the reply past any 1xx."""
        self.sock.settimeout(self.left())
        self.sock.sendall(data)
        sent, self.sent = self.sent, None
        if sent is not None:
            sent()
        while True:
            line = self.line()
            version, _, rest = line.partition(b" ")
            code, _, reason = rest.partition(b" ")
            if not (version.startswith(b"HTTP/") and len(code) == 3 and code.isdigit()):
                raise ValueError(f"malformed status line {shown(line)}")
            pairs = (field.partition(b":") for field in iter(self.line, b""))
            fields = {name.strip().lower(): value.strip() for name, _, value in pairs}
            if not 100 <= int(code) < 200:
                close = b"close" in fields.get(b"connection", b"").lower()
                self.reusable = self.keep_alive and version == b"HTTP/1.1" and not close
                return int(code), reason.strip().decode("latin-1"), fields

    def body(self, fields: dict[bytes, bytes]) -> bytes:
        """The body: chunked, else as long as Content-Length says, else up to the close."""
        if b"chunked" in fields.get(b"transfer-encoding", b"").lower():
            chunks = []
            while size := _size(self.line().partition(b";")[0], 16, "chunk size"):
                chunks.append(self.take(size))
                self.line()
            while self.line():  # the trailer, up to its blank line
                pass
            return b"".join(chunks)
        if b"content-length" in fields:
            return self.take(_size(fields[b"content-length"], 10, "Content-Length"))
        self.reusable = False
        while self.fill(needed=False):
            pass
        return self.take(len(self.buffer) - self.read)


def _size(text: bytes, base: int, what: str) -> int:
    try:
        return int(text, base)
    except ValueError:  # whose message quotes 200 bytes of the text
        raise ValueError(f"malformed {what} {shown(text)}") from None


def _connect(route: _Route, attempt: _Attempt) -> socket.socket:
    """A new connection to the endpoint, through the proxy's tunnel and with TLS as the route says."""
    sock = attempt.sock = socket.create_connection(route.address, timeout=attempt.left())
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if route.tunnel is not None:
            status, reason, _ = attempt.send(route.tunnel)
            if not 200 <= status < 300:
                raise OSError(f"tunnel connection failed: {status} {shown(reason)}")
        if route.context is not None:
            sock.settimeout(attempt.left())
            sock = attempt.sock = route.context.wrap_socket(sock, server_hostname=route.hostname)
    except BaseException:
        sock.close()
        raise
    return sock


def _send_once(
    route: _Route, request: bytes, timeout_s: float, idle: list[socket.socket], sent: Callable[[], None]
) -> str:
    """One attempt, over a connection from ``idle`` if there is one, else a new one,
    which goes back to ``idle`` if the reply leaves it open. A kept connection that
    fails before any byte of the reply, as one the server dropped while it idled
    does, is replaced by a new one once, within the same deadline. ``sent()`` is
    called each time the request has gone out whole, before its reply is read."""
    attempt = _Attempt(timeout_s, route.keep_alive)
    try:
        kept = idle.pop()
    except IndexError:
        kept = None
    while True:
        sock = kept if kept is not None else _connect(route, attempt)
        attempt.sock, attempt.sent = sock, sent
        try:
            status, reason, fields = attempt.send(request)
            data = attempt.body(fields)
            break
        except BaseException as exc:
            sock.close()
            if kept is None or attempt.buffer or not isinstance(exc, OSError):
                raise
            kept = None
    if attempt.reusable and attempt.read == len(attempt.buffer):
        idle.append(sock)
    else:
        sock.close()
    if not 200 <= status < 300:
        raise StatusError(status, reason, data)
    return response_text(parse_json(data))


def _send_with_retries(
    route: _Route, config: EndpointConfig, body: bytes, idle: list[socket.socket], sent: Callable[[], None]
) -> str:
    request = b"%s%d%s%s" % (route.head[0], len(body), route.head[1], body)
    attempt, delay = 0, config.backoff_s
    while True:
        try:
            return _send_once(route, request, config.timeout_s, idle, sent)
        except StatusError as exc:
            if not exc.transient or attempt >= config.max_retries:
                raise
        except (OSError, ValueError):
            if attempt >= config.max_retries:
                raise
        time.sleep(delay)
        attempt, delay = attempt + 1, min(2 * delay, TIMEOUT_MAX)


def run_benchmark(
    manifest_path: Path | str,
    endpoint: EndpointConfig,
    modality: Modality,
    style_id: str | None,
    out_path: Path | str,
) -> Path:
    """Query the endpoint for every example and append records to out_path.

    Each of ``max_concurrency`` workers (no more than there are examples to
    send) sends one example at a time. Once its request has gone out, and
    while the reply is awaited, the worker takes the next example and builds
    its prompt and body; when the reply comes it writes the record and sends
    the body it built. A failed request, or a body that cannot be built,
    becomes that example's error record and never aborts the run. An error in
    writing a record, or a Ctrl-C, stops every worker from sending another
    example: the requests in flight finish and their records are written,
    then the error is raised. An example taken and built but not yet sent
    then gets no record, so a resume sends it. Examples whose latest record for this
    fingerprint is OK are skipped entirely; that record is the one
    ``score_run`` scores. A record torn mid-write at the end of the
    file is cut off before new ones are appended. Image paths resolve
    against the manifest's directory. Text prompts use no style, so their
    records carry none. The token, proxy, netrc and CA-bundle environment is
    read once, before any request; a change to it during the run has no effect.
    """
    route = _resolve_route(endpoint)
    manifest_path = Path(manifest_path)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if modality is Modality.TEXT_ONLY:
        style_id = None
    examples = load_manifest(manifest_path)
    done = set()
    if out_path.exists():
        latest, end = _read_run(out_path)
        done = {fingerprint for fingerprint, (_, r) in latest.items() if r.status == "ok"}
        if end < (size := out_path.stat().st_size):  # a last line torn mid-write, or only whitespace
            os.truncate(out_path, end)
        elif end > size:  # a whole last record that lacks its newline
            with out_path.open("ab") as fh:
                fh.write(b"\n")

    todo = []
    for example in examples:
        fingerprint = request_fingerprint(
            example.id, modality, style_id, endpoint.model_name
        )
        if fingerprint not in done:
            todo.append((example, fingerprint))

    def prepare(example, fingerprint) -> tuple:
        """The example and fingerprint with the request body, or in its place the error that building it gave."""
        try:
            parts = build_prompt(example, modality, style_id, manifest_path.parent)
            return example, fingerprint, build_chat_payload(parts, endpoint)
        except Exception as exc:  # noqa: BLE001 - the example's own error record
            return example, fingerprint, exc

    def one(example, fingerprint, body: bytes | Exception, sent: Callable[[], None]) -> RunRecord:
        """The record of sending ``body``, calling ``sent()`` once the request has gone
        out; a body that could not be built is an error record with latency 0."""
        text, latency_ms, failure = "", 0, body
        if not isinstance(body, Exception):
            started = time.monotonic()
            try:
                text, failure = _send_with_retries(route, endpoint, body, idle, sent), None
            except Exception as exc:  # noqa: BLE001 - isolate per-record failures
                failure = exc
            latency_ms = int((time.monotonic() - started) * 1000)
        return RunRecord(
            example_id=example.id, modality=modality.value, style_id=style_id, fingerprint=fingerprint,
            response_text=text, latency_ms=latency_ms, status="ok" if failure is None else "error",
            error=None if failure is None else f"{type(failure).__name__}: {failure}",
        )

    if not todo:
        return out_path
    lock = Condition(Lock())  # held to take an example, to write a record and to count the workers
    pending = iter(todo)
    # each worker starts with an example of its own, so that none takes a second
    # one as its next before another worker has started
    firsts = [next(pending) for _ in range(min(endpoint.max_concurrency, len(todo)))]
    failed: list[BaseException] = []  # what stops the run: an error in a worker or in the main thread
    idle: list[socket.socket] = []  # open connections no request holds: at most one per worker
    running = 0  # workers started and not yet ended

    def take() -> tuple | None:
        """The next example prepared, or None once none is left or the run has failed."""
        with lock:
            item = None if failed else next(pending, None)
        return None if item is None else prepare(*item)

    def work(sink, first: tuple) -> None:
        """Send an example, ``first`` to begin with, and while its request is in
        flight take and prepare the next; then write the record, until no example
        is left or the run has failed. An example prepared when the run fails is
        not sent."""
        nonlocal running
        try:
            item = prepare(*first)
            while item is not None and not failed:
                after = []  # the next example, prepared once however often the request goes out

                def prepare_next() -> None:
                    if not after:
                        after.append(take())

                record = one(*item, prepare_next)
                prepare_next()  # if the request never went out
                line = record.to_line()
                with lock:
                    sink.write(line)
                    sink.flush()
                item = after[0]
        except BaseException as exc:  # noqa: BLE001 - the main thread raises it
            failed.append(exc)
        finally:
            with lock:
                running -= 1
                lock.notify()

    def wait_for_workers() -> None:
        # not Thread.join: on Python 3.10 to 3.12 a join that Ctrl-C interrupts
        # marks a thread that is still running as ended. A worker whose start a
        # Ctrl-C cut short is not counted, so its end can take the count below 0.
        with lock:
            while running > 0:
                lock.wait()

    try:
        with out_path.open("a", encoding="utf-8") as sink:
            try:
                for first in firsts:
                    Thread(target=work, args=(sink, first)).start()
                    with lock:
                        running += 1
                wait_for_workers()
            except BaseException as exc:  # Ctrl-C, or a thread that did not start
                failed.append(exc)  # the workers take no more examples
                wait_for_workers()
                raise
    finally:
        for sock in idle:
            sock.close()
    if failed:
        raise failed[0]
    return out_path


def load_run_records(run_path: Path | str) -> list[RunRecord]:
    """Run records with resume duplicates collapsed to the latest attempt."""
    return [record for _, record in _read_run(run_path)[0].values()]


def _read_run(run_path: Path | str, warn: bool = True) -> tuple[dict[str, tuple[int, RunRecord]], int]:
    """Each fingerprint's latest record with its line number, and the size that
    ends the file on a whole line: a last line that is blank or torn cut off, a
    whole one given its newline. A last line with no newline that does not parse
    was torn mid-write and is dropped, with a warning if ``warn``; any other line
    that is not a run record fails, naming the file and line."""
    lines = Path(run_path).read_bytes().split(b"\n")
    size = sum(map(len, lines)) + len(lines) - 1  # keeping the bytes too would hold the file twice
    latest: dict[str, tuple[int, RunRecord]] = {}
    end = size - len(lines[-1])  # where a last line without its newline starts
    with located(run_path) as where:
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where.line = number
            try:
                value = parse_json(line.decode("utf-8"))  # strict, unlike json.loads(bytes)
            except ValueError:
                if number < len(lines):
                    raise
                if warn:
                    print(f"warning: {run_path} line {number}: dropped a record torn mid-write", file=sys.stderr)
                break
            record = RunRecord.from_json(value)
            latest[record.fingerprint] = number, record
            if number == len(lines):
                end = size + 1
    return latest, end


def score_run(run_path: Path | str, manifest_path: Path | str) -> EvalReport:
    """Score every run record against the manifest's gold answers.

    Error records score as all-wrong; manifest examples without a record are
    not counted (finish the run first). A file holds one run configuration:
    two fingerprints for the same example mean mixed runs and are rejected.
    """
    examples = {ex.id: ex for ex in load_manifest(manifest_path)}
    records = load_run_records(run_path)
    if len({r.example_id for r in records}) != len(records):
        raise ManifestMismatch(
            "run file contains records from more than one configuration; "
            "score each run file separately"
        )
    results = []
    for record in sorted(records, key=lambda r: r.example_id):
        gold = examples.get(record.example_id)
        if gold is None:
            line, _ = _read_run(run_path, warn=False)[0][record.fingerprint]  # load_run_records warned
            raise ManifestMismatch(
                f"{run_path} line {line}: run references "
                f"{shown(record.example_id)}, absent from manifest"
            )
        text = record.response_text if record.status == "ok" else ""
        pred = Prediction.from_text(record.example_id, text)
        results.append(evaluate_prediction(pred, gold))
    return build_report(results)
