"""In-process chat-completions endpoint for closed-loop harness tests.

The handler reconstructs the puzzle grid from the request itself (markdown
lines in text parts, or the base64 SVG image part), solves it, and answers
in the required format. Behavior knobs cover error injection, hop-limited
answering, a body sent a byte at a time or larger than a client should
take, latency before a response, a cookie set on every response, the HTTP version and TLS from a certificate and key;
counters expose request totals and the maximum number of concurrently
served requests, and the path, headers and client address of every
request are kept. ``TunnelProxy`` is an HTTP proxy that serves only ``CONNECT``.
"""

from __future__ import annotations

import base64
import json
import re
import select
import socket
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from mathgrid.core import Cell, CellKind, Grid, Operator
from mathgrid.manifest import load_manifest
from mathgrid.render import parse_markdown, to_markdown
from mathgrid.render.svg import extract_text_cells
from mathgrid.solver import deduce

TRICKLE_S = 0.02
OVERSIZE_BYTES = 1 << 20
_DATA_URL = re.compile(r"^data:(?P<media>[^;]+);base64,(?P<payload>.*)$", re.DOTALL)


def _cell_from_glyph(glyph: str) -> Cell:
    if glyph == "?":
        return Cell(CellKind.TARGET)
    if glyph == "=":
        return Cell(CellKind.EQUALS)
    if glyph in "+-×÷":
        return Cell.operator(Operator(glyph))
    return Cell.number(int(glyph))


def grid_from_svg(svg_bytes: bytes) -> Grid:
    """Rebuild the grid a rendered query image depicts."""
    cells = dict(extract_text_cells(svg_bytes))
    rows = max(c.row for c in cells) + 1
    cols = max(c.col for c in cells) + 1
    table = [
        [
            _cell_from_glyph(cells[(r, c)]) if (r, c) in cells else Cell(CellKind.EMPTY)
            for c in range(cols)
        ]
        for r in range(rows)
    ]
    return Grid.from_rows(table)


class MockEndpoint:
    """Context-managed local endpoint with scripted behavior."""

    def __init__(
        self,
        manifest_path=None,
        *,
        # "hop1"; "list": a 200 whose body is the JSON list []; "trickle": the
        # body of a 200, the gold answer, a byte every TRICKLE_S; "oversize":
        # the gold answer padded past OVERSIZE_BYTES; "surrogate": the gold answer
        # and then a lone surrogate, which the JSON body carries as \ud83d, as a
        # server that escapes non-ASCII sends when its output stops mid-emoji
        mode: str = "gold",
        fail_ids: set[str] | None = None,
        fail_first_n: int = 0,
        fail_status: int = 500,
        latency_s: float = 0.0,
        set_cookie: str | None = None,
        protocol_version: str = "HTTP/1.0",
        tls: tuple[str, str] | None = None,  # certificate and key files: serve https
    ):
        self.mode = mode
        self.fail_ids = set(fail_ids or ())
        self.fail_first_n = fail_first_n
        self.fail_status = fail_status
        self.latency_s = latency_s
        self.set_cookie = set_cookie
        self.protocol_version = protocol_version
        self.tls = tls
        self.requests_total = 0
        self.request_paths: list[str] = []
        self.request_headers: list[dict[str, str]] = []
        self.request_peers: list[tuple[str, int]] = []
        self.max_inflight = 0
        self._inflight = 0
        self._lock = threading.Lock()
        self._md_to_id: dict[str, str] = {}
        if manifest_path is not None:
            for example in load_manifest(manifest_path):
                self._md_to_id[example.markdown.strip()] = example.id
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_port

    @property
    def base_url(self) -> str:
        return f"{'https' if self.tls else 'http'}://127.0.0.1:{self.port}"

    def __enter__(self) -> "MockEndpoint":
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = self.protocol_version

            def log_message(self, *args):  # silence test output
                pass

            def do_POST(self):
                endpoint._handle(self)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        if self.tls is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*self.tls)
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
        self._thread = _serve(self._server)
        return self

    def __exit__(self, *exc_info):
        _stop(self._server, self._thread)
        return False

    # -- request handling -------------------------------------------------

    def _extract_grid(self, body: dict) -> Grid:
        text_chunks: list[str] = []
        image_payload: bytes | None = None
        for message in body.get("messages", []):
            content = message.get("content")
            if isinstance(content, str):
                text_chunks.append(content)
                continue
            for part in content or []:
                if part.get("type") == "text":
                    text_chunks.append(part.get("text", ""))
                elif part.get("type") == "image_url":
                    match = _DATA_URL.match(part["image_url"]["url"])
                    if match:
                        image_payload = base64.b64decode(match.group("payload"))
        table_lines = [
            line
            for chunk in text_chunks
            for line in chunk.splitlines()
            if line.strip().startswith("|")
        ]
        if table_lines:
            return parse_markdown("\n".join(table_lines))
        if image_payload is not None:
            return grid_from_svg(image_payload)
        raise ValueError("request carries neither a markdown grid nor an image")

    def _answer_text(self, grid: Grid) -> str:
        trace, _ = deduce(grid)
        values = []
        for value, hop in zip(trace.answers, trace.hop_depths):
            if self.mode == "hop1" and hop > 1:
                value += 1  # deliberately wrong beyond the first hop
            values.append(str(value))
        return (
            "Reading the grid and solving each equation in turn.\n"
            "<answer>" + " ".join(values) + "</answer>"
        )

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        with self._lock:
            self.requests_total += 1
            request_index = self.requests_total
            self.request_paths.append(request.path)
            self.request_headers.append(dict(request.headers.items()))
            self.request_peers.append(request.client_address)
            self._inflight += 1
            self.max_inflight = max(self.max_inflight, self._inflight)
        try:
            status, payload = self._reply(request, request_index)
        except Exception as exc:  # pragma: no cover - surfaced as HTTP 400
            status, payload = 400, {"error": str(exc)}
        # The client may send its next request as soon as it has read this
        # response, so this one stops counting as in flight before it is written.
        with self._lock:
            self._inflight -= 1
        try:
            self._respond(request, status, payload)
        except ConnectionError:  # the client stopped reading: its deadline or byte cap
            pass

    def _reply(self, request: BaseHTTPRequestHandler, request_index: int) -> tuple[int, dict | list]:
        if self.latency_s:
            time.sleep(self.latency_s)
        length = int(request.headers.get("Content-Length", 0))
        body = json.loads(request.rfile.read(length))
        if request_index <= self.fail_first_n:
            return self.fail_status, {"error": "scripted transient failure"}
        if self.mode == "list":
            return 200, []
        grid = self._extract_grid(body)
        example_id = self._md_to_id.get(to_markdown(grid).strip())
        if example_id is not None and example_id in self.fail_ids:
            return self.fail_status, {"error": f"scripted failure for {example_id}"}
        text = self._answer_text(grid)
        if self.mode == "oversize":
            text += " " * OVERSIZE_BYTES
        if self.mode == "surrogate":
            text += " \ud83d"
        return 200, {"choices": [{"message": {"content": text}}]}

    def _respond(self, request: BaseHTTPRequestHandler, status: int, payload: dict | list) -> None:
        body = json.dumps(payload).encode("utf-8")
        request.send_response(status)
        request.send_header("Content-Type", "application/json")
        if self.set_cookie is not None:
            request.send_header("Set-Cookie", self.set_cookie)
        if 300 <= status < 400:
            request.send_header("Location", "/moved")
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        if self.mode != "trickle" or status != 200:
            request.wfile.write(body)
            return
        for byte in range(len(body)):
            request.wfile.write(body[byte : byte + 1])
            time.sleep(TRICKLE_S)


class TunnelProxy:
    """Context-managed proxy that answers ``CONNECT`` and relays the bytes
    both ways; it keeps each request's target and headers."""

    def __init__(self):
        self.targets: list[str] = []
        self.request_headers: list[dict[str, str]] = []
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_port

    def __enter__(self) -> "TunnelProxy":
        proxy = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # silence test output
                pass

            def do_CONNECT(self):
                proxy.targets.append(self.path)
                proxy.request_headers.append(dict(self.headers.items()))
                host, _, port = self.path.rpartition(":")
                with socket.create_connection((host, int(port)), timeout=5) as upstream:
                    self.send_response(200)
                    self.end_headers()
                    _relay(self.connection, upstream)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = _serve(self._server)
        return self

    def __exit__(self, *exc_info):
        _stop(self._server, self._thread)
        return False


def _serve(server: ThreadingHTTPServer) -> threading.Thread:
    # a short poll keeps shutdown() in _stop from waiting out the 0.5 s default
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    return thread


def _stop(server: ThreadingHTTPServer, thread: threading.Thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _relay(client: socket.socket, upstream: socket.socket) -> None:
    """Copy bytes between the two sockets until either closes or both idle for 5 s."""
    peer = {client: upstream, upstream: client}
    while True:
        readable, _, _ = select.select(list(peer), [], [], 5)
        if not readable:
            return
        for sock in readable:
            data = sock.recv(65536)
            if not data:
                return
            peer[sock].sendall(data)
