"""What `bench run` puts on the wire and what it accepts back, against a
server on a plain socket that sends exactly the bytes a test scripts."""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
import warnings

import pytest

from mathgrid import Difficulty, GenParams, generate
from mathgrid.cli import main
from mathgrid.harness import EndpointConfig, Modality, client, run_benchmark
from mathgrid.harness.client import ConfigError, load_run_records
from mathgrid.manifest import load_manifest, write_manifest

from endpointmock import MockEndpoint

ANSWER = json.dumps({"choices": [{"message": {"content": "<answer>7</answer>"}}]}).encode()


def _reply(head: str, body: bytes = ANSWER) -> bytes:
    return head.replace("\n", "\r\n").encode("latin-1") + b"\r\n" + body


class RawServer:
    """Serves one connection at a time on 127.0.0.1: keeps the bytes of each
    request and the client address that sent it, sends ``reply`` as it stands
    (a list of pieces PIECE_GAP_S apart), then holds the connection open for
    ``hold_s`` (cut short when the server stops). ``then`` says what follows:
    "close" the connection; "serve" the next request on it; or "half-close",
    shut down the sending side, so that the client sees the reply end, and read
    the next request on it, which gets no reply. A request gets the ``reply``
    and ``then`` that hold when the whole request has arrived."""

    PIECE_GAP_S = 0.05

    def __init__(self, reply: bytes | list[bytes], hold_s: float = 0.0, then: str = "close"):
        self.reply = reply
        self.hold_s = hold_s
        self.then = then
        self.requests: list[bytes] = []
        self.peers: list[tuple[str, int]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.01)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def __enter__(self) -> RawServer:
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()
        return False

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                connection, peer = self._listener.accept()
            except TimeoutError:
                continue
            with connection:
                connection.settimeout(5)
                while (request := _read_request(connection)) is not None:
                    self.requests.append(request)
                    self.peers.append(peer)
                    pieces = [self.reply] if isinstance(self.reply, bytes) else self.reply
                    then = self.then
                    try:
                        for index, piece in enumerate(pieces):
                            self._stop.wait(self.PIECE_GAP_S if index else 0)
                            connection.sendall(piece)
                        if then == "half-close":
                            connection.shutdown(socket.SHUT_WR)
                    except OSError:  # the client stopped reading
                        break
                    self._stop.wait(self.hold_s)
                    if then == "close":
                        break


def _read_request(connection: socket.socket) -> bytes | None:
    """The head and the ``Content-Length`` bytes of body, if any, of one
    request; None if the client closes the connection, or sends nothing for
    5 s, before a whole head."""
    data = b""
    while b"\r\n\r\n" not in data:
        try:
            chunk = connection.recv(65536)
        except OSError:
            return None
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    fields = dict(line.split(b": ", 1) for line in head.split(b"\r\n")[1:])
    length = int({k.lower(): v for k, v in fields.items()}.get(b"content-length", 0))
    while len(body) < length:
        body += connection.recv(65536)
    return head + b"\r\n\r\n" + body


def _manifest(tmp_path, count):
    examples = [
        generate(
            GenParams(difficulty=Difficulty.EASY, equation_count=(3, 4), seed=5 + index),
            out_dir=tmp_path,
            example_id=f"wire_{index}",
        )
        for index in range(count)
    ]
    path = tmp_path / "manifest.jsonl"
    write_manifest(examples, path)
    return path


@pytest.fixture
def manifest(tmp_path):
    return _manifest(tmp_path, 1)


@pytest.fixture
def manifest3(tmp_path):
    return _manifest(tmp_path, 3)


@pytest.fixture
def clean_env(proxy_env):
    """No proxy and no token but those a test sets."""
    proxy_env.delenv("FAKE_TOKEN_VAR", raising=False)
    return proxy_env


def _run(manifest, base_url, **overrides):
    config = dict(base_url=base_url, model_name="m", max_concurrency=1, timeout_s=5.0,
                  max_retries=0, backoff_s=0.01)
    config.update(overrides)
    run_path = run_benchmark(
        manifest, EndpointConfig(**config), Modality.TEXT_ONLY, None,
        manifest.parent / "run.jsonl",
    )
    return load_run_records(run_path)


class TestRequestHead:
    @pytest.mark.parametrize("token", [None, "sekret"])
    @pytest.mark.parametrize("via_proxy", [False, True])
    def test_head_bytes(self, manifest, clean_env, via_proxy, token):
        if token is not None:
            clean_env.setenv("FAKE_TOKEN_VAR", token)
        with RawServer(_reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER))) as server:
            if via_proxy:
                clean_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{server.port}")
                url, target, host = (
                    "http://mathgrid-endpoint.invalid",
                    "http://mathgrid-endpoint.invalid/v1/chat/completions",
                    "mathgrid-endpoint.invalid",
                )
            else:
                url = f"http://127.0.0.1:{server.port}"
                target, host = "/v1/chat/completions", f"127.0.0.1:{server.port}"
            records = _run(manifest, url, auth_token_env="FAKE_TOKEN_VAR")
        assert [r.status for r in records] == ["ok"]
        [request] = server.requests
        head, _, body = request.partition(b"\r\n\r\n")
        json.loads(body)
        auth = "" if token is None else f"Authorization: Bearer {token}\r\n"
        # a platform without TCP_QUICKACK keeps no connection, so asks for each to be closed
        close = "" if hasattr(socket, "TCP_QUICKACK") else "Connection: close\r\n"
        assert head + b"\r\n\r\n" == (
            f"POST {target} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Accept-Encoding: identity\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            f"{auth}"
            "User-Agent: mathgrid\r\n"
            f"{close}"
            "\r\n"
        ).encode("latin-1")

    def test_a_token_with_a_line_break_sends_nothing(self, manifest, clean_env):
        clean_env.setenv("FAKE_TOKEN_VAR", "sek\r\nX-Injected: 1")
        with RawServer(_reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER))) as server:
            with pytest.raises(ConfigError, match="^the token in 'FAKE_TOKEN_VAR' must be Latin-1 on one line$"):
                _run(manifest, f"http://127.0.0.1:{server.port}", auth_token_env="FAKE_TOKEN_VAR")
        assert server.requests == []
        assert not (manifest.parent / "run.jsonl").exists()

    def test_a_token_that_is_not_latin_1_fails_once_naming_its_variable(self, manifest, clean_env, capsys):
        clean_env.setenv("FAKE_TOKEN_VAR", "sek\u20acret")
        with RawServer(_reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER))) as server:
            argv = ["bench", "run", "--manifest", str(manifest), "--out", str(manifest.parent / "run.jsonl"),
                    "--endpoint", f"http://127.0.0.1:{server.port}", "--model", "m", "--auth-env", "FAKE_TOKEN_VAR"]
            assert main(argv) == 1
        assert server.requests == []
        assert capsys.readouterr().err == "error: the token in 'FAKE_TOKEN_VAR' must be Latin-1 on one line\n"
        assert not (manifest.parent / "run.jsonl").exists()

    def test_a_latin_1_token_and_a_query_in_path_reach_the_wire_as_they_stand(self, manifest, clean_env):
        clean_env.setenv("FAKE_TOKEN_VAR", "sek\xe9ret")
        with RawServer(_reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER))) as server:
            records = _run(manifest, f"http://127.0.0.1:{server.port}/api/", path="/v1/chat?api-version=1",
                           auth_token_env="FAKE_TOKEN_VAR")
        assert [r.status for r in records] == ["ok"]
        [request] = server.requests
        lines = request.split(b"\r\n")
        assert lines[0] == b"POST /api/v1/chat?api-version=1 HTTP/1.1"
        assert b"Authorization: Bearer sek\xe9ret" in lines

    def test_a_refused_tunnel_is_an_error_record(self, manifest, clean_env):
        with RawServer(_reply("HTTP/1.1 403 Forbidden\nContent-Length: 0\n", b"")) as proxy:
            clean_env.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.port}")
            (record,) = _run(manifest, "https://mathgrid-endpoint.invalid")
        assert [request.split(b"\r\n")[0] for request in proxy.requests] == [
            b"CONNECT mathgrid-endpoint.invalid:443 HTTP/1.1"
        ]
        assert record.error == "OSError: tunnel connection failed: 403 'Forbidden'"


def _chunked(body: bytes) -> bytes:
    cut = len(body) // 3
    pieces = [body[:cut], body[cut:]]
    return b"".join(b"%x;note=1\r\n%s\r\n" % (len(p), p) for p in pieces) + b"0\r\nX-Trailer: 1\r\n\r\n"


class TestResponseBody:
    def test_content_length_ends_the_body_before_the_close(self, manifest, clean_env):
        # the server holds the connection for 2 s after the body, past the
        # 0.5 s timeout: a client that reads to the close fails
        reply = _reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER))
        with RawServer(reply, hold_s=2.0) as server:
            started = time.monotonic()
            records = _run(manifest, f"http://127.0.0.1:{server.port}", timeout_s=0.5)
            elapsed = time.monotonic() - started
        assert [(r.status, r.response_text) for r in records] == [("ok", "<answer>7</answer>")]
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "reply",
        [
            _reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", _chunked(ANSWER)),
            _reply("HTTP/1.1 200 OK\nContent-Type: application/json\n"),
            _reply("HTTP/1.1 100 Continue\n", b"") + _reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER)),
            [_reply("HTTP/1.1 200 OK\nContent-Type: application/json\n", b""), ANSWER],
        ],
        ids=["chunked", "until-close", "after-100-continue", "until-close-after-the-head"],
    )
    def test_answer_read(self, manifest, clean_env, reply):
        with RawServer(reply) as server:
            records = _run(manifest, f"http://127.0.0.1:{server.port}")
        assert [(r.status, r.response_text) for r in records] == [("ok", "<answer>7</answer>")]

    @pytest.mark.parametrize(
        "reply",
        [
            _reply("SPAM/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER)),
            _reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % (len(ANSWER) + 10)),
        ],
        ids=["not-http", "short-body"],
    )
    def test_malformed_response_retried_then_an_error_record(self, manifest, clean_env, reply):
        with RawServer(reply) as server:
            records = _run(manifest, f"http://127.0.0.1:{server.port}", max_retries=2)
        assert len(server.requests) == 3
        assert [r.status for r in records] == ["error"]


    @pytest.mark.parametrize(
        "reply, words",
        [
            (_reply("HTTP/1.1 404 " + "N" * 60000 + "\n"), "StatusError: HTTP 404 'NNN"),
            (_reply("HTTP/1.1 200 OK\nContent-Length: " + "x" * 5000 + "\n"),
             "ValueError: malformed Content-Length b'xxx"),
            (_reply("HTTP/1.1 200 OK\nContent-Length: -" + "9" * 4000 + "\n"),
             "ValueError: negative length -999"),
            (_reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"z" * 5000 + b"\r\n"),
             "ValueError: malformed chunk size b'zzz"),
            (_reply("HTTP/1.1 200 " + "O" * 200_000 + "\n"), "ValueError: response line longer than 65536 bytes"),
            (_reply("HTTP/1.1 200 OK\nX-Long: " + "a" * 200_000 + "\n"),
             "ValueError: response line longer than 65536 bytes"),
            (_reply("HTTP/1.1 200 OK\n", json.dumps({"choices": [{"message": "\u20ac" * 2000}]}).encode()),
             "ValueError: response message must be a JSON object, not string"),
        ],
        ids=["reason", "content-length", "negative-length", "chunk-size", "status-line", "header-line", "mutated-body"],
    )
    def test_an_error_record_quotes_the_reply_briefly(self, manifest, clean_env, reply, words):
        with RawServer(reply) as server:
            (record,) = _run(manifest, f"http://127.0.0.1:{server.port}")
        assert record.status == "error" and record.error.startswith(words), record.error[:300]
        assert len(record.error.encode()) < 1024

    def test_header_lines_each_under_the_line_cap_may_add_up_past_it(self, manifest, clean_env):
        # three 30000-byte header lines: the cap of 65536 bytes is on one line, not on the head
        fields = "".join(f"X-Pad-{index}: {'a' * 30000}\n" for index in range(3))
        with RawServer(_reply(f"HTTP/1.1 200 OK\n{fields}Content-Length: {len(ANSWER)}\n")) as server:
            records = _run(manifest, f"http://127.0.0.1:{server.port}")
        assert [(r.status, r.response_text) for r in records] == [("ok", "<answer>7</answer>")]

    def test_the_default_retries_make_four_attempts(self, manifest, clean_env):
        with RawServer(_reply("HTTP/1.1 503 Busy\nContent-Length: 0\n", b"")) as server:
            run_path = run_benchmark(
                manifest, EndpointConfig(base_url=f"http://127.0.0.1:{server.port}", model_name="m", backoff_s=0),
                Modality.TEXT_ONLY, None, manifest.parent / "run.jsonl",
            )
        (record,) = load_run_records(run_path)
        assert record.error.startswith("StatusError: HTTP 503 'Busy'")
        assert len(server.requests) == 4

    def test_each_backoff_sleep_stops_doubling_at_the_longest_sleep(self, manifest, clean_env, monkeypatch):
        sleeps = []
        monkeypatch.setattr(client.time, "sleep", sleeps.append)
        with RawServer(_reply("HTTP/1.1 503 Busy\nContent-Length: 0\n", b"")) as server:
            (record,) = _run(manifest, f"http://127.0.0.1:{server.port}", max_retries=3,
                             backoff_s=threading.TIMEOUT_MAX / 2)
        assert record.error.startswith("StatusError: HTTP 503 'Busy'")
        assert sleeps == [threading.TIMEOUT_MAX / 2, threading.TIMEOUT_MAX, threading.TIMEOUT_MAX]


keeps_connections = pytest.mark.skipif(
    not hasattr(socket, "TCP_QUICKACK"), reason="only a platform with TCP_QUICKACK keeps connections"
)


class TestConnectionReuse:
    """A worker sends its next request on the same connection only when the
    whole reply was read and leaves it open."""

    @keeps_connections
    @pytest.mark.parametrize(
        "reply",
        [
            _reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER)),
            _reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", _chunked(ANSWER)),
        ],
        ids=["content-length", "chunked-with-a-trailer"],
    )
    def test_a_reply_that_leaves_the_connection_open_keeps_it(self, manifest3, clean_env, reply):
        with RawServer(reply, then="serve") as server:
            records = _run(manifest3, f"http://127.0.0.1:{server.port}")
        assert [(r.status, r.response_text) for r in records] == [("ok", "<answer>7</answer>")] * 3
        assert len(server.requests) == 3 and len(set(server.peers)) == 1

    @pytest.mark.parametrize(
        "reply, then",
        [
            (_reply("HTTP/1.0 200 OK\nContent-Length: %d\n" % len(ANSWER)), "serve"),
            (_reply("HTTP/1.1 200 OK\nConnection: close\nContent-Length: %d\n" % len(ANSWER)), "serve"),
            (_reply("HTTP/1.1 200 OK\nContent-Type: application/json\n"), "half-close"),
            (_reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER)) + b"\r\n", "serve"),
        ],
        ids=["http-1.0", "connection-close", "until-close", "bytes-past-the-body"],
    )
    def test_a_reply_that_ends_the_connection_gets_a_new_one(self, manifest3, clean_env, reply, then):
        # the server would go on reading requests on each connection
        with RawServer(reply, then=then) as server:
            records = _run(manifest3, f"http://127.0.0.1:{server.port}")
        assert [r.status for r in records] == ["ok"] * 3
        assert len(server.requests) == len(set(server.peers)) == 3

    @keeps_connections
    def test_a_connection_dropped_unannounced_is_replaced_within_the_attempt(
        self, manifest3, clean_env, monkeypatch
    ):
        # each reply leaves the connection open, and then the server closes it:
        # the next request fails on it before any byte of a reply arrives, and
        # goes once more on a new connection, with no retry (max_retries=0)
        sent = []
        send = client._Attempt.send

        def counted(attempt, data):
            sent.append(data)
            return send(attempt, data)

        monkeypatch.setattr(client._Attempt, "send", counted)
        with RawServer(_reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER))) as server:
            records = _run(manifest3, f"http://127.0.0.1:{server.port}")
        assert [r.status for r in records] == ["ok"] * 3
        assert len(server.requests) == len(set(server.peers)) == 3
        assert len(sent) == 5  # the second and third requests went twice

    @keeps_connections
    def test_a_reply_cut_short_on_a_kept_connection_is_not_sent_again(self, manifest3, clean_env, monkeypatch):
        # after the first reply the server cuts each reply short and closes:
        # those requests reached it, so none goes again (max_retries=0)
        send = client._Attempt.send

        def send_then_cut_replies_short(attempt, data):
            try:
                return send(attempt, data)
            finally:
                server.reply = _reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER), ANSWER[:5])
                server.then = "half-close"

        monkeypatch.setattr(client._Attempt, "send", send_then_cut_replies_short)
        with RawServer(_reply("HTTP/1.1 200 OK\nContent-Length: %d\n" % len(ANSWER)), then="serve") as server:
            records = _run(manifest3, f"http://127.0.0.1:{server.port}")
        assert [(r.status, r.error) for r in records] == [("ok", None)] + [
            ("error", "ConnectionError: the endpoint closed the connection mid-response")
        ] * 2
        assert len(server.requests) == 3 and len(set(server.peers)) == 2

    def test_a_run_that_raises_part_way_closes_every_connection(self, dataset_dir, tmp_path, proxy_env, monkeypatch):
        opened = []
        create_connection = socket.create_connection

        def kept(*args, **kwargs):
            opened.append(create_connection(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", kept)
        written = []
        to_json = client.RunRecord.to_json

        def fail_on_the_third(record):
            written.append(record)
            if len(written) == 3:
                raise RuntimeError("the disk is full")
            return to_json(record)

        monkeypatch.setattr(client.RunRecord, "to_json", fail_on_the_third)
        manifest = dataset_dir / "manifest.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with MockEndpoint(manifest, protocol_version="HTTP/1.1") as server:
                config = EndpointConfig(base_url=server.base_url, model_name="m", max_concurrency=2, max_retries=0)
                with pytest.raises(RuntimeError, match="^the disk is full$"):
                    run_benchmark(manifest, config, Modality.TEXT_ONLY, None, tmp_path / "run.jsonl")
            gc.collect()
        assert opened and all(sock.fileno() == -1 for sock in opened)
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestAttemptBounds:
    """Each attempt ends within ``timeout_s`` of its start, and takes at most
    MAX_RESPONSE_BYTES, however the endpoint sends."""

    TIMEOUT_S = 0.3
    SLACK_S = 0.2  # thread start-up, scheduling, and a slow machine

    @pytest.fixture
    def attempts(self, monkeypatch):
        """The duration of every attempt, as it ends."""
        durations: list[float] = []
        send_once = client._send_once

        def timed(*args):
            started = time.monotonic()
            try:
                return send_once(*args)
            finally:
                durations.append(time.monotonic() - started)

        monkeypatch.setattr(client, "_send_once", timed)
        return durations

    def _run(self, dataset_dir, tmp_path, mode, kept=False):
        """With ``kept``, each first attempt gets a 503 from an HTTP/1.1 server,
        so that each retry goes over a kept connection."""
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(load_manifest(dataset_dir / "manifest.jsonl")[:2], manifest)
        options = dict(fail_first_n=2, fail_status=503, protocol_version="HTTP/1.1") if kept else {}
        with MockEndpoint(manifest, mode=mode, **options) as server:
            config = EndpointConfig(
                base_url=server.base_url, model_name="m", max_concurrency=2,
                timeout_s=self.TIMEOUT_S, max_retries=1, backoff_s=0.01,
            )
            run_path = run_benchmark(manifest, config, Modality.TEXT_ONLY, None, tmp_path / "run.jsonl")
            assert server.requests_total == 4  # two examples, each retried once
            assert len(set(server.request_peers)) == (2 if kept else 4)
        return load_run_records(run_path)

    def test_a_trickled_body_ends_at_the_deadline(self, dataset_dir, tmp_path, proxy_env, attempts):
        records = self._run(dataset_dir, tmp_path, "trickle")
        assert len(attempts) == 4
        assert max(attempts) < self.TIMEOUT_S + self.SLACK_S
        assert [r.status for r in records] == ["error"] * 2
        assert all(r.error.startswith("TimeoutError: ") for r in records)

    def test_a_body_past_the_cap_is_cut_off(self, dataset_dir, tmp_path, proxy_env, attempts):
        proxy_env.setattr(client, "MAX_RESPONSE_BYTES", 4096, raising=False)
        records = self._run(dataset_dir, tmp_path, "oversize")
        assert len(attempts) == 4
        assert max(attempts) < self.TIMEOUT_S + self.SLACK_S
        assert {r.error for r in records} == {"ValueError: response longer than 4096 bytes"}

    @keeps_connections
    def test_a_trickled_body_ends_at_the_deadline_on_a_kept_connection(
        self, dataset_dir, tmp_path, proxy_env, attempts
    ):
        records = self._run(dataset_dir, tmp_path, "trickle", kept=True)
        assert len(attempts) == 4
        assert max(attempts) < self.TIMEOUT_S + self.SLACK_S
        assert all(r.error.startswith("TimeoutError: ") for r in records)

    @keeps_connections
    def test_a_body_past_the_cap_is_cut_off_on_a_kept_connection(self, dataset_dir, tmp_path, proxy_env, attempts):
        proxy_env.setattr(client, "MAX_RESPONSE_BYTES", 4096, raising=False)
        records = self._run(dataset_dir, tmp_path, "oversize", kept=True)
        assert len(attempts) == 4
        assert max(attempts) < self.TIMEOUT_S + self.SLACK_S
        assert {r.error for r in records} == {"ValueError: response longer than 4096 bytes"}
