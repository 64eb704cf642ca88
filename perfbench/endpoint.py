"""Zero-service-time chat-completions endpoint for the eval-loop workload.

Runs as a child process of the benchmark, so its work never contends for
the client's interpreter lock, and uses only the standard library, so it
measures none of mathgrid. It answers every request from a table of
markdown grid -> gold answer line built at set-up, and fails the first
attempt of a seeded ~2% of request bodies with 503 so that the client's
retry path runs.

    python3 endpoint.py --table TABLE.json --seed N

It prints ``ready <port>`` once listening, then reads commands on stdin:
``stats`` prints the counters as one JSON line and resets them, ``quit``
(or end of input) stops the server.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# One request body in this many fails its first attempt.
FAIL_ONE_IN = 50


def grid_key(text: str) -> str:
    """The markdown table rows of a prompt text, as the table's key."""
    return "\n".join(
        line.strip() for line in text.splitlines() if line.strip().startswith("|")
    )


def prompt_text(request: dict) -> str:
    chunks = []
    for message in request.get("messages", []):
        content = message.get("content")
        if isinstance(content, str):
            chunks.append(content)
            continue
        for part in content or []:
            if part.get("type") == "text":
                chunks.append(part.get("text", ""))
    return "\n".join(chunks)


class Endpoint(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict[str, str], seed: int):
        super().__init__(("127.0.0.1", 0), Handler)
        self.table = table
        self.salt = f"perfbench-endpoint:{seed}:".encode("utf-8")
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> dict:
        """Zero the counters; return their values before the reset."""
        with self.lock:
            before = dict(getattr(self, "counters", {}))
            self.counters = {
                "connections": 0,
                "requests": 0,
                "rejected_503": 0,
                "unknown_puzzle": 0,
                "busy_s": 0.0,
                "bytes_in": 0,
                "inflight_max": 0,
            }
            self.inflight = 0
            self.failed_once: set[bytes] = set()
        return before

    def process_request(self, request, client_address):
        with self.lock:
            self.counters["connections"] += 1
        super().process_request(request, client_address)

    def answer(self, body: bytes) -> tuple[int, dict]:
        digest = hashlib.sha256(self.salt + body).digest()
        if int.from_bytes(digest[:8], "big") % FAIL_ONE_IN == 0:
            with self.lock:
                first = digest not in self.failed_once
                if first:
                    self.failed_once.add(digest)
                    self.counters["rejected_503"] += 1
            if first:
                return 503, {"error": "scripted transient failure"}
        answer = self.table.get(grid_key(prompt_text(json.loads(body))))
        if answer is None:
            with self.lock:
                self.counters["unknown_puzzle"] += 1
            return 404, {"error": "puzzle not in the answer table"}
        return 200, {"choices": [{"message": {"role": "assistant", "content": answer}}]}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # lets a client that reuses connections do so

    def log_message(self, *args):
        pass

    def do_POST(self):
        server: Endpoint = self.server
        start = time.perf_counter()
        with server.lock:
            server.inflight += 1
            counters = server.counters
            counters["inflight_max"] = max(counters["inflight_max"], server.inflight)
        length = int(self.headers.get("Content-Length", 0))
        try:
            status, payload = server.answer(self.rfile.read(length))
        except ValueError as exc:  # malformed JSON body
            status, payload = 400, {"error": str(exc)}
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        with server.lock:
            server.inflight -= 1
            counters["requests"] += 1
            counters["bytes_in"] += length
            counters["busy_s"] += time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True, help="JSON map: markdown -> answer")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with open(args.table, encoding="utf-8") as fh:
        table = json.load(fh)
    server = Endpoint(table, args.seed)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"ready {server.server_port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(server.reset()), flush=True)
            elif command == "quit":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
