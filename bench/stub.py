"""Loopback chat-completions endpoint for the `wait_bound` workload.

It answers each POST from a World after sleeping the reply's modelled
latency, returns token `usage`, and records per request its arrival and
end time, modelled latency, service time and the number of requests in
flight when it arrived. It binds 127.0.0.1 only.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from world import World, token_count


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; without TCP_NODELAY the body
    # waits for the client's delayed ACK, a stall no real endpoint adds
    disable_nagle_algorithm = True

    def do_POST(self):  # noqa: N802 (http.server naming)
        stub: ChatStub = self.server.stub
        arrived = time.monotonic()
        in_flight = stub._enter(arrived)
        try:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            messages = {m["role"]: m["content"] for m in body["messages"]}
            system_text, user_text = messages["system"], messages["user"]
            reply = stub.world.reply(system_text, user_text)
            time.sleep(reply.latency_s)
            usage = {
                "prompt_tokens": token_count(system_text) + token_count(user_text),
                "completion_tokens": token_count(reply.text),
            }
            usage["total_tokens"] = usage["prompt_tokens"] + usage["completion_tokens"]
            payload = json.dumps(
                {
                    "object": "chat.completion",
                    "model": body.get("model", ""),
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": reply.text},
                            "finish_reason": "stop",
                        }
                    ],
                    "usage": usage,
                }
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            stub._record(
                {
                    "arrived": arrived,
                    "ended": time.monotonic(),
                    "modelled_s": reply.latency_s,
                    "in_flight": in_flight,
                    "kind": reply.kind,
                    **usage,
                }
            )
        except (BrokenPipeError, ConnectionResetError):
            # a set-up probe is stopped at its first call; nothing to record
            self.close_connection = True
        finally:
            stub._leave()

    def log_message(self, format, *args):  # noqa: A002 (http.server signature)
        pass


class ChatStub:
    def __init__(self):
        self.world = World(0)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._records: list[dict] = []
        self._first_arrival: float | None = None
        self._arrived = threading.Event()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = True
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "ChatStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def reset(self, world: World) -> None:
        """Answer from `world` from now on, with an empty request log."""
        with self._lock:
            self.world = world
            self._records = []
            self._first_arrival = None
            self._arrived.clear()

    def records(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    def first_arrival(self, timeout: float) -> float | None:
        """Arrival time of the first request since the last reset, waiting
        up to `timeout` seconds for it; None if none arrived."""
        self._arrived.wait(timeout)
        with self._lock:
            return self._first_arrival

    def _enter(self, arrived: float) -> int:
        with self._lock:
            if self._first_arrival is None:
                self._first_arrival = arrived
                self._arrived.set()
            self._in_flight += 1
            return self._in_flight

    def _leave(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def _record(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)
