"""Loopback chat-completions stub for the translate-http workload.

    python3 perfbench/stub.py DELAY_MS ANSWERS REJECT LOG

Listens on 127.0.0.1 at a free port, prints the port on one line and
serves until its standard input closes. Each request is answered after
DELAY_MS with the translation ANSWERS (a JSON object) holds for the
prompt's current source, which follows the "<q>" marker. A source listed
in REJECT (a JSON list) gets a 429 on every odd-numbered request for it,
so each first attempt is refused and the retry succeeds. Every request is
logged to LOG as a JSON line with its status and raw body.

The status line, headers and body go out in one send: written in two, the
second write waits for the client's delayed ACK (about 40 ms on Linux).
It runs in its own process so its CPU time and interpreter lock stay out
of the client's numbers.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def make_handler(delay_s: float, answers: dict, reject: set, log):
    lock = threading.Lock()
    seen: dict[str, int] = {}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, *args):
            pass

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            body = raw.decode("utf-8")
            try:
                content = json.loads(body)["messages"][-1]["content"]
                source = content[content.rindex("<q>") + 3:].split("\n", 1)[0]
            except (ValueError, LookupError, TypeError):
                source = None
            with lock:
                n = seen.get(source, 0)
                seen[source] = n + 1
                if source not in answers:
                    status = 400
                elif source in reject and n % 2 == 0:
                    status = 429
                else:
                    status = 200
                log.write(json.dumps({"status": status, "body": body}, ensure_ascii=False) + "\n")
            time.sleep(delay_s)
            if status == 200:
                message = {"role": "assistant", "content": answers[source]}
                payload = {"choices": [{"index": 0, "message": message}]}
            else:
                payload = {"error": {"code": status, "message": "refused by the stub"}}
            data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            reason = {200: "OK", 400: "Bad Request", 429: "Too Many Requests"}[status]
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + data)

    return Handler


def main(argv: list[str]) -> None:
    delay_ms, answers_path, reject_path, log_path = argv
    with open(answers_path, encoding="utf-8") as fh:
        answers = json.load(fh)
    with open(reject_path, encoding="utf-8") as fh:
        reject = set(json.load(fh))
    with open(log_path, "w", encoding="utf-8") as log:
        handler = make_handler(float(delay_ms) / 1000.0, answers, reject, log)
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        print(server.server_address[1], flush=True)
        sys.stdin.read()
        server.shutdown()
        server.server_close()
        thread.join()


if __name__ == "__main__":
    main(sys.argv[1:])
