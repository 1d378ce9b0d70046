#!/usr/bin/env python3
"""Loopback stub embedding service for the dense-remote workload.

Speaks the protocol ``queryboost.embedding.RemoteEmbedder`` expects:
``POST /`` with ``{"input": [texts]}`` answers ``{"embeddings": [[...]]}``.
Each answer carries ``X-Service-Ms``, the time spent parsing, embedding and
encoding it, so a client can split a round trip into service time and waiting.
``GET /stats`` returns the requests and texts served so far.

The server is single-threaded and keeps connections alive. Every response is
written in two sends (headers, then body), so Nagle's algorithm is switched
off: with it on, each request stalls about 40 ms on the client's delayed ACK.
The vectors come from the benchmark's own hashing embedding, computed afresh
for every text, so the service's cost does not depend on the program under
test.

    python3 perfbench/stub_embedder.py --dimension 256
prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until terminated.
"""

import argparse
import json
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from hashvec import HashVectors


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 30  # drop an idle keep-alive connection so a new one can be served

    def _send(self, body: bytes, service_ms: float | None = None) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if service_ms is not None:
            self.send_header("X-Service-Ms", f"{service_ms:.6f}")
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        texts = json.loads(self.rfile.read(length))["input"]
        vectors = [self.server.vectors.vector(t).tolist() for t in texts]
        body = json.dumps({"embeddings": vectors}).encode("utf-8")
        service_ms = (time.perf_counter() - start) * 1000.0
        self.server.requests += 1
        self.server.texts += len(texts)
        self._send(body, service_ms)

    def do_GET(self):
        if self.path != "/stats":
            self.send_error(404)
            return
        self._send(json.dumps({"requests": self.server.requests,
                               "texts": self.server.texts}).encode("utf-8"))

    def log_message(self, format, *args):
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dimension", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.vectors = HashVectors(args.dimension, args.seed)
    server.requests = 0
    server.texts = 0
    print(f"PORT {server.server_port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
