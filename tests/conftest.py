import gc
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from queryboost.corpus import Document, build_index
from queryboost.embedding import HashingEmbedder
from queryboost.synthetic import make_synthetic_dataset


@pytest.fixture
def small_docs():
    return [
        Document("d1", "", "cat sat mat"),
        Document("d2", "", "dog sat log"),
        Document("d3", "", "cat cat cat"),
    ]


@pytest.fixture
def small_index(small_docs):
    return build_index(small_docs)


@pytest.fixture
def gc_disabled():
    """No cyclic garbage collection during the test: only reference counting frees."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def embedder():
    return HashingEmbedder(dimension=64, seed=3)


class CountingProvider:
    """Wraps a provider, records the texts of every embed_batch call; can be told to fail."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[list[str]] = []
        self.fail = False

    def embed_batch(self, texts):
        self.calls.append(list(texts))
        if self.fail:
            raise ConnectionError("service unavailable")
        return self.inner.embed_batch(texts)


@pytest.fixture
def counting(embedder):
    """A CountingProvider over the ``embedder`` fixture."""
    return CountingProvider(embedder)


@pytest.fixture(scope="session")
def synthetic_dataset():
    return make_synthetic_dataset()


class _StubHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP stub; behavior comes from the server's script list."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, reply, *extra = self.server.script[min(self.server.call_count,
                                                       len(self.server.script) - 1)]
        self.server.call_count += 1
        self.server.requests.append(body)
        self.server.request_headers.append(self.headers)
        if callable(reply):
            reply = reply(body)
        payload = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        headers = {"Content-Type": "application/json", "Content-Length": str(len(payload)),
                   **(extra[0] if extra else {})}
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub():
    """A loopback HTTP server answering each POST from ``script``: a list of
    (status, body or body-making callable[, headers]); the last entry repeats.
    A body is sent as JSON, or as is if it is bytes. The headers are sent too,
    and may replace the Content-Length of the body. Each response closes the
    connection. ``requests`` and ``request_headers`` record what each POST sent."""
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.script = [(200, {})]
    server.call_count = 0
    server.requests = []
    server.request_headers = []
    server.url = f"http://127.0.0.1:{server.server_address[1]}/"
    # a short poll, since shutdown() waits for serve_forever to next look (0.5 s by default)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
