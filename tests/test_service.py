"""The one retry policy, as both HTTP clients follow it."""

import pytest

from queryboost import service
from queryboost.embedding import RemoteEmbedder
from queryboost.generation import ChatCompletionClient, GenerationConfig
from queryboost.service import ServiceError


def _chat(url):
    return ChatCompletionClient(url).complete("p", GenerationConfig(model_id="m", n=1), 1)


def _chat_reply(body):
    return {"choices": [{"message": {"content": "P"}}]}


def _embed(url):
    return RemoteEmbedder(url, dimension=8).embed_batch(["a"])


def _embed_reply(body):
    return {"embeddings": [[1.0] * 8 for _ in body["input"]]}


@pytest.fixture(params=[(_chat, _chat_reply, "chat service"),
                        (_embed, _embed_reply, "embedding service")],
                ids=["chat", "embedding"])
def client(request, monkeypatch):
    """(call the client against a URL, a good reply, the service's name in errors)."""
    monkeypatch.setattr(service, "BACKOFF_S", 0.0)
    return request.param


class TestOnePolicy:
    def test_503_uses_every_attempt(self, client, http_stub):
        call, _, name = client
        http_stub.script = [(503, {"error": "busy"})]
        with pytest.raises(ServiceError, match=rf"{name} {http_stub.url}: failed after "
                                               rf"{service.ATTEMPTS} attempts: HTTP 503"):
            call(http_stub.url)
        assert http_stub.call_count == service.ATTEMPTS

    def test_400_is_one_request(self, client, http_stub):
        call, reply, name = client
        http_stub.script = [(400, {"error": "bad input"}), (200, reply)]
        with pytest.raises(ServiceError,
                           match=rf"{name} {http_stub.url}: rejected with HTTP 400: .*bad input"):
            call(http_stub.url)
        assert http_stub.call_count == 1

    def test_429_then_200_is_two_requests(self, client, http_stub):
        call, reply, _ = client
        http_stub.script = [(429, {"error": "slow down"}), (200, reply)]
        assert len(call(http_stub.url)) == 1
        assert http_stub.call_count == 2

    def test_truncated_body_is_retried(self, client, http_stub):
        call, reply, _ = client
        # the header promises more bytes than are sent before the connection closes
        http_stub.script = [(200, reply, 10_000), (200, reply)]
        assert len(call(http_stub.url)) == 1
        assert http_stub.call_count == 2
