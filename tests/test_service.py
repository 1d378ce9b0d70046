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
        http_stub.script = [(200, reply, {"Content-Length": "10000"}), (200, reply)]
        assert len(call(http_stub.url)) == 1
        assert http_stub.call_count == 2


class TestRetryAfter:
    """A 429 or 503 may ask for a longer wait than the backoff, up to a cap."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        """The delays post_json asks time.sleep for; none is really waited."""
        waited = []
        monkeypatch.setattr(service.time, "sleep", waited.append)
        return waited

    @pytest.mark.parametrize("status", [429, 503])
    def test_longer_delay_than_the_backoff_is_waited(self, client, http_stub, sleeps,
                                                     status):
        call, reply, _ = client
        http_stub.script = [(status, {"error": "busy"}, {"Retry-After": "7"}), (200, reply)]
        assert len(call(http_stub.url)) == 1
        assert http_stub.call_count == 2
        assert sleeps == [7]

    def test_shorter_delay_than_the_backoff_keeps_the_backoff(self, client, http_stub,
                                                              sleeps, monkeypatch):
        call, reply, _ = client
        monkeypatch.setattr(service, "BACKOFF_S", 2.0)
        http_stub.script = [(503, {}, {"Retry-After": "1"}), (503, {}), (200, reply)]
        call(http_stub.url)
        assert sleeps == [2.0, 4.0]

    @pytest.mark.parametrize("value", ["", "soon", "-3", "1.5", "Wed, 21 Oct 2026 07:28:00 GMT"])
    def test_no_delay_in_seconds_falls_back_to_the_backoff(self, client, http_stub, sleeps,
                                                           monkeypatch, value):
        call, reply, _ = client
        monkeypatch.setattr(service, "BACKOFF_S", 0.25)
        http_stub.script = [(429, {}, {"Retry-After": value}), (200, reply)]
        call(http_stub.url)
        assert sleeps == [0.25]

    def test_delay_past_the_cap_gives_up_at_once(self, client, http_stub, sleeps):
        call, reply, name = client
        asked = service.RETRY_AFTER_MAX_S + 1
        http_stub.script = [(503, {"error": "down"}, {"Retry-After": str(asked)}),
                            (200, reply)]
        with pytest.raises(ServiceError, match=rf"{name} {http_stub.url}: asked to retry "
                                               rf"after {asked} s, more than the "
                                               rf"{service.RETRY_AFTER_MAX_S} s"):
            call(http_stub.url)
        assert http_stub.call_count == 1
        assert sleeps == []

    def test_delay_at_the_cap_is_waited(self, client, http_stub, sleeps):
        call, reply, _ = client
        cap = service.RETRY_AFTER_MAX_S
        http_stub.script = [(429, {}, {"Retry-After": str(cap)}), (200, reply)]
        call(http_stub.url)
        assert sleeps == [cap]

    def test_other_statuses_ignore_it(self, client, http_stub, sleeps):
        # a 500 carrying Retry-After keeps the backoff, and a 400 still fails at once
        call, reply, _ = client
        http_stub.script = [(500, {}, {"Retry-After": "9"}), (200, reply)]
        call(http_stub.url)
        assert sleeps == [0.0]
        http_stub.call_count = 0
        http_stub.script = [(400, {}, {"Retry-After": str(service.RETRY_AFTER_MAX_S + 1)})]
        with pytest.raises(ServiceError, match="rejected with HTTP 400"):
            call(http_stub.url)
        assert http_stub.call_count == 1
