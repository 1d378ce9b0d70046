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
def embedder():
    return HashingEmbedder(dimension=64, seed=3)


class CountingProvider:
    """Wraps a provider, records the texts of every embed_batch call; can be told to fail."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.max_input_tokens = inner.max_input_tokens
        self.calls: list[list[str]] = []
        self.fail = False

    def embed(self, text):
        return self.embed_batch([text])[0]

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
