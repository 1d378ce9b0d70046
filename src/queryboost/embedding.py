"""Embedding providers and cosine similarity.

A provider maps texts to fixed-dimension vectors in ``embed_batch``, the one
call the program makes. Two implementations: a deterministic hashing embedder
(tests and synthetic experiments) and a remote JSON-over-HTTP service.
``EmbeddingMemo`` wraps either for the length of one pipeline call, so that
each distinct text is embedded once per call. The
hashing embedder can also give an index's documents their vectors with no
tokenizing (``HashingEmbedder.embed_documents``), with the same bits: it
counts each document's tokens per bucket once, from the postings, into one
table that it keeps for each index until the index is freed.
"""

import hashlib
import math
import weakref
from bisect import bisect_left
from itertools import chain
from typing import Protocol

import numpy as np
import requests

from queryboost.corpus import InvertedIndex
from queryboost.service import ServiceError, post_json
from queryboost.tokenizer import tokenize


# Below this norm the squares of the components underflow, which loses precision
# or reads a nonzero vector as zero (the square root of the smallest normal double).
# Above the other a squared norm may overflow to inf, which would read every score
# as 0; between them a product of two norms and every dot product stay finite and normal.
_TINY_NORM = 1e-150
_HUGE_NORM = 1e150


@np.errstate(over="ignore")  # an overflowing squared norm is caught and rescaled below
def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|), in [-1, 1]. Errors on zero or non-finite vectors or dim mismatch."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if not (_TINY_NORM <= nu <= _HUGE_NORM and _TINY_NORM <= nv <= _HUGE_NORM):
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("cosine similarity undefined for a non-finite component")
        su, sv = np.max(np.abs(u)), np.max(np.abs(v))
        if su == 0.0 or sv == 0.0:
            raise ValueError("cosine similarity undefined for zero vector")
        return cosine_sim(u / su, v / sv)  # scale-invariant; both norms now in [1, sqrt(d)]
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


@np.errstate(over="ignore")
def cosine_scores(u: np.ndarray, vectors) -> list[float]:
    """``[cosine_sim(u, v) for v in vectors]``, bit for bit, without its per-call overhead.

    ``u`` is a 1-D vector, converted and its norm taken once; each float64 row
    costs one ``v.dot(v)`` and one ``u.dot(v)``, the same BLAS dot products
    ``cosine_sim`` computes (``np.linalg.norm`` of a 1-D float64 array is
    ``sqrt(x.dot(x))``), with the division and the clip done on Python floats.
    A matrix-vector product would not do: it sums in another order and changes
    the last bits of most rows. Rows with a tiny, zero, huge or non-finite norm,
    another shape or another dtype go to ``cosine_sim``, which rescales them or
    raises; so does every row if ``u``'s norm is one of those.
    """
    u = np.asarray(u, dtype=np.float64)
    nu = math.sqrt(u.dot(u))
    u_in_range = _TINY_NORM <= nu <= _HUGE_NORM
    scores = []
    for v in vectors:
        if type(v) is np.ndarray and v.dtype == np.float64 and v.shape == u.shape:
            nv = math.sqrt(v.dot(v))
            if u_in_range and _TINY_NORM <= nv <= _HUGE_NORM:
                s = float(u.dot(v)) / (nu * nv)
                scores.append(-1.0 if s < -1.0 else 1.0 if s > 1.0 else s)
                continue
        scores.append(cosine_sim(u, v))
    return scores


def truncate_text(text: str, max_tokens: int) -> str:
    """Keep the first max_tokens whitespace-separated words (tail-first cut)."""
    words = text.split()
    return text if len(words) <= max_tokens else " ".join(words[:max_tokens])


class EmbeddingProvider(Protocol):
    def embed_batch(self, texts: list[str]) -> list[np.ndarray]: ...


class _Buckets(dict):
    """token -> bucket, fixed by a seed and a dimension; looking up a new token hashes it."""

    def __init__(self, seed: int, dimension: int):
        self._keyed = hashlib.blake2b(key=seed.to_bytes(8, "little"), digest_size=8)
        self._dimension = dimension

    def digest(self, token: str) -> bytes:
        hasher = self._keyed.copy()  # keyed once; each token is hashed by a copy
        hasher.update(token.encode("utf-8"))
        return hasher.digest()

    def __missing__(self, token: str) -> int:
        self[token] = bucket = int.from_bytes(self.digest(token), "little") % self._dimension
        return bucket


class HashingEmbedder:
    """Deterministic bag-of-tokens embedder: hash tokens into d buckets, L2-normalize.

    Same (seed, text) always yields the same vector; token-disjoint texts are
    orthogonal unless buckets collide. Used in tests and synthetic runs. A
    token's bucket is its keyed blake2b digest (the key is ``seed`` as 8
    little-endian bytes), read as a little-endian integer, modulo ``dimension``.
    Every token of a text counts: a bag of hashed tokens has no input window.
    """

    max_input_tokens = None  # no input window; the benchmark's traced provider reads it

    def __init__(self, dimension: int = 64, seed: int = 0):
        if dimension < 8:
            raise ValueError(f"dimension must be >= 8, got {dimension}")
        if type(seed) is not int or not 0 <= seed < 2**64:
            raise ValueError(f"embedding seed must be an integer in [0, 2**64), got {seed!r}")
        self.dimension = dimension
        self.seed = seed
        self._buckets = _Buckets(seed, dimension)
        # index -> (counts, norms); an entry goes as soon as its index is freed
        self._tables = weakref.WeakKeyDictionary()

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        """Embed all texts in one pass: one bucket lookup per token, one bincount.

        The counts are integers, so each row's sum of squares is exact and the
        rows equal ``counts / np.linalg.norm(counts)`` per text bit for bit.
        """
        token_lists = [tokenize(t) for t in texts]
        if not all(token_lists):
            raise ValueError("cannot embed text with no tokens")
        n, d = len(texts), self.dimension
        keys = np.repeat(np.arange(0, n * d, d), list(map(len, token_lists)))
        keys += np.fromiter(map(self._buckets.__getitem__, chain.from_iterable(token_lists)),
                            dtype=np.int64, count=len(keys))
        counts = np.bincount(keys, minlength=n * d).reshape(n, d).astype(np.float64)
        counts /= np.sqrt(np.einsum("ij,ij->i", counts, counts))[:, None]
        return list(counts)

    def _table(self, index: InvertedIndex) -> tuple[np.ndarray, np.ndarray]:
        """``index``'s bucket counts and each row's norm, built whole on first use.

        ``counts[i, b]`` is the number of document ``i``'s tokens in bucket
        ``b``, at the narrowest unsigned dtype that holds the longest
        document's length, which bounds every cell. One ``np.add.at`` adds each
        posting's tf at its document and its term's bucket, with each term
        hashed once; ``np.bincount`` would make an N x d float64 temporary, 8 MB
        on 4,000 documents. The counts are integers, so the float64 norms are
        exact. The table is kept until ``index`` is freed; threads racing to
        the first build may each build it, and get equal tables.
        """
        table = self._tables.get(index)
        if table is not None:
            return table
        digests = np.frombuffer(b"".join(map(self._buckets.digest, index.terms)), dtype="<u8")
        term_buckets = (digests % self.dimension).astype(np.min_scalar_type(self.dimension - 1))
        dtype = np.min_scalar_type(int(index.doc_lengths.max(initial=0)))
        counts = np.zeros((index.num_docs, self.dimension), dtype=dtype)
        # tfs at the table's dtype: np.add.at is several times slower on mixed dtypes
        np.add.at(counts, (index.doc_ordinals, np.repeat(term_buckets, np.diff(index.offsets))),
                  index.tfs.astype(dtype, copy=False))
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts, dtype=np.int64))
        counts.flags.writeable = norms.flags.writeable = False
        self._tables[index] = table = counts, norms
        return table

    def embed_documents(self, index: InvertedIndex, ordinals) -> list[np.ndarray]:
        """Rows equal, bit for bit, to ``embed_batch`` of the documents' indexed text.

        ``ordinals`` are document ordinals of ``index`` (in any order, repeats
        allowed). Each row is the document's row of the index's bucket counts
        (see ``_table``) over its norm, with no tokenizing. A document with no
        tokens is the same ValueError as in ``embed_batch``.
        """
        counts, norms = self._table(index)
        ordinals = np.asarray(ordinals, dtype=np.intp)
        norms = norms[ordinals]
        if not norms.all():
            raise ValueError("cannot embed text with no tokens")
        rows = counts[ordinals].astype(np.float64)
        rows /= norms[:, None]
        return list(rows)


EMBED_TIMEOUT_S = 30.0


class RemoteEmbedder:
    """JSON-over-HTTP embedding service: {"input": [texts]} -> {"embeddings": [[...]]}.

    Outputs are order-preserving; inputs are truncated client-side to their
    first ``max_input_tokens`` words and sent in batches of ``batch_size``,
    each retried as ``service.post_json`` does. Giving up, or a body that is
    not JSON, lacks the ``embeddings`` list, or holds the wrong number of
    vectors, a vector of the wrong dimension, or one with a NaN, an infinite
    or no nonzero component, raises ``ServiceError``. ``dimension`` must be >= 1.
    """

    max_input_tokens = 512
    batch_size = 32

    def __init__(self, endpoint: str, dimension: int,
                 session: requests.Session | None = None):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.endpoint = endpoint
        self.dimension = dimension
        self._session = session or requests.Session()

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            batch = [truncate_text(t, self.max_input_tokens)
                     for t in texts[start:start + self.batch_size]]
            resp = post_json(self._session, "embedding service", self.endpoint,
                             {"input": batch}, EMBED_TIMEOUT_S)
            vectors.extend(self._vectors(resp, len(batch)))
        return vectors

    def _error(self, problem: str) -> ServiceError:
        return ServiceError("embedding service", self.endpoint, problem)

    def _vectors(self, resp, expected: int) -> list[np.ndarray]:
        """The vectors of one response body, checked against the request."""
        try:
            embeddings = resp.json()["embeddings"]
        except ValueError as exc:
            raise self._error(f"response body is not JSON: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise self._error("response body has no 'embeddings' key") from exc
        if not isinstance(embeddings, list):
            raise self._error("'embeddings' is not a list")
        if len(embeddings) != expected:
            raise self._error(f"returned {len(embeddings)} vectors for {expected} inputs")
        vectors = []
        for i, emb in enumerate(embeddings):
            try:
                vec = np.asarray(emb, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise self._error(f"vector {i} is not a list of numbers: {exc}") from exc
            if vec.shape != (self.dimension,):
                raise self._error(
                    f"expected dimension {self.dimension}, got shape {vec.shape}")
            if not np.isfinite(vec).all():
                raise self._error(f"vector {i} holds a NaN or infinite component")
            if not vec.any():
                raise self._error(f"vector {i} is all zeros")
            vectors.append(vec)
        return vectors


class EmbeddingMemo:
    """Text-keyed memo over a provider, made for one pipeline call or sweep and dropped after.

    ``embed_batch`` answers texts it has seen from memory and sends every unseen
    distinct text to the wrapped provider in one ``embed_batch`` call. A failed
    call stores nothing. Vectors are returned as the provider made them, so a
    text's vector is the same whether it came from memory or not;
    ``add_documents`` stores vectors equal to those too. The memo offers only
    ``embed_batch``; the wrapped provider's own settings, such as its
    dimension, are read from ``provider``.
    """

    def __init__(self, provider: EmbeddingProvider):
        self.provider = provider
        self._vectors: dict[str, np.ndarray] = {}

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        unseen = list(dict.fromkeys(t for t in texts if t not in self._vectors))
        if unseen:
            vectors = self.provider.embed_batch(unseen)
            if len(vectors) != len(unseen):
                raise ValueError(f"provider returned {len(vectors)} vectors "
                                 f"for {len(unseen)} texts")
            self._vectors.update(zip(unseen, vectors))
        return [self._vectors[t] for t in texts]

    def add_documents(self, index: InvertedIndex, texts: dict[str, str]) -> None:
        """Store the vectors of ``texts``, a map from doc ids of ``index`` to their indexed text.

        Each text must be the one the index was built from, as ``check_corpus``
        makes sure: its vector is stored under that text. Only a provider with
        an ``embed_documents`` method, such as a ``HashingEmbedder``, can count
        them from the index, with the bits ``embed_batch`` would give the
        texts. For any other provider this does nothing, and each text goes to
        the provider when a stage first asks for it.
        """
        embed_documents = getattr(self.provider, "embed_documents", None)
        if embed_documents is None:
            return
        unseen: dict[str, int] = {}  # text -> ordinal
        for doc_id, text in texts.items():
            if text not in self._vectors and text not in unseen:
                unseen[text] = bisect_left(index.doc_ids, doc_id)
        if unseen:
            self._vectors.update(zip(unseen, embed_documents(index, list(unseen.values()))))
