"""The benchmark's own hashing embedding, written without importing queryboost.

It follows the definition queryboost documents for its hashing embedder:
lowercase, split on non-alphanumerics, hash each token with blake2b keyed by
the 8-byte little-endian seed into one of ``dimension`` buckets, count, and
L2-normalise. The stub embedding service serves these vectors and the checks
recompute them, so both agree with the program only if the program embeds,
pools and scores what it should.
"""

import hashlib
import re

import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def truncate(text: str, max_words: int | None) -> str:
    """Keep the first max_words whitespace-separated words."""
    if max_words is None:
        return text
    words = text.split()
    return text if len(words) <= max_words else " ".join(words[:max_words])


class HashVectors:
    """Bag-of-tokens vectors; ``memo`` keeps token buckets between calls."""

    def __init__(self, dimension: int, seed: int = 0,
                 max_words: int | None = None, memo: bool = False):
        self.dimension = dimension
        self.max_words = max_words
        self._key = seed.to_bytes(8, "little")
        self._memo: dict[str, int] | None = {} if memo else None

    def _bucket(self, token: str) -> int:
        if self._memo is not None and token in self._memo:
            return self._memo[token]
        digest = hashlib.blake2b(token.encode("utf-8"), key=self._key,
                                 digest_size=8).digest()
        bucket = int.from_bytes(digest, "little") % self.dimension
        if self._memo is not None:
            self._memo[token] = bucket
        return bucket

    def vector(self, text: str) -> np.ndarray:
        tokens = tokenize(truncate(text, self.max_words))
        if not tokens:
            raise ValueError("cannot embed text with no tokens")
        counts = np.bincount([self._bucket(t) for t in tokens],
                             minlength=self.dimension).astype(np.float64)
        return counts / np.linalg.norm(counts)
