"""Query-reference integration strategies and dense reranking of BM25 candidates.

Three ways to fold pseudo-references into the query embedding, which differ
only in the texts whose vectors ``embed_query`` averages:

- concat: the query and all references joined by spaces, as one text
  (order-sensitive, bounded by the provider's input window; the query goes
  first so it always survives truncation).
- mean_pool: the query and each reference.
- contex_pool: each (query + reference) pair.

``rerank`` takes the candidates as doc id -> text, the text BM25 indexed, and
embeds them in one ``embed_batch`` call; inside the pipeline that call goes
through the pipeline's ``EmbeddingMemo``.
"""

import numpy as np

from queryboost.embedding import EmbeddingProvider, cosine_scores
from queryboost.generation import ReferenceSet

STRATEGIES = ("concat", "mean_pool", "contex_pool")


def embed_query(provider: EmbeddingProvider, query: str,
                refs: ReferenceSet | None, strategy: str) -> np.ndarray:
    """The mean of the vectors of the strategy's texts, from one ``embed_batch`` call.

    With no references the one text is the raw query; the mean of one row is
    that row, bit for bit.
    """
    if refs is None:
        texts = [query]
    elif strategy == "concat":
        texts = [" ".join([query, *refs.references])]
    elif strategy == "mean_pool":
        texts = [query, *refs.references]
    elif strategy == "contex_pool":
        texts = [f"{query} {r}" for r in refs.references]
    else:
        raise ValueError(f"unknown integration strategy: {strategy!r}")
    return np.mean(provider.embed_batch(texts), axis=0)


def rerank(provider: EmbeddingProvider, query_embedding: np.ndarray,
           candidates: dict[str, str]) -> list[tuple[str, float]]:
    """Sort candidates (doc id -> text to embed) by cosine similarity to the query embedding.

    Ties broken by ascending doc_id; the output is a permutation of the keys.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    try:
        vectors = provider.embed_batch(list(candidates.values()))
    except Exception as exc:
        ids = ", ".join(map(repr, candidates))
        raise RuntimeError(f"embedding failed for candidate docs {ids}: {exc}") from exc
    scored = list(zip(candidates, cosine_scores(query_embedding, vectors), strict=True))
    scored.sort(key=lambda ds: (-ds[1], ds[0]))
    return scored
