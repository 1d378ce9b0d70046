"""Query-reference integration strategies and dense reranking of BM25 candidates.

Three ways to fold pseudo-references into the query embedding:

- concat: embed the query concatenated with all references (order-sensitive,
  bounded by the provider's input window; the query goes first so it always
  survives truncation).
- mean_pool: average the query embedding with each reference embedding.
- contex_pool: average the embeddings of each (query + reference) pair.

``rerank`` takes the candidates as doc id -> text, the text BM25 indexed, and
embeds them in one ``embed_batch`` call. Inside the pipeline the provider is
an ``EmbeddingMemo`` that lives for one ``run_pipeline`` or
``run_query_pipeline`` call and holds every distinct text that call embeds, so
a document shared by several queries or stages reaches the underlying provider
once per call. With a ``HashingEmbedder`` the memo already holds every
candidate's vector when ``rerank`` runs (``EmbeddingMemo.add_documents``), so
no document text reaches the provider.
"""

import numpy as np

from queryboost.embedding import EmbeddingProvider, cosine_scores
from queryboost.generation import ReferenceSet

STRATEGIES = ("concat", "mean_pool", "contex_pool")


def embed_concat(provider: EmbeddingProvider, query: str,
                 refs: ReferenceSet) -> np.ndarray:
    """Embed the space-joined concatenation of query and all references."""
    return provider.embed(" ".join([query, *refs.references]))


def embed_mean_pool(provider: EmbeddingProvider, query: str,
                    refs: ReferenceSet) -> np.ndarray:
    """(f(q) + sum_i f(r_i)) / (n + 1), componentwise."""
    vectors = provider.embed_batch([query, *refs.references])
    return np.mean(vectors, axis=0)


def embed_contex_pool(provider: EmbeddingProvider, query: str,
                      refs: ReferenceSet) -> np.ndarray:
    """Mean over references of f(query + reference); permutation-invariant."""
    vectors = provider.embed_batch([f"{query} {r}" for r in refs.references])
    return np.mean(vectors, axis=0)


def embed_query(provider: EmbeddingProvider, query: str,
                refs: ReferenceSet | None, strategy: str) -> np.ndarray:
    """Dispatch on strategy; with no references, falls back to the raw query."""
    if refs is None:
        return provider.embed(query)
    if strategy == "concat":
        return embed_concat(provider, query, refs)
    if strategy == "mean_pool":
        return embed_mean_pool(provider, query, refs)
    if strategy == "contex_pool":
        return embed_contex_pool(provider, query, refs)
    raise ValueError(f"unknown integration strategy: {strategy!r}")


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
