"""BM25 scoring and construction of the expanded sparse query.

The expanded query repeats the original query a number of times (adaptive in
the total pseudo-reference length, or a fixed repetition count) and appends
every reference's tokens, so query terms keep proportional weight against the
much longer references.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress

import numpy as np

from queryboost.corpus import InvertedIndex
from queryboost.tokenizer import tokenize


@dataclass(frozen=True)
class BM25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class ReweightConfig:
    """Query repetition strategy: adaptive(beta) or constant(t).

    Exactly one of ``beta`` / ``t`` is set. ``lambda_min`` floors the adaptive
    repetition count so the query is never absent from its own expansion.
    """

    beta: float | None = 4.0
    t: int | None = None
    lambda_min: int = 1

    def __post_init__(self):
        if (self.beta is None) == (self.t is None):
            raise ValueError("exactly one of beta (adaptive) or t (constant) must be set")
        if self.beta is not None and self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.t is not None and self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")

    @classmethod
    def adaptive(cls, beta: float = 4.0, lambda_min: int = 1) -> "ReweightConfig":
        return cls(beta=beta, t=None, lambda_min=lambda_min)

    @classmethod
    def constant(cls, t: int) -> "ReweightConfig":
        return cls(beta=None, t=t)


@dataclass(frozen=True)
class SparseQuery:
    """Token multiset of the expanded query, with its provenance."""

    tokens: tuple[str, ...]
    query_repeats: int
    num_references: int

    def counts(self) -> Counter:
        return Counter(self.tokens)


def idf(index: InvertedIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); non-negative for every df <= N."""
    t = index.term_ids.get(term)
    df = 0 if t is None else int(index.offsets[t + 1] - index.offsets[t])
    return idf_of_df(index.num_docs, df)


def idf_of_df(n: int, df: int) -> float:
    """The idf of a term found in df of n documents (see ``idf``)."""
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def bm25_search(index: InvertedIndex, params: BM25Params,
                query: SparseQuery, top_k: int) -> list[tuple[str, float]]:
    """Top-k documents with positive BM25 score, ties broken by ascending doc_id.

    Gathers the CSR postings of every distinct query term and scores them in
    one vectorized pass. The result is bit-identical to accumulating
    ``q * idf * tf * (k1 + 1) / (tf + k1 * norm)`` term by term in
    ``query.counts()`` order: the expression keeps that association, and
    ``bincount`` adds each document's contributions in input order.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    counts = query.counts()
    term_ids = list(map(index.term_ids.get, counts))
    q_counts = list(counts.values())
    if None in term_ids:  # drop query terms the index has never seen
        known = [t is not None for t in term_ids]
        term_ids, q_counts = list(compress(term_ids, known)), list(compress(q_counts, known))
    if not term_ids:
        return []

    starts = index.offsets[term_ids]
    lengths = index.offsets[np.add(term_ids, 1)] - starts  # the terms' df
    # idf_of_df per term: the same IEEE operations on the same values, with the
    # log from libm (math.log), not numpy's, whose SIMD log may differ in the last bit
    x = 1.0 + (index.num_docs - lengths + 0.5) / (lengths + 0.5)
    weights = np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=len(x))
    weights *= np.array(q_counts, dtype=np.float64)
    # Row numbers of every posting of those terms, term after term.
    ends = np.cumsum(lengths)
    rows = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
    doc = index.doc_ordinals[rows]
    tf = index.tfs[rows].astype(np.float64)
    b, k1 = params.b, params.k1
    # k1 * norm per document, gathered per posting; avgdl > 0 whenever a posting exists
    k1_norm = k1 * ((1.0 - b) + b * index.doc_lengths / index.avgdl)
    # ((q * idf) * tf) * (k1 + 1) / (tf + k1 * norm), in place
    contrib = np.repeat(weights, lengths)
    contrib *= tf
    contrib *= k1 + 1.0
    denom = k1_norm[doc]
    denom += tf
    contrib /= denom
    scores = np.bincount(doc, weights=contrib, minlength=index.num_docs)

    hits = np.flatnonzero(scores > 0.0)
    hit_scores = scores[hits]
    if len(hits) > top_k:
        kth = np.partition(hit_scores, len(hits) - top_k)[len(hits) - top_k]
        keep = hit_scores >= kth
        hits, hit_scores = hits[keep], hit_scores[keep]
    order = np.lexsort((hits, -hit_scores))[:top_k]
    ids = index.doc_ids
    return [(ids[d], s) for d, s in zip(hits[order].tolist(), hit_scores[order].tolist())]


def compute_lambda(references, query: str, beta: float, lambda_min: int = 1) -> int:
    """Adaptive query repetition count: floor(sum(len(r)) / (len(q) * beta))."""
    return _repeat_count(len(tokenize(query)), sum(len(tokenize(r)) for r in references),
                         beta, lambda_min)


def _repeat_count(q_len: int, total_ref_len: int, beta: float, lambda_min: int) -> int:
    """``compute_lambda`` from token counts."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if q_len == 0:
        raise ValueError("query tokenizes to zero tokens; repetition count undefined")
    return max(lambda_min, math.floor(total_ref_len / (q_len * beta)))


def build_sparse_query(query: str, references, config: ReweightConfig) -> SparseQuery:
    """Expand a query: repeat it, then append every reference's tokens."""
    ref_tokens = [tokenize(ref) for ref in references]
    q_tokens = tokenize(query)
    if config.beta is not None:
        if not ref_tokens:
            raise ValueError("adaptive reweighting requires at least one reference")
        repeats = _repeat_count(len(q_tokens), sum(map(len, ref_tokens)),
                                config.beta, config.lambda_min)
    else:
        repeats = config.t
    tokens = q_tokens * repeats
    for t in ref_tokens:
        tokens.extend(t)
    return SparseQuery(tokens=tuple(tokens), query_repeats=repeats,
                       num_references=len(ref_tokens))
