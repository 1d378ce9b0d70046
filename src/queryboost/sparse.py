"""BM25 scoring and construction of the expanded sparse query.

The expanded query repeats the original query a number of times (adaptive in
the total pseudo-reference length, or a fixed repetition count) and appends
every reference's tokens, so query terms keep proportional weight against the
much longer references.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from queryboost.corpus import InvertedIndex
from queryboost.tokenizer import tokenize


@dataclass(frozen=True)
class BM25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if not 0 <= self.k1 < math.inf:
            raise ValueError(f"k1 must be in [0, inf), got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class ReweightConfig:
    """Query repetition strategy: adaptive(beta) or constant(t).

    Exactly one of ``beta`` / ``t`` is set. The adaptive repetition count is at
    least 1, so the query is never absent from its own expansion.
    """

    beta: float | None = 4.0
    t: int | None = None

    def __post_init__(self):
        if (self.beta is None) == (self.t is None):
            raise ValueError("exactly one of beta (adaptive) or t (constant) must be set")
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be in (0, inf), got {self.beta}")
        if self.t is not None and self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")

    @classmethod
    def adaptive(cls, beta: float = 4.0) -> "ReweightConfig":
        return cls(beta=beta, t=None)

    @classmethod
    def constant(cls, t: int) -> "ReweightConfig":
        return cls(beta=None, t=t)


@dataclass(frozen=True)
class SparseQuery:
    """Term counts of the expanded query in first-appearance order (no zero count),
    with its provenance."""

    tokens: Counter
    query_repeats: int
    num_references: int


def idf(index: InvertedIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); non-negative for every df <= N."""
    t = index.term_ids.get(term)
    df = 0 if t is None else int(index.offsets[t + 1] - index.offsets[t])
    return math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))


def bm25_search(index: InvertedIndex, params: BM25Params,
                query: SparseQuery, top_k: int) -> list[tuple[str, float]]:
    """Top-k documents with positive BM25 score, ties broken by ascending doc_id.

    Gathers the CSR postings of every distinct query term and scores them in
    one vectorized pass. The result is bit-identical to accumulating
    ``q * idf * tf * (k1 + 1) / (tf + k1 * norm)`` term by term in
    ``query.tokens`` order: the expression keeps that association, and
    ``bincount`` adds each document's contributions in input order.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    term_ids = list(map(index.term_ids.get, query.tokens))
    q_counts = list(query.tokens.values())
    if None in term_ids:  # drop query terms the index has never seen
        known = [t is not None for t in term_ids]
        term_ids, q_counts = list(compress(term_ids, known)), list(compress(q_counts, known))
    if not term_ids:
        return []

    starts = index.offsets[term_ids]
    lengths = index.offsets[np.add(term_ids, 1)] - starts  # the terms' df
    # idf per term: the same IEEE operations on the same values as ``idf``, with the
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


def compute_lambda(references, query: str, beta: float) -> int:
    """Adaptive query repetition count: max(1, floor(sum(len(r)) / (len(q) * beta)))."""
    return _repeat_count(len(tokenize(query)), sum(len(tokenize(r)) for r in references), beta)


def _repeat_count(q_len: int, total_ref_len: int, beta: float) -> int:
    """``compute_lambda`` from token counts."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if q_len == 0:
        raise ValueError("query tokenizes to zero tokens; repetition count undefined")
    return max(1, math.floor(total_ref_len / (q_len * beta)))


def build_sparse_query(query: str, references, config: ReweightConfig) -> SparseQuery:
    """Expand a query: repeat it, then append every reference's tokens, as term counts."""
    ref_tokens = [tokenize(ref) for ref in references]
    q_tokens = tokenize(query)
    if config.beta is not None:
        if not ref_tokens:
            raise ValueError("adaptive reweighting requires at least one reference")
        repeats = _repeat_count(len(q_tokens), sum(map(len, ref_tokens)), config.beta)
    else:
        repeats = config.t
    return SparseQuery(tokens=Counter(chain(q_tokens * repeats, *ref_tokens)),
                       query_repeats=repeats, num_references=len(ref_tokens))
