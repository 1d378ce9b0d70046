"""Relevance-feedback calibration of the query embedding.

Classic Rocchio refinement is kept as a reference implementation. The adapted
variant builds a positive set from the pseudo-references plus the documents in
the top-K of both the sparse and the dense ranking, a negative set from the
tail of the sparse ranking, and recombines them into a calibrated embedding
that produces the final ranking.
"""

import math
from dataclasses import dataclass

import numpy as np

from queryboost.embedding import EmbeddingProvider
from queryboost.generation import ReferenceSet


@dataclass(frozen=True)
class RocchioWeights:
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class CalibrationConfig:
    alpha: float = 0.2
    k_reciprocal: int = 10
    num_negatives: int = 5

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be in [0, inf), got {self.alpha}")
        if self.k_reciprocal < 1:
            raise ValueError(f"k_reciprocal must be >= 1, got {self.k_reciprocal}")
        if self.num_negatives < 0:
            raise ValueError(f"num_negatives must be >= 0, got {self.num_negatives}")


@dataclass(frozen=True)
class FeedbackSets:
    """Positive texts (references + reciprocal docs), negative texts (sparse tail)."""

    positives: tuple[str, ...]
    negatives: tuple[str, ...]

    def __post_init__(self):
        if not self.positives:
            raise ValueError("positives must be non-empty")

    @property
    def w(self) -> int:
        return len(self.positives) + len(self.negatives)


def rocchio_classic(e_q: np.ndarray, pos: list[np.ndarray], neg: list[np.ndarray],
                    w: RocchioWeights) -> np.ndarray:
    """a*e_q + (b/|pos|)*sum(pos) - (c/|neg|)*sum(neg)."""
    out = w.a * np.asarray(e_q, dtype=np.float64)
    if w.b != 0.0:
        if not pos:
            raise ValueError("positive set empty but b != 0")
        out = out + (w.b / len(pos)) * np.sum(pos, axis=0)
    if w.c != 0.0:
        if not neg:
            raise ValueError("negative set empty but c != 0")
        out = out - (w.c / len(neg)) * np.sum(neg, axis=0)
    return out


def build_feedback_sets(i_bm25: list[tuple[str, float]],
                        i_pre: list[tuple[str, float]],
                        refs: ReferenceSet,
                        texts: dict[str, str],
                        cfg: CalibrationConfig) -> FeedbackSets:
    """Assemble positive and negative feedback texts from the two rankings.

    Positives: all reference texts, then the texts of documents in the top-K of
    both rankings (ordered by dense rank, deduplicated). Negatives: the last
    ``num_negatives`` entries of the sparse ranking, order preserved; a document
    that would land in both sets stays positive only. ``texts`` maps each
    candidate's doc id to its text; every id read here is in ``i_bm25``.
    """
    if not i_bm25:
        raise ValueError("sparse ranking is empty")

    k = cfg.k_reciprocal
    top_bm25 = {doc_id for doc_id, _ in i_bm25[:k]}
    top_pre = [doc_id for doc_id, _ in i_pre[:k]]
    reciprocal = [doc_id for doc_id in top_pre if doc_id in top_bm25]

    positives: list[str] = list(refs.references)
    seen = set()
    for doc_id in reciprocal:
        if doc_id not in seen:
            seen.add(doc_id)
            positives.append(texts[doc_id])

    tail = i_bm25[-cfg.num_negatives:] if cfg.num_negatives else []
    negatives = [texts[doc_id] for doc_id, _ in tail if doc_id not in seen]

    return FeedbackSets(positives=tuple(positives), negatives=tuple(negatives))


@np.errstate(over="ignore")  # an overflow is reported below, naming alpha
def calibrate(provider: EmbeddingProvider, query: str, fb: FeedbackSets,
              cfg: CalibrationConfig) -> np.ndarray:
    """(1/W) * (sum_r f(query + r) - alpha * sum_n f(n)).

    Positives are embedded with the query prefixed; negatives are embedded raw,
    all in one ``embed_batch`` call. A result that is not finite, as when alpha
    times the negatives overflows, is a ValueError naming alpha.
    """
    n = len(fb.positives)
    vecs = provider.embed_batch([*(f"{query} {p}" for p in fb.positives), *fb.negatives])
    out = np.sum(vecs[:n], axis=0)
    if fb.negatives:
        out = out - cfg.alpha * np.sum(vecs[n:], axis=0)
    out = out / fb.w
    if not np.isfinite(out).all():
        raise ValueError(f"calibrated embedding is not finite (alpha {cfg.alpha})")
    return out
