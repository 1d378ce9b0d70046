"""End-to-end pipeline: sparse retrieval, dense rerank, calibration, evaluation.

For each query: expand it with cached pseudo-references and retrieve the
top-k candidates with BM25, rerank those candidates with the pooled query
embedding, then calibrate the embedding with relevance feedback and rank once
more. All three rankings are kept for analysis.

Each ``run_pipeline`` or ``run_query_pipeline`` call wraps its provider in one
``EmbeddingMemo`` that lives for that call only and holds every distinct text
the call embeds: document texts, pooled query texts and feedback texts. Each
stage embeds its texts in one batch, and only texts the memo has not seen
reach the provider. Dense stages embed documents under the index's
``field_policy``, as BM25 indexed them.

Right after BM25 the memo is asked to add the candidates' vectors
(``EmbeddingMemo.add_documents``). A ``HashingEmbedder`` reads them from the
bucket counts it keeps for the index, counted from the postings on first use,
bit for bit as from the text, so rerank, the final rank and calibration's
negatives find every document in the memo and no document text reaches the
provider. Any other provider (one without ``embed_documents``) embeds the
document texts as before.
"""

import math
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real

from queryboost.calibration import CalibrationConfig, build_feedback_sets, calibrate
from queryboost.corpus import Document, InvertedIndex
from queryboost.embedding import EmbeddingMemo, EmbeddingProvider
from queryboost.evaluation import EvalReport, Qrels, Ranking, evaluate_run
from queryboost.generation import ReferenceCache, ReferenceSet, cached_references
from queryboost.rerank import STRATEGIES, embed_query, rerank
from queryboost.sparse import BM25Params, ReweightConfig, SparseQuery, bm25_search, build_sparse_query
from queryboost.tokenizer import tokenize

SWEEP_AXES = ("beta", "t", "alpha", "n_refs", "strategy")
# the values each numeric axis takes as they are, never rounded or converted
_AXIS_VALUES = {"beta": (Real, "a finite number"), "alpha": (Real, "a finite number"),
                "t": (Integral, "an integer"), "n_refs": (Integral, "an integer")}
# The final rank is a rerank by the calibrated embedding; perfbench times it under this name.
final_rank = rerank


@dataclass(frozen=True)
class PipelineConfig:
    bm25: BM25Params = field(default_factory=BM25Params)
    reweight: ReweightConfig = field(default_factory=ReweightConfig.adaptive)
    strategy: str = "contex_pool"
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    retrieve_k: int = 100
    eval_k: int = 10

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown integration strategy: {self.strategy!r}")
        if self.retrieve_k < self.eval_k:
            raise ValueError(
                f"retrieve_k ({self.retrieve_k}) must be >= eval_k ({self.eval_k})")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PipelineRankings:
    """The three per-query rankings: sparse, dense pre-calibration, final."""

    bm25: Ranking
    pre: Ranking
    post: Ranking


def sparse_ranking(query: str, refs: ReferenceSet | None, index: InvertedIndex,
                   bm25: BM25Params, reweight: ReweightConfig,
                   k: int) -> list[tuple[str, float]]:
    """The sparse stage: BM25's top k for the query expanded with refs, or alone if None."""
    if refs is None:
        sq = SparseQuery(tuple(tokenize(query)), query_repeats=1, num_references=0)
    else:
        sq = build_sparse_query(query, refs.references, reweight)
    return bm25_search(index, bm25, sq, k)


def run_query_pipeline(query_id: str, query: str, index: InvertedIndex,
                       doc_store: dict[str, Document], provider: EmbeddingProvider,
                       refs: ReferenceSet | None,
                       cfg: PipelineConfig) -> PipelineRankings:
    """Run the full pipeline for one query.

    With no references the sparse stage uses the plain query and the dense
    stage the raw query embedding (the no-expansion baseline); calibration is
    skipped because there is no positive feedback to build from. A provider
    that is not already an ``EmbeddingMemo`` is wrapped in one for this query.
    """
    if not isinstance(provider, EmbeddingMemo):
        provider = EmbeddingMemo(provider)
    i_bm25 = sparse_ranking(query, refs, index, cfg.bm25, cfg.reweight, cfg.retrieve_k)
    if not i_bm25:
        empty = Ranking(query_id=query_id, items=())
        return PipelineRankings(bm25=empty, pre=empty, post=empty)

    candidates = [doc_store[doc_id] for doc_id, _ in i_bm25]
    provider.add_documents(index, candidates)
    policy = index.field_policy

    q_emb = embed_query(provider, query, refs, cfg.strategy)
    i_pre = rerank(provider, q_emb, candidates, policy)

    if refs is not None:
        fb = build_feedback_sets(i_bm25, i_pre, refs, doc_store, cfg.calibration, policy)
        calibrated = calibrate(provider, query, fb, cfg.calibration)
        i_post = final_rank(provider, calibrated, candidates, policy)
    else:
        i_post = i_pre

    return PipelineRankings(
        bm25=Ranking(query_id=query_id, items=tuple(i_bm25)),
        pre=Ranking(query_id=query_id, items=tuple(i_pre)),
        post=Ranking(query_id=query_id, items=tuple(i_post)))


def run_pipeline(queries: list[tuple[str, str]], index: InvertedIndex,
                 doc_store: dict[str, Document], provider: EmbeddingProvider,
                 cache: ReferenceCache, model_id: str, cfg: PipelineConfig,
                 n_refs: int | None = None) -> list[PipelineRankings]:
    """Run the pipeline over a query set using cached references.

    ``n_refs`` restricts each cached set to its first j references; 0 means
    the no-expansion baseline. A cache miss is a CacheMissError naming the
    query, and references cached for another query text a StaleReferencesError.
    One ``EmbeddingMemo`` serves all queries of this call.
    """
    provider = EmbeddingMemo(provider)
    results = []
    for query_id, query in queries:
        refs = (None if n_refs == 0
                else cached_references(cache, query_id, query, model_id, n_refs))
        results.append(run_query_pipeline(query_id, query, index, doc_store,
                                          provider, refs, cfg))
    return results


@dataclass
class KeywordOverlapReport:
    """Highest-idf token sets of ground-truth vs pseudo-reference text."""

    query_id: str
    gt_top: list[str]
    pse_top: list[str]
    query_tokens: list[str]
    gt_pse_overlap: int
    gt_query_overlap: int

    def to_dict(self) -> dict:
        return asdict(self)


def top_idf_tokens(text: str, index: InvertedIndex, m: int) -> list[str]:
    """The m distinct tokens of text with highest idf (ties by token)."""
    from queryboost.sparse import idf

    tokens = sorted(set(tokenize(text)))
    tokens.sort(key=lambda t: (-idf(index, t), t))
    return tokens[:m]


def keyword_overlap(query: str, refs: ReferenceSet, gt_docs: list[Document],
                    index: InvertedIndex, m: int = 10) -> KeywordOverlapReport:
    """Compare the top-m idf vocabularies of ground-truth docs and references."""
    if not gt_docs:
        raise ValueError("gt_docs must be non-empty")
    gt_text = " ".join(d.indexed_text(index.field_policy) for d in gt_docs)
    pse_text = " ".join(refs.references)

    gt_top = top_idf_tokens(gt_text, index, m)
    pse_top = top_idf_tokens(pse_text, index, m)
    q_tokens = sorted(set(tokenize(query)))

    return KeywordOverlapReport(
        query_id=refs.query_id, gt_top=gt_top, pse_top=pse_top,
        query_tokens=q_tokens,
        gt_pse_overlap=len(set(gt_top) & set(pse_top)),
        gt_query_overlap=len(set(gt_top) & set(q_tokens)))


def _config_for_value(base: PipelineConfig, axis: str, value) -> tuple[PipelineConfig, int | None]:
    """Derive the pipeline config (and reference count) for one sweep point."""
    from dataclasses import replace

    if axis == "beta":
        return replace(base, reweight=ReweightConfig.adaptive(beta=float(value))), None
    if axis == "t":
        return replace(base, reweight=ReweightConfig.constant(t=int(value))), None
    if axis == "alpha":
        return replace(base, calibration=replace(base.calibration, alpha=float(value))), None
    if axis == "strategy":
        return replace(base, strategy=str(value)), None
    if axis == "n_refs":
        if value < 0:
            raise ValueError(f"n_refs must be >= 0, got {value}")
        return base, int(value)
    raise ValueError(f"unknown sweep axis: {axis!r} (expected one of {SWEEP_AXES})")


def sweep(axis: str, values: list, base_cfg: PipelineConfig,
          index: InvertedIndex, doc_store: dict[str, Document],
          provider: EmbeddingProvider, cache: ReferenceCache, model_id: str,
          queries: list[tuple[str, str]], qrels: Qrels) -> list[tuple[object, EvalReport]]:
    """Evaluate the final ranking at each value along one ablation axis.

    A value the axis does not take as it is (1.5 on ``t``, a string or a bool
    on ``beta``) or that is out of range (-1 on ``t``, an unknown strategy) is
    a ValueError before the first point runs.
    """
    if axis in _AXIS_VALUES:
        kind, wanted = _AXIS_VALUES[axis]
        for value in values:
            if (not isinstance(value, kind) or isinstance(value, bool)
                    or kind is Real and not math.isfinite(value)):
                raise ValueError(f"sweep axis {axis!r} takes {wanted}, not {value!r}")
    points = [(value, *_config_for_value(base_cfg, axis, value)) for value in values]
    if axis == "n_refs" and (needed := max(values)) > 0:
        for query_id, query in queries:  # fail before the first point, not midway
            cached_references(cache, query_id, query, model_id, needed)

    results = []
    for value, cfg, n_refs in points:
        rankings = run_pipeline(queries, index, doc_store, provider, cache,
                                model_id, cfg, n_refs=n_refs)
        report = evaluate_run([r.post for r in rankings], qrels, cfg.eval_k,
                              config={"axis": axis, "value": value, **cfg.to_dict()})
        results.append((value, report))
    return results


def format_sweep_table(axis: str, results: list[tuple[object, EvalReport]]) -> str:
    """Aligned text table of sweep results."""
    lines = [f"{axis:>12}  {'mean_ndcg':>10}  {'evaluated':>9}  fingerprint"]
    for value, report in results:
        lines.append(f"{str(value):>12}  {report.mean:>10.4f}  "
                     f"{report.num_evaluated:>9d}  {report.fingerprint}")
    return "\n".join(lines)
