"""End-to-end pipeline: sparse retrieval, dense rerank, calibration, evaluation.

For each query: expand it with cached pseudo-references and retrieve the
top-k candidates with BM25, rerank those candidates with the pooled query
embedding, then calibrate the embedding with relevance feedback and rank once
more. All three rankings are kept for analysis.

Each ``run_pipeline`` or ``run_query_pipeline`` call embeds through one
``EmbeddingMemo`` (see ``embedding``), unless it is handed one (``sweep`` hands
all its points one memo). Right after BM25 each candidate's text is built once,
as BM25 indexed it (under the index's ``field_policy``), into one map from doc
id to text that every dense stage reads, and handed to
``EmbeddingMemo.add_documents``.
"""

from dataclasses import dataclass, field, asdict, replace
from numbers import Integral, Real

from queryboost.calibration import CalibrationConfig, build_feedback_sets, calibrate
from queryboost.corpus import Document, InvertedIndex
from queryboost.embedding import EmbeddingMemo, EmbeddingProvider
from queryboost.evaluation import EvalReport, Qrels, Ranking, evaluate_run
from queryboost.generation import ReferenceCache, ReferenceSet, cached_references
from queryboost.rerank import STRATEGIES, embed_query, rerank
from queryboost.sparse import BM25Params, ReweightConfig, bm25_search, build_sparse_query, idf
from queryboost.tokenizer import tokenize

# axis -> (the type its values must have as they are, its name, (base, value) -> (config, n_refs))
_AXES = {
    "beta": (Real, "a finite number", lambda base, v: (
        replace(base, reweight=ReweightConfig.adaptive(beta=float(v))), None)),
    "t": (Integral, "an integer", lambda base, v: (
        replace(base, reweight=ReweightConfig.constant(t=int(v))), None)),
    "alpha": (Real, "a finite number", lambda base, v: (
        replace(base, calibration=replace(base.calibration, alpha=float(v))), None)),
    "n_refs": (Integral, "an integer", lambda base, v: (base, int(v))),
    "strategy": (str, "a string", lambda base, v: (replace(base, strategy=v), None)),
}
SWEEP_AXES = tuple(_AXES)
# The final rank is a rerank by the calibrated embedding; perfbench times it under this name.
final_rank = rerank


@dataclass(frozen=True)
class PipelineConfig:
    bm25: BM25Params = field(default_factory=BM25Params)
    reweight: ReweightConfig = field(default_factory=ReweightConfig.adaptive)
    strategy: str = "contex_pool"
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    retrieve_k: int = 100

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown integration strategy: {self.strategy!r}")
        if self.retrieve_k < 1:
            raise ValueError(f"retrieve_k must be >= 1, got {self.retrieve_k}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PipelineRankings:
    """The three per-query rankings: sparse, dense pre-calibration, final."""

    bm25: Ranking
    pre: Ranking
    post: Ranking


def sparse_ranking(query: str, refs: ReferenceSet | None, index: InvertedIndex,
                   cfg: PipelineConfig) -> list[tuple[str, float]]:
    """The sparse stage: BM25's top retrieve_k for the query expanded with refs (alone if None)."""
    sq = (build_sparse_query(query, (), ReweightConfig.constant(t=1)) if refs is None
          else build_sparse_query(query, refs.references, cfg.reweight))
    return bm25_search(index, cfg.bm25, sq, cfg.retrieve_k)


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
    i_bm25 = sparse_ranking(query, refs, index, cfg)
    if not i_bm25:
        empty = Ranking(query_id=query_id, items=())
        return PipelineRankings(bm25=empty, pre=empty, post=empty)

    texts = {doc_id: doc_store[doc_id].indexed_text(index.field_policy) for doc_id, _ in i_bm25}
    provider.add_documents(index, texts)

    q_emb = embed_query(provider, query, refs, cfg.strategy)
    i_pre = rerank(provider, q_emb, texts)

    if refs is not None:
        fb = build_feedback_sets(i_bm25, i_pre, refs, texts, cfg.calibration)
        calibrated = calibrate(provider, query, fb, cfg.calibration)
        i_post = final_rank(provider, calibrated, texts)
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

    The queries' references are ``cached_references(..., n_refs)``: with 0,
    none (the no-expansion baseline). One ``EmbeddingMemo`` serves all queries:
    the provider if it is one, else a new one.
    """
    all_refs = cached_references(cache, queries, model_id, n_refs)
    if not isinstance(provider, EmbeddingMemo):
        provider = EmbeddingMemo(provider)
    return [run_query_pipeline(query_id, query, index, doc_store, provider, refs, cfg)
            for (query_id, query), refs in zip(queries, all_refs)]


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
    tokens = sorted(set(tokenize(text)))
    tokens.sort(key=lambda t: (-idf(index, t), t))
    return tokens[:m]


def keyword_overlap(query: str, refs: ReferenceSet, gt_docs: list[Document],
                    index: InvertedIndex, m: int = 10) -> KeywordOverlapReport:
    """Compare the top-m idf vocabularies of ground-truth docs and references."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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


def sweep(axis: str, values: list, base_cfg: PipelineConfig,
          index: InvertedIndex, doc_store: dict[str, Document],
          provider: EmbeddingProvider, cache: ReferenceCache, model_id: str,
          queries: list[tuple[str, str]], qrels: Qrels,
          eval_k: int = 10) -> list[tuple[object, EvalReport]]:
    """nDCG@eval_k of the final ranking at each value along one ablation axis.

    An unknown axis, an eval_k outside [1, retrieve_k], a value the axis does
    not take as it is (1.5 on ``t``, a string or a bool on ``beta``) or one out
    of range (-1 on ``t`` or ``n_refs``, NaN on ``alpha``, an unknown strategy)
    is a ValueError before the first point runs. One ``EmbeddingMemo`` serves
    every point, so a text that several points embed reaches the provider once.
    """
    if eval_k < 1:
        raise ValueError(f"eval_k must be >= 1, got {eval_k}")
    if base_cfg.retrieve_k < eval_k:
        raise ValueError(f"retrieve_k ({base_cfg.retrieve_k}) must be >= eval_k ({eval_k})")
    if axis not in _AXES:
        raise ValueError(f"unknown sweep axis: {axis!r} (expected one of {SWEEP_AXES})")
    kind, wanted, point = _AXES[axis]
    for value in values:
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"sweep axis {axis!r} takes {wanted}, not {value!r}")
    points = [(value, *point(base_cfg, value)) for value in values]
    if axis == "n_refs":  # fail before the first point, not midway
        cached_references(cache, queries, model_id, min(values))
        cached_references(cache, queries, model_id, max(values))

    if not isinstance(provider, EmbeddingMemo):
        provider = EmbeddingMemo(provider)
    results = []
    for value, cfg, n_refs in points:
        rankings = run_pipeline(queries, index, doc_store, provider, cache,
                                model_id, cfg, n_refs=n_refs)
        report = evaluate_run([r.post for r in rankings], qrels, eval_k,
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
