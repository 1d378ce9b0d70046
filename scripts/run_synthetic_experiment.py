#!/usr/bin/env python3
"""Compare retrieval variants on the synthetic benchmark and print a table.

Variants: plain BM25, expanded BM25, rerank of plain-BM25 candidates with the
raw query embedding, dense rerank of expanded candidates, and the calibrated
final ranking. Reports mean nDCG@10 for each.
"""

import argparse
import time

from queryboost.corpus import build_index
from queryboost.embedding import HashingEmbedder
from queryboost.evaluation import evaluate_run
from queryboost.pipeline import PipelineConfig, run_query_pipeline
from queryboost.synthetic import make_synthetic_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topics", type=int, default=20)
    parser.add_argument("--docs", type=int, default=500)
    parser.add_argument("--dimension", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    ds = make_synthetic_dataset(num_topics=args.topics, num_docs=args.docs,
                                seed=args.seed)
    index = build_index(ds.documents)
    store = {d.doc_id: d for d in ds.documents}
    refs = {rs.query_id: rs for rs in ds.reference_sets}
    provider = HashingEmbedder(dimension=args.dimension, seed=3)
    cfg = PipelineConfig()

    start = time.monotonic()
    runs = {name: [] for name in
            ("plain_bm25", "expanded_bm25", "baseline_rerank", "pre", "post")}
    for query_id, query in ds.queries:
        # no references: the plain query, and its candidates reranked by the raw query
        plain = run_query_pipeline(query_id, query, index, store, provider, None, cfg)
        runs["plain_bm25"].append(plain.bm25)
        runs["baseline_rerank"].append(plain.pre)
        out = run_query_pipeline(query_id, query, index, store, provider,
                                 refs[query_id], cfg)
        runs["expanded_bm25"].append(out.bm25)
        runs["pre"].append(out.pre)
        runs["post"].append(out.post)

    print(f"{'variant':>16}  mean_ndcg@10")
    for name, run in runs.items():
        report = evaluate_run(run, ds.qrels, 10)
        print(f"{name:>16}  {report.mean:.4f}")
    print(f"({len(ds.queries)} queries, {len(ds.documents)} docs, "
          f"{time.monotonic() - start:.2f}s)")


if __name__ == "__main__":
    main()
