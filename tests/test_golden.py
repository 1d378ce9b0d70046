"""Golden behaviour lock: the pipeline's rankings and run files on fixed data.

The first hash covers every (query_id, doc_id, float.hex(score)) triple of the
bm25, pre and post rankings, so a one-ulp change to any score fails it; the
second covers the bytes of the three trec run files. A refactor leaves both
unchanged. A deliberate behaviour change updates them and says why in
CHANGES.md.
"""

import hashlib

from queryboost.corpus import build_index
from queryboost.embedding import HashingEmbedder
from queryboost.evaluation import write_run
from queryboost.generation import ReferenceCache
from queryboost.pipeline import PipelineConfig, run_pipeline
from queryboost.synthetic import make_synthetic_dataset

STAGES = ("bm25", "pre", "post")

RANKINGS_SHA256 = "8e0025edb414282c2980a9d46d48b19d6b981cd1454a9df2807f9c3c3ae3846f"
RUN_FILES_SHA256 = "b547b67750e4e497c98d3e5447d3be0385eee45186ac326f14ad4caa5c62613f"


def _rankings(tmp_path):
    ds = make_synthetic_dataset(num_topics=12, num_docs=300, refs_per_query=4, seed=5)
    cache = ReferenceCache(tmp_path / "cache.jsonl")
    for rs in ds.reference_sets:
        cache.put(rs)
    return run_pipeline(ds.queries, build_index(ds.documents),
                        {d.doc_id: d for d in ds.documents},
                        HashingEmbedder(dimension=64, seed=1), cache, ds.model_id,
                        PipelineConfig(retrieve_k=40))


def test_rankings_hash(tmp_path):
    digest = hashlib.sha256()
    for r in _rankings(tmp_path):
        for stage in STAGES:
            ranking = getattr(r, stage)
            for doc_id, score in ranking.items:
                digest.update(f"{stage} {ranking.query_id} {doc_id} "
                              f"{float.hex(score)}\n".encode())
    assert digest.hexdigest() == RANKINGS_SHA256


def test_run_files_hash(tmp_path):
    rankings = _rankings(tmp_path)
    digest = hashlib.sha256()
    for stage in STAGES:
        path = tmp_path / f"golden.{stage}.run"
        write_run(path, [getattr(r, stage) for r in rankings], tag=f"golden-{stage}")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == RUN_FILES_SHA256
