"""Golden behaviour lock: the pipeline's rankings and run files on fixed data.

The first hash covers every (query_id, doc_id, float.hex(score)) triple of the
bm25, pre and post rankings under the default config, so a one-ulp change to
any score fails it; the second covers the bytes of the three trec run files.
The same rankings hash pins the ``concat`` and ``mean_pool`` strategies and the
no-expansion baseline (``n_refs=0``). A refactor leaves every hash unchanged.
A deliberate behaviour change updates them and says why in CHANGES.md.
"""

import hashlib

import pytest

from queryboost.corpus import build_index
from queryboost.embedding import HashingEmbedder
from queryboost.evaluation import write_run
from queryboost.generation import ReferenceCache
from queryboost.pipeline import PipelineConfig, run_pipeline
from queryboost.synthetic import make_synthetic_dataset

STAGES = ("bm25", "pre", "post")

RANKINGS_SHA256 = "8e0025edb414282c2980a9d46d48b19d6b981cd1454a9df2807f9c3c3ae3846f"
RUN_FILES_SHA256 = "b547b67750e4e497c98d3e5447d3be0385eee45186ac326f14ad4caa5c62613f"
# the other integration strategies and the no-expansion baseline, as
# (strategy, n_refs) -> rankings hash; the default above is contex_pool
OTHER_PATHS_RANKINGS_SHA256 = {
    ("concat", None):
        "af71569a5dd10cae2bef1adb15882b1d26d2ad8ed4439fa3c44215721b3072ae",
    ("mean_pool", None):
        "be4fdef9f15c10596ffefce3cc759bb4d88caf9a8818aab8bd85c557e133222f",
    ("contex_pool", 0):
        "5b2d1a60478af0461f63dcd52ae76b8ae70132a661eba284b69e580858dd47ed",
}


def _rankings(tmp_path, strategy="contex_pool", n_refs=None):
    ds = make_synthetic_dataset(num_topics=12, num_docs=300, refs_per_query=4, seed=5)
    cache = ReferenceCache(tmp_path / "cache.jsonl")
    for rs in ds.reference_sets:
        cache.put(rs)
    return run_pipeline(ds.queries, build_index(ds.documents),
                        {d.doc_id: d for d in ds.documents},
                        HashingEmbedder(dimension=64, seed=1), cache, ds.model_id,
                        PipelineConfig(retrieve_k=40, strategy=strategy), n_refs=n_refs)


def _rankings_digest(rankings) -> str:
    digest = hashlib.sha256()
    for r in rankings:
        for stage in STAGES:
            ranking = getattr(r, stage)
            for doc_id, score in ranking.items:
                digest.update(f"{stage} {ranking.query_id} {doc_id} "
                              f"{float.hex(score)}\n".encode())
    return digest.hexdigest()


def test_rankings_hash(tmp_path):
    assert _rankings_digest(_rankings(tmp_path)) == RANKINGS_SHA256


@pytest.mark.parametrize("strategy, n_refs", list(OTHER_PATHS_RANKINGS_SHA256))
def test_other_paths_rankings_hash(tmp_path, strategy, n_refs):
    assert (_rankings_digest(_rankings(tmp_path, strategy, n_refs))
            == OTHER_PATHS_RANKINGS_SHA256[strategy, n_refs])


def test_run_files_hash(tmp_path):
    rankings = _rankings(tmp_path)
    digest = hashlib.sha256()
    for stage in STAGES:
        path = tmp_path / f"golden.{stage}.run"
        write_run(path, [getattr(r, stage) for r in rankings], tag=f"golden-{stage}")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == RUN_FILES_SHA256
