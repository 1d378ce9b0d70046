"""Cost pins: what the pipeline asks of its embedding provider and of BM25 on fixed data.

The golden hashes pin what the pipeline ranks; these pin what it costs, in
counts that do not drift with the host. ``run_pipeline`` and an ``n_refs``
sweep run on the synthetic set that ``scripts/build_synthetic_dataset.py``
writes, under the default config, by two providers that give the same vectors:

- ``hashing``: a ``HashingEmbedder`` with the CLI's defaults (dimension 256,
  seed 0). Its document vectors come from the index, so no document text is
  sent.
- ``remote``: a ``RemoteEmbedder`` over a loopback stub that answers with the
  hashing vectors. Every text is sent, in requests of at most 32 texts.

Each pin counts the provider's ``embed_batch`` calls, the texts they sent,
the distinct texts among those, the HTTP requests, the ``pipeline.bm25_search``
calls and the postings those calls scored (the postings of each call's
distinct indexed terms). A change that moves a count updates it here and says
why in CHANGES.md, as for the golden hashes.
"""

import pytest

from queryboost import pipeline
from queryboost.corpus import build_index
from queryboost.embedding import HashingEmbedder, RemoteEmbedder
from queryboost.generation import ReferenceCache
from queryboost.pipeline import PipelineConfig, run_pipeline, sweep
from queryboost.synthetic import make_synthetic_dataset

DIMENSION = 256
N_REFS_VALUES = [0, 1, 2, 3]  # the values of the CLI's n_refs sweep table pin

COUNTS = ("embed_batch_calls", "texts_sent", "distinct_texts", "http_requests",
          "bm25_calls", "postings_scored")
# (command, provider) -> the COUNTS of one run
COSTS = {
    ("pipeline", "hashing"): (40, 174, 174, 0, 20, 880),
    ("pipeline", "remote"): (60, 259, 259, 61, 20, 880),
    ("sweep-n_refs", "hashing"): (105, 199, 199, 0, 80, 3238),
    ("sweep-n_refs", "remote"): (141, 284, 284, 141, 80, 3238),
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    ds = make_synthetic_dataset()
    cache = ReferenceCache(tmp_path_factory.mktemp("costs") / "cache.jsonl")
    for rs in ds.reference_sets:
        cache.put(rs)
    return ds, build_index(ds.documents), {d.doc_id: d for d in ds.documents}, cache


def _count_texts(provider) -> list[list[str]]:
    """The texts of each of ``provider``'s ``embed_batch`` calls, recorded from now on."""
    calls = []
    embed_batch = provider.embed_batch

    def counted(texts):
        calls.append(list(texts))
        return embed_batch(texts)

    provider.embed_batch = counted
    return calls


def _count_postings(monkeypatch) -> list[int]:
    """The postings each ``pipeline.bm25_search`` call scores, recorded from now on."""
    postings = []
    bm25_search = pipeline.bm25_search

    def counted(index, params, query, top_k):
        known = [t for t in map(index.term_ids.get, query.tokens) if t is not None]
        postings.append(sum(int(index.offsets[t + 1] - index.offsets[t]) for t in known))
        return bm25_search(index, params, query, top_k)

    monkeypatch.setattr(pipeline, "bm25_search", counted)
    return postings


@pytest.mark.parametrize("command, path", list(COSTS))
def test_costs(data, http_stub, monkeypatch, command, path):
    ds, index, store, cache = data
    hashing = HashingEmbedder(dimension=DIMENSION, seed=0)
    if path == "hashing":
        provider = hashing
    else:
        http_stub.script = [(200, lambda body: {
            "embeddings": [v.tolist() for v in hashing.embed_batch(body["input"])]})]
        provider = RemoteEmbedder(http_stub.url, dimension=DIMENSION)
    calls = _count_texts(provider)
    postings = _count_postings(monkeypatch)
    if command == "pipeline":
        run_pipeline(ds.queries, index, store, provider, cache, ds.model_id, PipelineConfig())
    else:
        sweep("n_refs", N_REFS_VALUES, PipelineConfig(), index, store, provider, cache,
              ds.model_id, ds.queries, ds.qrels)
    sent = [t for call in calls for t in call]
    counts = (len(calls), len(sent), len(set(sent)), http_stub.call_count, len(postings),
              sum(postings))
    assert dict(zip(COUNTS, counts)) == dict(zip(COUNTS, COSTS[command, path]))
