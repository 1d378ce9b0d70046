from queryboost.generation import ReferenceCache
from queryboost.synthetic import make_synthetic_dataset, write_dataset


def test_write_dataset_replaces_an_existing_cache(tmp_path):
    # the cache is append-only, so a second write must start it afresh, not add to it
    first = make_synthetic_dataset(num_topics=4, num_docs=40, refs_per_query=2, seed=1)
    second = make_synthetic_dataset(num_topics=3, num_docs=30, refs_per_query=1, seed=2)
    write_dataset(first, tmp_path)
    paths = write_dataset(second, tmp_path)
    cache = ReferenceCache(paths["cache"])
    assert len(cache) == len(second.reference_sets)
    assert all(cache.get(rs.query_id, rs.model_id) == rs for rs in second.reference_sets)
    assert len(paths["cache"].read_text().splitlines()) == len(second.reference_sets)
