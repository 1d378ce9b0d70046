import argparse
import json

import numpy as np
import pytest

from queryboost import files
from queryboost.cli import (EXIT_CACHE_MISS, EXIT_ERROR, EXIT_FORMAT, EXIT_MISMATCH,
                            EXIT_MISSING_FILE, EXIT_OK, EXIT_USAGE, _pipeline_config,
                            build_parser, main, write_manifest)
from queryboost.corpus import load_index
from queryboost.evaluation import Ranking, write_run
from queryboost.generation import ReferenceCache
from queryboost.pipeline import PipelineConfig
from queryboost.synthetic import make_synthetic_dataset, write_dataset


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    ds = make_synthetic_dataset(num_topics=4, num_docs=60)
    paths = write_dataset(ds, out)
    rc = main(["index", "--corpus", str(paths["corpus"]),
               "--out", str(out / "index.npz")])
    assert rc == EXIT_OK
    paths["index"] = out / "index.npz"
    paths["dir"] = out
    return paths


class TestIndexCommand:
    def test_writes_index_and_manifest(self, dataset_dir):
        assert dataset_dir["index"].exists()
        manifest = json.loads(
            (dataset_dir["dir"] / "index.npz.manifest.json").read_text())
        assert manifest["outputs"] == [str(dataset_dir["index"])]

    def test_missing_corpus_exit_code(self, tmp_path):
        rc = main(["index", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "i.json")])
        assert rc == EXIT_MISSING_FILE

    def test_malformed_corpus_exit_code(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        rc = main(["index", "--corpus", str(bad), "--out", str(tmp_path / "i.json")])
        assert rc == EXIT_FORMAT

    def test_duplicate_id_exit_code_and_message(self, tmp_path, capsys):
        corpus = tmp_path / "dup.jsonl"
        corpus.write_text('{"_id": "rel0x0", "text": "a"}\n{"_id": "d2", "text": "b"}\n'
                          '{"_id": "rel0x0", "text": "c"}\n')
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")])
        assert rc == EXIT_FORMAT
        assert (f"error: {corpus}:3: duplicate _id 'rel0x0' (first on line 1)"
                in capsys.readouterr().err)
        assert not (tmp_path / "i.npz").exists()

    def test_id_a_run_file_cannot_hold_exit_code_and_message(self, tmp_path, capsys):
        corpus = tmp_path / "spaced.jsonl"
        corpus.write_text('{"_id": "d1", "text": "a"}\n{"_id": "a b", "text": "b"}\n')
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")])
        assert rc == EXIT_FORMAT
        assert (f"error: {corpus}:2: _id 'a b' is empty or holds whitespace"
                in capsys.readouterr().err)
        assert not (tmp_path / "i.npz").exists()

    def test_failed_manifest_write_leaves_previous_manifest(self, dataset_dir, tmp_path,
                                                           monkeypatch):
        out = tmp_path / "out.run"
        args = argparse.Namespace(command="search", k1=1.2)
        write_manifest(out, args, [dataset_dir["queries"]], [out])
        manifest = tmp_path / "out.run.manifest.json"
        before = manifest.read_bytes()

        def disk_full(fd):
            raise OSError("No space left on device")

        monkeypatch.setattr(files.os, "fsync", disk_full)
        with pytest.raises(OSError, match="No space left"):
            write_manifest(out, argparse.Namespace(command="search", k1=2.0), [], [out])
        assert manifest.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [manifest.name]


def _rewrite_npz(src, dst, **changes):
    """Copy an index archive, replacing (or, with None, dropping) some arrays."""
    with np.load(src) as npz:
        arrays = {k: npz[k] for k in npz.files}
    for key, value in changes.items():
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def _column(index, name, dtype=None):
    """One array of an index archive, converted to ``dtype`` if given."""
    with np.load(index) as npz:
        return npz[name].astype(dtype or npz[name].dtype)


class TestBadIndexFile:
    """Anything that is not a current index exits EXIT_FORMAT with a rebuild hint."""

    def _search(self, dataset_dir, index, tmp_path):
        return main(["search", "--index", str(index),
                     "--queries", str(dataset_dir["queries"]),
                     "--cache", str(dataset_dir["cache"]),
                     "--out", str(tmp_path / "x.run")])

    def _assert_rejected(self, dataset_dir, index, tmp_path, capsys, detail):
        assert self._search(dataset_dir, index, tmp_path) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert str(index) in err
        assert "rebuild it with `queryboost index`" in err
        assert detail in err
        assert not (tmp_path / "x.run").exists()

    def test_old_json_index(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "old.json"
        index.write_text(json.dumps({"field_policy": "title_plus_text", "num_docs": 1,
                                     "avgdl": 1.0, "doc_length": {"d1": 1},
                                     "postings": {"cat": [["d1", 1]]}}))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys, "JSON index")

    def test_zero_byte_file(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "empty.idx"
        index.write_bytes(b"")
        self._assert_rejected(dataset_dir, index, tmp_path, capsys, "empty file")

    def test_truncated_file(self, dataset_dir, tmp_path, capsys):
        data = dataset_dir["index"].read_bytes()
        index = tmp_path / "truncated.idx"
        index.write_bytes(data[:len(data) // 2])
        self._assert_rejected(dataset_dir, index, tmp_path, capsys, "truncated or corrupt")

    def test_missing_format_version(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "noversion.idx"
        _rewrite_npz(dataset_dir["index"], index, format_version=None)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys, "format_version")

    def test_format_version_1(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "v1.idx"
        _rewrite_npz(dataset_dir["index"], index, format_version=np.int64(1),
                     doc_digests=None)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "format version 1, which stores no document digests")

    def test_format_version_2(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "v2.idx"
        _rewrite_npz(dataset_dir["index"], index, format_version=np.int64(2))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "format version 2, which stores offsets and every tf")

    def test_unknown_format_version(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "future.idx"
        _rewrite_npz(dataset_dir["index"], index, format_version=np.int64(99))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "unknown format version 99")

    # a posting column with values no index build makes is rejected by name

    def test_float_tfs(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "float-tfs.idx"
        _rewrite_npz(dataset_dir["index"], index,
                     tf_values=_column(dataset_dir["index"], "tf_values") + 0.5)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'tf_values' has dtype float64, not an integer type")

    def test_negative_tfs(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "negative-tfs.idx"
        _rewrite_npz(dataset_dir["index"], index,
                     tf_values=-_column(dataset_dir["index"], "tf_values", np.int32))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'tf_values' holds -")

    def test_tf_value_of_1(self, dataset_dir, tmp_path, capsys):
        # a tf of 1 is never stored: every posting not named in tf_positions has it
        values = _column(dataset_dir["index"], "tf_values")
        values[0] = 1
        index = tmp_path / "tf-1.idx"
        _rewrite_npz(dataset_dir["index"], index, tf_values=values)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'tf_values' holds 1, below 2")

    def test_repeated_tf_position(self, dataset_dir, tmp_path, capsys):
        positions = _column(dataset_dir["index"], "tf_positions")
        positions[2] = positions[1]
        index = tmp_path / "repeated.idx"
        _rewrite_npz(dataset_dir["index"], index, tf_positions=positions)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'tf_positions' does not increase at entry 2")

    def test_tf_position_past_the_postings(self, dataset_dir, tmp_path, capsys):
        positions = _column(dataset_dir["index"], "tf_positions", np.int64)
        postings = len(_column(dataset_dir["index"], "doc_ordinals"))
        positions[-1] = postings
        index = tmp_path / "past.idx"
        _rewrite_npz(dataset_dir["index"], index, tf_positions=positions)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'tf_positions' holds {postings}, "
                              f"not a position among the {postings} postings")

    def test_dfs_that_do_not_add_up(self, dataset_dir, tmp_path, capsys):
        dfs = _column(dataset_dir["index"], "dfs", np.int64)
        dfs[0] += 1
        index = tmp_path / "dfs.idx"
        _rewrite_npz(dataset_dir["index"], index, dfs=dfs)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'dfs' sums to {dfs.sum()}, "
                              f"not to the {dfs.sum() - 1} postings")

    def test_ordinal_past_the_documents(self, dataset_dir, tmp_path, capsys):
        ordinals = _column(dataset_dir["index"], "doc_ordinals", np.int32)
        index = tmp_path / "ordinals.idx"
        _rewrite_npz(dataset_dir["index"], index, doc_ordinals=ordinals + 5)
        num_docs = len(_column(dataset_dir["index"], "doc_lengths"))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'doc_ordinals' holds {ordinals.max() + 5}, "
                              f"not an ordinal of the {num_docs} documents")

    def test_decreasing_offsets(self, dataset_dir, tmp_path, capsys):
        # offsets are the running sum of dfs, so only a negative count could make them fall
        dfs = _column(dataset_dir["index"], "dfs", np.int32)
        dfs[2] = -1
        index = tmp_path / "offsets.idx"
        _rewrite_npz(dataset_dir["index"], index, dfs=dfs)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'dfs' holds -1, below 0")

    def test_doc_length_other_than_its_tfs_sum(self, dataset_dir, tmp_path, capsys):
        lengths = _column(dataset_dir["index"], "doc_lengths")
        edited = lengths.copy()
        edited[1] += 18
        index = tmp_path / "lengths.idx"
        _rewrite_npz(dataset_dir["index"], index, doc_lengths=edited)
        doc_id = load_index(dataset_dir["index"]).doc_ids[1]
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'doc_lengths' holds {edited[1]} for document "
                              f"{doc_id!r}, whose tfs sum to {lengths[1]}")


class TestIndexCorpusMismatch:
    """pipeline, analyze and sweep refuse an index built from another corpus."""

    @pytest.fixture(scope="class")
    def other_index(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("other")
        paths = write_dataset(make_synthetic_dataset(num_topics=4, num_docs=63), out)
        assert main(["index", "--corpus", str(paths["corpus"]),
                     "--out", str(out / "index.idx")]) == EXIT_OK
        return out / "index.idx"

    @pytest.mark.parametrize("command", [
        ["pipeline", "--out-prefix", "{tmp}/out"],
        ["analyze", "--qrels", "{qrels}"],
        ["sweep", "--axis", "beta", "--values", "4", "--qrels", "{qrels}"],
    ])
    def test_exits_with_count_and_example(self, dataset_dir, other_index, tmp_path,
                                          capsys, command):
        argv = [a.format(tmp=tmp_path, qrels=dataset_dir["qrels"]) for a in command]
        rc = main(argv + ["--index", str(other_index),
                          "--corpus", str(dataset_dir["corpus"]),
                          "--queries", str(dataset_dir["queries"]),
                          "--cache", str(dataset_dir["cache"])])
        assert rc == EXIT_MISMATCH
        err = capsys.readouterr().err
        # the other corpus has three more background documents, bg48 to bg50
        assert "index and corpus differ in 3 doc ids" in err
        assert "'bg48' is only in the index" in err
        assert not list(tmp_path.glob("out*"))


    @pytest.mark.parametrize("command", [
        ["pipeline", "--out-prefix", "{tmp}/out"],
        ["analyze", "--qrels", "{qrels}"],
        ["sweep", "--axis", "beta", "--values", "4", "--qrels", "{qrels}"],
    ])
    def test_changed_text_under_kept_ids(self, dataset_dir, tmp_path, capsys, command):
        # the relevant documents keep their ids but lose their text
        lines = dataset_dir["corpus"].read_text().splitlines()
        rewritten = []
        for line in lines:
            doc = json.loads(line)
            if doc["_id"].startswith("rel"):
                doc["text"] = "nothing relevant here"
            rewritten.append(json.dumps(doc))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(rewritten) + "\n")
        n_rel = sum(json.loads(line)["_id"].startswith("rel") for line in lines)

        argv = [a.format(tmp=tmp_path, qrels=dataset_dir["qrels"]) for a in command]
        rc = main(argv + ["--index", str(dataset_dir["index"]), "--corpus", str(corpus),
                          "--queries", str(dataset_dir["queries"]),
                          "--cache", str(dataset_dir["cache"])])
        assert rc == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert f"index and corpus differ in the text of {n_rel} documents" in err
        assert "(first: 'rel0x0')" in err
        assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", [
    ["search", "--out", "{tmp}/out.run"],
    ["pipeline", "--corpus", "{corpus}", "--out-prefix", "{tmp}/out"],
    ["analyze", "--corpus", "{corpus}", "--qrels", "{qrels}"],
    ["sweep", "--axis", "n_refs", "--values", "0", "1", "--corpus", "{corpus}",
     "--qrels", "{qrels}", "--out", "{tmp}/out.jsonl"],
])
def test_references_cached_for_another_query(dataset_dir, tmp_path, capsys, command):
    lines = dataset_dir["queries"].read_text().splitlines()
    query_id, cached_text = lines[0].split("\t")
    queries = tmp_path / "queries.tsv"
    queries.write_text("\n".join([f"{query_id}\trocket launch"] + lines[1:]) + "\n")
    argv = [a.format(tmp=tmp_path, corpus=dataset_dir["corpus"], qrels=dataset_dir["qrels"])
            for a in command]
    rc = main(argv + ["--index", str(dataset_dir["index"]), "--queries", str(queries),
                      "--cache", str(dataset_dir["cache"])])
    assert rc == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert (f"error: cached references for query {query_id!r} were generated for "
            f"{cached_text!r} with prompt version 'v1', not for 'rocket launch' with 'v1'"
            in captured.err)
    assert captured.out == ""
    assert not list(tmp_path.glob("out*"))


class TestSearchCommand:
    def test_writes_run(self, dataset_dir, tmp_path):
        out_run = tmp_path / "sparse.run"
        rc = main(["search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--out", str(out_run)])
        assert rc == EXIT_OK
        assert out_run.exists()
        assert (tmp_path / "sparse.run.manifest.json").exists()

    def test_cache_miss_exit_code(self, dataset_dir, tmp_path):
        empty_cache = tmp_path / "empty.jsonl"
        empty_cache.write_text("")
        rc = main(["search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(empty_cache),
                   "--out", str(tmp_path / "x.run")])
        assert rc == EXIT_CACHE_MISS

    def test_constant_repetition_flag(self, dataset_dir, tmp_path):
        rc = main(["search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--t", "5", "--out", str(tmp_path / "t.run")])
        assert rc == EXIT_OK

    def test_run_is_the_pipeline_bm25_run(self, dataset_dir, tmp_path):
        inputs = ["--index", str(dataset_dir["index"]), "--queries", str(dataset_dir["queries"]),
                  "--cache", str(dataset_dir["cache"])]
        assert main(["search", *inputs, "--out", str(tmp_path / "s.run")]) == EXIT_OK
        assert main(["pipeline", *inputs, "--corpus", str(dataset_dir["corpus"]),
                     "--out-prefix", str(tmp_path / "p")]) == EXIT_OK
        search = (tmp_path / "s.run").read_text().splitlines()
        bm25 = (tmp_path / "p.bm25.run").read_text().splitlines()
        assert search
        assert [l.split()[:5] for l in search] == [l.split()[:5] for l in bm25]

    def test_retrieve_k_below_eval_k(self, dataset_dir, tmp_path):
        # search evaluates nothing, so a retrieve-k under the pipeline's eval-k is fine
        out = tmp_path / "k5.run"
        rc = main(["search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--retrieve-k", "5", "--out", str(out)])
        assert rc == EXIT_OK
        assert max(int(l.split()[3]) for l in out.read_text().splitlines()) == 5


class TestPipelineCommand:
    def test_bare_command_line_is_the_default_config(self):
        args = build_parser().parse_args(["pipeline", "--index", "i", "--corpus", "c",
                                          "--queries", "q", "--cache", "x",
                                          "--out-prefix", "o"])
        assert _pipeline_config(args) == PipelineConfig()

    def test_writes_three_runs(self, dataset_dir, tmp_path):
        prefix = tmp_path / "out"
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--out-prefix", str(prefix)])
        assert rc == EXIT_OK
        for stage in ("bm25", "pre", "post"):
            assert (tmp_path / f"out.{stage}.run").exists()

    def test_k_reciprocal_zero_rejected(self, dataset_dir, tmp_path):
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--alpha", "0", "--k-reciprocal", "0",
                   "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_USAGE


    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_embed_seed_outside_uint64_exit_code_and_message(self, dataset_dir, tmp_path,
                                                             capsys, seed):
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]), "--embed-seed", seed,
                   "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert (f"error: embedding seed must be an integer in [0, 2**64), got {seed}"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_cache_miss_exit_code_and_message(self, dataset_dir, tmp_path, capsys):
        empty_cache = tmp_path / "empty.jsonl"
        empty_cache.write_text("")
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(empty_cache), "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_CACHE_MISS
        err = capsys.readouterr().err
        assert "error: no cached references for query 'q" in err  # printed without quotes


    def test_tokenless_query_exit_code_and_message(self, dataset_dir, tmp_path, capsys):
        queries = tmp_path / "queries.tsv"
        queries.write_text(dataset_dir["queries"].read_text() + "q0\t!!! ???\n")
        lineno = len(queries.read_text().splitlines())
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]), "--queries", str(queries),
                   "--cache", str(dataset_dir["cache"]), "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_FORMAT
        assert (f"error: {queries}:{lineno}: query 'q0' has no tokens"
                in capsys.readouterr().err)


    @pytest.mark.parametrize("command", ["pipeline", "search"])
    @pytest.mark.parametrize("same_text", [True, False])
    def test_repeated_query_id_exit_code_and_message(self, dataset_dir, tmp_path, capsys,
                                                     command, same_text):
        lines = dataset_dir["queries"].read_text().splitlines()
        query_id, text = lines[0].split("\t")
        queries = tmp_path / "queries.tsv"
        queries.write_text("\n".join([*lines, f"{query_id}\t{text if same_text else 'x y'}"]))
        out = (["--corpus", str(dataset_dir["corpus"]), "--out-prefix", str(tmp_path / "o")]
               if command == "pipeline" else ["--out", str(tmp_path / "o.run")])
        rc = main([command, "--index", str(dataset_dir["index"]), "--queries", str(queries),
                   "--cache", str(dataset_dir["cache"]), *out])
        assert rc == EXIT_FORMAT
        assert (f"error: {queries}:{len(lines) + 1}: duplicate query id {query_id!r} "
                f"(first on line 1)" in capsys.readouterr().err)
        assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("command", ["pipeline", "search"])
@pytest.mark.parametrize("tag", ["my run", ""])
def test_tag_a_run_file_cannot_hold_exit_code_and_message(dataset_dir, tmp_path, capsys,
                                                          command, tag):
    out = (["--corpus", str(dataset_dir["corpus"]), "--out-prefix", str(tmp_path / "o")]
           if command == "pipeline" else ["--out", str(tmp_path / "o.run")])
    rc = main([command, "--index", str(dataset_dir["index"]),
               "--queries", str(dataset_dir["queries"]), "--cache", str(dataset_dir["cache"]),
               "--tag", tag, *out])
    assert rc == EXIT_USAGE
    assert f"error: --tag {tag!r} is empty or holds whitespace" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestEmbeddingServiceFaults:
    """A service answering without usable vectors is a runtime fault (exit 1), not a
    cache miss or a usage error, and the message names the endpoint and the problem."""

    @pytest.mark.parametrize("reply, problem", [
        (lambda body: {}, "response body has no 'embeddings' key"),
        (lambda body: {"embeddings": [[1.0] * 8] * (len(body["input"]) - 1)},
         "vectors for"),
        (lambda body: {"embeddings": [[1.0] * 7] * len(body["input"])},
         "expected dimension 8, got shape (7,)"),
    ], ids=["no-embeddings-key", "too-few-vectors", "wrong-dimension"])
    def test_exit_code_and_message(self, dataset_dir, http_stub, tmp_path, capsys,
                                   reply, problem):
        http_stub.script = [(200, reply)]
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--provider", "remote", "--embed-endpoint", http_stub.url,
                   "--dimension", "8", "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"embedding service {http_stub.url}: " in err
        assert problem in err
        assert not list(tmp_path.glob("o*"))


class TestChatServiceFaults:
    """A complete chat answer without usable completions fails at once (exit 1),
    caches nothing, and the message names the endpoint and the problem."""

    @pytest.mark.parametrize("reply, problem", [
        ({"choices": [{"message": {"content": None}}]}, "a message's content is not a string"),
        ([{"message": {"content": "x"}}], "response body has no 'choices' list of messages"),
        ({"choices": [{"message": "x"}]}, "response body has no 'choices' list of messages"),
        ({"id": "x"}, "response body has no 'choices' list of messages"),
        (b"<html>busy</html>", "response body is not JSON"),
    ], ids=["null-content", "json-list", "message-not-object", "no-choices", "not-json"])
    def test_exit_code_and_message(self, http_stub, tmp_path, capsys, reply, problem):
        http_stub.script = [(200, reply)]
        queries = tmp_path / "queries.tsv"
        queries.write_text("q1\tabout alias1\n")
        cache = tmp_path / "cache.jsonl"
        rc = main(["generate", "--queries", str(queries), "--cache", str(cache),
                   "--endpoint", http_stub.url, "--model", "m", "--n", "1"])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"chat service {http_stub.url}: {problem}" in err
        assert http_stub.call_count == 1
        assert len(ReferenceCache(cache)) == 0


class TestEvalCommand:
    def test_ideal_run_scores_one(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 3\nq1 0 d2 1\n")
        run = tmp_path / "ideal.run"
        run.write_text("q1 Q0 d1 1 2.000000 t\nq1 Q0 d2 2 1.000000 t\n")
        rc = main(["eval", "--run", str(run), "--qrels", str(qrels), "--k", "10"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "mean\t1.000000" in out

    def test_judged_query_without_hits_scores_zero(self, tmp_path, capsys):
        # write_run writes no line for an empty ranking; eval must still score it
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq2 0 d2 1\nq3 0 d3 0\n")
        run = tmp_path / "partial.run"
        write_run(run, [Ranking("q1", (("d1", 1.0),)), Ranking("q2", ())])
        rc = main(["eval", "--run", str(run), "--qrels", str(qrels), "--k", "10"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "ndcg@10\tq2\t0.000000" in out
        assert "q3" not in out  # no positive judgment: neither scored nor counted
        assert "mean\t0.500000" in out

    @pytest.mark.parametrize("qrels_line,run_line,problem", [
        ("q1 0 d1 x", "q1 Q0 d1 1 1.0 t", "qrels.txt:2: non-integer grade 'x'"),
        ("q1 0 d1 -1", "q1 Q0 d1 1 1.0 t", "qrels.txt:2: negative grade -1"),
        ("q1 0 d1 1", "q1 Q0 d1 1 high t", "a.run:2: non-numeric score 'high'"),
        ("q1 0 d1", "q1 Q0 d1 1 1.0 t", "qrels.txt:2: expected 4 fields, got 3"),
    ])
    def test_bad_line_exit_code_and_message(self, tmp_path, capsys, qrels_line,
                                            run_line, problem):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text(f"q1 0 d2 1\n{qrels_line}\n")
        run = tmp_path / "a.run"
        run.write_text(f"q1 Q0 d2 1 2.0 t\n{run_line}\n")
        rc = main(["eval", "--run", str(run), "--qrels", str(qrels)])
        assert rc == EXIT_FORMAT
        assert f"error: {tmp_path}/{problem}" in capsys.readouterr().err

    def test_end_to_end_eval_of_pipeline_run(self, dataset_dir, tmp_path, capsys):
        prefix = tmp_path / "e2e"
        assert main(["pipeline", "--index", str(dataset_dir["index"]),
                     "--corpus", str(dataset_dir["corpus"]),
                     "--queries", str(dataset_dir["queries"]),
                     "--cache", str(dataset_dir["cache"]),
                     "--out-prefix", str(prefix)]) == EXIT_OK
        rc = main(["eval", "--run", str(tmp_path / "e2e.post.run"),
                   "--qrels", str(dataset_dir["qrels"])])
        assert rc == EXIT_OK
        mean_line = [l for l in capsys.readouterr().out.splitlines()
                     if "mean" in l][-1]
        assert float(mean_line.split("\t")[-1]) > 0.9


class TestAnalyzeCommand:
    def test_overlap_report(self, dataset_dir, capsys):
        rc = main(["analyze", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--qrels", str(dataset_dir["qrels"])])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "gt_pse_overlap" in out

    def test_cache_miss_exit_code_and_message(self, dataset_dir, tmp_path, capsys):
        empty_cache = tmp_path / "empty.jsonl"
        empty_cache.write_text("")
        rc = main(["analyze", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(empty_cache), "--qrels", str(dataset_dir["qrels"])])
        assert rc == EXIT_CACHE_MISS
        captured = capsys.readouterr()
        assert "error: no cached references for query 'q" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fault, code", [("missing", EXIT_CACHE_MISS),
                                             ("stale", EXIT_MISMATCH)])
    def test_bad_last_entry_prints_nothing(self, dataset_dir, tmp_path, capsys, fault, code):
        lines = dataset_dir["queries"].read_text().splitlines()
        last_id = lines[-1].split("\t")[0]
        queries, cache = dataset_dir["queries"], dataset_dir["cache"]
        if fault == "missing":
            cache = tmp_path / "cache.jsonl"
            cache.write_text("".join(
                line for line in dataset_dir["cache"].read_text().splitlines(keepends=True)
                if json.loads(line)["query_id"] != last_id))
        else:
            queries = tmp_path / "queries.tsv"
            queries.write_text("\n".join(lines[:-1] + [f"{last_id}\trocket launch"]) + "\n")
        rc = main(["analyze", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]), "--queries", str(queries),
                   "--cache", str(cache), "--qrels", str(dataset_dir["qrels"])])
        assert rc == code
        captured = capsys.readouterr()
        assert f"query {last_id!r}" in captured.err
        assert captured.out == ""


class TestSweepCommand:
    def test_beta_sweep_writes_jsonl(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--axis", "beta", "--values", "2", "4",
                   "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--qrels", str(dataset_dir["qrels"]),
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert {json.loads(l)["value"] for l in lines} == {2, 4}

    def test_n_refs_sweep_cache_miss(self, dataset_dir, tmp_path, capsys):
        empty_cache = tmp_path / "empty.jsonl"
        empty_cache.write_text("")
        rc = main(["sweep", "--axis", "n_refs", "--values", "0", "1",
                   "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(empty_cache), "--qrels", str(dataset_dir["qrels"])])
        assert rc == EXIT_CACHE_MISS
        assert "no cached references for query 'q" in capsys.readouterr().err

    def test_n_refs_sweep_includes_zero(self, dataset_dir, tmp_path):
        rc = main(["sweep", "--axis", "n_refs", "--values", "0", "1",
                   "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--qrels", str(dataset_dir["qrels"])])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("axis, values, message", [
        ("t", ["1", "1.5"], "sweep axis 't' takes an integer, not 1.5"),
        ("n_refs", ["1", "1.7"], "sweep axis 'n_refs' takes an integer, not 1.7"),
        ("beta", ["2", "true"], "sweep axis 'beta' takes a finite number, not True"),
        ("alpha", ["0.2", "abc"], "sweep axis 'alpha' takes a finite number, not 'abc'"),
        ("t", ["1", "-2"], "t must be >= 0, got -2"),
        ("n_refs", ["0", "-1"], "n_refs must be >= 0, got -1"),
        ("alpha", ["0.2", "-0.5"], "alpha must be >= 0, got -0.5"),
        ("strategy", ["mean_pool", "bogus"], "unknown integration strategy: 'bogus'"),
    ])
    def test_value_the_axis_does_not_take(self, dataset_dir, tmp_path, capsys, axis,
                                          values, message):
        out = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--axis", axis, "--values", *values,
                   "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--qrels", str(dataset_dir["qrels"]), "--out", str(out)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""  # no point ran, not even the first, valid one
        assert not out.exists()


class TestConfigFile:
    def test_config_provides_defaults(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 5}))
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\n")
        run = tmp_path / "r.run"
        run.write_text("q1 Q0 d1 1 1.000000 t\n")
        rc = main(["--config", str(cfg), "eval", "--run", str(run),
                   "--qrels", str(qrels)])
        assert rc == EXIT_OK
        assert "ndcg@5" in capsys.readouterr().out

    def test_unknown_key_rejected(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k1": 1.2, "k_1": 5.0}))
        rc = main(["--config", str(cfg), "search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]), "--out", str(tmp_path / "x.run")])
        assert rc == EXIT_USAGE
        assert "unknown key(s) 'k_1'" in capsys.readouterr().err
        assert not (tmp_path / "x.run").exists()

    def test_keys_of_other_commands_allowed(self, dataset_dir, tmp_path):
        # one config serves every command: eval's k and pipeline's alpha do not stop search
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 5, "alpha": 0.3, "k1": 1.2}))
        rc = main(["--config", str(cfg), "search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]), "--out", str(tmp_path / "x.run")])
        assert rc == EXIT_OK
        assert json.loads((tmp_path / "x.run.manifest.json").read_text())["config"]["k1"] == 1.2

    def test_config_not_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "eval", "--run", "x", "--qrels", "y"]) == EXIT_FORMAT

    def test_missing_config(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.json"), "eval",
                   "--run", "x", "--qrels", "y"])
        assert rc == EXIT_MISSING_FILE


def test_unknown_flag_exits_2(dataset_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--run", "x", "--qrels", "y", "--bogus"])
    assert exc.value.code == EXIT_USAGE
