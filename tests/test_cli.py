import argparse
import codecs
import contextlib
import hashlib
import io
import json
import math
import struct
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from queryboost import cli, corpus, files, pipeline
from queryboost.cli import (EXIT_CACHE_MISS, EXIT_ERROR, EXIT_FORMAT, EXIT_MISMATCH,
                            EXIT_MISSING_FILE, EXIT_OK, EXIT_USAGE, _pipeline_config,
                            build_parser, file_facts, main, write_manifest)
from queryboost.corpus import build_index, load_corpus_jsonl, load_index, save_index
from queryboost.evaluation import Ranking, write_run
from queryboost.generation import ReferenceCache
from queryboost.pipeline import PipelineConfig
from queryboost.synthetic import make_synthetic_dataset, write_dataset
from test_corpus import assert_index_equals, coded, columns


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

    def test_text_that_is_not_a_string_exit_code_and_message(self, tmp_path, capsys):
        corpus = tmp_path / "null-text.jsonl"
        corpus.write_text('{"_id": "d1", "text": "a"}\n{"_id": "d2", "text": null}\n')
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")])
        assert rc == EXIT_FORMAT
        assert (f"error: {corpus}:2: text must be a string, not NoneType"
                in capsys.readouterr().err)
        assert not (tmp_path / "i.npz").exists()

    @pytest.mark.parametrize("field", ["_id", "title", "text"])
    def test_lone_surrogate_exit_code_and_message(self, tmp_path, capsys, field):
        # json.dumps writes the lone surrogate as the escape \\ud800, which JSON reads back
        doc = {"_id": "d2", "title": "t", "text": "b", field: "alpha \ud800 beta"}
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_text(f'{{"_id": "d1", "text": "a"}}\n{json.dumps(doc)}\n')
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")])
        assert rc == EXIT_FORMAT
        assert (f"error: {corpus}:2: {field} does not encode as UTF-8: 'utf-8' codec can't "
                f"encode character '\\ud800' in position 6: surrogates not allowed"
                in capsys.readouterr().err)
        assert not (tmp_path / "i.npz").exists()

    def test_surrogate_pair_escape_is_read(self, tmp_path):
        corpus = tmp_path / "pair.jsonl"
        corpus.write_text('{"_id": "d1", "text": "alpha \\ud83d\\ude00 beta \\\\ud800"}\n')
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")]) == 0
        assert load_index(tmp_path / "i.npz").terms == ("alpha", "beta", "ud800")

    def test_failed_manifest_write_leaves_previous_manifest(self, dataset_dir, tmp_path,
                                                           monkeypatch):
        out = tmp_path / "out.run"
        out.write_text("q1 Q0 d1 1 1.000000 t\n")
        args = argparse.Namespace(command="search", k1=1.2, queries=dataset_dir["queries"],
                                  _inputs=("queries",))
        write_manifest(out, args, [out], [file_facts(dataset_dir["queries"])])
        manifest = tmp_path / "out.run.manifest.json"
        before = manifest.read_bytes()

        def disk_full(fd):
            raise OSError("No space left on device")

        monkeypatch.setattr(files.os, "fsync", disk_full)
        with pytest.raises(OSError, match="No space left"):
            write_manifest(out, argparse.Namespace(command="search", k1=2.0, _inputs=()), [out],
                           [])
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, manifest.name]


# each command's declared input files, in the order its manifest lists them
INPUTS = {"index": ("corpus",), "generate": ("queries",),
          "search": ("index", "queries", "cache"),
          "pipeline": ("index", "corpus", "queries", "cache"), "eval": ("run", "qrels"),
          "analyze": ("index", "corpus", "queries", "cache", "qrels"),
          "sweep": ("index", "corpus", "queries", "cache", "qrels")}
# each command's other flags, over an output directory, and the manifest it writes
OTHER_FLAGS = {
    "index": (lambda out: ["--out", out / "i.npz"], "i.npz"),
    # every query's references are cached, so generate sends no request
    "generate": (lambda out: ["--cache", out / "cache.jsonl", "--model", "synthetic-refs",
                              "--n", "1", "--endpoint", "http://127.0.0.1:9/chat"],
                 "cache.jsonl"),
    "search": (lambda out: ["--out", out / "s.run"], "s.run"),
    "pipeline": (lambda out: ["--out-prefix", out / "p"], "p.post.run"),
    "eval": (lambda out: [], None),
    "analyze": (lambda out: [], None),
    "sweep": (lambda out: ["--axis", "alpha", "--values", "0", "0.2",
                           "--out", out / "sweep.jsonl"], "sweep.jsonl"),
}


class TestDeclaredInputs:
    """Each command's input files are declared once: one list gives the required
    flags, the missing-file check (exit 3) and the manifest's inputs."""

    @pytest.fixture
    def paths(self, dataset_dir, tmp_path):
        run = tmp_path / "r.run"
        run.write_text("q0 Q0 rel0x0 1 1.000000 t\n")
        (tmp_path / "cache.jsonl").write_bytes(dataset_dir["cache"].read_bytes())
        return {**dataset_dir, "run": run, "cache": tmp_path / "cache.jsonl"}

    @staticmethod
    def argv(command, paths, out):
        """The command line of ``command`` over ``paths``, writing into directory ``out``."""
        inputs = [a for name in INPUTS[command] for a in (f"--{name}", paths[name])]
        return [command, *map(str, inputs), *map(str, OTHER_FLAGS[command][0](out))]

    @pytest.mark.parametrize("command", INPUTS)
    def test_declared_inputs(self, paths, tmp_path, command):
        args = build_parser().parse_args(self.argv(command, paths, tmp_path))
        assert args._inputs == INPUTS[command]

    @pytest.mark.parametrize("command, name", [(c, n) for c, names in INPUTS.items()
                                               for n in names])
    def test_missing_input_exit_code_and_message(self, paths, tmp_path, capsys, command,
                                                 name):
        missing = tmp_path / f"missing-{name}"
        out = tmp_path / "out"
        out.mkdir()
        rc = main(self.argv(command, {**paths, name: missing}, out))
        assert rc == EXIT_MISSING_FILE
        captured = capsys.readouterr()
        assert f"error: missing input file: {missing}" in captured.err
        assert captured.out == "" and not list(out.iterdir())

    @pytest.mark.parametrize("command", [c for c, (_, m) in OTHER_FLAGS.items() if m])
    def test_manifest_inputs_are_the_declared_flags_in_order(self, paths, tmp_path,
                                                             command):
        assert main(self.argv(command, paths, tmp_path)) == EXIT_OK
        # one manifest, beside the last output: pipeline's beside <prefix>.post.run
        target = tmp_path / OTHER_FLAGS[command][1]
        assert list(tmp_path.glob("*.manifest.json")) == [Path(f"{target}.manifest.json")]
        manifest = json.loads(Path(f"{target}.manifest.json").read_text())
        assert manifest["outputs"][-1] == str(target)
        assert manifest["inputs"] == [str(paths[name]) for name in INPUTS[command]]
        assert not any(key.startswith("_") for key in manifest["config"])
        assert ("jobs" in manifest["config"]) == (command == "generate")

    @pytest.mark.parametrize("command", [c for c, (_, m) in OTHER_FLAGS.items() if m])
    def test_manifest_records_each_file_size_and_sha256(self, paths, tmp_path, command):
        # the inputs as they were before the command ran, the outputs as it left them
        inputs = [Path(paths[name]) for name in INPUTS[command]]
        before = [(p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
                  for p in inputs]
        assert main(self.argv(command, paths, tmp_path)) == EXIT_OK
        manifest = json.loads(
            (tmp_path / f"{OTHER_FLAGS[command][1]}.manifest.json").read_text())
        assert set(manifest) == {"tool", "version", "prompt_version", "created_at", "config",
                                 "inputs", "outputs", "input_files", "output_files"}
        assert manifest["input_files"] == [
            {"path": str(p), "bytes": size, "sha256": sha256}
            for p, (size, sha256) in zip(inputs, before)]
        assert manifest["output_files"] == [
            {"path": p, "bytes": Path(p).stat().st_size,
             "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for p in manifest["outputs"]]

    @pytest.mark.parametrize("command", [c for c, (_, m) in OTHER_FLAGS.items() if m])
    def test_writes_into_a_directory_that_does_not_exist(self, paths, http_stub, tmp_path,
                                                         command):
        http_stub.script = [(200, {"choices": [{"message": {"content": "about alias0"}}]})]
        out = tmp_path / "new" / "dir"
        argv = self.argv(command, paths, out)
        if command == "generate":  # its cache is new and empty: it asks the stub for each query
            argv += ["--endpoint", http_stub.url]
        assert main(argv) == EXIT_OK
        target = out / OTHER_FLAGS[command][1]
        manifest = json.loads(Path(f"{target}.manifest.json").read_text())
        assert target.exists() and manifest["outputs"][-1] == str(target)
        if command == "generate":
            assert len(ReferenceCache(target)) == http_stub.call_count > 0

    def test_file_not_found_while_running_exits_1(self, paths, tmp_path, capsys,
                                                  monkeypatch):
        def vanished(path, *args, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", str(path))

        monkeypatch.setattr(cli, "write_run", vanished)
        assert main(self.argv("search", paths, tmp_path)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "No such file or directory" in err and "missing input file" not in err

    @pytest.mark.parametrize("command, dropped", [("eval", []), ("analyze", []),
                                                  ("sweep", ["--out"])])
    def test_no_output_no_manifest(self, paths, tmp_path, command, dropped):
        argv = self.argv(command, paths, tmp_path)
        for flag in dropped:
            del argv[argv.index(flag):argv.index(flag) + 2]
        before = set(paths["dir"].glob("*.manifest.json"))
        assert main(argv) == EXIT_OK
        assert set(paths["dir"].glob("*.manifest.json")) == before
        assert not list(tmp_path.glob("*.manifest.json"))

    @pytest.mark.parametrize("command, name, written", [
        ("index", "corpus", "i.npz"), ("search", "queries", "s.run"),
        ("pipeline", "cache", "p.pre.run"), ("sweep", "qrels", "sweep.jsonl"),
        ("pipeline", "corpus", "p.post.run.manifest.json")])
    def test_output_that_is_an_input_exit_code_and_message(self, paths, tmp_path, capsys,
                                                           command, name, written):
        # the input is a copy at an output's path, named on the command line by a symlink,
        # so only the files' identity, not their spelling, shows that they are one
        out = tmp_path / "out"
        out.mkdir()
        target = out / written
        target.write_bytes(Path(paths[name]).read_bytes())
        link = tmp_path / f"link-{name}"
        link.symlink_to(target)
        rc = main(self.argv(command, {**paths, name: link}, out))
        assert rc == EXIT_USAGE
        flag = "--out-prefix" if command == "pipeline" else "--out"
        assert capsys.readouterr().err == (f"error: {flag} would write {target}, "
                                           f"which is the --{name} input file\n")
        assert target.read_bytes() == Path(paths[name]).read_bytes()
        assert list(out.iterdir()) == [target]

    def test_missing_input_is_checked_before_the_tag(self, paths, tmp_path, capsys):
        rc = main(self.argv("search", {**paths, "cache": tmp_path / "nope.jsonl"},
                            tmp_path) + ["--tag", "my run"])
        assert rc == EXIT_MISSING_FILE
        assert "missing input file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "pipeline"])
    def test_tag_is_checked_before_any_input_is_read(self, paths, tmp_path, capsys, command):
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"")
        out = tmp_path / "out"
        out.mkdir()
        rc = main(self.argv(command, {**paths, "index": corrupt}, out) + ["--tag", "my run"])
        assert rc == EXIT_USAGE
        assert "error: --tag 'my run' is empty or holds whitespace" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_config_key_inputs_is_unknown(self, paths, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"_inputs": []}))
        rc = main(["--config", str(cfg), *self.argv("search", paths, tmp_path)])
        assert rc == EXIT_USAGE
        assert "unknown key(s) '_inputs'" in capsys.readouterr().err
        assert not (tmp_path / "s.run").exists()


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


def _rewrite_coded(src, dst, column, values):
    """Copy an index archive with ``values`` stored in ``column`` as save_index stores them,
    ordinal gaps starting from 0 at each term of the archive's own ``dfs``."""
    _rewrite_npz(src, dst, **coded(column, values, load_index(src).offsets))


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
        self._assert_rejected(dataset_dir, index, tmp_path, capsys, "not an .npz archive")

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

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 99])
    def test_format_version(self, dataset_dir, tmp_path, capsys, version):
        # only format 8 is read: format 1's missing digests are never reached
        index = tmp_path / f"v{version}.idx"
        dropped = {"doc_digests": None} if version == 1 else {}
        _rewrite_npz(dataset_dir["index"], index, format_version=np.int64(version), **dropped)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"(format version {version}, not 8)")

    # a posting column with values no index build makes is rejected by name

    def test_float_tfs(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "float-tfs.idx"
        _rewrite_npz(dataset_dir["index"], index,
                     tfs=_column(dataset_dir["index"], "tfs") + 0.5)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'tfs' has dtype float64, not uint8")

    def test_negative_tfs(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "negative-tfs.idx"
        _rewrite_npz(dataset_dir["index"], index,
                     tfs=-_column(dataset_dir["index"], "tfs", np.int32))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'tfs' has dtype int32, not uint8")

    def test_tf_of_0(self, dataset_dir, tmp_path, capsys):
        # a posting holds its term at least once
        tfs = _column(dataset_dir["index"], "tfs")
        tfs[3] = 0
        index = tmp_path / "tf-0.idx"
        _rewrite_npz(dataset_dir["index"], index, tfs=tfs)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'tfs' holds 0, at posting 3")

    def test_tfs_of_the_wrong_length(self, dataset_dir, tmp_path, capsys):
        # one tf per posting: a tf too few would shift every later document's length
        tfs = _column(dataset_dir["index"], "tfs")
        index = tmp_path / "short-tfs.idx"
        _rewrite_npz(dataset_dir["index"], index, tfs=tfs[:-1])
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'tfs' has {len(tfs) - 1} entries, "
                              f"not the {len(tfs)} postings of 'doc_ordinals'")

    def test_dfs_that_do_not_add_up(self, dataset_dir, tmp_path, capsys):
        dfs = np.diff(load_index(dataset_dir["index"]).offsets)
        dfs[0] += 1
        index = tmp_path / "dfs.idx"
        _rewrite_coded(dataset_dir["index"], index, "dfs", dfs)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'dfs' sums to {dfs.sum()}, "
                              f"not to the {dfs.sum() - 1} postings")

    def test_ordinal_past_the_documents(self, dataset_dir, tmp_path, capsys):
        loaded = load_index(dataset_dir["index"])
        ordinals = loaded.doc_ordinals + 5  # each term's first gap raised by 5
        index = tmp_path / "ordinals.idx"
        _rewrite_coded(dataset_dir["index"], index, "doc_ordinals", ordinals)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'doc_ordinals' holds {ordinals.max()}, "
                              f"not an ordinal of the {loaded.num_docs} documents")

    def test_decreasing_offsets(self, dataset_dir, tmp_path, capsys):
        # offsets are the running sum of dfs, which only a signed escape could make fall
        index = tmp_path / "offsets.idx"
        _rewrite_npz(dataset_dir["index"], index, dfs_escapes=np.array([-1], dtype=np.int32))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'dfs_escapes' has dtype int32, not an unsigned type")

    def test_byte_column_of_another_dtype(self, dataset_dir, tmp_path, capsys):
        index = tmp_path / "wide.idx"
        _rewrite_npz(dataset_dir["index"], index,
                     doc_ordinals=_column(dataset_dir["index"], "doc_ordinals", np.uint16))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'doc_ordinals' has dtype uint16, not uint8")

    def test_string_column_of_another_dtype(self, dataset_dir, tmp_path, capsys):
        # read as bytes, uint16 ids would load holding NUL characters
        index = tmp_path / "wide-ids.idx"
        _rewrite_npz(dataset_dir["index"], index,
                     doc_id_bytes=_column(dataset_dir["index"], "doc_id_bytes", np.uint16))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "column 'doc_id_bytes' has dtype uint16, not uint8")

    # every byte 255 of an escaped column takes the next entry of its escape column

    def test_one_escape_missing(self, dataset_dir, tmp_path, capsys):
        stored = _column(dataset_dir["index"], "doc_ordinals")
        escapes = len(_column(dataset_dir["index"], "doc_ordinals_escapes"))
        stored[np.flatnonzero(stored != 255)[0]] = 255
        index = tmp_path / "missing.idx"
        _rewrite_npz(dataset_dir["index"], index, doc_ordinals=stored)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'doc_ordinals' has {escapes + 1} bytes 255, "
                              f"but {escapes} escapes")

    def test_one_escape_extra(self, dataset_dir, tmp_path, capsys):
        escapes = _column(dataset_dir["index"], "doc_ordinals_escapes")
        index = tmp_path / "extra.idx"
        _rewrite_npz(dataset_dir["index"], index,
                     doc_ordinals_escapes=np.append(escapes, escapes.dtype.type(255)))
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'doc_ordinals' has {len(escapes)} bytes 255, "
                              f"but {len(escapes) + 1} escapes")

    def test_repeated_document_within_a_term(self, dataset_dir, tmp_path, capsys):
        loaded = load_index(dataset_dir["index"])
        ordinals = loaded.doc_ordinals.copy()
        assert loaded.offsets[1] > 2
        ordinals[2] = ordinals[1]  # a gap of 0
        index = tmp_path / "repeated-doc.idx"
        _rewrite_coded(dataset_dir["index"], index, "doc_ordinals", ordinals)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'doc_ordinals' does not increase within the "
                              f"postings of term {loaded.terms[0]!r}, at posting 2")

    def test_gap_wrapping_within_a_term(self, dataset_dir, tmp_path, capsys):
        loaded = load_index(dataset_dir["index"])
        ordinals = loaded.doc_ordinals.copy()
        ordinals[2] = ordinals[1] - 1  # a gap of 255, which is -1 modulo 256
        index = tmp_path / "wrapping.idx"
        _rewrite_coded(dataset_dir["index"], index, "doc_ordinals", ordinals)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'doc_ordinals' does not increase within the "
                              f"postings of term {loaded.terms[0]!r}, at posting 2")

    def test_gap_wrapping_past_the_documents(self, dataset_dir, tmp_path, capsys):
        loaded = load_index(dataset_dir["index"])
        ordinals = loaded.doc_ordinals.copy()
        assert ordinals.dtype == np.uint8 and ordinals[0] == 0
        ordinals[1] = 255  # a gap of 255 from ordinal 0, -1 modulo 256: past the documents
        index = tmp_path / "wrapping-past.idx"
        _rewrite_coded(dataset_dir["index"], index, "doc_ordinals", ordinals)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              f"column 'doc_ordinals' holds 255, "
                              f"not an ordinal of the {loaded.num_docs} documents")

    def test_flipped_bit_in_a_stored_member(self, dataset_dir, tmp_path, capsys):
        # the archive's CRC-32 catches a flipped bit in any member, here in the last
        # document's digest, which would otherwise load and blame the corpus for a
        # change it does not have
        data = bytearray(dataset_dir["index"].read_bytes())
        with zipfile.ZipFile(dataset_dir["index"]) as zf:
            info = zf.getinfo("doc_digests.npy")
            member = zf.read(info)
        assert info.compress_type == zipfile.ZIP_STORED
        end = data.index(member, info.header_offset) + len(member)
        data[end - 1] ^= 1
        digests = _column(dataset_dir["index"], "doc_digests")
        digests[-1] ^= 1 << 56  # the same bit: the digests are little-endian
        _rewrite_npz(dataset_dir["index"], tmp_path / "unchecked.idx", doc_digests=digests)
        assert load_index(tmp_path / "unchecked.idx").doc_digests.tolist() == digests.tolist()
        index = tmp_path / "flipped.idx"
        index.write_bytes(data)
        self._assert_rejected(dataset_dir, index, tmp_path, capsys,
                              "truncated or corrupt: Bad CRC-32 for file 'doc_digests.npy'")

    @pytest.mark.parametrize("member", ["doc_id_bytes.npy", "term_bytes.npy", "dfs.npy",
                                        "tfs.npy", "doc_ordinals.npy",
                                        "doc_ordinals_escapes.npy"])
    def test_flipped_bit_in_a_deflated_member(self, dataset_dir, tmp_path, capsys, member):
        # one bit of each byte of the member's deflated data, bit 0 of the first byte,
        # bit 1 of the second and so on: each flip exits 5 or inflates to the same
        # arrays, and an inflate error (a zlib.error) exits 5 too, not 1
        data = dataset_dir["index"].read_bytes()
        expected = load_index(dataset_dir["index"])
        with zipfile.ZipFile(dataset_dir["index"]) as zf:
            info = zf.getinfo(member)
        assert info.compress_type == zipfile.ZIP_DEFLATED
        # the data follows the 30-byte local header, the name and the extra field
        name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
        start = info.header_offset + 30 + name_len + extra_len
        index = tmp_path / "flipped.idx"
        for i in range(start, start + info.compress_size):
            flipped = bytearray(data)
            flipped[i] ^= 1 << (i - start) % 8
            index.write_bytes(flipped)
            rc = self._search(dataset_dir, index, tmp_path)
            err = capsys.readouterr().err
            if rc == EXIT_OK:
                loaded = load_index(index)
                assert (loaded.doc_ids, loaded.terms) == (expected.doc_ids, expected.terms)
                for name in ("offsets", "doc_ordinals", "tfs"):
                    assert getattr(loaded, name).tobytes() == getattr(expected, name).tobytes()
            else:
                assert rc == EXIT_FORMAT, (i - start, err)
                assert "truncated or corrupt" in err, (i - start, err)

    @pytest.mark.parametrize("field", ["central directory offset", "version needed",
                                       "compression method"])
    def test_flipped_bit_in_the_zip_container(self, dataset_dir, tmp_path, capsys, field):
        # bit 7 of byte 1 of the end record's central-directory offset makes zipfile seek
        # before the file's start (OSError); bit 7 of the first central-directory entry's
        # "version needed" or compression method asks for one zipfile lacks
        # (NotImplementedError)
        data = bytearray(dataset_dir["index"].read_bytes())
        end = data.rfind(b"PK\x05\x06")
        [directory] = struct.unpack_from("<I", data, end + 16)
        data[{"central directory offset": end + 17, "version needed": directory + 6,
              "compression method": directory + 10}[field]] ^= 0x80
        index = tmp_path / "flipped.idx"
        index.write_bytes(data)
        assert self._search(dataset_dir, index, tmp_path) == EXIT_FORMAT
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {index}: not a current queryboost index (truncated "
                               "or corrupt: ")
        assert not (tmp_path / "x.run").exists()


# each declared input -> the command run over a mutated copy of it, and the exit codes the
# README gives that command for a bad file of that input: 4 and 6 where an edit can change
# a query id or text, or a doc id or text, into one that still reads
MUTATED_INPUTS = {
    "corpus": ("analyze", {EXIT_OK, EXIT_FORMAT, EXIT_MISMATCH}),
    "queries": ("search", {EXIT_OK, EXIT_CACHE_MISS, EXIT_FORMAT, EXIT_MISMATCH}),
    "qrels": ("eval", {EXIT_OK, EXIT_FORMAT}),
    "run": ("eval", {EXIT_OK, EXIT_FORMAT}),
    "cache": ("search", {EXIT_OK, EXIT_CACHE_MISS, EXIT_FORMAT, EXIT_MISMATCH}),
    "index": ("search", {EXIT_OK, EXIT_FORMAT}),
}
_AT = st.integers(0, 1 << 20)  # a position, taken modulo the file's length
# (kind, position, argument): a bit flip, a byte write, a truncation, inserted or deleted
# bytes, or the line holding the position written twice
_EDITS = st.lists(st.one_of(
    st.tuples(st.just("flip"), _AT, st.integers(0, 7)),
    st.tuples(st.just("write"), _AT, st.integers(0, 255)),
    st.tuples(st.sampled_from(["truncate", "repeat"]), _AT, st.none()),
    st.tuples(st.just("insert"), _AT, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), _AT, st.integers(1, 8))), min_size=1, max_size=3)


def _mutated(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for kind, position, arg in edits:
        at = position % max(len(data), 1)
        if kind == "flip" and data:
            data[at] ^= 1 << arg
        elif kind == "write" and data:
            data[at] = arg
        elif kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data[at:at] = arg
        elif kind == "delete":
            del data[at:at + arg]
        elif kind == "repeat":
            start = data.rfind(b"\n", 0, at) + 1
            end = data.find(b"\n", at) + 1 or len(data)
            data[end:end] = data[start:end]
    return bytes(data)


class TestMutatedInputs:
    """Any few edits to a declared input exit with a code the README gives that input,
    with one ``error:`` line on failure and no traceback; an index exits 0 only if it
    ranks as the clean one does."""

    @pytest.fixture(scope="class")
    def clean(self, dataset_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("clean")
        assert main(TestDeclaredInputs.argv("search", dataset_dir, out)) == EXIT_OK
        return {**dataset_dir, "run": out / "s.run"}

    @pytest.mark.parametrize("name", MUTATED_INPUTS)
    @settings(max_examples=50, deadline=None)
    @given(edits=_EDITS)
    def test_exit_code_and_one_error_line(self, clean, tmp_path_factory, name, edits):
        command, codes = MUTATED_INPUTS[name]
        out = tmp_path_factory.mktemp("mutated")
        mutated = out / f"mutated-{name}"
        mutated.write_bytes(_mutated(clean[name].read_bytes(), edits))
        with contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(TestDeclaredInputs.argv(command, {**clean, name: mutated}, out))
        assert rc in codes, err.getvalue()
        assert "Traceback" not in err.getvalue()
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == (rc != EXIT_OK), err.getvalue()
        if name == "index" and rc == EXIT_OK:
            assert (out / "s.run").read_bytes() == clean["run"].read_bytes()


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

    def test_cache_missing_the_last_query_runs_no_search(self, dataset_dir, tmp_path, capsys,
                                                         monkeypatch):
        last_id = dataset_dir["queries"].read_text().splitlines()[-1].split("\t")[0]
        cache = tmp_path / "cache.jsonl"
        cache.write_text("".join(
            line for line in dataset_dir["cache"].read_text().splitlines(keepends=True)
            if json.loads(line)["query_id"] != last_id))
        searches = []
        bm25_search = pipeline.bm25_search
        monkeypatch.setattr(pipeline, "bm25_search",
                            lambda *a: searches.append(a) or bm25_search(*a))
        rc = main(["search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]), "--cache", str(cache),
                   "--out", str(tmp_path / "x.run")])
        assert rc == EXIT_CACHE_MISS
        assert f"no cached references for query {last_id!r}" in capsys.readouterr().err
        assert searches == []  # every lookup comes before the first BM25
        assert not (tmp_path / "x.run").exists()

    @pytest.mark.parametrize("references", ["one string", [1, 2]])
    def test_cached_references_not_a_list_of_strings_exit_code(self, dataset_dir, tmp_path,
                                                               capsys, references):
        lines = dataset_dir["cache"].read_text().splitlines()
        entry = json.loads(lines[0])
        entry["references"] = references
        cache = tmp_path / "cache.jsonl"
        cache.write_text("\n".join([json.dumps(entry), *lines[1:]]) + "\n")
        rc = main(["search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]), "--cache", str(cache),
                   "--out", str(tmp_path / "x.run")])
        assert rc == EXIT_FORMAT
        assert (f"error: {cache}:1: corrupt cache line: references must be a list of strings"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.run").exists()

    @pytest.mark.parametrize("command", ["search", "pipeline"])
    def test_lone_surrogate_in_a_cached_reference_exit_code_and_message(
            self, dataset_dir, tmp_path, capsys, command):
        # json.dumps writes the lone surrogate as the escape \\ud800; a string in a list is
        # held to the rule a string field is
        lines = dataset_dir["cache"].read_text().splitlines()
        entry = json.loads(lines[0])
        entry["references"] = [entry["references"][0], "alpha \ud800"]
        cache = tmp_path / "cache.jsonl"
        cache.write_text("\n".join([json.dumps(entry), *lines[1:]]) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        rc = main(TestDeclaredInputs.argv(command, {**dataset_dir, "cache": cache}, out))
        assert rc == EXIT_FORMAT
        assert capsys.readouterr().err == (
            f"error: {cache}:1: corrupt cache line: references does not encode as UTF-8: "
            "'utf-8' codec can't encode character '\\ud800' in position 6: "
            "surrogates not allowed\n")
        assert not list(out.iterdir())

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
        # search evaluates nothing, so a retrieve-k under sweep's eval-k is fine
        out = tmp_path / "k5.run"
        rc = main(["search", "--index", str(dataset_dir["index"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--retrieve-k", "5", "--out", str(out)])
        assert rc == EXIT_OK
        assert max(int(l.split()[3]) for l in out.read_text().splitlines()) == 5

    @pytest.mark.parametrize("layout", ["ordinals-stored", "all-stored", "all-deflated"])
    def test_any_mix_of_deflated_and_stored_members_searches_the_same(
            self, dataset_dir, tmp_path, monkeypatch, layout):
        """A format-8 index reads the same whichever of its members are deflated: one
        saved before ``doc_ordinals`` was deflated, one written by ``np.savez`` and one by
        ``np.savez_compressed`` each load to the built arrays and search the same."""
        built = build_index(load_corpus_jsonl(dataset_dir["corpus"]))
        index = tmp_path / "index.npz"
        ordinals_stored = ("doc_id_bytes", "term_bytes", "dfs", "tfs", "doc_ordinals_escapes")
        if layout == "ordinals-stored":
            monkeypatch.setattr(corpus, "_DEFLATED", ordinals_stored)
            save_index(built, index)
        else:
            with np.load(dataset_dir["index"]) as npz:
                arrays = {k: npz[k] for k in npz.files}
            with open(index, "wb") as fh:
                (np.savez if layout == "all-stored" else np.savez_compressed)(fh, **arrays)
        with zipfile.ZipFile(index) as zf:
            names = {name.removesuffix(".npy") for name in zf.namelist()}
            deflated = {info.filename.removesuffix(".npy") for info in zf.infolist()
                        if info.compress_type == zipfile.ZIP_DEFLATED}
        assert deflated == {"ordinals-stored": set(ordinals_stored), "all-stored": set(),
                            "all-deflated": names}[layout]
        assert_index_equals(load_index(index), columns(built))
        runs = {}
        for name, path in (("current", dataset_dir["index"]), (layout, index)):
            runs[name] = tmp_path / f"{name}.run"
            assert main(["search", "--index", str(path),
                         "--queries", str(dataset_dir["queries"]),
                         "--cache", str(dataset_dir["cache"]),
                         "--out", str(runs[name])]) == EXIT_OK
        assert runs["current"].read_bytes() == runs[layout].read_bytes()


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
        # a title on every document, indexed text_only, changes no ranking: every stage
        # reads the text BM25 indexed, so the three run files are the untitled ones
        titled = tmp_path / "titled.jsonl"
        titled.write_text("".join(
            json.dumps({**doc, "title": f"title of {doc['_id']}"}) + "\n"
            for doc in map(json.loads, dataset_dir["corpus"].read_text().splitlines())))
        assert main(["index", "--corpus", str(titled), "--out", str(tmp_path / "titled.npz"),
                     "--field-policy", "text_only"]) == EXIT_OK
        assert main(["pipeline", "--index", str(tmp_path / "titled.npz"),
                     "--corpus", str(titled), "--queries", str(dataset_dir["queries"]),
                     "--cache", str(dataset_dir["cache"]),
                     "--out-prefix", str(tmp_path / "titled")]) == EXIT_OK
        for stage in ("bm25", "pre", "post"):
            assert ((tmp_path / f"titled.{stage}.run").read_bytes()
                    == (tmp_path / f"out.{stage}.run").read_bytes()), stage

    @pytest.mark.parametrize("flag, value", [("--negatives", "0"), ("--k-reciprocal", "1")])
    def test_calibration_flag_changes_the_post_run(self, default_dataset_dir, tmp_path,
                                                   flag, value):
        # the default set, since dataset_dir gives no query a calibration negative
        inputs = [a for name in INPUTS["pipeline"]
                  for a in (f"--{name}", str(default_dataset_dir[name]))]
        assert main(["pipeline", *inputs, "--out-prefix", str(tmp_path / "default")]) == EXIT_OK
        assert main(["pipeline", *inputs, flag, value,
                     "--out-prefix", str(tmp_path / "flag")]) == EXIT_OK
        runs = {stage: [(tmp_path / f"{prefix}.{stage}.run").read_text()
                        for prefix in ("default", "flag")] for stage in ("bm25", "pre", "post")}
        assert runs["bm25"][0] == runs["bm25"][1] and runs["pre"][0] == runs["pre"][1]
        assert runs["post"][0] != runs["post"][1]

    def test_retrieve_k_below_eval_k(self, dataset_dir, tmp_path):
        # pipeline evaluates nothing either: a retrieve-k under sweep's eval-k is fine
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]),
                   "--retrieve-k", "5", "--out-prefix", str(tmp_path / "out")])
        assert rc == EXIT_OK
        for stage in ("bm25", "pre", "post"):
            lines = (tmp_path / f"out.{stage}.run").read_text().splitlines()
            assert max(int(l.split()[3]) for l in lines) == 5

    def test_remote_provider_without_endpoint(self, dataset_dir, tmp_path, capsys):
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]), "--provider", "remote",
                   "--out-prefix", str(tmp_path / "p")])
        assert rc == EXIT_USAGE
        assert (capsys.readouterr().err
                == "error: --embed-endpoint is required with --provider remote\n")
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("alpha", ["1e200", "1e308"])
    def test_alpha_whose_calibrated_norm_overflows_ranks_as_a_large_one(
            self, default_dataset_dir, tmp_path, capsys, alpha):
        # the calibrated embedding's squared norm overflows (past about 1e154), which
        # cosine must rescale, not read as a score of 0 for every document
        inputs = [a for name in INPUTS["pipeline"]
                  for a in (f"--{name}", str(default_dataset_dir[name]))]
        means = []
        for value in ("1e150", alpha):
            prefix = tmp_path / value
            assert main(["pipeline", *inputs, "--alpha", value,
                         "--out-prefix", str(prefix)]) == EXIT_OK
            capsys.readouterr()
            assert main(["eval", "--run", f"{prefix}.post.run",
                         "--qrels", str(default_dataset_dir["qrels"])]) == EXIT_OK
            means.append(capsys.readouterr().out.splitlines()[-1])
        assert means == ["ndcg@10\tmean\t0.878595"] * 2

    def test_alpha_that_overflows_the_calibrated_embedding_exit_code_and_message(
            self, default_dataset_dir, tmp_path, capsys):
        # alpha times a negative's largest component (1.32 on this set) is past any double
        alpha = repr(sys.float_info.max)
        inputs = [a for name in INPUTS["pipeline"]
                  for a in (f"--{name}", str(default_dataset_dir[name]))]
        rc = main(["pipeline", *inputs, "--alpha", alpha, "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert (f"error: calibrated embedding is not finite (alpha {alpha})\n"
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


    @pytest.mark.parametrize("strategy", ["mean_pool", "contex_pool"])
    @pytest.mark.parametrize("reference", ["  ", "..."])
    def test_cached_reference_without_tokens_exit_code_and_message(
            self, dataset_dir, tmp_path, capsys, strategy, reference):
        lines = dataset_dir["cache"].read_text().splitlines()
        entry = json.loads(lines[0])
        entry["references"][0] = reference
        cache = tmp_path / "cache.jsonl"
        cache.write_text("\n".join([json.dumps(entry), *lines[1:]]) + "\n")
        rc = main(["pipeline", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]), "--cache", str(cache),
                   "--out-prefix", str(tmp_path / "o"), "--strategy", strategy])
        assert rc == EXIT_FORMAT
        assert (f"error: {cache}:1: corrupt cache line: reference 1 has no tokens: "
                f"{reference!r}" in capsys.readouterr().err)
        assert not list(tmp_path.glob("o*"))

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


# the range each number flag takes: a NaN or an infinity is outside every one
_RANGES = {"k1": "[0, inf)", "b": "[0, 1]", "beta": "(0, inf)", "alpha": "[0, inf)",
           "temperature": "[0, inf)"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, settings, message", [
    *[pytest.param("generate" if key == "temperature" else "pipeline", {key: value},
                   f"{key} must be in {span}, got {value}", id=f"{key}={value}")
      for key, span in _RANGES.items() for value in (math.nan, math.inf)],
    pytest.param("sweep", {"k1": math.nan}, "k1 must be in [0, inf), got nan", id="sweep-k1=nan"),
    pytest.param("pipeline", {"retrieve_k": 0}, "retrieve_k must be >= 1, got 0",
                 id="retrieve_k=0"),
    pytest.param("search", {"retrieve_k": 0}, "retrieve_k must be >= 1, got 0",
                 id="search-retrieve_k=0"),
    pytest.param("pipeline", {"n_refs": -1}, "n_refs must be >= 0, got -1", id="n_refs=-1"),
    # sweep alone evaluates, at eval_k (10 by default) of the retrieve_k retrieved
    pytest.param("sweep", {"eval_k": 0, "retrieve_k": 0}, "retrieve_k must be >= 1, got 0",
                 id="eval_k=retrieve_k=0"),
    pytest.param("sweep", {"eval_k": 0}, "eval_k must be >= 1, got 0", id="sweep-eval_k=0"),
    pytest.param("sweep", {"retrieve_k": 5}, "retrieve_k (5) must be >= eval_k (10)",
                 id="sweep-retrieve_k=5"),
    pytest.param("analyze", {"m": 0}, "m must be >= 1, got 0", id="m=0"),
    pytest.param("analyze", {"m": -1}, "m must be >= 1, got -1", id="m=-1"),
    pytest.param("generate", {"jobs": 0}, "jobs must be >= 1, got 0", id="jobs=0"),
    pytest.param("generate", {"max_tokens": 0}, "max_tokens must be >= 1, got 0",
                 id="max_tokens=0"),
    pytest.param("pipeline", {"provider": "remote", "dimension": 0},
                 "dimension must be >= 1, got 0", id="remote-dimension=0"),
    pytest.param("eval", {"k": 0}, "k must be >= 1, got 0", id="eval-k=0"),
    pytest.param("eval", {"k": -3}, "k must be >= 1, got -3", id="eval-k=-3"),
])
def test_setting_out_of_range_exit_code_and_message(dataset_dir, http_stub, tmp_path, capsys,
                                                    source, command, settings, message):
    out = tmp_path / "new" / "out"  # no command makes its output's directory before it fails
    paths = dataset_dir
    if command == "eval":  # no query is judged relevant, so only k's own check can fail
        paths = {"run": tmp_path / "a.run", "qrels": tmp_path / "qrels.txt"}
        paths["run"].write_text("qx Q0 d1 1 1.0 t\n")
        paths["qrels"].write_text("qx 0 d1 0\n")
    argv = TestDeclaredInputs.argv(command, paths, out)
    # a service the command would ask is the stub, which must get no request
    argv += {"generate": ["--endpoint", http_stub.url],
             "pipeline": ["--embed-endpoint", http_stub.url]}.get(command, [])
    if source == "flag":
        argv += [a for key, value in settings.items()
                 for a in (f"--{key.replace('_', '-')}", str(value))]
    else:  # json writes a NaN or an infinity as NaN or Infinity, and reads them back
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        argv = ["--config", str(cfg), *argv]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"error: {message}\n" in captured.err
    assert captured.out == "" and not out.parent.exists()
    assert http_stub.requests == []


class TestEmbeddingServiceFaults:
    """A service answering without usable vectors is a runtime fault (exit 1), not a
    cache miss or a usage error, and the message names the endpoint and the problem."""

    @pytest.mark.parametrize("reply, problem", [
        (lambda body: {}, "response body has no 'embeddings' key"),
        (lambda body: {"embeddings": [[1.0] * 8] * (len(body["input"]) - 1)},
         "vectors for"),
        (lambda body: {"embeddings": [[1.0] * 7] * len(body["input"])},
         "expected dimension 8, got shape (7,)"),
        (lambda body: {"embeddings": [[float("nan")] * 8] * len(body["input"])},
         "vector 0 holds a NaN or infinite component"),
        (lambda body: {"embeddings": [[0.0] * 8] * len(body["input"])},
         "vector 0 is all zeros"),
    ], ids=["no-embeddings-key", "too-few-vectors", "wrong-dimension", "nan-vector",
            "zero-vector"])
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
    """A complete chat answer without usable completions, to the first request or
    to a re-ask, fails at once (exit 1), caches nothing, and the message names the
    endpoint and the problem."""

    @pytest.mark.parametrize("replies, problem", [
        ([{"choices": [{"message": {"content": None}}]}], "a message's content is not a string"),
        ([[{"message": {"content": "x"}}]], "response body has no 'choices' list of messages"),
        ([{"choices": [{"message": "x"}]}], "response body has no 'choices' list of messages"),
        ([{"id": "x"}], "response body has no 'choices' list of messages"),
        ([b"<html>busy</html>"], "response body is not JSON"),
        ([{"choices": []}], "returned 0 completions for n=1"),
        ([{"choices": [{"message": {"content": "alpha \ud800 beta"}}]}],
         "a message's content does not encode as UTF-8: 'utf-8' codec can't encode "
         "character '\\ud800' in position 6: surrogates not allowed"),
        # the first completion has no tokens, so it is asked for again, and none comes
        ([{"choices": [{"message": {"content": "  "}}]}, {"choices": []}],
         "returned 0 completions for n=1"),
    ], ids=["null-content", "json-list", "message-not-object", "no-choices", "not-json",
            "no-completion", "lone-surrogate", "re-ask-without-a-completion"])
    def test_exit_code_and_message(self, http_stub, tmp_path, capsys, replies, problem):
        http_stub.script = [(200, reply) for reply in replies]
        queries = tmp_path / "queries.tsv"
        queries.write_text("q1\tabout alias1\n")
        cache = tmp_path / "cache.jsonl"
        rc = main(["generate", "--queries", str(queries), "--cache", str(cache),
                   "--endpoint", http_stub.url, "--model", "m", "--n", "1"])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"chat service {http_stub.url}: {problem}" in err
        assert http_stub.call_count == len(replies)
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
        ("q1 0 d1 1", "q1 Q0 d1 1 1.0", "a.run:2: expected 6 fields, got 5"),
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

    @pytest.mark.parametrize("grade, flags", [
        ("1023", ["--exponential-gain"]),  # each gain is finite, their DCG is not
        ("1100", ["--exponential-gain"]),
        ("1" + "0" * 400, []),
    ], ids=["dcg-overflows", "exponential-gain-overflows", "401-digit-grade"])
    def test_gain_that_overflows_a_float_exit_code_and_message(self, tmp_path, capsys, grade,
                                                               flags):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("".join(f"q1 0 d{i} {grade}\n" for i in (1, 2, 3)))
        run = tmp_path / "a.run"
        run.write_text("".join(f"q1 Q0 d{i} {i} {4 - i}.0 t\n" for i in (1, 2, 3)))
        rc = main(["eval", "--run", str(run), "--qrels", str(qrels), *flags])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "error: query 'q1': a gain or the DCG overflows a float" in captured.err
        assert captured.out == ""

    def test_run_query_without_a_positive_judgment_is_skipped(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq2 0 d2 0\n")
        run = tmp_path / "a.run"
        run.write_text("q1 Q0 d1 1 1.0 t\nq2 Q0 d2 1 1.0 t\nq3 Q0 d3 1 1.0 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "ndcg@10\tq2\tskipped\nndcg@10\tq3\tskipped\n"
        assert captured.out == "ndcg@10\tq1\t1.000000\nndcg@10\tmean\t1.000000\n"

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

    def test_query_without_a_judged_document_at_min_grade_is_skipped(self, dataset_dir,
                                                                      tmp_path, capsys):
        # only q0 keeps its judgments, so only q0 is reported
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("".join(line for line in dataset_dir["qrels"].read_text().splitlines(
            keepends=True) if line.split()[0] == "q0"))
        rc = main(["analyze", "--index", str(dataset_dir["index"]),
                   "--corpus", str(dataset_dir["corpus"]),
                   "--queries", str(dataset_dir["queries"]),
                   "--cache", str(dataset_dir["cache"]), "--qrels", str(qrels),
                   "--min-grade", "1"])
        assert rc == EXIT_OK
        reports, summary = capsys.readouterr().out.splitlines()
        assert json.loads(reports)["query_id"] == "q0"
        assert summary.endswith("(1 queries)")

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


# axis -> (values, sha256 of the table `sweep` prints) on the default synthetic
# set, the one scripts/build_synthetic_dataset.py writes; the table's
# fingerprints hash each point's PipelineConfig.to_dict() and eval_k
SWEEP_TABLES = {
    "alpha": (("0", "0.2"),
              "5011c4000b6ee9f576f8354efabb4525552868cf20eb90a77ea39bdfa7e081a2"),
    "n_refs": (("0", "1", "2", "3"),
               "a511721eb0aecafb3c339f3b3b7de8cce5716b00c7d43131f81ce66a4ac073a5"),
}


@pytest.fixture(scope="module")
def default_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("default-data")
    paths = write_dataset(make_synthetic_dataset(), out)
    paths["index"] = out / "index.npz"
    assert main(["index", "--corpus", str(paths["corpus"]),
                 "--out", str(paths["index"])]) == EXIT_OK
    return paths


class TestSweepCommand:
    @pytest.mark.parametrize("axis", SWEEP_TABLES)
    def test_table_hash(self, default_dataset_dir, capsys, axis):
        values, sha256 = SWEEP_TABLES[axis]
        capsys.readouterr()
        rc = main(["sweep", "--axis", axis, "--values", *values,
                   *(a for name in INPUTS["sweep"]
                     for a in (f"--{name}", str(default_dataset_dir[name])))])
        assert rc == EXIT_OK
        table = capsys.readouterr().out
        assert hashlib.sha256(table.encode()).hexdigest() == sha256

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
        ("alpha", ["0.2", "-0.5"], "alpha must be in [0, inf), got -0.5"),
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

    @pytest.mark.parametrize("config", [
        {"exponential_gain": "false"},  # a string is truthy: linear gain became exponential
        {"exponential_gain": 1},
        {"k1": True},  # ran with k1 = 1
        {"retrieve_k": 50.5},
        {"t": 1.5},
        {"dimension": 64.0},
        {"k": "ten"},
        {"provider": "hashin"},  # asked for --embed-endpoint
        {"strategy": "bogus"},
        {"dimension": None},
        {"model": 5},
    ], ids=lambda config: json.dumps(config))
    def test_value_its_flag_does_not_take(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # the value is checked before the command runs, so the missing inputs are not reached
        rc = main(["--config", str(cfg), "eval", "--run", "x", "--qrels", "y"])
        assert rc == EXIT_USAGE
        [(key, value)] = config.items()
        assert capsys.readouterr().err == (f"error: config file {cfg}: key {key!r} cannot be "
                                           f"{json.dumps(value)}\n")

    @pytest.mark.parametrize("config, flags", [
        ({"exponential_gain": True}, ["--exponential-gain"]),
        ({"exponential_gain": False, "k": "3"}, ["--k", "3"]),
        ({"k": 3, "t": None, "alpha": 1, "k1": "1.5", "strategy": "concat",
          "embed_endpoint": None}, ["--k", "3"]),
        ({"tag": "my run"}, []),  # a tag that search would reject does not reach eval
    ])
    def test_values_their_flags_take(self, tmp_path, capsys, config, flags):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d2 3\n")
        run = tmp_path / "r.run"
        run.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = ["eval", "--run", str(run), "--qrels", str(qrels)]
        assert main(["--config", str(cfg), *args]) == EXIT_OK
        from_config = capsys.readouterr().out
        assert main([*args, *flags]) == EXIT_OK
        assert from_config == capsys.readouterr().out

    def test_flag_beta_overrides_a_config_t(self, dataset_dir, tmp_path):
        # explicit flags override the config: --beta runs adaptive weighting, not t = 2
        inputs = ["--index", str(dataset_dir["index"]), "--queries", str(dataset_dir["queries"]),
                  "--cache", str(dataset_dir["cache"])]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 2}))
        runs = {name: tmp_path / f"{name}.run" for name in ("config", "beta", "t")}
        assert main(["--config", str(cfg), "search", *inputs, "--beta", "0.05",
                     "--out", str(runs["config"])]) == EXIT_OK
        assert main(["search", *inputs, "--beta", "0.05", "--out", str(runs["beta"])]) == EXIT_OK
        assert main(["search", *inputs, "--t", "2", "--out", str(runs["t"])]) == EXIT_OK
        assert runs["config"].read_bytes() == runs["beta"].read_bytes()
        assert runs["beta"].read_bytes() != runs["t"].read_bytes()
        config = json.loads(Path(f"{runs['config']}.manifest.json").read_text())["config"]
        assert (config["beta"], config["t"]) == (0.05, None)

    def test_config_t_wins_over_config_beta(self, dataset_dir, tmp_path):
        inputs = ["--index", str(dataset_dir["index"]), "--queries", str(dataset_dir["queries"]),
                  "--cache", str(dataset_dir["cache"])]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 2, "beta": 0.05}))
        assert main(["--config", str(cfg), "search", *inputs,
                     "--out", str(tmp_path / "config.run")]) == EXIT_OK
        assert main(["search", *inputs, "--t", "2", "--out", str(tmp_path / "t.run")]) == EXIT_OK
        assert (tmp_path / "config.run").read_bytes() == (tmp_path / "t.run").read_bytes()

    @pytest.mark.parametrize("key, value", [("help", True), ("command", "index"),
                                            ("config", "elsewhere.json")])
    def test_key_of_no_flag_a_config_sets_is_unknown(self, dataset_dir, tmp_path, capsys,
                                                     key, value):
        # help, the subcommand and --config itself are no defaults a config file can set
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(["--config", str(cfg), *TestDeclaredInputs.argv("search", dataset_dir,
                                                                  tmp_path)])
        assert rc == EXIT_USAGE
        assert f"unknown key(s) {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "s.run").exists()

    def test_verbose_key_is_accepted(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verbose": True}))
        assert main(["--config", str(cfg),
                     *TestDeclaredInputs.argv("search", dataset_dir, tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "s.run.manifest.json").read_text())
        assert manifest["config"]["verbose"] is True

    def test_lone_surrogate_in_a_config_string_names_the_file_and_key(self, dataset_dir,
                                                                      tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tag": "a\ud800"}))  # written as the escape \\ud800
        rc = main(["--config", str(cfg), *TestDeclaredInputs.argv("search", dataset_dir,
                                                                  tmp_path)])
        assert rc == EXIT_FORMAT
        assert capsys.readouterr().err == (
            f"error: malformed config file: {cfg}: tag does not encode as UTF-8: 'utf-8' "
            "codec can't encode character '\\ud800' in position 1: surrogates not allowed\n")
        assert not list(tmp_path.glob("s.run*"))

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": 5')
        assert main(["--config", str(cfg), "eval", "--run", "x", "--qrels", "y"]) == EXIT_FORMAT
        assert capsys.readouterr().err.startswith("error: malformed config file: ")

    def test_config_not_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "eval", "--run", "x", "--qrels", "y"]) == EXIT_FORMAT

    def test_missing_config(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.json"), "eval",
                   "--run", "x", "--qrels", "y"])
        assert rc == EXIT_MISSING_FILE

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"k": 5, "model": "\xff"}')
        assert main(["--config", str(cfg), "eval", "--run", "x", "--qrels", "y"]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed config file: {cfg}: ") and "0xff" in err

    def test_config_directory_exits_1_with_one_error_line(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path), "eval", "--run", "x", "--qrels", "y"])
        assert rc == EXIT_ERROR
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(tmp_path) in line

    def test_config_with_byte_order_mark_reads_as_without(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d2 3\n")
        run = tmp_path / "r.run"
        run.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n")
        outputs = []
        for name, data in (("plain", b'{"k": 1}'), ("bom", codecs.BOM_UTF8 + b'{"k": 1}')):
            cfg = tmp_path / f"{name}.json"
            cfg.write_bytes(data)
            assert main(["--config", str(cfg), "eval", "--run", str(run),
                         "--qrels", str(qrels)]) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out.startswith("ndcg@1\t")

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=40),
        st.dictionaries(st.sampled_from(["k", "k1", "t", "verbose", "strategy", "config",
                                         "command", "bogus"]),
                        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                        max_size=3).map(lambda d: json.dumps(d).encode())))
    @example(b"\xff")
    @example(codecs.BOM_UTF8 * 2 + b"{}")
    @example(b"[" * 100_000)
    def test_any_config_bytes_give_an_exit_code_and_one_error_line(self, tmp_path_factory,
                                                                   data):
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg.write_bytes(data)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["--config", str(cfg), "eval", "--run", "x", "--qrels", "y"])
        assert rc in {EXIT_ERROR, EXIT_USAGE, EXIT_MISSING_FILE, EXIT_FORMAT}
        assert [line.startswith("error:") for line in err.getvalue().splitlines()] == [True]


def test_unknown_flag_exits_2(dataset_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--run", "x", "--qrels", "y", "--bogus"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("command, flag", [("pipeline", "--eval-k"), ("sweep", "--n-refs"),
                                           ("search", "--jobs")])
def test_flag_of_another_command_exits_2(dataset_dir, tmp_path, capsys, command, flag):
    # only sweep evaluates, only pipeline runs with a fixed reference count, and only
    # generate sends requests in parallel
    with pytest.raises(SystemExit) as exc:
        main([*TestDeclaredInputs.argv(command, dataset_dir, tmp_path), flag, "1"])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
