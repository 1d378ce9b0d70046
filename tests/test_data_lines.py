"""The one line reader (``corpus.read_data_lines``) as each data file reader uses it.

Every line-oriented data file (corpus, queries, qrels, run and reference
cache) is read by one rule: blank lines are skipped, CRLF reads as LF, a
byte order mark that starts the file is dropped, a line that is not UTF-8
is named as ``path:line`` (exit 5 through the CLI), and a repeated key
names both lines. The per-reader message tests live beside each reader's
other tests.
"""

import json
import logging
import re

import pytest

from queryboost.cli import EXIT_FORMAT, main
from queryboost.corpus import DataFormatError, load_corpus_jsonl
from queryboost.evaluation import read_qrels, read_queries_tsv, read_run
from queryboost.generation import ReferenceCache

QRELS = "q1 0 d1 3\nq1 0 d2 1\n"
RUN = "q1 Q0 d1 1 2.000000 t\nq1 Q0 d2 2 1.000000 t\n"
QUERIES = "q1\tabout alias0\n"


def _cache_line(query_id, query):
    rs = {"query_id": query_id, "query": query, "model": "m", "prompt_version": "v1",
          "references": [f"a reference for {query}"], "created_at": ""}
    return json.dumps(rs, ensure_ascii=False)


def _cache_entries(path):
    cache = ReferenceCache(path)
    return [cache.get(q, "m") for q in ("q1", "q2")]


def _partner(tmp_path, name, text):
    """Write one good input file that a command needs beside the file under test."""
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# reader -> (file name, its two good lines, the word of line 2 that gets a 0xff byte,
# how to read the file, the command line that reads it as an input)
READERS = {
    "corpus": ("corpus.jsonl",
               ['{"_id": "d1", "text": "alpha"}', '{"_id": "d2", "text": "beta gamma"}'],
               "gamma", load_corpus_jsonl,
               lambda path, tmp: ["index", "--corpus", path, "--out", str(tmp / "i.npz")]),
    "queries": ("queries.tsv", ["q1\tabout alias0", "q2\tabout alias1"], "alias1",
                read_queries_tsv,
                # main reads the queries before generate sends any request
                lambda path, tmp: ["generate", "--queries", path, "--cache",
                                   str(tmp / "c.jsonl"), "--model", "m",
                                   "--endpoint", "http://127.0.0.1:9/"]),
    "qrels": ("qrels.txt", ["q1 0 d1 3", "q1 0 d2 1"], "d2", read_qrels,
              lambda path, tmp: ["eval", "--run", _partner(tmp, "a.run", RUN),
                                 "--qrels", path]),
    "run": ("a.run", ["q1 Q0 d1 1 2.000000 t", "q1 Q0 d2 2 1.000000 t"], "d2", read_run,
            lambda path, tmp: ["eval", "--run", path,
                               "--qrels", _partner(tmp, "qrels.txt", QRELS)]),
    # the cache is read before generate sends any request
    "cache": ("cache.jsonl", [_cache_line("q1", "about alias0"),
                              _cache_line("q2", "about alias1")], "alias1", _cache_entries,
              lambda path, tmp: ["generate", "--queries", _partner(tmp, "q.tsv", QUERIES),
                                 "--cache", path, "--model", "m",
                                 "--endpoint", "http://127.0.0.1:9/"]),
}


@pytest.mark.parametrize("reader", READERS)
class TestEveryReader:
    def test_blank_lines_are_skipped(self, tmp_path, reader):
        _, lines, _, read, _ = READERS[reader]
        plain, spaced = tmp_path / "plain", tmp_path / "spaced"
        plain.write_text("\n".join(lines) + "\n")
        spaced.write_text("\n \t\n" + "\n\n".join(lines) + "\n  \n")
        assert read(spaced) == read(plain)

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crlf_reads_as_lf(self, tmp_path, reader, ending):
        _, lines, _, read, _ = READERS[reader]
        lf, other = tmp_path / "lf", tmp_path / "other"
        lf.write_bytes("\n".join(lines).encode() + b"\n")
        other.write_bytes(ending.join(line.encode() for line in lines) + ending)
        assert read(other) == read(lf)

    def test_unicode_whitespace_line_is_blank(self, tmp_path, reader):
        _, lines, _, read, _ = READERS[reader]
        plain, spaced = tmp_path / "plain", tmp_path / "spaced"
        plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
        spaced.write_text("\u00a0\u3000\n" + "\n".join(lines) + "\n", encoding="utf-8")
        assert read(spaced) == read(plain)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path, reader):
        _, lines, _, read, _ = READERS[reader]
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
        marked.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read(marked) == read(plain)

    def test_byte_not_utf8_exits_5_naming_the_line(self, tmp_path, capsys, reader):
        name, lines, word, _, argv = READERS[reader]
        path = tmp_path / name
        line2 = lines[1].replace(word, f"{word[0]}\udcff{word[1:]}").encode(
            "utf-8", "surrogateescape")  # the byte 0xff inside the word
        path.write_bytes(lines[0].encode() + b"\n" + line2 + b"\n")
        assert main(argv(str(path), tmp_path)) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert f"error: {path}:2: " in err
        assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("reader, repeat, key", [
    ("corpus", '{"_id": "d1", "text": "delta"}', "_id 'd1'"),
    ("queries", "q1\tother text", "query id 'q1'"),
    ("qrels", "q1 0 d1 0", "doc 'd1' for query 'q1'"),
    ("run", "q1 Q0 d1 3 0.500000 t", "doc 'd1' for query 'q1'"),
])
def test_repeated_key_exits_5_naming_both_lines(tmp_path, capsys, reader, repeat, key):
    name, lines, _, _, argv = READERS[reader]
    path = tmp_path / name
    path.write_text("\n".join([*lines, repeat]) + "\n")
    assert main(argv(str(path), tmp_path)) == EXIT_FORMAT
    assert f"error: {path}:3: duplicate {key} (first on line 1)\n" in capsys.readouterr().err


# The two JSON readers share one rule (``corpus.json_object``). reader -> (its message
# prefix, a required key, a string field)
JSON_READERS = {"corpus": ("", "text", "text"),
                "cache": ("corrupt cache line: ", "references", "query")}
SURROGATE_ERROR = ("'utf-8' codec can't encode character '\\ud800' in position 6: "
                   "surrogates not allowed")


# each bad line is made from the reader's good line 2 (a dict), its required key and its
# string field: id -> (how, the problem named)
BAD_JSON_LINES = {
    "malformed-json": (lambda rec, key, field: json.dumps(rec)[:-1],
                       "malformed JSON: Expecting ',' delimiter"),
    "not-an-object": (lambda rec, key, field: json.dumps(list(rec.values())),
                      "expected a JSON object"),
    "missing-key": (lambda rec, key, field: json.dumps({k: v for k, v in rec.items() if k != key}),
                    "missing required key {key!r}"),
    "wrong-type": (lambda rec, key, field: json.dumps({**rec, field: 7}),
                   "{field} must be a string, not int"),
    "lone-surrogate": (lambda rec, key, field: json.dumps({**rec, field: "alpha \ud800 beta"}),
                       f"{{field}} does not encode as UTF-8: {SURROGATE_ERROR}"),
}
# the cache's two fields that may be absent
BAD_CACHE_LINES = {
    "prompt-version-list": (lambda rec, key, field: json.dumps({**rec, "prompt_version": ["v1"]}),
                            "prompt_version must be a string or null, not list"),
    "created-at-int": (lambda rec, key, field: json.dumps({**rec, "created_at": 5}),
                       "created_at must be a string or null, not int"),
}


@pytest.mark.parametrize("reader, spoil, problem", [
    *(pytest.param(reader, spoil, problem, id=f"{reader}-{name}")
      for reader in JSON_READERS for name, (spoil, problem) in BAD_JSON_LINES.items()),
    *(pytest.param("cache", spoil, problem, id=f"cache-{name}")
      for name, (spoil, problem) in BAD_CACHE_LINES.items())])
def test_bad_json_line_names_the_line_in_every_json_reader(tmp_path, reader, spoil, problem):
    name, lines, _, read, _ = READERS[reader]
    prefix, key, field = JSON_READERS[reader]
    path = tmp_path / name
    path.write_text(f"{lines[0]}\n{spoil(json.loads(lines[1]), key, field)}\n")
    with pytest.raises(DataFormatError, match=re.escape(
            f"{path}:2: {prefix}{problem.format(key=key, field=field)}")):
        read(path)


@pytest.mark.parametrize("field", ["query_id", "query", "model"])
def test_lone_surrogate_in_the_cache_exits_5_naming_the_line(tmp_path, capsys, field):
    name, lines, _, _, argv = READERS["cache"]
    path = tmp_path / name
    line2 = json.dumps({**json.loads(lines[1]), field: "alpha \ud800 beta"})
    path.write_text(f"{lines[0]}\n{line2}\n")
    assert main(argv(str(path), tmp_path)) == EXIT_FORMAT
    assert (f"error: {path}:2: corrupt cache line: {field} does not encode as UTF-8: "
            f"{SURROGATE_ERROR}\n" in capsys.readouterr().err)


def test_torn_cache_line_cut_inside_a_character_is_dropped(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    last = _cache_line("q2", "über alias1").encode()
    cut = last.index("ü".encode()) + 1  # one byte of the two of 'ü'
    path.write_bytes(_cache_line("q1", "about alias0").encode() + b"\n" + last[:cut])
    with caplog.at_level(logging.WARNING, logger="queryboost"):
        cache = ReferenceCache(path)
    assert len(cache) == 1 and cache.get("q1", "m") is not None
    assert f"{path}:2: dropping torn final line (no trailing newline): 'utf-8' codec" \
        in caplog.text


def test_byte_not_utf8_in_the_cache_keeps_its_message(tmp_path):
    path = tmp_path / "cache.jsonl"
    line = _cache_line("q1", "about alias0").encode().replace(b"alias0", b"al\xffias0", 1)
    path.write_bytes(line + b"\n")
    position = line.index(b"\xff")
    with pytest.raises(DataFormatError, match=re.escape(
            f"{path}:1: corrupt cache line: 'utf-8' codec can't decode byte 0xff in "
            f"position {position}: invalid start byte")):
        ReferenceCache(path)


def test_byte_order_mark_after_the_start_is_part_of_its_line(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\n\ufeffq2 0 d2 1\n", encoding="utf-8")
    assert read_qrels(path) == {"q1": {"d1": 1}, "\ufeffq2": {"d2": 1}}


def test_eval_of_qrels_with_a_byte_order_mark(tmp_path, capsys):
    # with the mark read as part of 'q1', q1 scored 0 and was skipped: mean 0.5
    run = _partner(tmp_path, "a.run", "q1 Q0 d1 1 1.0 t\nq2 Q0 d2 1 1.0 t\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 d1 1\nq2 0 d2 1\n", encoding="utf-8-sig")
    assert main(["eval", "--run", run, "--qrels", str(qrels)]) == 0
    out = capsys.readouterr().out
    assert "ndcg@10\tq1\t1.000000" in out and "ndcg@10\tmean\t1.000000" in out
