import hashlib
import json
import re
import tempfile
import time
import weakref
import zipfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from queryboost import corpus
from queryboost.corpus import (FIELD_POLICIES, DataFormatError, Document, IndexFormatError,
                               IndexMismatchError, InvertedIndex, build_index, check_corpus,
                               is_run_field, load_corpus_jsonl, load_index, save_index,
                               text_digests)
from queryboost.tokenizer import tokenize

doc_texts = st.lists(
    st.text(alphabet="ab c", min_size=0, max_size=12), min_size=0, max_size=20)


def test_build_small():
    idx = build_index([Document("d1", "", "cat sat"), Document("d2", "", "dog")])
    assert idx.num_docs == 2
    assert idx.avgdl == 1.5
    assert_index_equals(idx, {"doc_ids": ("d1", "d2"), "terms": ("cat", "sat", "dog"),
                              "doc_lengths": np.array([2, 1], dtype=np.int32),
                              "offsets": np.array([0, 1, 2, 3], dtype=np.int64)})


def test_build_empty():
    idx = build_index([])
    assert idx.num_docs == 0
    assert idx.avgdl == 0.0
    assert idx.terms == ()
    assert idx.offsets.tolist() == [0]
    assert len(idx.doc_ordinals) == len(idx.tfs) == 0


def test_hand_counts():
    docs = [Document("d1", "", "a a"), Document("d2", "", "a b"),
            Document("d3", "", "b")]
    idx = build_index(docs)
    # a: d1 twice, d2 once; b: d2 and d3 once each
    assert_index_equals(idx, {"terms": ("a", "b"),
                              "offsets": np.array([0, 2, 4], dtype=np.int64),
                              "doc_ordinals": np.array([0, 1, 1, 2], dtype=np.uint8),
                              "tfs": np.array([2, 1, 1, 1], dtype=np.uint8)})
    assert idx.avgdl == pytest.approx(5 / 3)


def test_duplicate_doc_id_rejected():
    docs = [Document("d1", "", "x"), Document("d2", "", "z"), Document("d1", "", "y")]
    with pytest.raises(ValueError, match="^doc id 'd1' is repeated$"):
        build_index(docs)


def test_title_plus_text_policy():
    doc = Document("d1", "Title Words", "body")
    assert build_index([doc]).doc_lengths.tolist() == [3]
    assert build_index([doc], field_policy="text_only").doc_lengths.tolist() == [1]


def test_unknown_policy():
    with pytest.raises(ValueError):
        build_index([], field_policy="bogus")


@given(doc_texts)
def test_determinism_and_token_conservation(texts):
    docs = [Document(f"d{i}", "", t) for i, t in enumerate(texts)]
    idx1 = build_index(docs)
    idx2 = build_index(docs)
    assert_index_equals(idx1, columns(idx2))

    assert int(idx1.tfs.sum()) == int(idx1.doc_lengths.sum())
    for t, (lo, hi) in enumerate(zip(idx1.offsets[:-1], idx1.offsets[1:])):
        ordinals = idx1.doc_ordinals[lo:hi].tolist()
        assert hi - lo <= idx1.num_docs, idx1.terms[t]
        assert hi - lo == len(set(ordinals)), idx1.terms[t]


def narrowest(values):
    """``values`` as the first of uint8, uint16 and uint32 that holds the largest of them."""
    largest = max(values, default=0)
    dtype = next(d for d in (np.uint8, np.uint16, np.uint32) if largest <= np.iinfo(d).max)
    return np.array(values, dtype=dtype)


def reference_build(docs, field_policy):
    """The index build_index must equal, from one Counter per document.

    Term ids by first appearance in ordinal order; postings sorted by (term, ordinal).
    Ordinals and tfs at the narrowest unsigned dtype that holds their largest value.
    """
    by_id = {d.doc_id: d for d in docs}
    doc_ids = tuple(sorted(by_id))
    texts = [by_id[d].indexed_text(field_policy) for d in doc_ids]
    term_ids, lengths, postings = {}, [], []
    for ordinal, text in enumerate(texts):
        tokens = tokenize(text)
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.append((term_ids.setdefault(term, len(term_ids)), ordinal, tf))
    postings.sort()
    df = np.bincount([t for t, _, _ in postings], minlength=len(term_ids))
    return {
        "doc_ids": doc_ids,
        "terms": tuple(term_ids),
        "doc_lengths": np.array(lengths, dtype=np.int32),
        "doc_digests": np.array([int.from_bytes(hashlib.blake2b(t.encode("utf-8"),
                                                                digest_size=8).digest(),
                                                "little") for t in texts], dtype="<u8"),
        "offsets": np.concatenate([[0], np.cumsum(df)]).astype(np.int64),
        "doc_ordinals": narrowest([o for _, o, _ in postings]),
        "tfs": narrowest([tf for _, _, tf in postings]),
    }


INDEX_COLUMNS = ("doc_ids", "terms", "field_policy", "doc_lengths", "doc_digests", "offsets",
                 "doc_ordinals", "tfs")


def columns(index):
    """Every column of ``index`` by name, as ``assert_index_equals`` takes them."""
    return {name: getattr(index, name) for name in INDEX_COLUMNS}


def assert_index_equals(index, expected):
    for name, want in expected.items():
        got = getattr(index, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


# ASCII and non-ASCII letters, digits, '_' and punctuation (token separators).
index_text = st.text(alphabet="ab AB9_-.é ßÜ٣", max_size=15)


@st.composite
def corpora(draw):
    """Documents in a drawn order, up to 131 of them.

    A large corpus reuses a few drawn texts, so that it stays cheap to draw.
    """
    texts = draw(st.lists(index_text, min_size=1, max_size=8))
    titles = draw(st.lists(st.sampled_from(["", "", "Title", "Ünï b"]), min_size=1,
                           max_size=3))
    n = draw(st.integers(0, 131))
    docs = [Document(f"d{i:03d}", titles[i % len(titles)], texts[i * 5 % len(texts)])
            for i in range(n)]
    return draw(st.permutations(docs))


@settings(max_examples=150, deadline=None)
@given(corpora(), st.sampled_from(FIELD_POLICIES),
       st.one_of(st.integers(1, 40), st.just(corpus._BLOCK_TOKENS)))
def test_build_equals_reference_builder(docs, field_policy, block_tokens):
    """With small token bounds a corpus spans many build blocks, down to one document each."""
    with mock.patch.object(corpus, "_BLOCK_TOKENS", block_tokens):
        index = build_index(docs, field_policy=field_policy)
    assert_index_equals(index, reference_build(docs, field_policy))
    assert index.term_ids == {t: i for i, t in enumerate(index.terms)}


def test_reference_examples_cover_the_edges():
    docs = [Document("b", "", "!!! ???"), Document("a", "Ünïcode Straße", ""),
            Document("c", "", "the the The"), Document("e", "", "")]
    for field_policy in FIELD_POLICIES:
        assert_index_equals(build_index(docs, field_policy=field_policy),
                            reference_build(docs, field_policy))
    assert_index_equals(build_index([]), reference_build([], "title_plus_text"))


def test_multi_block_index_survives_save_and_load(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "_BLOCK_TOKENS", 50)
    docs = [Document(f"d{i:03d}", "Tïtle" if i % 3 else "",
                     f"w{i % 7} x{i % 11} é{i % 5} w{i % 7}")
            for i in range(193)]
    expected = reference_build(docs, "title_plus_text")
    save_index(build_index(docs), tmp_path / "index")
    assert_index_equals(load_index(tmp_path / "index"), expected)


@pytest.mark.parametrize("doc, length, tfs_sum", [(0, 1, 2), (5, 6, 7)])
def test_doc_length_checked_against_postings_and_tfs_above_1(tmp_path, doc, length,
                                                             tfs_sum):
    # d0 is "w0 w0", one posting with tf 2; d5 has seven postings with tf 1
    docs = [Document(f"d{i}", "", " ".join(f"w{j}" for j in range(i, 2 * i + 1)) + " w0")
            for i in range(6)]
    save_index(build_index(docs), tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    assert "doc_lengths" not in arrays
    loaded = load_index(tmp_path / "index")
    assert loaded.doc_lengths.tolist() == [i + 2 for i in range(6)]
    assert loaded.doc_lengths.dtype == np.int32
    # a doc_lengths column, as older formats stored, is not read: the length stays
    # the sum of the document's tfs
    lengths = loaded.doc_lengths.copy()
    lengths[doc] = length
    arrays["doc_lengths"] = lengths
    with open(tmp_path / "edited", "wb") as fh:
        np.savez(fh, **arrays)
    assert load_index(tmp_path / "edited").doc_lengths[doc] == tfs_sum


def test_document_longer_than_int32_is_rejected(tmp_path, small_index):
    # d3's "cat cat cat" given a tf of 2**31: its length would wrap to a negative int32
    save_index(small_index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays.update(coded("tf_values", np.array([2**31], dtype=np.int64)))
    with open(tmp_path / "edited", "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(IndexFormatError, match=f"column 'tf_values' makes a document "
                                               f"{2**31} tokens long"):
        load_index(tmp_path / "edited")


@pytest.mark.parametrize("max_tf, dtype", [(1, np.uint8), (255, np.uint8),
                                           (256, np.uint16), (65536, np.uint32)])
def test_tfs_dtype_edges(tmp_path, max_tf, dtype):
    index = build_index([Document("d1", "", "a " * max_tf + "b"), Document("d2", "", "b")])
    assert index.tfs.dtype == dtype
    assert index.tfs.max() == max_tf
    # a stored tf of 255 or more escapes, and loads back at the same dtype
    save_index(index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        assert npz["tf_values_escapes"].tolist() == ([max_tf] if max_tf >= 255 else [])
    assert_index_equals(load_index(tmp_path / "index"), columns(index))


@pytest.mark.parametrize("num_docs, dtype", [(256, np.uint8), (257, np.uint16)])
def test_ordinals_dtype_edges(num_docs, dtype):
    index = build_index([Document(f"d{i:03d}", "", "w") for i in range(num_docs)])
    assert index.doc_ordinals.dtype == dtype
    assert index.doc_ordinals.tolist() == list(range(num_docs))


def test_ordinals_narrowed_from_the_largest_posting_ordinal():
    # documents past ordinal 255 have no tokens, so no posting holds their ordinals
    docs = [Document(f"d{i:03d}", "", f"w{i % 3} x" if i < 256 else "!!!")
            for i in range(300)]
    index = build_index(docs)
    assert index.num_docs == 300
    assert index.doc_ordinals.dtype == np.uint8
    assert_index_equals(index, reference_build(docs, "title_plus_text"))


def test_dropped_index_freed_without_a_collection(tmp_path, small_docs, gc_disabled):
    built = build_index(small_docs)
    save_index(built, tmp_path / "index")
    loaded = load_index(tmp_path / "index")
    assert_index_equals(loaded, columns(built))
    refs = weakref.ref(built), weakref.ref(loaded)
    del built, loaded
    assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("long_bytes", [255, 256])
def test_long_non_ascii_strings_round_trip(tmp_path, long_bytes):
    """A doc id and a term of 255 and of 256 UTF-8 bytes are stored as lines, with no
    length column to overflow."""
    long_term = "é" * (long_bytes // 2) + "x" * (long_bytes % 2)  # 2 UTF-8 bytes per é
    long_id = "ü" * (long_bytes // 2) + "y" * (long_bytes % 2)
    index = build_index([Document(long_id, "", long_term), Document("d1", "", "w")])
    save_index(index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        assert "term_lengths" not in npz.files and "doc_id_lengths" not in npz.files
        assert npz["doc_id_bytes"].tobytes() == f"d1\n{long_id}".encode("utf-8")
        assert npz["term_bytes"].tobytes() == f"w\n{long_term}".encode("utf-8")
        assert len(npz["term_bytes"]) == long_bytes + 2
    loaded = load_index(tmp_path / "index")
    assert loaded.terms == index.terms and loaded.doc_ids == index.doc_ids


def test_term_ids_is_a_plain_dict(small_index):
    assert type(small_index.term_ids) is dict
    assert small_index.term_ids.get("unseen") is None
    with pytest.raises(KeyError):
        small_index.term_ids["unseen"]
    assert "unseen" not in small_index.term_ids
    assert len(small_index.term_ids) == len(small_index.terms)


@given(doc_texts)
def test_avgdl_exact(texts):
    docs = [Document(f"d{i}", "", t) for i, t in enumerate(texts)]
    idx = build_index(docs)
    if texts:
        assert idx.avgdl == sum(len(tokenize(t)) for t in texts) / len(texts)
    else:
        assert idx.avgdl == 0.0


class TestJsonlLoading:
    def test_full_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1","title":"T","text":"body"}\n')
        assert load_corpus_jsonl(p) == [Document("d1", "T", "body")]

    def test_missing_title_defaults_empty(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d2","text":"x"}\n')
        assert load_corpus_jsonl(p) == [Document("d2", "", "x")]

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1","text":"x"}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            load_corpus_jsonl(p)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1"}\n')
        with pytest.raises(ValueError, match="missing required key"):
            load_corpus_jsonl(p)

    def test_not_an_object(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1","text":"x"}\n["d2", "y"]\n')
        with pytest.raises(DataFormatError, match=r"c\.jsonl:2: expected a JSON object"):
            load_corpus_jsonl(p)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1","text":"x"}\n\n{"_id":"d2","text":"y"}\n'
                     '{"_id":"d1","text":"z"}\n')
        with pytest.raises(DataFormatError,
                           match=r"c\.jsonl:4: duplicate _id 'd1' \(first on line 1\)"):
            load_corpus_jsonl(p)

    @pytest.mark.parametrize("doc_id", ["a b", "a\tb", " a", "a\n", ""])
    def test_id_a_run_file_cannot_hold_names_the_line(self, tmp_path, doc_id):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"_id": "d1", "text": "x"}) + "\n"
                     + json.dumps({"_id": doc_id, "text": "y"}) + "\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"c.jsonl:2: _id {doc_id!r} is empty or holds whitespace")):
            load_corpus_jsonl(p)

    @pytest.mark.parametrize("fields, problem", [
        ({"_id": "d2", "text": None}, "text must be a string, not NoneType"),
        ({"_id": "d2", "text": ["a", "b"]}, "text must be a string, not list"),
        ({"_id": "d2", "text": 7}, "text must be a string, not int"),
        ({"_id": "d2", "title": ["t"], "text": "y"}, "title must be a string or null, not list"),
        ({"_id": "d2", "title": 0, "text": "y"}, "title must be a string or null, not int"),
        ({"_id": True, "text": "y"}, "_id must be a string or an integer, not bool"),
        ({"_id": 2.0, "text": "y"}, "_id must be a string or an integer, not float"),
        ({"_id": None, "text": "y"}, "_id must be a string or an integer, not NoneType"),
    ])
    def test_field_of_the_wrong_type_names_the_line(self, tmp_path, fields, problem):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"_id": "d1", "text": "x"}) + "\n" + json.dumps(fields) + "\n")
        with pytest.raises(DataFormatError, match=re.escape(f"c.jsonl:2: {problem}")):
            load_corpus_jsonl(p)

    def test_integer_id_and_null_title(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id": 42, "title": null, "text": "x"}\n')
        assert load_corpus_jsonl(p) == [Document("42", "", "x")]

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "c.jsonl"
        lines = [json.dumps({"_id": f"d{i}", "text": f"t{i}"}) for i in range(10)]
        p.write_text("\n".join(lines) + "\n")
        assert [d.doc_id for d in load_corpus_jsonl(p)] == [f"d{i}" for i in range(10)]


def test_index_round_trip(tmp_path, small_index):
    path = tmp_path / "index.json"
    save_index(small_index, path)
    assert [p.name for p in tmp_path.iterdir()] == ["index.json"]  # no ".npz" appended
    assert_index_equals(load_index(path), columns(small_index))


@given(st.dictionaries(st.text(min_size=1, max_size=6).filter(is_run_field),
                       st.text(alphabet="ab cé", max_size=12), max_size=10))
def test_round_trip_any_doc_ids(texts_by_id):
    idx = build_index([Document(d, "", t) for d, t in texts_by_id.items()])
    with tempfile.TemporaryDirectory() as tmp:
        save_index(idx, Path(tmp) / "index")
        loaded = load_index(Path(tmp) / "index")
    assert_index_equals(loaded, columns(idx))
    assert loaded.doc_ids == tuple(sorted(texts_by_id))


@settings(max_examples=100, deadline=None)
@given(corpora(), st.sampled_from(FIELD_POLICIES))
@example([], "title_plus_text")
@example([Document("d1", "", "a b c"), Document("d2", "", "b c d")], "text_only")
@example([Document("d1", "", "a " * 300 + "b"), Document("d2", "", "a a b")], "text_only")
@example([Document(f"d{i:03d}", "", f"w x{i % 2} x{i % 2}") for i in range(300)],
         "text_only")
@example([Document(f"d{i:03d}", "", ("a a" if i % 300 == 0 else "a")
                   + (" c" if i % 400 == 0 else "") + f" b{i % 3}") for i in range(700)],
         "text_only")
def test_load_gives_back_every_saved_array_and_dtype(docs, field_policy):
    """Covered by the examples: no documents, every tf 1, a tf above 255, a df above
    255, and at uint16 ordinals gaps of 255 and more that escape: within a term
    ("c"), between terms and between tfs above 1 ("a")."""
    index = build_index(docs, field_policy=field_policy)
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, Path(tmp) / "index")
        loaded = load_index(Path(tmp) / "index")
    assert_index_equals(loaded, columns(index))


def coded(column, values):
    """``values`` stored as save_index stores ``column``, by name: one byte each and an
    escape column. ``dfs`` and ``tf_values`` go as they are; ``tf_positions`` and
    ``doc_ordinals`` as differences from the entry before. The ordinals' escapes keep
    the ordinals' dtype, which they load at; the others' are uint32."""
    if column not in ("dfs", "tf_values"):
        values = np.diff(values, prepend=np.zeros(1, dtype=values.dtype))
    stored, escapes = corpus._escaped(values)
    if column != "doc_ordinals":
        escapes = escapes.astype(np.uint32)
    return {column: stored, f"{column}_escapes": escapes}


def test_saved_columns_hold_counts_and_only_the_tfs_above_1(tmp_path, small_index):
    save_index(small_index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    assert "offsets" not in arrays and "tfs" not in arrays
    # terms cat, sat, mat, dog, log; d3's "cat cat cat" is posting 1, cat's second
    assert arrays["dfs"].tolist() == np.diff(small_index.offsets).tolist() == [2, 2, 1, 1, 1]
    assert arrays["tf_positions"].tolist() == [1]
    assert arrays["tf_values"].tolist() == [3]
    assert "doc_lengths" not in arrays  # each is the sum of a document's tfs
    # ordinals 0 2 | 0 1 | 0 | 1 | 1, each less the one before modulo 256: sat's first
    # is 254, mat's 255, which escapes, and log's 0
    assert small_index.doc_ordinals.tolist() == [0, 2, 0, 1, 0, 1, 1]
    assert arrays["doc_ordinals"].tolist() == [0, 2, 254, 1, 255, 1, 0]
    assert arrays["doc_ordinals_escapes"].tolist() == [255]
    for name in ("dfs", "tf_positions", "tf_values"):
        assert arrays[f"{name}_escapes"].tolist() == [], name
    for name in ("dfs", "doc_ordinals", "tf_positions", "tf_values"):
        assert arrays[name].dtype == arrays[f"{name}_escapes"].dtype == np.uint8, name


def test_only_the_strings_are_deflated(tmp_path, small_index):
    save_index(small_index, tmp_path / "index")
    # each member as np.savez names it, in the order save_index writes them
    dtypes = {"format_version": np.int64, "field_policy": "<U15", "doc_id_bytes": np.uint8,
              "doc_digests": "<u8", "term_bytes": np.uint8,
              **{f"{c}{e}": np.uint8 for c in ("dfs", "tf_positions", "tf_values",
                                               "doc_ordinals") for e in ("", "_escapes")}}
    with zipfile.ZipFile(tmp_path / "index") as zf:
        assert zf.namelist() == [f"{name}.npy" for name in dtypes]
        for name, dtype in dtypes.items():
            deflated = name in ("doc_id_bytes", "term_bytes")
            assert zf.getinfo(f"{name}.npy").compress_type == (
                zipfile.ZIP_DEFLATED if deflated else zipfile.ZIP_STORED), name
    with np.load(tmp_path / "index") as npz:
        for name, dtype in dtypes.items():
            assert npz[name].dtype == np.dtype(dtype), name


def test_same_index_saves_the_same_bytes(tmp_path, small_index, monkeypatch):
    save_index(small_index, tmp_path / "first")
    with zipfile.ZipFile(tmp_path / "first") as zf:
        assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    # a member dated by the clock would take the clock's time a day later
    later = time.time() + 86400
    monkeypatch.setattr(zipfile, "time", mock.Mock(time=lambda: later,
                                                   localtime=time.localtime))
    save_index(small_index, tmp_path / "second")
    assert (tmp_path / "second").read_bytes() == (tmp_path / "first").read_bytes()


@pytest.mark.parametrize("docs", [
    [Document("d1", "", "cat sat"), Document("d2", "", "dog cat cat")],
    [Document(f"é{i:03d}", "", f"ß{i % 7} w{i} x" + " y" * (i % 300)) for i in range(300)],
], ids=["ascii", "non-ascii-uint16"])
def test_index_stored_uncompressed_loads_the_same(tmp_path, docs):
    """An index written with plain ``np.savez``, every member stored, loads as before."""
    index = build_index(docs)
    save_index(index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    with open(tmp_path / "stored", "wb") as fh:
        np.savez(fh, **arrays)
    with zipfile.ZipFile(tmp_path / "stored") as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
    assert_index_equals(load_index(tmp_path / "stored"), columns(index))
    assert_index_equals(load_index(tmp_path / "index"), columns(index))


@pytest.mark.parametrize("dtype, top", [(np.uint8, 255), (np.uint16, 65535),
                                        (np.uint32, 65536)])
def test_codec_round_trip_over_postings(tmp_path, dtype, top):
    """Ordinals up to ``top``, the largest of their dtype or the first to need it.

    The first term's first ordinal is ``top`` and the next term wraps back to 0;
    gaps of exactly 255 escape as 255, and above uint8 a gap above 255 within a
    term escapes. The last term's 256 postings put the first and the last posting
    more than 255 apart.
    """
    postings = [[top], sorted({0, 255, top}), [1, 2, top - 1], list(range(256))]
    ordinals = np.array([o for p in postings for o in p], dtype=dtype)
    gaps = np.diff(ordinals, prepend=np.zeros(1, dtype=dtype))  # modulo 2**bits
    stored, escapes = corpus._escaped(gaps)
    assert stored.dtype == np.uint8 and escapes.dtype == dtype
    assert escapes.tolist() == [g for g in gaps.tolist() if g >= 255]
    assert 255 in escapes.tolist() and (dtype is np.uint8 or escapes.max() > 255)
    assert np.count_nonzero(stored == 255) == len(escapes)
    arrays = {"doc_ordinals": stored, "doc_ordinals_escapes": escapes}
    decoded = corpus._unescape(arrays, "doc_ordinals", np.empty(len(stored), dtype=dtype))
    assert arrays == {}
    np.cumsum(decoded, dtype=dtype, out=decoded)
    assert decoded.dtype == dtype and decoded.tolist() == ordinals.tolist()

    # the same postings through save_index and load_index, with tfs above 1 at the
    # first and the last posting, so the gap between their positions escapes too
    tfs = np.ones(len(ordinals), dtype=np.uint8)
    tfs[[0, -1]] = 2
    lengths = np.zeros(top + 1, dtype=np.int32)
    np.add.at(lengths, ordinals, tfs)
    offsets = np.cumsum([0, *map(len, postings)], dtype=np.int64)
    index = InvertedIndex(tuple(f"d{i:06d}" for i in range(top + 1)), lengths,
                          np.zeros(top + 1, dtype="<u8"), ("a", "b", "c", "d"), offsets,
                          ordinals, tfs, "text_only")
    save_index(index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        assert npz["tf_positions_escapes"].tolist() == [len(ordinals) - 1]
    assert_index_equals(load_index(tmp_path / "index"), columns(index))


def test_doc_id_a_run_file_cannot_hold_is_rejected(tmp_path, small_index):
    save_index(small_index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays["doc_id_bytes"][4] = ord(" ")  # "d1\nd2\nd3" -> "d1\nd \nd3"
    with open(tmp_path / "edited", "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(IndexFormatError, match="doc id 'd ' is empty or holds whitespace"):
        load_index(tmp_path / "edited")


@pytest.mark.parametrize("doc_id", ["a b", "a\nb", " a", "a\t", ""])
def test_build_rejects_a_doc_id_a_run_file_cannot_hold(doc_id):
    # load_index would reject the file, so no such file is written
    with pytest.raises(ValueError, match=re.escape(f"doc id {doc_id!r} is empty or holds")):
        build_index([Document("d1", "", "x"), Document(doc_id, "", "y")])


@pytest.mark.parametrize("column, old, new, problem", [
    # "cherry" read as "banana": BM25 for "banana" would rank d3, not d2
    ("term_bytes", b"cherry", b"banana", "term 'banana' is repeated"),
    ("doc_id_bytes", b"d1\nd2", b"d2\nd1", "doc ids do not ascend at 'd1'"),
    ("doc_id_bytes", b"d1\nd2", b"d1\nd1", "doc id 'd1' is repeated"),
    ("term_bytes", b"pie", b"p\ne", "column 'dfs' has 4 entries, not the 5 terms of "
                                    "'term_bytes'"),  # one term too many
    ("doc_id_bytes", b"d2\nd3", b"d2d3", "column 'doc_digests' has 3 entries, not the 2 "
                                        "doc ids of 'doc_id_bytes'"),  # one id too few
    ("term_bytes", b"apple", b"app\xffe", "corrupt strings"),
])
def test_crafted_strings_are_rejected(tmp_path, column, old, new, problem):
    docs = [Document("d1", "", "apple pie"), Document("d2", "", "banana apple"),
            Document("d3", "", "cherry")]
    save_index(build_index(docs), tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    stored = arrays[column].tobytes()
    assert stored.count(old) == 1
    arrays[column] = np.frombuffer(stored.replace(old, new), dtype=np.uint8)
    with open(tmp_path / "edited", "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(IndexFormatError, match=re.escape(problem)):
        load_index(tmp_path / "edited")


@pytest.mark.parametrize("column, change, problem", [
    ("dfs", -1, "column 'dfs' has 4 entries, not the 5 terms of 'term_bytes'"),
    ("doc_digests", 1, "column 'doc_digests' has 4 entries, not the 3 doc ids of "
                       "'doc_id_bytes'"),
    ("tf_values", 1, "column 'tf_values' has 2 entries, not the 1 of 'tf_positions'"),
])
def test_column_of_the_wrong_length_is_named_with_both_counts(tmp_path, small_index,
                                                              column, change, problem):
    save_index(small_index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    stored = arrays[column]
    # one entry dropped, or the last one repeated
    arrays[column] = stored[:-1] if change < 0 else np.concatenate([stored, stored[-1:]])
    with open(tmp_path / "edited", "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(IndexFormatError, match=re.escape(problem)):
        load_index(tmp_path / "edited")


def _edited_archive(tmp_path, small_index, **changes):
    """The path of small_index's archive with some arrays replaced (None drops one)."""
    save_index(small_index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    with open(tmp_path / "edited", "wb") as fh:
        np.savez(fh, **arrays)
    return tmp_path / "edited"


@pytest.mark.parametrize("changes, problem", [
    ({"tf_values": None, "dfs_escapes": None}, "missing arrays: tf_values, dfs_escapes"),
    ({"doc_digests": np.zeros((3, 1), dtype="<u8")},
     "column 'doc_digests' has 2 dimensions, not 1"),
    ({"tf_values_escapes": np.zeros((0, 1), dtype=np.uint8)},
     "column 'tf_values_escapes' has 2 dimensions, not 1"),
    ({"tf_values_escapes": np.zeros(0, dtype=np.uint64)},
     "column 'tf_values_escapes' has dtype uint64, not an unsigned type that fits in int64"),
    ({"field_policy": np.str_("title_only")}, "unknown field policy 'title_only'"),
], ids=["missing-arrays", "2-d-column", "2-d-escape-column", "escapes-past-int64",
        "unknown-field-policy"])
def test_archive_without_the_current_layout_is_rejected(tmp_path, small_index, changes,
                                                        problem):
    with pytest.raises(IndexFormatError, match=re.escape(problem)):
        load_index(_edited_archive(tmp_path, small_index, **changes))


def test_failed_save_leaves_previous_index(tmp_path, small_index, monkeypatch):
    path = tmp_path / "index.idx"
    save_index(small_index, path)
    before = path.read_bytes()

    write_array = np.lib.format.write_array
    written = []

    def fail_midway(fh, array, **kwargs):  # the fourth member is cut short
        if len(written) == 3:
            fh.write(b"\x93NUMPY partial")
            raise OSError("No space left on device")
        written.append(array)
        write_array(fh, array, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_midway)
    with pytest.raises(OSError, match="No space left"):
        save_index(build_index([Document("other", "", "dog")]), path)
    assert len(written) == 3  # format_version, field_policy and the deflated doc ids
    assert [p.name for p in tmp_path.iterdir()] == ["index.idx"]
    assert path.read_bytes() == before
    assert_index_equals(load_index(path), columns(small_index))


def test_comparison_keys_give_plain_bools(tmp_path, small_index, gc_disabled):
    """``postings``, ``df`` and ``stats`` are equal exactly when their columns are."""
    save_index(small_index, tmp_path / "index")
    loaded = load_index(tmp_path / "index")

    def changed(**column):
        return InvertedIndex(**{**columns(small_index), **column})

    keys = ("postings", "df", "stats")
    cases = [(loaded, keys),
             (changed(tfs=np.array([2, 3, 1, 1, 1, 1, 1], dtype=np.uint8)),
              ("df", "stats")),
             (changed(doc_lengths=np.array([3, 3, 4], dtype=np.int32)), ("postings", "df")),
             (changed(terms=("cat", "sat", "mat", "dog", "bog")), ("stats",))]
    for index, equal in cases:
        for key in keys:
            assert (getattr(index, key) == getattr(small_index, key)) is (key in equal), key
            assert (getattr(index, key) != getattr(small_index, key)) is (key not in equal), key
    assert (small_index.df == small_index.stats) is False
    ref = weakref.ref(loaded)
    del loaded, cases, index
    assert ref() is None


class TestCheckCorpus:
    def test_digest_is_of_the_indexed_text(self):
        doc = Document("d1", "Title", "body")
        assert build_index([doc]).doc_digests.tolist() == text_digests(["Title body"]).tolist()
        assert (build_index([doc], field_policy="text_only").doc_digests.tolist()
                == text_digests(["body"]).tolist())

    def test_changed_text_names_count_and_first_doc(self, small_docs, small_index):
        store = {d.doc_id: d for d in small_docs}
        store["d3"] = Document("d3", "", "cat cat dog")
        store["d2"] = Document("d2", "", "dog sat  log")  # same tokens, other text
        with pytest.raises(IndexMismatchError,
                           match=r"differ in the text of 2 documents \(first: 'd2'\)"):
            check_corpus(small_index, store)

    def test_title_counts_only_under_title_plus_text(self, small_docs):
        store = {d.doc_id: d for d in small_docs}
        store["d1"] = Document("d1", "new title", "cat sat mat")
        check_corpus(build_index(small_docs, field_policy="text_only"), store)
        with pytest.raises(IndexMismatchError, match="first: 'd1'"):
            check_corpus(build_index(small_docs), store)