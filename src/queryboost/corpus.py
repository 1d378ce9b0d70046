"""Corpus ingestion and an immutable columnar inverted index with BM25 statistics.

Documents are numbered by ordinal in ascending ``doc_id`` order, so an integer
tie-break on ordinals equals a tie-break on doc ids. Postings are stored in
CSR form: term id ``t`` owns entries ``offsets[t]:offsets[t + 1]`` of the
``doc_ordinals`` and ``tfs`` arrays, sorted by ordinal. Those two columns,
like the byte lengths of the stored strings, are kept at the narrowest
unsigned dtype that holds their largest value. Each document also
keeps an 8-byte blake2b digest of the text it was indexed from, so a corpus
whose text changed under the same doc ids is caught. ``save_index`` writes
one ``.npz`` archive holding only what the postings cannot give back: each
term's document count in place of ``offsets``, and only the tfs above 1 with
their positions. ``load_index`` rebuilds the same arrays from it.
"""

import hashlib
import json
import zipfile
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from queryboost.files import atomic_write
from queryboost.tokenizer import tokenize

FIELD_POLICIES = ("text_only", "title_plus_text")
INDEX_FORMAT_VERSION = 3


class DataFormatError(ValueError):
    """A malformed line in a data file: a corpus, queries, qrels or run file."""

    def __init__(self, path, lineno: int, problem: str):
        super().__init__(f"{path}:{lineno}: {problem}")


def is_run_field(value: str) -> bool:
    """Whether ``value`` is one field of a run file line: not empty, no whitespace."""
    return value.split() == [value]


class IndexFormatError(ValueError):
    """An index file that this version cannot read; rebuild it."""

    def __init__(self, path, problem: str):
        super().__init__(f"{path}: not a current queryboost index ({problem}); "
                         f"rebuild it with `queryboost index`")


class IndexMismatchError(ValueError):
    """The corpus does not hold exactly the documents the index was built from."""


@dataclass(frozen=True)
class Document:
    """One corpus passage; the unit that retrieval scores."""

    doc_id: str
    title: str
    text: str

    def indexed_text(self, field_policy: str = "title_plus_text") -> str:
        if field_policy == "title_plus_text" and self.title:
            return f"{self.title} {self.text}"
        return self.text


class _ColumnsKey:
    """A name and index columns, not copied; ``==`` is a plain bool (np.array_equal on arrays)."""

    def __init__(self, *columns):
        self.columns = columns

    def __eq__(self, other):
        if not isinstance(other, _ColumnsKey):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self.columns, other.columns))

    __hash__ = None


class InvertedIndex:
    """Immutable columnar index plus the corpus statistics BM25 needs.

    ``doc_ids[i]``, ``doc_lengths[i]`` and ``doc_digests[i]`` belong to ordinal ``i``;
    ``terms[t]`` is the term with id ``t`` and ``term_ids`` its inverse.
    ``postings``, ``df`` and ``stats`` are only keys for comparing two indexes'
    columns (``_ColumnsKey``), as the benchmark harness does; each is made on
    access, so the index never refers to itself and is freed as soon as its
    last reference goes. What one consumer derives from the index is kept by
    that consumer: a ``HashingEmbedder`` holds its bucket counts for each index
    in a table keyed weakly by the index. Built once by ``build_index``; safe
    for unlimited concurrent readers afterwards.
    """

    def __init__(self, doc_ids: tuple[str, ...], doc_lengths: np.ndarray,
                 doc_digests: np.ndarray, terms: tuple[str, ...], offsets: np.ndarray,
                 doc_ordinals: np.ndarray, tfs: np.ndarray, field_policy: str):
        for arr in (doc_lengths, doc_digests, offsets, doc_ordinals, tfs):
            arr.flags.writeable = False
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.doc_digests = doc_digests
        self.terms = terms
        self.term_ids = {term: t for t, term in enumerate(terms)}
        self.offsets = offsets
        self.doc_ordinals = doc_ordinals
        self.tfs = tfs
        self.field_policy = field_policy
        self.num_docs = n = len(doc_ids)
        self.avgdl = int(doc_lengths.sum()) / n if n else 0.0

    @property
    def postings(self) -> _ColumnsKey:
        return _ColumnsKey("postings", self.terms, self.doc_ids, self.offsets,
                           self.doc_ordinals, self.tfs)

    @property
    def df(self) -> _ColumnsKey:
        return _ColumnsKey("df", self.terms, self.offsets)

    @property
    def stats(self) -> _ColumnsKey:
        return _ColumnsKey("stats", self.doc_ids, self.doc_lengths)


_BLOCK_DOCS = 64  # documents whose postings build_index counts in one numpy pass


class _Vocabulary(dict):
    """term -> id; looking up an unknown term gives it the next id."""

    def __missing__(self, term: str) -> int:
        self[term] = t = len(self)
        return t


def _tokens_of_each(texts, lengths: array):
    """Yield the tokens of each text in turn, appending their count to ``lengths``.

    Only one text's token strings are alive at a time: holding a whole block's
    raised dense-remote's set-up RSS by about 1 MB.
    """
    for text in texts:
        tokens = tokenize(text)
        lengths.append(len(tokens))
        yield tokens


def _narrow_dtype(values: np.ndarray) -> np.dtype:
    """The narrowest unsigned dtype holding the largest of ``values`` (none negative).

    uint8 up to 255, uint16 up to 65535, then uint32; for no values, uint8.
    """
    return np.min_scalar_type(values.max(initial=0))


def _narrowed(values: np.ndarray) -> np.ndarray:
    """``values`` at ``_narrow_dtype(values)``."""
    return values.astype(_narrow_dtype(values), copy=False)


def text_digests(texts) -> np.ndarray:
    """One 8-byte blake2b digest of each text's UTF-8 bytes, as little-endian uint64."""
    digests = b"".join(hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest()
                       for t in texts)
    return np.frombuffer(digests, dtype="<u8")


def build_index(docs, field_policy: str = "title_plus_text") -> InvertedIndex:
    """Build an inverted index over the chosen field of each document.

    Term ids follow the order in which terms first appear when the documents'
    tokens are read in ordinal order. No Python statement runs per token or per
    posting: the tokens of each block of ``_BLOCK_DOCS`` documents are mapped to
    term ids by one ``map`` over the vocabulary and counted with numpy.
    ``doc_ordinals`` and ``tfs`` come out at the narrowest unsigned dtype that
    holds their largest value (see ``_narrow_dtype``); ``offsets`` is int64 and
    ``doc_lengths`` int32.
    """
    if field_policy not in FIELD_POLICIES:
        raise ValueError(f"unknown field_policy: {field_policy!r}")

    by_id: dict[str, Document] = {}
    for doc in docs:
        if doc.doc_id in by_id:
            raise ValueError(f"duplicate doc_id: {doc.doc_id!r}")
        by_id[doc.doc_id] = doc
    doc_ids = tuple(sorted(by_id))
    texts = [by_id[doc_id].indexed_text(field_policy) for doc_id in doc_ids]

    # One entry per (doc, term). Within a block entries go by term, then ordinal.
    vocab = _Vocabulary()
    doc_lengths, entry_terms, entry_ordinals, entry_tfs = (array("i") for _ in range(4))
    block_ends = [0]  # entry_*[block_ends[i]:block_ends[i + 1]] is block i
    for start in range(0, len(texts), _BLOCK_DOCS):
        block = texts[start:start + _BLOCK_DOCS]
        lengths = array("i")
        keys = np.fromiter(map(vocab.__getitem__,
                               chain.from_iterable(_tokens_of_each(block, lengths))),
                           dtype=np.int64)
        # key = term id * block size + position in the block: equal keys are one posting
        keys *= len(block)
        keys += np.repeat(np.arange(len(block), dtype=np.int64), lengths)
        keys, tfs = np.unique(keys, return_counts=True)
        terms, ordinals = np.divmod(keys, len(block))
        ordinals += start
        doc_lengths.extend(lengths)
        entry_terms.frombytes(terms.astype(np.int32).tobytes())
        entry_ordinals.frombytes(ordinals.astype(np.int32).tobytes())
        entry_tfs.frombytes(tfs.astype(np.int32).tobytes())
        block_ends.append(len(entry_terms))

    # Place the entries by counting: each term's run in a block is copied to the
    # term's next free slots. Blocks go in ordinal order, so each term's postings
    # come out in ordinal order, with no permutation of all the entries.
    entry_terms = np.frombuffer(entry_terms, dtype=np.int32)
    entry_ordinals = np.frombuffer(entry_ordinals, dtype=np.int32)
    entry_tfs = np.frombuffer(entry_tfs, dtype=np.int32)
    offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_terms, minlength=len(vocab)), out=offsets[1:])
    fill = offsets[:-1].copy()  # each term's next free slot
    ordinals = np.empty(len(entry_terms), dtype=_narrow_dtype(entry_ordinals))
    tfs = np.empty(len(entry_terms), dtype=_narrow_dtype(entry_tfs))
    for lo, hi in zip(block_ends, block_ends[1:]):
        terms = entry_terms[lo:hi]
        starts = np.flatnonzero(np.diff(terms, prepend=-1))  # each run's first entry
        run_terms, run_lengths = terms[starts], np.diff(starts, append=hi - lo)
        slots = np.repeat(fill[run_terms] - starts, run_lengths)
        slots += np.arange(hi - lo)
        ordinals[slots] = entry_ordinals[lo:hi]
        tfs[slots] = entry_tfs[lo:hi]
        fill[run_terms] += run_lengths
    return InvertedIndex(doc_ids, np.frombuffer(doc_lengths, dtype=np.int32).copy(),
                         text_digests(texts), tuple(vocab), offsets, ordinals, tfs,
                         field_policy)


def check_corpus(index: InvertedIndex, doc_store: Mapping[str, Document]) -> None:
    """Raise IndexMismatchError unless doc_store holds exactly the indexed documents.

    Compares the doc ids, then each document's text under the index's
    ``field_policy`` against the digest stored at build time.
    """
    rebuild = "rebuild the index from this corpus with `queryboost index`"
    differing = set(doc_store).symmetric_difference(index.doc_ids)
    if differing:
        example = min(differing)
        side = "corpus" if example in doc_store else "index"
        raise IndexMismatchError(
            f"index and corpus differ in {len(differing)} doc ids "
            f"(e.g. {example!r} is only in the {side}); {rebuild}")
    digests = text_digests(doc_store[d].indexed_text(index.field_policy)
                           for d in index.doc_ids)
    changed = np.flatnonzero(digests != index.doc_digests)
    if len(changed):
        raise IndexMismatchError(
            f"index and corpus differ in the text of {len(changed)} documents "
            f"(first: {index.doc_ids[changed[0]]!r}); {rebuild}")


def load_corpus_jsonl(path) -> list[Document]:
    """Load a JSONL corpus with keys ``_id``, ``title`` (optional), ``text``.

    A line that is not a JSON object with ``_id`` and ``text``, whose ``_id`` a run
    file cannot hold (``is_run_field``), or that repeats an earlier line's ``_id``,
    raises DataFormatError naming the file and the line.
    """
    docs = []
    first_line: dict[str, int] = {}  # doc_id -> line it was read from
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(path, lineno, f"malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataFormatError(path, lineno, "expected a JSON object")
            if "_id" not in obj or "text" not in obj:
                raise DataFormatError(path, lineno, "missing required key '_id' or 'text'")
            doc_id = str(obj["_id"])
            if not is_run_field(doc_id):
                raise DataFormatError(path, lineno, f"_id {doc_id!r} is empty or holds whitespace")
            first = first_line.setdefault(doc_id, lineno)
            if first != lineno:
                raise DataFormatError(path, lineno,
                                      f"duplicate _id {doc_id!r} (first on line {first})")
            docs.append(Document(doc_id=doc_id, title=str(obj.get("title", "") or ""),
                                 text=str(obj["text"])))
    return docs


def _pack_strings(strings) -> tuple[np.ndarray, np.ndarray]:
    """The strings' UTF-8 bytes, concatenated, and each one's byte length (narrowed)."""
    encoded = [s.encode("utf-8") for s in strings]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), _narrowed(lengths)


def _unpack_strings(blob: np.ndarray, lengths: np.ndarray) -> tuple[str, ...]:
    data = blob.tobytes()
    if len(lengths) and lengths.min() < 0:
        raise ValueError("a string length is negative")
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    if (ends[-1] if ends else 0) != len(data):
        raise ValueError("string lengths do not add up to the stored bytes")
    return tuple(data[a:b].decode("utf-8") for a, b in zip([0] + ends[:-1], ends))


def save_index(index: InvertedIndex, path) -> None:
    """Persist an index as one ``.npz`` archive, written to exactly ``path``.

    The archive stores ``dfs``, each term's document count, in place of
    ``offsets``, and the postings whose tf is above 1 (``tf_positions`` and
    ``tf_values``) in place of every tf. It is written through
    ``atomic_write``, so a failed write leaves any previous index intact.
    """
    doc_id_bytes, doc_id_lengths = _pack_strings(index.doc_ids)
    term_bytes, term_lengths = _pack_strings(index.terms)
    tf_positions = np.flatnonzero(index.tfs > 1)
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, format_version=np.int64(INDEX_FORMAT_VERSION),
                 field_policy=np.str_(index.field_policy),
                 doc_id_bytes=doc_id_bytes, doc_id_lengths=doc_id_lengths,
                 doc_lengths=_narrowed(index.doc_lengths), doc_digests=index.doc_digests,
                 term_bytes=term_bytes, term_lengths=term_lengths,
                 dfs=_narrowed(np.diff(index.offsets)), doc_ordinals=index.doc_ordinals,
                 tf_positions=_narrowed(tf_positions), tf_values=index.tfs[tf_positions])


_INDEX_ARRAYS = ("format_version", "field_policy", "doc_id_bytes", "doc_id_lengths",
                 "doc_lengths", "doc_digests", "term_bytes", "term_lengths", "dfs",
                 "doc_ordinals", "tf_positions", "tf_values")
# Count and position columns. Each may have any integer dtype that converts to int64
# without loss; save_index writes each at the narrowest unsigned dtype.
_INTEGER_COLUMNS = ("doc_id_lengths", "term_lengths", "doc_lengths", "dfs",
                    "doc_ordinals", "tf_positions", "tf_values")
_OLD_FORMATS = {1: "which stores no document digests",
                2: "which stores offsets and every tf"}


def _column_problem(a: dict, doc_ids: tuple[str, ...]) -> str | None:
    """What is wrong with the values of the posting and length columns, if anything."""
    dfs, ordinals = a["dfs"], a["doc_ordinals"]
    positions, values = a["tf_positions"], a["tf_values"]
    num_docs, num_postings = len(doc_ids), len(ordinals)
    if len(dfs) and dfs.min() < 0:
        return f"column 'dfs' holds {dfs.min()}, below 0"
    if (total := int(dfs.sum(dtype=np.int64))) != num_postings:
        return f"column 'dfs' sums to {total}, not to the {num_postings} postings"
    if num_postings:
        lo, hi = ordinals.min(), ordinals.max()
        if lo < 0 or hi >= num_docs:
            return (f"column 'doc_ordinals' holds {lo if lo < 0 else hi}, "
                    f"not an ordinal of the {num_docs} documents")
    repeats = np.flatnonzero(positions[1:] <= positions[:-1])
    if len(repeats):
        return f"column 'tf_positions' does not increase at entry {repeats[0] + 1}"
    if len(positions) and (positions[0] < 0 or positions[-1] >= num_postings):
        outside = positions[0] if positions[0] < 0 else positions[-1]
        return (f"column 'tf_positions' holds {outside}, "
                f"not a position among the {num_postings} postings")
    if len(values) and values.min() < 2:
        return f"column 'tf_values' holds {values.min()}, below 2"
    # A document's length is its number of postings plus tf - 1 for each tf above 1.
    # np.add.at, not np.bincount, which would make an intp copy of every ordinal.
    sums = np.zeros(num_docs, dtype=np.int64)
    np.add.at(sums, ordinals, 1)
    np.add.at(sums, ordinals[positions], values - 1)
    wrong = np.flatnonzero(a["doc_lengths"] != sums)
    if len(wrong):
        d = wrong[0]
        return (f"column 'doc_lengths' holds {a['doc_lengths'][d]} for document "
                f"{doc_ids[d]!r}, whose tfs sum to {sums[d]}")
    return None


def load_index(path) -> InvertedIndex:
    """Read an index written by ``save_index``; IndexFormatError for anything else.

    The index equals the one saved, array for array and dtype for dtype:
    ``offsets`` is the int64 running sum of ``dfs``, ``tfs`` is 1 but at
    ``tf_positions`` and at the narrowest unsigned dtype holding its largest
    value, and ``doc_lengths`` is int32. ``doc_ordinals`` keeps its stored
    dtype. A column of the wrong kind, a negative ``dfs`` entry or ``dfs`` that
    do not add up to the postings, an ordinal outside the documents,
    ``tf_positions`` that do not increase or fall outside the postings, a
    ``tf_values`` entry below 2 or a document length other than the sum of its
    tfs is an IndexFormatError naming the column, never a wrong score.
    """
    # np.load is given the open file, not the path: on a corrupt archive it raises
    # without closing a file it opened itself.
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if not magic:
            raise IndexFormatError(path, "empty file")
        if magic.startswith(b"{"):
            raise IndexFormatError(path, "a JSON index, a format no longer read")
        if magic != b"PK\x03\x04":
            raise IndexFormatError(path, "not an .npz archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                a = {k: npz[k] for k in _INDEX_ARRAYS if k in npz.files}
        except (zipfile.BadZipFile, EOFError, ValueError) as exc:
            raise IndexFormatError(path, f"truncated or corrupt: {exc}") from exc
    if "format_version" not in a:
        raise IndexFormatError(path, "no format_version")
    version = a["format_version"].tolist()
    if version in _OLD_FORMATS:
        raise IndexFormatError(path, f"format version {version}, {_OLD_FORMATS[version]}")
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(path, f"unknown format version {a['format_version']}")
    missing = [k for k in _INDEX_ARRAYS if k not in a]
    if missing:
        raise IndexFormatError(path, f"missing arrays: {', '.join(missing)}")
    for name in _INTEGER_COLUMNS:
        dtype = a[name].dtype
        if dtype.kind not in "iu" or not np.can_cast(dtype, np.int64):
            raise IndexFormatError(path, f"column {name!r} has dtype {dtype}, "
                                         f"not an integer type that fits in int64")

    try:
        doc_ids = _unpack_strings(a["doc_id_bytes"], a["doc_id_lengths"])
        terms = _unpack_strings(a["term_bytes"], a["term_lengths"])
    except ValueError as exc:
        raise IndexFormatError(path, f"corrupt strings: {exc}") from exc
    dfs, positions, values = a["dfs"], a["tf_positions"], a["tf_values"]
    field_policy = str(a["field_policy"])
    if not (field_policy in FIELD_POLICIES
            and a["doc_lengths"].shape == a["doc_digests"].shape == (len(doc_ids),)
            and a["doc_digests"].dtype == np.dtype("<u8")
            and dfs.shape == (len(terms),) and a["doc_ordinals"].ndim == 1
            and positions.ndim == 1 and positions.shape == values.shape):
        raise IndexFormatError(path, "inconsistent arrays")
    problem = _column_problem(a, doc_ids)
    if problem:
        raise IndexFormatError(path, problem)
    offsets = np.zeros(len(dfs) + 1, dtype=np.int64)
    np.cumsum(dfs, dtype=np.int64, out=offsets[1:])
    tfs = np.ones(len(a["doc_ordinals"]), dtype=_narrow_dtype(values))
    tfs[positions] = values
    return InvertedIndex(doc_ids, a["doc_lengths"].astype(np.int32), a["doc_digests"],
                         terms, offsets, a["doc_ordinals"], tfs, field_policy)
