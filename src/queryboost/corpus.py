"""Corpus ingestion and an immutable columnar inverted index with BM25 statistics.

Documents are numbered by ordinal in ascending ``doc_id`` order, so an integer
tie-break on ordinals equals a tie-break on doc ids. Postings are stored in
CSR form: term id ``t`` owns entries ``offsets[t]:offsets[t + 1]`` of the
``doc_ordinals`` and ``tfs`` arrays, sorted by ordinal. Those two columns,
like the byte lengths of the stored strings, are kept at the narrowest
unsigned dtype that holds their largest value. Each document also
keeps an 8-byte blake2b digest of the text it was indexed from, so a corpus
whose text changed under the same doc ids is caught. ``save_index`` writes
these arrays to one ``.npz`` archive and ``load_index`` reads them back.
"""

import hashlib
import json
import os
import uuid
import zipfile
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from queryboost.tokenizer import tokenize

FIELD_POLICIES = ("text_only", "title_plus_text")
INDEX_FORMAT_VERSION = 2


class DataFormatError(ValueError):
    """A malformed line in a data file: a corpus, queries, qrels or run file."""

    def __init__(self, path, lineno: int, problem: str):
        super().__init__(f"{path}:{lineno}: {problem}")


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


@dataclass(frozen=True)
class CorpusStats:
    num_docs: int
    avgdl: float
    doc_length: Mapping[str, int]


class _ArrayView(Mapping):
    """Read-only mapping over index arrays; two views of one kind compare their arrays.

    Subclasses define ``_parts()``: the arrays and sequences that determine them.
    """

    def __eq__(self, other):
        if type(other) is type(self):
            return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                       for a, b in zip(self._parts(), other._parts()))
        return Mapping.__eq__(self, other)

    __hash__ = None


class DocLengths(_ArrayView):
    """doc_id -> token length."""

    def __init__(self, doc_ids: tuple[str, ...], lengths: np.ndarray):
        self._ids = doc_ids
        self._lengths = lengths

    def __getitem__(self, doc_id: str) -> int:
        i = bisect_left(self._ids, doc_id)
        if i == len(self._ids) or self._ids[i] != doc_id:
            raise KeyError(doc_id)
        return int(self._lengths[i])

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def _parts(self) -> tuple:
        return self._ids, self._lengths


class _TermView(_ArrayView):
    """A mapping keyed by the index's terms, in term-id order."""

    def __init__(self, index: "InvertedIndex"):
        self._index = index

    def __iter__(self):
        return iter(self._index.terms)

    def __len__(self) -> int:
        return len(self._index.terms)

    def __contains__(self, term) -> bool:
        return term in self._index.term_ids


class Postings(_TermView):
    """term -> list of (doc_id, tf) in ascending doc_id order."""

    def __getitem__(self, term: str) -> list[tuple[str, int]]:
        ix = self._index
        t = ix.term_ids[term]
        lo, hi = ix.offsets[t], ix.offsets[t + 1]
        return [(ix.doc_ids[o], tf) for o, tf in zip(ix.doc_ordinals[lo:hi].tolist(),
                                                     ix.tfs[lo:hi].tolist())]

    def _parts(self) -> tuple:
        ix = self._index
        return ix.terms, ix.doc_ids, ix.offsets, ix.doc_ordinals, ix.tfs


class DocFreqs(_TermView):
    """term -> number of documents containing it."""

    def __getitem__(self, term: str) -> int:
        ix = self._index
        t = ix.term_ids[term]
        return int(ix.offsets[t + 1] - ix.offsets[t])

    def _parts(self) -> tuple:
        return self._index.terms, self._index.offsets


class InvertedIndex:
    """Immutable columnar index plus the corpus statistics BM25 needs.

    ``doc_ids[i]``, ``doc_lengths[i]`` and ``doc_digests[i]`` belong to ordinal ``i``;
    ``terms[t]`` is the term with id ``t`` and ``term_ids`` its inverse.
    ``postings``, ``df`` and ``stats.doc_length`` are read-only mapping views
    over the arrays; ``postings`` and ``df`` are made on each access, so that
    the index never refers to itself and is freed as soon as its last reference
    goes. Built once by ``build_index``; safe for unlimited concurrent readers
    afterwards.
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
        n = len(doc_ids)
        self.stats = CorpusStats(num_docs=n,
                                 avgdl=int(doc_lengths.sum()) / n if n else 0.0,
                                 doc_length=DocLengths(doc_ids, doc_lengths))

    @property
    def postings(self) -> Postings:
        return Postings(self)

    @property
    def df(self) -> DocFreqs:
        return DocFreqs(self)

    @property
    def num_docs(self) -> int:
        return self.stats.num_docs

    @property
    def avgdl(self) -> float:
        return self.stats.avgdl

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.stats.doc_length


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

    A line that is not a JSON object with ``_id`` and ``text``, or that repeats an
    earlier line's ``_id``, raises DataFormatError naming the file and the line.
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
    return (np.frombuffer(b"".join(encoded), dtype=np.uint8),
            lengths.astype(_narrow_dtype(lengths)))


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

    The archive is written to a temporary file in the target directory and
    renamed over ``path``, so a failed write leaves any previous index intact.
    """
    path = Path(path)
    doc_id_bytes, doc_id_lengths = _pack_strings(index.doc_ids)
    term_bytes, term_lengths = _pack_strings(index.terms)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, format_version=np.int64(INDEX_FORMAT_VERSION),
                     field_policy=np.str_(index.field_policy),
                     doc_id_bytes=doc_id_bytes, doc_id_lengths=doc_id_lengths,
                     doc_lengths=index.doc_lengths, doc_digests=index.doc_digests,
                     term_bytes=term_bytes, term_lengths=term_lengths,
                     offsets=index.offsets, doc_ordinals=index.doc_ordinals,
                     tfs=index.tfs)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_INDEX_ARRAYS = ("format_version", "field_policy", "doc_id_bytes", "doc_id_lengths",
                 "doc_lengths", "doc_digests", "term_bytes", "term_lengths", "offsets",
                 "doc_ordinals", "tfs")
# Count and position columns. Each may have any integer dtype that converts to int64
# without loss: save_index narrows doc_ordinals, tfs and the string lengths, and
# indexes saved before that hold int32 postings and int64 lengths.
_INTEGER_COLUMNS = ("doc_id_lengths", "term_lengths", "doc_lengths", "offsets",
                    "doc_ordinals", "tfs")
_CHECK_POSTINGS = 1 << 16  # postings per slice when summing the tfs of each document


def _column_problem(a: dict, doc_ids: tuple[str, ...]) -> str | None:
    """What is wrong with the values of the posting and length columns, if anything."""
    offsets, ordinals, tfs = a["offsets"], a["doc_ordinals"], a["tfs"]
    num_docs = len(doc_ids)
    falls = np.flatnonzero(offsets[1:] < offsets[:-1])
    if len(falls):
        return f"column 'offsets' decreases at entry {falls[0] + 1}"
    if len(tfs) and tfs.min() < 1:
        return f"column 'tfs' holds {tfs.min()}, below 1"
    if len(ordinals):
        lo, hi = ordinals.min(), ordinals.max()
        if lo < 0 or hi >= num_docs:
            return (f"column 'doc_ordinals' holds {lo if lo < 0 else hi}, "
                    f"not an ordinal of the {num_docs} documents")
    # A document's length is the sum of its tfs. Summed a slice at a time: one
    # weighted bincount over every posting makes a float64 copy of all the tfs.
    sums = np.zeros(num_docs)
    for start in range(0, len(tfs), _CHECK_POSTINGS):
        part = slice(start, start + _CHECK_POSTINGS)
        sums += np.bincount(ordinals[part], weights=tfs[part], minlength=num_docs)
    wrong = np.flatnonzero(a["doc_lengths"] != sums)
    if len(wrong):
        d = wrong[0]
        return (f"column 'doc_lengths' holds {a['doc_lengths'][d]} for document "
                f"{doc_ids[d]!r}, whose tfs sum to {int(sums[d])}")
    return None


def load_index(path) -> InvertedIndex:
    """Read an index written by ``save_index``; IndexFormatError for anything else.

    Columns keep the dtypes they were saved with. A column of the wrong kind, a
    tf below 1, an ordinal outside the documents, decreasing offsets or a
    document length other than the sum of its tfs is an IndexFormatError naming
    the column, never a wrong score.
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
    if a["format_version"].tolist() == 1:
        raise IndexFormatError(path, "format version 1, which stores no document digests")
    if a["format_version"].tolist() != INDEX_FORMAT_VERSION:
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
    offsets, field_policy = a["offsets"], str(a["field_policy"])
    if not (field_policy in FIELD_POLICIES
            and a["doc_lengths"].shape == a["doc_digests"].shape == (len(doc_ids),)
            and a["doc_digests"].dtype == np.dtype("<u8")
            and offsets.shape == (len(terms) + 1,) and offsets[0] == 0
            and a["doc_ordinals"].shape == a["tfs"].shape == (offsets[-1],)):
        raise IndexFormatError(path, "inconsistent arrays")
    problem = _column_problem(a, doc_ids)
    if problem:
        raise IndexFormatError(path, problem)
    # bm25_search subtracts offsets, which an unsigned dtype would wrap
    return InvertedIndex(doc_ids, a["doc_lengths"], a["doc_digests"], terms,
                         offsets.astype(np.int64, copy=False), a["doc_ordinals"], a["tfs"],
                         field_policy)
