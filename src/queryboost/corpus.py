"""Corpus ingestion and an immutable columnar inverted index with BM25 statistics.

Every line-oriented data file (corpus, queries, qrels, run and reference
cache) is read by one loop, ``read_data_lines``, with one rule for a bad
line, a line that is not UTF-8 and a repeated key: a ``DataFormatError``
naming the file and the line. The index is a binary archive with its own
error, ``IndexFormatError``.

Documents are numbered by ordinal in ascending ``doc_id`` order, so an integer
tie-break on ordinals equals a tie-break on doc ids. Postings are stored in
CSR form: term id ``t`` owns entries ``offsets[t]:offsets[t + 1]`` of the
``doc_ordinals`` and ``tfs`` arrays, sorted by ordinal. Those two columns
are kept at the narrowest unsigned dtype that holds their largest value.
Each document also keeps an 8-byte blake2b digest of the text it was indexed
from, so a corpus whose text changed under the same doc ids is caught.
``save_index`` writes one ``.npz`` archive holding only what the postings
cannot give back: each term's document count in place of ``offsets``, each
posting's ordinal as its difference from the previous posting of its term
(a term's first posting holds its ordinal), and no document lengths, which
are the sums of the documents' tfs. Every count column (``dfs``,
``doc_ordinals``, ``tfs``) is stored as one byte per entry, with the values
of 255 and above in an escape column (``_escaped``). Doc ids and terms are
stored as lines of UTF-8 text: no token and no doc id that a run file can
hold contains a newline. Those two members, the three count columns and the
ordinals' escapes are deflated (``_DEFLATED``); every other member (the
digests, the other two escape columns, the format version and the field
policy) is stored uncompressed. ``load_index`` rebuilds the same arrays
from it, and reads a format-8 index whether or not its members are deflated.
"""

import codecs
import hashlib
import io
import json
import logging
import zipfile
import zlib
from array import array
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, pairwise
from operator import attrgetter
from types import NoneType

import numpy as np

from queryboost.files import atomic_write
from queryboost.tokenizer import tokenize

log = logging.getLogger(__name__)

FIELD_POLICIES = ("text_only", "title_plus_text")
INDEX_FORMAT_VERSION = 8


class DataFormatError(ValueError):
    """A malformed line in a data file: a corpus, queries, qrels, run or cache file."""

    def __init__(self, path, lineno: int, problem: str):
        super().__init__(f"{path}:{lineno}: {problem}")


def raw_lines(fh):
    """The lines, as bytes, of a data file open for binary reading at its start: a UTF-8
    byte order mark that starts the file dropped, and ``\\r\\n`` or a lone ``\\r``
    read as ``\\n`` (universal newlines), so every line but an unterminated last one
    ends in ``\\n``."""
    if fh.peek(len(codecs.BOM_UTF8)).startswith(codecs.BOM_UTF8):
        fh.read(len(codecs.BOM_UTF8))
    # 13 is b"\r": an int's ``in`` is one memchr, a bytes' a slower search
    return chain.from_iterable(
        raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(True) if 13 in raw
        else (raw,) for raw in fh)


def read_data_lines(path, parse, key=None, key_name="", torn_tail=False, prefix=""):
    """Yield ``parse(line)`` for each line of a data file that is not blank.

    Every line-oriented data file is read here, by one rule. Lines are
    numbered from 1, split by ``raw_lines``, so a CRLF or CR file reads as its
    LF copy, and each is decoded once, as UTF-8; ``parse`` gets each line with
    its newline. Each of
    these raises DataFormatError naming the line:
    - a line that is not UTF-8, naming the first such byte, or a ValueError
      from ``parse``; ``prefix`` goes before either problem;
    - a record whose ``key(record)``, a pair ``(scope, name)``, an earlier
      record had, as ``duplicate _id 'd1' (first on line 3)``, where
      ``key_name.format(scope, name)`` gives ``_id 'd1'``. Names are kept in
      one small dict per scope (a run's doc ids per query), not in one dict
      of every line.
    With ``torn_tail``, a final line without a newline that is not UTF-8 or
    that ``parse`` rejects, as a crash while appending leaves it, is dropped
    with a warning instead.
    """
    first_line = defaultdict(dict)  # scope -> {name: line it was read from}
    # Cache lines run to several KB; a 64 KiB buffer spares most refills.
    with open(path, "rb", buffering=1 << 16) as fh:
        for lineno, raw in enumerate(raw_lines(fh), start=1):
            try:
                line = raw.decode("utf-8")
                if line.isspace():
                    continue
                record = parse(line)
            except ValueError as exc:  # UnicodeDecodeError is one
                if torn_tail and not raw.endswith(b"\n"):
                    log.warning("%s:%d: dropping torn final line (no trailing newline): %s",
                                path, lineno, exc)
                    return
                raise DataFormatError(path, lineno, f"{prefix}{exc}") from exc
            if key is not None:
                scope, name = key(record)
                if (first := first_line[scope].setdefault(name, lineno)) != lineno:
                    raise DataFormatError(path, lineno, f"duplicate {key_name.format(scope, name)}"
                                                        f" (first on line {first})")
            yield record


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

    def indexed_text(self, field_policy: str) -> str:
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

    The invariants every index holds are checked here, for ``build_index`` and
    ``load_index`` alike: each doc id is one run file field (``is_run_field``),
    the doc ids ascend strictly, so ordinal order is doc id order (BM25's
    tie-break relies on it), and no term is repeated. A ValueError names the
    first offender.
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
        self.term_ids = dict(zip(terms, range(len(terms))))
        bad_id = next((d for d in doc_ids if not is_run_field(d)), None)
        if bad_id is not None:
            raise ValueError(f"doc id {bad_id!r} is empty or holds whitespace")
        for a, b in pairwise(doc_ids):
            if a >= b:
                raise ValueError(f"doc id {b!r} is repeated" if a == b
                                 else f"doc ids do not ascend at {b!r}")
        if len(self.term_ids) != len(terms):
            repeated = next(term for t, term in enumerate(terms) if self.term_ids[term] != t)
            raise ValueError(f"term {repeated!r} is repeated")
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


# build_index counts the postings of one block of documents in one numpy pass; a
# block ends with the document that brings its tokens to _BLOCK_TOKENS or more.
_BLOCK_TOKENS = 16384


class _Vocabulary(dict):
    """term -> id; looking up an unknown term gives it the next id."""

    def __missing__(self, term: str) -> int:
        self[term] = t = len(self)
        return t


def _block_tokens(texts, lengths: array):
    """Yield the tokens of the next texts of the iterator ``texts``, one text's at a
    time, until they number ``_BLOCK_TOKENS`` or more; append each count to ``lengths``.

    Only one text's token strings are alive at a time: holding a whole block's
    raised dense-remote's set-up RSS by about 1 MB.
    """
    total = 0
    for text in texts:
        tokens = tokenize(text)
        lengths.append(len(tokens))
        yield tokens
        total += len(tokens)
        if total >= _BLOCK_TOKENS:
            return


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
    posting: the tokens of each block of documents, about ``_BLOCK_TOKENS`` of
    them, are mapped to term ids by one ``map`` over the vocabulary and counted
    with numpy.
    ``doc_ordinals`` and ``tfs`` come out at the narrowest unsigned dtype that
    holds their largest value (see ``_narrow_dtype``); ``offsets`` is int64 and
    ``doc_lengths`` int32.
    """
    if field_policy not in FIELD_POLICIES:
        raise ValueError(f"unknown field_policy: {field_policy!r}")

    docs = sorted(docs, key=attrgetter("doc_id"))  # InvertedIndex rejects a repeated id
    doc_ids = tuple(doc.doc_id for doc in docs)
    texts = [doc.indexed_text(field_policy) for doc in docs]

    # One entry per (doc, term). Within a block entries go by term, then ordinal.
    vocab = _Vocabulary()
    doc_lengths, entry_terms, entry_ordinals, entry_tfs = (array("i") for _ in range(4))
    block_ends = [0]  # entry_*[block_ends[i]:block_ends[i + 1]] is block i
    remaining, start = iter(texts), 0
    while start < len(texts):
        lengths = array("i")
        keys = np.fromiter(map(vocab.__getitem__,
                               chain.from_iterable(_block_tokens(remaining, lengths))),
                           dtype=np.int64)
        # key = term id * block size + position in the block: equal keys are one posting
        keys *= len(lengths)
        keys += np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        keys, tfs = np.unique(keys, return_counts=True)
        terms, ordinals = np.divmod(keys, len(lengths))
        ordinals += start
        start += len(lengths)
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


def json_object(line: str, fields: Mapping[str, tuple[tuple[type, ...], str]]) -> dict:
    """The JSON object on one data line, checked against ``fields``: key -> (its exact types,
    so a bool is no int; their name). A key typed NoneType may be missing. ValueError, in this
    order, for bad JSON, no object, a missing key, a wrong type, a lone surrogate in a string
    (any top-level value or item of a top-level list, declared or not)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key, (types, wanted) in fields.items():
        if type(obj.get(key)) not in types:  # a missing key fails here too, and goes first
            if missing := [k for k, (t, _) in fields.items() if k not in obj and NoneType not in t]:
                raise ValueError(f"missing required key {missing[0]!r}")
            raise ValueError(f"{key} must be {wanted}, not {type(obj.get(key)).__name__}")
    # A UTF-8 line gives a lone surrogate only through an escape such as \ud800, and
    # one memchr for a backslash is about 20x cheaper than a search for "\ud".
    if "\\" in line:
        for key, value in obj.items():
            for text in value if type(value) is list else (value,):
                if type(text) is str:
                    try:
                        text.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise ValueError(f"{key} does not encode as UTF-8: {exc}") from exc
    return obj


_FIELD_TYPES = {"_id": ((str, int), "a string or an integer"),
                "title": ((str, NoneType), "a string or null"), "text": ((str,), "a string")}


def _corpus_line(line: str) -> Document:
    obj = json_object(line, _FIELD_TYPES)
    doc_id = str(obj["_id"])
    if not is_run_field(doc_id):
        raise ValueError(f"_id {doc_id!r} is empty or holds whitespace")
    return Document(doc_id=doc_id, title=obj.get("title") or "", text=obj["text"])


def load_corpus_jsonl(path) -> list[Document]:
    """Load a JSONL corpus with keys ``_id``, ``title`` (optional), ``text``.

    Read by ``read_data_lines``: a line that ``json_object`` rejects against
    ``_FIELD_TYPES``, whose ``_id`` a run file cannot hold (``is_run_field``),
    or that repeats an earlier line's ``_id`` (both lines named), raises
    DataFormatError naming the file and the line. An integer ``_id`` is read as
    its decimal string.
    """
    return list(read_data_lines(path, _corpus_line, key=lambda doc: (None, doc.doc_id),
                                key_name="_id {1!r}"))


_ESCAPE = 255  # a stored byte whose value is the next entry of its escape column


def _escaped(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` (none negative) as one uint8 each, and their escape column.

    A value below 255 is its own byte. Any other is stored as the byte 255 and,
    in order, in the escape column, which keeps the dtype of ``values``.
    ``_unescape`` reverses it.
    """
    stored = np.minimum(values, _ESCAPE).astype(np.uint8)
    return stored, values[stored == _ESCAPE]


def _unescape(a: dict, column: str, out: np.ndarray) -> np.ndarray:
    """Decode ``a[column]`` and its escape column into ``out``; drop both from ``a``.

    ValueError naming the column if the escapes do not match its bytes 255.
    """
    stored, escapes = a.pop(column), a.pop(f"{column}_escapes")
    escaped = stored == _ESCAPE
    if (count := np.count_nonzero(escaped)) != len(escapes):
        raise ValueError(f"column {column!r} has {count} bytes 255, "
                         f"but {len(escapes)} escapes")
    np.copyto(out, stored)
    out[escaped] = escapes
    return out


# The members save_index deflates, at level 1, each for what it saved at seed 1 of the
# benchmark workloads:
# - the doc ids and the terms: UTF-8 text, which deflates about 2x;
# - tfs: 94.6% of sparse-zipf's tfs are 1, so the column deflates from 465,618 to
#   33,099 bytes in 2-4 ms;
# - dfs: 28,452 -> 15,988 bytes in 0.5 ms on dense-remote, 30,824 -> 20,319 in 0.6 ms
#   on sparse-zipf;
# - the ordinals' escapes: 37,864 -> 19,391 bytes in 0.7 ms on dense-remote,
#   235,280 -> 179,952 in 7.2 ms on sparse-zipf;
# - doc_ordinals, the largest column: 465,618 -> 350,480 bytes on sparse-zipf in 12-18 ms
#   (3-5 ms to inflate), 211,866 -> 168,606 on dense-remote in 5-9 ms (about 2 ms).
# The digests, random bytes, are stored: they deflate by under 2%.
_DEFLATED = ("doc_id_bytes", "term_bytes", "dfs", "tfs", "doc_ordinals",
             "doc_ordinals_escapes")
_DEFLATE_LEVEL = 1


def save_index(index: InvertedIndex, path) -> None:
    """Persist an index as one ``.npz`` archive, written to exactly ``path``.

    The archive stores ``dfs``, each term's document count, in place of
    ``offsets``, and each posting's ordinal as its difference from the previous
    posting of its term, modulo 2**bits of the ordinals' dtype; a term's first
    posting holds its ordinal, its difference from 0. Those two count columns
    and ``tfs`` hold one byte per entry, with an escape column each
    (``_escaped``): the ordinals' at the ordinals' dtype, the others' at the
    narrowest unsigned dtype. ``doc_lengths`` is not stored: each is the sum
    of a document's tfs. Doc ids and terms are stored as their ``"\n".join``
    in UTF-8 (``doc_id_bytes``, ``term_bytes``). Each array is one
    ``<name>.npy`` member, written whole and dated 1980-01-01 as ``np.savez``
    dates it, so an index is the same bytes on every save: the members of
    ``_DEFLATED`` (the strings, ``dfs``, ``doc_ordinals``, ``tfs`` and the
    ordinals' escapes) deflated at level ``_DEFLATE_LEVEL``, every other member
    stored. It is written through ``atomic_write``, so a failed write leaves
    any previous index intact.
    """
    doc_id_bytes, term_bytes = (np.frombuffer("\n".join(s).encode("utf-8"), dtype=np.uint8)
                                for s in (index.doc_ids, index.terms))
    ordinals = _narrowed(index.doc_ordinals)
    ordinal_gaps = ordinals.copy()
    np.subtract(ordinals[1:], ordinals[:-1], out=ordinal_gaps[1:])  # unsigned: wraps
    dfs = np.diff(index.offsets)
    firsts = index.offsets[:-1][dfs > 0]  # each term's gaps start from 0
    ordinal_gaps[firsts] = ordinals[firsts]
    coded = {}
    for column, values in (("dfs", dfs), ("tfs", index.tfs)):
        coded[column], escapes = _escaped(values)
        coded[f"{column}_escapes"] = _narrowed(escapes)
    # the ordinals' escapes keep the ordinals' dtype, which load_index gives back
    coded["doc_ordinals"], coded["doc_ordinals_escapes"] = _escaped(ordinal_gaps)
    arrays = {"format_version": np.array(INDEX_FORMAT_VERSION, dtype=np.int64),
              "field_policy": np.array(index.field_policy),
              "doc_id_bytes": doc_id_bytes, "doc_digests": index.doc_digests,
              "term_bytes": term_bytes, **coded}
    with atomic_write(path, binary=True) as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, values in arrays.items():
            npy = io.BytesIO()
            np.lib.format.write_array(npy, values, allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0)), npy.getbuffer(),
                        zipfile.ZIP_DEFLATED if name in _DEFLATED else zipfile.ZIP_STORED,
                        _DEFLATE_LEVEL)


# Each stored column's dtype, or None for an escape column (see _escaped): unsigned, within int64.
_ESCAPED_COLUMNS = ("dfs", "doc_ordinals", "tfs")
_COLUMNS = {"doc_id_bytes": np.dtype(np.uint8), "doc_digests": np.dtype("<u8"),
            **dict.fromkeys(("term_bytes", *_ESCAPED_COLUMNS), np.dtype(np.uint8)),
            **dict.fromkeys((f"{c}_escapes" for c in _ESCAPED_COLUMNS), None)}
_INDEX_ARRAYS = ("format_version", "field_policy", *_COLUMNS)


def _decoded_postings(a: dict, num_docs: int, terms: tuple[str, ...]):
    """``offsets``, ``doc_lengths``, ``doc_ordinals`` and ``tfs`` from ``a``, checked.

    Each stored column is dropped from ``a`` once decoded. Values that no
    index build makes are a ValueError naming the column.
    """
    num_postings = len(a["doc_ordinals"])
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    _unescape(a, "dfs", offsets[1:])
    np.cumsum(offsets, out=offsets)
    if offsets[-1] != num_postings:
        raise ValueError(f"column 'dfs' sums to {offsets[-1]}, "
                         f"not to the {num_postings} postings")
    # At the ordinals' own dtype the running sums wrap as save_index's differences
    # did, so they are exact: every ordinal is below 2**bits. Each term's gaps start
    # from 0, so the running sum before a term's first posting is taken off its postings.
    dtype = a["doc_ordinals_escapes"].dtype
    ordinals = _unescape(a, "doc_ordinals", np.empty(num_postings, dtype=dtype))
    np.cumsum(ordinals, dtype=dtype, out=ordinals)
    dfs = np.diff(offsets)
    firsts = offsets[:-1][dfs > 0]  # the first posting of each term that has any
    before = np.zeros(len(firsts), dtype=dtype)  # firsts[0] is 0, with nothing before
    before[1:] = ordinals[firsts[1:] - 1]
    ordinals -= np.repeat(before, dfs[dfs > 0])
    if num_postings and (hi := ordinals.max()) >= num_docs:
        raise ValueError(f"column 'doc_ordinals' holds {hi}, "
                         f"not an ordinal of the {num_docs} documents")
    falls = ordinals[1:] <= ordinals[:-1]
    falls[firsts[1:] - 1] = False  # a term's first posting may fall below the term before
    if len(falls := np.flatnonzero(falls)):  # drops the mask
        posting = falls[0] + 1
        term = terms[np.searchsorted(offsets, posting, side="right") - 1]
        raise ValueError(f"column 'doc_ordinals' does not increase within the postings "
                         f"of term {term!r}, at posting {posting}")
    tfs = _narrowed(_unescape(a, "tfs", np.empty(num_postings, dtype=a["tfs_escapes"].dtype)))
    if num_postings and tfs[first := tfs.argmin()] == 0:
        raise ValueError(f"column 'tfs' holds 0, at posting {first}")
    # A document's length is its number of postings plus tf - 1 for each tf above 1.
    # np.add.at, not np.bincount, which would make an intp copy of every ordinal; int64
    # values add about 2x faster than the tfs' own dtype.
    lengths = np.zeros(num_docs, dtype=np.int64)
    np.add.at(lengths, ordinals, 1)
    above = np.flatnonzero(tfs > 1)
    np.add.at(lengths, ordinals[above], tfs[above].astype(np.int64) - 1)
    if num_docs and (longest := lengths.max()) > np.iinfo(np.int32).max:
        raise ValueError(f"column 'tfs' makes a document {longest} tokens long, "
                         f"more than int32 holds")
    return offsets, lengths.astype(np.int32), ordinals, tfs


def load_index(path) -> InvertedIndex:
    """Read an index written by ``save_index``; IndexFormatError for anything else.

    Its members may be deflated or stored: the same arrays written by plain
    ``np.savez`` load the same.

    The index equals the one saved, array for array and dtype for dtype:
    ``offsets`` is the int64 running sum of ``dfs``, ``doc_ordinals`` each
    term's running sum of its stored differences at the dtype of their escape
    column, ``tfs`` is at the narrowest unsigned dtype holding its largest value, and
    ``doc_lengths`` is the int32 sum of each document's tfs. A column of the
    wrong dtype or not one-dimensional, escapes other than the column's bytes
    255, a column whose length is not the count it must match (``doc_digests``
    and the doc ids, ``dfs`` and the terms, ``tfs`` and the postings; both
    counts are named), ``dfs`` that do not add up to the postings, an ordinal
    outside the documents, ordinals that do not increase within a term, a tf
    of 0, a document longer than int32 holds, strings that are not UTF-8, or
    an index that breaks an invariant of ``InvertedIndex`` is an
    IndexFormatError naming the column, the id or the term, never a wrong
    score.
    """
    # np.load is given the open file, not the path: on a corrupt archive it raises
    # without closing a file it opened itself.
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if not magic:
            raise IndexFormatError(path, "empty file")
        if magic != b"PK\x03\x04":
            raise IndexFormatError(path, "not an .npz archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                a = {k: npz[k] for k in _INDEX_ARRAYS if k in npz.files}
        # a corrupt central directory also gives OSError or NotImplementedError
        except (zipfile.BadZipFile, zlib.error, EOFError, ValueError, OSError,
                NotImplementedError) as exc:
            raise IndexFormatError(path, f"truncated or corrupt: {exc}") from exc
    if "format_version" not in a:
        raise IndexFormatError(path, "no format_version")
    version = a["format_version"].tolist()
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(path, f"format version {version}, not {INDEX_FORMAT_VERSION}")
    missing = [k for k in _INDEX_ARRAYS if k not in a]
    if missing:
        raise IndexFormatError(path, f"missing arrays: {', '.join(missing)}")
    for name, dtype in _COLUMNS.items():
        if (column := a[name]).ndim != 1:
            raise IndexFormatError(path, f"column {name!r} has {column.ndim} dimensions, not 1")
        if dtype is None:
            if column.dtype.kind != "u" or not np.can_cast(column.dtype, np.int64):
                raise IndexFormatError(path, f"column {name!r} has dtype {column.dtype}, "
                                             f"not an unsigned type that fits in int64")
        elif column.dtype != dtype:
            raise IndexFormatError(path, f"column {name!r} has dtype {column.dtype}, "
                                         f"not {dtype}")

    try:  # no bytes are no strings, not one empty string
        doc_ids, terms = (tuple(a[c].tobytes().decode("utf-8").split("\n")) if a[c].size
                          else () for c in ("doc_id_bytes", "term_bytes"))
    except UnicodeDecodeError as exc:
        raise IndexFormatError(path, f"corrupt strings: {exc}") from exc
    for column, count, of in (("doc_digests", len(doc_ids), "doc ids of 'doc_id_bytes'"),
                              ("dfs", len(terms), "terms of 'term_bytes'"),
                              ("tfs", len(a["doc_ordinals"]), "postings of 'doc_ordinals'")):
        if len(a[column]) != count:
            raise IndexFormatError(path, f"column {column!r} has {len(a[column])} entries, "
                                         f"not the {count} {of}")
    field_policy = str(a["field_policy"])
    if field_policy not in FIELD_POLICIES:
        raise IndexFormatError(path, f"unknown field policy {field_policy!r}")
    try:
        offsets, doc_lengths, ordinals, tfs = _decoded_postings(a, len(doc_ids), terms)
        return InvertedIndex(doc_ids, doc_lengths, a["doc_digests"], terms, offsets,
                             ordinals, tfs, field_policy)
    except ValueError as exc:
        raise IndexFormatError(path, str(exc)) from exc
