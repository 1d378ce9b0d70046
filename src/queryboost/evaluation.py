"""nDCG@k evaluation and trec-style qrels / run / queries file IO.

Each reader is a per-line parser handed to ``corpus.read_data_lines``, which
names the file and line of any bad one (exit 5 from the CLI). A run file may
list a doc once per query and a qrels file may judge it once; a run's lines
are read in score order, highest first, whatever their order in the file.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

from queryboost.corpus import is_run_field, read_data_lines
from queryboost.files import atomic_write
from queryboost.tokenizer import tokenize

Qrels = dict[str, dict[str, int]]


@dataclass(frozen=True)
class Ranking:
    """Ordered (doc_id, score) list for one query; scores non-increasing."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.items]


@dataclass
class EvalReport:
    per_query: dict[str, float]
    mean: float
    fingerprint: str
    num_evaluated: int
    skipped: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"mean": self.mean, "per_query": self.per_query,
                "fingerprint": self.fingerprint,
                "num_evaluated": self.num_evaluated, "skipped": self.skipped}


def config_fingerprint(config: dict) -> str:
    """Stable hash of a config snapshot; changes when any field changes."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _gain(grade: int, exponential: bool) -> float:
    """r or 2^r - 1 as a float (ldexp never builds 2^r as an int); OverflowError past it."""
    return math.ldexp(1.0, grade) - 1.0 if exponential else float(grade)


def ndcg_at_k(ranking: Ranking, qrels: Qrels, k: int,
              exponential_gain: bool = False) -> float:
    """DCG@k / IDCG@k with gain(r) = r (or 2^r - 1) and log2(i+1) discount.

    A gain or a DCG that overflows a float is a ValueError naming the query.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = qrels.get(ranking.query_id, {})
    positive = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not positive:
        raise ValueError(
            f"query {ranking.query_id!r} has no positive relevance judgments")

    try:
        dcg = 0.0
        for i, (doc_id, _) in enumerate(ranking.items[:k], start=1):
            dcg += _gain(grades.get(doc_id, 0), exponential_gain) / math.log2(i + 1)
        idcg = sum(_gain(g, exponential_gain) / math.log2(i + 1)
                   for i, g in enumerate(positive[:k], start=1))
    except OverflowError:
        dcg = idcg = math.inf
    if not (math.isfinite(dcg) and math.isfinite(idcg)):
        raise ValueError(f"query {ranking.query_id!r}: a gain or the DCG overflows a float")
    return dcg / idcg


def evaluate_run(run: list[Ranking], qrels: Qrels, k: int,
                 config: dict | None = None,
                 exponential_gain: bool = False) -> EvalReport:
    """Mean nDCG@k over queries with at least one positive judgment.

    Queries without positive judgments are skipped and listed, not scored 0.
    A k below 1 is a ValueError even when no query is judged.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    per_query: dict[str, float] = {}
    skipped: list[str] = []
    for ranking in run:
        grades = qrels.get(ranking.query_id, {})
        if not any(g > 0 for g in grades.values()):
            skipped.append(ranking.query_id)
            continue
        per_query[ranking.query_id] = ndcg_at_k(ranking, qrels, k, exponential_gain)

    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    fp_config = dict(config or {})
    fp_config.update({"eval_k": k, "exponential_gain": exponential_gain,
                      "skip_unjudged": True})
    return EvalReport(per_query=per_query, mean=mean,
                      fingerprint=config_fingerprint(fp_config),
                      num_evaluated=len(per_query), skipped=skipped)


# qrels and run files: a doc once per query
_read_doc_for_query_lines = partial(read_data_lines, key=itemgetter(0, 1),
                                    key_name="doc {1!r} for query {0!r}")


def _qrels_line(line: str) -> tuple[str, str, int]:
    parts = line.split()
    if len(parts) != 4:
        raise ValueError(f"expected 4 fields, got {len(parts)}")
    query_id, _, doc_id, grade = parts
    try:
        if "_" in grade or not grade.isascii():  # int() takes both, trec_eval neither
            raise ValueError
        grade_val = int(grade)
    except ValueError as exc:
        raise ValueError(f"non-integer grade {grade!r}") from exc
    if grade_val < 0:
        raise ValueError(f"negative grade {grade_val}")
    return query_id, doc_id, grade_val


def read_qrels(path) -> Qrels:
    """Parse whitespace-separated qrels lines: query_id 0 doc_id grade.

    A grade that is not a non-negative ASCII decimal integer (``1_0`` and
    ``١`` are not) is a DataFormatError naming the line; a (query, doc)
    judged on two lines is one naming both.
    """
    qrels: Qrels = {}
    for query_id, doc_id, grade in _read_doc_for_query_lines(path, _qrels_line):
        qrels.setdefault(query_id, {})[doc_id] = grade
    return qrels


def write_run(path, run: list[Ranking], tag: str = "queryboost") -> None:
    """Write trec run lines: query_id Q0 doc_id rank score tag (rank 1-based).

    Written through ``atomic_write``: a failed write leaves any previous file.
    """
    with atomic_write(path) as fh:
        for ranking in run:
            for rank, (doc_id, score) in enumerate(ranking.items, start=1):
                fh.write(f"{ranking.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def _run_line(line: str) -> tuple[str, str, float]:
    parts = line.split()
    if len(parts) != 6:
        raise ValueError(f"expected 6 fields, got {len(parts)}")
    query_id, _, doc_id, _, score, _ = parts
    try:  # as for a grade, an ASCII literal without underscores
        score_val = float(score) if "_" not in score and score.isascii() else math.nan
    except ValueError:
        score_val = math.nan
    if math.isnan(score_val):  # nan cannot be ordered
        raise ValueError(f"non-numeric score {score!r}")
    return query_id, doc_id, score_val


def read_run(path) -> list[Ranking]:
    """Read a trec run file back into per-query rankings, in first-seen query order.

    Each query's lines are ordered by score, highest first; equal scores keep
    their file order. A doc listed twice for one query, or a score that is not
    an ASCII float literal without underscores (``1_000``) or is ``nan``, is a
    DataFormatError naming the line (both lines for a repeat).
    """
    by_query: dict[str, list[tuple[str, float]]] = {}
    for query_id, doc_id, score in _read_doc_for_query_lines(path, _run_line):
        by_query.setdefault(query_id, []).append((doc_id, score))
    return [Ranking(query_id=qid, items=tuple(sorted(items, key=itemgetter(1), reverse=True)))
            for qid, items in by_query.items()]


def _query_line(line: str) -> tuple[str, str]:
    line = line.rstrip("\n")
    if "\t" not in line:
        raise ValueError("expected tab-separated id and text")
    query_id, text = line.split("\t", 1)
    if not is_run_field(query_id):
        raise ValueError(f"query id {query_id!r} is empty or holds whitespace")
    if not tokenize(text):
        raise ValueError(f"query {query_id!r} has no tokens: {text!r}")
    return query_id, text


def read_queries_tsv(path) -> list[tuple[str, str]]:
    """Read a queries file: one "query_id<TAB>query text" per line.

    A query whose text has no tokens is rejected here, naming its line, since
    neither retrieval nor query reweighting is defined for it; so is a query
    id that a run file cannot hold (``is_run_field``), and a query id already
    read, naming both lines, since every run file would list it twice.
    """
    return list(read_data_lines(path, _query_line, key=lambda query: (None, query[0]),
                                key_name="query id {1!r}"))
