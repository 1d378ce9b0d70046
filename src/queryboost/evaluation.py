"""nDCG@k evaluation and trec-style qrels / run file IO."""

import hashlib
import json
import math
from dataclasses import dataclass, field

from queryboost.corpus import DataFormatError, is_run_field
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
    return float(2 ** grade - 1) if exponential else float(grade)


def ndcg_at_k(ranking: Ranking, qrels: Qrels, k: int,
              exponential_gain: bool = False) -> float:
    """DCG@k / IDCG@k with gain(r) = r (or 2^r - 1) and log2(i+1) discount."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = qrels.get(ranking.query_id, {})
    positive = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not positive:
        raise ValueError(
            f"query {ranking.query_id!r} has no positive relevance judgments")

    dcg = 0.0
    for i, (doc_id, _) in enumerate(ranking.items[:k], start=1):
        dcg += _gain(grades.get(doc_id, 0), exponential_gain) / math.log2(i + 1)
    idcg = sum(_gain(g, exponential_gain) / math.log2(i + 1)
               for i, g in enumerate(positive[:k], start=1))
    return dcg / idcg


def evaluate_run(run: list[Ranking], qrels: Qrels, k: int,
                 config: dict | None = None,
                 exponential_gain: bool = False) -> EvalReport:
    """Mean nDCG@k over queries with at least one positive judgment.

    Queries without positive judgments are skipped and listed, not scored 0.
    """
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


def read_qrels(path) -> Qrels:
    """Parse whitespace-separated qrels lines: query_id 0 doc_id grade."""
    qrels: Qrels = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise DataFormatError(path, lineno, f"expected 4 fields, got {len(parts)}")
            query_id, _, doc_id, grade = parts
            try:
                grade_val = int(grade)
            except ValueError as exc:
                raise DataFormatError(path, lineno, f"non-integer grade {grade!r}") from exc
            if grade_val < 0:
                raise DataFormatError(path, lineno, f"negative grade {grade_val}")
            qrels.setdefault(query_id, {})[doc_id] = grade_val
    return qrels


def write_run(path, run: list[Ranking], tag: str = "queryboost") -> None:
    """Write trec run lines: query_id Q0 doc_id rank score tag (rank 1-based).

    Written through ``atomic_write``: a failed write leaves any previous file.
    """
    with atomic_write(path) as fh:
        for ranking in run:
            for rank, (doc_id, score) in enumerate(ranking.items, start=1):
                fh.write(f"{ranking.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def read_run(path) -> list[Ranking]:
    """Read a trec run file back into per-query rankings, order preserved."""
    by_query: dict[str, list[tuple[str, float]]] = {}
    order: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise DataFormatError(path, lineno, f"expected 6 fields, got {len(parts)}")
            query_id, _, doc_id, _, score, _ = parts
            try:
                score_val = float(score)
            except ValueError as exc:
                raise DataFormatError(path, lineno, f"non-numeric score {score!r}") from exc
            if query_id not in by_query:
                by_query[query_id] = []
                order.append(query_id)
            by_query[query_id].append((doc_id, score_val))
    return [Ranking(query_id=qid, items=tuple(by_query[qid])) for qid in order]


def read_queries_tsv(path) -> list[tuple[str, str]]:
    """Read a queries file: one "query_id<TAB>query text" per line.

    A query whose text has no tokens is rejected here, naming its line, since
    neither retrieval nor query reweighting is defined for it; so is a query
    id that a run file cannot hold (``is_run_field``), and a query id already
    read, naming both lines, since every run file would list it twice.
    """
    queries = []
    first_line: dict[str, int] = {}  # query_id -> line it was read from
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise DataFormatError(path, lineno, "expected tab-separated id and text")
            query_id, text = line.split("\t", 1)
            if not is_run_field(query_id):
                raise DataFormatError(path, lineno,
                                      f"query id {query_id!r} is empty or holds whitespace")
            if not tokenize(text):
                raise DataFormatError(path, lineno,
                                      f"query {query_id!r} has no tokens: {text!r}")
            first = first_line.setdefault(query_id, lineno)
            if first != lineno:
                raise DataFormatError(path, lineno,
                                      f"duplicate query id {query_id!r} (first on line {first})")
            queries.append((query_id, text))
    return queries
