"""Independent recomputation of every ranking the pipeline produces.

Nothing here imports queryboost. The oracle reads the generated files, builds
its own postings as numpy arrays, and recomputes from the definitions:

- BM25 (k1, b; idf = ln(1 + (N - df + 0.5) / (df + 0.5))) over the expanded
  token multiset: the query repeated lambda = max(1, floor(sum of reference
  tokens / (query tokens * beta))) times, then every reference's tokens;
  top-k by score with ascending doc id breaking ties.
- the contex_pool query embedding, cosine rerank of the BM25 candidates, the
  feedback sets, the calibrated embedding and the final ranking, all under the
  benchmark's own hashing embedding.
- nDCG@k with linear gain; a judged query with an empty ranking scores 0.

Each operation is done in the same floating-point order as the definition, so
agreement is expected to the last bit; the checks still allow 1e-9 relative.
"""

import json
import math
from collections import Counter

import numpy as np

from hashvec import HashVectors, tokenize

REL_TOL = 1e-9


class Oracle:
    def __init__(self, corpus_path, qrels: dict[str, dict[str, int]], *,
                 k1: float, b: float, beta: float, retrieve_k: int,
                 alpha: float, k_reciprocal: int, num_negatives: int,
                 vectors: HashVectors, eval_k: int = 10):
        self.k1, self.b, self.beta, self.retrieve_k = k1, b, beta, retrieve_k
        self.alpha, self.k_reciprocal = alpha, k_reciprocal
        self.num_negatives, self.eval_k = num_negatives, eval_k
        self.qrels = qrels
        self.vectors = vectors
        self._doc_vectors: dict[str, np.ndarray] = {}

        self.doc_ids: list[str] = []
        self.text: dict[str, str] = {}
        lengths = []
        postings: dict[str, tuple[list[int], list[int]]] = {}
        with open(corpus_path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                doc_id = obj["_id"]
                text = f"{obj['title']} {obj['text']}" if obj.get("title") else obj["text"]
                tokens = tokenize(text)
                for term, tf in Counter(tokens).items():
                    docs, tfs = postings.setdefault(term, ([], []))
                    docs.append(len(self.doc_ids))
                    tfs.append(tf)
                self.doc_ids.append(doc_id)
                self.text[doc_id] = text
                lengths.append(len(tokens))
        self.n = len(self.doc_ids)
        self.avgdl = sum(lengths) / self.n
        self.norm = 1.0 - b + (b * np.asarray(lengths, dtype=np.float64) / self.avgdl)
        self.postings = {t: (np.asarray(d), np.asarray(tf, dtype=np.float64))
                         for t, (d, tf) in postings.items()}
        self.id_array = np.asarray(self.doc_ids)

    # -- sparse ---------------------------------------------------------------

    def expanded_tokens(self, query: str, refs: list[str]) -> list[str]:
        q = tokenize(query)
        if not refs:
            return q
        total = sum(len(tokenize(r)) for r in refs)
        repeats = max(1, math.floor(total / (len(q) * self.beta)))
        return q * repeats + [t for r in refs for t in tokenize(r)]

    def bm25(self, tokens: list[str]) -> list[tuple[str, float]]:
        scores = np.zeros(self.n)
        touched = np.zeros(self.n, dtype=bool)
        for term, q_count in Counter(tokens).items():
            if term not in self.postings:
                continue
            docs, tf = self.postings[term]
            idf = math.log(1.0 + (self.n - len(docs) + 0.5) / (len(docs) + 0.5))
            scores[docs] += q_count * idf * tf * (self.k1 + 1.0) / (
                tf + self.k1 * self.norm[docs])
            touched[docs] = True
        hits = np.flatnonzero(touched & (scores > 0.0))
        order = np.lexsort((self.id_array[hits], -scores[hits]))[:self.retrieve_k]
        return [(self.doc_ids[i], float(scores[i])) for i in hits[order]]

    def postings_total(self, tokens: list[str]) -> int:
        """Sum of df over the distinct terms of a query."""
        return sum(len(self.postings[t][0]) for t in set(tokens) if t in self.postings)

    # -- dense ----------------------------------------------------------------

    def _doc_vector(self, doc_id: str) -> np.ndarray:
        vec = self._doc_vectors.get(doc_id)
        if vec is None:
            vec = self._doc_vectors[doc_id] = self.vectors.vector(self.text[doc_id])
        return vec

    def _rank(self, emb: np.ndarray, ids: list[str]) -> list[tuple[str, float]]:
        ne = np.linalg.norm(emb)
        scored = []
        for doc_id in ids:
            v = self._doc_vector(doc_id)
            scored.append((doc_id, float(np.clip(np.dot(emb, v) / (ne * np.linalg.norm(v)),
                                                 -1.0, 1.0))))
        scored.sort(key=lambda ds: (-ds[1], ds[0]))
        return scored

    def query_embedding(self, query: str, refs: list[str]) -> np.ndarray:
        if not refs:
            return self.vectors.vector(query)
        return np.mean([self.vectors.vector(f"{query} {r}") for r in refs], axis=0)

    def calibrated(self, query: str, refs: list[str], bm25, pre) -> np.ndarray:
        """The calibrated query embedding, from feedback sets built here."""
        k = self.k_reciprocal
        top_bm25 = {d for d, _ in bm25[:k]}
        positives = list(refs)
        seen = set()
        for d, _ in pre[:k]:
            if d in top_bm25 and d not in seen:
                seen.add(d)
                positives.append(self.text[d])
        tail = bm25[-self.num_negatives:] if self.num_negatives else []
        negatives = [self.text[d] for d, _ in tail if d not in seen]
        out = np.sum([self.vectors.vector(f"{query} {p}") for p in positives], axis=0)
        if negatives:
            out = out - self.alpha * np.sum([self.vectors.vector(n) for n in negatives], axis=0)
        return out / (len(positives) + len(negatives))

    def rankings(self, query: str, refs: list[str]):
        """The expected bm25, pre and post rankings of one query."""
        bm25 = self.bm25(self.expanded_tokens(query, refs))
        if not bm25:
            return [], [], []
        ids = [d for d, _ in bm25]
        pre = self._rank(self.query_embedding(query, refs), ids)
        if not refs:
            return bm25, pre, pre
        post = self._rank(self.calibrated(query, refs, bm25, pre), ids)
        return bm25, pre, post

    # -- checks ---------------------------------------------------------------

    def check(self, query: str, refs: list[str], got) -> list[str]:
        """Problems with one query's (bm25, pre, post) item lists; empty if none."""
        problems = []
        expected = self.rankings(query, refs)
        for stage, exp, items in zip(("bm25", "pre", "post"), expected, got):
            if [d for d, _ in items] != [d for d, _ in exp]:
                problems.append(f"{stage}: ranking differs")
            elif any(not math.isclose(s, e, rel_tol=REL_TOL, abs_tol=REL_TOL)
                     for (_, s), (_, e) in zip(items, exp)):
                problems.append(f"{stage}: scores differ")
        if got[0] and sorted(d for d, _ in got[1]) != sorted(d for d, _ in got[0]):
            problems.append("pre is not a permutation of the bm25 candidates")
        return problems

    def ndcg(self, query_id: str, doc_ids: list[str]) -> float:
        grades = self.qrels[query_id]
        dcg = sum(grades.get(d, 0) / math.log2(i + 1)
                  for i, d in enumerate(doc_ids[:self.eval_k], start=1))
        ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
        idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal[:self.eval_k], start=1))
        return dcg / idcg


def read_qrels(path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc_id, grade = line.split()
            qrels.setdefault(qid, {})[doc_id] = int(grade)
    return qrels


def read_run_file(path) -> dict[str, list[tuple[str, int, str]]]:
    """Run file lines as query -> [(doc_id, rank, score text)], file order."""
    run: dict[str, list[tuple[str, int, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc_id, rank, score, _ = line.split()
            run.setdefault(qid, []).append((doc_id, int(rank), score))
    return run
