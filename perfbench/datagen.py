#!/usr/bin/env python3
"""Seeded data generator for the benchmark workloads.

Writes ``corpus.jsonl``, ``queries.tsv`` (the batch set), ``heldout.tsv`` (the
interactive sample), ``qrels.txt`` and ``cache.jsonl`` in the formats the
queryboost README documents, without importing queryboost.

Every topic has rare keywords that its relevant documents use and aliases that
only its queries and a few distractor documents use, so plain lexical retrieval
faces a vocabulary gap by construction. References cover the keywords only in
part and some are noisy (they talk about another topic), so no ranking reaches
nDCG 1.0. Background text is drawn from a Zipfian vocabulary. A few documents
are exact duplicates under another id, so every ranking meets exact score ties
and the doc-id tie-break decides their order.

    python3 perfbench/datagen.py --workload sparse-zipf --seed 1 --out DIR
"""

import argparse
import json
from pathlib import Path

import numpy as np

MODEL_ID = "bench-refs"

# Per-workload make-up. Lengths are token ranges, inclusive. A reference's
# words besides its keywords come from its topic's vocabulary with probability
# ref_topical_share, else from the Zipfian background.
SPECS = {
    # Long, partly noisy references over the largest Zipfian corpus: hundreds
    # of distinct expanded terms with long postings, one query per topic.
    "sparse-zipf": dict(docs=4000, doc_len=(50, 200), topics=80,
                        queries_per_topic=1, heldout=40, ref_len=(150, 300),
                        ref_keyword_repeats=(6, 14), ref_topical_share=0.5),
    # Long documents, several queries per topic and short keyword-like
    # references: short postings, overlapping candidate sets.
    "dense-remote": dict(docs=800, doc_len=(200, 400), topics=20,
                         queries_per_topic=4, heldout=40, ref_len=(6, 12),
                         ref_keyword_repeats=(1, 1), ref_topical_share=1.0),
}

VOCAB_SIZE = 30000      # background words, Zipf-ranked
ZIPF_S = 0.8
KEYWORDS_PER_TOPIC = 8
ALIASES_PER_TOPIC = 4
# Distinct keywords in each relevant document; the first is duplicated.
RELEVANT_KEYWORD_COUNTS = (8, 6, 4, 2)
DISTRACTORS_PER_TOPIC = 2   # share the query's aliases, not its topic
NEAR_MISSES_PER_TOPIC = 3   # share two keywords, judged not relevant
REFS_PER_QUERY = 5
DOC_KEYWORD_REPEATS = (2, 6)
NOISY_REFS_PER_QUERY = 2
BACKGROUND_DUP_SHARE = 0.01
# Each topic's references also lean on a set of background words that the
# corpus uses only by chance, so the candidates below the relevant documents
# differ from topic to topic instead of being the same frequent-word documents.
TOPICAL_WORDS = 150

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def _spell(i: int) -> str:
    """Pronounceable word for index i; lower indexes get shorter words."""
    n = len(_SYLLABLES)
    width, base = 1, 0
    while i >= base + n ** width:
        base += n ** width
        width += 1
    i -= base
    parts = []
    for _ in range(width):
        i, r = divmod(i, n)
        parts.append(_SYLLABLES[r])
    return "".join(parts)


class _Text:
    """Zipfian background sampler plus helpers to plant words."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.words = np.array([_spell(i) for i in range(VOCAB_SIZE)])
        weights = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())

    def background(self, n: int, topical=None, share: float = 0.0) -> list[str]:
        """n Zipfian words, each replaced by a topical word with probability share."""
        ranks = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        words = self.words[np.minimum(ranks, VOCAB_SIZE - 1)]
        if topical is not None:
            swap = self.rng.random(n) < share
            words[swap] = self.rng.choice(topical, size=int(swap.sum()))
        return list(words)

    def plant(self, tokens: list[str], words: list[str]) -> list[str]:
        """Insert words at random positions."""
        tokens = list(tokens)
        for w in words:
            tokens.insert(int(self.rng.integers(0, len(tokens) + 1)), w)
        return tokens

    def between(self, span) -> int:
        return int(self.rng.integers(span[0], span[1] + 1))


def generate(workload: str, seed: int, out_dir) -> None:
    spec = SPECS[workload]
    rng = np.random.default_rng([seed, list(SPECS).index(workload)])
    text = _Text(rng)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # Topic words come from beyond the background vocabulary, so they are rare.
    topic_words = [_spell(VOCAB_SIZE + i) for i in
                   rng.permutation(spec["topics"] * (KEYWORDS_PER_TOPIC + ALIASES_PER_TOPIC))]
    topics = []
    for t in range(spec["topics"]):
        chunk = topic_words[t * (KEYWORDS_PER_TOPIC + ALIASES_PER_TOPIC):
                            (t + 1) * (KEYWORDS_PER_TOPIC + ALIASES_PER_TOPIC)]
        topical = text.words[rng.choice(np.arange(200, VOCAB_SIZE), size=TOPICAL_WORDS,
                                        replace=False)]
        topics.append((chunk[:KEYWORDS_PER_TOPIC], chunk[KEYWORDS_PER_TOPIC:], topical))

    # Documents: (text, grade or None, topic or None).
    docs: list[tuple[str, int | None, int | None]] = []
    for t, (keywords, aliases, _) in enumerate(topics):
        for j, m in enumerate(RELEVANT_KEYWORD_COUNTS):
            chosen = list(rng.choice(keywords, size=m, replace=False))
            planted = [w for w in chosen for _ in range(text.between(DOC_KEYWORD_REPEATS))]
            body = text.plant(text.background(text.between(spec["doc_len"])), planted)
            grade = 3 if m >= 6 else 2 if m >= 3 else 1
            docs.append((" ".join(body), grade, t))
            if j == 0:
                docs.append(docs[-1])
        for _ in range(DISTRACTORS_PER_TOPIC):
            planted = list(rng.choice(aliases, size=2, replace=False))
            body = text.plant(text.background(text.between(spec["doc_len"])), planted)
            docs.append((" ".join(body), 0, t))
        for _ in range(NEAR_MISSES_PER_TOPIC):
            chosen = list(rng.choice(keywords, size=2, replace=False))
            planted = [w for w in chosen for _ in range(text.between(DOC_KEYWORD_REPEATS))]
            body = text.plant(text.background(text.between(spec["doc_len"])), planted)
            docs.append((" ".join(body), 0, t))
    while len(docs) < spec["docs"]:
        body = " ".join(text.background(text.between(spec["doc_len"])))
        docs.append((body, None, None))
        if rng.random() < BACKGROUND_DUP_SHARE and len(docs) < spec["docs"]:
            docs.append(docs[-1])

    ids = [f"d{i:06d}" for i in rng.permutation(len(docs))]
    order = rng.permutation(len(docs))
    qrels: dict[int, list[tuple[str, int]]] = {}
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i in order:
            body, grade, t = docs[i]
            fh.write(json.dumps({"_id": ids[i], "title": "", "text": body}) + "\n")
            if grade is not None:
                qrels.setdefault(t, []).append((ids[i], grade))

    # Queries: two aliases and one frequent background word; never a keyword.
    queries = []
    for t, (keywords, aliases, _) in enumerate(topics):
        pairs = [(a, b) for a in range(ALIASES_PER_TOPIC)
                 for b in range(a + 1, ALIASES_PER_TOPIC)]
        for k in rng.permutation(len(pairs))[:spec["queries_per_topic"]]:
            words = [aliases[pairs[k][0]], aliases[pairs[k][1]],
                     text.words[int(rng.integers(0, 20))]]
            rng.shuffle(words)
            queries.append((t, " ".join(words), _references(text, topics, t, spec)))

    qorder = rng.permutation(len(queries))
    with open(out / "queries.tsv", "w", encoding="utf-8") as batch, \
            open(out / "heldout.tsv", "w", encoding="utf-8") as held, \
            open(out / "qrels.txt", "w", encoding="utf-8") as qr, \
            open(out / "cache.jsonl", "w", encoding="utf-8") as cache:
        for n, i in enumerate(qorder):
            t, query, refs = queries[i]
            qid = f"q{i:04d}"
            (held if n < spec["heldout"] else batch).write(f"{qid}\t{query}\n")
            for doc_id, grade in sorted(qrels[t]):
                qr.write(f"{qid} 0 {doc_id} {grade}\n")
            cache.write(json.dumps({
                "query_id": qid, "query": query, "model": MODEL_ID,
                "prompt_version": "v1", "references": refs,
                "created_at": "1970-01-01T00:00:00+00:00"}) + "\n")


def _references(text: _Text, topics, t: int, spec) -> list[str]:
    """Partly covering references; a share of them drift to another topic."""
    refs = []
    noisy = set(text.rng.choice(REFS_PER_QUERY, size=NOISY_REFS_PER_QUERY, replace=False))
    for i in range(REFS_PER_QUERY):
        src = int(text.rng.integers(0, len(topics))) if i in noisy else t
        keywords, _, topical = topics[src]
        cover = int(text.rng.integers(2, KEYWORDS_PER_TOPIC // 2 + 2))
        chosen = list(text.rng.choice(keywords, size=cover, replace=False))
        n = text.between(spec["ref_len"])
        filler = text.background(max(1, n - cover), topical, spec["ref_topical_share"])
        planted = [w for w in chosen for _ in range(text.between(spec["ref_keyword_repeats"]))]
        refs.append(" ".join(text.plant(filler, planted)))
    return refs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SPECS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
