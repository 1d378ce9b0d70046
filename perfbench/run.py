#!/usr/bin/env python3
"""queryboost benchmark: set-up, interactive and batch phases on seeded workloads.

    python3 perfbench/run.py --workload sparse-zipf --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Each run generates its workload's data from the seed (in a child process, so
generation costs no time and no memory in the measured process), then:

1. set-up, repeated: load_corpus_jsonl, build_index, save_index, load_index
   and the ReferenceCache load; ``setup_s`` is the median total.
2. whole cycles until ``--seconds`` have passed, each of an interactive pass
   (every held-out query answered alone by run_query_pipeline) and a batch
   round (run_pipeline over the batch queries plus write_run of the bm25, pre
   and post run files). ``query_p50_ms`` and ``query_tail_ms`` are taken over
   each held-out query's mean latency, ``qps`` over all batch rounds.
3. checks, outside all timing: every ranking against oracle.py, the nDCG
   against evaluate_run, the run files, the index round trip, and the
   no-expansion baseline (n_refs=0), which expansion must beat on BM25
   nDCG@10. A query failing any check counts as failed.

With ``--trace 1`` the same phases run with timing wrappers around the
program's layer boundaries and the per-layer metrics are printed instead of the
end-to-end ones. The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import requests

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK = CHECKOUT / ".bench_work"
sys.path.insert(0, str(HERE))

import datagen  # noqa: E402
from hashvec import HashVectors  # noqa: E402
from oracle import Oracle, read_qrels, read_run_file  # noqa: E402
from tracing import ROOT, TimedSession, TracedProvider, Tracer  # noqa: E402

DIMENSION = 256         # the CLI's default --dimension
EMBED_SEED = 0          # the CLI's default --embed-seed
STAGES = ("bm25", "pre", "post")

SETUPS = 3              # set-up repetitions; setup_s is their median
CPUS = sorted(os.sched_getaffinity(0))
# provider: where embeddings come from; retrieve_k: BM25 depth.
# sparse-zipf reranks 50 candidates and dense-remote 30, not the default 100,
# so that BM25 keeps most of sparse-zipf's query time and each run stays
# within its time budget; on dense-remote every candidate is an HTTP request.
WORKLOADS = {
    "sparse-zipf": dict(provider="hashing", retrieve_k=50),
    "dense-remote": dict(provider="remote", retrieve_k=30),
}

END_TO_END = [
    ("setup_s", "s"), ("qps", "queries/s"), ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("index_bytes", "bytes"),
    ("ndcg10_bm25", "nDCG"), ("ndcg10_pre", "nDCG"), ("ndcg10_post", "nDCG"),
]

# Per-query spans: metric prefix -> span name.
QUERY_SPANS = {
    "sparse.expand_ms": "sparse.build_sparse_query",
    "sparse.bm25_ms": "sparse.bm25_search",
    "rerank.embed_query_ms": "rerank.embed_query",
    "rerank.rerank_ms": "rerank.rerank",
    "calibration.feedback_ms": "calibration.build_feedback_sets",
    "calibration.calibrate_ms": "calibration.calibrate",
    "calibration.final_rank_ms": "calibration.final_rank",
}
# queryboost.pipeline attribute -> span name; the pipeline calls these by name.
PIPELINE_CALLS = {
    "build_sparse_query": "sparse.build_sparse_query",
    "bm25_search": "sparse.bm25_search",
    "embed_query": "rerank.embed_query",
    "rerank": "rerank.rerank",
    "build_feedback_sets": "calibration.build_feedback_sets",
    "calibrate": "calibration.calibrate",
    "final_rank": "calibration.final_rank",
    "run_query_pipeline": ROOT,
    "run_pipeline": "pipeline.run_pipeline",
}
# share.<stage>: that span's part of all run_query_pipeline time.
SHARES = {m.split(".")[1].removesuffix("_ms"): span for m, span in QUERY_SPANS.items()}
EMBED_SPANS = ("embedding.embed", "embedding.embed_batch")
KEPT_SPANS = ("sparse.bm25_search", "calibration.build_feedback_sets")  # for counts

PER_LAYER = (
    [("corpus.load_corpus_s_p50", "s"), ("corpus.build_index_s_p50", "s"),
     ("corpus.save_index_s_p50", "s"), ("corpus.load_index_s_p50", "s"),
     ("generation.cache_load_s_p50", "s")]
    + [(f"{m}_{q}", "ms") for m in QUERY_SPANS for q in ("p50", "tail")]
    + [("sparse.expanded_terms", "count"), ("sparse.postings_per_query", "count"),
       ("sparse.distinct_candidate_ratio", "ratio"),
       ("embedding.calls_per_query", "count"), ("embedding.texts_per_query", "count"),
       ("embedding.busy_ms_p50", "ms"), ("embedding.busy_ms_tail", "ms"),
       ("embedding.unique_text_ratio", "ratio"),
       ("embedding.http_requests_per_query", "count")]
    + [(f"embedding.{m}_{q}", "ms") for m in ("http_rtt_ms", "service_ms", "http_wait_ms")
       for q in ("p50", "tail")]
    + [("calibration.positives", "count"), ("calibration.negatives", "count"),
       ("evaluation.write_run_ms_p50", "ms"),
       ("pipeline.query_self_ms_p50", "ms"), ("pipeline.query_self_ms_tail", "ms"),
       ("trace.qps", "queries/s")]
    + [(f"share.{s}", "ratio") for s in [*SHARES, "query_self", "embedding"]]
)


def import_program() -> None:
    """Make queryboost importable from this checkout's src/, never from elsewhere."""
    src = CHECKOUT / "src"
    sys.path.insert(0, str(src))
    try:
        import queryboost
    except ImportError as exc:
        raise SystemExit(f"error: cannot import queryboost from {src}: {exc}")
    if Path(queryboost.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: queryboost imported from {queryboost.__file__}, not {src}")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentiles(values: list[float]) -> tuple[float, float]:
    """Median, and the value with exactly ten samples above it (needs >= 40)."""
    ordered = sorted(values)
    tail = ordered[len(ordered) - 11] if len(ordered) >= 40 else float("nan")
    return statistics.median(ordered), tail


def start_stub(dimension: int):
    proc = subprocess.Popen([sys.executable, str(HERE / "stub_embedder.py"),
                             "--dimension", str(dimension), "--seed", str(EMBED_SEED)],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"stub embedding service did not start: {line!r}")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}/"


def same_index(a, b) -> bool:
    return (a.postings == b.postings and a.df == b.df and a.stats == b.stats
            and a.field_policy == b.field_policy)


def pin(i: int, pids: list[int]) -> None:
    """Move this process (pid 0) and its helpers together to the i-th allowed CPU.

    One CPU at a time: on a virtual machine, waking the stub service on another
    CPU made the loopback round trip, and with it qps, vary by up to 2x between
    runs of the same seed. Taking the CPUs in turn: other tenants slow each
    virtual CPU at their own times (at one point a fixed loop took 43 ms on
    one and 22 ms on the other), and a run that always used the same CPU took
    on all of that CPU's slow spells.
    """
    for pid in pids:
        os.sched_setaffinity(pid, {CPUS[i % len(CPUS)]})


def setup(data: Path, work: Path, repeats: int, pids: list[int]):
    """Repeated set-up; returns the last round's objects and the step timings."""
    from queryboost.corpus import build_index, load_corpus_jsonl, load_index, save_index
    from queryboost.generation import ReferenceCache
    steps = {k: [] for k in ("load_corpus", "build_index", "save_index",
                             "load_index", "cache_load", "total")}
    for i in range(repeats):
        pin(i, pids)
        docs = built = index = cache = None  # free the last round's objects first
        out = work / f"index{i}"
        out.mkdir()
        t0 = time.perf_counter()
        docs = load_corpus_jsonl(data / "corpus.jsonl")
        t1 = time.perf_counter()
        built = build_index(docs)
        t2 = time.perf_counter()
        save_index(built, out / "index.json")
        t3 = time.perf_counter()
        index = load_index(out / "index.json")
        t4 = time.perf_counter()
        cache = ReferenceCache(data / "cache.jsonl")
        t5 = time.perf_counter()
        for k, v in zip(steps, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t5 - t0)):
            steps[k].append(v)
    index_bytes = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    round_trip = same_index(built, index)
    return docs, index, cache, steps, index_bytes, round_trip


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "datagen.py"), "--workload", name,
                    "--seed", str(seed), "--out", str(data)], check=True, timeout=120)
    log(f"data generated in {time.perf_counter() - t0:.1f} s")
    stub = endpoint = None
    try:
        if spec["provider"] == "remote":
            stub, endpoint = start_stub(DIMENSION)
        return measure(spec, data, work, seconds, trace, endpoint,
                       [0] + ([stub.pid] if stub else []),
                       WORK / "results" / f"{name}-seed{seed}-spans.jsonl")
    finally:
        if stub is not None:
            stub.terminate()
            stub.wait(timeout=30)
        shutil.rmtree(work, ignore_errors=True)


def measure(spec: dict, data: Path, work: Path, seconds: float,
            trace: bool, endpoint: str | None, pids: list[int], spans_path: Path) -> dict:
    from queryboost import evaluation, pipeline as pl
    from queryboost.embedding import HashingEmbedder, RemoteEmbedder

    cfg = pl.PipelineConfig(retrieve_k=spec["retrieve_k"])
    model = datagen.MODEL_ID
    heldout = evaluation.read_queries_tsv(data / "heldout.tsv")
    queries = evaluation.read_queries_tsv(data / "queries.tsv")
    qrels = evaluation.read_qrels(data / "qrels.txt")

    docs, index, cache, steps, index_bytes, round_trip = setup(data, work, SETUPS, pids)
    log(f"{SETUPS} set-ups in {sum(steps['total']):.1f} s")
    store = {d.doc_id: d for d in docs}
    del docs

    session = None
    if endpoint:
        session = TimedSession() if trace else requests.Session()
        provider = RemoteEmbedder(endpoint=endpoint, dimension=DIMENSION, session=session)
    else:
        provider = HashingEmbedder(dimension=DIMENSION, seed=EMBED_SEED)
    write_run = evaluation.write_run
    tracer = None
    if trace:
        tracer = Tracer()
        for attr, span in PIPELINE_CALLS.items():
            tracer.patch(pl, attr, span, keep=span in KEPT_SPANS)
        provider = TracedProvider(provider, tracer)
        write_run = tracer.wrap("evaluation.write_run", evaluation.write_run)
        served_before = session.get(endpoint + "stats").json() if session else None

    def batch_round():
        rankings = pl.run_pipeline(queries, index, store, provider, cache, model, cfg)
        for stage in STAGES:
            write_run(work / f"bench.{stage}.run", [getattr(r, stage) for r in rankings],
                      tag=f"bench-{stage}")
        return rankings

    # Whole cycles of one interactive pass and one batch round until --seconds
    # have passed. Other tenants of a shared host slow a run by up to 1.9x for
    # seconds to minutes at a time; a mean over the whole window averages those
    # spells, where a median or a minimum over cycles follows whichever spell
    # the run fell in (over 10-15 runs per workload, the mean gave the smallest
    # run-to-run spread on every timing metric).
    latencies = {qid: [] for qid, _ in heldout}
    round_s = []
    cycles, differing_cycles = 0, 0
    round_spans = None
    window = time.perf_counter()
    while True:
        pin(cycles, pids)
        answers = []
        for qid, query in heldout:
            t0 = time.perf_counter()
            answers.append(pl.run_query_pipeline(qid, query, index, store, provider,
                                                 cache.get(qid, model), cfg))
            latencies[qid].append((time.perf_counter() - t0) * 1000.0)
        spans_before = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        result = batch_round()
        round_s.append(time.perf_counter() - t0)
        if cycles == 0:
            interactive, first = answers, result
            if tracer:
                round_spans = [spans_before, len(tracer.spans)]
        elif answers != interactive or result != first:
            differing_cycles += 1
        cycles += 1
        if time.perf_counter() - window >= seconds:
            break
    batch_s = sum(round_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"{cycles} cycles in {time.perf_counter() - window:.1f} s")
    checks_start = time.perf_counter()

    # ---- nothing below is measured ----
    problems: list[str] = []
    http = None
    if tracer:
        tracer.unpatch()
        provider = provider.inner
        if session:
            http = list(session.rtt_ms), list(session.service_ms)
            served = session.get(endpoint + "stats").json()["requests"] - served_before["requests"]
            if served != len(http[0]):
                problems.append(f"service served {served} requests, client sent {len(http[0])}")
        write_run = evaluation.write_run
        if batch_round() != first:
            problems.append("the rankings of an untraced round differ from the traced run's")
    baseline = pl.run_pipeline(queries, index, store, provider, cache, model, cfg, n_refs=0)
    if session:
        session.close()

    oracle = Oracle(data / "corpus.jsonl", read_qrels(data / "qrels.txt"),
                    k1=cfg.bm25.k1, b=cfg.bm25.b, beta=cfg.reweight.beta,
                    retrieve_k=cfg.retrieve_k, alpha=cfg.calibration.alpha,
                    k_reciprocal=cfg.calibration.k_reciprocal,
                    num_negatives=cfg.calibration.num_negatives,
                    vectors=HashVectors(DIMENSION, EMBED_SEED, memo=True,
                                        max_words=512 if endpoint else None))
    refs = {qid: list(cache.get(qid, model).references) for qid, _ in heldout + queries}
    failed_interactive = check_queries(oracle, heldout, interactive, refs, 5, problems)
    failed_round = check_queries(oracle, queries, first, refs, 5, problems)
    failed_round |= check_run_files(work, first, problems)
    check_baseline(oracle, queries, baseline, first, refs, problems)
    if differing_cycles:
        problems.append(f"{differing_cycles} cycles differ from the first")
    if not round_trip:
        problems.append("load_index(save_index(index)) differs from the built index")
    evaluated = interactive + first
    ndcg = {stage: ndcg_against_program(oracle, [getattr(r, stage) for r in evaluated],
                                        qrels, problems)
            for stage in STAGES}

    attempted = cycles * (len(heldout) + len(queries))
    failed = cycles * (len(failed_interactive) + len(failed_round))
    for p in problems[:20]:
        log(f"check: {p}")
    log(f"checked in {time.perf_counter() - checks_start:.1f} s")
    correct = not any(not p.startswith("query ") for p in problems)

    if trace:
        tracer.write(spans_path)
        metrics = layer_metrics(tracer, http, steps, round_spans,
                                attempted, cycles * len(queries), batch_s, oracle)
        units = dict(PER_LAYER)
    else:
        p50, tail = percentiles([statistics.fmean(v) for v in latencies.values()])
        metrics = {
            "setup_s": statistics.median(steps["total"]),
            "qps": cycles * len(queries) / batch_s,
            "query_p50_ms": p50,
            "query_tail_ms": tail,
            "peak_rss_mb": peak_rss_mb,
            "index_bytes": index_bytes,
            **{f"ndcg10_{s}": ndcg[s] for s in STAGES},
        }
        units = dict(END_TO_END)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def check_queries(oracle, queries, results, refs, n_refs, problems) -> set:
    """Keys of the queries whose rankings disagree with the oracle."""
    failed = set()
    for (qid, query), r in zip(queries, results, strict=True):
        got = [list(r.bm25.items), list(r.pre.items), list(r.post.items)]
        for p in oracle.check(query, refs[qid][:n_refs], got):
            problems.append(f"query {qid} (n_refs={n_refs}): {p}")
            failed.add((n_refs, qid))
    return failed


def check_baseline(oracle, queries, baseline, expanded, refs, problems) -> None:
    """The no-expansion rankings must be right, and worse on BM25 nDCG@10."""
    wrong = check_queries(oracle, queries, baseline, refs, 0, [])
    if wrong:
        problems.append(f"no-expansion baseline: {len(wrong)} queries fail the checks")

    def bm25_ndcg(rankings):
        return statistics.fmean(oracle.ndcg(r.bm25.query_id, r.bm25.doc_ids()) for r in rankings)
    if not bm25_ndcg(expanded) > bm25_ndcg(baseline):
        problems.append(f"expanded bm25 nDCG {bm25_ndcg(expanded):.4f} does not exceed "
                        f"the n_refs=0 baseline {bm25_ndcg(baseline):.4f}")


def check_run_files(work: Path, rankings, problems) -> set:
    """The written run files must hold every ranking, in order, to 6 decimals."""
    failed = set()
    for stage in STAGES:
        lines = read_run_file(work / f"bench.{stage}.run")
        for r in rankings:
            ranking = getattr(r, stage)
            want = [(d, i, f"{s:.6f}") for i, (d, s) in enumerate(ranking.items, start=1)]
            if lines.get(ranking.query_id, []) != want:
                problems.append(f"query {ranking.query_id}: {stage} run file differs")
                failed.add((5, ranking.query_id))
    return failed


def ndcg_against_program(oracle, run, qrels, problems) -> float:
    """The benchmark's mean nDCG@10; every query's value must match evaluate_run's."""
    from queryboost.evaluation import evaluate_run

    mine = {r.query_id: oracle.ndcg(r.query_id, r.doc_ids()) for r in run}
    report = evaluate_run(run, qrels, 10)
    for qid, value in mine.items():
        theirs = report.per_query.get(qid)
        if theirs is None or abs(theirs - value) > 1e-12:
            problems.append(f"nDCG of {qid}: {value} != evaluate_run's {theirs}")
    return statistics.fmean(mine.values())


def layer_metrics(tracer: Tracer, http, steps, round_spans, n_queries, n_batch,
                  batch_s, oracle) -> dict:
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.name == ROOT]
    child_ms = dict.fromkeys(roots, 0.0)
    embeds = {r: [] for r in roots}
    for s in spans:
        if s.parent in child_ms:
            child_ms[s.parent] += s.ms
        if s.name in EMBED_SPANS:
            embeds[s.root].append(s)
    self_ms = [spans[r].ms - child_ms[r] for r in roots]

    def dist(values):
        return percentiles(values) if values else (0.0, 0.0)

    def texts(s):
        return [s.args[0]] if s.name == "embedding.embed" else list(s.args[0])

    m = {f"corpus.{k}_s_p50": statistics.median(steps[k])
         for k in ("load_corpus", "build_index", "save_index", "load_index")}
    m["generation.cache_load_s_p50"] = statistics.median(steps["cache_load"])
    for metric, name in QUERY_SPANS.items():
        m[f"{metric}_p50"], m[f"{metric}_tail"] = dist([s.ms for s in tracer.named(name)])

    bm25 = tracer.named("sparse.bm25_search")
    m["sparse.expanded_terms"] = statistics.fmean(len(set(s.args[2].tokens)) for s in bm25)
    m["sparse.postings_per_query"] = statistics.fmean(
        oracle.postings_total(s.args[2].tokens) for s in bm25)
    candidates = [d for s in spans[round_spans[0]:round_spans[1]]
                  if s.name == "sparse.bm25_search" for d, _ in s.result]
    m["sparse.distinct_candidate_ratio"] = len(set(candidates)) / len(candidates)

    m["embedding.calls_per_query"] = statistics.fmean(len(e) for e in embeds.values())
    m["embedding.texts_per_query"] = statistics.fmean(
        sum(len(texts(s)) for s in e) for e in embeds.values())
    m["embedding.busy_ms_p50"], m["embedding.busy_ms_tail"] = dist(
        [sum(s.ms for s in e) for e in embeds.values()])
    batch_texts = [t for s in spans[round_spans[0]:round_spans[1]] if s.name in EMBED_SPANS
                   for t in texts(s)]
    m["embedding.unique_text_ratio"] = len(set(batch_texts)) / len(batch_texts)

    rtt, service = http or ([], [])
    m["embedding.http_requests_per_query"] = len(rtt) / n_queries
    for key, values in (("http_rtt_ms", rtt), ("service_ms", service),
                        ("http_wait_ms", [a - b for a, b in zip(rtt, service)])):
        m[f"embedding.{key}_p50"], m[f"embedding.{key}_tail"] = dist(values)

    feedback = [s.result for s in tracer.named("calibration.build_feedback_sets")]
    m["calibration.positives"] = statistics.fmean(len(f.positives) for f in feedback)
    m["calibration.negatives"] = statistics.fmean(len(f.negatives) for f in feedback)
    m["evaluation.write_run_ms_p50"] = dist([s.ms for s in tracer.named("evaluation.write_run")])[0]
    m["pipeline.query_self_ms_p50"], m["pipeline.query_self_ms_tail"] = dist(self_ms)
    m["trace.qps"] = n_batch / batch_s

    total = sum(spans[r].ms for r in roots)
    for share, name in SHARES.items():
        m[f"share.{share}"] = sum(s.ms for s in tracer.named(name)) / total
    m["share.query_self"] = sum(self_ms) / total
    m["share.embedding"] = sum(s.ms for e in embeds.values() for s in e) / total
    return m


def print_result(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, v in result["metrics"].items():
        print(f"  {metric:36s} {v['value']:>16.6g} {v['unit']}")


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in turn, each in its own process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print_result(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminated runs unwind too, so the stub service is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    pin(0, [0])  # the children it starts inherit this
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        import_program()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(args.workload, result)
        (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(result, indent=1))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
