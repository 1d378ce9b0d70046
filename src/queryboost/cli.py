"""Command-line interface: index, generate, search, pipeline, eval, analyze, sweep.

Exit codes: 0 success, 2 usage error (any ``ValueError`` not named here), 3
missing input file, 4 reference-cache miss, 5 malformed data file (a corpus,
queries, qrels, run, cache or index file), 6 index built from another corpus or
references cached for another query text or prompt version, 1 anything else
(a chat or embedding service that fails or answers without a usable body
included). Logs go to stderr; data goes to files or stdout. Every command that
writes outputs drops a JSON run manifest next to its primary output.
"""

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

from queryboost import __version__
from queryboost.calibration import CalibrationConfig
from queryboost.corpus import (FIELD_POLICIES, DataFormatError, IndexFormatError,
                               IndexMismatchError, build_index, check_corpus, is_run_field,
                               load_corpus_jsonl, load_index, save_index)
from queryboost.embedding import HashingEmbedder, RemoteEmbedder
from queryboost.evaluation import (Ranking, evaluate_run, read_qrels, read_queries_tsv,
                                   read_run, write_run)
from queryboost.files import atomic_write
from queryboost.generation import (PROMPT_VERSION, CacheFormatError, CacheMissError,
                                   ChatCompletionClient, GenerationConfig, ReferenceCache,
                                   StaleReferencesError, cached_references,
                                   generate_for_queries)
from queryboost.pipeline import (PipelineConfig, SWEEP_AXES, format_sweep_table,
                                 keyword_overlap, run_pipeline, sparse_ranking, sweep)
from queryboost.rerank import STRATEGIES
from queryboost.service import ServiceError
from queryboost.sparse import BM25Params, ReweightConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_CACHE_MISS = 4
EXIT_FORMAT = 5
EXIT_MISMATCH = 6

log = logging.getLogger("queryboost")
# Flag defaults are the library's, so a bare command line means PipelineConfig().
_DEFAULTS = PipelineConfig()


def _require_files(*paths) -> None:
    for p in paths:
        if not Path(p).exists():
            raise FileNotFoundError(p)


def write_manifest(output_path, args: argparse.Namespace, inputs: list,
                   outputs: list) -> None:
    manifest = {
        "tool": "queryboost",
        "version": __version__,
        "prompt_version": PROMPT_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "config": {k: v for k, v in vars(args).items()
                   if k != "func" and not k.startswith("_")},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    with atomic_write(str(output_path) + ".manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, default=str))


def _check_tag(tag: str) -> None:
    if not is_run_field(tag):
        raise ValueError(f"--tag {tag!r} is empty or holds whitespace")


def _reweight_from_args(args) -> ReweightConfig:
    if args.t is not None:
        return ReweightConfig.constant(t=args.t)
    return ReweightConfig.adaptive(beta=args.beta)


def _provider_from_args(args):
    if args.provider == "hashing":
        return HashingEmbedder(dimension=args.dimension, seed=args.embed_seed)
    if not args.embed_endpoint:
        raise ValueError("--embed-endpoint is required with --provider remote")
    return RemoteEmbedder(endpoint=args.embed_endpoint, dimension=args.dimension)


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        bm25=BM25Params(k1=args.k1, b=args.b),
        reweight=_reweight_from_args(args),
        strategy=args.strategy,
        calibration=CalibrationConfig(alpha=args.alpha,
                                      k_reciprocal=args.k_reciprocal,
                                      num_negatives=args.negatives),
        retrieve_k=args.retrieve_k,
        eval_k=args.eval_k)


def _load_index_and_corpus(args):
    """The index and a doc_id -> Document store of the corpus it was built from."""
    index = load_index(args.index)
    doc_store = {d.doc_id: d for d in load_corpus_jsonl(args.corpus)}
    check_corpus(index, doc_store)
    return index, doc_store


def cmd_index(args) -> int:
    _require_files(args.corpus)
    docs = load_corpus_jsonl(args.corpus)
    index = build_index(docs, field_policy=args.field_policy)
    save_index(index, args.out)
    write_manifest(args.out, args, [args.corpus], [args.out])
    log.info("indexed %d docs (avgdl %.2f) -> %s",
             index.num_docs, index.avgdl, args.out)
    return EXIT_OK


def cmd_generate(args) -> int:
    _require_files(args.queries)
    queries = read_queries_tsv(args.queries)
    cache = ReferenceCache(args.cache)
    client = ChatCompletionClient(endpoint=args.endpoint,
                                  api_key_env=args.api_key_env)
    cfg = GenerationConfig(model_id=args.model, n=args.n,
                           temperature=args.temperature,
                           max_tokens=args.max_tokens)
    results = generate_for_queries(client, cache, queries, cfg, jobs=args.jobs)
    write_manifest(args.cache, args, [args.queries], [args.cache])
    log.info("generated/cached references for %d queries", len(results))
    return EXIT_OK


def cmd_search(args) -> int:
    _check_tag(args.tag)
    _require_files(args.index, args.queries, args.cache)
    index = load_index(args.index)
    queries = read_queries_tsv(args.queries)
    cache = ReferenceCache(args.cache)
    reweight = _reweight_from_args(args)
    params = BM25Params(k1=args.k1, b=args.b)

    run = []
    for query_id, query in queries:
        refs = cached_references(cache, query_id, query, args.model)
        run.append(Ranking(query_id=query_id, items=tuple(
            sparse_ranking(query, refs, index, params, reweight, args.retrieve_k))))
    write_run(args.out, run, tag=args.tag)
    write_manifest(args.out, args, [args.index, args.queries, args.cache], [args.out])
    log.info("wrote sparse run for %d queries -> %s", len(run), args.out)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    _check_tag(args.tag)
    _require_files(args.index, args.corpus, args.queries, args.cache)
    index, doc_store = _load_index_and_corpus(args)
    queries = read_queries_tsv(args.queries)
    cache = ReferenceCache(args.cache)
    provider = _provider_from_args(args)
    cfg = _pipeline_config(args)

    rankings = run_pipeline(queries, index, doc_store, provider, cache,
                            args.model, cfg, n_refs=args.n_refs)

    out_prefix = Path(args.out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    stage_paths = {}
    for stage in ("bm25", "pre", "post"):
        path = Path(f"{out_prefix}.{stage}.run")
        write_run(path, [getattr(r, stage) for r in rankings],
                  tag=f"{args.tag}-{stage}")
        stage_paths[stage] = path
    write_manifest(f"{out_prefix}.post.run", args,
                   [args.index, args.corpus, args.queries, args.cache],
                   list(stage_paths.values()))
    log.info("wrote pipeline runs for %d queries -> %s.{bm25,pre,post}.run",
             len(rankings), out_prefix)
    return EXIT_OK


def cmd_eval(args) -> int:
    _require_files(args.run, args.qrels)
    run = read_run(args.run)
    qrels = read_qrels(args.qrels)
    # As `trec_eval -c`: a judged query with no line in the run (it retrieved
    # nothing, so write_run wrote nothing for it) scores 0 instead of vanishing.
    in_run = {r.query_id for r in run}
    run += [Ranking(query_id=qid, items=()) for qid, grades in sorted(qrels.items())
            if qid not in in_run and any(g > 0 for g in grades.values())]
    report = evaluate_run(run, qrels, args.k,
                          config={"run": str(args.run)},
                          exponential_gain=args.exponential_gain)
    for query_id in sorted(report.per_query):
        print(f"ndcg@{args.k}\t{query_id}\t{report.per_query[query_id]:.6f}")
    for query_id in report.skipped:
        print(f"ndcg@{args.k}\t{query_id}\tskipped", file=sys.stderr)
    print(f"ndcg@{args.k}\tmean\t{report.mean:.6f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    _require_files(args.index, args.corpus, args.queries, args.cache, args.qrels)
    index, doc_store = _load_index_and_corpus(args)
    queries = read_queries_tsv(args.queries)
    cache = ReferenceCache(args.cache)
    qrels = read_qrels(args.qrels)

    gt_pse_total = 0
    gt_query_total = 0
    reported = 0
    # every lookup before the first report, so a bad entry leaves stdout empty
    all_refs = [cached_references(cache, query_id, query, args.model)
                for query_id, query in queries]
    for (query_id, query), refs in zip(queries, all_refs):
        grades = qrels.get(query_id, {})
        gt_docs = [doc_store[d] for d, g in grades.items()
                   if g >= args.min_grade and d in doc_store]
        if not gt_docs:
            continue
        rep = keyword_overlap(query, refs, gt_docs, index, m=args.m)
        print(json.dumps(rep.to_dict(), ensure_ascii=False))
        gt_pse_total += rep.gt_pse_overlap
        gt_query_total += rep.gt_query_overlap
        reported += 1
    if reported:
        print(f"# mean gt∩pse {gt_pse_total / reported:.2f}  "
              f"mean gt∩query {gt_query_total / reported:.2f}  "
              f"({reported} queries)")
    return EXIT_OK


def _json_or_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def cmd_sweep(args) -> int:
    _require_files(args.index, args.corpus, args.queries, args.cache, args.qrels)
    index, doc_store = _load_index_and_corpus(args)
    queries = read_queries_tsv(args.queries)
    cache = ReferenceCache(args.cache)
    qrels = read_qrels(args.qrels)
    provider = _provider_from_args(args)
    cfg = _pipeline_config(args)

    # a value that is not JSON stays a string, which sweep rejects on a numeric axis
    values = args.values if args.axis == "strategy" else list(map(_json_or_text, args.values))
    results = sweep(args.axis, values, cfg, index, doc_store, provider,
                    cache, args.model, queries, qrels)
    print(format_sweep_table(args.axis, results))
    if args.out:
        with atomic_write(args.out) as fh:
            for value, report in results:
                fh.write(json.dumps({"axis": args.axis, "value": value,
                                     **report.to_dict()}, ensure_ascii=False) + "\n")
        write_manifest(args.out, args,
                       [args.index, args.corpus, args.queries, args.cache,
                        args.qrels], [args.out])
    return EXIT_OK


def _add_bm25_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k1", type=float, default=_DEFAULTS.bm25.k1)
    p.add_argument("--b", type=float, default=_DEFAULTS.bm25.b)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, default=_DEFAULTS.reweight.beta,
                       help="adaptive reweighting factor")
    group.add_argument("--t", type=int, default=None,
                       help="constant query repetition count (overrides --beta)")


def _add_provider_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--provider", choices=("hashing", "remote"), default="hashing")
    p.add_argument("--embed-endpoint", default=None)
    p.add_argument("--dimension", type=int, default=256)
    p.add_argument("--embed-seed", type=int, default=0)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    _add_bm25_flags(p)
    _add_provider_flags(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=_DEFAULTS.strategy)
    p.add_argument("--alpha", type=float, default=_DEFAULTS.calibration.alpha)
    p.add_argument("--k-reciprocal", type=int, default=_DEFAULTS.calibration.k_reciprocal)
    p.add_argument("--negatives", type=int, default=_DEFAULTS.calibration.num_negatives)
    p.add_argument("--retrieve-k", type=int, default=_DEFAULTS.retrieve_k)
    p.add_argument("--eval-k", type=int, default=_DEFAULTS.eval_k)
    p.add_argument("--model", default="synthetic-refs")
    p.add_argument("--n-refs", type=int, default=None,
                   help="use only the first N cached references (0 = no expansion)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queryboost",
        description="Query expansion retrieval: sparse search, dense rerank, "
                    "calibration, evaluation.")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults (flags override it)")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an inverted index from a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--field-policy", choices=FIELD_POLICIES, default="title_plus_text")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("generate", help="generate and cache pseudo-references")
    p.add_argument("--queries", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-tokens", type=int, default=512)
    p.add_argument("--api-key-env", default="OPENAI_API_KEY")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", help="expanded sparse retrieval to a run file")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--model", default="synthetic-refs")
    p.add_argument("--retrieve-k", type=int, default=_DEFAULTS.retrieve_k)
    p.add_argument("--out", required=True)
    p.add_argument("--tag", default="queryboost")
    _add_bm25_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("pipeline", help="full retrieve + rerank + calibrate pipeline")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--tag", default="queryboost")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", help="nDCG@k of a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--exponential-gain", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="high-idf keyword overlap report")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--model", default="synthetic-refs")
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--min-grade", type=int, default=3)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="ablation sweep along one axis")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", nargs="+", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", default=None)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, remaining = parser.parse_known_args(argv)
    if args.config:
        try:
            defaults = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            print(f"error: config file not found: {args.config}", file=sys.stderr)
            return EXIT_MISSING_FILE
        except json.JSONDecodeError as exc:
            print(f"error: malformed config file: {exc}", file=sys.stderr)
            return EXIT_FORMAT
        if not isinstance(defaults, dict):
            print(f"error: malformed config file: {args.config} does not hold a JSON object",
                  file=sys.stderr)
            return EXIT_FORMAT
        subcommands = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction))
        parsers = [parser, *subcommands.choices.values()]
        # a key any subcommand defines is allowed, since one config serves every command
        known = {a.dest for p in parsers for a in p._actions}
        unknown = sorted(set(defaults) - known)
        if unknown:
            print(f"error: config file {args.config}: unknown key(s) "
                  f"{', '.join(map(repr, unknown))} (keys are flag names with '_' for '-', "
                  "as in 'k_reciprocal')", file=sys.stderr)
            return EXIT_USAGE
        for p in parsers:
            p.set_defaults(**defaults)
        args = parser.parse_args(argv)
    elif remaining:
        parser.parse_args(argv)  # reports unknown flags and exits 2

    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except CacheMissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CACHE_MISS
    except (DataFormatError, CacheFormatError, IndexFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (IndexMismatchError, StaleReferencesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - catch-all for unexpected failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
