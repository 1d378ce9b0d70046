"""Command-line interface: index, generate, search, pipeline, eval, analyze, sweep.

Exit codes: 0 success, 2 usage error (any ``ValueError`` not named here), 3
missing declared input file or ``--config`` (checked before the command runs), 4
reference-cache miss, 5 malformed data file (a corpus, queries, qrels, run, cache,
index or ``--config`` file), 6 index built from another corpus or references
cached for another query text or prompt version, 1 anything else (a chat or
embedding service that fails or answers without a usable body included). Every
failure but argparse's own leaves ``main`` as one ``error:`` line through
``_EXIT_CODES``. Logs go to stderr; data goes to files or stdout. ``main`` reads
each command's declared input files and passes them to the command, which
returns the paths it wrote; ``main`` then writes a JSON run manifest beside the
last of them. Every writer makes the directory of its output.
"""

import argparse
import json
import logging
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from queryboost import __version__
from queryboost.calibration import CalibrationConfig
from queryboost.corpus import (FIELD_POLICIES, DataFormatError, IndexFormatError,
                               IndexMismatchError, build_index, check_corpus, is_run_field,
                               json_object, load_corpus_jsonl, load_index, save_index)
from queryboost.embedding import HashingEmbedder, RemoteEmbedder
from queryboost.evaluation import (Ranking, evaluate_run, read_qrels, read_queries_tsv,
                                   read_run, write_run)
from queryboost.files import atomic_write
from queryboost.generation import (PROMPT_VERSION, CacheMissError, ChatCompletionClient,
                                   GenerationConfig, ReferenceCache, StaleReferencesError,
                                   cached_references, generate_for_queries)
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


class _MissingInputError(Exception):
    """A declared input file or the ``--config`` file does not exist."""


class _ConfigFormatError(ValueError):
    """A ``--config`` file that is not UTF-8 or does not hold one JSON object."""


# each error's exit code, from the first match: any ValueError not named first is a usage error
_EXIT_CODES = ((_MissingInputError, EXIT_MISSING_FILE), (CacheMissError, EXIT_CACHE_MISS),
               ((DataFormatError, IndexFormatError, _ConfigFormatError), EXIT_FORMAT),
               ((IndexMismatchError, StaleReferencesError), EXIT_MISMATCH),
               (ServiceError, EXIT_ERROR), (ValueError, EXIT_USAGE), (Exception, EXIT_ERROR))

log = logging.getLogger("queryboost")
# Flag defaults are the library's, so a bare command line means PipelineConfig().
_DEFAULTS = PipelineConfig()


def write_manifest(output_path, args: argparse.Namespace, outputs: list) -> None:
    manifest = {
        "tool": "queryboost",
        "version": __version__,
        "prompt_version": PROMPT_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "config": {k: v for k, v in vars(args).items()
                   if k != "func" and not k.startswith("_")},
        "inputs": [str(getattr(args, name)) for name in args._inputs],
        "outputs": [str(p) for p in outputs],
    }
    with atomic_write(str(output_path) + ".manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, default=str))


def _provider_from_args(args):
    if args.provider == "hashing":
        return HashingEmbedder(dimension=args.dimension, seed=args.embed_seed)
    if not args.embed_endpoint:
        raise ValueError("--embed-endpoint is required with --provider remote")
    return RemoteEmbedder(endpoint=args.embed_endpoint, dimension=args.dimension)


def _sparse_config(args) -> PipelineConfig:
    """The config of the sparse stage's flags (``_add_sparse_flags``), the rest default."""
    return PipelineConfig(
        bm25=BM25Params(k1=args.k1, b=args.b),
        reweight=(ReweightConfig.adaptive(beta=args.beta) if args.t is None
                  else ReweightConfig.constant(t=args.t)),
        retrieve_k=args.retrieve_k)


def _pipeline_config(args) -> PipelineConfig:
    return replace(_sparse_config(args), strategy=args.strategy,
                   calibration=CalibrationConfig(alpha=args.alpha,
                                                 k_reciprocal=args.k_reciprocal,
                                                 num_negatives=args.negatives))


def cmd_index(args, corpus) -> list:
    index = build_index(corpus.values(), field_policy=args.field_policy)
    save_index(index, args.out)
    log.info("indexed %d docs (avgdl %.2f) -> %s",
             index.num_docs, index.avgdl, args.out)
    return [args.out]


def cmd_generate(args, queries) -> list:
    cache = ReferenceCache(args.cache)
    client = ChatCompletionClient(endpoint=args.endpoint,
                                  api_key_env=args.api_key_env)
    cfg = GenerationConfig(model_id=args.model, n=args.n,
                           temperature=args.temperature,
                           max_tokens=args.max_tokens)
    results = generate_for_queries(client, cache, queries, cfg, jobs=args.jobs)
    log.info("generated/cached references for %d queries", len(results))
    return [args.cache]


def cmd_search(args, index, queries, cache) -> list:
    cfg = _sparse_config(args)
    all_refs = cached_references(cache, queries, args.model)
    run = [Ranking(query_id=query_id, items=tuple(sparse_ranking(query, refs, index, cfg)))
           for (query_id, query), refs in zip(queries, all_refs)]
    write_run(args.out, run, tag=args.tag)
    log.info("wrote sparse run for %d queries -> %s", len(run), args.out)
    return [args.out]


def cmd_pipeline(args, index, corpus, queries, cache) -> list:
    provider = _provider_from_args(args)
    cfg = _pipeline_config(args)

    rankings = run_pipeline(queries, index, corpus, provider, cache,
                            args.model, cfg, n_refs=args.n_refs)

    stage_paths = []
    for stage in ("bm25", "pre", "post"):
        stage_paths.append(Path(f"{args.out_prefix}.{stage}.run"))
        write_run(stage_paths[-1], [getattr(r, stage) for r in rankings],
                  tag=f"{args.tag}-{stage}")
    log.info("wrote pipeline runs for %d queries -> %s.{bm25,pre,post}.run",
             len(rankings), args.out_prefix)
    return stage_paths


def cmd_eval(args, run, qrels) -> None:
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


def cmd_analyze(args, index, corpus, queries, cache, qrels) -> None:
    all_refs = cached_references(cache, queries, args.model)
    reports = []
    for (query_id, query), refs in zip(queries, all_refs):
        grades = qrels.get(query_id, {})
        gt_docs = [corpus[d] for d, g in grades.items()
                   if g >= args.min_grade and d in corpus]
        if not gt_docs:
            continue
        reports.append(keyword_overlap(query, refs, gt_docs, index, m=args.m))
        print(json.dumps(reports[-1].to_dict(), ensure_ascii=False))
    if reports:
        print(f"# mean gt∩pse {sum(r.gt_pse_overlap for r in reports) / len(reports):.2f}  "
              f"mean gt∩query {sum(r.gt_query_overlap for r in reports) / len(reports):.2f}  "
              f"({len(reports)} queries)")


def _json_or_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def cmd_sweep(args, index, corpus, queries, cache, qrels) -> list:
    provider = _provider_from_args(args)
    cfg = _pipeline_config(args)

    # a value that is not JSON stays a string, which sweep rejects on a numeric axis
    values = args.values if args.axis == "strategy" else list(map(_json_or_text, args.values))
    results = sweep(args.axis, values, cfg, index, corpus, provider,
                    cache, args.model, queries, qrels, args.eval_k)
    print(format_sweep_table(args.axis, results))
    if args.out:
        with atomic_write(args.out) as fh:
            for value, report in results:
                fh.write(json.dumps({"axis": args.axis, "value": value,
                                     **report.to_dict()}, ensure_ascii=False) + "\n")
    return [args.out] if args.out else []


def _config_value_ok(action: argparse.Action, value) -> bool:
    """Whether a config file's ``value`` is one that ``action``'s flag takes on the
    command line, as a JSON value of its own type or as a string the flag parses."""
    if action.nargs == 0:  # an on/off flag
        return type(value) is bool
    if value is None:
        return action.default is None
    if isinstance(value, str):
        try:
            value = (action.type or str)(value)
        except ValueError:
            return False
    elif type(value) not in {int: (int,), float: (int, float)}.get(action.type, ()):
        return False  # a bool, a list, an object, or a number of another kind
    return action.choices is None or value in action.choices


# each input flag's reader; a command gets what it reads as the keyword argument <name>
_READERS = {"index": load_index,
            "corpus": lambda path: {d.doc_id: d for d in load_corpus_jsonl(path)},
            "queries": read_queries_tsv, "cache": ReferenceCache,
            "qrels": read_qrels, "run": read_run}


def _inputs(p: argparse.ArgumentParser, *names: str) -> None:
    """Declare a command's input files: one required ``--<name>`` flag each, which
    ``main`` checks exist (exit 3) and reads with ``_READERS`` (exit 5), and which
    ``write_manifest`` records, in this order."""
    for name in names:
        p.add_argument(f"--{name}", required=True)
    p.set_defaults(_inputs=names)


class _BetaAction(argparse.Action):
    """Store ``--beta`` and unset ``t``: a ``t`` from ``--config`` yields to the flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.t = None


def _add_sparse_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="synthetic-refs")
    p.add_argument("--retrieve-k", type=int, default=_DEFAULTS.retrieve_k)
    p.add_argument("--k1", type=float, default=_DEFAULTS.bm25.k1)
    p.add_argument("--b", type=float, default=_DEFAULTS.bm25.b)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, default=_DEFAULTS.reweight.beta,
                       action=_BetaAction, help="adaptive reweighting factor "
                                                "(overrides a --config t)")
    group.add_argument("--t", type=int, default=None,
                       help="constant query repetition count (overrides --beta)")


def _add_provider_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--provider", choices=("hashing", "remote"), default="hashing")
    p.add_argument("--embed-endpoint", default=None)
    p.add_argument("--dimension", type=int, default=256)
    p.add_argument("--embed-seed", type=int, default=0)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    _add_sparse_flags(p)
    _add_provider_flags(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=_DEFAULTS.strategy)
    p.add_argument("--alpha", type=float, default=_DEFAULTS.calibration.alpha)
    p.add_argument("--k-reciprocal", type=int, default=_DEFAULTS.calibration.k_reciprocal)
    p.add_argument("--negatives", type=int, default=_DEFAULTS.calibration.num_negatives)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queryboost",
        description="Query expansion retrieval: sparse search, dense rerank, "
                    "calibration, evaluation.")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults (flags override it)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an inverted index from a JSONL corpus")
    _inputs(p, "corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--field-policy", choices=FIELD_POLICIES, default="title_plus_text")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("generate", help="generate and cache pseudo-references")
    _inputs(p, "queries")
    p.add_argument("--cache", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-tokens", type=int, default=512)
    p.add_argument("--api-key-env", default="OPENAI_API_KEY")
    p.add_argument("--jobs", type=int, default=4)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", help="expanded sparse retrieval to a run file")
    _inputs(p, "index", "queries", "cache")
    p.add_argument("--out", required=True)
    p.add_argument("--tag", default="queryboost")
    _add_sparse_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("pipeline", help="full retrieve + rerank + calibrate pipeline")
    _inputs(p, "index", "corpus", "queries", "cache")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--tag", default="queryboost")
    _add_pipeline_flags(p)
    p.add_argument("--n-refs", type=int, default=None,
                   help="use only the first N cached references (0 = no expansion)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", help="nDCG@k of a run file against qrels")
    _inputs(p, "run", "qrels")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--exponential-gain", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="high-idf keyword overlap report")
    _inputs(p, "index", "corpus", "queries", "cache", "qrels")
    p.add_argument("--model", default="synthetic-refs")
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--min-grade", type=int, default=3)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="ablation sweep along one axis")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", nargs="+", required=True)
    _inputs(p, "index", "corpus", "queries", "cache", "qrels")
    p.add_argument("--out", default=None)
    p.add_argument("--eval-k", type=int, default=10)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _set_config_defaults(parser: argparse.ArgumentParser, path) -> None:
    """Make a ``--config`` file's values the parsers' defaults. The file is read as a data
    file is (strict UTF-8, a leading byte order mark dropped, one JSON object); each key must
    be some subcommand's flag, other than ``--help`` and ``--config``, and each value one that
    flag takes (``_config_value_ok``)."""
    if not Path(path).exists():
        raise _MissingInputError(f"config file not found: {path}")
    try:
        defaults = json_object(Path(path).read_text(encoding="utf-8-sig"), {})
    except ValueError as exc:  # UnicodeDecodeError is one
        raise _ConfigFormatError(f"malformed config file: {path}: {exc}") from exc
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *subcommands.choices.values()]
    # a flag any subcommand defines may be set, since one config serves every command
    settable = [(p, a) for p in parsers for a in p._actions if a.option_strings
                and not isinstance(a, argparse._HelpAction) and a.dest != "config"]
    if unknown := sorted(set(defaults) - {a.dest for _, a in settable}):
        raise ValueError(f"config file {path}: unknown key(s) {', '.join(map(repr, unknown))} "
                         "(keys are flag names with '_' for '-', as in 'k_reciprocal')")
    for _, a in settable:
        if a.dest in defaults and not _config_value_ok(a, defaults[a.dest]):
            raise ValueError(f"config file {path}: key {a.dest!r} cannot be "
                             f"{json.dumps(defaults[a.dest])}")
    for p, a in settable:  # each parser takes its own keys, so a command sees only its flags
        if a.dest in defaults:
            p.set_defaults(**{a.dest: defaults[a.dest]})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, remaining = parser.parse_known_args(argv)
    try:
        if args.config:
            _set_config_defaults(parser, args.config)
            args = parser.parse_args(argv)
        elif remaining:
            parser.parse_args(argv)  # reports unknown flags and exits 2
        logging.basicConfig(stream=sys.stderr,
                            level=logging.DEBUG if args.verbose else logging.INFO,
                            format="%(levelname)s %(message)s")
        paths = {name: getattr(args, name) for name in args._inputs}
        if missing := [path for path in paths.values() if not Path(path).exists()]:
            raise _MissingInputError(f"missing input file: {missing[0]}")
        if hasattr(args, "tag") and not is_run_field(args.tag):
            raise ValueError(f"--tag {args.tag!r} is empty or holds whitespace")
        inputs = {name: _READERS[name](path) for name, path in paths.items()}
        if "index" in inputs and "corpus" in inputs:
            check_corpus(inputs["index"], inputs["corpus"])
        outputs = args.func(args, **inputs)
        if outputs:
            write_manifest(outputs[-1], args, outputs)
        return EXIT_OK
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
