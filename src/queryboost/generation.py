"""Pseudo-reference generation via an OpenAI-compatible chat service, with a JSONL cache.

Every generated reference set is persisted before it is returned, so all
downstream stages can run offline and deterministically from the cache.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from threading import Lock

import requests

from queryboost.corpus import json_object, read_data_lines
from queryboost.service import ATTEMPTS, ServiceError, post_json
from queryboost.tokenizer import has_tokens

PROMPT_VERSION = "v1"
PROMPT_TEMPLATE = ("Write a passage that provides relevant background knowledge "
                   "to answer the following query: {query}")
CHAT_TIMEOUT_S = 60.0


class CacheMissError(KeyError):
    """No cached references for a query that needs them."""

    __str__ = Exception.__str__  # the message as written, not its repr as KeyError gives


class StaleReferencesError(ValueError):
    """Cached references generated for another query text or prompt version."""


@dataclass(frozen=True)
class GenerationConfig:
    model_id: str
    n: int = 5
    temperature: float = 1.0
    max_tokens: int = 512

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be in [0, inf), got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class ReferenceSet:
    """The pseudo-references generated for one query, plus generation metadata.

    A reference with no tokens (``"  "``, ``"..."``) is a ValueError naming its position.
    """

    query_id: str
    query: str
    references: tuple[str, ...]
    model_id: str
    created_at: str = ""
    prompt_version: str = PROMPT_VERSION

    def __post_init__(self):
        if not self.references:
            raise ValueError("references must be non-empty")
        for i, reference in enumerate(self.references, start=1):
            if not has_tokens(reference):
                raise ValueError(f"reference {i} has no tokens: {reference!r}")

    def is_for(self, query: str) -> bool:
        """Whether these references were generated for this query text by this prompt."""
        return self.query == query and self.prompt_version == PROMPT_VERSION


def cached_references(cache, query_id: str, query: str, model_id: str,
                      n_refs: int | None = None) -> ReferenceSet | None:
    """The cached reference set of a query, cut to its first n_refs references.

    Only ``cache.get`` is called, so any object with that method serves. A miss
    is a CacheMissError naming the query and model; a set generated for another
    query text or prompt version is a StaleReferencesError naming the query; a
    set holding fewer than n_refs references, or a negative n_refs, is a
    ValueError. With n_refs None the set comes back uncut; with 0 the answer is
    None, the no-expansion baseline, and the cache is not read.
    """
    if n_refs is not None and n_refs < 0:
        raise ValueError(f"n_refs must be >= 0, got {n_refs}")
    if n_refs == 0:
        return None
    refs = cache.get(query_id, model_id)
    if refs is None:
        raise CacheMissError(
            f"no cached references for query {query_id!r} (model {model_id!r})")
    if not refs.is_for(query):
        raise StaleReferencesError(
            f"cached references for query {query_id!r} were generated for "
            f"{refs.query!r} with prompt version {refs.prompt_version!r}, not for "
            f"{query!r} with {PROMPT_VERSION!r}; regenerate them with `queryboost generate`")
    if n_refs is not None and len(refs.references) < n_refs:
        raise ValueError(f"query {query_id!r}: need {n_refs} cached references, "
                         f"have {len(refs.references)}")
    return refs if n_refs is None else replace(refs, references=refs.references[:n_refs])


def render_prompt(query: str) -> str:
    """Instantiate the fixed, versioned generation prompt with the query verbatim."""
    if not query:
        raise ValueError("query must be non-empty")
    return PROMPT_TEMPLATE.format(query=query)


class ReferenceCache:
    """Append-only JSONL cache of reference sets, keyed on (query_id, model_id).

    Reads are concurrent-safe; writes are serialized by a single lock. The
    latest entry for a key wins. It is read by ``corpus.read_data_lines``: a
    final line without a trailing newline that does not parse, as a crash
    during ``put`` leaves it, is dropped with a warning; any other corrupt
    line is a ``corpus.DataFormatError``. The first
    ``put`` makes the file, and its directory if that does not exist.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = Lock()
        self._entries: dict[tuple[str, str], ReferenceSet] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        for rs in read_data_lines(self.path, _parse_line, torn_tail=True,
                                  prefix="corrupt cache line: "):
            self._entries[(rs.query_id, rs.model_id)] = rs

    def put(self, rs: ReferenceSet) -> None:
        record = {"query_id": rs.query_id, "query": rs.query, "model": rs.model_id,
                  "prompt_version": rs.prompt_version,
                  "references": list(rs.references), "created_at": rs.created_at}
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as fh:
                _end_last_line(fh)
                fh.write(line)
            self._entries[(rs.query_id, rs.model_id)] = rs

    def get(self, query_id: str, model_id: str) -> ReferenceSet | None:
        return self._entries.get((query_id, model_id))

    def __len__(self) -> int:
        return len(self._entries)


_CACHE_FIELDS = {"query_id": ((str,), "a string"), "query": ((str,), "a string"),
                 "model": ((str,), "a string"), "references": ((list,), "a list of strings")}


def _parse_line(line: str) -> ReferenceSet:
    """The reference set stored on one cache line; a ValueError for any other line."""
    obj = json_object(line, _CACHE_FIELDS)
    if not all(type(r) is str for r in obj["references"]):
        raise ValueError("references must be a list of strings")
    return ReferenceSet(
        query_id=obj["query_id"], query=obj["query"], references=tuple(obj["references"]),
        model_id=obj["model"], created_at=obj.get("created_at", ""),
        prompt_version=obj.get("prompt_version", PROMPT_VERSION))


def _end_last_line(fh) -> None:
    """Make a cache file opened for appending end with a complete line.

    A last line without a newline is ended if it parses (``_load`` kept it) and
    cut off if it does not (``_load`` dropped it), so the next record starts a
    line of its own.
    """
    size = fh.seek(0, os.SEEK_END)
    if size == 0:
        return
    fh.seek(size - 1)
    if fh.read(1) == b"\n":
        return
    fh.seek(0)
    data = fh.read()
    start = data.rfind(b"\n") + 1
    try:
        _parse_line(data[start:].decode("utf-8"))
    except ValueError:
        fh.truncate(start)
    else:
        fh.write(b"\n")


class ChatCompletionClient:
    """Minimal OpenAI-compatible chat-completions client, retrying as ``service.post_json`` does."""

    def __init__(self, endpoint: str, api_key_env: str = "OPENAI_API_KEY",
                 session: requests.Session | None = None):
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self._session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def complete(self, prompt: str, cfg: GenerationConfig, n: int) -> list[str]:
        """Request n completions for one prompt.

        The request is retried as ``service.post_json`` does. A body that is not
        JSON, has no ``choices`` list of messages, holds a content that is not
        a string or does not encode as UTF-8, or other than n of them raises
        ServiceError at once.
        """
        payload = {
            "model": cfg.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
            "n": n,
        }
        resp = post_json(self._session, "chat service", self.endpoint, payload,
                         CHAT_TIMEOUT_S, self._headers())
        try:
            contents = [choice["message"]["content"] for choice in resp.json()["choices"]]
        except ValueError as exc:
            raise self._error(f"response body is not JSON: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise self._error("response body has no 'choices' list of messages") from exc
        if not all(isinstance(c, str) for c in contents):
            raise self._error("a message's content is not a string")
        try:  # a lone surrogate, which JSON may escape as \ud800, does not encode
            for content in contents:
                content.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise self._error(f"a message's content does not encode as UTF-8: {exc}") from exc
        if len(contents) != n:
            raise self._error(f"returned {len(contents)} completions for n={n}")
        return contents

    def _error(self, problem: str) -> ServiceError:
        return ServiceError("chat service", self.endpoint, problem)


def generate_references(client: ChatCompletionClient, cache: ReferenceCache,
                        query_id: str, query: str,
                        cfg: GenerationConfig) -> ReferenceSet:
    """Generate n pseudo-references for one query and persist them before returning.

    Completions with no tokens (empty, blank or punctuation only) are requested
    again one at a time, up to ATTEMPTS - 1 times; a reference still without a
    token after that is a ServiceError naming the query.
    """
    prompt = render_prompt(query)
    completions = [c.strip() for c in client.complete(prompt, cfg, cfg.n)]

    for _ in range(ATTEMPTS - 1):
        for i, text in enumerate(completions):
            if not has_tokens(text):
                completions[i] = client.complete(prompt, cfg, 1)[0].strip()
    if not all(map(has_tokens, completions)):
        raise ServiceError(
            "chat service", client.endpoint,
            f"query {query_id!r}: got {sum(map(has_tokens, completions))}/{cfg.n} "
            "references with tokens")

    rs = ReferenceSet(query_id=query_id, query=query,
                      references=tuple(completions), model_id=cfg.model_id,
                      created_at=datetime.now(timezone.utc).isoformat())
    cache.put(rs)
    return rs


def generate_for_queries(client: ChatCompletionClient, cache: ReferenceCache,
                         queries: list[tuple[str, str]], cfg: GenerationConfig,
                         jobs: int = 4) -> list[ReferenceSet]:
    """Generate references for many queries, at most ``jobs`` (>= 1) requests in flight."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results: dict[str, ReferenceSet] = {}
    pending = []
    for query_id, query in queries:
        cached = cache.get(query_id, cfg.model_id)
        if cached is not None and cached.is_for(query) and len(cached.references) >= cfg.n:
            results[query_id] = cached
        else:
            pending.append((query_id, query))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(generate_references, client, cache, qid, q, cfg): qid
                   for qid, q in pending}
        for future, qid in futures.items():
            results[qid] = future.result()

    return [results[qid] for qid, _ in queries]
