"""Pseudo-reference generation via an OpenAI-compatible chat service, with a JSONL cache.

Every generated reference set is persisted before it is returned, so all
downstream stages can run offline and deterministically from the cache.
"""

import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from threading import Lock

import requests

log = logging.getLogger(__name__)

PROMPT_VERSION = "v1"
PROMPT_TEMPLATE = ("Write a passage that provides relevant background knowledge "
                   "to answer the following query: {query}")


class GenerationError(RuntimeError):
    pass


class CacheFormatError(ValueError):
    pass


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
    timeout: float = 60.0
    max_retries: int = 3
    api_key_env: str = "OPENAI_API_KEY"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class ReferenceSet:
    """The pseudo-references generated for one query, plus generation metadata."""

    query_id: str
    query: str
    references: tuple[str, ...]
    model_id: str
    created_at: str = ""
    prompt_version: str = PROMPT_VERSION

    def __post_init__(self):
        if not self.references:
            raise ValueError("references must be non-empty")
        if any(not r for r in self.references):
            raise ValueError("empty reference text not allowed")

    def is_for(self, query: str) -> bool:
        """Whether these references were generated for this query text by this prompt."""
        return self.query == query and self.prompt_version == PROMPT_VERSION

    def first(self, j: int) -> "ReferenceSet":
        """Restrict to the first j references (for reference-count ablations)."""
        if not 1 <= j <= len(self.references):
            raise ValueError(f"need 1 <= j <= {len(self.references)}, got {j}")
        return ReferenceSet(self.query_id, self.query, self.references[:j],
                            self.model_id, self.created_at, self.prompt_version)


def cached_references(cache, query_id: str, query: str, model_id: str,
                      n: int | None = None) -> ReferenceSet:
    """The cached reference set of a query, cut to its first n references.

    Only ``cache.get`` is called, so any object with that method serves. A miss
    is a CacheMissError naming the query and model; a set generated for another
    query text or prompt version is a StaleReferencesError naming the query; a
    set holding fewer than n references is a ValueError. With n None the set
    comes back uncut.
    """
    refs = cache.get(query_id, model_id)
    if refs is None:
        raise CacheMissError(
            f"no cached references for query {query_id!r} (model {model_id!r})")
    if not refs.is_for(query):
        raise StaleReferencesError(
            f"cached references for query {query_id!r} were generated for "
            f"{refs.query!r} with prompt version {refs.prompt_version!r}, not for "
            f"{query!r} with {PROMPT_VERSION!r}; regenerate them with `queryboost generate`")
    if n is not None and len(refs.references) < n:
        raise ValueError(f"query {query_id!r}: need {n} cached references, "
                         f"have {len(refs.references)}")
    return refs if n is None else refs.first(n)


def render_prompt(query: str) -> str:
    """Instantiate the fixed, versioned generation prompt with the query verbatim."""
    if not query:
        raise ValueError("query must be non-empty")
    return PROMPT_TEMPLATE.format(query=query)


class ReferenceCache:
    """Append-only JSONL cache of reference sets, keyed on (query_id, model_id).

    Reads are concurrent-safe; writes are serialized by a single lock. The
    latest entry for a key wins. A final line without a trailing newline that
    does not parse, as a crash during ``put`` leaves it, is dropped with a
    warning; any other corrupt line is a ``CacheFormatError``.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = Lock()
        self._entries: dict[tuple[str, str], ReferenceSet] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        # Lines run to several KB; a 64 KiB buffer spares readline most refills.
        with open(self.path, "rb", buffering=1 << 16) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    rs = _parse_line(line)
                except (KeyError, TypeError, ValueError) as exc:
                    if line.endswith(b"\n"):
                        raise CacheFormatError(
                            f"{self.path}:{lineno}: corrupt cache line: {exc}") from exc
                    log.warning("%s:%d: dropping torn final line (no trailing newline): %s",
                                self.path, lineno, exc)
                    break
                if rs is not None:
                    self._entries[(rs.query_id, rs.model_id)] = rs

    def put(self, rs: ReferenceSet) -> None:
        record = {"query_id": rs.query_id, "query": rs.query, "model": rs.model_id,
                  "prompt_version": rs.prompt_version,
                  "references": list(rs.references), "created_at": rs.created_at}
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            with open(self.path, "a+b") as fh:
                _end_last_line(fh)
                fh.write(line)
            self._entries[(rs.query_id, rs.model_id)] = rs

    def get(self, query_id: str, model_id: str) -> ReferenceSet | None:
        return self._entries.get((query_id, model_id))

    def __len__(self) -> int:
        return len(self._entries)


def _parse_line(line: bytes) -> ReferenceSet | None:
    """The reference set stored on one cache line, or None for a blank line."""
    text = line.decode("utf-8")
    if not text.strip():
        return None
    obj = json.loads(text)
    return ReferenceSet(
        query_id=obj["query_id"], query=obj["query"],
        references=tuple(obj["references"]), model_id=obj["model"],
        created_at=obj.get("created_at", ""),
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
        _parse_line(data[start:])
    except (KeyError, TypeError, ValueError):
        fh.truncate(start)
    else:
        fh.write(b"\n")


class ChatCompletionClient:
    """Minimal OpenAI-compatible chat-completions client with retry/backoff."""

    def __init__(self, endpoint: str, api_key_env: str = "OPENAI_API_KEY",
                 session: requests.Session | None = None, backoff_base: float = 0.5):
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.backoff_base = backoff_base
        self._session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def complete(self, prompt: str, cfg: GenerationConfig, n: int) -> list[str]:
        """Request n completions for one prompt.

        Transport errors, 5xx and 429 responses and malformed bodies are retried
        with backoff; any other 4xx raises GenerationError at once.
        """
        payload = {
            "model": cfg.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
            "n": n,
        }
        last_error: Exception | None = None
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                resp = self._session.post(self.endpoint, json=payload,
                                          headers=self._headers(),
                                          timeout=cfg.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if 400 <= resp.status_code < 500 and resp.status_code != 429:
                raise GenerationError(
                    f"chat completion rejected with HTTP {resp.status_code}: "
                    f"{resp.text[:200]}")
            try:
                resp.raise_for_status()
                data = resp.json()
                return [choice["message"]["content"]
                        for choice in data["choices"]]
            except (requests.HTTPError, KeyError, ValueError) as exc:
                last_error = exc
        raise GenerationError(
            f"chat completion failed after {cfg.max_retries + 1} attempts: {last_error}")


def generate_references(client: ChatCompletionClient, cache: ReferenceCache,
                        query_id: str, query: str,
                        cfg: GenerationConfig) -> ReferenceSet:
    """Generate n pseudo-references for one query and persist them before returning.

    Empty completions are retried with single-sample calls; a reference still
    empty after retries is an error naming the query.
    """
    prompt = render_prompt(query)
    completions = [c.strip() for c in client.complete(prompt, cfg, cfg.n)]

    for _ in range(cfg.max_retries):
        if all(completions):
            break
        for i, text in enumerate(completions):
            if not text:
                completions[i] = client.complete(prompt, cfg, 1)[0].strip()
    if not all(completions) or len(completions) != cfg.n:
        raise GenerationError(
            f"query {query_id!r}: got {sum(1 for c in completions if c)}/{cfg.n} "
            "non-empty references")

    rs = ReferenceSet(query_id=query_id, query=query,
                      references=tuple(completions), model_id=cfg.model_id,
                      created_at=datetime.now(timezone.utc).isoformat())
    cache.put(rs)
    return rs


def generate_for_queries(client: ChatCompletionClient, cache: ReferenceCache,
                         queries: list[tuple[str, str]], cfg: GenerationConfig,
                         jobs: int = 4) -> list[ReferenceSet]:
    """Generate references for many queries with bounded in-flight requests."""
    results: dict[str, ReferenceSet] = {}
    pending = []
    for query_id, query in queries:
        cached = cache.get(query_id, cfg.model_id)
        if cached is not None and cached.is_for(query) and len(cached.references) >= cfg.n:
            results[query_id] = cached
        else:
            pending.append((query_id, query))

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        futures = {pool.submit(generate_references, client, cache, qid, q, cfg): qid
                   for qid, q in pending}
        for future, qid in futures.items():
            results[qid] = future.result()

    return [results[qid] for qid, _ in queries]
