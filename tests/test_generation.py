import json
import logging
import re

import pytest
from hypothesis import given, settings, strategies as st

from queryboost import service
from queryboost.corpus import DataFormatError
from queryboost.generation import (CacheMissError, ChatCompletionClient,
                                   GenerationConfig, ReferenceCache, ReferenceSet,
                                   StaleReferencesError, cached_references,
                                   generate_for_queries, generate_references, render_prompt)
from queryboost.service import ServiceError
from queryboost.tokenizer import has_tokens

# reference texts a cache can hold: each has at least one token
references = st.text(min_size=1).filter(has_tokens)


class TestRenderPrompt:
    def test_contains_query_verbatim(self):
        assert "what is bm25" in render_prompt("what is bm25")

    def test_deterministic(self):
        assert render_prompt("q") == render_prompt("q")

    def test_quotes_and_newlines_preserved(self):
        q = 'say "hi"\nand more'
        assert q in render_prompt(q)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            render_prompt("")


class TestReferenceSet:
    def test_non_empty_required(self):
        with pytest.raises(ValueError):
            ReferenceSet("q1", "q", (), "m")
        with pytest.raises(ValueError):
            ReferenceSet("q1", "q", ("ok", ""), "m")

    @pytest.mark.parametrize("text", ["", "  ", "...", ":", "\x1b", "_"])
    def test_reference_without_tokens_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(f"reference 2 has no tokens: {text!r}")):
            ReferenceSet("q1", "q", ("ok", text), "m")

    def test_first(self):
        # a set is cut to its first n_refs references by cached_references
        rs = ReferenceSet("q1", "q", ("a", "b", "c"), "m")

        class OneSetCache:
            def get(self, query_id, model_id):
                return rs

        class UnreadCache:
            def get(self, query_id, model_id):
                raise AssertionError("the cache was read")

        assert cached_references(OneSetCache(), "q1", "q", "m") is rs
        assert cached_references(UnreadCache(), "q1", "q", "m", 0) is None
        assert cached_references(OneSetCache(), "q1", "q", "m", 2) == ReferenceSet(
            "q1", "q", ("a", "b"), "m")
        with pytest.raises(ValueError, match="need 4 cached references, have 3"):
            cached_references(OneSetCache(), "q1", "q", "m", 4)
        with pytest.raises(ValueError, match="n_refs must be >= 0, got -1"):
            cached_references(UnreadCache(), "q1", "q", "m", -1)


class TestReferenceCache:
    def test_round_trip(self, tmp_path):
        cache = ReferenceCache(tmp_path / "cache.jsonl")
        rs = ReferenceSet("q1", "the query", ("r1", "r2"), "model-a",
                          created_at="2026-01-01T00:00:00+00:00")
        cache.put(rs)
        assert cache.get("q1", "model-a") == rs
        # re-open from disk
        reloaded = ReferenceCache(tmp_path / "cache.jsonl")
        assert reloaded.get("q1", "model-a") == rs

    def test_missing_key_absent(self, tmp_path):
        cache = ReferenceCache(tmp_path / "cache.jsonl")
        assert cache.get("nope", "m") is None

    def test_first_put_makes_the_directory(self, tmp_path):
        cache = ReferenceCache(tmp_path / "new" / "dir" / "cache.jsonl")
        assert not cache.path.parent.exists()
        cache.put(ReferenceSet("q1", "q", ("a",), "m"))
        assert ReferenceCache(cache.path).get("q1", "m").references == ("a",)

    def test_models_coexist(self, tmp_path):
        cache = ReferenceCache(tmp_path / "cache.jsonl")
        cache.put(ReferenceSet("q1", "q", ("a",), "m1"))
        cache.put(ReferenceSet("q1", "q", ("b",), "m2"))
        assert cache.get("q1", "m1").references == ("a",)
        assert cache.get("q1", "m2").references == ("b",)

    def test_corrupt_line_reports_lineno(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = {"query_id": "q1", "query": "q", "model": "m",
                "prompt_version": "v1", "references": ["r"], "created_at": ""}
        path.write_text(json.dumps(good) + "\nnot json\n")
        with pytest.raises(DataFormatError, match=":2"):
            ReferenceCache(path)

    @settings(max_examples=10, deadline=None)
    @given(refs=st.lists(references, min_size=1, max_size=3),
           query=st.text(min_size=1))
    def test_torn_tail_at_every_cut(self, tmp_path_factory, refs, query):
        # a crash during put leaves any prefix of the last record, even half a
        # UTF-8 character; every complete entry must survive load, put and load
        base = tmp_path_factory.mktemp("torn")
        complete = [ReferenceSet("q1", "first", ("r1",), "m"),
                    ReferenceSet("q2", "second", ("r2", "r3"), "m")]
        last = ReferenceSet("q3", query, tuple(refs), "m")
        source = ReferenceCache(base / "source.jsonl")
        for rs in complete:
            source.put(rs)
        head = source.path.read_bytes()
        source.put(last)
        record = source.path.read_bytes()[len(head):]
        new = ReferenceSet("q4", "new", ("r4",), "m")
        path = base / "cache.jsonl"
        for cut in range(len(record)):
            path.write_bytes(head + record[:cut])
            whole = cut == len(record) - 1  # only the whole record without its newline parses
            want = [*complete, last] if whole else complete
            cache = ReferenceCache(path)
            assert [cache.get(q, "m") for q in ("q1", "q2", "q3")] == [*complete,
                                                                       last if whole else None]
            cache.put(new)
            reloaded = ReferenceCache(path)
            assert len(reloaded) == len(want) + 1
            assert all(reloaded.get(rs.query_id, "m") == rs for rs in [*want, new])
            assert path.read_bytes().endswith(b"\n")

    def test_torn_tail_warns_with_path_and_line(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        ReferenceCache(path).put(ReferenceSet("q1", "q", ("r",), "m"))
        with open(path, "ab") as fh:
            fh.write(b'{"query_id": "q2", "que')
        with caplog.at_level(logging.WARNING, logger="queryboost"):
            cache = ReferenceCache(path)
        assert len(cache) == 1
        assert f"{path}:2: dropping torn final line" in caplog.text

    def test_corrupt_middle_line_still_fails(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"query_id": "q1", "query": "q", "model": "m", "references": ["r"]})
        path.write_text(good + "\n" + good[:20] + "\n" + good)
        with pytest.raises(DataFormatError, match=":2"):
            ReferenceCache(path)

    @pytest.mark.parametrize("field, value, problem", [
        ("references", "rx", "references must be a list of strings"),
        ("references", [1, 2], "references must be a list of strings"),
        ("references", ["r", None], "references must be a list of strings"),
        ("query_id", 7, "query_id must be a string, not int"),
        ("query", ["q"], "query must be a string, not list"),
        ("model", None, "model must be a string, not NoneType"),
    ])
    def test_field_of_the_wrong_type_names_the_line(self, tmp_path, field, value, problem):
        path = tmp_path / "cache.jsonl"
        good = {"query_id": "q1", "query": "q", "model": "m", "references": ["r"]}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: corrupt cache line: "
                                                             f"{problem}")):
            ReferenceCache(path)

    @pytest.mark.parametrize("line, problem", [
        ('{"query_id": "q1", "query": "q", "model": "m"}', "missing required key 'references'"),
        ('["q1", "q", "m"]', "expected a JSON object"),
    ], ids=["key-missing", "not-an-object"])
    def test_line_without_the_keys_names_the_line(self, tmp_path, line, problem):
        path = tmp_path / "cache.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path}:1: corrupt cache line: {problem}")):
            ReferenceCache(path)

    def test_reference_without_tokens_names_the_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        line = {"query_id": "q1", "query": "q", "model": "m", "references": ["  ", "r"]}
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path}:1: corrupt cache line: reference 1 has no tokens: '  '")):
            ReferenceCache(path)

    @settings(max_examples=50, deadline=None)
    @given(refs=st.lists(references, min_size=1, max_size=5),
           query=st.text(min_size=1))
    def test_unicode_round_trip(self, tmp_path_factory, refs, query):
        path = tmp_path_factory.mktemp("cache") / "c.jsonl"
        cache = ReferenceCache(path)
        rs = ReferenceSet("qx", query, tuple(refs), "m")
        cache.put(rs)
        assert ReferenceCache(path).get("qx", "m") == rs


def _choices(body, text="P"):
    return {"choices": [{"message": {"content": text}} for _ in range(body.get("n", 1))]}


@pytest.fixture
def stub_server(http_stub, monkeypatch):
    """A chat-completions stub; every request gets ``_choices`` unless a test scripts it."""
    monkeypatch.setattr(service, "BACKOFF_S", 0.0)
    http_stub.script = [(200, _choices)]
    return http_stub


def _client(server):
    return ChatCompletionClient(f"http://127.0.0.1:{server.server_address[1]}/chat")


class TestGeneration:
    def test_single_reference(self, stub_server, tmp_path):
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cfg = GenerationConfig(model_id="m", n=1)
        rs = generate_references(_client(stub_server), cache, "q1", "query", cfg)
        assert rs.references == ("P",)
        assert cache.get("q1", "m") == rs

    def test_five_references_arrival_order(self, stub_server, tmp_path):
        counter = iter(range(100))
        stub_server.script = [(200, lambda body: {
            "choices": [{"message": {"content": f"P{next(counter)}"}}
                        for _ in range(body.get("n", 1))]})]
        cache = ReferenceCache(tmp_path / "c.jsonl")
        rs = generate_references(_client(stub_server), cache, "q1", "query",
                                 GenerationConfig(model_id="m", n=5))
        assert rs.references == ("P0", "P1", "P2", "P3", "P4")

    def test_http_500_exhausts_retries(self, stub_server, tmp_path):
        stub_server.script = [(500, {"error": "boom"})]
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cfg = GenerationConfig(model_id="m", n=1)
        with pytest.raises(ServiceError):
            generate_references(_client(stub_server), cache, "q1", "query", cfg)
        assert stub_server.call_count == service.ATTEMPTS

    @pytest.mark.parametrize("status, attempts", [(400, 1), (401, 1), (404, 1),
                                                  (429, service.ATTEMPTS),
                                                  (503, service.ATTEMPTS)])
    def test_http_status_attempts(self, stub_server, tmp_path, status, attempts):
        stub_server.script = [(status, {"error": "no"})]
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cfg = GenerationConfig(model_id="m", n=1)
        with pytest.raises(ServiceError, match=str(status)):
            generate_references(_client(stub_server), cache, "q1", "query", cfg)
        assert stub_server.call_count == attempts
        assert len(cache) == 0

    def test_http_429_then_success(self, stub_server, tmp_path):
        stub_server.script = [(429, {"error": "slow down"}), (200, _choices)]
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cfg = GenerationConfig(model_id="m", n=1)
        rs = generate_references(_client(stub_server), cache, "q1", "query", cfg)
        assert rs.references == ("P",)
        assert stub_server.call_count == 2

    def test_empty_completion_retried_then_fails(self, stub_server, tmp_path):
        stub_server.script = [(200, lambda body: {
            "choices": [{"message": {"content": "   "}}
                        for _ in range(body.get("n", 1))]})]
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cfg = GenerationConfig(model_id="m", n=1)
        with pytest.raises(ServiceError, match="q1"):
            generate_references(_client(stub_server), cache, "q1", "query", cfg)

    def test_empty_then_recovered(self, stub_server, tmp_path):
        stub_server.script = [
            (200, lambda body: {"choices": [{"message": {"content": ""}}]}),
            (200, lambda body: {"choices": [{"message": {"content": "fixed"}}]}),
        ]
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cfg = GenerationConfig(model_id="m", n=1)
        rs = generate_references(_client(stub_server), cache, "q1", "query", cfg)
        assert rs.references == ("fixed",)

    def test_completion_without_tokens_asked_again(self, stub_server, tmp_path):
        stub_server.script = [
            (200, lambda body: {"choices": [{"message": {"content": "..."}},
                                            {"message": {"content": "kept"}}]}),
            (200, lambda body: {"choices": [{"message": {"content": "fixed"}}]}),
        ]
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cfg = GenerationConfig(model_id="m", n=2)
        rs = generate_references(_client(stub_server), cache, "q1", "query", cfg)
        assert rs.references == ("fixed", "kept")
        assert stub_server.requests[1]["n"] == 1

    @pytest.mark.parametrize("key", ["sk-test", ""])
    def test_bearer_key_sent_exactly_when_its_variable_is_set(self, stub_server, monkeypatch,
                                                              key):
        monkeypatch.setenv("QB_TEST_KEY", key)
        client = ChatCompletionClient(stub_server.url, api_key_env="QB_TEST_KEY")
        client.complete("p", GenerationConfig(model_id="m", n=1), 1)
        monkeypatch.delenv("QB_TEST_KEY")
        client.complete("p", GenerationConfig(model_id="m", n=1), 1)
        sent = [h.get("Authorization") for h in stub_server.request_headers]
        assert sent == ([f"Bearer {key}"] if key else [None]) + [None]

    def test_prompt_sent_to_service(self, stub_server, tmp_path):
        cache = ReferenceCache(tmp_path / "c.jsonl")
        generate_references(_client(stub_server), cache, "q1", "what is bm25",
                            GenerationConfig(model_id="m", n=1))
        sent = stub_server.requests[0]["messages"][0]["content"]
        assert "what is bm25" in sent

    def test_batch_skips_cached(self, stub_server, tmp_path):
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cache.put(ReferenceSet("q1", "a", ("cached",), "m"))
        cfg = GenerationConfig(model_id="m", n=1)
        results = generate_for_queries(_client(stub_server), cache,
                                       [("q1", "a"), ("q2", "b")], cfg, jobs=2)
        assert results[0].references == ("cached",)
        assert results[1].references == ("P",)
        assert stub_server.call_count == 1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_1_sends_no_request(self, stub_server, tmp_path, jobs):
        cache = ReferenceCache(tmp_path / "c.jsonl")
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            generate_for_queries(_client(stub_server), cache, [("q1", "a")],
                                 GenerationConfig(model_id="m", n=1), jobs=jobs)
        assert stub_server.call_count == 0 and not cache.path.exists()

    @pytest.mark.parametrize("stale", [ReferenceSet("q1", "old text", ("cached",), "m"),
                                       ReferenceSet("q1", "a", ("cached",), "m",
                                                    prompt_version="v0")])
    def test_batch_regenerates_stale(self, stub_server, tmp_path, stale):
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cache.put(stale)
        results = generate_for_queries(_client(stub_server), cache, [("q1", "a")],
                                       GenerationConfig(model_id="m", n=1))
        assert results[0].references == ("P",)
        assert cached_references(cache, "q1", "a", "m").references == ("P",)


class TestCachedReferences:
    def _cache(self, tmp_path):
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cache.put(ReferenceSet("q1", "a", ("r1", "r2", "r3"), "m"))
        return cache

    def test_miss_names_query_and_model(self, tmp_path):
        with pytest.raises(CacheMissError) as info:
            cached_references(self._cache(tmp_path), "q2", "a", "m")
        assert str(info.value) == "no cached references for query 'q2' (model 'm')"
        with pytest.raises(CacheMissError, match="model 'other'"):
            cached_references(self._cache(tmp_path), "q1", "a", "other")

    def test_too_few_names_n(self, tmp_path):
        with pytest.raises(ValueError, match="'q1': need 4 cached references, have 3"):
            cached_references(self._cache(tmp_path), "q1", "a", "m", 4)

    def test_n_cuts_and_none_keeps_all(self, tmp_path):
        cache = self._cache(tmp_path)
        assert cached_references(cache, "q1", "a", "m", 2).references == ("r1", "r2")
        assert cached_references(cache, "q1", "a", "m") is cache.get("q1", "m")

    def test_any_object_with_get(self):
        refs = ReferenceSet("q1", "a", ("r1",), "m")

        class DictCache:
            def get(self, query_id, model_id):
                return {("q1", "m"): refs}.get((query_id, model_id))

        assert cached_references(DictCache(), "q1", "a", "m", 1) == refs
        with pytest.raises(CacheMissError):
            cached_references(DictCache(), "q9", "a", "m")

    def test_other_query_text_is_stale(self, tmp_path):
        with pytest.raises(StaleReferencesError) as info:
            cached_references(self._cache(tmp_path), "q1", "b", "m")
        assert str(info.value) == ("cached references for query 'q1' were generated for "
                                   "'a' with prompt version 'v1', not for 'b' with 'v1'; "
                                   "regenerate them with `queryboost generate`")

    def test_other_prompt_version_is_stale(self, tmp_path):
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cache.put(ReferenceSet("q1", "a", ("r1",), "m", prompt_version="v0"))
        with pytest.raises(StaleReferencesError,
                           match="'q1' .* 'a' with prompt version 'v0', not for 'a' with 'v1'"):
            cached_references(cache, "q1", "a", "m")


class TestGenerationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(model_id="m", n=0)
        with pytest.raises(ValueError):
            GenerationConfig(model_id="m", temperature=-1)
        with pytest.raises(ValueError, match="^max_tokens must be >= 1, got -5$"):
            GenerationConfig(model_id="m", max_tokens=-5)
