from hypothesis import given, strategies as st

from queryboost.tokenizer import _TOKEN_RE, has_tokens, tokenize

# ASCII with the characters the fast path must get right: "_" (a regex word
# character that is not a token character), digits, and the control characters
# str.split treats as whitespace (\x0b, \x0c, \x1c-\x1f).
ASCII_EDGES = st.text(alphabet=st.one_of(
    st.characters(max_codepoint=127),
    st.sampled_from("_0123456789aZ \x0b\x0c\x1c\x1d\x1e\x1f")))


def test_basic_split():
    assert tokenize("Cat sat.") == ["cat", "sat"]


def test_empty():
    assert tokenize("") == []


def test_hyphen_split():
    assert tokenize("BM25-score") == ["bm25", "score"]


def test_underscore_is_separator():
    assert tokenize("a_b") == ["a", "b"]


@given(st.text())
def test_tokens_are_lowercase_alnum(text):
    for tok in tokenize(text):
        assert tok
        assert tok == tok.lower()


@given(st.text())
def test_deterministic(text):
    assert tokenize(text) == tokenize(text)


@given(st.text())
def test_equals_regex_definition(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


@given(ASCII_EDGES)
def test_ascii_path_equals_regex_definition(text):
    assert text.isascii()
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


@given(st.one_of(st.text(), ASCII_EDGES))
def test_has_tokens_is_tokenize_non_empty(text):
    assert has_tokens(text) == bool(tokenize(text))


def test_non_ascii_letters_are_token_characters():
    assert tokenize("Café_Übung x\u00a0y") == ["café", "übung", "x", "y"]
