"""Deterministic tokenizer shared by indexing, query reweighting, and analysis.

Lowercase, split on any non-alphanumeric codepoint, drop empties. No stemming
and no stopword removal: the query-repetition math is defined over raw token
counts, so the token stream must be reproducible everywhere.

The definition is ``[^\\W_]+`` over ``text.lower()``. On ASCII text that regex
matches exactly the runs of ``[a-z0-9]``, so ASCII text takes a faster path
with the same tokens: one ``str.translate`` that lowercases letters and blanks
every other character, then ``str.split``.
"""

import re
import string

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# ASCII table: A-Z -> a-z, a-z and 0-9 kept, every other ASCII character -> space.
_ASCII_FOLD = str.maketrans(
    {chr(c): " " for c in range(128) if chr(c) not in string.ascii_letters + string.digits}
    | {c: c.lower() for c in string.ascii_uppercase})


def tokenize(text: str) -> list[str]:
    """Split text into lowercase alphanumeric tokens."""
    if text.isascii():
        return text.translate(_ASCII_FOLD).split()
    return _TOKEN_RE.findall(text.lower())


def has_tokens(text: str) -> bool:
    """Whether ``tokenize(text)`` is non-empty, found without building the tokens."""
    return _TOKEN_RE.search(text.lower()) is not None
