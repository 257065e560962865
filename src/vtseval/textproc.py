"""Text normalization: tokenize, stopwords and the memoized stemmer.

The pipeline is deliberately rigid so two runs (or two implementations)
produce identical stems: lowercase, split on anything outside [a-z0-9],
drop stopwords, stem. A sentence is the unit of input; nothing here
splits text into sentences, and nothing here builds counting units:
``rouge.UnitTable`` is the one place where text turns into units, and
its stopword set is the one stopword choice of a score.

``stem`` is memoized: it is a pure token -> stem map, so its cache is
shared by the whole process. The cache is bounded (``STEM_CACHE_SIZE``
entries, least recently used evicted), so a long run over an open
vocabulary cannot grow it without limit. ``preprocess`` is the reference
statement of the pipeline: the table's stem ids are those of its stems,
and the tests and the fixture generator compare against it.
"""
from __future__ import annotations

import functools
import re
from pathlib import Path

from . import porter

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_DIGIT_RE = re.compile(r"[0-9]")

_DEFAULT_STOPWORDS_PATH = Path(__file__).parent / "data" / "stopwords.txt"

STEM_CACHE_SIZE = 1 << 16


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one token per line, '#' lines are comments."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            words.add(line.lower())
    return frozenset(words)


DEFAULT_STOPWORDS = load_stopwords(_DEFAULT_STOPWORDS_PATH)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every character outside [a-z0-9]."""
    return _TOKEN_RE.findall(text.lower())


@functools.lru_cache(maxsize=STEM_CACHE_SIZE)
def stem(token: str) -> str:
    """Porter-stem alphabetic tokens; digit-bearing tokens pass through."""
    if _DIGIT_RE.search(token):
        return token
    return porter.stem(token)


def preprocess(sentence: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """tokenize -> drop stopwords -> stem, order preserved."""
    if stopwords is None:
        stopwords = DEFAULT_STOPWORDS
    return [stem(t) for t in tokenize(sentence) if t not in stopwords]
