"""Text normalization and counting-unit extraction.

The pipeline is deliberately rigid so two runs (or two implementations)
produce identical units: lowercase, split on anything outside [a-z0-9],
drop stopwords, stem. A sentence is the unit of input; nothing here
splits text into sentences.

``stem`` is memoized: it is a pure token -> stem map, so its cache is
shared by the whole process. The cache is bounded (``STEM_CACHE_SIZE``
entries, least recently used evicted), so a long run over an open
vocabulary cannot grow it without limit. Sentence-level work (stopword
removal, units) is not cached here; ``rouge.UnitTable`` caches it per
command, because sentences are far more numerous than words and a
process-wide sentence cache would grow with every input ever scored. The
table does this pipeline's stopword test and ``stem`` call once per
distinct token; ``preprocess`` states what it computes.
"""
from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SentenceUnits:
    """Counting units of one sentence: token multiset and all in-order pairs."""

    unigrams: Counter
    skip_bigrams: Counter


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every character outside [a-z0-9]."""
    return _TOKEN_RE.findall(text.lower())


def remove_stopwords(tokens: list[str], stopwords: frozenset[str] | None = None) -> list[str]:
    if stopwords is None:
        stopwords = DEFAULT_STOPWORDS
    return [t for t in tokens if t not in stopwords]


@functools.lru_cache(maxsize=STEM_CACHE_SIZE)
def stem(token: str) -> str:
    """Porter-stem alphabetic tokens; digit-bearing tokens pass through."""
    if _DIGIT_RE.search(token):
        return token
    return porter.stem(token)


def preprocess(sentence: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """tokenize -> remove_stopwords -> stem, order preserved."""
    return [stem(t) for t in remove_stopwords(tokenize(sentence), stopwords)]


def extract_units(sentence: str, stopwords: frozenset[str] | None = None) -> SentenceUnits:
    """All unigrams and all in-order token pairs (unlimited gap) of a sentence.

    With k surviving tokens there are exactly k unigrams and k(k-1)/2
    skip-bigrams; pair order follows sentence order.
    """
    stems = preprocess(sentence, stopwords)
    unigrams = Counter(stems)
    skip_bigrams = Counter(
        (stems[i], stems[j])
        for i in range(len(stems))
        for j in range(i + 1, len(stems))
    )
    return SentenceUnits(unigrams=unigrams, skip_bigrams=skip_bigrams)
