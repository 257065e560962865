"""Text normalization: tokenize, stopwords and the stemmer.

The pipeline is deliberately rigid so two runs (or two implementations)
produce identical stems: lowercase, split on anything outside [a-z0-9],
drop stopwords, stem. A sentence is the unit of input; nothing here
splits text into sentences, and nothing here builds counting units:
``rouge.UnitTable`` is the one place where text turns into units, and
its stopword set is the one stopword choice of a score. A stopword file
is read by ``corpus.read_text``, the reader of every input file, so it
is refused with the corpus errors (CorpusIOError, CorpusParseError).

``stem`` holds no memo: a unit table maps each token it meets to its
stem id once, and every call without ``table=`` uses its thread's table
(``rouge.shared_table``), so that table is the one word memo. ``preprocess``
is the reference statement of the pipeline: the table's stem ids are those
of its stems, and the tests and the fixture generator compare against it.
"""
from __future__ import annotations

import functools
import re
from pathlib import Path

from . import porter
from .corpus import read_text

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_DIGIT_RE = re.compile(r"[0-9]")

_DEFAULT_STOPWORDS_PATH = Path(__file__).parent / "data" / "stopwords.txt"


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one token per line, '#' lines are comments."""
    lines = (line.strip() for line in read_text(path).split("\n"))
    return frozenset(line.lower() for line in lines if line and not line.startswith("#"))


@functools.cache
def default_stopwords() -> frozenset[str]:
    """The bundled stopword list, read on the first call rather than on import."""
    return load_stopwords(_DEFAULT_STOPWORDS_PATH)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every character outside [a-z0-9]."""
    return _TOKEN_RE.findall(text.lower())


def stem(token: str) -> str:
    """Porter-stem alphabetic tokens; digit-bearing tokens pass through."""
    if _DIGIT_RE.search(token):
        return token
    return porter.stem(token)


def preprocess(sentence: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """tokenize -> drop stopwords -> stem, order preserved."""
    if stopwords is None:
        stopwords = default_stopwords()
    return [stem(t) for t in tokenize(sentence) if t not in stopwords]
