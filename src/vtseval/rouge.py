"""ROUGE-SU and ROUGE-N scoring by clipped multiset matching.

Units are extracted per sentence (pairs never cross sentence boundaries),
pooled over each text, and matched with per-unit clipping: each distinct
unit contributes min(candidate count, reference count). For ROUGE-SU,
unigrams and skip-bigrams share a single pool and count equally.

Every score goes through a ``UnitTable``. The table compiles a sentence
the first time it is scored under a unit kind: it tokenizes the sentence
and maps each token to its stem id through one dict per table, from raw
token to the small int its stem is interned to, or to -1 for a stopword.
So stopword removal, stemming and interning are one lookup per token, and
``textproc.stem`` runs only the first time the table meets a token; the
ids are those of ``textproc.preprocess``'s stems. The table keeps the
sentence's units of that kind as an int array, one entry per occurrence.
A unigram's id is its stem id; an ordered pair (skip-bigram or contiguous
bigram) of stem ids a, b has the id (a + 1) * 2**32 + b, which no stem id
reaches and which fits the signed 64-bit rows while a table holds fewer
than 2**31 stems, so pair ids need no second intern dict. A score then
pools the rows of each side into an int -> count bag, takes the per-unit
minimum over the shared ids and hands the integer sums to
``RougeScore.from_counts``, so every float is the same as with
string-keyed counting.

The table is the only place where text turns into units and the only
way to choose stopwords: every text entry point (here, in ``evaluator``,
``summarize`` and ``analysis``) takes ``table=`` and no stopword set, so
two stopword sets can never meet in one score. A table lives as long as
one command (or one library call, when the caller passes none).
Compilation is lazy: only sentences that are actually scored are
compiled. The table is never process-global, because the sentences a
process scores are unbounded; the bounded process-wide word cache is
``textproc.stem``'s. ``su_f_matrix`` is the one matrix of one-sentence
ROUGE-SU scores, for the ordered-assignment summarizer and for triples.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

from .textproc import DEFAULT_STOPWORDS, stem, tokenize

SU = "su"
"""Unit kind of ROUGE-SU: unigrams plus skip-bigrams. Kinds 1 and 2 are contiguous n-grams."""


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f_measure: float
    match_count: int
    candidate_units: int
    reference_units: int

    @classmethod
    def from_counts(cls, match_count: int, candidate_units: int, reference_units: int) -> "RougeScore":
        p = match_count / candidate_units if candidate_units else 0.0
        r = match_count / reference_units if reference_units else 0.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(
            precision=p,
            recall=r,
            f_measure=f,
            match_count=match_count,
            candidate_units=candidate_units,
            reference_units=reference_units,
        )


def count_matches(candidate_units: Counter, reference_units: Counter) -> int:
    """Sum over distinct units of min(candidate count, reference count)."""
    return sum(min(candidate_units[u], reference_units[u])
               for u in candidate_units.keys() & reference_units.keys())


def score_bags(candidate: Counter, reference: Counter) -> RougeScore:
    """Score two pooled unit bags (as returned by ``UnitTable.bag``)."""
    return RougeScore.from_counts(
        count_matches(candidate, reference), sum(candidate.values()), sum(reference.values())
    )


class UnitTable:
    """Interned counting units of the sentences one command scores, under one stopword set.

    A table is always true (it has no ``__len__``), so ``table or
    UnitTable()`` is the caller's table or a fresh default one.
    """

    def __init__(self, stopwords: frozenset[str] | None = None):
        self.stopwords = DEFAULT_STOPWORDS if stopwords is None else stopwords
        self._stem_ids: dict[str, int] = {}
        self._word_ids: dict[str, int] = {}
        self._rows: dict[tuple, array] = {}

    def stem_ids(self, sentence: str) -> list[int]:
        """Stem ids of a sentence's non-stopword tokens, in sentence order."""
        word_ids = self._word_ids
        ids = []
        for token in tokenize(sentence):
            i = word_ids.get(token)
            if i is None:
                if token in self.stopwords:
                    i = -1
                else:
                    intern = self._stem_ids
                    i = intern.setdefault(stem(token), len(intern))
                word_ids[token] = i
            if i >= 0:
                ids.append(i)
        return ids

    def row(self, kind, sentence: str) -> array:
        """Unit ids of one sentence, one entry per occurrence."""
        key = (kind, sentence)
        row = self._rows.get(key)
        if row is None:
            ids = self.stem_ids(sentence)
            if kind == SU:
                ids += [((a + 1) << 32) | b for a, b in combinations(ids, 2)]
            elif kind == 2:
                ids = [((a + 1) << 32) | b for a, b in zip(ids, ids[1:])]
            row = array("q", ids)
            self._rows[key] = row
        return row

    def bag(self, kind, sentences: Sequence[str]) -> Counter:
        """Pooled unit counts of a text: its sentences' rows summed."""
        return Counter(chain.from_iterable(self.row(kind, s) for s in sentences))


def su_f_matrix(
    table: UnitTable, candidates: Sequence[str], references: Sequence[str]
) -> list[list[float]]:
    """ROUGE-SU F of one-sentence candidates (rows) against one-sentence references (columns).

    Cell [j][i] is ``rouge_su([candidates[j]], [references[i]], table).f_measure``.
    """
    ref_bags = [table.bag(SU, [s]) for s in references]
    return [
        [score_bags(cand, ref).f_measure for ref in ref_bags]
        for cand in (table.bag(SU, [s]) for s in candidates)
    ]


def rouge_su(
    candidate: Sequence[str], reference: Sequence[str], table: UnitTable | None = None
) -> RougeScore:
    """Unigram + skip-bigram co-occurrence score between two texts.

    Either side may be empty; a side without units scores zero.
    """
    table = table or UnitTable()
    return score_bags(table.bag(SU, candidate), table.bag(SU, reference))


def rouge_n(
    candidate: Sequence[str], reference: Sequence[str], n: int, table: UnitTable | None = None
) -> RougeScore:
    """Contiguous n-gram co-occurrence score, n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    table = table or UnitTable()
    return score_bags(table.bag(n, candidate), table.bag(n, reference))
