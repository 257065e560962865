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
sentence's units of that kind as an int array, one entry per occurrence,
in ascending id order: a row is sorted once, when it is compiled.
A unigram's id is its stem id; an ordered pair (skip-bigram or contiguous
bigram) of stem ids a, b has the id (a + 1) * 2**32 + b, which no stem id
reaches and which fits the signed 64-bit rows while a table holds fewer
than 2**31 stems, so pair ids need no second intern dict.

A text's bag is two int64 arrays: the sorted distinct unit ids of its
pooled rows and their counts. ``postings`` copies a text's rows into one
pooled array; a one-sentence text is then already sorted, and a longer
one is sorted in place, in that copy, never in a cached row. Several
texts are each one ascending run, so one stable argsort (timsort, which
finds the runs) merges them and keeps each id's run in text order; one
text needs no argsort. ``match_matrix`` scores many texts against
many at once. It lays the bags of the references end to end, sorted by
unit id (``postings``), once. Then, for each candidate in turn, two
``searchsorted`` calls find the runs of postings that hold the
candidate's units (``find``), the minimum of the two counts is taken on
every one of them, and one ``bincount`` sums the minima per reference. ``prf`` turns the integer counts
into precision, recall and F elementwise; numpy's float64 division,
multiplication and addition are the IEEE operations Python's floats use,
so every score is bit-identical to counting string-keyed units one by
one.

The table is the only place where text turns into units and the only
way to choose stopwords: every text entry point (here, in ``evaluator``,
``summarize`` and ``analysis``) takes ``table=`` and no stopword set, so
two stopword sets can never meet in one score. Compilation is lazy: only
sentences that are actually scored are compiled. ``shared_table`` holds
one table per thread: the CLI hands it to every command the thread runs,
and every library call without ``table=`` uses it, so a process that runs
many commands or calls (the benchmark's, or a service) compiles each
reference sentence and annotation once, and the table's dict is the only
memo of stems. The held table is replaced by a fresh one when a call asks
for another stopword set, or once it holds more than ``TABLE_ENTRIES``
entries (rows, the units in them and words); that bound also keeps its
stems far below the 2**31 that pair ids need. Both checks run only when a
call takes its table, once, before it compiles anything, so a replacement
never falls inside a call and no call mixes the ids of two tables; scores
depend only on unit counts, never on the ids, so no output depends on
when a table was replaced. The slot is per thread rather than locked,
because a stem id must stay valid for a whole call and a lock held that
long would serialise concurrent calls. A one-shot process holds only what
its one command compiled. ``su_f_matrix`` is the one matrix of
one-sentence ROUGE-SU scores, for the ordered-assignment summarizer and
for triples.
"""
from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .textproc import default_stopwords, stem, tokenize

SU = "su"
"""Unit kind of ROUGE-SU: unigrams plus skip-bigrams. Kinds 1 and 2 are contiguous n-grams."""

TABLE_ENTRIES = 1 << 22
"""Entries past which ``shared_table`` replaces a thread's table at the next call that takes it."""


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f_measure: float
    match_count: int
    candidate_units: int
    reference_units: int


class UnitTable:
    """Interned counting units of the sentences it has scored, under one stopword set.

    A table is always true (it has no ``__len__``), so ``table or
    shared_table()`` is the caller's table or this thread's default one.
    """

    def __init__(self, stopwords: frozenset[str] | None = None):
        self.stopwords = default_stopwords() if stopwords is None else stopwords
        self._stem_ids: dict[str, int] = {}
        self._word_ids: dict[str, int] = {}
        self._rows: dict[tuple, array] = {}
        self._units = 0

    @property
    def held(self) -> int:
        """Entries the table holds: its rows, the units in them and its words."""
        return len(self._rows) + self._units + len(self._word_ids)

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
        """Unit ids of one sentence under kind ``SU``, 1 or 2, one entry per occurrence, ascending."""
        key = (kind, sentence)
        row = self._rows.get(key)
        if row is None:
            if kind not in (SU, 1, 2):
                raise ValueError(f"unit kind must be {SU!r}, 1 or 2, got {kind!r}")
            ids = self.stem_ids(sentence)
            if kind == SU:
                ids += [((a + 1) << 32) | b for a, b in combinations(ids, 2)]
            elif kind == 2:
                ids = [((a + 1) << 32) | b for a, b in zip(ids, ids[1:])]
            ids.sort()
            row = array("q", ids)
            self._rows[key] = row
            self._units += len(row)
        return row


_slot = threading.local()


def shared_table(stopwords: frozenset[str] | None = None) -> UnitTable:
    """This thread's table for the stopword set (default: the bundled list).

    A fresh table replaces the held one if their sets differ (by content) or
    the held one is past ``TABLE_ENTRIES``; so take it once, at a call's start.
    """
    stopwords = default_stopwords() if stopwords is None else stopwords
    table = getattr(_slot, "table", None)
    # the held set itself is not compared: element by element, the bundled list took most of a call
    if (table is None or table.stopwords is not stopwords and table.stopwords != stopwords
            or table.held > TABLE_ENTRIES):
        table = _slot.table = UnitTable(stopwords)
    return table


def postings(
    table: UnitTable, kind, texts: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bags of the texts in one list sorted by unit id, all int64.

    For each distinct unit of each text: its id, its count in that text
    and the text's index, in order of id and then text. For one text this
    is the text's bag: its sorted distinct unit ids and their counts.
    """
    pooled = array("q")
    lengths = []
    unsorted = []  # (start, stop) in pooled of each text of more than one sentence
    for text in texts:
        start = len(pooled)
        for s in text:
            pooled += table.row(kind, s)
        lengths.append(len(pooled) - start)
        if len(text) > 1:
            unsorted.append((start, len(pooled)))
    # a view of pooled, the one copy of the rows: sorting it in place leaves every cached row as it is
    ids = np.asarray(pooled, dtype=np.int64)
    for start, stop in unsorted:
        ids[start:stop].sort()
    owners = np.repeat(np.arange(len(texts)), lengths)
    if len(texts) > 1:
        # each text is one ascending run, so a stable sort merges the runs, each id's run in text order
        order = np.argsort(ids, kind="stable")
        ids, owners = ids[order], owners[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (owners[1:] != owners[:-1])
    starts = np.flatnonzero(first)
    return ids[starts], np.diff(np.append(starts, len(ids))), owners[starts]


def find(ids: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in sorted ids that hold one of units, and for each, which unit it holds."""
    lo = np.searchsorted(ids, units, "left")
    runs = np.searchsorted(ids, units, "right") - lo
    starts = np.repeat(lo - (np.cumsum(runs) - runs), runs)
    return np.arange(len(starts)) + starts, np.repeat(np.arange(len(units)), runs)


def match_matrix(
    table: UnitTable,
    kind,
    candidates: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clipped match counts of every candidate text against every reference text.

    Returns the k x r int64 matrix of match counts (cell [j, i] sums
    min(count in candidate j, count in reference i) over the shared
    units) and the unit totals of the k candidates and the r references.
    The references' postings are built once; each candidate's bag is built
    in turn, so only one candidate bag is held at a time.
    """
    ids, counts, owners = postings(table, kind, references)
    matches = np.zeros((len(candidates), len(references)), dtype=np.int64)
    cand_units = np.zeros(len(candidates), dtype=np.int64)
    for j, text in enumerate(candidates):
        units, unit_counts, _ = postings(table, kind, [text])
        at, which = find(ids, units)
        clipped = np.minimum(unit_counts[which], counts[at])
        matches[j] = np.bincount(owners[at], weights=clipped, minlength=len(references))
        cand_units[j] = unit_counts.sum()
    ref_units = np.bincount(owners, weights=counts, minlength=len(references)).astype(np.int64)
    return matches, cand_units, ref_units


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0.0 where den is not positive."""
    num, den = np.broadcast_arrays(num, den)
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def prf(
    matches: np.ndarray, candidate_units: np.ndarray, reference_units: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall and F of a match matrix and its unit totals, elementwise.

    A side without units gives zero precision (recall); F is zero when
    precision and recall both are.
    """
    p = _ratio(matches, candidate_units[:, None])
    r = _ratio(matches, reference_units[None, :])
    return p, r, _ratio(2.0 * p * r, p + r)


def scores_against(
    table: UnitTable, kind, candidate: Sequence[str], references: Sequence[Sequence[str]]
) -> list[RougeScore]:
    """The score of one candidate text against each reference text."""
    matches, cand_units, ref_units = match_matrix(table, kind, [candidate], references)
    p, r, f = (a[0].tolist() for a in prf(matches, cand_units, ref_units))
    cand_total = int(cand_units[0])
    cells = zip(p, r, f, matches[0].tolist(), ref_units.tolist())
    return [RougeScore(pi, ri, fi, match, cand_total, ref_total)
            for pi, ri, fi, match, ref_total in cells]


def su_f_matrix(
    table: UnitTable, candidates: Sequence[str], references: Sequence[str]
) -> np.ndarray:
    """ROUGE-SU F of one-sentence candidates (rows) against one-sentence references (columns).

    Cell [j, i] is ``rouge_su([candidates[j]], [references[i]], table).f_measure``.
    """
    return prf(*match_matrix(table, SU, [[s] for s in candidates], [[s] for s in references]))[2]


def rouge_su(
    candidate: Sequence[str], reference: Sequence[str], table: UnitTable | None = None
) -> RougeScore:
    """Unigram + skip-bigram co-occurrence score between two texts.

    Either side may be empty; a side without units scores zero.
    """
    return scores_against(table or shared_table(), SU, candidate, [reference])[0]


def rouge_n(
    candidate: Sequence[str], reference: Sequence[str], n: int, table: UnitTable | None = None
) -> RougeScore:
    """Contiguous n-gram co-occurrence score, n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    return scores_against(table or shared_table(), n, candidate, [reference])[0]
