"""Differential tests: table-backed scoring against the naive oracles.

Text comes from random vocabularies (plain words, stopwords, words with
Porter suffixes, digit-bearing tokens) joined with random separators. The
oracles count units with their own loops; their tokens come from
``oracle_prep`` below, which calls the Porter stemmer directly, so the
unit table is not on the oracle side.
"""
import json
import re
import threading
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import analysis, porter, rouge, summarize
from vtseval.corpus import GroundTruthSentence, GroundTruthSummary, SummarySelection, canonical_dumps
from vtseval.evaluator import length_adjust, score_summary, text_representation
from vtseval.evaluator import best_scores
from vtseval.rouge import (
    SU,
    UnitTable,
    match_matrix,
    postings,
    prf,
    rouge_n,
    rouge_su,
    scores_against,
    shared_table,
    su_f_matrix,
)
from vtseval.summarize import sentence_dp
from vtseval.textproc import default_stopwords, preprocess, stem

from oracles import (
    bag_postings,
    clip_count,
    exhaustive_ordered_assignment,
    greedy_bow_loop,
    naive_best_reference_score,
    naive_rouge_n,
    naive_rouge_su,
)
from test_summarize import make_video

SETTINGS = settings(max_examples=60, deadline=None)


def oracle_prep(sentence):
    tokens = re.findall(r"[a-z0-9]+", sentence.lower())
    return [
        t if re.search(r"[0-9]", t) else porter.stem(t)
        for t in tokens
        if t not in default_stopwords()
    ]


words = st.one_of(
    st.from_regex(r"[a-z]{1,7}", fullmatch=True),
    st.builds(
        lambda w, suffix: w + suffix,
        st.from_regex(r"[a-z]{2,6}", fullmatch=True),
        st.sampled_from(["ing", "ed", "ness", "ational", "s", "ly", "ful"]),
    ),
    st.sampled_from(["the", "a", "of", "went", "2pm", "route66", "Dog", "DOG"]),
)
vocabularies = st.lists(words, min_size=1, max_size=10, unique=True)


@st.composite
def texts(draw, vocab, max_sentences=5, min_sentences=0):
    sentences = []
    for _ in range(draw(st.integers(min_sentences, max_sentences))):
        tokens = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=7))
        seps = draw(st.lists(st.sampled_from([" ", ", ", "-", " . "]),
                             min_size=len(tokens), max_size=len(tokens)))
        sentences.append("".join(t + s for t, s in zip(tokens, seps)).strip())
    return sentences


@st.composite
def text_pairs(draw):
    vocab = draw(vocabularies)
    return draw(texts(vocab)), draw(texts(vocab))


@st.composite
def scoring_cases(draw):
    """A video, ground truths over the same vocabulary and one selection."""
    vocab = draw(vocabularies)
    m = draw(st.integers(1, 8))
    video = make_video(draw(texts(vocab, max_sentences=m, min_sentences=m)))
    gts = []
    for a in range(draw(st.integers(1, 3))):
        rows = draw(texts(vocab, max_sentences=5, min_sentences=1))
        ranks = draw(st.permutations(range(1, len(rows) + 1)))
        gts.append(GroundTruthSummary(
            author_id=f"a{a}",
            sentences=tuple(GroundTruthSentence(temporal_pos=p, rank=r, text=t)
                            for p, (r, t) in enumerate(zip(ranks, rows))),
        ))
    indices = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    return video, gts, SummarySelection(video_id="v", indices=tuple(sorted(indices)))


def as_tuple(score):
    return score.precision, score.recall, score.f_measure


@SETTINGS
@given(text_pairs())
def test_rouge_su_matches_oracle(pair):
    cand, ref = pair
    assert as_tuple(rouge_su(cand, ref)) == naive_rouge_su(cand, ref, oracle_prep)


@SETTINGS
@given(text_pairs(), st.sampled_from([1, 2]))
def test_rouge_n_matches_oracle(pair, n):
    cand, ref = pair
    assert as_tuple(rouge_n(cand, ref, n)) == naive_rouge_n(cand, ref, n, oracle_prep)


@SETTINGS
@given(scoring_cases(), st.sampled_from([None, UnitTable()]))
def test_score_summary_matches_oracle(case, table):
    video, gts, sel = case
    report = score_summary(sel, video, gts, table=table)
    want = naive_best_reference_score(
        text_representation(sel, video), [length_adjust(gt, len(sel)) for gt in gts], oracle_prep
    )
    assert report.score == want


ALL_STOPWORDS = "the of a"


@st.composite
def text_lists(draw, vocab):
    """0 to 4 texts; a text may be empty or hold a sentence with no units at all."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        text = draw(texts(vocab, max_sentences=3))
        if draw(st.booleans()):
            text.insert(draw(st.integers(0, len(text))), ALL_STOPWORDS)
        out.append(text)
    return out


def oracle_units(text, kind):
    """A text's units pooled over its sentences, built by the oracle's preprocessing."""
    return [u for sentence in text for u in units_of(oracle_prep(sentence), kind)]


def naive_scores(candidate, reference, kind):
    if kind == SU:
        return naive_rouge_su(candidate, reference, oracle_prep)
    return naive_rouge_n(candidate, reference, kind, oracle_prep)


@SETTINGS
@given(st.data(), st.sampled_from([SU, 1, 2]))
def test_match_matrix_matches_clip_count(data, kind):
    vocab = data.draw(vocabularies)
    candidates, references = data.draw(text_lists(vocab)), data.draw(text_lists(vocab))
    matches, cand_units, ref_units = match_matrix(UnitTable(), kind, candidates, references)
    assert matches.shape == (len(candidates), len(references)) and matches.dtype == np.int64
    assert cand_units.tolist() == [len(oracle_units(c, kind)) for c in candidates]
    assert ref_units.tolist() == [len(oracle_units(r, kind)) for r in references]
    p, r, f = prf(matches, cand_units, ref_units)
    for j, cand in enumerate(candidates):
        for i, ref in enumerate(references):
            want = clip_count(oracle_units(cand, kind), oracle_units(ref, kind))
            assert matches[j, i] == want
            assert (p[j, i], r[j, i], f[j, i]) == naive_scores(cand, ref, kind)


def test_match_matrix_counts_repeats_and_empty_rows():
    table = UnitTable()
    candidates = [["dog dog dog park"], [], [ALL_STOPWORDS], ["dog", "the park dog"]]
    references = [["dog dog park park lake"]]
    matches, cand_units, ref_units = match_matrix(table, 1, candidates, references)
    assert matches[:, 0].tolist() == [3, 0, 0, 3]
    assert cand_units.tolist() == [4, 0, 0, 3] and ref_units.tolist() == [5]
    # swapping candidates and references transposes the counts
    flipped, _, _ = match_matrix(table, 1, references, candidates)
    assert (flipped.T == matches).all()
    p, r, f = prf(matches, cand_units, ref_units)
    assert p[:, 0].tolist() == [0.75, 0.0, 0.0, 1.0]
    assert r[:, 0].tolist() == [0.6, 0.0, 0.0, 0.6]
    assert f[1, 0] == f[2, 0] == 0.0


@SETTINGS
@given(scoring_cases(), st.sampled_from(["rouge-su", "rouge-1", "rouge-2"]))
def test_score_summary_per_reference_matches_oracle(case, metric):
    video, gts, sel = case
    kind = {"rouge-su": SU, "rouge-1": 1, "rouge-2": 2}[metric]
    report = score_summary(sel, video, gts, metric)
    candidate = text_representation(sel, video)
    assert len(report.per_ground_truth) == len(gts)
    for gt, (author, score) in zip(gts, report.per_ground_truth):
        ref = length_adjust(gt, len(sel))
        assert author == gt.author_id
        assert as_tuple(score) == naive_scores(candidate, ref, kind)
        assert score.match_count == clip_count(oracle_units(candidate, kind),
                                               oracle_units(ref, kind))
        assert score.candidate_units == len(oracle_units(candidate, kind))
        assert score.reference_units == len(oracle_units(ref, kind))
    assert report.score == max(s.f_measure for _, s in report.per_ground_truth)


@SETTINGS
@given(st.lists(scoring_cases(), min_size=1, max_size=3),
       st.sampled_from(["rouge-su", "rouge-1", "rouge-2"]), st.data())
def test_best_scores_equal_score_summary(cases, metric, data):
    """compare_pairs' batched scores are score_summary's, summary by summary."""
    for video, gts, _ in cases:
        n = data.draw(st.integers(1, len(video)))
        summaries = [SummarySelection("v", tuple(sorted(data.draw(st.lists(
            st.integers(0, len(video) - 1), min_size=n, max_size=n, unique=True)))))
            for _ in range(data.draw(st.integers(0, 4)))]
        got = best_scores(summaries, video, gts, n, metric).tolist()
        assert got == [score_summary(s, video, gts, metric).score for s in summaries]


@SETTINGS
@given(scoring_cases(), st.data())
def test_greedy_bow_matches_counter_loop(case, data):
    video, gts, _ = case
    gt = gts[0]
    n = data.draw(st.integers(1, len(video)))
    annotations = [shot.annotation for shot in video.subshots]
    want = greedy_bow_loop(annotations, length_adjust(gt, n), n, oracle_prep)
    assert summarize.greedy_bow(video, gt, n).indices == want


def test_greedy_bow_ties_repeats_and_uniform_fill():
    # subshots 1, 2 and 3 tie on the first pick (gain 2) and the lowest wins;
    # then "lake lake" gains 2 against the single "lake"'s 1; the bag is empty
    # after two picks, so the last two slots are filled uniformly
    video = make_video(["tree", "dog park", "lake lake", "park dog", "rock", "lake"])
    gt = GroundTruthSummary("a", tuple(
        GroundTruthSentence(temporal_pos=p, rank=p + 1, text=t)
        for p, t in enumerate(["dog park", "lake lake"])))
    n = 4
    want = greedy_bow_loop([s.annotation for s in video.subshots], length_adjust(gt, n), n,
                           oracle_prep)
    assert summarize.greedy_bow(video, gt, n).indices == want == (0, 1, 2, 4)


@SETTINGS
@given(scoring_cases())
def test_sentence_dp_cells_match_fresh_scores(case):
    video, gts, _ = case
    gt = gts[0]
    k = min(len(gt.sentences), len(video))
    sentences = length_adjust(gt, k)
    sim = su_f_matrix(UnitTable(), sentences, [shot.annotation for shot in video.subshots])
    for j, sentence in enumerate(sentences):
        for i, shot in enumerate(video.subshots):
            fresh = rouge_su([sentence], [shot.annotation], table=UnitTable())
            assert sim[j][i] == fresh.f_measure
            assert sim[j][i] == naive_rouge_su([sentence], [shot.annotation], oracle_prep)[2]
    _, best = exhaustive_ordered_assignment(sim)
    assert sentence_dp(video, gt, k).indices == best


@SETTINGS
@given(st.data())
def test_reused_table_matches_fresh_tables(data):
    """One table over many calls scores exactly as a fresh table per call."""
    vocab = data.draw(vocabularies)
    shared = UnitTable()
    for _ in range(data.draw(st.integers(1, 8))):
        cand, ref = data.draw(texts(vocab)), data.draw(texts(vocab))
        kind = data.draw(st.sampled_from([SU, 1, 2]))
        if kind == SU:
            assert rouge_su(cand, ref, table=shared) == rouge_su(cand, ref, table=UnitTable())
        else:
            fresh = rouge_n(cand, ref, kind, table=UnitTable())
            matches, cand_units, ref_units = match_matrix(shared, kind, [cand], [ref])
            assert (matches[0, 0], cand_units[0], ref_units[0]) == (
                fresh.match_count, fresh.candidate_units, fresh.reference_units)
            assert rouge_n(cand, ref, kind, table=shared) == fresh


@SETTINGS
@given(st.lists(scoring_cases(), min_size=1, max_size=4),
       st.sampled_from(["rouge-su", "rouge-1", "rouge-2"]))
def test_reused_table_in_score_summary(cases, metric):
    shared = UnitTable()
    for video, gts, sel in cases:
        for size in (len(sel), 1):
            sub = SummarySelection(video_id="v", indices=sel.indices[:size])
            # twice with the shared table: the second call hits every cache
            for _ in range(2):
                got = score_summary(sub, video, gts, metric, table=shared)
                assert got == score_summary(sub, video, gts, metric, table=UnitTable())


@SETTINGS
@given(st.data())
def test_shared_reset_and_fresh_tables_score_alike(data):
    """A run of commands scores the same through this thread's shared table, through a
    second slot whose table is reset at random command boundaries, and through fresh tables;
    so does a library call without ``table=``, which takes the slot's table."""
    vocab = data.draw(vocabularies)
    custom = frozenset(default_stopwords() | {w.lower() for w in vocab[:2]})
    resetting = threading.local()
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from([SU, 1, 2]))
        stopwords = data.draw(st.sampled_from([None, custom]))
        cand = data.draw(texts(vocab))
        refs = data.draw(st.lists(texts(vocab), min_size=1, max_size=3))
        fresh = scores_against(UnitTable(stopwords), kind, cand, refs)
        assert scores_against(shared_table(stopwords), kind, cand, refs) == fresh
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rouge, "_slot", resetting)
            mp.setattr(rouge, "TABLE_ENTRIES", data.draw(st.integers(0, 40)))
            assert scores_against(shared_table(stopwords), kind, cand, refs) == fresh
            assert_default_table_scores_as_a_fresh_one(kind, cand, refs)
        assert_default_table_scores_as_a_fresh_one(kind, cand, refs)


def assert_default_table_scores_as_a_fresh_one(kind, cand, refs):
    for ref in refs:
        if kind == SU:
            assert rouge_su(cand, ref) == rouge_su(cand, ref, table=UnitTable())
        else:
            assert rouge_n(cand, ref, kind) == rouge_n(cand, ref, kind, table=UnitTable())


def test_shared_table_is_replaced_only_at_a_call_for_another_set_or_past_the_budget(monkeypatch):
    table = shared_table()
    assert shared_table(frozenset(default_stopwords())) is table  # equal sets share
    rouge_su(["dog park at noon"], ["dog park"], table)
    monkeypatch.setattr(rouge, "TABLE_ENTRIES", table.held)
    assert shared_table() is table
    monkeypatch.setattr(rouge, "TABLE_ENTRIES", table.held - 1)
    fresh = shared_table()
    assert fresh is not table and fresh.held == 0
    custom = shared_table(frozenset({"dog"}))
    assert custom is not fresh and custom.stopwords == {"dog"}
    assert shared_table(frozenset({"dog"})) is custom


class UncomparableSet(frozenset):
    """A stopword set that raises when compared by content."""

    def __eq__(self, other):
        raise AssertionError("the set was compared by content")

    __ne__ = __eq__
    __hash__ = frozenset.__hash__


def test_the_held_stopword_set_is_reused_without_comparing_it(monkeypatch):
    stopwords = UncomparableSet({"dog"})
    table = shared_table(stopwords)
    assert table.stopwords is stopwords
    assert shared_table(stopwords) is table  # the same object: no comparison
    monkeypatch.setattr(rouge, "_slot", threading.local())
    held = shared_table(frozenset({"dog"}))
    assert shared_table(frozenset({"dog"})) is held  # equal but distinct: compared, reused
    assert shared_table() is not held


@pytest.mark.parametrize("kind", [3, 0, "SU", None])
def test_an_unknown_unit_kind_is_refused(kind):
    table = UnitTable()
    with pytest.raises(ValueError, match=f"unit kind must be 'su', 1 or 2, got {kind!r}"):
        match_matrix(table, kind, [["the dog runs fast"]], [["a dog runs slowly"]])
    assert table.held == 0


def test_an_unknown_unit_kind_is_refused_before_anything_compiles():
    table = UnitTable()
    with pytest.raises(ValueError, match="unit kind must be 'su', 1 or 2, got 'x'"):
        table.row("x", "dogs walking in the park")
    assert table.held == 0
    table.row(SU, "a lake")
    held = table.held
    with pytest.raises(ValueError, match="unit kind must be 'su', 1 or 2, got 'x'"):
        table.row("x", "dogs walking in the park")
    assert table.held == held


@SETTINGS
@given(text_pairs(), st.sets(words, min_size=1, max_size=4))
def test_stopword_sets_never_share_a_table(pair, extra):
    cand, ref = pair
    custom = frozenset(default_stopwords() | {w.lower() for w in extra})
    default_table, custom_table = UnitTable(), UnitTable(custom)
    # interleave both tables over the same sentences
    for _ in range(2):
        assert rouge_su(cand, ref, table=default_table) == rouge_su(cand, ref)
        assert rouge_su(cand, ref, table=custom_table) == rouge_su(cand, ref, UnitTable(custom))


def test_unit_table_accepts_its_own_stopwords():
    stops = frozenset({"dog"})
    table = UnitTable(stops)
    assert table.stopwords is stops
    assert UnitTable().stopwords is default_stopwords()
    # a score goes through the caller's table, so the table's stopwords hold
    assert rouge_su(["dog park"], ["dog park"], table).match_count == 1
    assert rouge_su(["dog park"], ["dog park"]).match_count == 3


def test_rows_are_interned_ids():
    table = UnitTable()
    row = table.row(SU, "I walked my dog at the park.")
    assert len(row) == 6  # 3 unigrams + 3 skip-bigrams
    assert table.row(SU, "I walked my dog at the park.") is row
    # a unigram is the same unit in every kind
    assert set(table.row(1, "dog park")) <= set(table.row(SU, "park dog"))
    assert table.row(2, "dog park") != table.row(2, "park dog")


def test_sentences_compile_lazily_once_per_kind(monkeypatch):
    calls = []
    real = UnitTable.stem_ids
    monkeypatch.setattr(UnitTable, "stem_ids", lambda self, s: calls.append(s) or real(self, s))
    table = UnitTable()
    assert not calls
    for _ in range(3):
        rouge_su(["dog park", "lake"], ["dog park"], table=table)
    assert sorted(calls) == ["dog park", "lake"]
    postings(table, 2, [["dog park", "lake"]])
    assert sorted(calls) == ["dog park", "dog park", "lake", "lake"]


def units_of(stems, kind):
    """Units of one preprocessed sentence, as stems and stem pairs."""
    if kind == 1:
        return stems
    if kind == 2:
        return list(zip(stems, stems[1:]))
    return stems + list(combinations(stems, 2))


def decoded_row(table, kind, sentence):
    """A compiled row mapped back through the table's stem ids to stems and stem pairs."""
    row = table.row(kind, sentence)
    stem_of = {i: s for s, i in table._stem_ids.items()}
    return [stem_of[u] if u < 1 << 32 else (stem_of[(u >> 32) - 1], stem_of[u & 0xFFFFFFFF])
            for u in row]


@st.composite
def stopword_cases(draw):
    """Sentences and a stopword set in which a stopword may share its stem with kept words."""
    base = draw(st.from_regex(r"[a-z]{3,6}", fullmatch=True))
    family = [base + suffix for suffix in ("", "s", "ing", "ed")]
    vocab = draw(vocabularies) + family + [w.upper() for w in family]
    lowered = sorted({w.lower() for w in vocab})
    stops = frozenset(draw(st.lists(st.sampled_from(lowered), max_size=4)))
    stops |= draw(st.sampled_from([frozenset(), default_stopwords()]))
    return draw(texts(vocab, min_sentences=1, max_sentences=4)), stops


@SETTINGS
@given(st.lists(stopword_cases(), min_size=1, max_size=3), st.data())
def test_rows_map_back_to_preprocessed_units(cases, data):
    for sentences, stops in cases:
        table = UnitTable(stops)
        for _ in range(2):  # the second pass reads every token from the word table
            for sentence in sentences:
                kind = data.draw(st.sampled_from([SU, 1, 2]))
                want = units_of(preprocess(sentence, stops), kind)
                assert Counter(decoded_row(table, kind, sentence)) == Counter(want)


def test_stopword_sharing_a_stem_with_kept_words():
    table = UnitTable(frozenset({"walking"}))
    sentence = "Walking walks WALKED walking walk 2pm 2PM"
    assert preprocess(sentence, table.stopwords) == ["walk", "walk", "walk", "2pm", "2pm"]
    for kind in (SU, 1, 2):
        want = units_of(["walk", "walk", "walk", "2pm", "2pm"], kind)
        assert Counter(decoded_row(table, kind, sentence)) == Counter(want)
    assert sorted(table._stem_ids) == ["2pm", "walk"]


def test_each_token_is_stemmed_once_per_table(monkeypatch):
    import vtseval.rouge as rouge

    calls = []
    monkeypatch.setattr(rouge, "stem", lambda token: calls.append(token) or stem(token))
    table = UnitTable()
    postings(table, SU, [["Dogs walked the dogs", "dogs DOGS walked"]])
    postings(table, 2, [["dogs walked", "the dogs"]])
    assert sorted(calls) == ["dogs", "walked"]
    postings(UnitTable(), 1, [["dogs"]])
    assert sorted(calls) == ["dogs", "dogs", "walked"]


def occurrence_ids(table, kind, sentence):
    """A sentence's unit ids in token order, from its stem ids and the pair id formula, not ``row``."""
    stems = table.stem_ids(sentence)
    pairs = {SU: combinations(stems, 2), 1: [], 2: zip(stems, stems[1:])}[kind]
    return ([] if kind == 2 else stems) + [(a + 1) * 2**32 + b for a, b in pairs]


@st.composite
def posting_cases(draw):
    """A kind and a list of texts over one pool of sentences, which holds an empty one.

    The list is empty, one text, many one-sentence texts, or texts of any
    length in which a sentence may repeat.
    """
    pool = draw(texts(draw(vocabularies), min_sentences=1, max_sentences=5)) + ["", ALL_STOPWORDS]
    sentence = st.sampled_from(pool)
    shape = st.one_of(
        st.just([]),
        st.lists(st.lists(sentence, max_size=6), min_size=1, max_size=1),
        st.lists(st.lists(sentence, min_size=1, max_size=1), min_size=2, max_size=12),
        st.lists(st.lists(sentence, max_size=6), min_size=2, max_size=6),
    )
    return draw(st.sampled_from([SU, 1, 2])), draw(shape)


@SETTINGS
@given(posting_cases())
def test_postings_match_a_counter_per_text(case):
    kind, text_list = case
    table = UnitTable()
    # a cold table, then every row cached; then each text alone, which merges nothing
    for batch in [text_list, text_list] + [[text] for text in text_list]:
        ids, counts, owners = postings(table, kind, batch)
        assert ids.dtype == counts.dtype == owners.dtype == np.int64
        want = bag_postings([[u for s in text for u in occurrence_ids(table, kind, s)]
                             for text in batch])
        assert list(zip(ids.tolist(), counts.tolist(), owners.tolist())) == want


@SETTINGS
@given(posting_cases())
def test_rows_are_ascending_permutations_of_their_occurrences(case):
    _, text_list = case
    table = UnitTable()
    for sentence in {s for text in text_list for s in text}:
        for kind in (SU, 1, 2):
            row = table.row(kind, sentence)
            assert list(row) == sorted(row)
            assert Counter(row) == Counter(occurrence_ids(table, kind, sentence))


@SETTINGS
@given(posting_cases())
def test_postings_leave_cached_rows_unchanged(case):
    _, text_list = case
    table = UnitTable()
    for kind in (SU, 1, 2):
        postings(table, kind, text_list)
    rows = {key: (row, row.tobytes()) for key, row in table._rows.items()}
    held = table.held
    for kind in (SU, 1, 2):
        postings(table, kind, text_list)
        postings(table, kind, text_list[:1])
    assert table.held == held
    assert all(table._rows[key] is row and row.tobytes() == raw for key, (row, raw) in rows.items())


@SETTINGS
@given(words)
def test_stem_memo_matches_porter(word):
    token = word.lower()
    want = token if re.search(r"[0-9]", token) else porter.stem(token)
    assert stem(token) == want


ENTRY_POINTS = {
    "rouge_su": lambda v, g, f, **kw: rouge_su([v.subshots[0].annotation], ["dog park"], **kw),
    "rouge_n": lambda v, g, f, **kw: rouge_n([v.subshots[0].annotation], ["dog park"], 2, **kw),
    "score_summary": lambda v, g, f, **kw: score_summary(
        SummarySelection("video12", (0, 3, 5)), v, g, **kw),
    "judge_summary_pair": lambda v, g, f, **kw: analysis.judge_summary_pair(
        SummarySelection("video12", (0, 3)), SummarySelection("video12", (1, 7)), v, g, **kw),
    "judge_subshot_pair": lambda v, g, f, **kw: analysis.judge_subshot_pair(0, 4, 2, v, **kw),
    "greedy_bow": lambda v, g, f, **kw: summarize.greedy_bow(v, g[1], 4, **kw),
    "sentence_dp": lambda v, g, f, **kw: summarize.sentence_dp(v, g[1], 4, **kw),
    "compare_pairs": lambda v, g, f, **kw: analysis.compare_pairs(v, g, 4, 3, 1, **kw),
    "compare_triples": lambda v, g, f, **kw: json.loads(
        canonical_dumps(analysis.compare_triples(v, f, **kw))),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_text_entry_point_scores_through_the_callers_table(
    name, video12, gts12, features12
):
    call = ENTRY_POINTS[name]
    table = UnitTable()
    assert call(video12, gts12, features12, table=table) == call(video12, gts12, features12)
    assert table._rows, f"{name} did not compile its text in the caller's table"


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_a_call_without_a_table_compiles_into_this_threads_table(
    name, video12, gts12, features12, monkeypatch
):
    """The call builds one table, the thread's, and a repeat builds and compiles nothing."""
    call = ENTRY_POINTS[name]
    built, compiled = [], []
    real_init, real_row = UnitTable.__init__, UnitTable.row

    def init(self, *args):
        built.append(self)
        real_init(self, *args)

    def row(self, kind, sentence):
        if (kind, sentence) not in self._rows:
            compiled.append((self, kind, sentence))
        return real_row(self, kind, sentence)

    monkeypatch.setattr(UnitTable, "__init__", init)
    monkeypatch.setattr(UnitTable, "row", row)
    want = call(video12, gts12, features12)
    table = shared_table()
    assert built == [table]
    assert compiled and {t for t, _, _ in compiled} == {table}
    assert {(kind, s) for _, kind, s in compiled} <= set(table._rows)
    held = dict(table._rows)
    built.clear()
    compiled.clear()
    assert call(video12, gts12, features12) == want
    assert built == compiled == [] and table._rows == held
    assert shared_table() is table
