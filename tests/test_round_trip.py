"""save -> load -> save gives identical bytes for every interchange file type.

The fixtures pin one file of each type (test_corpus.TestRoundTrips); these
properties cover arbitrary valid records: any unicode text, float values
of any magnitude, empty histogram bins and records of any length. Records
built from any fields either are refused, as their loader would refuse the
same fields, or load back equal.
"""
import json
import math
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtseval import corpus
from vtseval.corpus import (
    GroundTruthSentence,
    GroundTruthSummary,
    Subshot,
    SubshotFeatures,
    SummarySelection,
    VideoRecord,
)

import oracles

texts = st.text(min_size=1, max_size=12)
seconds = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def annotations(draw):
    starts = sorted(draw(st.lists(seconds, min_size=1, max_size=6)))
    shots = tuple(
        Subshot(index=i, start_s=s, end_s=s + draw(st.floats(1e-3, 1e3)), annotation=draw(texts))
        for i, s in enumerate(starts)
    )
    return VideoRecord(draw(texts), draw(st.floats(1e-3, 1e3)), shots)


@st.composite
def ground_truths(draw):
    gts = []
    # a ground-truth file names each author once
    for author_id in draw(st.lists(texts, min_size=1, max_size=3, unique=True)):
        positions = sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=5)))
        ranks = draw(st.permutations(range(1, len(positions) + 1)))
        sentences = tuple(
            GroundTruthSentence(temporal_pos=p, rank=r, text=draw(texts))
            for p, r in zip(positions, ranks)
        )
        gts.append(GroundTruthSummary(author_id=author_id, sentences=sentences))
    return gts


summaries = st.builds(
    SummarySelection,
    video_id=texts,
    indices=st.sets(st.integers(0, 10**6), max_size=8).map(lambda s: tuple(sorted(s))),
)


@st.composite
def features(draw):
    bins = draw(st.integers(1, 4))
    subshots = []
    for _ in range(draw(st.integers(1, 4))):
        frames = draw(st.integers(1, 3))
        counts = np.array(
            draw(st.lists(st.integers(0, 1000), min_size=3 * bins * frames,
                          max_size=3 * bins * frames)),
            dtype=np.float64,
        ).reshape(frames, 3 * bins)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        subshots.append(counts / counts.sum(axis=1, keepdims=True))
    return SubshotFeatures(draw(texts), bins, tuple(subshots))


def assert_stable(tmp_path, save, load):
    """Save, load and save again: the same bytes; returns the loaded record."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save(first)
    loaded = load(first)
    save(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    return loaded


@settings(max_examples=60, deadline=None)
@given(annotations())
def test_annotations(tmp_path_factory, video):
    def save(path, record=video):
        corpus.save_annotations(path, record)

    assert assert_stable(tmp_path_factory.mktemp("ann"), save, corpus.load_annotations) == video


@settings(max_examples=60, deadline=None)
@given(ground_truths(), texts)
def test_ground_truths(tmp_path_factory, gts, video_id):
    def save(path, record=gts):
        corpus.save_ground_truths(path, record, video_id)

    assert assert_stable(tmp_path_factory.mktemp("gts"), save, corpus.load_ground_truths) == gts


@settings(max_examples=60, deadline=None)
@given(summaries)
def test_summaries(tmp_path_factory, summary):
    def save(path, record=summary):
        corpus.save_summary(path, record)

    assert assert_stable(tmp_path_factory.mktemp("summary"), save, corpus.load_summary) == summary


@settings(max_examples=60, deadline=None)
@given(features())
def test_features(tmp_path_factory, feats):
    def save(path, record=feats):
        corpus.save_features(path, record)

    loaded = assert_stable(tmp_path_factory.mktemp("features"), save, corpus.load_features)
    assert (loaded.video_id, loaded.bins_per_channel) == (feats.video_id, feats.bins_per_channel)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.subshots, feats.subshots, strict=True))


@settings(max_examples=60, deadline=None)
@given(features(),
       st.one_of(texts, st.integers(), st.floats(), st.booleans(), st.none(), st.binary()),
       st.sampled_from([int, float, bool, np.int64, str]))
def test_a_feature_record_is_refused_or_loads_back_equal(tmp_path_factory, feats, video_id, as_bins):
    """A record that builds is one the loader reads back; one it would refuse does not build."""
    bins = as_bins(feats.bins_per_channel)
    try:
        record = SubshotFeatures(video_id, bins, feats.subshots)
    except corpus.CorpusValidationError as exc:
        field = "video_id" if not isinstance(video_id, str) else "bins_per_channel"
        assert str(exc).startswith(f"{field}: expected ")
        assert not isinstance(video_id, str) or type(bins) is not int
        return
    path = tmp_path_factory.mktemp("fields") / "features.json"
    corpus.save_features(path, record)
    loaded = corpus.load_features(path)
    assert (loaded.video_id, loaded.bins_per_channel) == (video_id, bins)
    assert np.array_equal(loaded.frames, record.frames)
    assert np.array_equal(loaded.offsets, record.offsets)


# ---------------------------------------------------------------------------
# each record type either refuses to be built or loads back equal, and refuses what its
# loader refuses, in the same words; the rules are those stated in oracles


# values of another type than a str, int or float field's, as a caller might pass them
WRONG = {str: [1, None], int: [True, 1.0, np.int64(1)],
         float: [1, True, np.float64(1.5), math.nan, math.inf]}
TYPE_REFUSAL = re.compile(r": (expected \w+, got \w+|must be finite)$")


def spots(value, path=()):
    """The path of every value nested in the tuples of value, containers and rows included."""
    for i, item in enumerate(value):
        yield path + (i,)
        if isinstance(item, tuple):
            yield from spots(item, path + (i,))


def replaced(value, path, new):
    items = list(value)
    items[path[0]] = new if len(path) == 1 else replaced(value[path[0]], path[1:], new)
    return value._make(items) if hasattr(value, "_fields") else tuple(items)


@st.composite
def mistyped(draw, args):
    """args, or args with one value given another type: a list for a tuple, a plain tuple for a
    row, or a value of WRONG; and whether it was."""
    paths = list(spots(args))
    if not draw(st.booleans()):
        return args, False
    path = draw(st.sampled_from(paths))
    old = args
    for i in path:
        old = old[i]
    if isinstance(old, tuple):
        new = list(old) if type(old) is tuple else tuple(old)
    else:
        new = draw(st.sampled_from(WRONG[type(old)]))
    return replaced(args, path, new), True


def outcome(call, *args):
    """(value, None) of call(*args), or (None, the message of its CorpusValidationError)."""
    try:
        return call(*args), None
    except corpus.CorpusValidationError as exc:
        return None, str(exc)


def check_record(tmp_path, make, case, rule_fault, save, load, doc):
    """make(*args) refuses a value of another type by name. With every type exact it refuses
    rule_fault, the oracle's statement, and a file of the same fields, written without make,
    is refused in the same words after its path. A record that builds loads back equal."""
    args, mistyped_ = case
    path = tmp_path / "record.json"
    record, refusal = outcome(make, *args)
    if record is not None:
        save(path, record)
        assert load(path) == record
    if mistyped_:
        assert refusal is not None and TYPE_REFUSAL.search(refusal), refusal
        return
    assert refusal == rule_fault(*args)
    path.write_text(json.dumps(doc(*args)))
    assert outcome(load, path) == (record, None if refusal is None else f"{path}: {refusal}")


# mostly valid values, so that a record's later rules are reached
some_seconds = st.sampled_from([5.0, 5.0, 5.0, 5.0, 0.0, -1.0]) | st.floats(1e-3, 1e3)
some_texts = st.sampled_from(["dog", "dog", ""]) | texts


@st.composite
def video_args(draw):
    """A VideoRecord's fields, often against its rules: no subshot, a subshot_seconds not above
    0, an index out of place, an end not after its start, an empty text, starts out of order."""
    starts = draw(st.lists(st.sampled_from([0.0, 5.0]) | seconds, max_size=4))
    if draw(st.booleans()):
        starts.sort()
    shots = tuple(Subshot(draw(st.sampled_from([i] * 5 + [i + 1])), s, s + draw(some_seconds),
                          draw(some_texts)) for i, s in enumerate(starts))
    return draw(texts), draw(some_seconds), shots


@settings(max_examples=300, deadline=None)
@given(video_args().flatmap(mistyped))
@example(case=(("v", 5.0, (Subshot(0, 5.0, 10.0, "dog"), Subshot(1, 0.0, 5.0, ""))), False))
def test_a_video_record_is_refused_or_loads_back_equal(tmp_path_factory, case):
    check_record(
        tmp_path_factory.mktemp("video"), VideoRecord, case,
        lambda video_id, seconds, shots: oracles.video_fault(seconds, shots),
        corpus.save_annotations, corpus.load_annotations,
        lambda video_id, seconds, shots: {
            "video_id": video_id, "subshot_seconds": seconds,
            "subshots": [{"index": i, "start_s": s, "end_s": e, "text": t} for i, s, e, t in shots]})


@st.composite
def ground_truth_args(draw):
    """A GroundTruthSummary's fields, often against its rules: no sentence, ranks that are not
    a permutation, positions out of order or repeated, an empty text."""
    positions = draw(st.lists(st.integers(0, 6), max_size=4))
    if draw(st.booleans()):
        positions = sorted(set(positions))
    k = len(positions)
    ranks = draw(st.permutations(range(1, k + 1))
                 | st.lists(st.integers(0, k + 1), min_size=k, max_size=k))
    return draw(texts), tuple(GroundTruthSentence(p, r, draw(some_texts))
                              for p, r in zip(positions, ranks))


@settings(max_examples=300, deadline=None)
@given(ground_truth_args().flatmap(mistyped))
@example(case=(("a", (GroundTruthSentence(2, 1, "dog"), GroundTruthSentence(2, 2, ""))), False))
def test_a_ground_truth_is_refused_or_loads_back_equal(tmp_path_factory, case):
    check_record(
        tmp_path_factory.mktemp("gt"), GroundTruthSummary, case, oracles.ground_truth_fault,
        lambda path, gt: corpus.save_ground_truths(path, [gt], "v"),
        lambda path: corpus.load_ground_truths(path)[0],
        lambda author_id, sentences: {"video_id": "v", "summaries": [{
            "author_id": author_id,
            "sentences": [{"temporal_pos": p, "rank": r, "text": t} for p, r, t in sentences]}]})


@st.composite
def selection_args(draw):
    """A SummarySelection's fields, often against its rules: a negative index, indices that
    repeat or go down."""
    indices = draw(st.lists(st.integers(-2, 8), max_size=5))
    if draw(st.booleans()):
        indices = sorted(set(indices))
    return draw(texts), tuple(indices)


@settings(max_examples=300, deadline=None)
@given(selection_args().flatmap(mistyped))
def test_a_selection_is_refused_or_loads_back_equal(tmp_path_factory, case):
    check_record(
        tmp_path_factory.mktemp("selection"), SummarySelection, case,
        lambda video_id, indices: oracles.selection_fault(indices),
        corpus.save_summary, corpus.load_summary,
        lambda video_id, indices: {"video_id": video_id, "indices": list(indices)})
