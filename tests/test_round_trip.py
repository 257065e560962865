"""save -> load -> save gives identical bytes for every interchange file type.

The fixtures pin one file of each type (test_corpus.TestRoundTrips); these
properties cover arbitrary valid records: any unicode text, float values
of any magnitude, empty histogram bins and records of any length.
"""
import numpy as np
from hypothesis import given, settings
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
