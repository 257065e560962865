"""The hook-free loaders against the checked path they fall back to.

load_features, load_annotations and load_ground_truths parse without
read_json's per-float finiteness hook and check the values they keep in
bulk. On every file, good or perturbed, they must give what the checked
path gives: read_json's parse followed by the field-by-field loop, with
the features' frame checks done one subshot and one frame at a time. That
is the same arrays and records, or the same exception class and message.
"""
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import corpus

# a finite value the tests write into a file and then turn into a literal
# that json.dumps cannot write, such as 1e999
MARK = 12345.5


def checked_features(path, video=None):
    """The loader as it reads a file frame by frame, after read_json's parse."""
    with mock.patch.object(corpus, "_stacked_features", lambda *args: None):
        return corpus._features_of(corpus.read_json(path), str(path), video)


def outcome(load, path):
    """What load gives on path: the value, or the exception's class and message."""
    try:
        return "ok", load(path)
    except Exception as exc:  # the class is compared, so any exception counts
        return type(exc).__name__, str(exc)


def features_doc(draw):
    bins = draw(st.integers(1, 3))
    width = 3 * bins
    rows = []
    for i in range(draw(st.integers(1, 4))):
        frames = []
        for _ in range(draw(st.integers(1, 3))):
            counts = draw(st.lists(st.integers(0, 9), min_size=width, max_size=width))
            counts[0] += sum(counts) == 0
            frames.append([c / sum(counts) for c in counts])
        rows.append({"index": i, "frames": frames})
    return {"video_id": "v", "bins_per_channel": bins, "subshots": rows}


PERTURBATIONS = [
    "none", "negative", "wrong_width", "ragged", "bool_index", "missing_index",
    "sum_off_1e-6", "sum_off_near_tolerance", "non_finite", "nan", "string_entry",
    "empty_frames", "no_subshots", "nested_frame",
]


@st.composite
def feature_files(draw):
    doc = features_doc(draw)
    kind = draw(st.sampled_from(PERTURBATIONS))
    rows = doc["subshots"]
    i = draw(st.integers(0, len(rows) - 1))
    frames = rows[i]["frames"]
    j = draw(st.integers(0, len(frames) - 1))
    k = draw(st.integers(0, len(frames[j]) - 1))
    literal = None
    if kind == "negative":  # the row still sums to 1
        frames[j][(k + 1) % len(frames[j])] += frames[j][k] + 0.25
        frames[j][k] = -0.25
    elif kind == "wrong_width":
        doc["bins_per_channel"] += 1
    elif kind == "ragged":
        frames[j].pop()
    elif kind == "bool_index":
        rows[i]["index"] = draw(st.booleans())
    elif kind == "missing_index":
        del rows[i]["index"]
    elif kind == "sum_off_1e-6":
        frames[j][k] += 1e-6
    elif kind == "sum_off_near_tolerance":
        frames[j][k] += draw(st.sampled_from([5e-10, 1e-9, 1.0000001e-9, 2e-9]))
    elif kind == "non_finite":
        frames[j][k] = MARK
        literal = draw(st.sampled_from(["1e999", "-1e999", "2E308"]))
    elif kind == "nan":
        frames[j][k] = MARK
        literal = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
    elif kind == "string_entry":
        frames[j][k] = str(frames[j][k])
    elif kind == "empty_frames":
        rows[i]["frames"] = []
    elif kind == "no_subshots":
        doc["subshots"] = []
    elif kind == "nested_frame":
        frames[j][k] = [frames[j][k]]
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    if literal is not None:
        text = text.replace(repr(MARK), literal, 1)
    return text


@settings(max_examples=300, deadline=None)
@given(feature_files())
def test_features_load_equals_the_checked_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("features") / "f.json"
    path.write_text(text)
    got, want = outcome(corpus.load_features, path), outcome(checked_features, path)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    got, want = got[1], want[1]
    assert (got.video_id, got.bins_per_channel) == (want.video_id, want.bins_per_channel)
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.frames.shape == want.frames.shape and got.frames.flags.c_contiguous
    assert got.offsets.tolist() == want.offsets.tolist()
    assert len(got.subshots) == len(want.subshots)
    for a, b in zip(got.subshots, want.subshots):
        assert a.tobytes() == b.tobytes() and a.shape == b.shape


@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_features_non_finite_literal_is_named(tmp_path, literal):
    path = tmp_path / "f.json"
    path.write_text('{"video_id": "v", "bins_per_channel": 1, "subshots": '
                    '[{"index": 0, "frames": [[0.5, 0.5, %s]]}]}' % literal)
    with pytest.raises(corpus.CorpusParseError, match=f"non-finite number {literal} "):
        corpus.load_features(path)


def test_features_mismatch_with_video_is_refused_on_the_fast_path(tmp_path, video12, features12):
    path = tmp_path / "f.json"
    corpus.save_features(path, corpus.SubshotFeatures("other", 16, features12.subshots))
    with pytest.raises(corpus.CorpusValidationError, match="^video_id: "):
        corpus.load_features(path, video12)
    corpus.save_features(path, corpus.SubshotFeatures("video12", 16, features12.subshots[:5]))
    with pytest.raises(corpus.CorpusValidationError, match="covers 5 subshots, the video has 12"):
        corpus.load_features(path, video12)


def test_features_matrix_holds_every_frame_in_subshot_order(features12):
    assert features12.frames.shape == (24, 48)
    assert features12.frames.flags.c_contiguous
    assert features12.offsets.tolist() == list(range(0, 25, 2))
    assert features12.owners() == [i // 2 for i in range(24)]
    for i, view in enumerate(features12.subshots):
        assert np.shares_memory(view, features12.frames)
        assert view.tobytes() == features12.frames[2 * i : 2 * i + 2].tobytes()


# annotations and ground truths: the fast parse reads 1e999 as inf, and the
# loader must still name the literal, wherever a row fails


def checked_annotations(path):
    return corpus._annotations_of(corpus.read_json(path), str(path))


def checked_ground_truths(path):
    return corpus._ground_truths_of(corpus.read_json(path), str(path), None)


ANNOTATION_VALUES = ["5.0", "5", "1e999", "-1e999", "NaN", "true", '"5"', "1e308"]


@st.composite
def annotation_files(draw):
    values = iter(draw(st.lists(st.sampled_from(ANNOTATION_VALUES), min_size=4, max_size=4)))
    shots = []
    for i, (start, end) in enumerate([(0, 5), (5, 10)]):
        start_s, end_s = (draw(st.sampled_from([f"{start}.0", next(values)])),
                          draw(st.sampled_from([f"{end}.0", next(values)])))
        shots.append('{"index": %d, "start_s": %s, "end_s": %s, "text": "a dog"}'
                     % (i, start_s, end_s))
    seconds = draw(st.sampled_from(["5.0", "1e999", "5"]))
    return ('{"video_id": "v", "subshot_seconds": %s, "subshots": [%s]}'
            % (seconds, ", ".join(shots)))


@settings(max_examples=150, deadline=None)
@given(annotation_files())
def test_annotations_load_equals_the_checked_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ann") / "a.json"
    path.write_text(text)
    assert outcome(corpus.load_annotations, path) == outcome(checked_annotations, path)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["1", "2", "1e999", "-1e999", "2.0", "true", '"x"']),
                min_size=3, max_size=3))
def test_ground_truths_load_equals_the_checked_path(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("gts") / "g.json"
    path.write_text('{"video_id": "v", "summaries": [{"author_id": "a", "sentences": ['
                    '{"temporal_pos": %s, "rank": 1, "text": "x"}, '
                    '{"temporal_pos": 7, "rank": %s, "text": "y"}]}, '
                    '{"author_id": "b", "sentences": [{"temporal_pos": %s, "rank": 1, '
                    '"text": "z"}]}]}' % tuple(values))
    assert outcome(corpus.load_ground_truths, path) == outcome(checked_ground_truths, path)


def test_annotations_non_finite_literal_is_named(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"video_id": "v", "subshot_seconds": 5.0, "subshots": '
                    '[{"index": 0, "start_s": 0.0, "end_s": 1e999, "text": "a"}]}')
    with pytest.raises(corpus.CorpusParseError, match=f"{path}: non-finite number 1e999 "):
        corpus.load_annotations(path)
