"""The feature path and the memoized loaders against their references.

load_features, load_annotations and load_ground_truths parse each file
once and check the values they keep in bulk. As every loader's, that
parse refuses the literals NaN and Infinity by name; a literal that
overflows, such as 1e999, reads as an infinite float, and the field that
reads it refuses it by name. A field that no loader reads goes
unchecked, in every loader alike. On every file, good or perturbed, the
loaders must give what the checked path gives: read_json's parse
followed by the field-by-field reader of that kind in ``oracles``, with
the features' frame checks done one subshot and one frame at a time by
``oracles.frame_fault``. That is the same arrays and records, or the
same exception class and message. ``validate_features`` is pinned to
the same per-frame loop on features built directly, which the loader
cannot produce (subshots without frames, a width that differs from the
bins).
"""
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import corpus

import oracles
from oracles import frame_fault

# a finite value the tests write into a file and then turn into a literal
# that json.dumps cannot write, such as 1e999
MARK = 12345.5


def checked_features(path, video=None):
    """The features loader as a reference: read_json's parse, then row by row and frame by frame."""
    return oracles.features_of(corpus.read_json(path), str(path), video)


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
    "none", "negative", "wrong_width", "subshot_width", "ragged", "bool_index",
    "missing_index", "sum_off_1e-6", "sum_off_near_tolerance", "non_finite", "nan",
    "string_entry", "empty_frames", "no_subshots", "nested_frame",
]
# offsets that put a row sum just inside or just outside math.isclose's 1e-9 of 1
NEAR_TOLERANCE = [5e-10, 1e-9, 1.0000001e-9, 2e-9]


def perturb(draw, doc, kind):
    """Put one fault of the given kind into doc at a drawn subshot, frame and entry."""
    rows = doc["subshots"]
    if kind == "none" or not rows:
        return None
    i = draw(st.integers(0, len(rows) - 1))
    frames = rows[i].get("frames", [])
    if kind == "bool_index":
        rows[i]["index"] = draw(st.booleans())
    elif kind == "missing_index":
        rows[i].pop("index", None)
    elif kind == "wrong_width":
        doc["bins_per_channel"] += 1
    elif kind == "subshot_width":  # every frame of the subshot, so it is not ragged
        for frame in frames:
            frame.append(0.0)
    elif kind == "empty_frames":
        rows[i]["frames"] = []
    elif kind == "no_subshots":
        doc["subshots"] = []
    if not frames or kind in ("bool_index", "missing_index", "wrong_width", "subshot_width",
                              "empty_frames", "no_subshots"):
        return None
    j = draw(st.integers(0, len(frames) - 1))
    frame = frames[j]
    if not frame or any(not isinstance(x, float) for x in frame):
        return None
    k = draw(st.integers(0, len(frame) - 1))
    if kind == "negative":  # the row still sums to 1
        frame[(k + 1) % len(frame)] += frame[k] + 0.25
        frame[k] = -0.25
    elif kind == "ragged":
        frame.pop()
    elif kind == "sum_off_1e-6":
        frame[k] += 1e-6
    elif kind == "sum_off_near_tolerance":
        frame[k] += draw(st.sampled_from(NEAR_TOLERANCE))
    elif kind == "non_finite":
        frame[k] = MARK
        return draw(st.sampled_from(["1e999", "-1e999", "2E308"]))
    elif kind == "nan":
        frame[k] = MARK
        return draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
    elif kind == "string_entry":
        frame[k] = str(frame[k])
    elif kind == "nested_frame":
        frame[k] = [frame[k]]
    return None


# faults in a frame's values, and faults in a subshot's structure or shape
VALUE_FAULTS = ["negative", "sum_off_1e-6", "sum_off_near_tolerance", "nan"]
SHAPE_FAULTS = ["subshot_width", "wrong_width", "ragged", "string_entry", "empty_frames",
                "nested_frame", "bool_index"]


@st.composite
def feature_files(draw, kinds=st.lists(st.sampled_from(PERTURBATIONS), min_size=1, max_size=1)):
    """A features file with a fault of each drawn kind, each at a drawn place."""
    doc = features_doc(draw)
    literals = [perturb(draw, doc, kind) for kind in draw(kinds)]
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    for literal in literals:
        if literal is not None:
            text = text.replace(repr(MARK), literal, 1)
    return text


@settings(max_examples=300, deadline=None)
@given(feature_files())
def test_features_load_equals_the_checked_path(tmp_path_factory, text):
    assert_loads_like_the_checked_path(tmp_path_factory.mktemp("features") / "f.json", text)


@settings(max_examples=300, deadline=None)
@given(feature_files(st.tuples(st.sampled_from(VALUE_FAULTS),
                               st.sampled_from(SHAPE_FAULTS)).flatmap(st.permutations)))
def test_two_faults_load_equals_the_checked_path(tmp_path_factory, text):
    assert_loads_like_the_checked_path(tmp_path_factory.mktemp("features") / "f.json", text)


def assert_loads_like_the_checked_path(path, text):
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


def two_subshot_file(path, first, second):
    """A features file of bins_per_channel 1 whose two subshots have the given frames."""
    path.write_text(json.dumps({"video_id": "v", "bins_per_channel": 1, "subshots": [
        {"index": 0, "frames": first}, {"index": 1, "frames": second}]}))
    return path


@pytest.mark.parametrize("first, second, message", [
    ([[0.5, 0.25, 0.0]], [[1.0, 0.0, 0.0, 0.0]],
     "subshots[0].frames[0]: histogram sums to 0.75, expected 1"),
    ([[1.0, 0.0, 0.0, 0.0]], [[0.5, 0.25, 0.0]],
     "subshots[0].frames: histograms must have 3 bins, got 4"),
    ([[1.0, 0.0, 0.0], [0.5, 0.25, 0.0]], [[-1.0, 2.0, 0.0]],
     "subshots[0].frames[1]: histogram sums to 0.75, expected 1"),
    ([[1.0, 0.0, 0.0]], [[-1.0, 1.5, 0.0], [0.5, 0.5]],
     "subshots[1].frames: ragged or non-numeric"),
    ([[1.0, 0.0, 0.0]], [[-1.0, 1.5, 0.0]],
     "subshots[1].frames[0]: negative histogram entry"),
], ids=["sum_then_width", "width_then_sum", "sum_then_negative", "ragged_beats_values",
        "negative_before_sum"])
def test_first_fault_in_subshot_order_is_named(tmp_path, first, second, message):
    path = two_subshot_file(tmp_path / "f.json", first, second)
    with pytest.raises(corpus.CorpusError) as info:
        corpus.load_features(path)
    assert str(info.value).removeprefix(f"{path}: ") == message
    assert outcome(corpus.load_features, path) == outcome(checked_features, path)


FRAME_FAULTS = ["negative", "nan", "inf", "sum_off", "near_tolerance"]


@st.composite
def built_features(draw, kinds=st.lists(st.sampled_from(FRAME_FAULTS + ["empty_subshot"]),
                                        max_size=2)):
    """Per-subshot arrays with a fault of each drawn kind; the loader cannot make some of them."""
    bins = draw(st.sampled_from([1, 2, 16]))  # 48 bins sum pairwise in numpy
    width = 3 * bins
    subshots = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.lists(st.lists(st.integers(0, 9), min_size=width, max_size=width),
                             min_size=1, max_size=3))
        counts = np.array(rows, dtype=np.float64)
        counts[:, 0] += counts.sum(axis=1) == 0
        subshots.append(counts / counts.sum(axis=1, keepdims=True))
    for kind in draw(kinds):
        i = draw(st.integers(0, len(subshots) - 1))
        if kind == "empty_subshot" or not len(subshots[i]):
            subshots[i] = np.empty((0, width))
            continue
        j, k = draw(st.integers(0, len(subshots[i]) - 1)), draw(st.integers(0, width - 1))
        if kind == "negative":
            subshots[i][j, k] = -draw(st.sampled_from([0.25, 0.0, 1e-300]))
        elif kind == "nan":
            subshots[i][j, k] = np.nan
        elif kind == "inf":
            subshots[i][j, k] = draw(st.sampled_from([np.inf, -np.inf]))
        elif kind == "sum_off":
            subshots[i][j, k] += draw(st.sampled_from([1e-6, -1e-6, 0.5]))
        else:
            subshots[i][j, k] += draw(st.sampled_from(NEAR_TOLERANCE + [-1e-9, -2e-9]))
    bins += draw(st.sampled_from([0, 0, 0, 1, -bins]))  # a width off the bins, or no bins
    return bins, subshots


@settings(max_examples=300, deadline=None)
@given(built_features())
def test_validate_features_names_what_the_per_frame_loop_names(case):
    assert_validates_like_the_per_frame_loop(*case)


@settings(max_examples=200, deadline=None)
@given(built_features(st.tuples(st.sampled_from(FRAME_FAULTS),
                                st.just("empty_subshot")).flatmap(st.permutations)))
def test_validate_features_two_faults_name_what_the_per_frame_loop_names(case):
    assert_validates_like_the_per_frame_loop(*case)


def assert_validates_like_the_per_frame_loop(bins, subshots):
    features = corpus.SubshotFeatures("v", bins, subshots)
    try:
        corpus.validate_features(features)
        got = None
    except corpus.CorpusValidationError as exc:
        got = str(exc)
    assert got == frame_fault(bins, subshots)


def test_load_and_save_check_frames_through_validate_features(tmp_path):
    features = corpus.SubshotFeatures("v", 1, [np.array([[0.5, 0.25, 0.0]])])
    with mock.patch.object(corpus, "validate_features", wraps=corpus.validate_features) as check:
        with pytest.raises(corpus.CorpusValidationError, match="sums to 0.75"):
            corpus.save_features(tmp_path / "f.json", features)
        two_subshot_file(tmp_path / "g.json", [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        corpus.load_features(tmp_path / "g.json")
    assert check.call_count == 2


@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_features_non_finite_literal_is_named(tmp_path, literal):
    """An overflowing entry reads as infinite, and the frame check names its frame."""
    path = tmp_path / "f.json"
    path.write_text('{"video_id": "v", "bins_per_channel": 1, "subshots": '
                    '[{"index": 0, "frames": [[0.5, 0.5, %s]]}]}' % literal)
    fault = "negative histogram entry" if literal[0] == "-" else "histogram sums to inf, expected 1"
    with pytest.raises(corpus.CorpusValidationError) as info:
        corpus.load_features(path)
    assert str(info.value) == f"{path}: subshots[0].frames[0]: {fault}"


@pytest.mark.parametrize("entry", ['"0.5"', '{"a": 1}', "true", "null", "[0.5]", "1" + "0" * 400],
                         ids=["string", "object", "bool", "null", "nested", "int_beyond_float"])
def test_features_entry_that_is_not_a_number_is_refused_on_both_paths(tmp_path, entry):
    path = tmp_path / "f.json"
    path.write_text('{"video_id": "v", "bins_per_channel": 1, "subshots": ['
                    '{"index": 0, "frames": [[0.5, 0.5, 0.0]]}, '
                    '{"index": 1, "frames": [[1.0, 0.0, 0.0], [0.5, %s, 0.5]]}]}' % entry)
    for load in (corpus.load_features, checked_features):
        with pytest.raises(corpus.CorpusParseError) as info:
            load(path)
        assert str(info.value) == f"{path}: subshots[1].frames: ragged or non-numeric"


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


# annotations and ground truths: the parse reads 1e999 as inf, and the loader
# must name the field that holds it, wherever a row fails


def checked_annotations(path):
    return oracles.annotations_of(corpus.read_json(path), str(path))


def checked_ground_truths(path):
    return oracles.ground_truths_of(corpus.read_json(path), str(path))


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
    """An overflowing time reads as infinite, and the row reader names its field."""
    path = tmp_path / "a.json"
    path.write_text('{"video_id": "v", "subshot_seconds": 5.0, "subshots": '
                    '[{"index": 0, "start_s": 0.0, "end_s": 1e999, "text": "a"}]}')
    with pytest.raises(corpus.CorpusParseError) as info:
        corpus.load_annotations(path)
    assert str(info.value) == f"{path}: subshots[0].end_s: must be finite"
