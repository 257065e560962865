import contextlib
import io
import json
import os
import tempfile
from collections import Counter, OrderedDict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from vtseval import corpus
from vtseval.corpus import (
    CorpusIOError,
    CorpusParseError,
    CorpusValidationError,
    GroundTruthSentence,
    GroundTruthSummary,
    Subshot,
    SubshotFeatures,
    SummarySelection,
    VideoRecord,
)


class TestRoundTrips:
    """save(load(x)) must reproduce the fixture files byte for byte."""

    def test_annotations(self, data_dir, tmp_path):
        src = data_dir / "video12.annotations.json"
        corpus.save_annotations(tmp_path / "out.json", corpus.load_annotations(src))
        assert (tmp_path / "out.json").read_bytes() == src.read_bytes()

    def test_ground_truths(self, data_dir, tmp_path):
        src = data_dir / "video12.gts.json"
        gts = corpus.load_ground_truths(src)
        corpus.save_ground_truths(tmp_path / "out.json", gts, "video12")
        assert (tmp_path / "out.json").read_bytes() == src.read_bytes()

    def test_summary(self, data_dir, tmp_path):
        src = data_dir / "video12.summary_a.json"
        corpus.save_summary(tmp_path / "out.json", corpus.load_summary(src))
        assert (tmp_path / "out.json").read_bytes() == src.read_bytes()

    def test_features(self, data_dir, tmp_path):
        src = data_dir / "video12.features.json"
        corpus.save_features(tmp_path / "out.json", corpus.load_features(src))
        assert (tmp_path / "out.json").read_bytes() == src.read_bytes()


class TestLoadAnnotations:
    def test_well_formed(self, video12):
        assert len(video12) == 12
        assert video12.subshots[2].annotation == "I walked my dog at the park."
        assert video12.subshot_seconds == 5.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusIOError):
            corpus.load_annotations(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CorpusParseError):
            corpus.load_annotations(path)

    def test_unsorted_subshots_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "video_id": "v",
                    "subshot_seconds": 5,
                    "subshots": [
                        {"index": 0, "start_s": 5, "end_s": 10, "text": "b"},
                        {"index": 1, "start_s": 0, "end_s": 5, "text": "a"},
                    ],
                }
            )
        )
        with pytest.raises(CorpusValidationError, match="start_s"):
            corpus.load_annotations(path)

    def test_empty_annotation_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "video_id": "v",
                    "subshot_seconds": 5,
                    "subshots": [{"index": 0, "start_s": 0, "end_s": 5, "text": ""}],
                }
            )
        )
        with pytest.raises(CorpusValidationError, match=r"subshots\[0\]"):
            corpus.load_annotations(path)


class TestLoadSummary:
    def test_indices(self, data_dir, video12):
        summary = corpus.load_summary(data_dir / "video12.summary_a.json", video12)
        assert summary.indices == (2, 5, 7, 8)

    def test_out_of_range_index_names_it(self, tmp_path, video12):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"video_id": "video12", "indices": [0, 12]}))
        with pytest.raises(CorpusValidationError, match="12"):
            corpus.load_summary(path, video12)

    def test_duplicate_indices_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"video_id": "v", "indices": [1, 1]}))
        with pytest.raises(CorpusValidationError, match="strictly increasing"):
            corpus.load_summary(path)

    def test_keyframes_map_by_floor(self, tmp_path, video12):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps({"video_id": "video12", "keyframe_times_s": [12.3, 14.0, 0.0]})
        )
        summary = corpus.load_summary(path, video12)
        # 12.3s and 14.0s both fall in subshot 2 (5 s subshots); duplicates collapse
        assert summary.indices == (0, 2)

    def test_keyframes_need_video(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"video_id": "v", "keyframe_times_s": [1.0]}))
        with pytest.raises(CorpusParseError):
            corpus.load_summary(path)

    def test_spans_map_to_overlapped_subshots(self, tmp_path, video12):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps({"video_id": "video12", "spans": [{"start_s": 4.0, "end_s": 11.0}]})
        )
        summary = corpus.load_summary(path, video12)
        assert summary.indices == (0, 1, 2)

    def test_exactly_one_selection_key(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"video_id": "v", "indices": [0], "spans": []}))
        with pytest.raises(CorpusParseError, match="exactly one"):
            corpus.load_summary(path)

    @pytest.mark.parametrize("indices, message", [
        ([20, 5], "indices[0]: index 20 out of range for video with 12 subshots"),
        ([5, 3, 20], "indices[1]: indices must be strictly increasing"),
        ([3, -1], "indices[1]: negative subshot index -1"),
        ([0, 12], "indices[1]: index 12 out of range for video with 12 subshots"),
    ])
    def test_the_first_fault_is_named_index_by_index(self, tmp_path, video12, indices, message):
        """At each index in turn: negative, then not increasing, then out of the video's range;
        the selection's own rules run as it is built, the range after it."""
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"video_id": "video12", "indices": indices}))
        with pytest.raises(CorpusValidationError) as exc:
            corpus.load_summary(path, video12)
        assert str(exc.value) == f"{path}: {message}"


def _video(starts):
    return VideoRecord("v", 5.0, tuple(Subshot(i, s, s + 5.0, "dog") for i, s in enumerate(starts)))


@pytest.mark.parametrize("build, message", [
    (lambda: SummarySelection("v", (1, 0, 1)), "indices[1]: indices must be strictly increasing"),
    (lambda: GroundTruthSummary("a", (GroundTruthSentence(0, 1, "dog"),
                                      GroundTruthSentence(3, 1, "lake"))),
     "summaries[a].sentences: ranks must be a permutation of 1..2"),
    (lambda: _video([5.0, 0.0]), "subshots[1].start_s: subshots not sorted by start time"),
    (lambda: SummarySelection("v", (True, 2.0)), "indices[0]: expected int, got bool"),
    (lambda: SummarySelection("v", (0, 2.0)), "indices[1]: expected int, got float"),
], ids=["unsorted_indices", "two_rank_1_sentences", "start_times_backwards", "bool_index",
        "float_index"])
def test_a_record_its_loader_would_refuse_is_not_built(build, message):
    """Each was once built, and scored or saved: the constructor runs the loader's rules."""
    with pytest.raises(CorpusValidationError) as exc:
        build()
    assert str(exc.value) == message


class TestGroundTruths:
    def test_loads_fixture(self, gts12):
        assert [gt.author_id for gt in gts12] == ["gt_a", "gt_b"]
        assert len(gts12[0].sentences) == 6

    def test_bad_rank_multiset_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "video_id": "v",
                    "summaries": [
                        {
                            "author_id": "a",
                            "sentences": [
                                {"temporal_pos": 0, "rank": 1, "text": "x"},
                                {"temporal_pos": 1, "rank": 3, "text": "y"},
                            ],
                        }
                    ],
                }
            )
        )
        with pytest.raises(CorpusValidationError, match="permutation"):
            corpus.load_ground_truths(path)

    def test_non_increasing_temporal_pos_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "video_id": "v",
                    "summaries": [
                        {
                            "author_id": "a",
                            "sentences": [
                                {"temporal_pos": 3, "rank": 1, "text": "x"},
                                {"temporal_pos": 3, "rank": 2, "text": "y"},
                            ],
                        }
                    ],
                }
            )
        )
        with pytest.raises(CorpusValidationError, match="temporal_pos"):
            corpus.load_ground_truths(path)

    def test_saving_no_ground_truth_is_refused(self, tmp_path):
        path = tmp_path / "g.json"
        with pytest.raises(CorpusValidationError) as exc:
            corpus.save_ground_truths(path, [], "v")
        assert str(exc.value) == "summaries: must contain at least one ground truth"
        assert not path.exists()

    def test_an_author_named_twice_is_refused_on_save(self, gts12, tmp_path):
        path = tmp_path / "g.json"
        with pytest.raises(CorpusValidationError) as exc:
            corpus.save_ground_truths(path, [*gts12, gts12[0]], "video12")
        assert str(exc.value) == "summaries[2].author_id: 'gt_a' repeats summaries[0]"
        assert not path.exists()

    def test_an_author_named_twice_is_refused_on_load(self, data_dir, tmp_path):
        data = json.loads((data_dir / "video12.gts.json").read_text())
        data["summaries"] = [data["summaries"][1], *data["summaries"]]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CorpusValidationError) as exc:
            corpus.load_ground_truths(path)
        assert str(exc.value) == f"{path}: summaries[2].author_id: 'gt_b' repeats summaries[0]"

    def test_a_summary_s_own_fault_is_named_before_a_repeated_author(self, data_dir, tmp_path):
        data = json.loads((data_dir / "video12.gts.json").read_text())
        data["summaries"].append({**data["summaries"][0], "sentences": []})
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CorpusValidationError) as exc:
            corpus.load_ground_truths(path)
        assert str(exc.value) == f"{path}: summaries[gt_a].sentences: must be non-empty"


class TestFeatures:
    def test_records_compare_and_hash_by_identity(self):
        """Array fields have no single truth value of equality: records compare as objects."""
        a, b = (SubshotFeatures("v", 1, [[[1.0, 0.0, 0.0]]]) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_loads_fixture(self, features12):
        assert len(features12) == 12
        assert features12.bins_per_channel == 16
        for frames in features12.subshots:
            assert frames.shape == (2, 48)
            assert np.allclose(frames.sum(axis=1), 1.0, atol=1e-9)

    def test_non_normalized_histogram_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps(
                {
                    "video_id": "v",
                    "bins_per_channel": 1,
                    "subshots": [{"index": 0, "frames": [[0.5, 0.2, 0.2]]}],
                }
            )
        )
        with pytest.raises(CorpusValidationError, match="sums to"):
            corpus.load_features(path)

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps(
                {
                    "video_id": "v",
                    "bins_per_channel": 1,
                    "subshots": [{"index": 0, "frames": [[1.5, -0.3, -0.2]]}],
                }
            )
        )
        with pytest.raises(CorpusValidationError, match="negative"):
            corpus.load_features(path)

    def test_wrong_dimension_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps(
                {
                    "video_id": "v",
                    "bins_per_channel": 2,
                    "subshots": [{"index": 0, "frames": [[1.0, 0.0, 0.0]]}],
                }
            )
        )
        with pytest.raises(CorpusValidationError, match="bins"):
            corpus.load_features(path)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_a_bad_width_without_subshots_is_refused_by_name(self, tmp_path, bins):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"video_id": "v", "bins_per_channel": bins, "subshots": []}))
        with pytest.raises(CorpusValidationError, match="bins_per_channel: must be positive"):
            corpus.load_features(path)

    @pytest.mark.parametrize("video_id, bins, message", [
        ("v", 1.0, "bins_per_channel: expected int, got float"),
        ("v", True, "bins_per_channel: expected int, got bool"),
        ("v", np.int64(1), "bins_per_channel: expected int, got int64"),
        (42, 1, "video_id: expected str, got int"),
        (None, 1.0, "video_id: expected str, got NoneType"),
    ])
    def test_a_field_of_another_type_is_refused_by_name(self, video_id, bins, message):
        """save_features would write the field, and load_features would refuse the file."""
        with pytest.raises(CorpusValidationError) as exc:
            SubshotFeatures(video_id, bins, [[[1.0, 0.0, 0.0]]])
        assert str(exc.value) == message

    @pytest.mark.parametrize("bins", [10**19, 10**400], ids=["past_int64", "400_digits"])
    def test_a_huge_width_without_subshots_is_refused_by_name(self, tmp_path, bins):
        """numpy once refused the empty matrix first: Maximum allowed dimension exceeded."""
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"video_id": "v", "bins_per_channel": bins, "subshots": []}))
        with pytest.raises(CorpusValidationError) as exc:
            corpus.load_features(path)
        assert str(exc.value) == f"{path}: subshots: at least one subshot required"


def test_an_unreadable_file_is_named_as_given_and_as_a_path(tmp_path, monkeypatch):
    """The OSError text names the path normalised, as Path.read_bytes named it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x").mkdir()
    with pytest.raises(CorpusIOError) as exc:
        corpus.read_bytes("./x//missing.json")
    assert str(exc.value) == ("cannot read ./x//missing.json: [Errno 2] "
                              "No such file or directory: 'x/missing.json'")


def test_write_is_atomic(tmp_path):
    target = tmp_path / "out.json"
    corpus.write_canonical(target, {"a": 1})
    assert target.exists()
    assert not (tmp_path / "out.json.tmp").exists()


def _stray_files(directory, keep):
    return sorted(p.name for p in directory.iterdir() if p.name != keep)


def test_write_keeps_umask_mode(tmp_path):
    import os
    import stat

    umask = os.umask(0o027)
    try:
        target = tmp_path / "out.json"
        corpus.write_canonical(target, {"a": 1})
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
    finally:
        os.umask(umask)


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    import os

    target = tmp_path / "out.json"
    corpus.write_canonical(target, {"a": 1})

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(CorpusIOError, match="disk full"):
        corpus.write_canonical(target, {"a": 2})
    assert json.loads(target.read_text()) == {"a": 1}
    assert _stray_files(tmp_path, "out.json") == []


def _write_repeatedly(target, payload, barrier, failures):
    barrier.wait()
    for _ in range(30):
        try:
            corpus.write_canonical(target, payload)
        except Exception:  # counted and asserted by the parent
            with failures.get_lock():
                failures.value += 1


def test_concurrent_writers_leave_one_valid_file(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    target = tmp_path / "out.json"
    payloads = [{"writer": w, "rows": list(range(50000))} for w in range(3)]
    barrier = ctx.Barrier(len(payloads))
    failures = ctx.Value("i", 0)
    procs = [
        ctx.Process(target=_write_repeatedly, args=(target, p, barrier, failures))
        for p in payloads
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(120)
    assert [proc.exitcode for proc in procs] == [0, 0, 0]
    assert failures.value == 0
    assert corpus.read_json(target) in payloads
    assert _stray_files(tmp_path, "out.json") == []


class TestNonFinite:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    def test_read_rejects_non_finite_literals(self, tmp_path, literal):
        """NaN and Infinity are refused at parse by name; 1e999 parses as infinite and
        is refused by the field that reads it."""
        path = tmp_path / "s.json"
        path.write_text(_annotations_text("v").replace("5.0", literal, 1))  # subshot_seconds
        if "e999" in literal:
            assert corpus.read_json(path)["subshot_seconds"] == float(literal)
            message = f"{path}.subshot_seconds: must be finite"
        else:
            message = f"{path}: non-finite number {literal} is not allowed"
            with pytest.raises(CorpusParseError) as info:
                corpus.read_json(path)
            assert str(info.value) == message
        with pytest.raises(CorpusParseError) as info:
            corpus.load_annotations(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_write_refuses_non_finite(self, tmp_path, value):
        target = tmp_path / "out.json"
        with pytest.raises(CorpusValidationError, match="out.json"):
            corpus.write_canonical(target, {"score": value})
        assert list(tmp_path.iterdir()) == []


_ROW = {"index": 1, "start_s": 5.0, "end_s": 10.0, "text": "a dog"}
_SENTENCE = {"temporal_pos": 1, "rank": 2, "text": "a dog"}
# (field, a wrong value, the type the loader expects): a string for a number,
# true for an int and for a float, a list and a number for text
_ROW_TYPES = [
    ("index", "1", "int"), ("index", True, "int"), ("index", 1.0, "int"),
    ("start_s", "5", "float"), ("start_s", True, "float"),
    ("end_s", "10", "float"), ("end_s", False, "float"),
    ("text", ["a dog"], "str"), ("text", 7, "str"),
]
_SENTENCE_TYPES = [
    ("temporal_pos", "1", "int"), ("temporal_pos", True, "int"), ("temporal_pos", 1.0, "int"),
    ("rank", "2", "int"), ("rank", False, "int"),
    ("text", ["a dog"], "str"), ("text", None, "str"),
]
_NOT_OBJECTS = [["a dog"], "a dog", 3, None]


def _annotations(tmp_path, row):
    path = tmp_path / "a.json"
    first = {"index": 0, "start_s": 0.0, "end_s": 5.0, "text": "a cat"}
    path.write_text(json.dumps({"video_id": "v", "subshot_seconds": 5.0,
                                "subshots": [first, row]}))
    return path


def _ground_truths(tmp_path, sentence):
    path = tmp_path / "g.json"
    first = {"temporal_pos": 0, "rank": 1, "text": "a cat"}
    path.write_text(json.dumps({"video_id": "v", "summaries": [
        {"author_id": "a", "sentences": [{"temporal_pos": 0, "rank": 1, "text": "x"}]},
        {"author_id": "b", "sentences": [first, sentence]},
    ]}))
    return path


def _parse_error(load, path) -> str:
    with pytest.raises(CorpusParseError) as info:
        load(path)
    return str(info.value)


class TestRowErrors:
    """Each malformed row field is named exactly; rows whose values have other types fall
    back to the field-by-field check, which words the error."""

    @pytest.mark.parametrize("key", list(_ROW))
    def test_annotation_missing_field(self, tmp_path, key):
        row = {k: v for k, v in _ROW.items() if k != key}
        path = _annotations(tmp_path, row)
        assert _parse_error(corpus.load_annotations, path) == (
            f"{path}: subshots[1]: missing field {key!r}"
        )

    @pytest.mark.parametrize("key,value,kind", _ROW_TYPES)
    def test_annotation_wrong_type(self, tmp_path, key, value, kind):
        path = _annotations(tmp_path, {**_ROW, key: value})
        assert _parse_error(corpus.load_annotations, path) == (
            f"{path}: subshots[1].{key}: expected {kind}"
        )

    @pytest.mark.parametrize("raw", _NOT_OBJECTS)
    def test_annotation_row_not_an_object(self, tmp_path, raw):
        path = _annotations(tmp_path, raw)
        assert _parse_error(corpus.load_annotations, path) == (
            f"{path}: subshots[1] must be an object"
        )

    def test_annotation_first_bad_field_is_named(self, tmp_path):
        path = _annotations(tmp_path, {"start_s": "5", "end_s": 10.0, "text": ["a"]})
        assert _parse_error(corpus.load_annotations, path) == (
            f"{path}: subshots[1]: missing field 'index'"
        )

    @pytest.mark.parametrize("key", list(_SENTENCE))
    def test_sentence_missing_field(self, tmp_path, key):
        sentence = {k: v for k, v in _SENTENCE.items() if k != key}
        path = _ground_truths(tmp_path, sentence)
        assert _parse_error(corpus.load_ground_truths, path) == (
            f"{path}: summaries[1].sentences[1]: missing field {key!r}"
        )

    @pytest.mark.parametrize("key,value,kind", _SENTENCE_TYPES)
    def test_sentence_wrong_type(self, tmp_path, key, value, kind):
        path = _ground_truths(tmp_path, {**_SENTENCE, key: value})
        assert _parse_error(corpus.load_ground_truths, path) == (
            f"{path}: summaries[1].sentences[1].{key}: expected {kind}"
        )

    @pytest.mark.parametrize("raw", _NOT_OBJECTS)
    def test_sentence_not_an_object(self, tmp_path, raw):
        path = _ground_truths(tmp_path, raw)
        assert _parse_error(corpus.load_ground_truths, path) == (
            f"{path}: summaries[1].sentences[1] must be an object"
        )

    def test_int_literal_in_float_field_loads_as_float(self, tmp_path):
        path = _annotations(tmp_path, {**_ROW, "start_s": 5, "end_s": 10})
        shot = corpus.load_annotations(path).subshots[1]
        assert (shot.start_s, shot.end_s) == (5.0, 10.0)
        assert type(shot.start_s) is float and type(shot.end_s) is float
        assert corpus.load_annotations(path) == corpus.load_annotations(
            _annotations(tmp_path, _ROW)
        )

    @pytest.mark.parametrize("key", ["start_s", "end_s"])
    def test_int_literal_beyond_float_range_is_named(self, tmp_path, key):
        path = _annotations(tmp_path, _ROW)
        path.write_text(path.read_text().replace(
            f'"{key}": {_ROW[key]}', f'"{key}": 1' + "0" * 400))
        assert _parse_error(corpus.load_annotations, path) == (
            f"{path}: subshots[1].{key}: number out of float range"
        )

    def test_keyframe_time_beyond_float_range_is_named(self, tmp_path, video12):
        path = tmp_path / "s.json"
        path.write_text('{"video_id": "video12", "keyframe_times_s": [0, 1%s]}' % ("0" * 400))
        assert _parse_error(lambda p: corpus.load_summary(p, video12), path) == (
            f"{path}: keyframe_times_s[1]: number out of float range"
        )

    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    def test_keyframe_time_that_overflows_is_named(self, tmp_path, video12, literal):
        path = tmp_path / "s.json"
        path.write_text('{"video_id": "video12", "keyframe_times_s": [0, %s]}' % literal)
        assert _parse_error(lambda p: corpus.load_summary(p, video12), path) == (
            f"{path}: keyframe_times_s[1]: must be finite"
        )

    def test_span_beyond_float_range_is_named(self, tmp_path, video12):
        path = tmp_path / "s.json"
        path.write_text('{"video_id": "video12", "spans": [{"start_s": 0.0, "end_s": 1%s}]}'
                        % ("0" * 400))
        assert _parse_error(lambda p: corpus.load_summary(p, video12), path) == (
            f"{path}: spans[0].end_s: number out of float range"
        )


@st.composite
def span_cases(draw):
    """A video whose subshots may overlap (sorted starts, unsorted ends) and a spans list."""
    starts = sorted(draw(st.lists(st.integers(0, 20), min_size=1, max_size=10)))
    shots = tuple(Subshot(index=i, start_s=s / 2, end_s=(s + draw(st.integers(1, 12))) / 2,
                          annotation="dog")
                  for i, s in enumerate(starts))
    video = VideoRecord(video_id="v", subshot_seconds=0.5, subshots=shots)
    span = st.builds(lambda a, d: {"start_s": a / 2, "end_s": (a + d) / 2},
                     st.integers(-4, 40), st.integers(-2, 16))
    faulty = st.sampled_from([[], {"start_s": 1.0}, {"start_s": 0, "end_s": "2"}])
    spans = draw(st.lists(st.one_of(span, span, span, faulty), max_size=5))
    return video, spans


@settings(max_examples=300, deadline=None)
@given(span_cases())
def test_span_bisection_matches_the_scan(case):
    """load_summary's overlap mask picks the subshots that a scan of each subshot picks."""
    video, spans = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps({"video_id": "v", "spans": spans}))
        try:
            want = oracles.span_indices_scan({"spans": spans}, video, str(path))
        except (CorpusParseError, CorpusValidationError) as e:
            with pytest.raises(type(e)) as got:
                corpus.load_summary(path, video)
            assert str(got.value) == str(e)
        else:
            assert corpus.load_summary(path, video).indices == want


# ---------------------------------------------------------------------------
# the load memo: annotations, ground truths and features are parsed and
# checked once per distinct file content, and a hit behaves like a cold load


def _memo_outcome(load, *args):
    """What a load gives: a comparable value, or the exception's class and message."""
    try:
        value = load(*args)
    except corpus.CorpusError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, SubshotFeatures):
        value = (value.video_id, value.bins_per_channel, value.frames.tolist(),
                 value.offsets.tolist())
    return "ok", value


def _cold_outcome(load, *args):
    """The outcome of the same load with the memo cleared first, leaving the memo as it was."""
    with mock.patch.object(corpus, "_records", OrderedDict()), \
            mock.patch.object(corpus, "_loads", Counter()):
        return _memo_outcome(load, *args)


def _features_text(video_id, rows, bins=1):
    return json.dumps({"video_id": video_id, "bins_per_channel": bins, "subshots": [
        {"index": i, "frames": frames} for i, frames in enumerate(rows)]})


def _gts_text(video_id, ranks=(1, 2)):
    return json.dumps({"video_id": video_id, "summaries": [{"author_id": "a", "sentences": [
        {"temporal_pos": i, "rank": r, "text": f"a dog {i}"} for i, r in enumerate(ranks)]}]})


def _annotations_text(video_id, m=2, seconds=5.0):
    return json.dumps({"video_id": video_id, "subshot_seconds": seconds, "subshots": [
        {"index": i, "start_s": 5.0 * i, "end_s": 5.0 * i + 5.0, "text": f"shot {i}"}
        for i in range(m)]})


GOOD_FRAMES = [[[1.0, 0.0, 0.0]], [[0.0, 0.5, 0.5]]]
REFUSED = {  # a file each loader refuses: 1e999 in a field it reads
    "annotations": _annotations_text("v").replace("5.0", "1e999", 1),
    "ground_truths": _gts_text("v").replace('"rank": 1', '"rank": 1e999'),
    "features": _features_text("v", GOOD_FRAMES).replace("0.5", "1e999", 1),
}
# the error each refusal raises, the path written as {}: the field is named
REFUSAL = {
    "annotations": (CorpusParseError, "{}.subshot_seconds: must be finite"),
    "ground_truths": (CorpusParseError, "{}: summaries[0].sentences[0].rank: expected int"),
    "features": (CorpusValidationError,
                 "{}: subshots[1].frames[0]: histogram sums to inf, expected 1"),
}
GOOD = {"annotations": _annotations_text("v"), "ground_truths": _gts_text("v"),
        "features": _features_text("v", GOOD_FRAMES)}
LOADERS = {"annotations": corpus.load_annotations, "ground_truths": corpus.load_ground_truths,
           "features": corpus.load_features}


@contextlib.contextmanager
def counting_opens(path):
    """Count the opens of path, through open() or pathlib."""
    opens = []
    real = io.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            opens.append(file)
        return real(file, *args, **kwargs)

    with mock.patch("io.open", counted), mock.patch("builtins.open", counted):
        yield opens


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_each_load_reads_the_file_once(tmp_path, kind):
    path = tmp_path / "f.json"
    for text in (REFUSED[kind], GOOD[kind], GOOD[kind]):  # refused, then a miss, then a hit
        path.write_text(text)
        with counting_opens(path) as opens:
            _memo_outcome(LOADERS[kind], path)
        assert len(opens) == 1
    assert corpus.load_memo_info()["hits"] == {kind: 1}
    with counting_opens(path) as opens:
        corpus.read_json(path)
    assert len(opens) == 1


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_the_refused_file_names_its_field_and_is_not_held(tmp_path, kind):
    path = tmp_path / "f.json"
    path.write_text(REFUSED[kind])
    error, message = REFUSAL[kind]
    for _ in range(2):
        with pytest.raises(corpus.CorpusError) as info:
            LOADERS[kind](path)
        assert (type(info.value), str(info.value)) == (error, message.format(path))
    assert corpus.load_memo_info() == {"hits": {}, "misses": {kind: 2}, "files": 0, "bytes": 0}


def test_loaded_frames_are_read_only(features12):
    for array in (features12.frames, features12.offsets, features12.subshots[3]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    built = SubshotFeatures("v", 1, [np.array([[1.0, 0.0, 0.0]])])
    with pytest.raises(ValueError, match="read-only"):
        built.subshots[0][0, 0] = 0.5


def test_ground_truths_are_a_new_list_each_load(data_dir):
    path = data_dir / "video12.gts.json"
    first = corpus.load_ground_truths(path)
    want = list(first)
    first.pop()
    first.append(first[0])
    second = corpus.load_ground_truths(path)
    assert second == want and second is not first
    assert corpus.load_memo_info()["hits"] == {"ground_truths": 1}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_same_size_rewrite_with_the_old_mtime_is_reloaded(tmp_path, kind):
    path = tmp_path / "f.json"
    old = GOOD[kind]
    new = old.replace('"v"', '"w"').replace("dog", "cat")  # ground truths hold no video id
    assert len(old) == len(new)
    path.write_text(old)
    before = _memo_outcome(LOADERS[kind], path)
    stat = path.stat()
    path.write_text(new)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    after = _memo_outcome(LOADERS[kind], path)
    assert after == _cold_outcome(LOADERS[kind], path) != before


def test_a_file_broken_in_place_fails_then_loads_once_fixed(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(_gts_text("v"))
    good = corpus.load_ground_truths(path)
    path.write_text(_gts_text("v", ranks=(1, 3)))
    with pytest.raises(CorpusValidationError) as info:
        corpus.load_ground_truths(path)
    assert str(info.value) == f"{path}: summaries[a].sentences: ranks must be a permutation of 1..2"
    path.write_text('{"video_id": "v", "summaries": [')
    assert _memo_outcome(corpus.load_ground_truths, path) == (
        "CorpusParseError", f"{path}: invalid JSON: Expecting value: line 1 column 33 (char 32)")
    path.write_text(_gts_text("v"))
    assert corpus.load_ground_truths(path) == good
    assert corpus.load_memo_info()["hits"] == {"ground_truths": 1}


@pytest.mark.parametrize("kind", ["ground_truths", "features"])
def test_a_hit_raises_what_a_cold_load_raises(tmp_path, video12, data_dir, kind):
    source = data_dir / f"video12.{'gts' if kind == 'ground_truths' else 'features'}.json"
    path = tmp_path / "copy.json"  # the same bytes at another path: errors name this one
    path.write_bytes(source.read_bytes())
    short = VideoRecord(video12.video_id, video12.subshot_seconds, video12.subshots[:5])
    other = VideoRecord("other", video12.subshot_seconds, video12.subshots)
    load = LOADERS[kind]
    for video in (None, video12, other, short):
        cold = _cold_outcome(load, path, video)
        for file in (source, path):
            _memo_outcome(load, file)  # a miss the first time, then hits
        assert _memo_outcome(load, path, video) == cold
    assert _cold_outcome(load, path, other) == (
        "CorpusValidationError",
        f"video_id: {path} is for video 'video12', the annotations for 'other'")
    if kind == "features":
        assert _cold_outcome(load, path, short) == (
            "CorpusValidationError", f"subshots: {path} covers 12 subshots, the video has 5")
    assert corpus.load_memo_info()["misses"] == {kind: 1}


OTHER_VIDEO = VideoRecord("w", 5.0, (Subshot(0, 0.0, 5.0, "s"), Subshot(1, 5.0, 10.0, "s")))


@pytest.mark.parametrize("kind", ["ground_truths", "features"])
def test_a_file_for_another_video_names_its_own_fault(tmp_path, video12, kind):
    path = tmp_path / "f.json"
    path.write_text(REFUSED[kind].replace('"video_id": "v"', '"video_id": "w"'))
    error, message = REFUSAL[kind]
    for video in (video12, OTHER_VIDEO):
        assert _memo_outcome(LOADERS[kind], path, video) == (error.__name__, message.format(path))


@pytest.mark.parametrize("kind", ["ground_truths", "features"])
def test_a_file_refused_only_for_its_video_is_held(tmp_path, video12, kind):
    path = tmp_path / "f.json"
    path.write_text(GOOD[kind].replace('"video_id": "v"', '"video_id": "w"'))
    assert _memo_outcome(LOADERS[kind], path, video12) == (
        "CorpusValidationError",
        f"video_id: {path} is for video 'w', the annotations for 'video12'")
    assert _memo_outcome(LOADERS[kind], path, OTHER_VIDEO)[0] == "ok"
    assert corpus.load_memo_info() == {"hits": {kind: 1}, "misses": {kind: 1}, "files": 1,
                                       "bytes": path.stat().st_size}


def test_eviction_keeps_the_held_bytes_within_the_budget(tmp_path, monkeypatch):
    paths = []
    for i in range(4):
        paths.append(tmp_path / f"a{i}.json")
        paths[-1].write_text(_annotations_text(f"v{i}"))
    size = paths[0].stat().st_size
    monkeypatch.setattr(corpus, "LOAD_MEMO_BYTES", 2 * size + size // 2)
    for path in paths:
        corpus.load_annotations(path)
        assert corpus.load_memo_info()["bytes"] <= corpus.LOAD_MEMO_BYTES
    assert corpus.load_memo_info() == {"hits": {}, "misses": {"annotations": 4}, "files": 2,
                                       "bytes": 2 * size}
    corpus.load_annotations(paths[2])  # held: now the most recently used
    corpus.load_annotations(paths[1])  # evicted: a miss that evicts paths[3]
    corpus.load_annotations(paths[2])
    assert corpus.load_memo_info()["hits"] == {"annotations": 2}
    corpus.load_annotations(paths[3])
    assert corpus.load_memo_info()["misses"] == {"annotations": 6}

    big = tmp_path / "big.json"
    big.write_text(_annotations_text("big", m=40))
    monkeypatch.setattr(corpus, "LOAD_MEMO_BYTES", big.stat().st_size - 1)
    held = corpus.load_memo_info()["files"]
    for _ in range(2):
        corpus.load_annotations(big)
    info = corpus.load_memo_info()
    assert info["misses"] == {"annotations": 8} and info["files"] == held
    assert info["bytes"] <= corpus.LOAD_MEMO_BYTES


MEMO_TEXTS = [GOOD["annotations"], _annotations_text("v", m=3), GOOD["ground_truths"],
              _gts_text("w"), _gts_text("v", ranks=(2, 2)), GOOD["features"],
              _features_text("w", GOOD_FRAMES), _features_text("v", GOOD_FRAMES + [[[0.0, 0.0, 1.0]]]),
              _features_text("v", [[[1.0, 0.0, 0.5]]] + GOOD_FRAMES[1:]), REFUSED["features"],
              '{"video_id": "v"', "[]"]
MEMO_VIDEOS = [None, VideoRecord("v", 5.0, tuple(Subshot(i, 5.0 * i, 5.0 * i + 5.0, "s")
                                                 for i in range(2))),
               VideoRecord("w", 5.0, (Subshot(0, 0.0, 5.0, "s"),))]
memo_steps = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 2), st.integers(0, len(MEMO_TEXTS) - 1)),
    st.tuples(st.sampled_from(sorted(LOADERS)), st.integers(0, 2),
              st.integers(0, len(MEMO_VIDEOS) - 1))), max_size=25)


@settings(max_examples=150, deadline=None)
@given(memo_steps, st.sampled_from([1 << 24, 600]))
# a hit makes its file the most recently used: the last load evicts the ground truths
@example([("annotations", 0, 0), ("ground_truths", 2, 0), ("annotations", 0, 0),
          ("annotations", 1, 0)], 450)
# a file over the budget is never held, and evicts nothing
@example([("annotations", 0, 0), ("annotations", 1, 0)], 200)
def test_every_load_equals_a_cold_load(steps, budget):
    """A load gives what a cold load gives, and the memo holds what a model of it holds.

    The model holds each (kind, bytes) that loaded without the video and
    fits the budget, least recently used first, dropping the oldest while
    the bytes held exceed the budget; the held bytes and files, and the
    hits and misses, must equal the model's after every step.
    """
    corpus.clear_load_memo()
    held, hits, loads = OrderedDict(), 0, 0
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(corpus, "LOAD_MEMO_BYTES", budget):
        paths = [Path(tmp) / f"f{i}.json" for i in range(3)]
        for i, path in enumerate(paths):
            path.write_text(MEMO_TEXTS[i])
        for op, i, j in steps:
            if op == "write":
                paths[i].write_text(MEMO_TEXTS[j])
            else:
                load = LOADERS[op]
                args = (paths[i],) if op == "annotations" else (paths[i], MEMO_VIDEOS[j])
                assert _memo_outcome(load, *args) == _cold_outcome(load, *args)
                key, loads = (op, paths[i].read_bytes()), loads + 1
                if key in held:
                    held.move_to_end(key)
                    hits += 1
                elif len(key[1]) <= budget and _cold_outcome(load, paths[i])[0] == "ok":
                    held[key] = None
                    while sum(len(raw) for _, raw in held) > budget:
                        held.popitem(last=False)
            info = corpus.load_memo_info()
            assert info["bytes"] == sum(len(raw) for _, raw in held) <= budget
            assert info["files"] == len(held)
            assert sum(info["hits"].values()) == hits
            assert sum(info["hits"].values()) + sum(info["misses"].values()) == loads
