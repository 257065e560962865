"""corpus.canonical_dumps and write_canonical, pinned to the stdlib encoder.

Every output file is canonical JSON: ``json.dumps(obj, ensure_ascii=False,
sort_keys=True, indent=2, allow_nan=False)`` plus a newline. vtseval
writes it with its own encoder, so these tests hold that encoder to the
stdlib's text and exception classes on arbitrary JSON trees, and hold
analysis.TripleRecords' own rendering to the text of its record dicts
(oracles.triple_records).
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import analysis, corpus
from vtseval.corpus import CorpusValidationError, canonical_dumps

import oracles
from test_compare import videos


def stdlib(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False) + "\n"


def stdlib_error(obj) -> type:
    try:
        stdlib(obj)
    except Exception as exc:  # the class the stdlib raises is the one under test
        return type(exc)
    raise AssertionError(f"the stdlib encodes {obj!r}")


EDGE_SCALARS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.5e300, 2**53 + 1, -(2**63),
                10**40, True, False, None, "", "\x00\x1f\x7f\"\\/", "é  😀퟿"]
scalars = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_SCALARS))
keys = st.text(max_size=6) | st.sampled_from(["", "a", "A", "é", "\x00", "aa", "a\x00"])
# lists of plain numbers take the one-piece path; bools and mixed lists do not
number_lists = st.lists(st.integers() | st.floats(allow_nan=False, allow_infinity=False)
                        | st.sampled_from([True, -0.0, 5e-324]), max_size=6)
trees = st.recursive(
    scalars | number_lists,
    lambda kids: (st.lists(kids, max_size=4) | st.dictionaries(keys, kids, max_size=4)
                  | st.tuples(kids, kids)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_equals_the_stdlib_on_json_trees(obj):
    assert canonical_dumps(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [
    {}, [], {"a": {}, "b": [], "c": [[], [{}]]}, [[[]]], {"": {"": []}},
    {1: "int", 2.5: "float", -3: "neg"}, {None: "none"}, {True: 1}, [1, 1.0, -0.0, 10**30],
    list(range(50)), np.float64(0.1), [np.float64(-0.0)],
])
def test_equals_the_stdlib_on_named_cases(obj):
    assert canonical_dumps(obj) == stdlib(obj)


def circular():
    loop = {"a": [1]}
    loop["a"].append(loop)
    return loop


@pytest.mark.parametrize("obj", [
    math.nan, math.inf, -math.inf, [1.0, math.nan], [1, 2, -math.inf], {"a": [0.5, math.inf]},
    {math.nan: 1}, {"a": object()}, [1, {2, 3}], [np.int64(3)], b"bytes", {(1, 2): 0},
    {"a": 1, 2: 3}, circular(),
])
def test_raises_the_stdlib_exception_class(obj):
    with pytest.raises(stdlib_error(obj)):
        canonical_dumps(obj)


@settings(max_examples=40, deadline=None)
@given(videos(), trees)
def test_triple_records_render_as_their_dicts(inputs, other):
    video, features = inputs
    out = analysis.compare_triples(video, features)
    records = out["triples"]
    as_dicts = {**out, "triples": oracles.triple_records(records)}
    assert canonical_dumps(out) == stdlib(as_dicts)
    nested = {"deeper": [other, {"triples": records}], "top": records}
    assert canonical_dumps(nested) == stdlib({"deeper": [other, {"triples": as_dicts["triples"]}],
                                              "top": as_dicts["triples"]})


def test_triple_records_with_no_triples_render_as_an_empty_list(video12, features12):
    short = corpus.SubshotFeatures("v", features12.bins_per_channel, features12.subshots[:2])
    video = corpus.VideoRecord("v", 5.0, video12.subshots[:2])
    out = analysis.compare_triples(video, short)
    assert canonical_dumps(out) == stdlib({**out, "triples": []})


def with_score(records: analysis.TripleRecords, row: int, value: float):
    """records with record row's pb second_score, the cell (y, ref) of pixel, set to value."""
    ref, _, y = oracles.triples_of(records.m)[row]
    pixel = records.pixel.copy()
    pixel[y, ref] = value
    return analysis.TripleRecords(records.m, pixel, records.text, records.codes)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_triple_records_refuse_a_non_finite_score(video12, features12, value):
    records = with_score(analysis.compare_triples(video12, features12)["triples"], 7, value)
    with pytest.raises(ValueError) as got:
        canonical_dumps({"triples": records})
    with pytest.raises(ValueError) as want:
        stdlib({"triples": oracles.triple_records(records)})
    assert str(got.value) == str(want.value)


# floats for the per-value writers: signed zeros, subnormals and a few values that repeat
CELL_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1, -1.0, 1.0]
cells = st.one_of(
    st.sampled_from(CELL_EDGES),
    st.floats(allow_nan=False, allow_infinity=False),  # in effect all distinct
    st.sampled_from([0.25, -0.5, 1 / 3]),
)


@st.composite
def triple_records(draw):
    """TripleRecords of 3-7 subshots with arbitrary cells and codes."""
    m = draw(st.integers(3, 7))
    pixel, text = (np.array(draw(st.lists(cells, min_size=m * m, max_size=m * m))).reshape(m, m)
                   for _ in range(2))
    k = m * (m - 1) * (m - 2) // 2
    codes = np.array(draw(st.lists(st.integers(0, 3), min_size=3 * k, max_size=3 * k)),
                     dtype=np.uint8).reshape(k, 3)
    return analysis.TripleRecords(m, pixel, text, codes)


@settings(max_examples=80, deadline=None)
@given(triple_records(), st.integers(0, 3))
def test_triple_records_render_any_cells_as_their_dicts(records, depth):
    obj = records
    for _ in range(depth):
        obj = {"triples": [obj]}
    as_dicts = oracles.triple_records(records)
    for _ in range(depth):
        as_dicts = {"triples": [as_dicts]}
    assert canonical_dumps(obj) == stdlib(as_dicts)


@settings(max_examples=80, deadline=None)
@given(triple_records(), st.lists(st.tuples(st.booleans(), st.integers(0, 48),
                                            st.sampled_from([math.nan, math.inf, -math.inf])),
                                  min_size=1, max_size=3))
def test_a_non_finite_cell_is_named_first_in_file_order(records, bad):
    """Cells anywhere, the diagonal included, which no record reads."""
    m = records.m
    for in_pixel, cell, value in bad:
        (records.pixel if in_pixel else records.text).flat[cell % (m * m)] = value
    try:
        want = stdlib(oracles.triple_records(records))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            canonical_dumps(records)
        assert str(got.value) == str(exc)
    else:
        assert canonical_dumps(records) == want


@st.composite
def feature_records(draw):
    """Valid features of 1-5 subshots of 1-3 frames: each frame's entries are cells, made
    non-negative and small, and a last entry that brings the frame's sum to 1."""
    width = 3 * draw(st.integers(1, 3))
    subshots = []
    for _ in range(draw(st.integers(1, 5))):
        frames = []
        for _ in range(draw(st.integers(1, 3))):
            head = [v if v <= 0.5 / width else v % (0.5 / width)
                    for v in map(abs, draw(st.lists(cells, min_size=width - 1,
                                                    max_size=width - 1)))]
            head = [-0.0 if v == 0.0 and draw(st.booleans()) else v for v in head]
            frames.append(head + [1.0 - math.fsum(head)])
        subshots.append(np.array(frames))
    return corpus.SubshotFeatures("v", width // 3, subshots)


@settings(max_examples=80, deadline=None)
@given(feature_records())
def test_features_are_written_as_their_lists(tmp_path_factory, features):
    path = tmp_path_factory.mktemp("f") / "f.json"
    corpus.save_features(path, features)
    assert path.read_text(encoding="utf-8") == stdlib({
        "video_id": "v", "bins_per_channel": features.bins_per_channel,
        "subshots": [{"index": i, "frames": frames.tolist()}
                     for i, frames in enumerate(features.subshots)]})


def test_float_texts_are_one_per_bit_pattern_with_a_flat_index():
    values = np.array([[0.0, -0.0, 0.1], [5e-324, 0.1, 0.0]])
    texts, index = corpus.float_texts(values)
    assert index.shape == (6,)
    assert texts[index].tolist() == ["0.0", "-0.0", "0.1", "5e-324", "0.1", "0.0"]
    assert sorted(texts.tolist()) == ["-0.0", "0.0", "0.1", "5e-324"]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            corpus.float_texts(np.array([0.5, bad]))
    texts, index = corpus.float_texts(np.empty((0, 3)))
    assert texts.tolist() == [] and index.shape == (0,)


class TestWriteCanonical:
    def test_writes_the_canonical_bytes(self, tmp_path):
        obj = {"b": [1, 2.5, {"é": None}], "a": "\x00"}
        corpus.write_canonical(tmp_path / "out.json", obj)
        assert (tmp_path / "out.json").read_bytes() == stdlib(obj).encode("utf-8")

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_value_error_late_in_the_stream_names_the_path(self, tmp_path, bad):
        target = tmp_path / "out.json"
        corpus.write_canonical(target, {"a": 1})
        with pytest.raises(CorpusValidationError, match=f"cannot write {target}"):
            corpus.write_canonical(target, {"a": list(range(100000)), "z": [1.0, bad]})
        assert json.loads(target.read_text()) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_non_finite_triple_score_names_the_path(self, tmp_path, video12, features12):
        out = analysis.compare_triples(video12, features12)
        out["triples"] = with_score(out["triples"], 600, math.nan)
        with pytest.raises(CorpusValidationError, match="out.json"):
            corpus.write_canonical(tmp_path / "out.json", out)
        assert list(tmp_path.iterdir()) == []

    def test_unserializable_value_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError):
            corpus.write_canonical(tmp_path / "out.json", {"a": [1, 2], "b": object()})
        assert list(tmp_path.iterdir()) == []
