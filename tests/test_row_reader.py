"""Every input kind's loader against the reader of that kind in ``oracles``.

corpus reads the rows of every input file through one reader, ``_rows``.
Each test here draws a valid file of one kind, puts up to three faults
into it (a field dropped or given a value of another type, a bool, an int
literal in a float field, a row that is not an object, a non-finite
literal in place of a number) and loads it both ways: through corpus,
and through the field-by-field reader in ``oracles`` on read_json's
parse. The two must give an equal record, or the same exception class
and message. Two departures are documented, and asserted as documented:

- a feature row with a wrong ``index`` and a missing or non-list
  ``frames`` names ``frames`` (CorpusParseError) where the reference
  names ``index`` (CorpusValidationError): field types before values, as
  for every other kind;
- a human judgment file takes the wording of the other files. The class
  and the row are the reference's; the message names the row's first
  faulty field, in the order of the key fields and then ``verdict``.
"""
import copy
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import corpus
from vtseval.corpus import GroundTruthSentence, GroundTruthSummary, Subshot, VideoRecord

import oracles

# a float that a fault writes into a file, in place of a number, and then turns
# into a literal such as 1e999
MARK = 12345.5
# what a faulty field or list entry becomes: ints where floats belong and the
# reverse, bools, other JSON types, an int beyond float range, and values
# that pass the type check but fail a later one
VALUES = [0, 1, 2, -1, 5, 10**400, 0.5, 1.0, 5.0, -2.5, "x", "", "both_zero", True, False,
          None, [], [1.0], {}]
NOT_OBJECTS = [[], ["index", 0], "row", 3, 0.5, True, None]
FAULTS = ["drop", "value", "value", "not_object", "int_literal", "non_finite"]
VIDEO = VideoRecord("v", 5.0, tuple(Subshot(index=i, start_s=5.0 * i, end_s=5.0 * i + 5.0,
                                            annotation="dog") for i in range(4)))


def nodes(tree):
    """Every non-empty dict and list in a JSON tree."""
    if isinstance(tree, (dict, list)) and tree:
        yield tree
        for value in tree.values() if isinstance(tree, dict) else tree:
            yield from nodes(value)


@st.composite
def faulty_text(draw, doc, faults=FAULTS):
    """doc as JSON text after up to three faults drawn from faults, each at a drawn place."""
    literals = []
    for _ in range(draw(st.integers(0, 3))):
        places = list(nodes(doc))
        if not places:
            break
        node = draw(st.sampled_from(places))
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        fault, value = draw(st.sampled_from(faults)), node[key]
        if fault == "drop" and isinstance(node, dict):
            del node[key]
        elif fault == "not_object" and isinstance(value, dict):
            node[key] = copy.deepcopy(draw(st.sampled_from(NOT_OBJECTS)))
        elif fault == "int_literal" and isinstance(value, float) and value.is_integer():
            node[key] = int(value)
        elif fault == "non_finite" and type(value) in (int, float):
            node[key] = MARK
            literals.append(draw(st.sampled_from(["1e999", "-1e999", "NaN", "Infinity"])))
        elif "value" in faults:  # a fault that does not apply to the place becomes a value
            node[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    for literal in literals:
        text = text.replace(repr(MARK), literal, 1)
    return text


def comparable(record):
    if isinstance(record, corpus.SubshotFeatures):
        return (record.video_id, record.bins_per_channel, record.frames.shape,
                record.frames.tobytes(), record.offsets.tolist())
    return repr(record)  # shows 5 and 5.0 apart, and every field of a row


def outcome(load, path):
    """What a cold load gives on path: the record, or the exception's class and message."""
    corpus.clear_load_memo()
    try:
        return "ok", comparable(load(path))
    except Exception as exc:  # the class is compared, so any exception counts
        return type(exc).__name__, str(exc)


def write(factory, text):
    path = factory.mktemp("rows") / "f.json"
    path.write_text(text)
    return path


def referenced(reader, *args):
    """A loader that runs reader on read_json's parse of its path."""
    return lambda path: reader(corpus.read_json(path), str(path), *args)


def annotation_doc(m):
    return {"video_id": "v", "subshot_seconds": 5.0, "subshots": [
        {"index": i, "start_s": 5.0 * i, "end_s": 5.0 * i + 5.0, "text": "dog"} for i in range(m)]}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).map(annotation_doc).flatmap(faulty_text))
def test_annotations_read_as_the_reference_reads(tmp_path_factory, text):
    path = write(tmp_path_factory, text)
    assert outcome(corpus.load_annotations, path) == outcome(
        referenced(oracles.annotations_of), path)


def ground_truth_doc(_):
    return {"video_id": "v", "summaries": [
        {"author_id": "a", "sentences": [{"temporal_pos": 0, "rank": 2, "text": "dog"},
                                         {"temporal_pos": 3, "rank": 1, "text": "lake"}]},
        {"author_id": "b", "sentences": [{"temporal_pos": 1, "rank": 1, "text": "fish"}]}]}


@settings(max_examples=300, deadline=None)
@given(st.just(0).map(ground_truth_doc).flatmap(faulty_text), st.sampled_from([None, VIDEO]))
def test_ground_truths_read_as_the_reference_reads(tmp_path_factory, text, video):
    path = write(tmp_path_factory, text)
    assert outcome(lambda p: corpus.load_ground_truths(p, video), path) == outcome(
        referenced(oracles.ground_truths_of, video), path)


SUMMARY_FORMS = {
    "indices": [0, 2],
    "keyframe_times_s": [1.0, 12.5],
    "spans": [{"start_s": 0.0, "end_s": 6.0}, {"start_s": 12.0, "end_s": 13.0}],
}


def summary_doc(forms):
    return {"video_id": "v", **{form: copy.deepcopy(SUMMARY_FORMS[form]) for form in forms}}


@settings(max_examples=400, deadline=None)
@given(st.one_of([st.just([form]) for form in SUMMARY_FORMS]
                 + [st.lists(st.sampled_from(list(SUMMARY_FORMS)), max_size=3, unique=True)])
       .map(summary_doc).flatmap(faulty_text),
       st.sampled_from([None, VIDEO, VIDEO]))
def test_summaries_in_every_form_read_as_the_reference_reads(tmp_path_factory, text, video):
    path = write(tmp_path_factory, text)
    assert outcome(lambda p: corpus.load_summary(p, video), path) == outcome(
        referenced(oracles.summary_of, video), path)


def scores_doc(_):
    # each item_id is a string of VALUES, so a faulty item_id often scores an item twice
    return {"scores": [{"item_id": item, "score": score}
                       for item, score in [("x", 0.5), ("", 1.0), ("both_zero", 5.0)]]}


@settings(max_examples=300, deadline=None)
@given(st.just(0).map(scores_doc).flatmap(faulty_text))
def test_scores_read_as_the_reference_reads(tmp_path_factory, text):
    path = write(tmp_path_factory, text)
    assert outcome(corpus.load_scores, path) == outcome(referenced(oracles.scores_of), path)


def features_doc(m):
    return {"video_id": "v", "bins_per_channel": 1, "subshots": [
        {"index": i, "frames": [[1.0, 0.0, 0.0], [0.25, 0.25, 0.5]]} for i in range(m)]}


def documented_features_outcome(want, path):
    """want, except for a row with a wrong index and a missing or non-list frames:
    that row's frames error."""
    if want[0] != "CorpusValidationError":
        return want
    index_fault = re.fullmatch(r".*: subshots\[(\d+)\]\.index: expected \d+", want[1])
    if index_fault:
        i = int(index_fault[1])
        row, where = json.loads(path.read_text())["subshots"][i], f"{path}: subshots[{i}]"
        if "frames" not in row:
            return "CorpusParseError", f"{where}: missing field 'frames'"
        if not isinstance(row["frames"], list):
            return "CorpusParseError", f"{where}.frames: expected list"
    return want


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4).map(features_doc).flatmap(faulty_text), st.sampled_from([None, VIDEO]))
def test_features_read_as_the_reference_reads(tmp_path_factory, text, video):
    path = write(tmp_path_factory, text)
    want = outcome(referenced(oracles.features_of, video), path)
    assert outcome(lambda p: corpus.load_features(p, video), path) == (
        documented_features_outcome(want, path))


def test_a_wrong_index_with_bad_frames_names_the_frames(tmp_path):
    path = tmp_path / "f.json"
    for frames, message in [(None, "subshots[1]: missing field 'frames'"),
                            ("x", "subshots[1].frames: expected list")]:
        doc = features_doc(2)
        doc["subshots"][1]["index"] = 5
        if frames is None:
            del doc["subshots"][1]["frames"]
        else:
            doc["subshots"][1]["frames"] = frames
        path.write_text(json.dumps(doc))
        assert outcome(referenced(oracles.features_of), path) == (
            "CorpusValidationError", f"{path}: subshots[1].index: expected 1")
        assert outcome(corpus.load_features, path) == ("CorpusParseError", f"{path}: {message}")


HUMAN_KEYS = {("pair",): [(0,), (1,), (2,)], ("ref", "x", "y"): [(0, 1, 2), (1, 0, 2), (2, 0, 1)]}


def human_doc(keys):
    verdicts = ["both_zero", "first_closer", "second_closer"]
    return {"judgments": [{**dict(zip(keys, key)), "verdict": verdict}
                          for key, verdict in zip(HUMAN_KEYS[keys], verdicts)]}


def documented_human_outcome(want, path, keys):
    """want, in the wording of the other files: the same class and row, the row's first
    faulty field named as corpus names it."""
    ctx = str(path)
    if want == ("CorpusParseError", f"{ctx}: missing 'judgments' list"):
        if "judgments" not in json.loads(path.read_text()):
            return "CorpusParseError", f"{ctx}: missing field 'judgments'"
        return "CorpusParseError", f"{ctx}.judgments: expected list"
    row_fault = want[0] == "CorpusParseError" and re.match(
        re.escape(ctx) + r": judgments\[(\d+)\]", want[1])
    if not row_fault:
        return want  # a judged-twice refusal, or read_json's
    i = int(row_fault[1])
    row, where = json.loads(path.read_text())["judgments"][i], f"{ctx}: judgments[{i}]"
    if not isinstance(row, dict):
        return "CorpusParseError", f"{where} must be an object"
    for field, kind in [(key, int) for key in keys] + [("verdict", str)]:
        if field not in row:
            return "CorpusParseError", f"{where}: missing field {field!r}"
        if type(row[field]) is not kind:
            return "CorpusParseError", f"{where}.{field}: expected {kind.__name__}"
    return "CorpusParseError", f"{where}.verdict: {row['verdict']!r} is not a valid Verdict"


@st.composite
def human_files(draw):
    keys = draw(st.sampled_from(list(HUMAN_KEYS)))
    return keys, draw(faulty_text(human_doc(keys)))


@settings(max_examples=400, deadline=None)
@given(human_files())
def test_human_judgments_read_as_the_reference_reads(tmp_path_factory, case):
    keys, text = case
    path = write(tmp_path_factory, text)
    want = outcome(referenced(oracles.human_verdicts_of, keys), path)
    assert outcome(lambda p: corpus.load_human_verdicts(p, keys), path) == (
        documented_human_outcome(want, path, keys))


def test_human_file_refusals_take_the_shared_wording(tmp_path):
    path = tmp_path / "h.json"
    judged = {"pair": 0, "verdict": "both_zero"}
    cases = [
        ({"judgments": [judged, {"pair": 1.7, "verdict": "both_zero"}]},
         "judgments[1].pair: expected int"),
        ({"judgments": [judged, {"verdict": "both_zero"}]}, "judgments[1]: missing field 'pair'"),
        ({"judgments": [judged, [1, "both_zero"]]}, "judgments[1] must be an object"),
        ({"judgments": [judged, {"pair": 1, "verdict": 3}]}, "judgments[1].verdict: expected str"),
        ({"judgments": [judged, {"pair": 1, "verdict": "maybe"}]},
         "judgments[1].verdict: 'maybe' is not a valid Verdict"),
        ({"judgment": []}, "missing field 'judgments'"),
    ]
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        assert outcome(lambda p: corpus.load_human_verdicts(p, ("pair",)), path) == (
            "CorpusParseError", f"{path}: {message}")
    path.write_text(json.dumps({"judgments": {}}))
    assert outcome(lambda p: corpus.load_human_verdicts(p, ("pair",)), path) == (
        "CorpusParseError", f"{path}.judgments: expected list")


# every loader on a file of its kind; summaries in each of their three forms
NON_FINITE_CASES = {
    "annotations": (lambda: annotation_doc(2), corpus.load_annotations),
    "ground_truths": (lambda: ground_truth_doc(0), lambda p: corpus.load_ground_truths(p, VIDEO)),
    **{form: (lambda form=form: summary_doc([form]), lambda p: corpus.load_summary(p, VIDEO))
       for form in SUMMARY_FORMS},
    "scores": (lambda: scores_doc(0), corpus.load_scores),
    "features": (lambda: features_doc(2), corpus.load_features),
    **{" ".join(keys): (lambda keys=keys: human_doc(keys),
                        lambda p, keys=keys: corpus.load_human_verdicts(p, keys))
       for keys in HUMAN_KEYS},
}
# a field as a message names it: ".end_s: must be finite", "indices[1] must be an integer"
FIELD = re.compile(r"(\.[a-z_]+|\[\d+\])(:| must)")


@st.composite
def non_finite_files(draw):
    make, load = NON_FINITE_CASES[draw(st.sampled_from(sorted(NON_FINITE_CASES)))]
    return load, draw(faulty_text(make(), faults=["non_finite"]))


@settings(max_examples=400, deadline=None)
@given(non_finite_files())
def test_a_non_finite_number_is_refused_by_name(tmp_path_factory, case):
    """NaN and Infinity are refused by name, and 1e999 by the field that reads it.

    No other exception than a CorpusError escapes. Every message names the
    path, except a frame check's: validate_features words those alone.
    """
    load, text = case
    path = write(tmp_path_factory, text)
    corpus.clear_load_memo()
    try:
        load(path)
        return
    except corpus.CorpusError as exc:
        message = str(exc)
    if re.match(r"subshots\[\d+\]\.frames\[\d+\]: ", message):
        return
    assert message.startswith(str(path)), message
    rest = message.removeprefix(str(path))
    assert (re.fullmatch(r": non-finite number -?(NaN|Infinity) is not allowed", rest)
            or FIELD.search(rest)), message


def test_rows_build_by_keyword_and_survive_a_round_trip(tmp_path):
    shots = (Subshot(index=0, start_s=0.0, end_s=5.0, annotation="a dog"),
             Subshot(index=1, start_s=5.0, end_s=10.0, annotation="a cat"))
    assert shots[0] == (0, 0.0, 5.0, "a dog") and shots[1].index == 1
    video = VideoRecord("v", 5.0, shots)
    corpus.save_annotations(tmp_path / "a.json", video)
    assert corpus.load_annotations(tmp_path / "a.json") == video
    gt = GroundTruthSummary("a", (GroundTruthSentence(temporal_pos=0, rank=1, text="a dog"),))
    corpus.save_ground_truths(tmp_path / "g.json", [gt], "v")
    assert corpus.load_ground_truths(tmp_path / "g.json") == [gt]
