"""Whole commands on damaged input files: the oracle's answer with exit 0, or exit 2 naming it.

Each example copies a command's input files, damages one or two of them and
runs the command through ``cli.main`` with the load memo cleared. The
inputs are the four ``video12`` fixtures for ``evaluate``, ``summarize``
(any method) and ``compare`` (either mode), two small score files for
``correlate`` and a directory of three PPM frames for ``features``. A JSON
file is damaged by dropping a key or a list entry, repeating a list
entry, putting an odd JSON value in place of a value, or cutting its text
short; a frame by cutting it short, or by overwriting, dropping or
inserting one byte.

The reference readers of ``oracles`` judge the inputs, one by one in the
order the command loads them, each read against the video where the
command reads it so:

- the command exits 0 or 2, and no other exception leaves ``main``;
- it exits 0 only if every reader accepts every input, and then
  ``evaluate``'s score is the naive scorer's, ``features`` writes the
  oracle pipeline's file and ``correlate``'s rho is the Pearson
  correlation of the loop's average ranks;
- exit 2 writes one JSON error line. If a reader refuses an input, the
  message names the path of the first such input and a field of it (for
  a file that is not JSON, the parser's words; for a frame, its path
  alone). If none does, the message is one of the command's own
  refusals, of its options against inputs that every reader accepts.

Only what holds whatever a refusal's words are is asserted.
"""
import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import corpus
from vtseval.cli import main
from vtseval.textproc import preprocess

import oracles
from test_cli import oracle_features

DATA = Path(__file__).parent / "data"
FIXTURES = {kind: (DATA / f"video12.{name}.json").read_text()
            for kind, name in [("annotations", "annotations"), ("gts", "gts"),
                               ("summary", "summary_a"), ("features", "features")]}
# 22 odd JSON values, and MARK, a float written as the literal 1e999
MARK = 12345.5
ODD = [True, False, None, 0, -1, 1, 2**63, -2**63 - 1, 10**400, -10**400, -0.0, 0.5, 1e308,
       -1e308, 5e-324, "", "x", "video12", [], [0], {}, {"index": 0}]
# every field of every input file kind, as a message names it: followed by [, ., :, ', a comma
# or " must"
FIELD_NAMES = ["video_id", "subshot_seconds", "subshots", "index", "start_s", "end_s", "text",
               "summaries", "author_id", "sentences", "temporal_pos", "rank", "indices",
               "keyframe_times_s", "spans", "bins_per_channel", "frames", "scores", "item_id",
               "score"]
FIELD = re.compile(r"\b(%s)([\[.:',]| must)" % "|".join(FIELD_NAMES))
NOT_JSON = re.compile(r": (invalid JSON|not UTF-8 text|non-finite number)")
# what a command refuses when every input file is accepted: a size or count that does not fit
# the video, an empty selection, score files that do not pair up
COMMAND_REFUSALS = re.compile("|".join([
    r"cannot score an empty summary",
    r"cannot select \d+ distinct subshots from \d+",
    r"cannot sample \d+ distinct indices from \d+",
    r"cannot sample \d+ pairs",
    r"ground-truth selection is empty",
    r"score files cover different items \(.*\)",
    r"need at least two observations",
    r"constant input has no rank ordering",
]))


def places(tree, schema=()):
    """(schema, node, key) of each value in a JSON tree; the schema is the value's path with
    each list position written as *."""
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        at = schema + (key if isinstance(tree, dict) else "*",)
        yield at, tree, key
        if isinstance(value, (dict, list)):
            yield from places(value, at)


def damaged(rng, text):
    """text, a JSON document, cut short (one time in 20) or with one key or list entry dropped,
    one list entry repeated, or one value replaced by an odd one. The place is drawn schema
    first, so each field of a row is hit as often as a top-level field; a list's last entry
    half the time, since dropping it leaves the others in place."""
    if rng.random() < 0.05:
        return text[:rng.randrange(len(text))]
    doc = json.loads(text)
    spots = {}
    for schema, node, key in places(doc):
        spots.setdefault(schema, []).append((node, key))
    node, key = rng.choice(spots[rng.choice(sorted(spots))])
    if isinstance(node, list) and rng.random() < 0.5:
        key = len(node) - 1
    fault = rng.choice(["drop", "repeat", "value"])
    if fault == "drop":
        del node[key]
    elif fault == "repeat" and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = copy.deepcopy(rng.choice(ODD + [MARK]))
    return json.dumps(doc, indent=2).replace(repr(MARK), "1e999")


def run(argv):
    """(exit code, stdout, stderr) of main(argv) on a cold load memo."""
    corpus.clear_load_memo()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# each kind's reference reader, given the parse, the path and the video where one was read
READERS = {"annotations": lambda data, ctx, video: oracles.annotations_of(data, ctx),
           "gts": oracles.ground_truths_of, "summary": oracles.summary_of,
           "features": oracles.features_of,
           "scores": lambda data, ctx, video: oracles.scores_of(data, ctx)}


def reference_reads(inputs):
    """The reference reading of each (name, kind, path) of inputs, in load order, each against
    the annotations read before it: (readings by name, None), or with the name and path of the
    first input refused."""
    readings = {}
    for name, kind, path in inputs:
        try:
            readings[name] = READERS[kind](corpus.read_json(path), path, readings.get("annotations"))
        except corpus.CorpusError:
            return readings, (name, path)
    return readings, None


def check_refusal(err, fault):
    lines = err.splitlines()
    assert len(lines) == 1, err
    error = json.loads(lines[0])
    assert sorted(error) == ["error", "message"], error
    message = error["message"]
    if fault is None:
        assert COMMAND_REFUSALS.fullmatch(message), message
        return
    kind, path = fault
    assert str(path) in message, (path, message)
    if kind != "frame":
        rest = message.replace(str(path), "")
        assert FIELD.search(rest) or NOT_JSON.match(rest), message


def command_line(rng, paths, out):
    """An evaluate, summarize or compare command line on paths, and the kinds of file it loads,
    in its order."""
    command = rng.choice(["evaluate", "summarize", "compare"])
    argv = [command, "--annotations", paths["annotations"], "--output", out]
    if command == "evaluate":
        return argv + ["--ground-truth", paths["gts"], "--summary", paths["summary"]], [
            "annotations", "gts", "summary"]
    if command == "summarize":
        method = rng.choice(["uniform", "cluster", "mmr", "bow", "dp"])
        argv += ["--method", method, "--n", rng.choice(["1", "4"])]
        if method == "uniform":
            return argv, ["annotations"]
        kind = "features" if method in ("cluster", "mmr") else "gts"
        flag = "--features" if kind == "features" else "--ground-truth"
        return argv + [flag, paths[kind]], ["annotations", kind]
    if rng.random() < 0.5:
        return argv + ["--mode", "triples", "--features", paths["features"]], [
            "annotations", "features"]
    argv += ["--mode", "pairs", "--ground-truth", paths["gts"], "--n", "4", "--count", "3"]
    if rng.random() < 0.5:
        return argv + ["--features", paths["features"], "--gt-subshots", paths["summary"]], [
            "annotations", "features", "gts", "summary"]
    return argv, ["annotations", "gts"]


# the damage is drawn by a seeded random.Random, uniformly: hypothesis's own draws lean to the
# first of each choice
randoms = st.randoms(use_true_random=True)


@settings(max_examples=1500, deadline=None)
@given(randoms)
def test_a_command_on_damaged_video_files_exits_0_as_the_oracles_or_2_naming_the_fault(rng):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: str(Path(tmp) / f"{kind}.json") for kind in FIXTURES}
        out = Path(tmp) / "out.json"
        argv, kinds = command_line(rng, paths, str(out))
        broken = rng.sample(kinds, min(len(kinds), rng.choice([1, 2])))
        for kind, text in FIXTURES.items():
            Path(paths[kind]).write_text(damaged(rng, text) if kind in broken else text)
        readings, fault = reference_reads([(kind, kind, paths[kind]) for kind in kinds])
        code, _, err = run(argv)
        assert code in (0, 2), (code, err)
        if code == 2:
            check_refusal(err, fault)
            return
        assert fault is None, (fault, err)
        if argv[0] == "evaluate":
            report = json.loads(out.read_text())
            video, gts, summary = (readings[kind] for kind in kinds)
            n = len(summary.indices)
            want = oracles.naive_best_reference_score(
                [video.subshots[i].annotation for i in summary.indices],
                [oracles.length_adjust_sorted(gt, n) for gt in gts], preprocess)
            assert math.isclose(report["score"], want, rel_tol=0, abs_tol=1e-12)


# three frames of two subshots
FRAMES = {"frame_0_0.ppm": b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 128, 7]),
          "frame_0_1.ppm": b"P6\n# by hand\n1 1\n255\n" + bytes([9, 9, 9]),
          "frame_1_0.ppm": b"P6\n1 2\n255\n" + bytes([0, 0, 255, 1, 2, 3])}


def damaged_bytes(rng, blob):
    """blob cut short, or with one byte overwritten, dropped or inserted."""
    at = rng.randrange(len(blob))
    fault = rng.choice(["cut", "overwrite", "drop", "insert"])
    byte = bytes([rng.choice(b"0159 \n#P6\x00\xff")])
    if fault == "cut":
        return blob[:at]
    if fault == "overwrite":
        return blob[:at] + byte + blob[at + 1:]
    return blob[:at] + blob[at + 1:] if fault == "drop" else blob[:at] + byte + blob[at:]


@settings(max_examples=100, deadline=None)
@given(randoms)
def test_features_on_damaged_frames_exits_0_as_the_oracle_pipeline_or_2_naming_the_frame(rng):
    bins = rng.choice([1, 2, 16])
    broken = rng.sample(sorted(FRAMES), rng.choice([1, 2]))
    with tempfile.TemporaryDirectory() as tmp:
        frames = Path(tmp) / "frames"
        frames.mkdir()
        for name, blob in FRAMES.items():
            (frames / name).write_bytes(damaged_bytes(rng, blob) if name in broken else blob)
        out = Path(tmp) / "features.json"
        fault = None
        for name in sorted(FRAMES):
            try:
                oracles.ppm_frame((frames / name).read_bytes(), frames / name)
            except corpus.CorpusError:
                fault = ("frame", frames / name)
                break
        code, stdout, err = run(["features", "--frames-dir", str(frames), "--bins", str(bins),
                                 "--video-id", "clip", "--output", str(out)])
        assert code in (0, 2), (code, err)
        if code == 2:
            check_refusal(err, fault)
            return
        assert fault is None, (fault, err)
        assert (out.read_text(), stdout) == oracle_features(frames, bins, "clip")


SCORES = {"a": {"scores": [{"item_id": "x", "score": 0.5}, {"item_id": "y", "score": 1.0},
                           {"item_id": "z", "score": -2.0}]},
          "b": {"scores": [{"item_id": "z", "score": 3.0}, {"item_id": "x", "score": 0.25},
                           {"item_id": "y", "score": 5.0}]}}


@settings(max_examples=100, deadline=None)
@given(randoms)
def test_correlate_on_damaged_score_files_exits_0_as_the_rank_loop_or_2_naming_the_fault(rng):
    broken = rng.sample("ab", rng.choice([1, 2]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {side: str(Path(tmp) / f"{side}.json") for side in SCORES}
        for side, doc in SCORES.items():
            text = json.dumps(doc, indent=2)
            Path(paths[side]).write_text(damaged(rng, text) if side in broken else text)
        out = Path(tmp) / "rho.json"
        readings, fault = reference_reads([(side, "scores", paths[side]) for side in "ab"])
        code, _, err = run(["correlate", "--scores-a", paths["a"], "--scores-b", paths["b"],
                            "--output", str(out)])
        assert code in (0, 2), (code, err)
        if code == 2:
            check_refusal(err, fault)
            return
        assert fault is None, (fault, err)
        ids = sorted(readings["a"])
        ranks = [oracles.average_ranks_loop([readings[side][i] for i in ids]) for side in "ab"]
        want = np.corrcoef(*ranks)[0, 1]
        assert math.isclose(json.loads(out.read_text())["spearman"], want, abs_tol=1e-12)
