"""The comparison harness in analysis, and the subshot distances it looks up.

compare_triples reads its scores from two m x m matrices; every record
must carry the bits that judge_subshot_pair computes for that triple,
including on empty histogram bins, frames shared between subshots and
annotations that share no words. Both modes judge in numpy
(analysis.verdict_codes, which PairJudgment.from_scores also reads); the
rule is pinned here to the scalar oracles.verdict on its edge values, and
the whole output of each mode to the one-item-at-a-time loops
oracles.triple_loop and oracles.pair_loop.
"""
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import analysis, corpus, visual
from vtseval.corpus import (
    CorpusValidationError,
    SubshotFeatures,
    SummarySelection,
    canonical_dumps,
    load_summary,
)
from vtseval.evaluator import score_summary
from vtseval.rouge import UnitTable, su_f_matrix

import oracles
from test_analysis import make_gt, make_video
from test_chi_square_kernel import blocks_of, histograms


@st.composite
def features_of(draw, m):
    """m subshots of 1-3 frames each, with empty bins and frames copied across subshots."""
    width = draw(st.sampled_from([3, 12]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    flat = draw(histograms(sum(sizes), width))
    starts = np.cumsum([0] + sizes)
    return SubshotFeatures(
        video_id="v",
        bins_per_channel=width // 3,
        subshots=tuple(flat[starts[i] : starts[i + 1]] for i in range(m)),
    )


@st.composite
def videos(draw):
    """A video of 3-8 subshots whose annotations come from a few words, plus its features."""
    m = draw(st.integers(3, 8))
    words = st.lists(st.sampled_from(oracles.SAFE_VOCAB[:5]), min_size=1, max_size=4)
    annotations = [" ".join(draw(words)) for _ in range(m)]
    return make_video(annotations), draw(features_of(m))


def write_judgments(path, rows):
    path.write_text(json.dumps({"judgments": rows}))
    return path


def bits(judgment: dict) -> tuple:
    return judgment["verdict"], judgment["first_score"].hex(), judgment["second_score"].hex()


@settings(max_examples=60, deadline=None)
@given(videos())
def test_triples_equal_judge_subshot_pair_bit_for_bit(inputs):
    video, features = inputs
    m = len(video)
    out = json.loads(canonical_dumps(analysis.compare_triples(video, features)))
    records = out["triples"]
    assert [(r["ref"], r["x"], r["y"]) for r in records] == [
        (ref, x, y)
        for ref in range(m)
        for x in range(m)
        for y in range(x + 1, m)
        if ref not in (x, y)
    ]
    for r in records:
        args = (r["x"], r["y"], r["ref"], video)
        vset = analysis.judge_subshot_pair(*args, "rouge-su")
        pb = analysis.judge_subshot_pair(*args, "pixel", features=features)
        assert bits(r["vset"]) == bits(vset.to_dict())
        assert bits(r["pb"]) == bits(pb.to_dict())
        assert r["case"] == analysis.classify_case(vset, pb).value
    assert sum(out["case_counts"].values()) == len(records)


TIE = analysis.TIE_TOLERANCE
VERDICTS = tuple(analysis.Verdict)
# edges of the verdict rule: both zero thresholds (and a last bit above -1),
# signed zeros, and gaps at and one ulp either side of the tie tolerance
EDGES = [0.0, -0.0, -1.0, -0.9999999999999999, TIE, math.nextafter(TIE, 1.0),
         math.nextafter(TIE, 0.0), -TIE, 0.5, 0.5 + TIE, math.nextafter(0.5 + TIE, 1.0)]
GAPS = [0.0, -0.0, TIE, -TIE, math.nextafter(TIE, 1.0), math.nextafter(TIE, 0.0),
        -math.nextafter(TIE, 1.0)]
scores = st.sampled_from(EDGES) | st.floats(-2.0, 2.0) | st.floats()


@st.composite
def score_pairs(draw):
    """(a, b): edge values, an edge gap from a, b equal to a, or two free floats."""
    a = draw(scores)
    kind = draw(st.sampled_from(["edge", "gap", "equal", "free"]))
    if kind == "edge":
        return a, draw(st.sampled_from(EDGES))
    if kind == "gap":
        return a, a + draw(st.sampled_from(GAPS))
    return a, a if kind == "equal" else draw(scores)


NAMES = [v.value for v in VERDICTS]


def expected_codes(pairs, zero):
    return [NAMES.index(oracles.verdict(a, b, zero)) for a, b in pairs]


@settings(max_examples=300, deadline=None)
@given(st.lists(score_pairs(), min_size=1, max_size=20),
       st.sampled_from([analysis.TEXT_ZERO, analysis.PIXEL_ZERO]))
def test_verdict_codes_equal_from_scores(pairs, zero):
    """verdict_codes and the scalar PairJudgment.from_scores both give the oracle's verdict."""
    first, second = (np.array(side, dtype=np.float64) for side in zip(*pairs))
    expected = expected_codes(pairs, zero)
    assert analysis.verdict_codes(first, second, zero).tolist() == expected
    assert [VERDICTS.index(analysis.PairJudgment.from_scores(a, b, zero).verdict)
            for a, b in pairs] == expected


@pytest.mark.parametrize("a, b", [
    (0.0, TIE), (0.0, math.nextafter(TIE, 1.0)), (TIE, 0.0), (math.nextafter(TIE, 1.0), 0.0),
    (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-1.0, -0.9999999999999999),
    (-0.9999999999999999, -1.0), (-1.0, -1.0), (0.25, 0.25), (0.5, 0.5 + TIE),
    (math.nan, 0.0), (0.0, math.nan), (-2.0, math.nan), (math.inf, math.inf), (-math.inf, -1.0),
])
def test_verdict_codes_on_the_edges(a, b):
    for zero in (analysis.TEXT_ZERO, analysis.PIXEL_ZERO):
        got = analysis.verdict_codes(np.array([a]), np.array([b]), zero).tolist()
        assert got == expected_codes([(a, b)], zero)
        assert analysis.PairJudgment.from_scores(a, b, zero).verdict.value == oracles.verdict(
            a, b, zero)


@st.composite
def judged_videos(draw):
    """A video of 4-8 subshots, its features and a human file using all four verdicts."""
    m = draw(st.integers(4, 8))
    words = st.lists(st.sampled_from(oracles.SAFE_VOCAB[:5]), min_size=1, max_size=4)
    video = make_video([" ".join(draw(words)) for _ in range(m)])
    triples = [(ref, x, y) for ref in range(m) for x in range(m) for y in range(x + 1, m)
               if ref not in (x, y)]
    keys = draw(st.lists(st.sampled_from(triples), min_size=4, max_size=30, unique=True))
    names = [v.value for v in VERDICTS]
    said = names + draw(st.lists(st.sampled_from(names), min_size=len(keys) - 4,
                                 max_size=len(keys) - 4))
    return video, draw(features_of(m)), dict(zip(keys, said))


@settings(max_examples=60, deadline=None)
@given(judged_videos())
def test_triples_equal_the_per_triple_loop(tmp_path_factory, inputs):
    video, features, human = inputs
    path = write_judgments(tmp_path_factory.mktemp("h") / "h.json", [
        {"ref": r, "x": x, "y": y, "verdict": v} for (r, x, y), v in human.items()])
    out = analysis.compare_triples(video, features, human=path)
    annotations = [shot.annotation for shot in video.subshots]
    every = range(len(video))
    pixel = -visual.subshot_distances(features, every, every)
    expected = oracles.triple_loop(su_f_matrix(UnitTable(), annotations, annotations),
                                   pixel.tolist(), human)
    assert {**out, "triples": oracles.triple_records(out["triples"])} == expected
    assert canonical_dumps(out) == json.dumps(expected, ensure_ascii=False, sort_keys=True,
                                              indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("m", range(1, 11))
def test_triple_rows_index_every_record(m):
    ref, x, y = np.concatenate([np.stack(block) for block in analysis._triples(m, 5)]
                               + [np.empty((3, 0), dtype=int)], axis=1)
    assert list(zip(ref.tolist(), x.tolist(), y.tolist())) == oracles.triples_of(m)
    assert len(ref) == m * (m - 1) * (m - 2) // 2
    assert analysis._triple_rows(m, ref, x, y).tolist() == list(range(len(ref)))
    # every other key with fields in -1..m-1 (-1 stands for out of range) has no record
    keys = np.array([k for k in np.ndindex(m + 1, m + 1, m + 1)]).reshape(-1, 3) - 1
    rows = analysis._triple_rows(m, *keys.T)
    has_record = {tuple(k) for k in np.stack([ref, x, y], axis=1).tolist()}
    assert [row >= 0 for row in rows.tolist()] == [tuple(k) in has_record for k in keys.tolist()]


def test_triple_records_render_the_record_dicts_of_their_columns(video12, features12):
    records = analysis.compare_triples(video12, features12)["triples"]
    as_list = oracles.triple_records(records)
    parsed = json.loads(canonical_dumps(records))
    assert len(records) == len(as_list) == len(parsed) == 660
    assert parsed[0] == as_list[0] and parsed[-1] == as_list[-1]
    assert parsed[5:9] == as_list[5:9] and parsed[::-97] == as_list[::-97]
    assert parsed == as_list and parsed != as_list[:-1]
    two = SubshotFeatures("v", features12.bins_per_channel, features12.subshots[:2])
    none = analysis.compare_triples(make_video(["dog", "park"]), two)["triples"]
    assert len(none) == 0 and oracles.triple_records(none) == []
    assert json.loads(canonical_dumps(none)) == []


def test_triples_at_m_200_hold_the_matrices_and_codes_not_columns():
    """3,940,200 triples: the codes take 11.8 MB; k x 3 triples and k x 4 scores would take 220."""
    m = 200
    rng = np.random.default_rng(0)
    video = make_video([" ".join(rng.choice(oracles.SAFE_VOCAB[:8], 3)) for _ in range(m)])
    counts = rng.integers(0, 4, size=(m, 12)).astype(float) + np.eye(m, 12)
    features = SubshotFeatures("v", 4, tuple((counts / counts.sum(axis=1, keepdims=True))[:, None]))
    tracemalloc.start()
    try:
        out = analysis.compare_triples(video, features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    records = out["triples"]
    assert len(records) == m * (m - 1) * (m - 2) // 2 and records.codes.dtype == np.uint8
    assert sum(out["case_counts"].values()) == len(records)
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


@st.composite
def distance_cases(draw):
    """Features of 1-8 subshots, row and column indices and a kernel block size in rows.

    The indices are every subshot on both sides (as compare_triples asks),
    or two lists in any order, with repeats and of different lengths.
    """
    m = draw(st.integers(1, 8))
    features = draw(features_of(m))
    if draw(st.booleans()):
        rows = cols = range(m)
    else:
        rows, cols = (draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))
                      for _ in range(2))
    return features, rows, cols, draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(distance_cases())
def test_subshot_distances_are_the_block_minima(case):
    features, rows, cols, block = case
    kernel = visual.chi_square_matrix
    calls = []
    col_frames = sum(len(features.subshots[j]) for j in cols)
    with blocks_of(block, col_frames, features.frames.shape[1]), mock.patch.object(
        visual, "chi_square_matrix", lambda a, b: calls.append(a.shape) or kernel(a, b)
    ):
        got = visual.subshot_distances(features, rows, cols)
    assert len(calls) == 1
    assert got.shape == (len(rows), len(cols))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            a, b = features.subshots[r], features.subshots[c]
            assert got[i, j].hex() == visual.subshot_min_distance(a, b).hex()
            assert abs(got[i, j] - oracles.min_cross_distance(a, b)) <= 1e-12


@pytest.mark.parametrize("rows, cols, bad", [((-1,), (0,), -1), ((0,), (1, -12), -12),
                                             ((0, 12), (-1,), 12), ((1,), (2**70,), 2**70)])
def test_subshot_distances_refuse_an_index_outside_the_features(features12, rows, cols, bad):
    with pytest.raises(ValueError) as exc:
        visual.subshot_distances(features12, rows, cols)
    assert str(exc.value) == f"subshot index {bad} not covered by features (12 subshots)"


def test_triples_reject_features_of_another_length(video12, features12):
    short = SubshotFeatures("video12", features12.bins_per_channel, features12.subshots[:5])
    with pytest.raises(ValueError, match="features cover 5 subshots"):
        analysis.compare_triples(video12, short)


class TestComparePairs:
    def test_records_are_the_pair_judgments(self, video12, gts12, features12, data_dir):
        gt_sub = load_summary(data_dir / "video12.summary_a.json", video12)
        out = analysis.compare_pairs(
            video12, gts12, 4, 6, 3, features=features12, gt_subshots=gt_sub
        )
        pairs = analysis.sample_summary_pairs(12, 4, 6, 3, video_id="video12")
        for record, (a, b) in zip(out["pairs"], pairs, strict=True):
            vset = analysis.judge_summary_pair(a, b, video12, gts12)
            pb = analysis.judge_summary_pair(
                a, b, video12, gts12, "pixel", features=features12, gt_subshots=gt_sub
            )
            assert record == {
                "pair": record["pair"],
                "a": list(a.indices),
                "b": list(b.indices),
                "vset": vset.to_dict(),
                "pb": pb.to_dict(),
                "case": analysis.classify_case(vset, pb).value,
            }
        assert sum(out["verdict_counts"].values()) == 6
        assert "agreement" not in out

    def test_text_only_has_no_pixel_fields(self, tmp_path):
        video = make_video(["dog park", "tree car", "lake fish", "dog tree"])
        gts = [make_gt([(0, 1, "dog park"), (3, 2, "dog tree")])]
        out = analysis.compare_pairs(video, gts, 2, 3, 1)
        assert set(out) == {"mode", "pairs", "verdict_counts"}
        assert all(set(r) == {"pair", "a", "b", "vset"} for r in out["pairs"])
        human = write_judgments(
            tmp_path / "h.json", [{"pair": 2, "verdict": out["pairs"][2]["vset"]["verdict"]}]
        )
        judged = analysis.compare_pairs(video, gts, 2, 3, 1, human=human)
        assert judged["agreement"] == {"vset": 1.0, "n": 1}


    @pytest.mark.parametrize("count", [0, 3])
    @pytest.mark.parametrize("keep", [5, 13])
    def test_features_of_another_length_are_refused(self, video12, gts12, features12, data_dir,
                                                    count, keep):
        gt_sub = load_summary(data_dir / "video12.summary_a.json", video12)
        other = SubshotFeatures("video12", features12.bins_per_channel,
                                (features12.subshots * 2)[:keep])
        with pytest.raises(ValueError) as exc:
            analysis.compare_pairs(video12, gts12, 4, count, 1, features=other, gt_subshots=gt_sub)
        assert str(exc.value) == f"features cover {keep} subshots, the video has 12"

    @pytest.mark.parametrize("count", [0, 3])
    def test_an_empty_ground_truth_selection_is_refused(self, video12, gts12, features12, count):
        with pytest.raises(ValueError, match="^ground-truth selection is empty$"):
            analysis.compare_pairs(video12, gts12, 4, count, 1, features=features12,
                                   gt_subshots=SummarySelection("video12", ()))

    @pytest.mark.parametrize("count", [0, 3])
    @pytest.mark.parametrize("bad", [12, 40, -1])
    def test_a_ground_truth_index_outside_the_features_is_refused(self, video12, gts12,
                                                                  features12, count, bad):
        """No selection holds a negative index: check_range, compare_pairs' own range check of
        the ground truth, refuses it on the raw indices."""
        if bad < 0:
            with pytest.raises(CorpusValidationError, match=rf"^indices\[1\]: negative subshot index {bad}$"):
                SummarySelection("video12", (3, bad))
            call = lambda: visual.check_range(features12, (3, bad))
        else:
            call = lambda: analysis.compare_pairs(video12, gts12, 4, count, 1, features=features12,
                                                  gt_subshots=SummarySelection("video12", (3, bad)))
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"subshot index {bad} not covered by features (12 subshots)"

    @pytest.mark.parametrize("given_, missing", [("features", "gt_subshots"),
                                                 ("gt_subshots", "features")])
    def test_half_of_the_pixel_inputs_is_refused(self, video12, gts12, features12, data_dir,
                                                  given_, missing):
        half = {"features": features12,
                "gt_subshots": load_summary(data_dir / "video12.summary_a.json", video12)}
        with pytest.raises(ValueError, match=f"pixel judgments also need {missing}$"):
            analysis.compare_pairs(video12, gts12, 4, 3, 1, **{given_: half[given_]})


class TestHumanVerdicts:
    def test_keys_and_verdicts(self, tmp_path):
        path = write_judgments(tmp_path / "h.json", [
            {"ref": 0, "x": 1, "y": 2, "verdict": "first_closer"},
            {"ref": 1, "x": 0, "y": 2, "verdict": "both_zero"},
        ])
        assert corpus.load_human_verdicts(path, ("ref", "x", "y")) == {
            (0, 1, 2): analysis.Verdict.FIRST_CLOSER,
            (1, 0, 2): analysis.Verdict.BOTH_ZERO,
        }

    def test_rejects_an_item_judged_twice(self, tmp_path):
        path = write_judgments(tmp_path / "h.json", [
            {"pair": 0, "verdict": "first_closer"},
            {"pair": 1, "verdict": "first_closer"},
            {"pair": 0, "verdict": "second_closer"},
        ])
        with pytest.raises(CorpusValidationError, match=r"judgments\[2\]"):
            corpus.load_human_verdicts(path, ("pair",))


@st.composite
def judged_pair_videos(draw):
    """compare_pairs inputs: a video of 4-8 subshots, 1-2 ground truths, count pairs of
    n-subshot summaries, with or without pixel inputs, with or without a human file that
    uses all four verdicts."""
    m = draw(st.integers(4, 8))
    words = st.lists(st.sampled_from(oracles.SAFE_VOCAB[:5]), min_size=1, max_size=4)
    video = make_video([" ".join(draw(words)) for _ in range(m)])
    gts = []
    for author in ("a", "b")[: draw(st.integers(1, 2))]:
        k = draw(st.integers(1, 3))
        positions = sorted(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k,
                                         unique=True)))
        ranks = draw(st.permutations(range(1, k + 1)))
        gts.append(make_gt([(p, r, " ".join(draw(words))) for p, r in zip(positions, ranks)],
                           author))
    n, count, seed = draw(st.integers(1, 4)), draw(st.integers(4, 12)), draw(st.integers(0, 2**32))
    features = gt_subshots = None
    if draw(st.booleans()):
        features = draw(features_of(m))
        gt_subshots = SummarySelection("v", tuple(sorted(draw(st.lists(
            st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))))
    human = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.integers(0, count - 1), min_size=4, max_size=count, unique=True))
        said = NAMES + draw(st.lists(st.sampled_from(NAMES), min_size=len(keys) - 4,
                                     max_size=len(keys) - 4))
        human = dict(zip(keys, said))
    return video, gts, n, count, seed, features, gt_subshots, human


@settings(max_examples=60, deadline=None)
@given(judged_pair_videos())
def test_pairs_equal_the_per_pair_loop(tmp_path_factory, inputs):
    video, gts, n, count, seed, features, gt_subshots, human = inputs
    path = None
    if human is not None:
        path = write_judgments(tmp_path_factory.mktemp("h") / "h.json",
                               [{"pair": i, "verdict": v} for i, v in human.items()])
    out = analysis.compare_pairs(video, gts, n, count, seed, features=features,
                                 gt_subshots=gt_subshots, human=path)
    pairs = analysis.sample_summary_pairs(len(video), n, count, seed, video.video_id)
    text = [tuple(score_summary(s, video, gts).score for s in pair) for pair in pairs]
    pixel = None
    if features is not None:
        pixel = [tuple(-visual.pixel_summary_distance(s, gt_subshots, features) for s in pair)
                 for pair in pairs]
    expected = oracles.pair_loop([(a.indices, b.indices) for a, b in pairs], text, pixel, human)
    assert out == expected
    for got, want in zip(out["pairs"], expected["pairs"], strict=True):
        for side in ("vset", "pb") if pixel else ("vset",):
            assert bits(got[side]) == bits(want[side])
    assert canonical_dumps(out) == json.dumps(expected, ensure_ascii=False, sort_keys=True,
                                              indent=2, allow_nan=False) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(0, 5), max_size=4, unique=True),
       st.integers(-3, 2**70) | st.sampled_from([-1, -(2**70)]), st.data())
def test_pairs_refuse_an_out_of_range_pair(tmp_path_factory, count, good, bad, data):
    """A judged pair outside 0..count-1 is refused, naming the first such row in file order."""
    good = [i for i in good if i < count]
    if 0 <= bad < count:
        bad = count + bad
    rows = [{"pair": i, "verdict": "both_zero"} for i in good]
    at = data.draw(st.integers(0, len(rows)))
    rows.insert(at, {"pair": bad, "verdict": "first_closer"})
    path = write_judgments(tmp_path_factory.mktemp("h") / "h.json", rows)
    video = make_video(["dog park", "tree car", "lake fish", "dog tree"])
    gts = [make_gt([(0, 1, "dog park"), (3, 2, "dog tree")])]
    message = f"{path}: judgments[{at}]: no judgments match pair={bad}"
    with pytest.raises(CorpusValidationError) as exc:
        analysis.compare_pairs(video, gts, 2, count, 1, human=path)
    assert str(exc.value) == message


@st.composite
def pixel_pair_cases(draw):
    """compare_pairs inputs with pixel judgments: a video of 3-8 subshots and its features
    (1-3 frames per subshot, widths 3 and 12, frames copied so that minima tie), count 0-6
    pairs of n-subshot summaries, a ground-truth selection and a block size."""
    m = draw(st.integers(3, 8))
    words = st.lists(st.sampled_from(oracles.SAFE_VOCAB[:5]), min_size=1, max_size=4)
    video = make_video([" ".join(draw(words)) for _ in range(m)])
    gts = [make_gt([(p, r, " ".join(draw(words))) for r, p in enumerate(
        sorted(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True))), 1)])]
    features = draw(features_of(m))
    gt_subshots = SummarySelection("v", tuple(sorted(draw(st.lists(
        st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))))
    n, count, seed = draw(st.integers(1, m)), draw(st.integers(0, 6)), draw(st.integers(0, 2**32))
    return video, gts, n, count, seed, features, gt_subshots, draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(pixel_pair_cases())
def test_pairs_take_their_pixel_scores_from_one_kernel_call(inputs):
    """Each pb score has the bits of the per-summary loop over kernel blocks, built as
    test_pixel_summary_distance_is_one_kernel_call_with_the_loop_bits builds its own,
    under any row blocking; the kernel runs once, and not at all without pairs."""
    video, gts, n, count, seed, features, gt_subshots, block = inputs
    gt = np.vstack([features.subshots[g] for g in gt_subshots.indices])
    pairs = analysis.sample_summary_pairs(len(video), n, count, seed, video.video_id)

    def loop(summary):
        total = 0.0
        for s in summary.indices:
            total += float(visual.chi_square_matrix(features.subshots[s], gt).min())
        return -(total / len(summary))

    pixel = [(loop(a), loop(b)) for a, b in pairs]
    kernel = visual.chi_square_matrix
    calls = []
    with blocks_of(block, gt.shape[0], gt.shape[1]), mock.patch.object(
        visual, "chi_square_matrix", lambda a, b: calls.append(a.shape) or kernel(a, b)
    ):
        out = analysis.compare_pairs(video, gts, n, count, seed, features=features,
                                     gt_subshots=gt_subshots)
    assert len(calls) == (1 if count else 0)
    assert [(r["pb"]["first_score"].hex(), r["pb"]["second_score"].hex()) for r in out["pairs"]] \
        == [(first.hex(), second.hex()) for first, second in pixel]
    text = [tuple(score_summary(s, video, gts).score for s in pair) for pair in pairs]
    assert out == oracles.pair_loop([(a.indices, b.indices) for a, b in pairs], text, pixel)
