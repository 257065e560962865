"""The comparison harness in analysis, and the subshot distances it looks up.

compare_triples reads its scores from two m x m matrices; every record
must carry the bits that judge_subshot_pair computes for that triple,
including on empty histogram bins, frames shared between subshots and
annotations that share no words. Its verdicts are judged in numpy
(analysis.verdict_codes), pinned here to PairJudgment.from_scores on the
edge values of the rule, and its whole output to the per-triple loop of
oracles.triple_loop.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import analysis, visual
from vtseval.corpus import CorpusValidationError, SubshotFeatures, canonical_dumps, load_summary
from vtseval.rouge import UnitTable, su_f_matrix

import oracles
from test_analysis import make_gt, make_video
from test_chi_square_kernel import histograms


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
    out = analysis.compare_triples(video, features)
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


def expected_codes(pairs, zero):
    return [VERDICTS.index(analysis.PairJudgment.from_scores(a, b, zero).verdict)
            for a, b in pairs]


@settings(max_examples=300, deadline=None)
@given(st.lists(score_pairs(), min_size=1, max_size=20),
       st.sampled_from([analysis.TEXT_ZERO, analysis.PIXEL_ZERO]))
def test_verdict_codes_equal_from_scores(pairs, zero):
    first, second = (np.array(side, dtype=np.float64) for side in zip(*pairs))
    assert analysis.verdict_codes(first, second, zero).tolist() == expected_codes(pairs, zero)


@pytest.mark.parametrize("a, b", [
    (0.0, TIE), (0.0, math.nextafter(TIE, 1.0)), (TIE, 0.0), (math.nextafter(TIE, 1.0), 0.0),
    (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-1.0, -0.9999999999999999),
    (-0.9999999999999999, -1.0), (-1.0, -1.0), (0.25, 0.25), (0.5, 0.5 + TIE),
])
def test_verdict_codes_on_the_edges(a, b):
    for zero in (analysis.TEXT_ZERO, analysis.PIXEL_ZERO):
        got = analysis.verdict_codes(np.array([a]), np.array([b]), zero).tolist()
        assert got == expected_codes([(a, b)], zero)


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
    expected = oracles.triple_loop(su_f_matrix(UnitTable(), annotations, annotations),
                                   (-visual.subshot_distance_matrix(features)).tolist(), human)
    assert out == expected
    assert canonical_dumps(out) == json.dumps(expected, ensure_ascii=False, sort_keys=True,
                                              indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("m", range(1, 11))
def test_triple_rows_index_every_record(m):
    ref, x, y = analysis._triples(m)
    assert len(ref) == m * (m - 1) * (m - 2) // 2
    assert analysis._triple_rows(m, ref, x, y).tolist() == list(range(len(ref)))


def test_triple_records_are_a_sequence_of_the_record_dicts(video12, features12):
    records = analysis.compare_triples(video12, features12)["triples"]
    as_list = list(records)
    assert len(records) == len(as_list) == 660
    assert records[0] == as_list[0] and records[-1] == as_list[-1]
    assert records[5:9] == as_list[5:9] and records[::-97] == as_list[::-97]
    assert records == as_list and records != as_list[:-1]
    with pytest.raises(IndexError):
        records[660]
    two = SubshotFeatures("v", features12.bins_per_channel, features12.subshots[:2])
    assert analysis.compare_triples(make_video(["dog", "park"]), two)["triples"] == []


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(features_of))
def test_subshot_distance_matrix_is_the_block_minima(features):
    got = visual.subshot_distance_matrix(features)
    m = len(features)
    assert got.shape == (m, m)
    for i, a in enumerate(features.subshots):
        for j, b in enumerate(features.subshots):
            assert got[i, j].hex() == visual.subshot_min_distance(a, b).hex()
            assert abs(got[i, j] - oracles.min_cross_distance(a, b)) <= 1e-12


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


class TestHumanVerdicts:
    def test_keys_and_verdicts(self, tmp_path):
        path = write_judgments(tmp_path / "h.json", [
            {"ref": 0, "x": 1, "y": 2, "verdict": "first_closer"},
            {"ref": 1, "x": 0, "y": 2, "verdict": "both_zero"},
        ])
        assert analysis.load_human_verdicts(path, ("ref", "x", "y")) == {
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
            analysis.load_human_verdicts(path, ("pair",))
