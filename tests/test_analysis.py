import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import analysis, visual
from vtseval.analysis import (
    CaseLabel,
    PairJudgment,
    Verdict,
    classify_case,
    judge_subshot_pair,
    judge_summary_pair,
    sample_summary_pairs,
    spearman,
)
from vtseval.corpus import (
    GroundTruthSentence,
    GroundTruthSummary,
    Subshot,
    SubshotFeatures,
    SummarySelection,
    VideoRecord,
)
from vtseval.evaluator import METRICS, score_summary
from vtseval.rouge import UnitTable, rouge_su

import oracles
from oracles import spearman_closed_form


def make_video(annotations):
    return VideoRecord(
        video_id="v",
        subshot_seconds=5.0,
        subshots=tuple(
            Subshot(index=i, start_s=5.0 * i, end_s=5.0 * (i + 1), annotation=a)
            for i, a in enumerate(annotations)
        ),
    )


def make_gt(rows, author="a"):
    return GroundTruthSummary(
        author_id=author,
        sentences=tuple(
            GroundTruthSentence(temporal_pos=p, rank=r, text=t) for p, r, t in rows
        ),
    )


class TestSpearman:
    def test_identity(self):
        assert spearman([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_closed_form_example(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_is_refused_naming_side_and_index(self, side):
        values = ([1.0, math.nan, 3.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        args = values if side == 0 else values[::-1]
        with pytest.raises(ValueError, match=rf"^{('xs', 'ys')[side]}\[1\]: NaN"):
            spearman(*args)

    def test_ties_average_ranks(self):
        # ranks of x: [1, 2.5, 2.5, 4]
        rho = spearman([1.0, 2.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert rho == pytest.approx(4.5 / math.sqrt(4.5 * 5.0), abs=1e-12)

    def test_matches_closed_form_on_permutations(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(2, 10)
            xs = list(range(1, n + 1))
            ys = xs[:]
            rng.shuffle(ys)
            assert spearman(xs, ys) == pytest.approx(
                spearman_closed_form(xs, ys), abs=1e-12
            )

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(3, 10)
            xs = [rng.random() for _ in range(n)]
            ys = [rng.random() for _ in range(n)]
            transformed = [math.exp(3 * x) + 1 for x in xs]
            assert spearman(xs, ys) == pytest.approx(
                spearman(transformed, ys), abs=1e-12
            )

    def test_errors(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman([1], [1])
        with pytest.raises(ValueError):
            spearman([2, 2, 2], [1, 2, 3])


# a small pool, so most draws hold ties; -0.0 ties 0.0 and each infinity ties itself
POOL = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.5, 1e300, math.inf, -math.inf])
RANKED = st.lists(st.one_of(POOL, st.floats(allow_nan=False)), max_size=40)


@settings(max_examples=500, deadline=None)
@given(RANKED)
def test_average_ranks_match_the_loop_bit_for_bit(values):
    got = analysis._average_ranks(values)
    assert got.tobytes() == oracles.average_ranks_loop(values).tobytes()


class TestPairJudgment:
    def test_both_zero(self):
        j = PairJudgment.from_scores(0.0, 0.0)
        assert j.verdict is Verdict.BOTH_ZERO

    def test_both_equal_nonzero(self):
        j = PairJudgment.from_scores(0.5, 0.5 + 1e-12)
        assert j.verdict is Verdict.BOTH_EQUAL

    def test_directional(self):
        assert PairJudgment.from_scores(0.7, 0.2).verdict is Verdict.FIRST_CLOSER
        assert PairJudgment.from_scores(0.2, 0.7).verdict is Verdict.SECOND_CLOSER

    def test_zero_beats_equal(self):
        # one zero score, one positive: not both-zero, decided by size
        assert PairJudgment.from_scores(0.0, 0.3).verdict is Verdict.SECOND_CLOSER

    def test_pixel_threshold(self):
        j = PairJudgment.from_scores(-1.0, -1.0, zero_threshold=-1.0)
        assert j.verdict is Verdict.BOTH_ZERO
        j = PairJudgment.from_scores(-0.4, -0.4, zero_threshold=-1.0)
        assert j.verdict is Verdict.BOTH_EQUAL


class TestJudgeSummaryPair:
    def test_first_matches_gt_text(self):
        video = make_video(["dog park", "car road", "moon star"])
        gt = make_gt([(0, 1, "dog park"), (1, 2, "car road")])
        a = SummarySelection(video_id="v", indices=(0, 1))
        b = SummarySelection(video_id="v", indices=(1, 2))
        j = judge_summary_pair(a, b, video, [gt])
        assert j.verdict is Verdict.FIRST_CLOSER
        assert j.first_score == 1.0

    def test_identical_summaries(self):
        video = make_video(["dog park", "car road"])
        gt = make_gt([(0, 1, "dog park")])
        a = SummarySelection(video_id="v", indices=(0,))
        j = judge_summary_pair(a, a, video, [gt])
        assert j.verdict in (Verdict.BOTH_EQUAL, Verdict.BOTH_ZERO)
        gt_far = make_gt([(0, 1, "quartz feldspar")])
        j = judge_summary_pair(a, a, video, [gt_far])
        assert j.verdict is Verdict.BOTH_ZERO

    def test_consistent_with_direct_recomputation(self):
        rng = random.Random(73)
        vocab = ["dog", "park", "car", "road", "moon", "star", "fish"]
        for _ in range(20):
            video = make_video([" ".join(rng.choices(vocab, k=3)) for _ in range(6)])
            gt = make_gt(
                [(i, r, " ".join(rng.choices(vocab, k=3)))
                 for i, r in enumerate(rng.sample(range(1, 3), 2))]
            )
            a = SummarySelection(video_id="v", indices=tuple(sorted(rng.sample(range(6), 2))))
            b = SummarySelection(video_id="v", indices=tuple(sorted(rng.sample(range(6), 2))))
            j = judge_summary_pair(a, b, video, [gt])
            sa = score_summary(a, video, [gt]).score
            sb = score_summary(b, video, [gt]).score
            assert j.first_score == sa and j.second_score == sb
            if sa == sb == 0.0:
                assert j.verdict is Verdict.BOTH_ZERO
            elif abs(sa - sb) <= 1e-9:
                assert j.verdict is Verdict.BOTH_EQUAL
            elif sa > sb:
                assert j.verdict is Verdict.FIRST_CLOSER
            else:
                assert j.verdict is Verdict.SECOND_CLOSER

    def test_rejects_unequal_sizes(self):
        video = make_video(["x", "y"])
        gt = make_gt([(0, 1, "x")])
        a = SummarySelection(video_id="v", indices=(0,))
        b = SummarySelection(video_id="v", indices=(0, 1))
        with pytest.raises(ValueError):
            judge_summary_pair(a, b, video, [gt])

    def test_pixel_metric(self, video12, gts12, features12):
        a = SummarySelection(video_id="video12", indices=(0, 1))
        b = SummarySelection(video_id="video12", indices=(3, 4))
        gt_sub = SummarySelection(video_id="video12", indices=(0, 2))
        j = judge_summary_pair(
            a, b, video12, gts12, "pixel", features=features12, gt_subshots=gt_sub
        )
        # a shares a subshot with the ground truth; b is another color group
        assert j.verdict is Verdict.FIRST_CLOSER
        with pytest.raises(ValueError):
            judge_summary_pair(a, b, video12, gts12, "pixel")


# words that stem, stop and repeat, so units are shared, clipped, or none at all
TEXTS = st.lists(st.sampled_from(["dog", "dogs", "the", "a", "park", "running", "runs", "lake"]),
                 min_size=1, max_size=6).map(" ".join)


@st.composite
def judged_videos(draw):
    """A video, its ground truths, two equal-size summaries, a metric and a subshot triple."""
    m = draw(st.integers(3, 8))
    video = make_video(draw(st.lists(TEXTS, min_size=m, max_size=m)))
    gts = []
    for author in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 4))
        ranks = draw(st.permutations(range(1, k + 1)))
        gts.append(make_gt([(p, r, draw(TEXTS)) for p, r in enumerate(ranks)], str(author)))
    n = draw(st.integers(1, m))
    a, b = (SummarySelection("v", tuple(sorted(draw(st.sets(st.integers(0, m - 1),
                                                            min_size=n, max_size=n)))))
            for _ in range(2))
    triple = draw(st.permutations(range(m)))[:3]
    return video, gts, a, b, draw(st.sampled_from(METRICS)), triple


def bits(*scores):
    assert all(type(s) is float for s in scores)
    return np.array(scores).tobytes()


@settings(max_examples=200, deadline=None)
@given(judged_videos(), st.booleans())
def test_judgments_score_as_the_single_scorers(case, shared):
    """Both judges give the bits of score_summary(...).score and rouge_su(...).f_measure."""
    video, gts, a, b, metric, (x, y, ref) = case
    table = UnitTable() if shared else None
    got = judge_summary_pair(a, b, video, gts, metric, table=table)
    want = (score_summary(s, video, gts, metric).score for s in (a, b))
    assert bits(got.first_score, got.second_score) == bits(*want)
    got = judge_subshot_pair(x, y, ref, video, table=table)
    ref_text = [video.subshots[ref].annotation]
    want = (rouge_su([video.subshots[i].annotation], ref_text).f_measure for i in (x, y))
    assert bits(got.first_score, got.second_score) == bits(*want)


class TestJudgeSubshotPair:
    def test_both_zero(self):
        video = make_video(["dog park", "car road", "moon star"])
        j = judge_subshot_pair(0, 1, 2, video)
        assert j.verdict is Verdict.BOTH_ZERO

    def test_identical_annotations_equal(self):
        video = make_video(["dog park", "dog park", "dog lake"])
        j = judge_subshot_pair(0, 1, 2, video)
        assert j.verdict is Verdict.BOTH_EQUAL

    def test_exact_match_wins(self):
        video = make_video(["dog park", "moon star", "dog park"])
        j = judge_subshot_pair(0, 1, 2, video)
        assert j.verdict is Verdict.FIRST_CLOSER

    def test_antisymmetry(self):
        rng = random.Random(79)
        vocab = ["dog", "park", "car", "road", "moon"]
        swap = {
            Verdict.FIRST_CLOSER: Verdict.SECOND_CLOSER,
            Verdict.SECOND_CLOSER: Verdict.FIRST_CLOSER,
            Verdict.BOTH_ZERO: Verdict.BOTH_ZERO,
            Verdict.BOTH_EQUAL: Verdict.BOTH_EQUAL,
        }
        for _ in range(30):
            video = make_video([" ".join(rng.choices(vocab, k=2)) for _ in range(4)])
            j_xy = judge_subshot_pair(0, 1, 2, video)
            j_yx = judge_subshot_pair(1, 0, 2, video)
            assert j_yx.verdict is swap[j_xy.verdict]

    def test_rejects_non_distinct(self):
        video = make_video(["a", "b", "c"])
        with pytest.raises(ValueError):
            judge_subshot_pair(0, 0, 1, video)

    def test_pixel_variant(self, video12, features12):
        # subshots 0 and 1 share a color group; 5 does not
        j = judge_subshot_pair(0, 5, 1, video12, "pixel", features=features12)
        assert j.verdict is Verdict.FIRST_CLOSER

    def test_pixel_scores_are_the_least_cross_distances(self, video12, features12):
        """Every triple's pixel scores are -min_cross_distance: within 1e-12 of the oracle's loop
        sums at 16 bins, and bit for bit the block minima of subshot_min_distance."""
        frames = features12.subshots
        m = len(frames)
        want = [[oracles.min_cross_distance(a, b) for b in frames] for a in frames]
        for ref in range(m):
            for x, y in itertools.combinations([i for i in range(m) if i != ref], 2):
                j = judge_subshot_pair(x, y, ref, video12, "pixel", features=features12)
                for score, i in ((j.first_score, x), (j.second_score, y)):
                    assert abs(score + want[i][ref]) <= 1e-12
                    least = visual.subshot_min_distance(frames[i], frames[ref])
                    assert score.hex() == (-least).hex()


class TestClassifyCase:
    def make(self, verdict):
        scores = {
            Verdict.BOTH_ZERO: (0.0, 0.0),
            Verdict.BOTH_EQUAL: (0.5, 0.5),
            Verdict.FIRST_CLOSER: (0.9, 0.1),
            Verdict.SECOND_CLOSER: (0.1, 0.9),
        }[verdict]
        return PairJudgment(verdict, *scores)

    def test_total_over_product_space(self):
        for v, p in itertools.product(Verdict, Verdict):
            label = classify_case(self.make(v), self.make(p))
            assert isinstance(label, CaseLabel)
            assert label.value == oracles.case(v.value, p.value)

    def test_zero_and_equal_follow_vset(self):
        for p in Verdict:
            assert classify_case(self.make(Verdict.BOTH_ZERO), self.make(p)) is CaseLabel.BOTH_ZERO
            assert (
                classify_case(self.make(Verdict.BOTH_EQUAL), self.make(p))
                is CaseLabel.BOTH_EQUAL
            )

    def test_directional_agreement(self):
        agree = classify_case(self.make(Verdict.FIRST_CLOSER), self.make(Verdict.FIRST_CLOSER))
        assert agree is CaseLabel.INEQUAL_AGREES_PB
        disagree = classify_case(
            self.make(Verdict.FIRST_CLOSER), self.make(Verdict.SECOND_CLOSER)
        )
        assert disagree is CaseLabel.INEQUAL_DISAGREES_PB

    def test_non_directional_pb_counts_as_disagreement(self):
        for p in (Verdict.BOTH_ZERO, Verdict.BOTH_EQUAL):
            label = classify_case(self.make(Verdict.FIRST_CLOSER), self.make(p))
            assert label is CaseLabel.INEQUAL_DISAGREES_PB


class TestSampleSummaryPairs:
    def test_deterministic(self):
        assert sample_summary_pairs(20, 5, 10, seed=99) == sample_summary_pairs(
            20, 5, 10, seed=99
        )

    def test_different_seeds_differ(self):
        assert sample_summary_pairs(20, 5, 10, seed=1) != sample_summary_pairs(
            20, 5, 10, seed=2
        )

    def test_n_equals_m(self):
        for a, b in sample_summary_pairs(4, 4, 3, seed=0):
            assert a.indices == b.indices == (0, 1, 2, 3)

    def test_shape_and_validity(self):
        pairs = sample_summary_pairs(30, 7, 25, seed=5)
        assert len(pairs) == 25
        for a, b in pairs:
            for sel in (a, b):
                assert len(sel.indices) == 7
                assert all(x < y for x, y in zip(sel.indices, sel.indices[1:]))
                assert all(0 <= i < 30 for i in sel.indices)

    def test_rejects_n_above_m(self):
        with pytest.raises(ValueError):
            sample_summary_pairs(3, 4, 1, seed=0)

    @pytest.mark.parametrize("n,count,message", [
        (-3, 2, "cannot sample -3 distinct indices from 12"),
        (4, -1, "cannot sample -1 pairs"),
    ], ids=["negative_n", "negative_count"])
    def test_rejects_a_negative_size_naming_it(self, n, count, message):
        with pytest.raises(ValueError) as info:
            sample_summary_pairs(12, n, count, seed=0)
        assert str(info.value) == message

    def test_zero_sizes_are_valid(self):
        assert sample_summary_pairs(12, 4, 0, seed=0) == []
        assert all(a.indices == b.indices == () for a, b in sample_summary_pairs(12, 0, 3, seed=0))

    def test_reproduces_golden_fixture(self, data_dir):
        golden = json.loads((data_dir / "golden_pairs_seed0.json").read_text())
        pairs = sample_summary_pairs(golden["m"], golden["n"], golden["count"], golden["seed"])
        assert len(pairs) == golden["count"]
        for (a, b), row in zip(pairs, golden["pairs"]):
            assert list(a.indices) == row["a"]
            assert list(b.indices) == row["b"]

