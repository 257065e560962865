import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval.corpus import (
    GroundTruthSentence,
    GroundTruthSummary,
    Subshot,
    SummarySelection,
    VideoRecord,
)
from vtseval.evaluator import (
    length_adjust,
    score_summary,
    text_representation,
)
from vtseval.textproc import preprocess

from oracles import SAFE_VOCAB, length_adjust_sorted, naive_best_reference_score


def make_video(annotations, video_id="v"):
    return VideoRecord(
        video_id=video_id,
        subshot_seconds=5.0,
        subshots=tuple(
            Subshot(index=i, start_s=5.0 * i, end_s=5.0 * (i + 1), annotation=a)
            for i, a in enumerate(annotations)
        ),
    )


def make_gt(author, rows):
    return GroundTruthSummary(
        author_id=author,
        sentences=tuple(
            GroundTruthSentence(temporal_pos=p, rank=r, text=t) for p, r, t in rows
        ),
    )


class TestTextRepresentation:
    def test_subset(self):
        video = make_video(["s0", "s1", "s2"])
        sel = SummarySelection(video_id="v", indices=(0, 2))
        assert text_representation(sel, video) == ["s0", "s2"]

    def test_full_selection(self):
        video = make_video(["s0", "s1", "s2"])
        sel = SummarySelection(video_id="v", indices=(0, 1, 2))
        assert text_representation(sel, video) == ["s0", "s1", "s2"]

    def test_out_of_range(self):
        video = make_video(["s0"])
        sel = SummarySelection(video_id="v", indices=(1,))
        with pytest.raises(ValueError):
            text_representation(sel, video)


class TestLengthAdjust:
    def test_top_two_in_temporal_order(self):
        gt = make_gt("a", [(0, 3, "first"), (1, 1, "second"), (2, 2, "third")])
        assert length_adjust(gt, 2) == ["second", "third"]

    def test_n_at_least_k_returns_all(self):
        gt = make_gt("a", [(0, 2, "x"), (5, 1, "y")])
        assert length_adjust(gt, 10) == ["x", "y"]

    def test_n_one_returns_rank_one(self):
        gt = make_gt("a", [(0, 3, "x"), (1, 1, "y"), (2, 2, "z")])
        assert length_adjust(gt, 1) == ["y"]

    def test_output_length(self):
        gt = make_gt("a", [(i, i + 1, f"s{i}") for i in range(5)])
        for n in range(1, 8):
            out = length_adjust(gt, n)
            assert len(out) == min(n, 5)
            assert out == sorted(out, key=lambda t: int(t[1:]))

    def test_rejects_zero(self):
        gt = make_gt("a", [(0, 1, "x")])
        with pytest.raises(ValueError):
            length_adjust(gt, 0)

    @settings(max_examples=300, deadline=None)
    # temporal positions increasing, ranks a permutation of 1..k: a record with repeated or
    # unordered positions, or repeated or missing ranks, is refused as it is built
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True).map(sorted),
        st.permutations(range(1, k + 1)))).map(lambda pr: list(zip(*pr))))
    def test_equals_the_two_sorts_for_every_n(self, rows):
        gt = make_gt("a", [(p, r, f"s{i}") for i, (p, r) in enumerate(rows)])
        for n in range(1, len(rows) + 3):  # one record, read again for every n
            assert length_adjust(gt, n) == length_adjust_sorted(gt, n)


class TestScoreSummary:
    def test_verbatim_match_scores_one(self):
        video = make_video(["dog park", "car road", "fish lake"])
        gt = make_gt("a", [(0, 1, "dog park"), (2, 2, "fish lake")])
        sel = SummarySelection(video_id="v", indices=(0, 2))
        report = score_summary(sel, video, [gt])
        assert report.score == 1.0
        assert report.best_author == "a"
        assert report.length_used == 2

    def test_max_over_ground_truths(self):
        video = make_video(["dog park", "car road"])
        low = make_gt("low", [(0, 1, "moon star"), (1, 2, "dog wind")])
        high = make_gt("high", [(0, 1, "dog park"), (1, 2, "car sand")])
        sel = SummarySelection(video_id="v", indices=(0, 1))
        report = score_summary(sel, video, [low, high])
        assert report.best_author == "high"
        assert report.score == max(s.f_measure for _, s in report.per_ground_truth)

    def test_first_author_wins_ties(self):
        video = make_video(["dog park"])
        gt1 = make_gt("first", [(0, 1, "dog park")])
        gt2 = make_gt("second", [(0, 1, "dog park")])
        sel = SummarySelection(video_id="v", indices=(0,))
        assert score_summary(sel, video, [gt1, gt2]).best_author == "first"

    def test_order_independent_score(self):
        rng = random.Random(19)
        video = make_video(
            [" ".join(rng.choices(SAFE_VOCAB, k=3)) for _ in range(6)]
        )
        gts = [
            make_gt(
                f"a{j}",
                [(i, r, " ".join(rng.choices(SAFE_VOCAB, k=3)))
                 for i, r in enumerate(rng.sample(range(1, 4), 3))],
            )
            for j in range(3)
        ]
        sel = SummarySelection(video_id="v", indices=(0, 2, 4))
        forward = score_summary(sel, video, gts)
        backward = score_summary(sel, video, list(reversed(gts)))
        assert forward.score == backward.score

    def test_adding_ground_truth_never_decreases_score(self):
        rng = random.Random(23)
        for _ in range(20):
            video = make_video([" ".join(rng.choices(SAFE_VOCAB, k=3)) for _ in range(5)])
            gts = [
                make_gt(
                    f"a{j}",
                    [(i, r, " ".join(rng.choices(SAFE_VOCAB, k=3)))
                     for i, r in enumerate(rng.sample(range(1, 3), 2))],
                )
                for j in range(3)
            ]
            sel = SummarySelection(video_id="v", indices=(1, 3))
            assert (
                score_summary(sel, video, gts).score
                >= score_summary(sel, video, gts[:-1]).score
            )

    def test_matches_oracle_composition(self):
        rng = random.Random(29)
        for _ in range(20):
            m = rng.randint(3, 8)
            video = make_video([" ".join(rng.choices(SAFE_VOCAB, k=4)) for _ in range(m)])
            gts = [
                make_gt(
                    f"a{j}",
                    [(i, r, " ".join(rng.choices(SAFE_VOCAB, k=4)))
                     for i, r in enumerate(rng.sample(range(1, 5), 4))],
                )
                for j in range(2)
            ]
            n = rng.randint(1, m)
            sel = SummarySelection(
                video_id="v", indices=tuple(sorted(rng.sample(range(m), n)))
            )
            report = score_summary(sel, video, gts)
            want = naive_best_reference_score(
                text_representation(sel, video),
                [length_adjust(gt, n) for gt in gts],
                preprocess,
            )
            assert report.score == pytest.approx(want, abs=1e-12)

    def test_rejects_empty_inputs(self):
        video = make_video(["x y"])
        gt = make_gt("a", [(0, 1, "x y")])
        with pytest.raises(ValueError):
            score_summary(SummarySelection(video_id="v", indices=()), video, [gt])
        with pytest.raises(ValueError):
            score_summary(SummarySelection(video_id="v", indices=(0,)), video, [])

    def test_rejects_unknown_metric(self):
        video = make_video(["x y"])
        gt = make_gt("a", [(0, 1, "x y")])
        sel = SummarySelection(video_id="v", indices=(0,))
        with pytest.raises(ValueError, match="metric"):
            score_summary(sel, video, [gt], metric="rouge-l")

