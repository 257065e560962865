import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from vtseval import summarize
from vtseval.corpus import (
    GroundTruthSentence,
    GroundTruthSummary,
    Subshot,
    SubshotFeatures,
    SummarySelection,
    VideoRecord,
)
from vtseval.evaluator import length_adjust
from vtseval.rouge import rouge_su
from vtseval.summarize import (
    ClusterResult,
    greedy_bow,
    histogram_cluster,
    lloyd_cluster,
    mmr_keyframes,
    sentence_dp,
    uniform_indices,
    uniform_sample,
    video_mmr,
)
from vtseval.visual import chi_square_matrix

import oracles
from oracles import (
    SAFE_VOCAB,
    chi_square_ref,
    exhaustive_ordered_assignment,
    fold_right_sum,
    mmr_step_argmin,
)


def make_video(annotations, video_id="v"):
    return VideoRecord(
        video_id=video_id,
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


def make_features(subshot_hists, bins=1):
    return SubshotFeatures(
        video_id="v",
        bins_per_channel=bins,
        subshots=tuple(np.asarray(frames, dtype=np.float64) for frames in subshot_hists),
    )


def random_features(rng, m, frames_per_subshot=2, dim=6):
    subshots = []
    for _ in range(m):
        frames = []
        for _ in range(frames_per_subshot):
            v = np.array([rng.random() for _ in range(dim)])
            frames.append(v / v.sum())
        subshots.append(np.vstack(frames))
    return SubshotFeatures(video_id="v", bins_per_channel=dim // 3, subshots=tuple(subshots))


class TestUniform:
    def test_formula_10_5(self):
        assert uniform_indices(10, 5) == [0, 2, 4, 6, 8]

    def test_formula_7_3(self):
        assert uniform_indices(7, 3) == [0, 2, 4]

    def test_full(self):
        assert uniform_indices(4, 4) == [0, 1, 2, 3]

    def test_rejects_n_above_m(self):
        with pytest.raises(ValueError):
            uniform_indices(3, 4)

    def test_strictly_increasing(self):
        for m in range(1, 30):
            for n in range(1, m + 1):
                out = uniform_indices(m, n)
                assert len(out) == n
                assert all(a < b for a, b in zip(out, out[1:]))
                assert all(0 <= i < m for i in out)

    def test_selection_carries_video_id(self):
        video = make_video(["a", "b", "c"], video_id="vid")
        sel = uniform_sample(video, 2)
        assert sel.video_id == "vid"
        assert sel.indices == (0, 1)


class TestHistogramCluster:
    def test_two_separated_groups(self):
        # identical one-hot histograms per group in different subshots
        features = make_features(
            [
                [[1.0, 0, 0], [1.0, 0, 0]],
                [[1.0, 0, 0]],
                [[0, 0, 1.0], [0, 0, 1.0]],
                [[0, 0, 1.0]],
            ]
        )
        for seed in range(5):
            sel = histogram_cluster(features, 2, seed)
            assert len(sel.indices) == 2
            groups = {0 if i < 2 else 1 for i in sel.indices}
            assert groups == {0, 1}

    def test_single_cluster_picks_nearest_to_global_mean(self):
        hists = [
            [[1.0, 0.0, 0.0]],
            [[0.6, 0.4, 0.0]],
            [[0.0, 1.0, 0.0]],
        ]
        features = make_features(hists)
        flat = [h[0] for h in hists]
        mean = np.mean(flat, axis=0)
        dists = [chi_square_ref(list(h), list(mean)) for h in flat]
        expected = int(np.argmin(dists))
        sel = histogram_cluster(features, 1, seed=0)
        assert sel.indices == (expected,)

    def test_every_frame_a_center_when_n_equals_frames(self):
        features = make_features(
            [[[1.0, 0, 0]], [[0, 1.0, 0]], [[0, 0, 1.0]]]
        )
        sel = histogram_cluster(features, 3, seed=9)
        assert sel.indices == (0, 1, 2)

    def test_objective_non_increasing(self):
        rng = random.Random(31)
        for seed in range(10):
            features = random_features(rng, m=6, frames_per_subshot=3)
            frames = np.vstack(features.subshots)
            result = lloyd_cluster(frames, 3, seed)
            assert all(
                a >= b - 1e-12 for a, b in zip(result.objectives, result.objectives[1:])
            )

    def test_deterministic(self):
        rng = random.Random(37)
        features = random_features(rng, m=8)
        a = histogram_cluster(features, 3, seed=5)
        b = histogram_cluster(features, 3, seed=5)
        assert a == b

    def test_rejects_more_clusters_than_frames(self):
        features = make_features([[[1.0, 0, 0]]])
        with pytest.raises(ValueError):
            histogram_cluster(features, 2, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_cluster(self, n):
        features = make_features([[[1.0, 0, 0]], [[0, 1.0, 0]]])
        with pytest.raises(ValueError, match=f"cannot select {n} distinct subshots from 2"):
            histogram_cluster(features, n, seed=0)
        with pytest.raises(ValueError, match=f"cannot form {n} clusters from 2 frames"):
            lloyd_cluster(features.frames, n, seed=0)

    def test_exact_count_and_validity(self):
        rng = random.Random(41)
        for _ in range(10):
            m = rng.randint(2, 8)
            features = random_features(rng, m)
            n = rng.randint(1, m)
            sel = histogram_cluster(features, n, seed=rng.randrange(1000))
            assert len(sel.indices) == n
            assert all(a < b for a, b in zip(sel.indices, sel.indices[1:]))


@st.composite
def duplicated_frames(draw):
    """Frames drawn with repeats from a few histograms, a cluster count and a seed.

    Equal frames make equal centers, so clusters often come out of an
    assignment pass empty and are reseeded.
    """
    counts = st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any)
    pool = np.array(draw(st.lists(counts, min_size=1, max_size=4)), dtype=np.float64)
    pool /= pool.sum(axis=1, keepdims=True)
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return pool[rows], draw(st.integers(1, len(rows))), draw(st.integers(0, 2**16))


def test_lloyd_passes_are_the_list_loop_s():
    """Assignments, objectives, centroids and distances have the bits of the list passes, reseeds
    too; distances has those of a fresh kernel call at the returned centroids."""
    reseeded = []

    @settings(max_examples=300, deadline=None)
    @given(duplicated_frames())
    def check(case):
        frames, n, seed = case
        want, reseeds = oracles.lloyd_loop(frames, n, seed)
        got = lloyd_cluster(frames, n, seed)
        reseeded.append(reseeds > 0)
        event("reseeded" if reseeds else "no reseed")
        assert got.assignments == want.assignments
        assert all(type(label) is int for label in got.assignments)
        assert np.array(got.objectives).tobytes() == np.array(want.objectives).tobytes()
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()
        assert_last_pass_distances(frames, got)

    check()
    assert any(reseeded), "no drawn case reached the reseed branch"


def assert_last_pass_distances(frames, result):
    f = frames.shape[0]
    want = chi_square_matrix(frames, result.centroids)[np.arange(f), result.assignments]
    assert result.distances.tobytes() == want.tobytes()


# eleven frames that make seven clusters cycle through reseeds until the 100-pass cap
CAPPED = np.array([[1, 2, 1], [1, 2, 1], [3, 0, 0], [0, 2, 0], [1, 3, 1], [2, 0, 3],
                   [1, 1, 3], [2, 0, 0], [1, 1, 3], [1, 1, 3], [2, 0, 0]], dtype=np.float64)
CAPPED /= CAPPED.sum(axis=1, keepdims=True)


def test_lloyd_distances_at_the_pass_cap():
    result = lloyd_cluster(CAPPED, 7, 312)
    want, reseeds = oracles.lloyd_loop(CAPPED, 7, 312)
    assert len(result.objectives) == 101 and reseeds > 0
    assert_last_pass_distances(CAPPED, result)
    assert result.distances.tobytes() == want.distances.tobytes()


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (a, b) shapes of every chi_square_matrix call summarize makes."""
    calls = []
    real = summarize.chi_square_matrix

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(summarize, "chi_square_matrix", counted)
    return calls


def test_mmr_calls_the_kernel_once(kernel_calls):
    rng = random.Random(67)
    for _ in range(10):
        m = rng.randint(2, 8)
        features = random_features(rng, m, frames_per_subshot=rng.randint(1, 3))
        kernel_calls.clear()
        mmr_keyframes(features, rng.randint(1, m), rng.choice([0.0, 0.5, 1.0]))
        assert kernel_calls == [(features.frames.shape, features.frames.shape)]


def test_lloyd_seeds_with_n_calls_then_one_per_later_pass(kernel_calls):
    rng = random.Random(71)
    cases = [(CAPPED, 7, 312)]
    for _ in range(10):
        frames = random_features(rng, rng.randint(2, 8)).frames
        cases.append((frames, rng.randint(1, frames.shape[0]), rng.randrange(1000)))
    for frames, n, seed in cases:
        kernel_calls.clear()
        result = lloyd_cluster(frames, n, seed)
        f, width = frames.shape
        seeding = [((f, width), (1, width))] * n
        assert kernel_calls == seeding + [((f, width), (n, width))] * (len(result.objectives) - 1)


def test_histogram_cluster_calls_the_kernel_only_through_lloyd(kernel_calls, monkeypatch):
    at_return = []

    def lloyd(*args):
        result = lloyd_cluster(*args)
        at_return.append(len(kernel_calls))
        return result

    monkeypatch.setattr(summarize, "lloyd_cluster", lloyd)
    rng = random.Random(73)
    for _ in range(10):
        features = random_features(rng, rng.randint(2, 8))
        kernel_calls.clear()
        histogram_cluster(features, rng.randint(1, len(features)), rng.randrange(1000))
        assert at_return[-1] == len(kernel_calls) > 0


def pooled_features(rng, m, pool=4, dim=6):
    """m subshots of 1-3 frames drawn from a pool of a few histograms, so frames repeat."""
    hists = random_features(rng, pool, frames_per_subshot=1, dim=dim).frames
    subshots = [hists[[rng.randrange(pool) for _ in range(rng.randint(1, 3))]] for _ in range(m)]
    return SubshotFeatures(video_id="v", bins_per_channel=dim // 3, subshots=tuple(subshots))


def test_medoids_are_those_of_the_sort_key():
    """Members sorted stably by distance pick what the (distance, frame) key picks, ties too."""
    rng = random.Random(53)
    for _ in range(40):
        m = rng.randint(2, 8)
        features = pooled_features(rng, m) if rng.random() < 0.5 else random_features(rng, m)
        n, seed = rng.randint(1, m), rng.randrange(1000)
        assert histogram_cluster(features, n, seed).indices == oracles.cluster_subshots(
            features, n, seed)


def symmetric_distances(rng, f):
    """An exactly symmetric f x f matrix with a zero diagonal; some have ties or zero rows.

    Tied means come from a few decimal values, whose sums round differently
    in different orders, so a pick among them depends on the order of the fold.
    """
    cells = rng.random((f, f))
    if rng.random() < 0.5:
        cells = rng.choice([0.1, 0.2, 0.3, 0.7], (f, f))
    cells *= 10.0 ** rng.uniform(-8, 8)
    dist = np.triu(cells, 1)
    dist += dist.T
    for z in rng.integers(0, f, rng.integers(0, 3)):
        dist[z] = 0.0
        dist[:, z] = 0.0
    return dist


def test_zeroed_row_column_sums_are_the_fold_loop():
    """mmr_keyframes zeroes the rows outside keep and sums whole columns: the kept rows added
    one after another, bit for bit. x + 0.0 is x for every cell, none being -0.0."""
    rng = np.random.default_rng(59)
    for _ in range(80):
        f = int(rng.integers(1, 300))
        dist = symmetric_distances(rng, f)
        keep = rng.random(f) < rng.uniform(0.0, 1.0)
        zeroed = dist.copy()
        zeroed[~keep] = 0.0
        assert zeroed.sum(axis=0).tobytes() == oracles.column_sums_loop(dist, keep).tobytes()


def test_mmr_picks_are_the_fold_loop_s(monkeypatch):
    """On random distance matrices, mmr_keyframes picks what the loop over sums picks."""
    rng = np.random.default_rng(61)
    for _ in range(60):
        m = int(rng.integers(1, 10))
        sizes = rng.integers(1, 5, m)
        f = int(sizes.sum())
        dist = symmetric_distances(rng, f)
        features = SubshotFeatures("v", 1, tuple(np.full((k, 3), 1 / 3) for k in sizes))
        monkeypatch.setattr(summarize, "chi_square_matrix", lambda a, b: dist)
        lam, n = float(rng.choice([0.0, 0.3, 0.5, 1.0])), int(rng.integers(1, m + 1))
        want = oracles.mmr_picks_loop(dist, features.owners(), n, lam)
        assert mmr_keyframes(features, n, lam) == want


class TestVideoMmr:
    def test_first_step_tie_break(self):
        # f1 == f2, f3 orthogonal: f1 wins the tie at mean distance 0.5
        features = make_features([[[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]])
        keys = mmr_keyframes(features, 1, 0.5)
        assert keys[0] == 0

    def test_exhaustion_returns_all_subshots(self):
        rng = random.Random(43)
        features = random_features(rng, m=4)
        sel = video_mmr(features, 4, 0.5)
        assert sel.indices == (0, 1, 2, 3)

    def test_per_step_matches_oracle(self):
        rng = random.Random(47)
        for trial in range(20):
            m = rng.randint(2, 8)
            features = random_features(rng, m, frames_per_subshot=rng.randint(1, 2))
            n = rng.randint(1, min(3, m))
            lam = rng.choice([0.0, 0.5, 1.0])
            keys = mmr_keyframes(features, n, lam)

            flat = [h for frames in features.subshots for h in frames]
            owners = [
                i for i, frames in enumerate(features.subshots) for _ in range(len(frames))
            ]
            dist = [[chi_square_ref(list(a), list(b)) for b in flat] for a in flat]
            remaining = list(range(len(flat)))
            selected = []
            covered = set()
            for picked in keys:
                want = mmr_step_argmin(dist, remaining, selected, lam)
                assert picked == want
                selected.append(want)
                remaining.remove(want)
                covered.add(owners[want])
            assert len(covered) == n

    def test_duplicate_subshot_continues_selection(self):
        # both extreme frames sit in subshot 0; selection must reach subshot 1
        features = make_features(
            [
                [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                [[0.5, 0.5, 0.0]],
            ]
        )
        sel = video_mmr(features, 2, 0.5)
        assert sel.indices == (0, 1)

    def test_rejects_unreachable_n(self):
        features = make_features([[[1.0, 0, 0]]])
        with pytest.raises(ValueError):
            video_mmr(features, 2, 0.5)

    def test_params_validation(self):
        features = make_features([[[1.0, 0, 0]]])
        # lambda is checked before the size
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="lambda must be in"):
                mmr_keyframes(features, n, 1.5)
        with pytest.raises(ValueError, match="cannot select 0 distinct subshots from 1"):
            mmr_keyframes(features, 0, 0.5)


class TestGreedyBow:
    def test_greedy_covering_walkthrough(self):
        video = make_video(
            [
                "I walked my dog",
                "I went shopping at the mall",
                "I walked in the park",
            ]
        )
        gt = make_gt([(0, 1, "I walked my dog in the park."), (1, 2, "I went shopping.")])
        sel = greedy_bow(video, gt, 2)
        assert sel.indices == (0, 1)

    def test_single_subshot_covers_bag(self):
        video = make_video(["dog park lake", "car road"])
        gt = make_gt([(0, 1, "dog park lake")])
        sel = greedy_bow(video, gt, 1)
        assert sel.indices == (0,)

    def test_disjoint_annotations_fall_back_to_uniform(self):
        video = make_video(["car road", "fish lake", "moon star", "wind rain"])
        gt = make_gt([(0, 1, "quartz feldspar")])
        sel = greedy_bow(video, gt, 2)
        assert sel.indices == tuple(uniform_indices(4, 2))

    def test_exact_count(self):
        rng = random.Random(53)
        for _ in range(20):
            m = rng.randint(1, 10)
            video = make_video([" ".join(rng.choices(SAFE_VOCAB, k=3)) for _ in range(m)])
            k = rng.randint(1, 4)
            gt = make_gt(
                [(i, r, " ".join(rng.choices(SAFE_VOCAB, k=3)))
                 for i, r in enumerate(rng.sample(range(1, k + 1), k))]
            )
            n = rng.randint(1, m)
            sel = greedy_bow(video, gt, n)
            assert len(sel.indices) == n
            assert all(a < b for a, b in zip(sel.indices, sel.indices[1:]))

    def test_rejects_n_above_m(self):
        video = make_video(["dog"])
        gt = make_gt([(0, 1, "dog")])
        with pytest.raises(ValueError):
            greedy_bow(video, gt, 2)


class TestSentenceDp:
    def test_known_matrix_assignment(self):
        # recreated through annotations is awkward; check via the oracle on
        # the exact matrix instead
        sim = [[0.9, 0.1, 0.2], [0.8, 0.0, 0.7]]
        score, indices = exhaustive_ordered_assignment(sim)
        assert indices == (0, 2)
        assert score == pytest.approx(1.6, abs=1e-12)

    def test_degenerate_single_sentence(self):
        video = make_video(["dog park", "car road", "dog park"])
        gt = make_gt([(0, 1, "dog park")])
        sel = sentence_dp(video, gt, 1)
        # both 0 and 2 score 1.0; lowest index wins
        assert sel.indices == (0,)

    def test_matches_exhaustive_on_random_instances(self):
        rng = random.Random(59)
        for _ in range(30):
            m = rng.randint(2, 9)
            k = rng.randint(1, min(4, m))
            video = make_video([" ".join(rng.choices(SAFE_VOCAB, k=4)) for _ in range(m)])
            gt = make_gt(
                [(i, r, " ".join(rng.choices(SAFE_VOCAB, k=4)))
                 for i, r in enumerate(rng.sample(range(1, k + 1), k))]
            )
            sel = sentence_dp(video, gt, k)
            sentences = length_adjust(gt, k)
            sim = [
                [rouge_su([s], [video.subshots[i].annotation]).f_measure for i in range(m)]
                for s in sentences
            ]
            best_score, best_indices = exhaustive_ordered_assignment(sim)
            assert sel.indices == best_indices
            got_score = fold_right_sum(sim[j][sel.indices[j]] for j in range(k))
            assert got_score == best_score

    def test_beats_random_assignments(self):
        rng = random.Random(61)
        video = make_video([" ".join(rng.choices(SAFE_VOCAB, k=4)) for _ in range(8)])
        gt = make_gt(
            [(i, r, " ".join(rng.choices(SAFE_VOCAB, k=4)))
             for i, r in enumerate(rng.sample(range(1, 4), 3))]
        )
        sel = sentence_dp(video, gt, 3)
        sentences = length_adjust(gt, 3)
        sim = [
            [rouge_su([s], [video.subshots[i].annotation]).f_measure for i in range(8)]
            for s in sentences
        ]
        best = fold_right_sum(sim[j][sel.indices[j]] for j in range(3))
        for _ in range(50):
            combo = sorted(rng.sample(range(8), 3))
            assert fold_right_sum(sim[j][combo[j]] for j in range(3)) <= best + 1e-12

    def test_fills_uniform_when_gt_shorter_than_n(self):
        video = make_video(["dog park", "car road", "fish lake", "moon star"])
        gt = make_gt([(0, 1, "fish lake")])
        sel = sentence_dp(video, gt, 3)
        assert len(sel.indices) == 3
        assert 2 in sel.indices  # the matched subshot survives

    def test_rejects_n_above_m(self):
        video = make_video(["dog"])
        gt = make_gt([(0, 1, "dog")])
        with pytest.raises(ValueError):
            sentence_dp(video, gt, 2)


def test_all_methods_deterministic(video12, gts12, features12):
    for build in (
        lambda: uniform_sample(video12, 4),
        lambda: histogram_cluster(features12, 4, seed=7),
        lambda: video_mmr(features12, 4, 0.5),
        lambda: greedy_bow(video12, gts12[0], 4),
        lambda: sentence_dp(video12, gts12[0], 4),
    ):
        assert build() == build()
