"""Baseline summarizers. Each returns exactly n subshot indices, ascending.

All tie-breaks are lowest-index and all randomness flows through the
pinned splitmix64 generator, so identical inputs and seed give identical
summaries. Frame-based methods (clustering, marginal-relevance) operate
on the frame matrix of a feature table; text-based methods
(greedy bag-of-words, ordered sentence assignment) consume a ranked
ground truth that is length-adjusted to n before use, and take their
word bags and similarities from a ``rouge.UnitTable``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import GroundTruthSummary, SubshotFeatures, SummarySelection, VideoRecord
from .evaluator import length_adjust
from .rng import SplitMix64
from .rouge import SU, UnitTable, count_matches, score_bags
from .visual import chi_square_matrix, pairwise_chi_square


@dataclass(frozen=True)
class MmrParams:
    lambda_: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lambda_}")
        if self.n < 1:
            raise ValueError(f"target subshot count must be >= 1, got {self.n}")


def uniform_indices(m: int, n: int) -> list[int]:
    """floor(i*m/n) for i in 0..n-1; strictly increasing when n <= m."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    return [i * m // n for i in range(n)]


def uniform_sample(video: VideoRecord, n: int) -> SummarySelection:
    """n subshots uniformly spaced over the video."""
    return SummarySelection(video_id=video.video_id, indices=tuple(uniform_indices(len(video), n)))


# ---------------------------------------------------------------------------
# frame helpers


def _left_sum(values) -> float:
    """Sum in index order. From Python 3.12, sum() compensates float
    rounding, so its bits would depend on the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _fill_uniform(chosen: set[int], m: int, n: int) -> list[int]:
    """Top up a partial selection with uniformly spaced unchosen subshots."""
    missing = n - len(chosen)
    if missing > 0:
        pool = sorted(set(range(m)) - chosen)
        chosen = chosen | {pool[p] for p in uniform_indices(len(pool), missing)}
    return sorted(chosen)


# ---------------------------------------------------------------------------
# color-histogram clustering


@dataclass(frozen=True)
class ClusterResult:
    assignments: list[int]
    centroids: np.ndarray
    objectives: list[float]
    """Total assigned chi-square distance after each assignment pass."""


def lloyd_cluster(frames: np.ndarray, n: int, seed: int, max_iter: int = 100) -> ClusterResult:
    """Lloyd clustering with chi-square assignment and mean centroids.

    Initialization is k-means++ style: the first center is a uniformly
    drawn frame, later centers are drawn with probability proportional to
    the squared chi-square distance to the nearest chosen center. A
    cluster that comes out of an assignment pass empty is reseeded to the
    frame currently farthest from its own centroid.

    Mean centroids do not minimize chi-square, so an update can raise the
    objective: on large inputs the recorded objectives are not always
    non-increasing (one m=400 input went from 80.56273 to 80.56539).
    """
    f = frames.shape[0]
    if f < n:
        raise ValueError(f"cannot form {n} clusters from {f} frames")
    rng = SplitMix64(seed)

    def column(i: int) -> np.ndarray:
        return chi_square_matrix(frames, frames[i : i + 1])[:, 0]

    centers = [rng.next_below(f)]
    # distance to the nearest chosen center, kept up to date per draw
    nearest = column(centers[0])
    while len(centers) < n:
        d2 = nearest**2
        total = float(d2.sum())
        if total > 0.0:
            r = rng.next_float() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), f - 1)
        else:
            idx = min(i for i in range(f) if i not in centers)
        centers.append(idx)
        nearest = np.minimum(nearest, column(idx))
    centroids = frames[centers].copy()

    def assign(cents: np.ndarray) -> tuple[list[int], list[float]]:
        dists = chi_square_matrix(frames, cents)
        labels = [int(i) for i in np.argmin(dists, axis=1)]
        per_frame = [float(dists[i, labels[i]]) for i in range(f)]
        for c in range(n):
            if c not in labels:
                far = max(range(f), key=lambda i: (per_frame[i], -i))
                cents[c] = frames[far]
                labels[far] = c
                per_frame[far] = 0.0
        return labels, per_frame

    assignments, per_frame = assign(centroids)
    objectives = [_left_sum(per_frame)]
    for _ in range(max_iter):
        for c in range(n):
            members = [i for i in range(f) if assignments[i] == c]
            if members:  # reseeding may have stolen a singleton's frame
                centroids[c] = frames[members].mean(axis=0)
        new_assignments, per_frame = assign(centroids)
        objectives.append(_left_sum(per_frame))
        if new_assignments == assignments:
            break
        assignments = new_assignments
    return ClusterResult(assignments=assignments, centroids=centroids, objectives=objectives)


def histogram_cluster(features: SubshotFeatures, n: int, seed: int) -> SummarySelection:
    """Cluster all frames into n groups; pick the subshot of each group's medoid.

    If two clusters land in one subshot the next-nearest member frame in a
    not-yet-chosen subshot is used; clusters that cannot contribute are
    made up for with uniformly spaced unchosen subshots.
    """
    hists, owners = features.frames, features.owners()
    m = len(features)
    if n > m:
        raise ValueError(f"cannot select {n} distinct subshots from {m}")
    if hists.shape[0] < n:
        raise ValueError(f"fewer frames ({hists.shape[0]}) than clusters ({n})")
    result = lloyd_cluster(hists, n, seed)

    chosen: set[int] = set()
    for c in range(n):
        members = [i for i in range(len(owners)) if result.assignments[i] == c]
        if not members:
            continue
        dists = chi_square_matrix(hists[members], result.centroids[c : c + 1])[:, 0]
        for pos in sorted(range(len(members)), key=lambda p: (dists[p], members[p])):
            subshot = owners[members[pos]]
            if subshot not in chosen:
                chosen.add(subshot)
                break
    indices = _fill_uniform(chosen, m, n)
    return SummarySelection(video_id=features.video_id, indices=tuple(indices))


# ---------------------------------------------------------------------------
# marginal-relevance keyframe selection


def mmr_keyframes(features: SubshotFeatures, params: MmrParams) -> list[int]:
    """Greedy keyframe picks (flattened frame indices) in selection order.

    Each step minimizes
        lambda * mean chi-square to the other unselected frames
        - (1 - lambda) * min chi-square to the already selected frames,
    with the second term omitted on the first pick and ties going to the
    lowest frame index. Selection continues until the picked keyframes
    cover params.n distinct subshots.
    """
    owners = features.owners()
    f = len(owners)
    m = len(features)
    if params.n > m:
        raise ValueError(f"cannot reach {params.n} distinct subshots from {m}")
    dist = pairwise_chi_square(features.frames)

    selected: list[int] = []
    remaining = np.arange(f)
    # min distance from each frame to the selected frames
    nearest = np.full(f, np.inf)
    covered: set[int] = set()
    sums = np.empty(f)
    while len(covered) < params.n:
        r = remaining.size
        if r == 0:
            raise ValueError(f"ran out of frames before reaching {params.n} distinct subshots")
        if r > 1:
            # Adding the remaining rows in index order makes sums[i] a
            # strict left fold down column i. dist is exactly symmetric, so
            # that is the left fold along row i over the remaining frames,
            # and the zero diagonal cell adds nothing: each mean has the bits
            # of the plain left-fold sum over the others.
            sums[:] = 0.0
            for j in remaining.tolist():
                sums += dist[j]
            mean_d = sums[remaining] / (r - 1)
        else:
            mean_d = np.zeros(1)
        score = params.lambda_ * mean_d
        if selected:
            score -= (1.0 - params.lambda_) * nearest[remaining]
        # argmin takes the first minimum: ties go to the lowest frame index
        pos = int(np.argmin(score))
        best_idx = int(remaining[pos])
        selected.append(best_idx)
        remaining = np.delete(remaining, pos)
        nearest = np.minimum(nearest, dist[best_idx])
        covered.add(owners[best_idx])
    return selected


def video_mmr(features: SubshotFeatures, params: MmrParams) -> SummarySelection:
    """Subshots containing the marginal-relevance keyframes."""
    owners = features.owners()
    keyframes = mmr_keyframes(features, params)
    indices = tuple(sorted({owners[k] for k in keyframes}))
    return SummarySelection(video_id=features.video_id, indices=indices)


# ---------------------------------------------------------------------------
# greedy bag-of-words


def greedy_bow(
    video: VideoRecord,
    gt: GroundTruthSummary,
    n: int,
    stopwords: frozenset[str] | None = None,
) -> SummarySelection:
    """Greedy covering of the length-adjusted ground-truth word bag.

    Each step takes the subshot whose annotation covers the most remaining
    bag words (count-clipped); covered words leave the bag. Once no
    subshot gains anything, leftover slots are filled uniformly.
    """
    m = len(video)
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= M, got n={n}, M={m}")
    table = UnitTable(stopwords)
    bag = table.bag(1, length_adjust(gt, n))
    ann_units = [table.bag(1, [s.annotation]) for s in video.subshots]

    chosen: set[int] = set()
    for _ in range(n):
        best_idx = None
        best_gain = 0
        for i in range(m):
            if i in chosen:
                continue
            gain = count_matches(ann_units[i], bag)
            if gain > best_gain:
                best_gain = gain
                best_idx = i
        if best_idx is None:
            break
        chosen.add(best_idx)
        bag -= ann_units[best_idx]
    indices = _fill_uniform(chosen, m, n)
    return SummarySelection(video_id=video.video_id, indices=tuple(indices))


# ---------------------------------------------------------------------------
# ordered sentence assignment


def _similarity_matrix(sentences: list[str], video: VideoRecord, table: UnitTable) -> list[list[float]]:
    """k x m matrix whose [j][i] cell is rouge_su([sentences[j]], [annotation i]).f_measure."""
    ann_bags = [table.bag(SU, [s.annotation]) for s in video.subshots]
    return [
        [score_bags(sent_bag, ann_bag).f_measure for ann_bag in ann_bags]
        for sent_bag in (table.bag(SU, [s]) for s in sentences)
    ]


def sentence_dp(
    video: VideoRecord,
    gt: GroundTruthSummary,
    n: int,
    stopwords: frozenset[str] | None = None,
) -> SummarySelection:
    """One subshot per ground-truth sentence, kept in sentence order.

    Maximizes the total sentence/annotation similarity (summary-level
    co-occurrence F) over strictly increasing subshot indices via dynamic
    programming with suffix-max acceleration; among optimal assignments
    the lexicographically smallest is returned. If the ground truth has
    fewer than n sentences the remainder is filled uniformly.
    """
    m = len(video)
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= M, got n={n}, M={m}")
    sentences = length_adjust(gt, n)
    k = len(sentences)
    sim = _similarity_matrix(sentences, video, UnitTable(stopwords))

    # best[j][i]: best right-folded total for sentences j.. using subshot
    # indices >= i
    neg_inf = float("-inf")
    best = [[neg_inf] * (m + 1) for _ in range(k + 1)]
    best[k] = [0.0] * (m + 1)
    for j in range(k - 1, -1, -1):
        for i in range(m - 1, -1, -1):
            take = sim[j][i] + best[j + 1][i + 1]
            best[j][i] = max(best[j][i + 1], take)

    # Lexicographically smallest optimum. Candidate index i is feasible at
    # row j iff the full fold through the already-chosen prefix hits the
    # optimum; rounding can merge distinct suffix totals after the prefix
    # additions, so the suffix value alone cannot decide ties. Float
    # addition is monotone, which makes testing with the suffix maximum
    # sufficient.
    target = best[0][0]
    chosen: list[int] = []
    prefix: list[float] = []
    i = 0
    for j in range(k):
        while True:
            total = sim[j][i] + best[j + 1][i + 1]
            for v in reversed(prefix):
                total = v + total
            if total == target:
                break
            i += 1
        chosen.append(i)
        prefix.append(sim[j][i])
        i += 1
    indices = _fill_uniform(set(chosen), m, n)
    return SummarySelection(video_id=video.video_id, indices=tuple(indices))
