"""Baseline summarizers. Each returns exactly n subshot indices, ascending.

Each refuses an n outside 1..m: ``cannot select {n} distinct subshots from {m}``.

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
from .rouge import UnitTable, find, postings, shared_table, su_f_matrix
from .visual import chi_square_matrix, left_sum


# the summary-size rule of every summarizer
def _check_count(n: int, m: int) -> None:
    if not 1 <= n <= m:
        raise ValueError(f"cannot select {n} distinct subshots from {m}")


def uniform_indices(m: int, n: int) -> list[int]:
    """floor(i*m/n) for i in 0..n-1; strictly increasing when n <= m."""
    _check_count(n, m)
    return [i * m // n for i in range(n)]


def uniform_sample(video: VideoRecord, n: int) -> SummarySelection:
    """n subshots uniformly spaced over the video."""
    return SummarySelection(video_id=video.video_id, indices=tuple(uniform_indices(len(video), n)))


# ---------------------------------------------------------------------------
# frame helpers


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


def lloyd_cluster(frames: np.ndarray, n: int, seed: int) -> ClusterResult:
    """Lloyd clustering with chi-square assignment and mean centroids.

    Initialization is k-means++ style: the first center is a uniformly
    drawn frame, later centers are drawn with probability proportional to
    the squared chi-square distance to the nearest chosen center. A
    cluster that comes out of an assignment pass empty is reseeded to the
    frame currently farthest from its own centroid. Update passes stop
    when an assignment pass changes nothing, or after 100 passes.

    Mean centroids do not minimize chi-square, so an update can raise the
    objective: on large inputs the recorded objectives are not always
    non-increasing (one m=400 input went from 80.56273 to 80.56539).
    """
    f = frames.shape[0]
    if not 1 <= n <= f:
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

    def assign(cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dists = chi_square_matrix(frames, cents)
        labels = np.argmin(dists, axis=1)
        per_frame = dists[np.arange(f), labels]
        # in cluster order: a reseed can empty a later cluster
        for c in range(n):
            if not np.any(labels == c):
                far = int(np.argmax(per_frame))  # the first maximum: the lowest index
                cents[c] = frames[far]
                labels[far] = c
                per_frame[far] = 0.0
        return labels, per_frame

    assignments, per_frame = assign(centroids)
    objectives = [left_sum(per_frame.tolist())]
    for _ in range(100):
        for c in range(n):
            members = assignments == c
            if members.any():  # reseeding may have stolen a singleton's frame
                centroids[c] = frames[members].mean(axis=0)
        new_assignments, per_frame = assign(centroids)
        objectives.append(left_sum(per_frame.tolist()))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return ClusterResult(assignments.tolist(), centroids, objectives)


def histogram_cluster(features: SubshotFeatures, n: int, seed: int) -> SummarySelection:
    """Cluster all frames into n groups; pick the subshot of each group's medoid.

    If two clusters land in one subshot the next-nearest member frame in a
    not-yet-chosen subshot is used; clusters that cannot contribute are
    made up for with uniformly spaced unchosen subshots.
    """
    hists, owners = features.frames, features.owners()
    m = len(features)
    _check_count(n, m)
    result = lloyd_cluster(hists, n, seed)

    labels = np.asarray(result.assignments)
    chosen: set[int] = set()
    for c in range(n):
        members = np.flatnonzero(labels == c)
        if not len(members):
            continue
        dists = chi_square_matrix(hists[members], result.centroids[c : c + 1])[:, 0]
        # a stable sort keeps equally near members in frame order
        for pos in np.argsort(dists, kind="stable"):
            subshot = owners[members[pos]]
            if subshot not in chosen:
                chosen.add(subshot)
                break
    indices = _fill_uniform(chosen, m, n)
    return SummarySelection(video_id=features.video_id, indices=tuple(indices))


# ---------------------------------------------------------------------------
# marginal-relevance keyframe selection


def mmr_keyframes(features: SubshotFeatures, n: int, lambda_: float) -> list[int]:
    """Greedy keyframe picks (flattened frame indices) in selection order.

    Each step minimizes
        lambda * mean chi-square to the other unselected frames
        - (1 - lambda) * min chi-square to the already selected frames,
    with the second term omitted on the first pick and ties going to the
    lowest frame index. Selection continues until the picked keyframes
    cover n distinct subshots.
    """
    if not 0.0 <= lambda_ <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lambda_}")
    _check_count(n, len(features))
    owners = features.owners()
    f = len(owners)
    dist = chi_square_matrix(features.frames, features.frames)

    selected: list[int] = []
    keep = np.ones(f, dtype=bool)  # the unselected frames
    # min distance from each frame to the selected frames
    nearest = np.full(f, np.inf)
    covered: set[int] = set()
    while len(covered) < n:
        remaining = np.flatnonzero(keep)
        r = remaining.size
        if r == 0:
            raise ValueError(f"ran out of frames before reaching {n} distinct subshots")
        # The masked reduction adds the unselected rows in index order, a
        # strict left fold down each column. dist is exactly symmetric, so
        # that is the left fold along row i over the unselected frames, and
        # the zero diagonal cell adds nothing: each mean has the bits of the
        # plain left-fold sum over the others (a last frame's sum is 0.0).
        sums = np.add.reduce(dist, axis=0, where=keep[:, None], initial=0.0)
        score = lambda_ * (sums[remaining] / max(r - 1, 1))
        if selected:
            score -= (1.0 - lambda_) * nearest[remaining]
        # argmin takes the first minimum: ties go to the lowest frame index
        pos = int(np.argmin(score))
        best_idx = int(remaining[pos])
        selected.append(best_idx)
        keep[best_idx] = False
        nearest = np.minimum(nearest, dist[best_idx])
        covered.add(owners[best_idx])
    return selected


def video_mmr(features: SubshotFeatures, n: int, lambda_: float) -> SummarySelection:
    """Subshots containing the marginal-relevance keyframes."""
    owners = features.owners()
    keyframes = mmr_keyframes(features, n, lambda_)
    indices = tuple(sorted({owners[k] for k in keyframes}))
    return SummarySelection(video_id=features.video_id, indices=indices)


# ---------------------------------------------------------------------------
# greedy bag-of-words


def greedy_bow(
    video: VideoRecord,
    gt: GroundTruthSummary,
    n: int,
    table: UnitTable | None = None,
) -> SummarySelection:
    """Greedy covering of the length-adjusted ground-truth word bag.

    Each step takes the subshot whose annotation covers the most remaining
    bag words (count-clipped); covered words leave the bag. Once no
    subshot gains anything, leftover slots are filled uniformly.
    """
    m = len(video)
    _check_count(n, m)
    table = table or shared_table()
    words, remaining, _ = postings(table, 1, [length_adjust(gt, n)])
    ids, counts, owners = postings(table, 1, [[s.annotation] for s in video.subshots])
    # keep the annotation words that are in the bag, each with its position in the bag
    at, pos = find(ids, words)
    counts, owners = counts[at], owners[at]

    chosen: set[int] = set()
    for _ in range(n):
        gains = np.bincount(owners, weights=np.minimum(counts, remaining[pos]), minlength=m)
        gains[list(chosen)] = -1.0
        # argmax takes the first maximum: ties go to the lowest index
        best_idx = int(np.argmax(gains))
        if gains[best_idx] <= 0:
            break
        chosen.add(best_idx)
        mine = owners == best_idx
        remaining[pos[mine]] -= counts[mine]
        np.maximum(remaining, 0, out=remaining)
    indices = _fill_uniform(chosen, m, n)
    return SummarySelection(video_id=video.video_id, indices=tuple(indices))


# ---------------------------------------------------------------------------
# ordered sentence assignment


def sentence_dp(
    video: VideoRecord,
    gt: GroundTruthSummary,
    n: int,
    table: UnitTable | None = None,
) -> SummarySelection:
    """One subshot per ground-truth sentence, kept in sentence order.

    Maximizes the total sentence/annotation similarity (summary-level
    co-occurrence F) over strictly increasing subshot indices via dynamic
    programming with suffix-max acceleration; among optimal assignments
    the lexicographically smallest is returned. If the ground truth has
    fewer than n sentences the remainder is filled uniformly.
    """
    m = len(video)
    _check_count(n, m)
    sentences = length_adjust(gt, n)
    k = len(sentences)
    # sim[j][i]: ROUGE-SU F of sentence j (candidate) against annotation i
    sim = su_f_matrix(table or shared_table(), sentences, [s.annotation for s in video.subshots])

    # best[j][i]: best right-folded total for sentences j.. using subshot
    # indices >= i; best[j][m] is -inf for j < k
    best = np.full((k + 1, m + 1), float("-inf"))
    best[k] = 0.0
    for j in range(k - 1, -1, -1):
        # best[j][i] = max(best[j][i + 1], sim[j][i] + best[j + 1][i + 1])
        best[j, :m] = np.maximum.accumulate((sim[j] + best[j + 1, 1:])[::-1])[::-1]
    sim, best = sim.tolist(), best.tolist()

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
