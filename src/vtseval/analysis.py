"""Experiment harness: rank correlation, pair judgments, agreement cases.

Pair judgments compare two similarity scores: both at or below the
zero threshold means neither item resembles the reference, scores within
the tie tolerance mean they are equally similar, and otherwise the larger
similarity wins. Text scores are F-measures whose zero point is an exact
integer match count of zero; pixel scores are negated chi-square
distances whose zero point is the maximal distance of 1.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import GroundTruthSummary, SubshotFeatures, SummarySelection, VideoRecord
from .evaluator import score_summary
from .rng import SplitMix64, sample_indices
from .rouge import UnitTable, rouge_su, unit_table
from .visual import pixel_summary_distance, subshot_min_distance

TIE_TOLERANCE = 1e-9
TEXT_ZERO = 0.0
PIXEL_ZERO = -1.0  # similarity is -distance; chi-square tops out at 1


class Verdict(enum.Enum):
    BOTH_ZERO = "both_zero"
    BOTH_EQUAL = "both_equal"
    FIRST_CLOSER = "first_closer"
    SECOND_CLOSER = "second_closer"


class CaseLabel(enum.Enum):
    BOTH_ZERO = "both_zero"
    BOTH_EQUAL = "both_equal"
    INEQUAL_AGREES_PB = "inequal_agrees_pb"
    INEQUAL_DISAGREES_PB = "inequal_disagrees_pb"


@dataclass(frozen=True)
class PairJudgment:
    verdict: Verdict
    first_score: float
    second_score: float

    @classmethod
    def from_scores(
        cls,
        first: float,
        second: float,
        zero_threshold: float = TEXT_ZERO,
        tie_tolerance: float = TIE_TOLERANCE,
    ) -> "PairJudgment":
        if first <= zero_threshold and second <= zero_threshold:
            verdict = Verdict.BOTH_ZERO
        elif abs(first - second) <= tie_tolerance:
            verdict = Verdict.BOTH_EQUAL
        elif first > second:
            verdict = Verdict.FIRST_CLOSER
        else:
            verdict = Verdict.SECOND_CLOSER
        return cls(verdict=verdict, first_score=first, second_score=second)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx2 = float((dx * dx).sum())
    sy2 = float((dy * dy).sum())
    if sx2 == 0.0 or sy2 == 0.0:
        raise ValueError("constant input has no rank ordering")
    # rank deviations are exact multiples of 0.5, so these sums are exact and
    # a single sqrt keeps identity/reversal at exactly +/-1
    return float((dx * dy).sum()) / float(np.sqrt(sx2 * sy2))


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=np.float64)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# judgments


def judge_summary_pair(
    a: SummarySelection,
    b: SummarySelection,
    video: VideoRecord,
    gts: list[GroundTruthSummary],
    metric: str = "rouge-su",
    features: SubshotFeatures | None = None,
    gt_subshots: SummarySelection | None = None,
    stopwords: frozenset[str] | None = None,
    table: UnitTable | None = None,
) -> PairJudgment:
    """Which of two equal-size summaries is closer to the ground truth.

    Text metrics score via the evaluator, both summaries through one unit
    table (the caller's, to share it across judgments); the "pixel" metric
    scores by negated mean frame distance and needs features plus a
    ground-truth subshot selection.
    """
    if len(a) != len(b):
        raise ValueError(f"summaries must have equal size, got {len(a)} and {len(b)}")
    if metric == "pixel":
        if features is None or gt_subshots is None:
            raise ValueError("pixel judgments need features and a ground-truth subshot selection")
        sa = -pixel_summary_distance(a, gt_subshots, features)
        sb = -pixel_summary_distance(b, gt_subshots, features)
        return PairJudgment.from_scores(sa, sb, zero_threshold=PIXEL_ZERO)
    table = unit_table(table, stopwords)
    sa = score_summary(a, video, gts, metric, table=table).score
    sb = score_summary(b, video, gts, metric, table=table).score
    return PairJudgment.from_scores(sa, sb, zero_threshold=TEXT_ZERO)


def judge_subshot_pair(
    x: int,
    y: int,
    ref: int,
    video: VideoRecord,
    metric: str = "rouge-su",
    features: SubshotFeatures | None = None,
    stopwords: frozenset[str] | None = None,
    table: UnitTable | None = None,
) -> PairJudgment:
    """Which of subshots x, y is closer to reference subshot ref."""
    if len({x, y, ref}) != 3:
        raise ValueError(f"subshot indices must be distinct, got ({x}, {y}, {ref})")
    if metric == "pixel":
        if features is None:
            raise ValueError("pixel judgments need features")
        for idx in (x, y, ref):
            if idx < 0 or idx >= len(features):
                raise ValueError(f"subshot index {idx} out of range")
        sx = -subshot_min_distance(features.subshots[x], features.subshots[ref])
        sy = -subshot_min_distance(features.subshots[y], features.subshots[ref])
        return PairJudgment.from_scores(sx, sy, zero_threshold=PIXEL_ZERO)
    for idx in (x, y, ref):
        if idx < 0 or idx >= len(video):
            raise ValueError(f"subshot index {idx} out of range")
    table = unit_table(table, stopwords)
    ref_text = [video.subshots[ref].annotation]
    sx = rouge_su([video.subshots[x].annotation], ref_text, table=table).f_measure
    sy = rouge_su([video.subshots[y].annotation], ref_text, table=table).f_measure
    return PairJudgment.from_scores(sx, sy, zero_threshold=TEXT_ZERO)


def classify_case(vset: PairJudgment, pb: PairJudgment) -> CaseLabel:
    """Four-way agreement taxonomy of a text judgment vs a pixel judgment.

    Zero/equal cases follow the text verdict; a directional text verdict
    agrees with the pixel side only when the pixel verdict names the same
    side (a non-directional pixel verdict counts as disagreement).
    """
    if vset.verdict is Verdict.BOTH_ZERO:
        return CaseLabel.BOTH_ZERO
    if vset.verdict is Verdict.BOTH_EQUAL:
        return CaseLabel.BOTH_EQUAL
    if pb.verdict is vset.verdict:
        return CaseLabel.INEQUAL_AGREES_PB
    return CaseLabel.INEQUAL_DISAGREES_PB


def sample_summary_pairs(
    m: int,
    n: int,
    count: int,
    seed: int,
    video_id: str = "",
) -> list[tuple[SummarySelection, SummarySelection]]:
    """Reproducible random pairs of n-subshot summaries of an m-subshot video."""
    if n > m:
        raise ValueError(f"cannot sample {n} distinct indices from {m}")
    rng = SplitMix64(seed)
    pairs = []
    for _ in range(count):
        first = SummarySelection(video_id=video_id, indices=tuple(sample_indices(m, n, rng)))
        second = SummarySelection(video_id=video_id, indices=tuple(sample_indices(m, n, rng)))
        pairs.append((first, second))
    return pairs


def agreement_rate(judgments: Sequence[tuple[PairJudgment, Verdict]]) -> float:
    """Fraction of judgments whose verdict matches the human verdict."""
    if not judgments:
        raise ValueError("cannot compute agreement over an empty list")
    hits = sum(1 for automatic, human in judgments if automatic.verdict is human)
    return hits / len(judgments)
