"""Experiment harness: rank correlation, pair judgments, agreement cases.

Pair judgments compare two similarity scores: both at or below the
zero threshold means neither item resembles the reference, scores within
the tie tolerance mean they are equally similar, and otherwise the larger
similarity wins. Text scores are F-measures whose zero point is an exact
integer match count of zero; pixel scores are negated chi-square
distances whose zero point is the maximal distance of 1.

compare_pairs and compare_triples run the whole comparison of one video:
every judgment, the verdict and case counts, and the agreement rates with
a file of human verdicts. Triples look their scores up in two m x m
matrices built once, so each record has the bits judge_subshot_pair gives.
"""
from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import (
    CorpusParseError,
    CorpusValidationError,
    GroundTruthSummary,
    SubshotFeatures,
    SummarySelection,
    VideoRecord,
    read_json,
)
from .evaluator import score_summary
from .rng import SplitMix64, sample_indices
from .rouge import SU, UnitTable, rouge_su, score_bags, unit_table
from .visual import pixel_summary_distance, subshot_distance_matrix, subshot_min_distance

TIE_TOLERANCE = 1e-9
TEXT_ZERO = 0.0
PIXEL_ZERO = -1.0  # similarity is -distance; chi-square tops out at 1


class Verdict(enum.Enum):
    BOTH_ZERO = "both_zero"
    BOTH_EQUAL = "both_equal"
    FIRST_CLOSER = "first_closer"
    SECOND_CLOSER = "second_closer"


def load_human_verdicts(path: str | Path, keys: tuple[str, ...]) -> dict[tuple, Verdict]:
    """Human verdicts of a judgment file, keyed by the integer fields named in keys.

    A key field must be an integer literal: 1.7, "3" and true are refused.
    """
    rows = read_json(path).get("judgments")
    if not isinstance(rows, list):
        raise CorpusParseError(f"{path}: missing 'judgments' list")
    out = {}
    for i, row in enumerate(rows):
        try:
            key = tuple(row[k] for k in keys)
            for k, value in zip(keys, key):
                if type(value) is not int:
                    raise CorpusParseError(
                        f"{path}: judgments[{i}].{k}: expected an integer, got {value!r}"
                    )
            verdict = Verdict(row["verdict"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusParseError(f"{path}: judgments[{i}]: {exc}") from exc
        if key in out:
            raise CorpusValidationError(f"{path}: judgments[{i}]: {key} is judged twice")
        out[key] = verdict
    return out


def _refuse_unjudged(path: str | Path, verdicts: dict[tuple, Verdict], keys: tuple[str, ...],
                     judged: Callable[[tuple], bool]) -> None:
    """Refuse a human verdict for an item the comparison does not judge (judged(key) false)."""
    for i, key in enumerate(verdicts):  # in file order: a repeated key was refused on load
        if not judged(key):
            fields = ", ".join(f"{k}={v}" for k, v in zip(keys, key))
            raise CorpusValidationError(f"{path}: judgments[{i}]: no judgments match {fields}")


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

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "first_score": self.first_score,
            "second_score": self.second_score,
        }


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


def _agreement(human: str | Path, matched: list[tuple]) -> dict:
    """Agreement of the (text, pixel or None, human) verdicts of the human-judged items."""
    if not matched:
        raise CorpusValidationError(f"{human}: no judgments match this video")
    out = {"vset": agreement_rate([(v, verdict) for v, _, verdict in matched]), "n": len(matched)}
    if matched[0][1] is not None:
        out["pb"] = agreement_rate([(pb, verdict) for _, pb, verdict in matched])
    return out


def compare_pairs(
    video: VideoRecord,
    gts: list[GroundTruthSummary],
    n: int,
    count: int,
    seed: int,
    metric: str = "rouge-su",
    features: SubshotFeatures | None = None,
    gt_subshots: SummarySelection | None = None,
    human: str | Path | None = None,
    stopwords: frozenset[str] | None = None,
) -> dict:
    """Judge count sampled pairs of n-subshot summaries; the compare output of pairs mode.

    Pixel judgments and case counts need both features and gt_subshots;
    agreement rates need a human file judging pairs by their index, each
    in 0..count-1 (CorpusValidationError otherwise).
    """
    verdicts = load_human_verdicts(human, ("pair",)) if human else {}
    _refuse_unjudged(human, verdicts, ("pair",), lambda key: 0 <= key[0] < count)
    with_pixel = features is not None and gt_subshots is not None
    table = UnitTable(stopwords)
    records, counts, cases, matched = [], Counter(), Counter(), []
    for i, (a, b) in enumerate(sample_summary_pairs(len(video), n, count, seed, video.video_id)):
        vset = judge_summary_pair(a, b, video, gts, metric, table=table)
        counts[vset.verdict.value] += 1
        record = {"pair": i, "a": list(a.indices), "b": list(b.indices), "vset": vset.to_dict()}
        pb = None
        if with_pixel:
            pb = judge_summary_pair(
                a, b, video, gts, "pixel", features=features, gt_subshots=gt_subshots
            )
            case = classify_case(vset, pb).value
            cases[case] += 1
            record.update(pb=pb.to_dict(), case=case)
        if (i,) in verdicts:
            matched.append((vset, pb, verdicts[(i,)]))
        records.append(record)
    payload = {"mode": "pairs", "pairs": records, "verdict_counts": dict(counts)}
    if with_pixel:
        payload["case_counts"] = dict(cases)
    if human:
        payload["agreement"] = _agreement(human, matched)
    return payload


def compare_triples(
    video: VideoRecord,
    features: SubshotFeatures,
    human: str | Path | None = None,
    stopwords: frozenset[str] | None = None,
) -> dict:
    """Judge every triple (ref, x < y) of distinct subshots; the compare output of triples mode.

    Text scores come from one m x m matrix of ROUGE-SU F with subshot x's
    annotation as the candidate and ref's as the reference, pixel scores
    from visual.subshot_distance_matrix. A human file must judge only such
    triples (CorpusValidationError otherwise).
    """
    m = len(video)
    if len(features) != m:
        raise ValueError(f"features cover {len(features)} subshots, the video has {m}")
    verdicts = load_human_verdicts(human, ("ref", "x", "y")) if human else {}
    _refuse_unjudged(human, verdicts, ("ref", "x", "y"),
                     lambda key: 0 <= key[1] < key[2] < m and 0 <= key[0] < m
                     and key[0] not in key[1:])
    table = UnitTable(stopwords)
    bags = [table.bag(SU, [shot.annotation]) for shot in video.subshots]
    text = [[score_bags(cand, ref).f_measure for ref in bags] for cand in bags]
    pixel = (-subshot_distance_matrix(features)).tolist()
    records, cases, matched = [], Counter(), []
    for ref in range(m):
        for x in range(m):
            if x == ref:
                continue
            for y in range(x + 1, m):
                if y == ref:
                    continue
                vset = PairJudgment.from_scores(text[x][ref], text[y][ref], TEXT_ZERO)
                pb = PairJudgment.from_scores(pixel[x][ref], pixel[y][ref], PIXEL_ZERO)
                case = classify_case(vset, pb).value
                cases[case] += 1
                records.append({"ref": ref, "x": x, "y": y, "vset": vset.to_dict(),
                                "pb": pb.to_dict(), "case": case})
                if (ref, x, y) in verdicts:
                    matched.append((vset, pb, verdicts[(ref, x, y)]))
    payload = {"mode": "triples", "triples": records, "case_counts": dict(cases)}
    if human:
        payload["agreement"] = _agreement(human, matched)
    return payload
