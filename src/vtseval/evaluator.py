"""Summary scoring: text representation, length adjustment, best-reference score.

A summary's text representation is the annotation of each selected
subshot in temporal order. Before scoring, each human reference is
length-adjusted to the summary's subshot count: its top-n ranked
sentences, re-sorted temporally. The summary score is the maximum
F-measure over the adjusted references. Scores come from a
``rouge.UnitTable``, which also carries the stopword set: pass one table
to many calls and each annotation and reference sentence is compiled once.
A call without ``table=`` uses its thread's ``rouge.shared_table``, as
every CLI command does, so that holds across the calls of a process.
``best_scores`` scores many summaries of one length in one
``rouge.match_matrix`` call, building each reference's bag once.
Nothing here reads or writes files: the CLI writes a report's ``to_dict()``
with ``corpus.write_canonical``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import GroundTruthSummary, SummarySelection, VideoRecord
from .rouge import SU, RougeScore, UnitTable, match_matrix, prf, scores_against, shared_table

METRICS = ("rouge-su", "rouge-1", "rouge-2")
_UNIT_KINDS = {"rouge-su": SU, "rouge-1": 1, "rouge-2": 2}


@dataclass(frozen=True)
class EvaluationReport:
    summary_id: str
    length_used: int
    per_ground_truth: tuple[tuple[str, RougeScore], ...]
    best_author: str
    score: float

    def to_dict(self) -> dict:
        return {
            "summary_id": self.summary_id,
            "length_used": self.length_used,
            "per_ground_truth": [
                {
                    "author_id": author,
                    "precision": s.precision,
                    "recall": s.recall,
                    "f": s.f_measure,
                }
                for author, s in self.per_ground_truth
            ],
            "best_author": self.best_author,
            "score": self.score,
        }


def text_representation(summary: SummarySelection, video: VideoRecord) -> list[str]:
    """Annotations of the selected subshots, ascending temporal order."""
    for idx in summary.indices:
        if idx >= len(video):
            raise ValueError(f"subshot index {idx} out of range for {len(video)}-subshot video")
    return [video.subshots[i].annotation for i in summary.indices]


def length_adjust(gt: GroundTruthSummary, n: int) -> list[str]:
    """Top-n ranked sentences of a ground truth, re-sorted temporally, read off gt.by_time."""
    if n < 1:
        raise ValueError(f"adjusted length must be >= 1, got {n}")
    return [text for place, text in gt.by_time if place < n]


def _unit_kind(metric: str, gts: list[GroundTruthSummary]):
    """The unit kind of a metric; refuses an unknown metric or an empty list of ground truths."""
    if not gts:
        raise ValueError("at least one ground-truth summary is required")
    if metric not in _UNIT_KINDS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {', '.join(METRICS)}")
    return _UNIT_KINDS[metric]


def score_summary(
    summary: SummarySelection,
    video: VideoRecord,
    gts: list[GroundTruthSummary],
    metric: str = "rouge-su",
    summary_id: str | None = None,
    table: UnitTable | None = None,
) -> EvaluationReport:
    """Score a summary against every ground truth; keep all pairwise scores.

    The reported score is the maximum F-measure; ties on the best author
    go to the earliest ground truth in the list.
    """
    kind = _unit_kind(metric, gts)
    if len(summary) == 0:
        raise ValueError("cannot score an empty summary")
    candidate = text_representation(summary, video)
    n = len(summary)
    scores = scores_against(table or shared_table(), kind, candidate,
                            [length_adjust(gt, n) for gt in gts])
    pairwise = tuple(zip((gt.author_id for gt in gts), scores))
    best_author, best = max(pairwise, key=lambda item: item[1].f_measure)
    # max() keeps the first maximum, which is the tie-break we want
    return EvaluationReport(
        summary_id=summary_id if summary_id is not None else summary.video_id,
        length_used=n,
        per_ground_truth=pairwise,
        best_author=best_author,
        score=best.f_measure,
    )


def best_scores(
    summaries: list[SummarySelection],
    video: VideoRecord,
    gts: list[GroundTruthSummary],
    n: int,
    metric: str = "rouge-su",
    table: UnitTable | None = None,
) -> np.ndarray:
    """``score_summary(s, video, gts, metric).score`` of each n-subshot summary s.

    Every summary is scored in one ``match_matrix`` call, so each
    ground truth is length-adjusted and its bag built once.
    """
    kind = _unit_kind(metric, gts)
    if n < 1:
        raise ValueError("cannot score an empty summary")
    if any(len(s) != n for s in summaries):
        raise ValueError(f"every summary must have {n} subshots")
    candidates = [text_representation(s, video) for s in summaries]
    refs = [length_adjust(gt, n) for gt in gts]
    f = prf(*match_matrix(table or shared_table(), kind, candidates, refs))[2]
    return f.max(axis=1, initial=0.0)
