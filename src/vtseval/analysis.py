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
matrices built once, so each record has the bits judge_subshot_pair gives,
and are judged all at once in numpy: verdict_codes applies the rule of
PairJudgment.from_scores elementwise, a 4 x 4 table built from
classify_case gives the cases, and the records come back as columns, one
TripleRecords. It reads like the list of record dicts it replaces, and
renders itself straight to canonical JSON for corpus.write_canonical.
"""
from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import (
    CorpusParseError,
    CorpusValidationError,
    GroundTruthSummary,
    SubshotFeatures,
    SummarySelection,
    VideoRecord,
    json_float,
    read_json,
)
from .evaluator import score_summary
from .rng import SplitMix64, sample_indices
from .rouge import UnitTable, rouge_su, su_f_matrix
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
        cls, first: float, second: float, zero_threshold: float = TEXT_ZERO
    ) -> "PairJudgment":
        if first <= zero_threshold and second <= zero_threshold:
            verdict = Verdict.BOTH_ZERO
        elif abs(first - second) <= TIE_TOLERANCE:
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
    table = table or UnitTable()
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
    table = table or UnitTable()
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


_VERDICTS = tuple(Verdict)
_CASES = tuple(CaseLabel)
_VERDICT_NAMES = tuple(v.value for v in _VERDICTS)
_CASE_NAMES = tuple(c.value for c in _CASES)
# _CASE_TABLE[v, p]: the index in _CASES of classify_case for text verdict
# _VERDICTS[v] and pixel verdict _VERDICTS[p]
_CASE_TABLE = np.array([
    [_CASES.index(classify_case(PairJudgment(v, 0.0, 0.0), PairJudgment(p, 0.0, 0.0)))
     for p in _VERDICTS]
    for v in _VERDICTS
])


def verdict_codes(first: np.ndarray, second: np.ndarray, zero_threshold: float) -> np.ndarray:
    """Each pair's verdict as an index into tuple(Verdict), as PairJudgment.from_scores gives it.

    The same IEEE comparisons in the same precedence, elementwise: both at
    or below the zero threshold, then within the tie tolerance, then first
    above second; anything else, NaN included, is SECOND_CLOSER.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for Python floats
        tie = np.abs(first - second) <= TIE_TOLERANCE
    zero = (first <= zero_threshold) & (second <= zero_threshold)
    return np.select([zero, tie, first > second], [0, 1, 2], 3)


# one record of TripleRecords, laid out as canonical JSON at indent 0; the
# fields in order are case, pb first/second/verdict, ref, vset first/second/verdict, x, y
_RECORD = (
    '{\n  "case": "%s",\n  "pb": {\n    "first_score": %r,\n    "second_score": %r,\n'
    '    "verdict": "%s"\n  },\n  "ref": %d,\n  "vset": {\n    "first_score": %r,\n'
    '    "second_score": %r,\n    "verdict": "%s"\n  },\n  "x": %d,\n  "y": %d\n}'
)
_BLOCK = 512  # records rendered per piece of canonical()


def _record(case, pb_first, pb_second, pb, ref, vset_first, vset_second, vset, x, y) -> dict:
    return {"ref": ref, "x": x, "y": y,
            "vset": {"verdict": vset, "first_score": vset_first, "second_score": vset_second},
            "pb": {"verdict": pb, "first_score": pb_first, "second_score": pb_second},
            "case": case}


class TripleRecords(Sequence):
    """The records of compare_triples as three arrays, one row per triple.

    ``triples`` holds (ref, x, y); ``scores`` the pixel scores of x and y
    against ref, then their text scores (the order they are written in);
    ``codes`` the text and pixel verdicts as indices into tuple(Verdict),
    then the case as an index into tuple(CaseLabel). Indexing and
    iteration give each record as a dict ``{"ref", "x", "y", "vset",
    "pb", "case"}``, vset and pb as PairJudgment.to_dict has them;
    ``canonical`` writes them all as canonical JSON, which is how
    corpus.write_canonical writes them.
    """

    __slots__ = ("triples", "scores", "codes")

    def __init__(self, triples: np.ndarray, scores: np.ndarray, codes: np.ndarray) -> None:
        self.triples, self.scores, self.codes = triples, scores, codes

    def __len__(self) -> int:
        return len(self.triples)

    def _rows(self, start: int = 0, stop: int | None = None):
        """Rows start..stop as tuples of Python values, in the order of _RECORD's fields."""
        part = slice(start, stop)
        ref, x, y = self.triples[part].T.tolist()
        pb_first, pb_second, vset_first, vset_second = self.scores[part].T.tolist()
        vset, pb, case = self.codes[part].T.tolist()
        verdict_of = _VERDICT_NAMES.__getitem__
        return zip(map(_CASE_NAMES.__getitem__, case), pb_first, pb_second, map(verdict_of, pb),
                   ref, vset_first, vset_second, map(verdict_of, vset), x, y)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # IndexError and negative indices as for a list
        return _record(*next(self._rows(i, i + 1)))

    def __iter__(self):
        return starmap(_record, self._rows())

    def __eq__(self, other):
        if isinstance(other, (list, TripleRecords)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def canonical(self, indent: str):
        """Yield the canonical JSON text of the records as a list, in pieces of _BLOCK records.

        indent is the line break and spaces of the list's own line. Each
        record is one ``%`` of a template, floats as ``float.__repr__``; a
        non-finite score raises json's ValueError before anything is yielded.
        """
        if not len(self):
            yield "[]"
            return
        bad = np.flatnonzero(~np.isfinite(self.scores))
        if len(bad):
            json_float(float(self.scores.flat[bad[0]]))  # raises, naming the first in file order
        item = indent + "  "
        template = _RECORD.replace("\n", item)
        sep = "," + item
        opening = "[" + item
        for start in range(0, len(self), _BLOCK):
            yield opening + sep.join(map(template.__mod__, self._rows(start, start + _BLOCK)))
            opening = sep
        yield indent + "]"


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


def _agreement(human: str | Path, n: int, vset_hits: int, pb_hits: int | None) -> dict:
    """The agreement block: hit rates of the text and (when judged) pixel verdicts over n items."""
    if not n:
        raise CorpusValidationError(f"{human}: no judgments match this video")
    out = {"vset": vset_hits / n, "n": n}
    if pb_hits is not None:
        out["pb"] = pb_hits / n
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
    table: UnitTable | None = None,
) -> dict:
    """Judge count sampled pairs of n-subshot summaries; the compare output of pairs mode.

    Pixel judgments and case counts need both features and gt_subshots;
    agreement rates need a human file judging pairs by their index, each
    in 0..count-1 (CorpusValidationError otherwise).
    """
    verdicts = load_human_verdicts(human, ("pair",)) if human else {}
    _refuse_unjudged(human, verdicts, ("pair",), lambda key: 0 <= key[0] < count)
    with_pixel = features is not None and gt_subshots is not None
    table = table or UnitTable()
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
        pb_hits = sum(pb.verdict is said for _, pb, said in matched) if with_pixel else None
        payload["agreement"] = _agreement(
            human, len(matched), sum(v.verdict is said for v, _, said in matched), pb_hits
        )
    return payload


def compare_triples(
    video: VideoRecord,
    features: SubshotFeatures,
    human: str | Path | None = None,
    table: UnitTable | None = None,
) -> dict:
    """Judge every triple (ref, x < y) of distinct subshots; the compare output of triples mode.

    Text scores come from rouge.su_f_matrix, with subshot x's annotation
    as the candidate and ref's as the reference, pixel scores
    from visual.subshot_distance_matrix. All triples are judged at once
    (verdict_codes, then the case table); the records come back as one
    TripleRecords. A human file must judge only such triples
    (CorpusValidationError otherwise).
    """
    m = len(video)
    if len(features) != m:
        raise ValueError(f"features cover {len(features)} subshots, the video has {m}")
    verdicts = load_human_verdicts(human, ("ref", "x", "y")) if human else {}
    _refuse_unjudged(human, verdicts, ("ref", "x", "y"),
                     lambda key: 0 <= key[1] < key[2] < m and 0 <= key[0] < m
                     and key[0] not in key[1:])
    annotations = [shot.annotation for shot in video.subshots]
    text = np.array(su_f_matrix(table or UnitTable(), annotations, annotations), dtype=np.float64)
    pixel = -subshot_distance_matrix(features)
    ref, x, y = _triples(m)
    scores = np.stack([pixel[x, ref], pixel[y, ref], text[x, ref], text[y, ref]], axis=1)
    pb = verdict_codes(scores[:, 0], scores[:, 1], PIXEL_ZERO)
    vset = verdict_codes(scores[:, 2], scores[:, 3], TEXT_ZERO)
    case = _CASE_TABLE[vset, pb]
    counts = np.bincount(case, minlength=len(_CASES)).tolist()
    payload = {
        "mode": "triples",
        "triples": TripleRecords(np.stack([ref, x, y], axis=1), scores,
                                 np.stack([vset, pb, case], axis=1)),
        "case_counts": {name: k for name, k in zip(_CASE_NAMES, counts) if k},
    }
    if human:
        r, hx, hy = np.array(list(verdicts), dtype=np.intp).reshape(-1, 3).T
        rows = _triple_rows(m, r, hx, hy)
        said = np.array([_VERDICTS.index(v) for v in verdicts.values()], dtype=np.intp)
        payload["agreement"] = _agreement(human, len(rows), np.count_nonzero(vset[rows] == said),
                                          np.count_nonzero(pb[rows] == said))
    return payload


def _triples(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every triple (ref, x < y) of distinct subshots, in record order: by ref, x, then y."""
    x, y = np.triu_indices(m, 1)  # the pairs x < y in row-major order
    ref = np.repeat(np.arange(m), len(x))
    x, y = np.tile(x, m), np.tile(y, m)
    keep = (x != ref) & (y != ref)
    return ref[keep], x[keep], y[keep]


def _triple_rows(m: int, ref: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The record index of each triple (ref, x < y) of distinct subshots of m.

    A ref's records are the pairs of the other n = m - 1 subshots,
    renumbered 0..n-1 without ref; pair (x, y) of those comes after the
    x * (2n - x - 1) / 2 pairs whose first subshot is below x.
    """
    n = m - 1
    x = x - (x > ref)
    y = y - (y > ref)
    return ref * (n * (n - 1) // 2) + x * (2 * n - x - 1) // 2 + (y - x - 1)
