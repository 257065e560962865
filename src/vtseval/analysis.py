"""Experiment harness: rank correlation, pair judgments, agreement cases.

Pair judgments compare two similarity scores: both at or below the
zero threshold means neither item resembles the reference, scores within
the tie tolerance mean they are equally similar, and otherwise the larger
similarity wins. Text scores are F-measures whose zero point is an exact
integer match count of zero; pixel scores are negated chi-square
distances whose zero point is the maximal distance of 1. verdict_codes
is the only copy of this rule; PairJudgment and the judge_* functions
judge one item at a time with the scorers of compare_*, text and pixel.

compare_pairs and compare_triples judge a whole video alike: scores go
into k x 4 arrays, verdict_codes and the case table that classify_case
reads judge every row at once, and human verdicts are looked up by
record row. compare_triples judges its m(m-1)(m-2)/2 triples in blocks
of _BLOCK, and every score of a triple is a cell of one of two m x m
matrices; so TripleRecords holds those matrices and the codes, O(m^2)
plus 3 bytes per triple, and renders itself as canonical JSON from the
text of each cell, made once.
"""
from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    CorpusValidationError,
    GroundTruthSummary,
    SubshotFeatures,
    SummarySelection,
    Verdict,
    VideoRecord,
    float_texts,
    json_float,
    load_human_verdicts,
)
from .evaluator import best_scores
from .rng import SplitMix64, sample_indices
from .rouge import UnitTable, shared_table, su_f_matrix
from .visual import check_range, pixel_summary_distances, subshot_distances

TIE_TOLERANCE = 1e-9
TEXT_ZERO = 0.0
PIXEL_ZERO = -1.0  # similarity is -distance; chi-square tops out at 1


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
    def from_scores(cls, first: float, second: float, zero_threshold: float = TEXT_ZERO):
        code = verdict_codes(np.float64(first), np.float64(second), zero_threshold)
        return cls(verdict=_VERDICTS[code], first_score=first, second_score=second)

    def to_dict(self) -> dict:
        return _judgment(self.verdict.value, self.first_score, self.second_score)


def _judgment(verdict: str, first: float, second: float) -> dict:
    """One side's judgment as written in every compare record."""
    return {"verdict": verdict, "first_score": first, "second_score": second}


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties; NaN has no rank and is refused."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    for side, values in (("xs", xs), ("ys", ys)):
        nan = np.flatnonzero(np.isnan(np.asarray(values, dtype=np.float64)))
        if len(nan):
            raise ValueError(f"{side}[{nan[0]}]: NaN has no rank")
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
    """1-based ranks of NaN-free values; k ties ending at position e all rank e - (k - 1) / 2."""
    arr = np.asarray(values, dtype=np.float64)
    # return_index makes np.unique sort stably; its default quicksort argsort
    # pages in about 0.4 MB more of numpy's sort kernels on its first call
    _, _, group, counts = np.unique(
        arr, return_index=True, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


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

    Text metrics score both summaries in one ``evaluator.best_scores`` call,
    through one unit table (the caller's, to share it across judgments);
    the "pixel" metric scores by negated mean frame distance and needs
    features plus a ground-truth subshot selection.
    """
    if len(a) != len(b):
        raise ValueError(f"summaries must have equal size, got {len(a)} and {len(b)}")
    if metric == "pixel":
        if features is None or gt_subshots is None:
            raise ValueError("pixel judgments need features and a ground-truth subshot selection")
        sa, sb = (-pixel_summary_distances([a.indices, b.indices], gt_subshots.indices,
                                           features)).tolist()
        return PairJudgment.from_scores(sa, sb, zero_threshold=PIXEL_ZERO)
    sa, sb = best_scores([a, b], video, gts, len(a), metric, table).tolist()
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
    """Which of subshots x, y is closer to ref; rouge-su scores are one ``su_f_matrix`` column."""
    if metric not in ("rouge-su", "pixel"):
        raise ValueError(f"subshot judgments score with rouge-su or pixel, not {metric!r}")
    if len({x, y, ref}) != 3:
        raise ValueError(f"subshot indices must be distinct, got ({x}, {y}, {ref})")
    if metric == "pixel" and features is None:
        raise ValueError("pixel judgments need features")
    for idx in (x, y, ref):
        if idx < 0 or idx >= len(features if metric == "pixel" else video):
            raise ValueError(f"subshot index {idx} out of range")
    if metric == "pixel":
        sx, sy = (-subshot_distances(features, [x, y], [ref])[:, 0]).tolist()
        return PairJudgment.from_scores(sx, sy, zero_threshold=PIXEL_ZERO)
    texts = [video.subshots[i].annotation for i in (x, y, ref)]
    sx, sy = su_f_matrix(table or shared_table(), texts[:2], texts[2:])[:, 0].tolist()
    return PairJudgment.from_scores(sx, sy, zero_threshold=TEXT_ZERO)


def classify_case(vset: PairJudgment, pb: PairJudgment) -> CaseLabel:
    """Four-way agreement taxonomy of a text judgment vs a pixel judgment.

    Zero/equal cases follow the text verdict; a directional text verdict
    agrees with the pixel side only when the pixel verdict names the same
    side (a non-directional pixel verdict counts as disagreement).
    """
    return _CASES[_CASE_TABLE[_VERDICTS.index(vset.verdict), _VERDICTS.index(pb.verdict)]]


_VERDICTS = tuple(Verdict)
_CASES = tuple(CaseLabel)
# _CASE_TABLE[v, p]: the index in _CASES of the case of text verdict _VERDICTS[v]
# and pixel verdict _VERDICTS[p], the rule classify_case states
_CASE_TABLE = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [3, 3, 2, 3], [3, 3, 3, 2]])


def verdict_codes(first: np.ndarray, second: np.ndarray, zero_threshold: float) -> np.ndarray:
    """Each pair's verdict as an index into tuple(Verdict), by the rule in order of precedence:
    both at or below the zero threshold, then within the tie tolerance, then
    first above second; anything else, NaN included, is SECOND_CLOSER.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for Python floats
        tie = np.abs(first - second) <= TIE_TOLERANCE
    zero = (first <= zero_threshold) & (second <= zero_threshold)
    return np.select([zero, tie, first > second], [0, 1, 2], 3)


# one record of TripleRecords, laid out as canonical JSON at indent 0; the
# fields in order are case, pb first/second/verdict, ref, vset first/second/verdict, x, y
_RECORD = (
    '{\n  "case": "%s",\n  "pb": {\n    "first_score": %s,\n    "second_score": %s,\n'
    '    "verdict": "%s"\n  },\n  "ref": %d,\n  "vset": {\n    "first_score": %s,\n'
    '    "second_score": %s,\n    "verdict": "%s"\n  },\n  "x": %d,\n  "y": %d\n}'
)
_BLOCK = 4096  # triples judged, and records rendered, per block
# the verdict and case names, indexed by code
_VERDICT_TEXTS = np.array([v.value for v in _VERDICTS], dtype=object)
_CASE_TEXTS = np.array([c.value for c in _CASES], dtype=object)


class TripleRecords:
    """The records of compare_triples: m, the two m x m score matrices and the codes.

    Record i is the i-th triple (ref, x, y) of ``_triples(m, ...)``. Its
    scores are cells of the matrices: ``pixel[x, ref]`` and ``pixel[y, ref]``,
    then ``text[x, ref]`` and ``text[y, ref]``. Row i of the uint8 k x 3
    ``codes`` is what _judge gives for them. ``canonical`` writes the records
    as canonical JSON, as corpus.write_canonical does;
    json.loads(corpus.canonical_dumps(records)) gives them as dicts.
    """

    __slots__ = ("m", "pixel", "text", "codes")

    def __init__(self, m: int, pixel: np.ndarray, text: np.ndarray, codes: np.ndarray) -> None:
        self.m, self.pixel, self.text, self.codes = m, pixel, text, codes

    def __len__(self) -> int:
        return len(self.codes)

    def canonical(self, indent: str):
        """Yield the canonical JSON text of the records as a list, in pieces of _BLOCK records.

        indent is the line break and spaces of the list's own line. Each
        matrix cell's text is made once, by corpus.float_texts, and each
        record is one ``%`` of a template; a non-finite score raises json's
        ValueError, naming the first in file order, before anything is yielded.
        """
        if not len(self):
            yield "[]"
            return
        m = self.m
        # the diagonal is no record's score: a non-finite value there is never written
        diagonal = np.eye(m, dtype=bool)
        pixel, text = (np.where(diagonal, 0.0, cells) for cells in (self.pixel, self.text))
        if not (np.isfinite(pixel).all() and np.isfinite(text).all()):
            for ref, x, y in _triples(m, _BLOCK):
                scores = _scores(pixel, text, ref, x, y)
                bad = np.flatnonzero(~np.isfinite(scores))
                if len(bad):
                    json_float(float(scores.flat[bad[0]]))  # raises
        (pixel_texts, pixel_index), (text_texts, text_index) = map(float_texts, (pixel, text))
        item = indent + "  "
        template = _RECORD.replace("\n", item)
        sep = "," + item
        opening = "[" + item
        for start, (ref, x, y) in zip(range(0, len(self), _BLOCK), _triples(m, _BLOCK)):
            vset, pb, case = self.codes[start : start + len(ref)].T
            first, second = x * m + ref, y * m + ref  # flat cells (x, ref) and (y, ref)
            columns = (_CASE_TEXTS[case], pixel_texts[pixel_index[first]],
                       pixel_texts[pixel_index[second]], _VERDICT_TEXTS[pb], ref,
                       text_texts[text_index[first]], text_texts[text_index[second]],
                       _VERDICT_TEXTS[vset], x, y)
            rows = zip(*(column.tolist() for column in columns))
            yield opening + sep.join(map(template.__mod__, rows))
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
    if not 0 <= n <= m:
        raise ValueError(f"cannot sample {n} distinct indices from {m}")
    if count < 0:
        raise ValueError(f"cannot sample {count} pairs")
    rng = SplitMix64(seed)

    def draw() -> SummarySelection:
        return SummarySelection(video_id=video_id, indices=tuple(sample_indices(m, n, rng)))

    return [(draw(), draw()) for _ in range(count)]  # first, then second


def _judge(scores: np.ndarray) -> np.ndarray:
    """Codes of a k x 4 score array (pixel first, second, text first, second): the text
    and pixel verdicts as indices into tuple(Verdict), the case into tuple(CaseLabel)."""
    pb = verdict_codes(scores[:, 0], scores[:, 1], PIXEL_ZERO)
    vset = verdict_codes(scores[:, 2], scores[:, 3], TEXT_ZERO)
    return np.stack([vset, pb, _CASE_TABLE[vset, pb]], axis=1)


def _counts(codes: np.ndarray, names: np.ndarray) -> dict:
    """How often each name's code occurs, for the names that occur."""
    # one comparison per name: a bincount would widen every code to intp
    counts = [int(np.count_nonzero(codes == code)) for code in range(len(names))]
    return {name: k for name, k in zip(names, counts) if k}


def _human_rows(human: str | Path, fields: tuple[str, ...], bound: int, rows_of) -> tuple:
    """The record rows a human file judges, and its verdicts as indices into tuple(Verdict).

    rows_of maps key columns (a field outside 0..bound-1 as -1) to rows, -1 where no record has
    the key; a key with no record, or an empty file, is refused (CorpusValidationError).
    """
    verdicts = load_human_verdicts(human, fields)
    if not verdicts:
        raise CorpusValidationError(f"{human}: no judgments match this video")
    keys = np.array([[v if 0 <= v < bound else -1 for v in key] for key in verdicts])
    rows = rows_of(*keys.T)
    missing = np.flatnonzero(rows < 0)
    if len(missing):
        i = int(missing[0])
        named = ", ".join(f"{k}={v}" for k, v in zip(fields, list(verdicts)[i]))
        raise CorpusValidationError(f"{human}: judgments[{i}]: no judgments match {named}")
    return rows, np.array([_VERDICTS.index(v) for v in verdicts.values()])


def _agreement(codes: np.ndarray, said: np.ndarray) -> dict:
    """The agreement block: the share of judged rows whose vset (then pb) code is the human's."""
    hits = np.count_nonzero(codes == said[:, None], axis=0).tolist()
    return {"n": len(said), **{side: k / len(said) for side, k in zip(("vset", "pb"), hits)}}


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

    Pixel judgments and case counts need features covering the video and a
    non-empty gt_subshots inside them (ValueError otherwise, at any count), and come from
    one visual.pixel_summary_distances call; agreement rates need a human file
    judging pairs by their index in 0..count-1 (CorpusValidationError otherwise).
    """
    if (features is None) != (gt_subshots is None):
        missing = "gt_subshots" if gt_subshots is None else "features"
        raise ValueError(f"pixel judgments also need {missing}")
    _check_covers(features, len(video))
    if gt_subshots is not None:
        if len(gt_subshots) == 0:
            raise ValueError("ground-truth selection is empty")
        check_range(features, gt_subshots.indices)
    pairs = sample_summary_pairs(len(video), n, count, seed, video.video_id)
    rows, said = _human_rows(human, ("pair",), count, lambda pair: pair) if human else (None, None)
    with_pixel = features is not None
    summaries = [s for pair in pairs for s in pair]
    scores = np.zeros((count, 4))
    scores[:, 2:] = best_scores(summaries, video, gts, n, metric, table).reshape(count, 2)
    if with_pixel and count:
        scores[:, :2] = -pixel_summary_distances(
            [s.indices for s in summaries], gt_subshots.indices, features).reshape(count, 2)
    codes = _judge(scores)
    records = []
    for i, ((a, b), (pb1, pb2, v1, v2), (vset, pb, case)) in enumerate(
            zip(pairs, scores.tolist(), codes.tolist())):
        record = {"pair": i, "a": list(a.indices), "b": list(b.indices),
                  "vset": _judgment(_VERDICT_TEXTS[vset], v1, v2)}
        if with_pixel:
            record.update(pb=_judgment(_VERDICT_TEXTS[pb], pb1, pb2), case=_CASE_TEXTS[case])
        records.append(record)
    payload = {"mode": "pairs", "pairs": records,
               "verdict_counts": _counts(codes[:, 0], _VERDICT_TEXTS)}
    if with_pixel:
        payload["case_counts"] = _counts(codes[:, 2], _CASE_TEXTS)
    if human:
        payload["agreement"] = _agreement(codes[rows, :2 if with_pixel else 1], said)
    return payload


def compare_triples(
    video: VideoRecord,
    features: SubshotFeatures,
    human: str | Path | None = None,
    table: UnitTable | None = None,
) -> dict:
    """Judge every triple (ref, x < y) of distinct subshots; the compare output of triples mode.

    Text scores come from rouge.su_f_matrix, with subshot x's annotation as
    the candidate and ref's as the reference, pixel scores from one
    visual.subshot_distances call; the records are one TripleRecords. A
    human file must judge only such triples (CorpusValidationError otherwise).
    """
    m = len(video)
    _check_covers(features, m)
    rows, said = (_human_rows(human, ("ref", "x", "y"), m, lambda *key: _triple_rows(m, *key))
                  if human else (None, None))
    annotations = [shot.annotation for shot in video.subshots]
    text = su_f_matrix(table or shared_table(), annotations, annotations)
    pixel = -subshot_distances(features, range(m), range(m))
    codes = np.empty((m * (m - 1) * (m - 2) // 2, 3), dtype=np.uint8)
    for start, (ref, x, y) in zip(range(0, len(codes), _BLOCK), _triples(m, _BLOCK)):
        codes[start : start + len(ref)] = _judge(_scores(pixel, text, ref, x, y))
    payload = {"mode": "triples", "case_counts": _counts(codes[:, 2], _CASE_TEXTS),
               "triples": TripleRecords(m, pixel, text, codes)}
    if human:
        payload["agreement"] = _agreement(codes[rows, :2], said)
    return payload


def _check_covers(features: SubshotFeatures | None, m: int) -> None:
    if features is not None and len(features) != m:
        raise ValueError(f"features cover {len(features)} subshots, the video has {m}")


def _triples(m: int, size: int):
    """Every triple (ref, x < y) of distinct subshots as (ref, x, y) arrays, in record order (by
    ref, x, then y), in blocks of at most size triples; nothing when there is no triple."""
    # the pairs x < y of the m - 1 subshots other than ref, numbered without ref
    x, y = np.triu_indices(max(m - 1, 0), 1)
    k = m * len(x)
    for start in range(0, k, size):
        ref, pair = np.divmod(np.arange(start, min(start + size, k)), len(x))
        first, second = x[pair], y[pair]
        yield ref, first + (first >= ref), second + (second >= ref)


def _scores(pixel: np.ndarray, text: np.ndarray, ref, x, y) -> np.ndarray:
    """The k x 4 scores of triples (ref, x, y): pixel first, second, text first, second."""
    return np.stack([pixel[x, ref], pixel[y, ref], text[x, ref], text[y, ref]], axis=1)


def _triple_rows(m: int, ref: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The record index of each key (ref, x, y) with fields below m, -1 where no record has it.

    A ref's records are the pairs of the other n = m - 1 subshots,
    renumbered 0..n-1 without ref; pair (x, y) of those comes after the
    x * (2n - x - 1) / 2 pairs whose first subshot is below x.
    """
    n = m - 1
    valid = (ref >= 0) & (x >= 0) & (x < y) & (ref != x) & (ref != y)
    x = x - (x > ref)
    y = y - (y > ref)
    return np.where(valid, ref * (n * (n - 1) // 2) + x * (2 * n - x - 1) // 2 + (y - x - 1), -1)
