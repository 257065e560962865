"""Record types and canonical file I/O.

All interchange files are UTF-8 JSON with sorted keys, two-space indent
and a trailing newline; saving a loaded record reproduces the original
bytes. Loading validates every type invariant and raises an error that
names the offending field and index; a loader given the annotated video
also checks that the file is for that video. Non-finite numbers (NaN,
Infinity, and literals such as 1e999 that overflow to infinity) are
refused on read and on write. The annotation, ground-truth and feature
loaders parse without read_json's per-float hook and check the numbers
they keep; a file they refuse goes through read_json, so the error still
names a non-finite literal. A feature file is read once, subshot by
subshot, into one SubshotFeatures; ``validate_features``, the one check
of frame values on load and on save, checks every frame in numpy and
names the first bad subshot and frame. A file that is not UTF-8 is
refused with a parse error naming it.

Every file is written by one writer, ``write_canonical``. It streams the
text of ``json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2,
allow_nan=False)`` plus a newline, byte for byte, without the stdlib's
pure-Python indent encoder: lists of plain numbers are written in one
piece, and a value with a ``canonical(indent)`` method (the columnar
analysis.TripleRecords) writes its own text. ``canonical_dumps`` returns
the same text as a string. Writes go to a uniquely named temporary file
in the target directory that is renamed into place, so a failed save
never leaves a partial file and concurrent writers never clobber each
other's temporary file.
"""
from __future__ import annotations

import json
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path

import numpy as np


class CorpusError(Exception):
    """Base class for data-layer failures."""


class CorpusIOError(CorpusError):
    """The file could not be read or written."""


class CorpusParseError(CorpusError):
    """The file is not valid JSON or lacks the expected structure."""


class CorpusValidationError(CorpusError):
    """The file parsed but violates a record invariant."""


# ---------------------------------------------------------------------------
# record types


@dataclass(frozen=True)
class Subshot:
    index: int
    start_s: float
    end_s: float
    annotation: str


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    subshot_seconds: float
    subshots: tuple[Subshot, ...]

    def __len__(self) -> int:
        return len(self.subshots)


@dataclass(frozen=True)
class SummarySelection:
    video_id: str
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GroundTruthSentence:
    temporal_pos: int
    rank: int
    text: str


@dataclass(frozen=True)
class GroundTruthSummary:
    author_id: str
    sentences: tuple[GroundTruthSentence, ...]


@dataclass(frozen=True, init=False)
class SubshotFeatures:
    """A video's frame histograms as one matrix.

    ``frames`` holds every frame's 3*bins_per_channel-bin histogram, in
    subshot order, as one C-contiguous float64 array; subshot i owns rows
    ``offsets[i]:offsets[i + 1]``, and ``subshots[i]`` is a view of them.
    The one constructor copies one 2-D array per subshot, all of one width,
    into the matrix; ``validate_features`` checks the result.
    """

    video_id: str
    bins_per_channel: int
    subshots: tuple[np.ndarray, ...] = field(repr=False)
    frames: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def __init__(self, video_id: str, bins_per_channel: int, subshots) -> None:
        arrays = [np.asarray(frames, dtype=np.float64) for frames in subshots]
        frames = np.concatenate(arrays) if arrays else np.empty((0, 3 * bins_per_channel))
        offsets = np.cumsum([0] + [len(a) for a in arrays], dtype=np.intp)
        bounds = offsets.tolist()
        views = tuple(frames[start:stop] for start, stop in zip(bounds, bounds[1:]))
        for name, value in (("video_id", video_id), ("bins_per_channel", bins_per_channel),
                            ("subshots", views), ("frames", frames), ("offsets", offsets)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.subshots)

    def owners(self) -> list[int]:
        """Each frame's subshot index, in frame order."""
        return np.repeat(np.arange(len(self.subshots)), np.diff(self.offsets)).tolist()


# ---------------------------------------------------------------------------
# validation


def validate_video(video: VideoRecord) -> None:
    if len(video.subshots) < 1:
        raise CorpusValidationError("subshots: at least one subshot required")
    if video.subshot_seconds <= 0:
        raise CorpusValidationError("subshot_seconds: must be positive")
    for i, shot in enumerate(video.subshots):
        where = f"subshots[{i}]"
        if shot.index != i:
            raise CorpusValidationError(f"{where}.index: expected {i}, got {shot.index}")
        if not shot.end_s > shot.start_s:
            raise CorpusValidationError(f"{where}.end_s: must exceed start_s ({shot.start_s})")
        if not shot.annotation:
            raise CorpusValidationError(f"{where}.text: annotation must be non-empty")
        if i > 0 and shot.start_s < video.subshots[i - 1].start_s:
            raise CorpusValidationError(f"{where}.start_s: subshots not sorted by start time")


def validate_selection(summary: SummarySelection, video: VideoRecord | None = None) -> None:
    for i, idx in enumerate(summary.indices):
        where = f"indices[{i}]"
        if idx < 0:
            raise CorpusValidationError(f"{where}: negative subshot index {idx}")
        if i > 0 and idx <= summary.indices[i - 1]:
            raise CorpusValidationError(f"{where}: indices must be strictly increasing")
        if video is not None and idx >= len(video):
            raise CorpusValidationError(
                f"{where}: index {idx} out of range for video with {len(video)} subshots"
            )


def validate_ground_truth(gt: GroundTruthSummary) -> None:
    k = len(gt.sentences)
    if k < 1:
        raise CorpusValidationError(f"summaries[{gt.author_id}].sentences: must be non-empty")
    ranks = sorted(s.rank for s in gt.sentences)
    if ranks != list(range(1, k + 1)):
        raise CorpusValidationError(
            f"summaries[{gt.author_id}].sentences: ranks must be a permutation of 1..{k}"
        )
    for i, sent in enumerate(gt.sentences):
        where = f"summaries[{gt.author_id}].sentences[{i}]"
        if i > 0 and sent.temporal_pos <= gt.sentences[i - 1].temporal_pos:
            raise CorpusValidationError(f"{where}.temporal_pos: must be strictly increasing")
        if not sent.text:
            raise CorpusValidationError(f"{where}.text: must be non-empty")


def _check_shape(i: int, frames: np.ndarray, dim: int) -> None:
    where = f"subshots[{i}].frames"
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise CorpusValidationError(f"{where}: at least one frame required")
    if frames.shape[1] != dim:
        raise CorpusValidationError(
            f"{where}: histograms must have {dim} bins, got {frames.shape[1]}"
        )


def validate_features(features: SubshotFeatures) -> None:
    """Check every frame in numpy; the error names the first bad subshot and frame.

    A frame must have no negative entry, and its sum s must pass
    ``math.isclose(s, 1.0, abs_tol=1e-9)``, which refuses NaN and infinity.
    Every row is tested at once with isclose's IEEE comparisons applied
    elementwise; a row's sum along the matrix has the bits of the sum of
    that row alone. Faults are named in subshot order, a subshot's shape
    before its frames.
    """
    bins, frames, offsets = features.bins_per_channel, features.frames, features.offsets
    if bins < 1:
        raise CorpusValidationError("bins_per_channel: must be positive")
    if len(features) < 1:
        raise CorpusValidationError("subshots: at least one subshot required")
    if frames.ndim != 2 or frames.shape[1] != 3 * bins:  # subshots[0] has that shape
        _check_shape(0, features.subshots[0], 3 * bins)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum of inf and -inf is NaN
        sums = frames.sum(axis=1)
    gap = np.abs(1.0 - sums)
    close = (sums == 1.0) | np.isfinite(sums) & ((gap <= 1e-9) | (gap <= np.abs(1e-9 * sums)))
    bad = np.flatnonzero(np.any(frames < 0, axis=1) | ~close)
    empty = np.flatnonzero(np.diff(offsets) == 0)
    # the first bad frame's subshot; a subshot without frames before it comes first
    i = int(np.searchsorted(offsets, bad[0], side="right")) - 1 if len(bad) else len(features)
    if len(empty) and empty[0] < i:
        _check_shape(int(empty[0]), features.subshots[empty[0]], 3 * bins)
    if len(bad):
        where = f"subshots[{i}].frames[{bad[0] - offsets[i]}]"
        if np.any(frames[bad[0]] < 0):
            raise CorpusValidationError(f"{where}: negative histogram entry")
        raise CorpusValidationError(f"{where}: histogram sums to {float(sums[bad[0]])!r}, expected 1")


def _check_video(ctx: str, video_id: str, video: VideoRecord | None) -> None:
    if video is not None and video_id != video.video_id:
        raise CorpusValidationError(
            f"video_id: {ctx} is for video {video_id!r}, the annotations for {video.video_id!r}"
        )


# ---------------------------------------------------------------------------
# canonical JSON plumbing


_encode_str = json.encoder.encode_basestring


def json_float(value: float) -> str:
    """A finite float as JSON, ``float.__repr__``; json's allow_nan=False ValueError otherwise."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key as json.dumps writes it: numbers, bools and None become strings."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(json_float(key))
    if key is True or key is False or key is None:
        return _encode_str(json.dumps(key))
    if isinstance(key, int):
        return _encode_str(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(obj, write, indent: str, active: set) -> None:
    """Write obj as canonical JSON through write; indent is the line break of obj's line.

    Types are tried in json.dumps' order and fail with its exception
    classes: ValueError for a non-finite float or a circular reference,
    TypeError for a value of no JSON type. A list of plain ints and
    floats is written in one piece; a value with a ``canonical(indent)``
    method writes the pieces that method yields.
    """
    if isinstance(obj, str):
        write(_encode_str(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):
        write(json_float(obj))
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            write("{}" if isinstance(obj, dict) else "[]")
            return
        if id(obj) in active:
            raise ValueError("Circular reference detected")
        active.add(id(obj))
        inner = indent + "  "
        if isinstance(obj, dict):
            sep = "{" + inner
            for key, value in sorted(obj.items()):
                write(sep + _key_text(key) + ": ")
                _emit(value, write, inner, active)
                sep = "," + inner
            write(indent + "}")
        else:
            # repr of an int or float is int.__repr__ or float.__repr__; of
            # floats only nan and inf hold an "n", and go the checked way
            numbers = set(map(type, obj)) <= {int, float}
            text = ("," + inner).join(map(repr, obj)) if numbers else ""
            if numbers and "n" not in text:
                write("[" + inner + text + indent + "]")
            else:
                sep = "[" + inner
                for item in obj:
                    write(sep)
                    _emit(item, write, inner, active)
                    sep = "," + inner
                write(indent + "]")
        active.discard(id(obj))
    elif hasattr(obj, "canonical"):
        for chunk in obj.canonical(indent):
            write(chunk)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    """obj as canonical JSON text, ending in a newline.

    The text is that of ``json.dumps(obj, ensure_ascii=False,
    sort_keys=True, indent=2, allow_nan=False) + "\\n"``, with the same
    exception classes; a value with ``canonical(indent)`` renders itself.
    """
    parts: list[str] = []
    _emit(obj, parts.append, "\n", set())
    parts.append("\n")
    return "".join(parts)


def write_canonical(path: str | Path, obj) -> None:
    """Write obj as canonical JSON, streamed into a unique temp file that is renamed into place.

    A value that cannot be written (non-finite, or text that is not
    UTF-8) raises CorpusValidationError naming the path, a value of no
    JSON type TypeError; either way the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    created = False
    try:
        # mode 0o666 lets the kernel apply the umask, as a plain open() would
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            _emit(obj, fh.write, "\n", set())
            fh.write("\n")
        os.replace(tmp, path)
        created = False
    except ValueError as exc:
        raise CorpusValidationError(f"cannot write {path}: {exc}") from exc
    except OSError as exc:
        raise CorpusIOError(f"cannot write {path}: {exc}") from exc
    finally:
        if created:
            tmp.unlink(missing_ok=True)


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusParseError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path: str | Path) -> dict:
    text = _read_text(path)

    def reject_non_finite(literal: str):
        raise CorpusParseError(f"{path}: non-finite number {literal} is not allowed")

    def finite_float(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            reject_non_finite(literal)
        return value

    try:
        data = json.loads(text, parse_float=finite_float, parse_constant=reject_non_finite)
    except ValueError as exc:
        raise CorpusParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CorpusParseError(f"{path}: top-level value must be an object")
    return data


def _no_constant(literal: str):
    raise ValueError(literal)


def _load_unhooked(path: str | Path, load):
    """load(data) on a parse of path without read_json's per-float hook.

    That parse reads an overflowing literal such as 1e999 as an infinite
    float, and load refuses one in any float it keeps (``_get`` does for
    float fields). When load refuses the data, or that parse fails, load
    runs again on read_json, which refuses non-finite literals by name; so
    every error is the one read_json would lead to. Non-finite literals in
    fields that load ignores are not refused.
    """
    try:
        data = json.loads(_read_text(path), parse_constant=_no_constant)
    except ValueError:
        data = None
    if isinstance(data, dict):
        try:
            return load(data)
        except CorpusError:
            pass
    return load(read_json(path))


def _get(data: dict, key: str, kind, context: str):
    if key not in data:
        raise CorpusParseError(f"{context}: missing field {key!r}")
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise CorpusParseError(f"{context}.{key}: number out of float range") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CorpusParseError(f"{context}.{key}: expected {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise CorpusParseError(f"{context}.{key}: must be finite")
    return value


_SUBSHOT_FIELDS = (("index", int), ("start_s", float), ("end_s", float), ("text", str))
_SENTENCE_FIELDS = (("temporal_pos", int), ("rank", int), ("text", str))


def _checked_row(raw, fields, where: str) -> list:
    """A row's fields, each through ``_get``: the path that words a row's error.

    The loaders read a row whose values have exactly the field types
    without it; every other row comes here, so an int literal in a float
    field still loads as a float and every error names the row and field.
    """
    if not isinstance(raw, dict):
        raise CorpusParseError(f"{where} must be an object")
    return [_get(raw, key, kind, where) for key, kind in fields]


# ---------------------------------------------------------------------------
# annotations


def load_annotations(path: str | Path) -> VideoRecord:
    return _load_unhooked(path, lambda data: _annotations_of(data, str(path)))


def _annotations_of(data: dict, ctx: str) -> VideoRecord:
    shots = []
    for i, raw in enumerate(_get(data, "subshots", list, ctx)):
        try:
            index, start_s, end_s, text = raw["index"], raw["start_s"], raw["end_s"], raw["text"]
        except (KeyError, TypeError):
            index = None
        if not (type(index) is int and type(start_s) is float and type(end_s) is float
                and type(text) is str and math.isfinite(start_s) and math.isfinite(end_s)):
            index, start_s, end_s, text = _checked_row(
                raw, _SUBSHOT_FIELDS, f"{ctx}: subshots[{i}]"
            )
        shots.append(Subshot(index, start_s, end_s, text))
    video = VideoRecord(
        video_id=_get(data, "video_id", str, ctx),
        subshot_seconds=_get(data, "subshot_seconds", float, ctx),
        subshots=tuple(shots),
    )
    validate_video(video)
    return video


def save_annotations(path: str | Path, video: VideoRecord) -> None:
    validate_video(video)
    write_canonical(
        path,
        {
            "video_id": video.video_id,
            "subshot_seconds": video.subshot_seconds,
            "subshots": [
                {"index": s.index, "start_s": s.start_s, "end_s": s.end_s, "text": s.annotation}
                for s in video.subshots
            ],
        },
    )


# ---------------------------------------------------------------------------
# ground truths


def load_ground_truths(
    path: str | Path, video: VideoRecord | None = None
) -> list[GroundTruthSummary]:
    """Load every author's reference summary; given the video, check they are for it."""
    return _load_unhooked(path, lambda data: _ground_truths_of(data, str(path), video))


def _ground_truths_of(data: dict, ctx: str, video: VideoRecord | None) -> list[GroundTruthSummary]:
    _check_video(ctx, _get(data, "video_id", str, ctx), video)
    result = []
    for i, raw in enumerate(_get(data, "summaries", list, ctx)):
        if not isinstance(raw, dict):
            raise CorpusParseError(f"{ctx}: summaries[{i}] must be an object")
        sentences = []
        for j, s in enumerate(_get(raw, "sentences", list, f"{ctx}: summaries[{i}]")):
            try:
                pos, rank, text = s["temporal_pos"], s["rank"], s["text"]
            except (KeyError, TypeError):
                pos = None
            if not (type(pos) is int and type(rank) is int and type(text) is str):
                pos, rank, text = _checked_row(
                    s, _SENTENCE_FIELDS, f"{ctx}: summaries[{i}].sentences[{j}]"
                )
            sentences.append(GroundTruthSentence(pos, rank, text))
        gt = GroundTruthSummary(
            author_id=_get(raw, "author_id", str, f"{ctx}: summaries[{i}]"),
            sentences=tuple(sentences),
        )
        validate_ground_truth(gt)
        result.append(gt)
    if not result:
        raise CorpusValidationError(f"{ctx}: summaries: must contain at least one ground truth")
    return result


def save_ground_truths(path: str | Path, gts: list[GroundTruthSummary], video_id: str) -> None:
    for gt in gts:
        validate_ground_truth(gt)
    write_canonical(
        path,
        {
            "video_id": video_id,
            "summaries": [
                {
                    "author_id": gt.author_id,
                    "sentences": [
                        {"temporal_pos": s.temporal_pos, "rank": s.rank, "text": s.text}
                        for s in gt.sentences
                    ],
                }
                for gt in gts
            ],
        },
    )


# ---------------------------------------------------------------------------
# summaries

_SUMMARY_KEYS = ("indices", "keyframe_times_s", "spans")


def load_summary(path: str | Path, video: VideoRecord | None = None) -> SummarySelection:
    """Load a summary given as indices, keyframe times, or time spans.

    Keyframe and span files need the video record: keyframe times map to
    floor(time / subshot_seconds), spans map to every overlapped subshot,
    found by bisection on the start times (sorted, as ``validate_video``
    requires). Given the video, the summary must be for it.
    """
    data = read_json(path)
    ctx = str(path)
    video_id = _get(data, "video_id", str, ctx)
    _check_video(ctx, video_id, video)
    present = [k for k in _SUMMARY_KEYS if k in data]
    if len(present) != 1:
        raise CorpusParseError(
            f"{ctx}: exactly one of {', '.join(_SUMMARY_KEYS)} required, found {present or 'none'}"
        )

    if present[0] == "indices":
        raw = _get(data, "indices", list, ctx)
        for i, idx in enumerate(raw):
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise CorpusParseError(f"{ctx}: indices[{i}] must be an integer")
        indices = tuple(raw)
    elif present[0] == "keyframe_times_s":
        if video is None:
            raise CorpusParseError(f"{ctx}: keyframe summaries need the video record to resolve")
        times = _get(data, "keyframe_times_s", list, ctx)
        seen = set()
        for i, t in enumerate(times):
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise CorpusParseError(f"{ctx}: keyframe_times_s[{i}] must be a number")
            if t < 0:
                raise CorpusValidationError(f"{ctx}: keyframe_times_s[{i}]: negative time {t}")
            try:
                seen.add(int(float(t) // video.subshot_seconds))
            except OverflowError:
                where = f"{ctx}: keyframe_times_s[{i}]"
                raise CorpusParseError(f"{where}: number out of float range") from None
        indices = tuple(sorted(seen))
    else:
        if video is None:
            raise CorpusParseError(f"{ctx}: span summaries need the video record to resolve")
        # Subshots are sorted by start time, but may overlap, so their end
        # times are not sorted: the subshots a span can reach lie between
        # the first whose running maximum end time passes the span's start
        # and the first that starts at or after the span's end.
        shots = video.subshots
        starts = [shot.start_s for shot in shots]
        reach = list(accumulate((shot.end_s for shot in shots), max))
        seen = set()
        for i, raw in enumerate(_get(data, "spans", list, ctx)):
            if not isinstance(raw, dict):
                raise CorpusParseError(f"{ctx}: spans[{i}] must be an object")
            start = _get(raw, "start_s", float, f"{ctx}: spans[{i}]")
            end = _get(raw, "end_s", float, f"{ctx}: spans[{i}]")
            if not end > start:
                raise CorpusValidationError(f"{ctx}: spans[{i}].end_s: must exceed start_s")
            for j in range(bisect_right(reach, start), bisect_left(starts, end)):
                if start < shots[j].end_s:
                    seen.add(shots[j].index)
        indices = tuple(sorted(seen))

    summary = SummarySelection(video_id=video_id, indices=indices)
    validate_selection(summary, video)
    return summary


def save_summary(path: str | Path, summary: SummarySelection) -> None:
    validate_selection(summary)
    write_canonical(path, {"video_id": summary.video_id, "indices": list(summary.indices)})


# ---------------------------------------------------------------------------
# score files

_SCORE_FIELDS = (("item_id", str), ("score", float))


def load_scores(path: str | Path) -> dict[str, float]:
    """Scores of a correlate input, ``{"scores": [{"item_id": ..., "score": ...}]}``, by item.

    Each row goes through the field rules of the other files, and each
    item_id is scored once.
    """
    ctx = str(path)
    out = {}
    for i, row in enumerate(_get(read_json(path), "scores", list, ctx)):
        where = f"{ctx}: scores[{i}]"
        item_id, score = _checked_row(row, _SCORE_FIELDS, where)
        if item_id in out:
            raise CorpusValidationError(f"{where}.item_id: {item_id!r} is scored twice")
        out[item_id] = score
    return out


# ---------------------------------------------------------------------------
# features


def load_features(path: str | Path, video: VideoRecord | None = None) -> SubshotFeatures:
    """Load histogram features; given the video, they must name it and cover each subshot."""
    return _load_unhooked(path, lambda data: _features_of(data, str(path), video))


def _features_of(data: dict, ctx: str, video: VideoRecord | None) -> SubshotFeatures:
    video_id = _get(data, "video_id", str, ctx)
    _check_video(ctx, video_id, video)
    bins = _get(data, "bins_per_channel", int, ctx)
    subshots = []
    for i, raw in enumerate(_get(data, "subshots", list, ctx)):
        where = f"{ctx}: subshots[{i}]"
        if not isinstance(raw, dict):
            raise CorpusParseError(f"{where} must be an object")
        if _get(raw, "index", int, where) != i:
            raise CorpusValidationError(f"{where}.index: expected {i}")
        frames = _get(raw, "frames", list, where)
        # every entry a JSON number, not a bool: numpy would read "0.5" as 0.5
        entries = chain.from_iterable(f for f in frames if isinstance(f, list))
        numeric = set(map(type, entries)) <= {int, float}
        try:
            arr = np.asarray(frames, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            numeric = False
        if not numeric:
            raise CorpusParseError(f"{where}.frames: ragged or non-numeric")
        if arr.ndim != 2:
            raise CorpusParseError(f"{where}.frames: expected a list of histograms")
        subshots.append(arr)
    _check_coverage(ctx, len(subshots), video)
    # only frames of one width stack: validate the subshots before the first
    # other width (subshots[0] alone if it is that one), then name that width
    dim = 3 * bins
    wide = next((i for i, a in enumerate(subshots) if a.shape[1] != dim), len(subshots))
    features = SubshotFeatures(video_id, bins, subshots[:wide] or subshots[:1])
    validate_features(features)
    if wide < len(subshots):
        _check_shape(wide, subshots[wide], dim)
    return features


def _check_coverage(ctx: str, m: int, video: VideoRecord | None) -> None:
    if video is not None and m != len(video):
        raise CorpusValidationError(
            f"subshots: {ctx} covers {m} subshots, the video has {len(video)}"
        )


def save_features(path: str | Path, features: SubshotFeatures) -> None:
    validate_features(features)
    write_canonical(
        path,
        {
            "video_id": features.video_id,
            "bins_per_channel": features.bins_per_channel,
            "subshots": [
                {"index": i, "frames": frames.tolist()}
                for i, frames in enumerate(features.subshots)
            ],
        },
    )
