"""Record types and canonical file I/O.

All interchange files are UTF-8 JSON with sorted keys, two-space indent
and a trailing newline; saving a loaded record reproduces the original
bytes.

Refusals. A fault is refused once, by one rule, naming its field and the
file's path (the CLI exits 2 with it). A loader reads only JSON's
structure, refused as CorpusParseError: the text is JSON (NaN and
Infinity refused by name) and an object, each field is present, each
container (a file's rows, a summary's sentences, a row's frames) is a
list and each row an object. An int literal in a float field reads as a
float, and one beyond float range, as 1e999 does, as an infinite float.
Every other check is a record constructor's, the one check of its record
on load and for a library caller alike, raised as CorpusValidationError:
VideoRecord, GroundTruthSummary, SummarySelection and SubshotFeatures
refuse first a field not exactly of its type, through ``_check_types``,
the one type rule (it names the type wanted and the type found, or a
float not finite; a bool is no int), then a rule of their file, naming
the fault relative to the record (``sentences[2].rank``); a loader
prefixes the path and a ground-truth summary's place
(``summaries[1].``). Score files, human judgments, keyframe times and
spans, which no record holds, go through ``_check_types`` directly, then
their loader's rules. One order serves every file: its JSON structure,
whole; then the record's types and rules in its constructor's order (a
feature row's index and frame shape, which it does not hold, before it);
then the checks against a ``video`` argument: the file is for it, covers
it, and indexes within it, an index out of its range named after the
faults of the indices before it. A field no loader reads goes unchecked.
``_rows`` reads the rows of every file as tuples of their fields. Every
input file, stopword lists and PPM frames included, is read by
``read_bytes`` (or ``read_text``): one that cannot be read raises
CorpusIOError, one not UTF-8 CorpusParseError, naming the path.

Each load reads its file once, as bytes, and parses them once. The
annotation, ground-truth and feature loaders share one process-wide memo
behind one lock, keyed on the loader kind and the file's exact bytes: not
on a digest (``hashlib`` would load OpenSSL's few MB), nor on the path or
mtime, so a file rewritten in place is a miss. A miss runs the checks of
the file alone and holds the record only if all passed; the checks
against the ``video`` argument run after every load, hit or miss, so a
file refused only for its video is still held. The memo holds at most
``LOAD_MEMO_BYTES`` (16 MiB) of file bytes, least recently used evicted,
and never a larger file: a one-shot CLI process gains nothing from it, a
process that scores many summaries of one video parses its references
once. Held feature matrices are read-only and ``load_ground_truths``
returns a new list on every call. Summaries, score files and human
judgments are not memoized.

Every file is written by one writer, ``write_canonical``: byte for byte
the text of ``json.dumps(obj, ensure_ascii=False, sort_keys=True,
indent=2, allow_nan=False)`` plus a newline, streamed (``_emit``) into a
uniquely named temporary file renamed into place, so a failed save never
leaves a partial file and concurrent writers never clobber each other's
temporary file. A value with a ``canonical(indent)`` method writes its
own text: ``save_features``' subshots and analysis.TripleRecords' scores,
each gathered from ``float_texts``' text of each distinct value.
"""
from __future__ import annotations

import enum
import json
import math
import os
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

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


class Subshot(NamedTuple):
    index: int  # shadows tuple.index
    start_s: float
    end_s: float
    annotation: str


# each row type's fields, as its file spells them and as its constructor and the loaders type them
_SUBSHOT_FIELDS = (("index", int), ("start_s", float), ("end_s", float), ("text", str))
_SENTENCE_FIELDS = (("temporal_pos", int), ("rank", int), ("text", str))


@dataclass(frozen=True)
class VideoRecord:
    """A video's annotated subshots; the constructor runs the rules of an annotation file."""

    video_id: str
    subshot_seconds: float
    subshots: tuple[Subshot, ...]

    def __post_init__(self) -> None:
        _check_types((self.video_id, self.subshot_seconds, self.subshots),
                     (("video_id", str), ("subshot_seconds", float), ("subshots", tuple)))
        _check_types(self.subshots, (("", Subshot),), "subshots")
        _check_types(list(chain.from_iterable(self.subshots)), _SUBSHOT_FIELDS, "subshots")
        if len(self.subshots) < 1:
            raise CorpusValidationError("subshots: at least one subshot required")
        if self.subshot_seconds <= 0:
            raise CorpusValidationError("subshot_seconds: must be positive")
        for i, shot in enumerate(self.subshots):
            where = f"subshots[{i}]"
            if shot.index != i:
                raise CorpusValidationError(f"{where}.index: expected {i}, got {shot.index}")
            if not shot.end_s > shot.start_s:
                raise CorpusValidationError(f"{where}.end_s: must exceed start_s ({shot.start_s})")
            if not shot.annotation:
                raise CorpusValidationError(f"{where}.text: annotation must be non-empty")
            if i > 0 and shot.start_s < self.subshots[i - 1].start_s:
                raise CorpusValidationError(f"{where}.start_s: subshots not sorted by start time")

    def __len__(self) -> int:
        return len(self.subshots)


@dataclass(frozen=True)
class SummarySelection:
    """Subshot indices, none negative, strictly increasing; checked against a video where given."""

    video_id: str
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_types((self.video_id, self.indices), (("video_id", str), ("indices", tuple)))
        _check_types(self.indices, (("", int),), "indices")
        for i, idx in enumerate(self.indices):
            if idx < 0:
                raise CorpusValidationError(f"indices[{i}]: negative subshot index {idx}")
            if i > 0 and idx <= self.indices[i - 1]:
                raise CorpusValidationError(f"indices[{i}]: indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)


class GroundTruthSentence(NamedTuple):
    temporal_pos: int
    rank: int
    text: str


class Verdict(enum.Enum):
    """A verdict on a pair of items, as human judgment files and compare records spell it."""

    BOTH_ZERO = "both_zero"
    BOTH_EQUAL = "both_equal"
    FIRST_CLOSER = "first_closer"
    SECOND_CLOSER = "second_closer"


@dataclass(frozen=True)
class GroundTruthSummary:
    """One author's ranked sentences; the constructor runs the rules of a ground-truth summary,
    naming a fault relative to the summary (``sentences[2].rank``)."""

    author_id: str
    sentences: tuple[GroundTruthSentence, ...]

    def __post_init__(self) -> None:
        _check_types((self.author_id, self.sentences), (("author_id", str), ("sentences", tuple)))
        sentences = self.sentences
        _check_types(sentences, (("", GroundTruthSentence),), "sentences")
        _check_types(list(chain.from_iterable(sentences)), _SENTENCE_FIELDS, "sentences")
        if not sentences:
            raise CorpusValidationError("sentences: must be non-empty")
        if sorted(s.rank for s in sentences) != list(range(1, len(sentences) + 1)):
            raise CorpusValidationError(f"sentences: ranks must be a permutation of 1..{len(sentences)}")
        for i, sent in enumerate(sentences):
            if i > 0 and sent.temporal_pos <= sentences[i - 1].temporal_pos:
                raise CorpusValidationError(f"sentences[{i}].temporal_pos: must be strictly increasing")
            if not sent.text:
                raise CorpusValidationError(f"sentences[{i}].text: must be non-empty")

    @cached_property
    def by_time(self) -> tuple[tuple[int, str], ...]:
        """(place, text) of each sentence, in the order evaluator.length_adjust lists them.

        A sentence's place is its index in the sentences sorted by rank
        (stable); the pairs are those places sorted by temporal_pos (stable).
        The top n sentences in temporal order are the texts of the places
        below n. Worked out on the first read: the load memo hands one
        record to every load of a file.
        """
        sentences = self.sentences
        by_rank = sorted(range(len(sentences)), key=lambda i: sentences[i].rank)
        place = dict(zip(by_rank, range(len(by_rank))))
        by_time = sorted(by_rank, key=lambda i: sentences[i].temporal_pos)
        return tuple((place[i], sentences[i].text) for i in by_time)


@dataclass(frozen=True, init=False, eq=False)
class SubshotFeatures:
    """A video's frame histograms as one matrix, checked as it is built.

    ``frames`` holds every frame's 3*bins_per_channel-bin histogram, in
    subshot order, as one C-contiguous float64 array; subshot i owns rows
    ``offsets[i]:offsets[i + 1]``, and ``subshots[i]`` is a view of them.
    The one constructor copies one 2-D array per subshot into the matrix.
    After the field types, it refuses a bins_per_channel below 1, no
    subshot, then subshot by subshot a shape (2-D, a frame, 3*bins_per_channel
    bins) before the frames: a negative entry, or a sum s failing
    ``math.isclose(s, 1.0, abs_tol=1e-9)``, as NaN and infinity do. The
    subshots before the first of another shape are checked in one numpy
    pass; a row's sum along the matrix has the bits of that row's own sum.
    ``frames``, ``offsets`` and every view are read-only: the loaders hand
    one record to every load of a file. Records compare and hash by identity.
    """

    video_id: str
    bins_per_channel: int
    subshots: tuple[np.ndarray, ...] = field(repr=False)
    frames: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def __init__(self, video_id: str, bins_per_channel: int, subshots) -> None:
        _check_types((video_id, bins_per_channel), (("video_id", str), ("bins_per_channel", int)))
        arrays = [np.asarray(frames, dtype=np.float64) for frames in subshots]
        dim = 3 * bins_per_channel
        if bins_per_channel < 1:
            raise CorpusValidationError("bins_per_channel: must be positive")
        if not arrays:
            raise CorpusValidationError("subshots: at least one subshot required")
        # the first subshot of another shape is named after the frames before it; when that is
        # subshots[0], nothing is stacked, so no (0, dim) matrix is made for a huge dim
        odd = next((i for i, a in enumerate(arrays)
                    if a.ndim != 2 or len(a) < 1 or a.shape[1] != dim), len(arrays))
        offsets = np.cumsum([0] + [len(a) for a in arrays[:odd]], dtype=np.intp)
        if odd:
            frames = np.concatenate(arrays[:odd])
            _check_frames(frames, offsets)
        if odd < len(arrays):
            where, shape = f"subshots[{odd}].frames", arrays[odd].shape
            if len(shape) != 2 or shape[0] < 1:
                raise CorpusValidationError(f"{where}: at least one frame required")
            raise CorpusValidationError(f"{where}: histograms must have {dim} bins, got {shape[1]}")
        frames.flags.writeable = offsets.flags.writeable = False  # and so every view
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


def _check_frames(frames: np.ndarray, offsets: np.ndarray) -> None:
    """Refuse the first frame, in order, with a negative entry or a sum not close to 1."""
    with np.errstate(over="ignore", invalid="ignore"):  # a sum of inf and -inf is NaN
        sums = frames.sum(axis=1)
    gap = np.abs(1.0 - sums)
    close = (sums == 1.0) | np.isfinite(sums) & ((gap <= 1e-9) | (gap <= np.abs(1e-9 * sums)))
    bad = np.flatnonzero(np.any(frames < 0, axis=1) | ~close)
    if len(bad):
        i = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        where = f"subshots[{i}].frames[{bad[0] - offsets[i]}]"
        if np.any(frames[bad[0]] < 0):
            raise CorpusValidationError(f"{where}: negative histogram entry")
        raise CorpusValidationError(f"{where}: histogram sums to {float(sums[bad[0]])!r}, expected 1")


# ---------------------------------------------------------------------------
# validation


def _typed(values, types: list) -> bool:
    """Whether values, rows of len(types) end to end, are each exactly of its type, each float
    field summing to a finite float (one that overflows reads as a fault): one bulk type test."""
    return (list(map(type, values)) == types * (len(values) // len(types)) and all(
        math.isfinite(sum(values[j::len(types)])) for j, kind in enumerate(types) if kind is float))


def _check_types(values, fields: tuple, where: str = "") -> None:
    """Refuse the first of values (rows of fields' types, end to end) not exactly of its type (a
    bool is no int) or a float not finite, naming ``{where}[row].{name}``, or ``name`` alone."""
    if not _typed(values, [kind for _, kind in fields]):
        for k, value in enumerate(values):
            name, kind = fields[k % len(fields)]
            at = ".".join(filter(None, (where and f"{where}[{k // len(fields)}]", name)))
            if type(value) is not kind:
                raise CorpusValidationError(f"{at}: expected {kind.__name__}, got {type(value).__name__}")
            if kind is float and not math.isfinite(value):
                raise CorpusValidationError(f"{at}: must be finite")


def validate_ground_truths(gts) -> None:
    """The list-level rule of a ground-truth file: at least one summary, no author_id twice."""
    if not gts:
        raise CorpusValidationError("summaries: must contain at least one ground truth")
    ids = [gt.author_id for gt in gts]
    for i, j in enumerate(map(ids.index, ids)):  # j: the first summary by the same author
        if j < i:
            raise CorpusValidationError(
                f"summaries[{i}].author_id: {ids[i]!r} repeats summaries[{j}]")


def _on_load(ctx: str, check, *args, at: str = ""):
    """check(*args) on a load of the file at ctx, and its value; its CorpusValidationError names
    the path, then at, the place in the file of the record checked."""
    try:
        return check(*args)
    except CorpusValidationError as exc:
        raise CorpusValidationError(f"{ctx}: {at}{exc}") from None


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


def float_texts(values) -> tuple[np.ndarray, np.ndarray]:
    """The ``json_float`` text of each distinct value of a float array, and each entry's index.

    Returns (texts, index): texts is a 1-D object array holding each
    distinct value's text once, and index, flat in C order, gives
    ``texts[index[i]]`` as the text of the i-th entry. Values are told apart
    by their bits, so -0.0 and 0.0 keep their own texts. A non-finite value
    raises json_float's ValueError.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.int64)
    # not np.unique, nor an argsort: the first call of either pages in a few hundred KB that a
    # one-shot process would not otherwise touch (numpy.ma, numpy's quicksort kernels)
    ranked = np.sort(bits)
    first = np.ones(len(ranked), dtype=bool)  # where a distinct value starts in ranked
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = ranked[first]
    texts = [json_float(value) for value in distinct.view(np.float64).tolist()]
    return np.array(texts, dtype=object), np.searchsorted(distinct, bits)


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


def read_bytes(path: str | Path) -> bytes:
    """The bytes of the file at path; CorpusIOError naming it if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        exc.filename = str(Path(path))  # as Path.read_bytes names it: x//y.json is x/y.json
        raise CorpusIOError(f"cannot read {path}: {exc}") from exc


def _decode(raw: bytes, path: str | Path) -> str:
    """raw as ``Path.read_text(encoding="utf-8")`` reads it: UTF-8, with universal newlines."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: str | Path) -> str:
    """The file at path as UTF-8 text with universal newlines; CorpusParseError if not UTF-8."""
    return _decode(read_bytes(path), path)


def read_json(path: str | Path) -> dict:
    return _parse_json(read_bytes(path), path)


def _parse_json(raw: bytes, path: str | Path) -> dict:
    """raw, the bytes of the file at path, as a JSON object; NaN and Infinity refused by name."""

    def refuse(literal: str):
        raise CorpusParseError(f"{path}: non-finite number {literal} is not allowed")

    try:
        data = json.loads(_decode(raw, path), parse_constant=refuse)
    except ValueError as exc:
        raise CorpusParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CorpusParseError(f"{path}: top-level value must be an object")
    return data


# ---------------------------------------------------------------------------
# load memo

LOAD_MEMO_BYTES = 16 << 20
# checked records by (loader kind, file bytes), least recently used first, the loads
# counted by (loader kind, hit), and the lock that guards both
_records: OrderedDict[tuple[str, bytes], object] = OrderedDict()
_loads: Counter[tuple[str, bool]] = Counter()
_lock = threading.Lock()


def clear_load_memo() -> None:
    """Drop every record the loaders hold, and their hit and miss counts."""
    with _lock:
        _records.clear()
        _loads.clear()


def load_memo_info() -> dict:
    """The load memo's hits and misses by loader kind, and the files and bytes it holds."""
    with _lock:
        hits, misses = ({kind: k for (kind, hit), k in _loads.items() if hit is side}
                        for side in (True, False))
        return {"hits": hits, "misses": misses, "files": len(_records),
                "bytes": sum(len(file) for _, file in _records)}


def _load_memoized(kind: str, path: str | Path, load):
    """The record of the file at path, load(data) of its parse on a miss; held if load passed
    and the file is within ``LOAD_MEMO_BYTES``, read at each store, evicting the oldest."""
    raw = read_bytes(path)
    key = (kind, raw)
    with _lock:
        record = _records.get(key)
        _loads[kind, record is not None] += 1
        if record is not None:
            _records.move_to_end(key)
            return record
    record = load(_parse_json(raw, path))
    budget = LOAD_MEMO_BYTES
    if len(raw) <= budget:
        with _lock:
            _records[key] = record
            while sum(len(file) for _, file in _records) > budget:
                _records.popitem(last=False)
    return record


def _as_float(value):
    """value, an int (not a bool) read as a float: beyond float range, an infinite one."""
    try:
        return float(value) if type(value) is int else value
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _get(data: dict, key: str, kind, context: str):
    """data[key] as a loader reads it: present, a list where kind is list, an int read as a float
    where kind is float; any other type is left for the record's type rule."""
    if key not in data:
        raise CorpusParseError(f"{context}: missing field {key!r}")
    value = data[key]
    if kind is list and not isinstance(value, list):
        raise CorpusParseError(f"{context}.{key} must be a list")
    return _as_float(value) if kind is float else value


def _rows(items: list, fields: tuple, where: str) -> list:
    """The rows of the JSON list items, each the tuple of its values of fields (two or more).

    Rows of exactly the field types, floats finite, are taken as they are:
    one itemgetter, one compare of the values' types, one sum per float
    field. Any other list is read row by row through ``_get``, naming
    ``{where}[i]`` of the first row that is not an object or lacks a field.
    """
    get = itemgetter(*(name for name, _ in fields))
    try:
        rows = list(map(get, items))
    except (KeyError, TypeError):
        rows = None
    # a sum of finite floats that overflows only sends the list the slow way
    if rows is not None and _typed(list(chain.from_iterable(rows)), [kind for _, kind in fields]):
        return rows
    rows = []
    for i, row in enumerate(items):
        if not isinstance(row, dict):
            raise CorpusParseError(f"{where}[{i}] must be an object")
        rows.append(tuple(_get(row, name, kind, f"{where}[{i}]") for name, kind in fields))
    return rows


def _row_dicts(rows, fields: tuple) -> list[dict]:
    """Tuples of the values of fields as JSON objects, the layout ``_rows`` reads back."""
    names = [name for name, _ in fields]
    return [dict(zip(names, row)) for row in rows]


_AUTHOR_FIELDS = (("author_id", str), ("sentences", list))
_SPAN_FIELDS = (("start_s", float), ("end_s", float))
_SCORE_FIELDS = (("item_id", str), ("score", float))
_FEATURE_FIELDS = (("index", int), ("frames", list))


# ---------------------------------------------------------------------------
# annotations


def load_annotations(path: str | Path) -> VideoRecord:
    return _load_memoized("annotations", path, lambda data: _annotations_of(data, str(path)))


def _annotations_of(data: dict, ctx: str) -> VideoRecord:
    rows = _rows(_get(data, "subshots", list, ctx), _SUBSHOT_FIELDS, f"{ctx}: subshots")
    shots = tuple(map(Subshot._make, rows))
    return _on_load(ctx, VideoRecord, _get(data, "video_id", str, ctx),
                    _get(data, "subshot_seconds", float, ctx), shots)


def save_annotations(path: str | Path, video: VideoRecord) -> None:
    write_canonical(
        path,
        {
            "video_id": video.video_id,
            "subshot_seconds": video.subshot_seconds,
            "subshots": _row_dicts(video.subshots, _SUBSHOT_FIELDS),
        },
    )


# ---------------------------------------------------------------------------
# ground truths


def load_ground_truths(
    path: str | Path, video: VideoRecord | None = None
) -> list[GroundTruthSummary]:
    """Load every author's reference summary; given the video, check they are for it.

    Each call returns a new list.
    """
    ctx = str(path)
    video_id, gts = _load_memoized("ground_truths", path, lambda data: _ground_truths_of(data, ctx))
    _check_video(ctx, video_id, video)
    return list(gts)


def _ground_truths_of(data: dict, ctx: str) -> tuple[str, tuple[GroundTruthSummary, ...]]:
    video_id = _get(data, "video_id", str, ctx)
    entries = _rows(_get(data, "summaries", list, ctx), _AUTHOR_FIELDS, f"{ctx}: summaries")
    sentences = [_rows(rows, _SENTENCE_FIELDS, f"{ctx}: summaries[{i}].sentences")
                 for i, (_, rows) in enumerate(entries)]
    _on_load(ctx, _check_types, (video_id,), (("video_id", str),))  # no record holds it
    result = [_on_load(ctx, GroundTruthSummary, author, tuple(map(GroundTruthSentence._make, rows)),
                       at=f"summaries[{i}].")
              for i, ((author, _), rows) in enumerate(zip(entries, sentences))]
    _on_load(ctx, validate_ground_truths, result)  # after each summary's own checks
    return video_id, tuple(result)


def save_ground_truths(path: str | Path, gts: list[GroundTruthSummary], video_id: str) -> None:
    validate_ground_truths(gts)
    write_canonical(
        path,
        {
            "video_id": video_id,
            "summaries": [
                {"author_id": gt.author_id, "sentences": _row_dicts(gt.sentences, _SENTENCE_FIELDS)}
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
    floor(time / subshot_seconds), spans map to every subshot they overlap.
    Given the video, the summary must be for it.
    """
    data = read_json(path)
    ctx = str(path)
    video_id = _get(data, "video_id", str, ctx)
    present = [k for k in _SUMMARY_KEYS if k in data]
    if len(present) != 1:
        raise CorpusParseError(
            f"{ctx}: exactly one of {', '.join(_SUMMARY_KEYS)} required, found {present or 'none'}"
        )
    form = present[0]
    if form != "indices" and video is None:
        kind = "keyframe" if form == "keyframe_times_s" else "span"
        raise CorpusParseError(f"{ctx}: {kind} summaries need the video record to resolve")
    items = _get(data, form, list, ctx)
    if form == "spans":
        items = _rows(items, _SPAN_FIELDS, f"{ctx}: spans")

    if form == "indices":
        indices = tuple(items)
    elif form == "keyframe_times_s":
        times = list(map(_as_float, items))
        _on_load(ctx, _check_types, times, (("", float),), "keyframe_times_s")
        seen = set()
        for i, t in enumerate(times):
            where = f"{ctx}: keyframe_times_s[{i}]"
            if t < 0:
                raise CorpusValidationError(f"{where}: negative time {t}")
            index = t // video.subshot_seconds
            if index == math.inf:  # past any video: no int index to name
                raise CorpusValidationError(
                    f"{where}: time {t} out of range for video with {len(video)} subshots")
            seen.add(int(index))
        indices = tuple(sorted(seen))
    else:
        _on_load(ctx, _check_types, list(chain.from_iterable(items)), _SPAN_FIELDS, "spans")
        starts, ends = np.array([(shot.start_s, shot.end_s) for shot in video.subshots]).T
        hit = np.zeros(len(video), dtype=bool)
        for i, (start, end) in enumerate(items):
            if not end > start:
                raise CorpusValidationError(f"{ctx}: spans[{i}].end_s: must exceed start_s")
            hit |= (starts < end) & (start < ends)
        indices = tuple(np.flatnonzero(hit).tolist())  # a subshot's index is its position

    # the first int out of the video's range, n, is named after the faults of indices[:n + 1]
    n = next((i for i, idx in enumerate(indices)
              if video and type(idx) is int and idx >= len(video)), len(indices))
    summary = _on_load(ctx, SummarySelection, video_id, indices[:n + 1])
    _check_video(ctx, video_id, video)
    if n < len(indices):
        raise CorpusValidationError(f"{ctx}: indices[{n}]: index {indices[n]} out of range "
                                    f"for video with {len(video)} subshots")
    return summary


def save_summary(path: str | Path, summary: SummarySelection) -> None:
    write_canonical(path, {"video_id": summary.video_id, "indices": list(summary.indices)})


# ---------------------------------------------------------------------------
# score files and human judgments


def load_scores(path: str | Path) -> dict[str, float]:
    """Scores of a correlate input, ``{"scores": [{"item_id": ..., "score": ...}]}``, by item;
    each item_id is scored once."""
    ctx = str(path)
    out = {}
    rows = _rows(_get(read_json(path), "scores", list, ctx), _SCORE_FIELDS, f"{ctx}: scores")
    _on_load(ctx, _check_types, list(chain.from_iterable(rows)), _SCORE_FIELDS, "scores")
    for i, (item_id, score) in enumerate(rows):
        if item_id in out:
            raise CorpusValidationError(f"{ctx}: scores[{i}].item_id: {item_id!r} is scored twice")
        out[item_id] = score
    return out


def load_human_verdicts(path: str | Path, keys: tuple[str, ...]) -> dict[tuple, Verdict]:
    """Human verdicts of a ``{"judgments": [...]}`` file, keyed by the int fields named in keys;
    ``verdict`` must be a Verdict's value, and each key is judged once."""
    ctx = str(path)
    fields = tuple((key, int) for key in keys) + (("verdict", str),)
    out = {}
    rows = _rows(_get(read_json(path), "judgments", list, ctx), fields, f"{ctx}: judgments")
    _on_load(ctx, _check_types, list(chain.from_iterable(rows)), fields, "judgments")
    for i, row in enumerate(rows):
        key = row[:-1]
        try:
            verdict = Verdict(row[-1])
        except ValueError as exc:
            raise CorpusParseError(f"{ctx}: judgments[{i}].verdict: {exc}") from None
        if key in out:
            raise CorpusValidationError(f"{ctx}: judgments[{i}]: {key} is judged twice")
        out[key] = verdict
    return out


# ---------------------------------------------------------------------------
# features


def load_features(path: str | Path, video: VideoRecord | None = None) -> SubshotFeatures:
    """Load histogram features; given the video, they must name it and cover each subshot."""
    ctx = str(path)
    features = _load_memoized("features", path, lambda data: _features_of(data, ctx))
    _check_video(ctx, features.video_id, video)
    if video is not None and len(features) != len(video):
        raise CorpusValidationError(
            f"subshots: {ctx} covers {len(features)} subshots, the video has {len(video)}")
    return features


def _features_of(data: dict, ctx: str) -> SubshotFeatures:
    video_id = _get(data, "video_id", str, ctx)
    bins = _get(data, "bins_per_channel", int, ctx)
    subshots = []
    rows = _rows(_get(data, "subshots", list, ctx), _FEATURE_FIELDS, f"{ctx}: subshots")
    _on_load(ctx, _check_types, list(chain.from_iterable(rows)), _FEATURE_FIELDS, "subshots")
    for i, (index, frames) in enumerate(rows):
        where = f"{ctx}: subshots[{i}]"
        if index != i:
            raise CorpusValidationError(f"{where}.index: expected {i}, got {index}")
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
            raise CorpusParseError(f"{where}.frames: must be a list of histograms")
        subshots.append(arr)
    return _on_load(ctx, SubshotFeatures, video_id, bins, subshots)


class _SubshotTexts:
    """A feature file's subshots as canonical JSON, one piece per subshot, each frame gathered
    from the per-value texts of the file."""

    __slots__ = ("texts", "index", "bounds")

    def __init__(self, texts: np.ndarray, index: np.ndarray, bounds: list) -> None:
        # index: one row of text indices per frame; subshot i owns rows bounds[i]:bounds[i + 1]
        self.texts, self.index, self.bounds = texts, index, bounds

    def canonical(self, indent: str):
        shot, key, frame, entry = (indent + "  " * depth for depth in range(1, 5))
        sep = "[" + shot
        for i, (start, stop) in enumerate(zip(self.bounds, self.bounds[1:])):
            rows = self.texts[self.index[start:stop]].tolist()
            frames = ("," + frame).join(
                "[" + entry + ("," + entry).join(row) + frame + "]" for row in rows)
            yield f'{sep}{{{key}"frames": [{frame}{frames}{key}],{key}"index": {i}{shot}}}'
            sep = "," + shot
        yield indent + "]"


def save_features(path: str | Path, features: SubshotFeatures) -> None:
    """Write features, checked when built, as canonical JSON; each distinct value's text is made
    once for the file."""
    texts, index = float_texts(features.frames)
    write_canonical(
        path,
        {
            "video_id": features.video_id,
            "bins_per_channel": features.bins_per_channel,
            "subshots": _SubshotTexts(texts, index.reshape(features.frames.shape),
                                      features.offsets.tolist()),
        },
    )
