"""Record types and canonical file I/O.

All interchange files are UTF-8 JSON with sorted keys, two-space indent
and a trailing newline; saving a loaded record reproduces the original
bytes. A record's constructor is its one check, on load and for a library
caller alike: VideoRecord, GroundTruthSummary, SummarySelection and
SubshotFeatures (every frame in numpy) refuse a field not typed as a
loader reads it (exact str or int, finite float, tuple) or against a rule
of their file, naming the first fault, after the path on load; a loader
given the annotated video also checks that the file is for it. One
reader, ``_rows``, reads each row of annotation subshots, ground-truth
sentences, summary spans, scores, features and human judgments as a tuple
of its fields; Subshot and GroundTruthSentence are NamedTuples built from
those tuples. Human judgments are read here too, by
``load_human_verdicts``, as Verdicts. Non-finite numbers are refused on
read and on write. Each load parses its file once, in ``_parse_json``,
which refuses the literals NaN and Infinity by name; a literal that
overflows, such as 1e999, reads as an infinite float, and the field that
reads it refuses it by name. A field that no loader reads goes unchecked,
in every loader alike. Every input file, the stopword lists of
``textproc.load_stopwords`` and the frames of ``visual.load_ppm``
included, is read by ``read_bytes`` (or ``read_text``, its UTF-8 text):
a file that cannot be read raises CorpusIOError and one that is not
UTF-8 CorpusParseError, naming the path.

Each load reads its file once, as bytes, and parses those bytes once. The
annotation, ground-truth and feature loaders share one process-wide memo,
module state behind one lock, keyed on the loader kind and the file's
exact bytes, not on its path or mtime: a file rewritten in place is a miss
even at the same size and mtime. A miss parses the file and runs the
checks of the file alone, and holds the record only if all passed; the
checks against the ``video`` argument run after every load, hit or miss,
so a file refused only for its video is still held. The memo holds at most
``LOAD_MEMO_BYTES`` (16 MiB) of file bytes, summed over the files it
holds, least recently used evicted, and never a larger file. The key is
the bytes themselves rather than a digest: a dict compares them exactly,
and ``hashlib`` would load OpenSSL, a few MB of resident memory. A
one-shot CLI process loads each file once and gains nothing from the memo;
a process that scores many summaries of one video, such as the
benchmark's, parses its references once. Held feature matrices are
read-only, and ``load_ground_truths`` returns a new list on every call, so
no caller can change a held record. Summaries, score files and human
judgments are not memoized.

Every file is written by one writer, ``write_canonical``. It streams the
text of ``json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2,
allow_nan=False)`` plus a newline, byte for byte, without the stdlib's
pure-Python indent encoder: lists of plain numbers are written in one
piece, and a value with a ``canonical(indent)`` method writes its own
text. Two such values write per-value text: ``float_texts`` makes the
text of each distinct value of an array once, and each entry is gathered
from it. ``save_features`` writes one piece per subshot that way, and
analysis.TripleRecords, which holds the two m x m score matrices and the
codes of every triple, each record's scores. ``canonical_dumps`` returns
the same text as a string. Writes go to a uniquely named temporary file
in the target directory that is renamed into place, so a failed save
never leaves a partial file and concurrent writers never clobber each
other's temporary file.
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
    """One author's ranked sentences; the constructor runs the rules of a ground-truth summary."""

    author_id: str
    sentences: tuple[GroundTruthSentence, ...]

    def __post_init__(self) -> None:
        _check_types((self.author_id, self.sentences), (("author_id", str), ("sentences", tuple)))
        where, sentences = f"summaries[{self.author_id}].sentences", self.sentences
        _check_types(sentences, (("", GroundTruthSentence),), where)
        _check_types(list(chain.from_iterable(sentences)), _SENTENCE_FIELDS, where)
        if not sentences:
            raise CorpusValidationError(f"{where}: must be non-empty")
        if sorted(s.rank for s in sentences) != list(range(1, len(sentences) + 1)):
            raise CorpusValidationError(f"{where}: ranks must be a permutation of 1..{len(sentences)}")
        for i, sent in enumerate(sentences):
            if i > 0 and sent.temporal_pos <= sentences[i - 1].temporal_pos:
                raise CorpusValidationError(f"{where}[{i}].temporal_pos: must be strictly increasing")
            if not sent.text:
                raise CorpusValidationError(f"{where}[{i}].text: must be non-empty")

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
    The one constructor copies one 2-D array per subshot into the matrix
    and is the one check of a feature table, on load and for a library
    caller alike. It raises CorpusValidationError naming the first fault:
    a video_id that is not a str, a bins_per_channel that is not an int (a
    bool is not one) or is below 1, no subshot, then subshot by subshot its
    shape (2-D, at least one frame, 3*bins_per_channel bins) before its
    frames (no negative entry, and a sum s that passes
    ``math.isclose(s, 1.0, abs_tol=1e-9)``, which refuses NaN and
    infinity). The subshots before the first of another shape are stacked
    and their frames checked in one numpy pass; a row's sum along the
    matrix has the bits of the sum of that row alone. ``frames``,
    ``offsets`` and every view are read-only: the loaders hand one record
    to every load of the same file. Records compare and hash by identity.
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


def _on_load(ctx: str, check, *args):
    """check(*args) on a load of the file at ctx, and its value; its CorpusValidationError names
    the path."""
    try:
        return check(*args)
    except CorpusValidationError as exc:
        raise CorpusValidationError(f"{ctx}: {exc}") from None


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
    """raw, the bytes of the file at path, as a JSON object; NaN and Infinity refused by name.

    A literal that overflows, such as 1e999, reads as an infinite float:
    the field that reads it refuses it by name.
    """

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
    """The record of the file at path, load(data) of its parse on a miss.

    The file is read once. On a miss its bytes are parsed once and load
    runs every check of the file alone; the record is held only if every
    check passed and the file is within ``LOAD_MEMO_BYTES``, read at each
    store, and then least recently used records go until all held are within it.
    """
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


def _rows(items: list, fields: tuple, where: str):
    """The rows of the JSON list items, each as the tuple of its values of fields, in order.

    fields holds two or more (name, type) pairs. When every row is an
    object whose values have exactly the field types, floats finite, the
    rows are taken as they are, checked all at once: one itemgetter, one
    compare of the values' types, one sum per float field. Any other list
    goes row by row, field by field, through ``_get``, so an int literal in
    a float field reads as a float and each error names ``{where}[i]`` and
    the field; its rows are read as they are consumed, so a caller's check
    of row i comes before any fault of row i + 1.
    """
    get = itemgetter(*(name for name, _ in fields))
    try:
        rows = list(map(get, items))
    except (KeyError, TypeError):
        rows = None
    # a sum of finite floats that overflows only sends the list the checked way
    if rows is not None and _typed(list(chain.from_iterable(rows)), [kind for _, kind in fields]):
        return rows
    return _checked_rows(items, fields, where)


def _checked_rows(items: list, fields: tuple, where: str):
    for i, row in enumerate(items):
        if not isinstance(row, dict):
            raise CorpusParseError(f"{where}[{i}] must be an object")
        yield tuple(_get(row, name, kind, f"{where}[{i}]") for name, kind in fields)


def _row_dicts(rows, fields: tuple) -> list[dict]:
    """Tuples of the values of fields as JSON objects, the layout ``_rows`` reads back."""
    names = [name for name, _ in fields]
    return [dict(zip(names, row)) for row in rows]


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
    result = []
    for i, raw in enumerate(_get(data, "summaries", list, ctx)):
        where = f"{ctx}: summaries[{i}]"
        if not isinstance(raw, dict):
            raise CorpusParseError(f"{where} must be an object")
        # an entry is not read through _rows: its sentence rows are checked before its author_id
        rows = _rows(_get(raw, "sentences", list, where), _SENTENCE_FIELDS, f"{where}.sentences")
        sentences = tuple(map(GroundTruthSentence._make, rows))
        result.append(_on_load(ctx, GroundTruthSummary, _get(raw, "author_id", str, where),
                               sentences))
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
            where = f"{ctx}: keyframe_times_s[{i}]"
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise CorpusParseError(f"{where} must be a number")
            if isinstance(t, float) and not math.isfinite(t):
                raise CorpusParseError(f"{where}: must be finite")
            if t < 0:
                raise CorpusValidationError(f"{where}: negative time {t}")
            try:
                seen.add(int(float(t) // video.subshot_seconds))
            except OverflowError:
                raise CorpusParseError(f"{where}: number out of float range") from None
        indices = tuple(sorted(seen))
    else:
        if video is None:
            raise CorpusParseError(f"{ctx}: span summaries need the video record to resolve")
        starts, ends = np.array([(shot.start_s, shot.end_s) for shot in video.subshots]).T
        hit = np.zeros(len(video), dtype=bool)
        spans = _rows(_get(data, "spans", list, ctx), _SPAN_FIELDS, f"{ctx}: spans")
        for i, (start, end) in enumerate(spans):
            if not end > start:
                raise CorpusValidationError(f"{ctx}: spans[{i}].end_s: must exceed start_s")
            hit |= (starts < end) & (start < ends)
        indices = tuple(np.flatnonzero(hit).tolist())  # a subshot's index is its position

    # the first out of the video's range, n, is named after the faults of indices[:n + 1]
    n = next((i for i, idx in enumerate(indices) if video and idx >= len(video)), len(indices))
    summary = _on_load(ctx, SummarySelection, video_id, indices[:n + 1])
    if n < len(indices):
        raise CorpusValidationError(f"{ctx}: indices[{n}]: index {indices[n]} out of range "
                                    f"for video with {len(video)} subshots")
    return summary


def save_summary(path: str | Path, summary: SummarySelection) -> None:
    write_canonical(path, {"video_id": summary.video_id, "indices": list(summary.indices)})


# ---------------------------------------------------------------------------
# score files and human judgments


def load_scores(path: str | Path) -> dict[str, float]:
    """Scores of a correlate input, ``{"scores": [{"item_id": ..., "score": ...}]}``, by item.

    Each row goes through the field rules of the other files, and each
    item_id is scored once.
    """
    ctx = str(path)
    out = {}
    rows = _rows(_get(read_json(path), "scores", list, ctx), _SCORE_FIELDS, f"{ctx}: scores")
    for i, (item_id, score) in enumerate(rows):
        if item_id in out:
            raise CorpusValidationError(f"{ctx}: scores[{i}].item_id: {item_id!r} is scored twice")
        out[item_id] = score
    return out


def load_human_verdicts(path: str | Path, keys: tuple[str, ...]) -> dict[tuple, Verdict]:
    """Human verdicts of a ``{"judgments": [...]}`` file, keyed by the int fields named in keys.

    Rows are read as in every other file, so 1.7, "3" and true are refused
    as keys; ``verdict`` must be a Verdict's value, and each key is judged once.
    """
    ctx = str(path)
    fields = tuple((key, int) for key in keys) + (("verdict", str),)
    out = {}
    rows = _rows(_get(read_json(path), "judgments", list, ctx), fields, f"{ctx}: judgments")
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
    _check_coverage(ctx, len(features), video)
    return features


def _features_of(data: dict, ctx: str) -> SubshotFeatures:
    video_id = _get(data, "video_id", str, ctx)
    bins = _get(data, "bins_per_channel", int, ctx)
    subshots = []
    rows = _rows(_get(data, "subshots", list, ctx), _FEATURE_FIELDS, f"{ctx}: subshots")
    for i, (index, frames) in enumerate(rows):
        where = f"{ctx}: subshots[{i}]"
        if index != i:
            raise CorpusValidationError(f"{where}.index: expected {i}")
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
    return _on_load(ctx, SubshotFeatures, video_id, bins, subshots)


def _check_coverage(ctx: str, m: int, video: VideoRecord | None) -> None:
    if video is not None and m != len(video):
        raise CorpusValidationError(
            f"subshots: {ctx} covers {m} subshots, the video has {len(video)}"
        )


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
