"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: explicit loops, list-based clipped
matching, exhaustive enumeration. None of it shares scoring code with the
package; where text preprocessing is unavoidable (real English fixtures)
the caller passes a tokenizer in, and the synthetic-vocabulary tests use
plain whitespace splitting so even tokenization stays independent.
"""
from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter


def split_tokens(sentence: str) -> list[str]:
    return sentence.lower().split()


def clip_count(candidate: list, reference: list) -> int:
    """Greedy one-to-one pairing of equal items; equals clipped counting."""
    pool = list(reference)
    matches = 0
    for item in candidate:
        if item in pool:
            pool.remove(item)
            matches += 1
    return matches


def su_unit_lists(sentences, prep=split_tokens):
    unigrams = []
    bigrams = []
    for sentence in sentences:
        tokens = prep(sentence)
        unigrams.extend(tokens)
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens)):
                bigrams.append((tokens[i], tokens[j]))
    return unigrams, bigrams


def bag_postings(texts) -> list[tuple[int, int, int]]:
    """(unit, count, text) of each distinct unit of each text, in order of unit and then text.

    Each text is a list of its unit occurrences in any order, counted by its own Counter.
    """
    rows = [(unit, count, t) for t, units in enumerate(texts) for unit, count in Counter(units).items()]
    return sorted(rows, key=lambda row: (row[0], row[2]))


def naive_rouge_su(candidate, reference, prep=split_tokens):
    """(precision, recall, f) by explicit enumeration and pairing."""
    cand_uni, cand_bi = su_unit_lists(candidate, prep)
    ref_uni, ref_bi = su_unit_lists(reference, prep)
    matches = clip_count(cand_uni, ref_uni) + clip_count(cand_bi, ref_bi)
    n_cand = len(cand_uni) + len(cand_bi)
    n_ref = len(ref_uni) + len(ref_bi)
    p = matches / n_cand if n_cand else 0.0
    r = matches / n_ref if n_ref else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def naive_rouge_n(candidate, reference, n, prep=split_tokens):
    def grams(sentences):
        out = []
        for sentence in sentences:
            tokens = prep(sentence)
            for i in range(len(tokens) - n + 1):
                out.append(tuple(tokens[i : i + n]))
        return out

    cand, ref = grams(candidate), grams(reference)
    matches = clip_count(cand, ref)
    p = matches / len(cand) if cand else 0.0
    r = matches / len(ref) if ref else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def naive_best_reference_score(candidate, references, prep=split_tokens):
    """Max naive F over the reference texts."""
    return max(naive_rouge_su(candidate, ref, prep)[2] for ref in references)


def chi_square_ref(a, b) -> float:
    """Pure-python chi-square distance, summed in index order."""
    assert len(a) == len(b)
    total = 0.0
    for x, y in zip(a, b):
        s = x + y
        if s > 0:
            total += (x - y) ** 2 / s
    return 0.5 * total


def min_cross_distance(frames_a, frames_b) -> float:
    best = math.inf
    for x in frames_a:
        for y in frames_b:
            d = chi_square_ref(list(x), list(y))
            if d < best:
                best = d
    return best


def naive_pixel_distance(summary_indices, gt_indices, subshot_frames) -> float:
    total = 0.0
    for s in summary_indices:
        best = math.inf
        for g in gt_indices:
            d = min_cross_distance(subshot_frames[s], subshot_frames[g])
            if d < best:
                best = d
        total += best
    return total / len(summary_indices)


def frame_fault(bins_per_channel, subshots):
    """The first fault of per-subshot frame arrays as an error message, or None.

    The check loops subshot by subshot and frame by frame: a subshot's
    shape before its frames, a negative entry before the sum, and each sum
    (the array's own ``sum()``) through ``math.isclose``.
    """
    dim = 3 * bins_per_channel
    if bins_per_channel < 1:
        return "bins_per_channel: must be positive"
    if len(subshots) < 1:
        return "subshots: at least one subshot required"
    for i, frames in enumerate(subshots):
        where = f"subshots[{i}].frames"
        if frames.ndim != 2 or frames.shape[0] < 1:
            return f"{where}: at least one frame required"
        if frames.shape[1] != dim:
            return f"{where}: histograms must have {dim} bins, got {frames.shape[1]}"
        for j, hist in enumerate(frames):
            if any(x < 0 for x in hist.tolist()):
                return f"{where}[{j}]: negative histogram entry"
            with warnings.catch_warnings():  # a sum of inf and -inf is NaN
                warnings.simplefilter("ignore", RuntimeWarning)
                total = float(hist.sum())
            if not math.isclose(total, 1.0, abs_tol=1e-9):
                return f"{where}[{j}]: histogram sums to {total!r}, expected 1"
    return None


def verdict(first, second, zero) -> str:
    """The verdict on two similarity scores: both_zero when both are at or below
    zero (0.0 for text, -1.0 for pixel), both_equal within 1e-9, else the larger
    score's side; a NaN falls through to second_closer."""
    if first <= zero and second <= zero:
        return "both_zero"
    if abs(first - second) <= 1e-9:
        return "both_equal"
    return "first_closer" if first > second else "second_closer"


def case(vset, pb) -> str:
    """The agreement case of a text verdict and a pixel verdict."""
    if vset in ("both_zero", "both_equal"):
        return vset
    return "inequal_agrees_pb" if pb == vset else "inequal_disagrees_pb"


def triple_loop(text, pixel, human=None) -> dict:
    """compare_triples' records, case counts and agreement, one triple at a time.

    text and pixel are m x m score lists whose cell [x][ref] scores subshot
    x against ref; human maps (ref, x, y) to a verdict name.
    """
    m = len(text)
    records, cases, hits = [], {}, {"vset": 0, "pb": 0, "n": 0}
    for ref in range(m):
        for x in range(m):
            for y in range(x + 1, m):
                if ref in (x, y):
                    continue
                vset = verdict(text[x][ref], text[y][ref], 0.0)
                pb = verdict(pixel[x][ref], pixel[y][ref], -1.0)
                label = case(vset, pb)
                cases[label] = cases.get(label, 0) + 1
                records.append({
                    "ref": ref, "x": x, "y": y,
                    "vset": {"verdict": vset, "first_score": text[x][ref],
                             "second_score": text[y][ref]},
                    "pb": {"verdict": pb, "first_score": pixel[x][ref],
                           "second_score": pixel[y][ref]},
                    "case": label,
                })
                if human and (ref, x, y) in human:
                    hits["n"] += 1
                    hits["vset"] += vset == human[(ref, x, y)]
                    hits["pb"] += pb == human[(ref, x, y)]
    out = {"mode": "triples", "triples": records, "case_counts": cases}
    if human:
        out["agreement"] = {"vset": hits["vset"] / hits["n"], "pb": hits["pb"] / hits["n"],
                            "n": hits["n"]}
    return out


def pair_loop(pairs, text, pixel=None, human=None) -> dict:
    """compare_pairs' records, verdict and case counts and agreement, one pair at a time.

    pairs lists each pair's two index lists; text and pixel list each pair's
    two scores (pixel None without pixel judgments); human maps a pair index
    to a verdict name.
    """
    records, verdicts, cases, hits = [], {}, {}, {"vset": 0, "pb": 0, "n": 0}
    for i, (a, b) in enumerate(pairs):
        vset = verdict(*text[i], 0.0)
        verdicts[vset] = verdicts.get(vset, 0) + 1
        record = {"pair": i, "a": list(a), "b": list(b),
                  "vset": {"verdict": vset, "first_score": text[i][0], "second_score": text[i][1]}}
        pb = None
        if pixel is not None:
            pb = verdict(*pixel[i], -1.0)
            label = case(vset, pb)
            cases[label] = cases.get(label, 0) + 1
            record["pb"] = {"verdict": pb, "first_score": pixel[i][0],
                            "second_score": pixel[i][1]}
            record["case"] = label
        records.append(record)
        if human and i in human:
            hits["n"] += 1
            hits["vset"] += vset == human[i]
            hits["pb"] += pb == human[i]
    out = {"mode": "pairs", "pairs": records, "verdict_counts": verdicts}
    if pixel is not None:
        out["case_counts"] = cases
    if human:
        out["agreement"] = {"vset": hits["vset"] / hits["n"], "n": hits["n"]}
        if pixel is not None:
            out["agreement"]["pb"] = hits["pb"] / hits["n"]
    return out


def greedy_bow_loop(annotations, reference, n, prep=split_tokens) -> tuple[int, ...]:
    """Greedy bag-of-words picks by a loop over Counter bags.

    reference is the ground truth already length-adjusted to n. Each step
    scans every unchosen annotation and keeps the first with the largest
    positive clipped gain; covered words leave the bag. Once nothing gains,
    the missing slots take the unchosen indices at floor(p * left / missing).
    """
    bag = Counter(t for sentence in reference for t in prep(sentence))
    units = [Counter(prep(a)) for a in annotations]
    m = len(annotations)
    chosen = set()
    for _ in range(n):
        best_idx = None
        best_gain = 0
        for i in range(m):
            if i in chosen:
                continue
            gain = sum(min(units[i][u], bag[u]) for u in units[i].keys() & bag.keys())
            if gain > best_gain:
                best_gain = gain
                best_idx = i
        if best_idx is None:
            break
        chosen.add(best_idx)
        bag -= units[best_idx]
    missing = n - len(chosen)
    if missing > 0:
        pool = sorted(set(range(m)) - chosen)
        chosen |= {pool[p * len(pool) // missing] for p in range(missing)}
    return tuple(sorted(chosen))


def fisher_yates(items, rng) -> None:
    """In-place Fisher-Yates, high index down, one ``next_below`` draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


def span_indices_scan(data, video, ctx) -> tuple[int, ...]:
    """Subshot indices of a span summary's ``spans``, scanning every subshot for every span.

    The errors are corpus.load_summary's, in its order.
    """
    from vtseval.corpus import CorpusParseError, CorpusValidationError

    seen = set()
    for i, raw in enumerate(get_field(data, "spans", list, ctx)):
        if not isinstance(raw, dict):
            raise CorpusParseError(f"{ctx}: spans[{i}] must be an object")
        start = get_field(raw, "start_s", float, f"{ctx}: spans[{i}]")
        end = get_field(raw, "end_s", float, f"{ctx}: spans[{i}]")
        if not end > start:
            raise CorpusValidationError(f"{ctx}: spans[{i}].end_s: must exceed start_s")
        for shot in video.subshots:
            if start < shot.end_s and shot.start_s < end:
                seen.add(shot.index)
    return tuple(sorted(seen))


def fold_right_sum(values) -> float:
    total = 0.0
    for v in reversed(list(values)):
        total = v + total
    return total


def exhaustive_ordered_assignment(sim) -> tuple[float, tuple[int, ...]]:
    """Best strictly increasing assignment by enumerating all combinations.

    sim is a k x m matrix; combinations come out of itertools in
    lexicographic order and only strict improvements replace the incumbent,
    so ties keep the lexicographically smallest argmax.
    """
    k = len(sim)
    m = len(sim[0])
    best_score = -math.inf
    best_indices = None
    for combo in itertools.combinations(range(m), k):
        score = fold_right_sum(sim[j][combo[j]] for j in range(k))
        if score > best_score:
            best_score = score
            best_indices = combo
    return best_score, best_indices


def mmr_step_argmin(dist, remaining, selected, lam) -> int:
    """Re-evaluate the marginal-relevance objective over all candidates.

    dist is a full pairwise distance matrix (list of lists); the candidate
    set mean excludes the candidate itself and the redundancy term is
    dropped while nothing is selected. Lowest index wins ties.
    """
    best_idx = None
    best_score = None
    for cand in remaining:
        others = [o for o in remaining if o != cand]
        if others:
            acc = 0.0
            for o in others:
                acc += dist[cand][o]
            mean_d = acc / len(others)
        else:
            mean_d = 0.0
        score = lam * mean_d
        if selected:
            score -= (1.0 - lam) * min(dist[cand][s] for s in selected)
        if best_score is None or score < best_score:
            best_score = score
            best_idx = cand
    return best_idx


def spearman_closed_form(xs, ys) -> float:
    """1 - 6*sum(d^2)/(n(n^2-1)); valid only for tie-free data."""
    n = len(xs)
    rank_x = {v: i + 1 for i, v in enumerate(sorted(xs))}
    rank_y = {v: i + 1 for i, v in enumerate(sorted(ys))}
    d2 = sum((rank_x[x] - rank_y[y]) ** 2 for x, y in zip(xs, ys))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


# Twenty words that are stopword-free fixed points of the stemmer, so the
# package pipeline and plain whitespace splitting yield identical units.
SAFE_VOCAB = [
    "dog", "park", "tree", "car", "lake", "fish", "bird", "sun", "moon",
    "star", "rock", "sand", "wind", "rain", "snow", "fire", "door", "wall",
    "roof", "road",
]


# ---------------------------------------------------------------------------
# input files, row by row: one hand-written reader per kind, the reference
# for corpus's one row reader. Each takes read_json's parse of a file and
# the loader's path text, reads every row and field on its own through
# get_field, and raises what the loader raises, in its order, except where
# tests/test_row_reader.py documents a departure. Each record's rules are
# stated here too (video_fault, ground_truth_fault, selection_fault and
# frame_fault); a record type is built only once its rules have passed.


def get_field(data, key, kind, context):
    """data[key] as kind: an int literal reads as a float where kind is float, a bool never."""
    from vtseval.corpus import CorpusParseError

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


def checked_row(raw, fields, where):
    from vtseval.corpus import CorpusParseError

    if not isinstance(raw, dict):
        raise CorpusParseError(f"{where} must be an object")
    return [get_field(raw, key, kind, where) for key, kind in fields]


def refused(ctx, fault):
    """fault, the message of a record rule or None, raised as a loader words it: after the path."""
    from vtseval.corpus import CorpusValidationError

    if fault is not None:
        raise CorpusValidationError(f"{ctx}: {fault}")


def video_fault(subshot_seconds, shots):
    """The first fault of an annotation record's rules as a message, or None: some subshot, a
    positive subshot_seconds, then each (index, start_s, end_s, text) row in turn."""
    if not shots:
        return "subshots: at least one subshot required"
    if not subshot_seconds > 0:
        return "subshot_seconds: must be positive"
    previous_start = -math.inf
    for i, (index, start_s, end_s, text) in enumerate(shots):
        where = f"subshots[{i}]"
        if index != i:
            return f"{where}.index: expected {i}, got {index}"
        if end_s <= start_s:
            return f"{where}.end_s: must exceed start_s ({start_s})"
        if text == "":
            return f"{where}.text: annotation must be non-empty"
        if start_s < previous_start:
            return f"{where}.start_s: subshots not sorted by start time"
        previous_start = start_s
    return None


def ground_truth_fault(author_id, sentences):
    """The first fault of one author's (temporal_pos, rank, text) rows as a message, or None:
    some sentence, ranks each of 1..k once, then each row's position and text in turn."""
    where = f"summaries[{author_id}].sentences"
    k = len(sentences)
    if k == 0:
        return f"{where}: must be non-empty"
    if Counter(rank for _, rank, _ in sentences) != Counter(range(1, k + 1)):
        return f"{where}: ranks must be a permutation of 1..{k}"
    for i, (pos, _, text) in enumerate(sentences):
        if i and pos <= sentences[i - 1][0]:
            return f"{where}[{i}].temporal_pos: must be strictly increasing"
        if text == "":
            return f"{where}[{i}].text: must be non-empty"
    return None


def selection_fault(indices, video=None):
    """The first fault of a summary's indices as a message, or None: index by index, a negative
    value, then one not above the previous index, then, given the video, one out of its range."""
    for i, idx in enumerate(indices):
        where = f"indices[{i}]"
        if idx < 0:
            return f"{where}: negative subshot index {idx}"
        if i and idx <= indices[i - 1]:
            return f"{where}: indices must be strictly increasing"
        if video is not None and idx >= len(video.subshots):
            return f"{where}: index {idx} out of range for video with {len(video.subshots)} subshots"
    return None


def check_video(ctx, video_id, video):
    from vtseval.corpus import CorpusValidationError

    if video is not None and video_id != video.video_id:
        raise CorpusValidationError(
            f"video_id: {ctx} is for video {video_id!r}, the annotations for {video.video_id!r}"
        )


def annotations_of(data, ctx):
    from vtseval.corpus import Subshot, VideoRecord

    fields = (("index", int), ("start_s", float), ("end_s", float), ("text", str))
    shots = []
    for i, raw in enumerate(get_field(data, "subshots", list, ctx)):
        index, start_s, end_s, text = checked_row(raw, fields, f"{ctx}: subshots[{i}]")
        shots.append(Subshot(index, start_s, end_s, text))
    video_id = get_field(data, "video_id", str, ctx)
    subshot_seconds = get_field(data, "subshot_seconds", float, ctx)
    refused(ctx, video_fault(subshot_seconds, shots))
    return VideoRecord(video_id=video_id, subshot_seconds=subshot_seconds, subshots=tuple(shots))


def ground_truths_of(data, ctx, video=None):
    from vtseval.corpus import (
        CorpusParseError, CorpusValidationError, GroundTruthSentence, GroundTruthSummary,
    )

    fields = (("temporal_pos", int), ("rank", int), ("text", str))
    video_id = get_field(data, "video_id", str, ctx)
    result = []
    for i, raw in enumerate(get_field(data, "summaries", list, ctx)):
        if not isinstance(raw, dict):
            raise CorpusParseError(f"{ctx}: summaries[{i}] must be an object")
        sentences = []
        for j, s in enumerate(get_field(raw, "sentences", list, f"{ctx}: summaries[{i}]")):
            pos, rank, text = checked_row(s, fields, f"{ctx}: summaries[{i}].sentences[{j}]")
            sentences.append(GroundTruthSentence(pos, rank, text))
        author_id = get_field(raw, "author_id", str, f"{ctx}: summaries[{i}]")
        refused(ctx, ground_truth_fault(author_id, sentences))
        result.append(GroundTruthSummary(author_id=author_id, sentences=tuple(sentences)))
    if not result:
        raise CorpusValidationError(f"{ctx}: summaries: must contain at least one ground truth")
    for i, gt in enumerate(result):
        earlier = [j for j in range(i) if result[j].author_id == gt.author_id]
        if earlier:
            raise CorpusValidationError(f"{ctx}: summaries[{i}].author_id: {gt.author_id!r} "
                                        f"repeats summaries[{earlier[0]}]")
    check_video(ctx, video_id, video)  # last: the file's own faults come first
    return result


def summary_of(data, ctx, video=None):
    """A summary file in any of its three forms; spans through span_indices_scan."""
    from vtseval.corpus import CorpusParseError, CorpusValidationError, SummarySelection

    forms = ("indices", "keyframe_times_s", "spans")
    video_id = get_field(data, "video_id", str, ctx)
    check_video(ctx, video_id, video)
    present = [k for k in forms if k in data]
    if len(present) != 1:
        raise CorpusParseError(
            f"{ctx}: exactly one of {', '.join(forms)} required, found {present or 'none'}"
        )
    if present[0] == "indices":
        raw = get_field(data, "indices", list, ctx)
        for i, idx in enumerate(raw):
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise CorpusParseError(f"{ctx}: indices[{i}] must be an integer")
        indices = tuple(raw)
    elif present[0] == "keyframe_times_s":
        if video is None:
            raise CorpusParseError(f"{ctx}: keyframe summaries need the video record to resolve")
        seen = set()
        for i, t in enumerate(get_field(data, "keyframe_times_s", list, ctx)):
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
        indices = span_indices_scan(data, video, ctx)
    refused(ctx, selection_fault(indices, video))
    return SummarySelection(video_id=video_id, indices=indices)


def scores_of(data, ctx):
    from vtseval.corpus import CorpusValidationError

    out = {}
    for i, row in enumerate(get_field(data, "scores", list, ctx)):
        where = f"{ctx}: scores[{i}]"
        item_id, score = checked_row(row, (("item_id", str), ("score", float)), where)
        if item_id in out:
            raise CorpusValidationError(f"{where}.item_id: {item_id!r} is scored twice")
        out[item_id] = score
    return out


def features_of(data, ctx, video=None):
    """A feature file row by row, and its frames subshot by subshot and frame by frame."""
    import numpy as np
    from vtseval.corpus import CorpusParseError, CorpusValidationError, SubshotFeatures

    video_id = get_field(data, "video_id", str, ctx)
    bins = get_field(data, "bins_per_channel", int, ctx)
    subshots = []
    for i, raw in enumerate(get_field(data, "subshots", list, ctx)):
        where = f"{ctx}: subshots[{i}]"
        if not isinstance(raw, dict):
            raise CorpusParseError(f"{where} must be an object")
        if get_field(raw, "index", int, where) != i:
            raise CorpusValidationError(f"{where}.index: expected {i}")
        frames = get_field(raw, "frames", list, where)
        entries = [x for frame in frames if isinstance(frame, list) for x in frame]
        try:
            arr = np.asarray(frames, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or any(type(x) not in (int, float) for x in entries):
            raise CorpusParseError(f"{where}.frames: ragged or non-numeric")
        if arr.ndim != 2:
            raise CorpusParseError(f"{where}.frames: expected a list of histograms")
        subshots.append(arr)
    refused(ctx, frame_fault(bins, subshots))
    # last, the video: the file's own faults come first
    check_video(ctx, video_id, video)
    if video is not None and len(subshots) != len(video):
        raise CorpusValidationError(
            f"subshots: {ctx} covers {len(subshots)} subshots, the video has {len(video)}"
        )
    return SubshotFeatures(video_id, bins, subshots)


def human_verdicts_of(data, ctx, keys):
    """Human verdicts by key, in the wording of the judgment reader of its own."""
    from vtseval.corpus import CorpusParseError, CorpusValidationError, Verdict

    rows = data.get("judgments")
    if not isinstance(rows, list):
        raise CorpusParseError(f"{ctx}: missing 'judgments' list")
    out = {}
    for i, row in enumerate(rows):
        try:
            key = tuple(row[k] for k in keys)
            for k, value in zip(keys, key):
                if type(value) is not int:
                    raise CorpusParseError(
                        f"{ctx}: judgments[{i}].{k}: expected an integer, got {value!r}"
                    )
            verdict = Verdict(row["verdict"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusParseError(f"{ctx}: judgments[{i}]: {exc}") from exc
        if key in out:
            raise CorpusValidationError(f"{ctx}: judgments[{i}]: {key} is judged twice")
        out[key] = verdict
    return out


# ---------------------------------------------------------------------------
# Porter's conditions, per letter by a recursive consonant test: the
# package reads all four from one letter form of the word.

VOWELS = "aeiou"


def is_cons(word: str, i: int) -> bool:
    c = word[i]
    if c in VOWELS:
        return False
    if c == "y":
        return True if i == 0 else not is_cons(word, i - 1)
    return True


def measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    n = len(stem)
    i = 0
    while i < n and is_cons(stem, i):
        i += 1
    m = 0
    while True:
        while i < n and not is_cons(stem, i):
            i += 1
        if i >= n:
            return m
        while i < n and is_cons(stem, i):
            i += 1
        m += 1


def contains_vowel(stem: str) -> bool:
    return any(not is_cons(stem, i) for i in range(len(stem)))


def ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and is_cons(word, len(word) - 1)


def ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(stem) < 3:
        return False
    n = len(stem)
    return (
        is_cons(stem, n - 3)
        and not is_cons(stem, n - 2)
        and is_cons(stem, n - 1)
        and stem[-1] not in "wxy"
    )


# Porter's step 4 and spearman's average ranks, written out as loops: the
# package states the first as a row of its suffix table and the second
# with np.unique, and the tests require the same stems and the same bits.

STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def porter_step4(word: str) -> str:
    """Porter's step 4: strip the longest suffix if m > 1; (s|t)ion strips
    only "ion", only after s or t, and only when longer than every other match."""
    best = None
    for suffix in STEP4_SUFFIXES:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best)):
            best = suffix
    if word.endswith("ion") and (best is None or 3 > len(best)):
        stem = word[:-3]
        if measure(stem) > 1 and stem[-1:] in ("s", "t"):
            return stem
        return word
    if best is None:
        return word
    stem = word[: -len(best)]
    return stem if measure(stem) > 1 else word


def average_ranks_loop(values):
    """1-based ranks, each run of equal values in stable sorted order sharing its mean rank."""
    import numpy as np

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
# Rules the package states as one call or table, written out as the loops
# they replaced: the PPM header tokenizer (a regex), Porter's step 1a (a
# suffix table), the per-channel histogram (one bincount), MMR's column
# sums (one reduction over zeroed rows), the medoid order (a stable
# argsort) and the record dicts of TripleRecords (its canonical JSON). The
# tests require the same frames, errors, stems, bits and picks.


def ppm_frame(blob: bytes, path):
    """load_ppm of a file holding blob, its header read one byte at a time."""
    from vtseval.corpus import CorpusParseError
    from vtseval.visual import Frame

    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(blob):
            if blob[pos : pos + 1].isspace():
                pos += 1
            elif blob[pos : pos + 1] == b"#":
                while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise CorpusParseError(f"{path}: truncated PPM header")
        return blob[start:pos]

    magic = next_token()
    if magic != b"P6":
        raise CorpusParseError(f"{path}: unsupported format {magic!r}, expected binary P6")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise CorpusParseError(f"{path}: malformed PPM header") from exc
    if width <= 0 or height <= 0:
        raise CorpusParseError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise CorpusParseError(f"{path}: unsupported maxval {maxval}, expected 255")
    pos += 1
    expected = 3 * width * height
    payload = blob[pos : pos + expected]
    if len(payload) < expected:
        raise CorpusParseError(
            f"{path}: truncated payload, expected {expected} bytes, got {len(payload)}"
        )
    return Frame(width=width, height=height, pixels=payload)


def porter_step1a(word: str) -> str:
    """Porter's step 1a: sses -> ss, ies -> i, ss stays, s goes."""
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def channel_histogram(pixels: bytes, b: int):
    """compute_histogram counted one channel at a time into a float buffer."""
    import numpy as np

    data = np.frombuffer(pixels, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
    hist = np.zeros(3 * b, dtype=np.float64)
    for c in range(3):
        hist[c * b : (c + 1) * b] = np.bincount(data[:, c] // (256 // b), minlength=b)
    return hist / (3 * data.shape[0])


def column_sums_loop(dist, keep):
    """The rows of dist that keep marks, added one after another in index order."""
    import numpy as np

    sums = np.zeros(dist.shape[1])
    for j in np.flatnonzero(keep).tolist():
        sums += dist[j]
    return sums


def mmr_picks_loop(dist, owners, n, lam) -> list[int]:
    """mmr_keyframes over the frame distance matrix dist, its sums kept by column_sums_loop."""
    import numpy as np

    f = len(owners)
    selected, covered = [], set()
    remaining = np.arange(f)
    nearest = np.full(f, np.inf)
    while len(covered) < n:
        r = remaining.size
        if r == 0:
            raise ValueError(f"ran out of frames before reaching {n} distinct subshots")
        keep = np.zeros(f, dtype=bool)
        keep[remaining] = True
        mean_d = column_sums_loop(dist, keep)[remaining] / (r - 1) if r > 1 else np.zeros(1)
        score = lam * mean_d
        if selected:
            score -= (1.0 - lam) * nearest[remaining]
        pos = int(np.argmin(score))
        best = int(remaining[pos])
        selected.append(best)
        remaining = np.delete(remaining, pos)
        nearest = np.minimum(nearest, dist[best])
        covered.add(owners[best])
    return selected


def cluster_subshots(features, n, seed) -> tuple[int, ...]:
    """histogram_cluster's subshots: each cluster's members sorted by (distance, frame)."""
    from vtseval.summarize import _fill_uniform, lloyd_cluster
    from vtseval.visual import chi_square_matrix

    hists, owners = features.frames, features.owners()
    result = lloyd_cluster(hists, n, seed)
    chosen = set()
    for c in range(n):
        members = [i for i in range(len(owners)) if result.assignments[i] == c]
        if not members:
            continue
        dists = chi_square_matrix(hists[members], result.centroids[c : c + 1])[:, 0]
        for pos in sorted(range(len(members)), key=lambda p: (dists[p], members[p])):
            if owners[members[pos]] not in chosen:
                chosen.add(owners[members[pos]])
                break
    return tuple(_fill_uniform(chosen, len(features), n))


def length_adjust_sorted(gt, n: int) -> list[str]:
    """evaluator.length_adjust as two sorts per call: the top n by rank, then by temporal_pos."""
    top = sorted(gt.sentences, key=lambda s: s.rank)[: min(n, len(gt.sentences))]
    return [s.text for s in sorted(top, key=lambda s: s.temporal_pos)]


def triples_of(m: int) -> list[tuple[int, int, int]]:
    """Every triple (ref, x < y) of distinct subshots of an m-subshot video, by ref, x, then y."""
    return [(ref, x, y) for ref in range(m) for x in range(m) for y in range(x + 1, m)
            if ref not in (x, y)]


def triple_records(records) -> list[dict]:
    """The record dicts of an analysis.TripleRecords, built from its matrices and codes row by
    row: record i is triple i of triples_of(m), scored by the cells (x, ref) and (y, ref)."""
    from vtseval.analysis import CaseLabel
    from vtseval.corpus import Verdict

    verdicts, cases = [v.value for v in Verdict], [c.value for c in CaseLabel]
    pixel, text = records.pixel.tolist(), records.text.tolist()
    out = []
    for (ref, x, y), (vset, pb, case_) in zip(
            triples_of(records.m), records.codes.tolist(), strict=True):
        out.append({
            "ref": ref, "x": x, "y": y,
            "vset": {"verdict": verdicts[vset], "first_score": text[x][ref],
                     "second_score": text[y][ref]},
            "pb": {"verdict": verdicts[pb], "first_score": pixel[x][ref],
                   "second_score": pixel[y][ref]},
            "case": cases[case_],
        })
    return out


def lloyd_loop(frames, n, seed):
    """lloyd_cluster with its passes as Python lists, and how many clusters it reseeded.

    Labels and distances are lists; an empty cluster is found by
    ``c not in labels`` and reseeded to the frame of the largest distance,
    the lowest index among equals, by ``max`` over (distance, -index).
    """
    import numpy as np
    from vtseval.rng import SplitMix64
    from vtseval.summarize import ClusterResult
    from vtseval.visual import chi_square_matrix, left_sum

    f = frames.shape[0]
    rng = SplitMix64(seed)

    def column(i):
        return chi_square_matrix(frames, frames[i : i + 1])[:, 0]

    centers = [rng.next_below(f)]
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
    reseeds = 0

    def assign(cents):
        nonlocal reseeds
        dists = chi_square_matrix(frames, cents)
        labels = [int(i) for i in np.argmin(dists, axis=1)]
        per_frame = [float(dists[i, labels[i]]) for i in range(f)]
        for c in range(n):
            if c not in labels:
                far = max(range(f), key=lambda i: (per_frame[i], -i))
                cents[c] = frames[far]
                labels[far] = c
                per_frame[far] = 0.0
                reseeds += 1
        return labels, per_frame

    assignments, per_frame = assign(centroids)
    objectives = [left_sum(per_frame)]
    for _ in range(100):
        for c in range(n):
            members = [i for i in range(f) if assignments[i] == c]
            if members:
                centroids[c] = frames[members].mean(axis=0)
        new_assignments, per_frame = assign(centroids)
        objectives.append(left_sum(per_frame))
        if new_assignments == assignments:
            break
        assignments = new_assignments
    return ClusterResult(assignments, centroids, objectives, np.array(per_frame)), reseeds
