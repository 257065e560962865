"""Seeded input generator for the benchmark.

Every draw goes through ``vtseval.rng.SplitMix64``, so one seed gives
byte-identical input files. The program under test only ever sees the
files written here.

Text: the vocabulary is the content words of the committed fixture
(``tests/data/video12.*.json``) plus the words of the Porter reference
sample, each extended with Porter-rule suffixes. That gives a few
thousand distinct surface forms, so the stemmer does real suffix work,
and words are drawn from a Zipf law (a fixed ranking for every seed) so
reuse is realistic rather than total. A video is cut into scenes; each scene has a small topic
vocabulary that its annotations draw from, so nearby subshots share
words the way real annotations do. Reference summaries paraphrase the
annotations they cover.

Pixels: every frame is built from per-bin pixel counts drawn per scene,
so the histogram the program must compute for it is known exactly.
"""
from __future__ import annotations

import bisect
import json
import re
from dataclasses import dataclass
from pathlib import Path

from vtseval.rng import SplitMix64

BINS = 16
FRAME_W = 32
FRAME_H = 24
SUBSHOT_SECONDS = 5.0

# Suffixes that the Porter steps rewrite or strip.
SUFFIXES = (
    "s", "es", "ies", "ed", "ing", "ly", "er", "ness", "ful", "ment", "ement",
    "ation", "ational", "ization", "izer", "ize", "ise", "ism", "ist", "ity",
    "ive", "iveness", "fulness", "ousness", "ous", "able", "ible", "al", "ance",
    "ence", "ent", "ant", "ic", "ate",
)
FILLERS = ("the", "a", "of", "in", "at", "with", "on", "to", "and", "i")
_WORD_RE = re.compile(r"[a-z]+")


def read_stopwords(root: Path) -> frozenset[str]:
    """The bundled stopword list, read from the file (not through vtseval.textproc)."""
    path = root / "src" / "vtseval" / "data" / "stopwords.txt"
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def build_vocabulary(root: Path) -> list[str]:
    """Sorted distinct surface forms: fixture and Porter-sample bases plus suffixed forms."""
    stopwords = read_stopwords(root)
    data = root / "tests" / "data"
    annotations = json.loads((data / "video12.annotations.json").read_text(encoding="utf-8"))
    gts = json.loads((data / "video12.gts.json").read_text(encoding="utf-8"))
    texts = [s["text"] for s in annotations["subshots"]]
    texts += [s["text"] for gt in gts["summaries"] for s in gt["sentences"]]
    for line in (data / "porter_sample.txt").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            texts.append(line.split("\t")[0])
    bases = {
        w for t in texts for w in _WORD_RE.findall(t.lower())
        if len(w) > 2 and w not in stopwords
    }
    vocab = set(bases)
    for base in bases:
        for suffix in SUFFIXES:
            stem = base[:-1] if base.endswith("e") and suffix[0] in "aeiou" else base
            vocab.add(stem + suffix)
    return sorted(w for w in vocab if w not in stopwords)


class Zipf:
    """Draws vocabulary words with probability proportional to 1/rank.

    Shorter words rank higher, as in real text, and the ranking is the same
    for every seed: Porter's cost varies a lot from word to word, and a
    seed-dependent ranking made the work of a run vary with the seed by a
    quarter. The seed picks which words are drawn, never how often each
    word is used.
    """

    def __init__(self, words: list[str]):
        self.words = list(words)
        SplitMix64(0).shuffle(self.words)
        self.words.sort(key=len)
        self.cdf = []
        total = 0.0
        for r in range(len(self.words)):
            total += 1.0 / (r + 1)
            self.cdf.append(total)
        self.total = total

    def draw(self, rng: SplitMix64) -> str:
        i = bisect.bisect_right(self.cdf, rng.next_float() * self.total)
        return self.words[min(i, len(self.words) - 1)]


@dataclass
class Video:
    video_id: str
    annotations: list[str]
    scene_of: list[int]
    # per scene: 3 channels of BINS colour weights
    scene_colors: list[list[list[float]]]


def _sentence(words: list[str], rng: SplitMix64) -> str:
    """Capitalized sentence of the words plus len(words) // 3 fillers at drawn places."""
    out = list(words)
    for _ in range(len(words) // 3):
        out.insert(rng.next_below(len(out) + 1), FILLERS[rng.next_below(len(FILLERS))])
    text = " ".join(out)
    return text[0].upper() + text[1:] + "."


def make_video(rng: SplitMix64, zipf: Zipf, m: int, video_id: str) -> Video:
    # sentence lengths cycle through 4..9 in a drawn order, so the amount of
    # text (and of scoring work) hardly depends on the seed
    lengths = [4 + i % 6 for i in range(m)]
    rng.shuffle(lengths)
    annotations: list[str] = []
    scene_of: list[int] = []
    colors = []
    scene = 0
    while len(annotations) < m:
        length = min(8 + rng.next_below(17), m - len(annotations))
        topic = [zipf.draw(rng) for _ in range(6)]
        colors.append([[0.05 + rng.next_float() ** 3 for _ in range(BINS)] for _ in range(3)])
        for _ in range(length):
            k = lengths[len(annotations)]
            words = [
                topic[rng.next_below(len(topic))] if rng.next_below(2) else zipf.draw(rng)
                for _ in range(k)
            ]
            annotations.append(_sentence(words, rng))
            scene_of.append(scene)
        scene += 1
    return Video(video_id, annotations, scene_of, colors)


def _content_words(sentence: str) -> list[str]:
    return [w for w in _WORD_RE.findall(sentence.lower()) if w not in FILLERS]


def sample_sorted(rng: SplitMix64, m: int, n: int) -> list[int]:
    """n distinct values of range(m), ascending (partial Fisher-Yates)."""
    pool = list(range(m))
    for i in range(n):
        j = i + rng.next_below(m - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:n])


def make_ground_truths(rng: SplitMix64, zipf: Zipf, video: Video, authors: int, k: int) -> list[dict]:
    """Reference summaries: k paraphrased sentences each, ranked by a random permutation."""
    m = len(video.annotations)
    out = []
    for a in range(authors):
        positions = sample_sorted(rng, m, k)
        ranks = list(range(1, k + 1))
        rng.shuffle(ranks)
        sentences = []
        for pos, rank in zip(positions, ranks):
            # same length as the annotation it paraphrases, 3 words in 10 replaced
            words = [w if rng.next_below(10) < 7 else zipf.draw(rng)
                     for w in _content_words(video.annotations[pos])]
            sentences.append({"temporal_pos": pos, "rank": rank, "text": _sentence(words, rng)})
        out.append({"author_id": f"author{a}", "sentences": sentences})
    return out


def frame_counts(rng: SplitMix64, weights: list[list[float]]) -> list[list[int]]:
    """Per-channel pixel counts per bin, each channel summing to the frame's pixel count."""
    npix = FRAME_W * FRAME_H
    counts = []
    for channel in weights:
        w = [x * (0.6 + 0.8 * rng.next_float()) for x in channel]
        total = sum(w)
        raw = [npix * x / total for x in w]
        c = [int(x) for x in raw]
        # hand the remainder to the largest fractional parts, lowest bin first on ties
        order = sorted(range(BINS), key=lambda b: (-(raw[b] - c[b]), b))
        for b in order[: npix - sum(c)]:
            c[b] += 1
        counts.append(c)
    return counts


def histogram_of(counts: list[list[int]]) -> list[float]:
    """The histogram the program must compute: bin count over all 3 * pixels samples."""
    denom = 3 * FRAME_W * FRAME_H
    return [c / denom for channel in counts for c in channel]


def ppm_bytes(counts: list[list[int]], rng: SplitMix64) -> bytes:
    """A P6 frame whose channel values fall in exactly the given bins."""
    npix = FRAME_W * FRAME_H
    shift = 256 // BINS
    planes = []
    for channel in counts:
        values = []
        for b, c in enumerate(channel):
            values.extend(b * shift + (j % shift) for j in range(c))
        offset = rng.next_below(npix)
        planes.append(values[offset:] + values[:offset])
    pixels = bytes(v for px in zip(*planes) for v in px)
    return f"P6\n{FRAME_W} {FRAME_H}\n255\n".encode("ascii") + pixels


def make_frames(rng: SplitMix64, video: Video, frames_per_subshot: int) -> list[list[list[list[int]]]]:
    """Per subshot, per frame: the per-channel bin counts."""
    return [
        [frame_counts(rng, video.scene_colors[video.scene_of[i]]) for _ in range(frames_per_subshot)]
        for i in range(len(video.annotations))
    ]


# ---------------------------------------------------------------------------
# file writers (plain json; the program parses these, the generator never
# uses the program's own writers)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_annotations(path: Path, video: Video) -> None:
    write_json(path, {
        "video_id": video.video_id,
        "subshot_seconds": SUBSHOT_SECONDS,
        "subshots": [
            {"index": i, "start_s": SUBSHOT_SECONDS * i, "end_s": SUBSHOT_SECONDS * (i + 1), "text": t}
            for i, t in enumerate(video.annotations)
        ],
    })


def write_ground_truths(path: Path, video_id: str, gts: list[dict]) -> None:
    write_json(path, {"video_id": video_id, "summaries": gts})


def write_summary(path: Path, video_id: str, indices: list[int]) -> None:
    write_json(path, {"video_id": video_id, "indices": indices})


def write_features(path: Path, video_id: str, frames) -> None:
    write_json(path, {
        "video_id": video_id,
        "bins_per_channel": BINS,
        "subshots": [
            {"index": i, "frames": [histogram_of(f) for f in shot]} for i, shot in enumerate(frames)
        ],
    })


def write_ppm_dir(directory: Path, frames, rng: SplitMix64) -> int:
    directory.mkdir(parents=True, exist_ok=True)
    count = 0
    for i, shot in enumerate(frames):
        for k, counts in enumerate(shot):
            (directory / f"frame_{i}_{k}.ppm").write_bytes(ppm_bytes(counts, rng))
            count += 1
    return count
