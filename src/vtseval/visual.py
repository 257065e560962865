"""Frame ingestion, color histograms and chi-square distances.

Frames come in as binary PPM (P6, maxval 255) so no image codec is
needed; precomputed histogram files are the alternative ingestion path
(see corpus.load_features). Histograms are per-channel with B bins each,
concatenated R,G,B and jointly L1-normalized, so the chi-square distance
between two of them lands in [0, 1]. Every distance comes from one
row-blocked kernel, chi_square_matrix, and its symmetric form
pairwise_chi_square: chi_square is one cell, subshot_min_distance the
minimum of a block, subshot_distance_matrix every subshot pair's block
minimum, and pixel_summary_distance a mean of block minima.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CorpusIOError, CorpusParseError, SubshotFeatures, SummarySelection


@dataclass(frozen=True)
class Frame:
    """Raw RGB pixels, 8 bits per sample, row-major, no color conversion."""

    width: int
    height: int
    pixels: bytes


def load_ppm(path: str | Path) -> Frame:
    """Parse a binary PPM (magic P6, maxval 255)."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CorpusIOError(f"cannot read {path}: {exc}") from exc

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
    pos += 1  # single whitespace byte after maxval
    expected = 3 * width * height
    payload = blob[pos : pos + expected]
    if len(payload) < expected:
        raise CorpusParseError(
            f"{path}: truncated payload, expected {expected} bytes, got {len(payload)}"
        )
    return Frame(width=width, height=height, pixels=payload)


def compute_histogram(frame: Frame, bins_per_channel: int) -> np.ndarray:
    """Concatenated per-channel color histogram, jointly L1-normalized.

    Pixel value v goes to bin floor(v * B / 256); B must divide 256 so
    bins are uniform. The 3B-vector sums to exactly 1.
    """
    b = bins_per_channel
    if b < 1 or 256 % b != 0:
        raise ValueError(f"bins_per_channel must divide 256, got {b}")
    if not frame.pixels:
        raise ValueError("cannot compute a histogram of a zero-pixel frame")
    data = np.frombuffer(frame.pixels, dtype=np.uint8).reshape(-1, 3)
    shift = 256 // b
    hist = np.zeros(3 * b, dtype=np.float64)
    for c in range(3):
        counts = np.bincount(data[:, c] // shift, minlength=b)
        hist[c * b : (c + 1) * b] = counts
    return hist / (3 * data.shape[0])


def chi_square(a: np.ndarray, b: np.ndarray) -> float:
    """0.5 * sum (a-b)^2 / (a+b), empty bins contribute 0: one cell of chi_square_matrix."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"histogram length mismatch: {a.shape} vs {b.shape}")
    return float(chi_square_matrix(a.reshape(1, -1), b.reshape(1, -1))[0, 0])


# Byte budget of one buffer of the chi-square matrix kernel. A block takes
# as many rows of `a` as fit, at least one, so the three float buffers a
# call allocates stay about 3 MB however many frames there are; at 1 MB
# they run faster than at 4 MB, which outgrows the CPU caches.
_BLOCK_BYTES = 1 << 20


def _block_rows(cols: int, width: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * max(1, cols * width)))


def _workspace(rows: int, cols: int, width: int) -> tuple[np.ndarray, ...]:
    """Buffers for _chi_square_block on up to rows x cols row pairs, reused block after block."""
    size = rows * cols * width
    return np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _chi_square_block(a: np.ndarray, b: np.ndarray, work: tuple[np.ndarray, ...]) -> np.ndarray:
    shape = (a.shape[0], b.shape[0], a.shape[1])
    num, den, frac, pos = (buf[: shape[0] * shape[1] * shape[2]].reshape(shape) for buf in work)
    np.subtract(a[:, None, :], b[None, :, :], out=num)
    np.square(num, out=num)
    np.add(a[:, None, :], b[None, :, :], out=den)
    np.greater(den, 0, out=pos)
    frac.fill(0.0)
    np.divide(num, den, out=frac, where=pos)
    return 0.5 * frac.sum(axis=-1)


def chi_square_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chi-square distances of every row of a to every row of b, shape (len(a), len(b)).

    Each cell is 0.5 * sum over the histogram axis of (x-y)^2 / (x+y),
    with empty bins contributing 0. The result is computed in row blocks
    of at most _BLOCK_BYTES per temporary, and every cell has the same
    bits as the one-shot broadcast over all rows.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    step = _block_rows(b.shape[0], a.shape[1])
    work = _workspace(min(step, a.shape[0]), b.shape[0], a.shape[1])
    for start in range(0, a.shape[0], step):
        out[start : start + step] = _chi_square_block(a[start : start + step], b, work)
    return out


def pairwise_chi_square(a: np.ndarray) -> np.ndarray:
    """chi_square_matrix(a, a), computing only the upper-triangle blocks.

    (x-y)^2 == (y-x)^2 and x+y == y+x hold exactly in floating point, so
    each mirrored cell has the same bits as computing it directly, and the
    diagonal is exactly 0.0.
    """
    f = a.shape[0]
    out = np.empty((f, f))
    step = _block_rows(f, a.shape[1])
    work = _workspace(min(step, f), f, a.shape[1])
    for start in range(0, f, step):
        stop = min(start + step, f)
        block = _chi_square_block(a[start:stop], a[start:], work)
        out[start:stop, start:] = block
        out[stop:, start:stop] = block[:, stop - start :].T
    return out


def subshot_min_distance(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """Minimum chi-square over all cross pairs of two frame lists."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("subshot frame lists must be non-empty")
    return float(chi_square_matrix(np.asarray(a, np.float64), np.asarray(b, np.float64)).min())


def subshot_distance_matrix(features: SubshotFeatures) -> np.ndarray:
    """m x m matrix whose cell (i, j) is subshot_min_distance of subshots i and j."""
    starts = features.offsets[:-1]
    frames = pairwise_chi_square(features.frames)
    return np.minimum.reduceat(np.minimum.reduceat(frames, starts, axis=1), starts, axis=0)


def pixel_summary_distance(
    summary: SummarySelection,
    gt_subshots: SummarySelection,
    features: SubshotFeatures,
) -> float:
    """Mean over summary subshots of the distance to the nearest ground-truth subshot.

    Lower means more visually similar; rankings built on this metric sort
    ascending. The mean is a left fold in summary order.
    """
    if len(summary) == 0:
        raise ValueError("summary selection is empty")
    if len(gt_subshots) == 0:
        raise ValueError("ground-truth selection is empty")
    m = len(features)
    for idx in (*summary.indices, *gt_subshots.indices):
        if idx >= m:
            raise ValueError(f"subshot index {idx} not covered by features ({m} subshots)")
    gt = np.vstack([features.subshots[g] for g in gt_subshots.indices])
    total = 0.0
    for s in summary.indices:
        total += float(chi_square_matrix(features.subshots[s], gt).min())
    return total / len(summary)
