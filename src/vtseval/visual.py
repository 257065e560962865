"""Frame ingestion, color histograms and chi-square distances.

Frames come in as binary PPM (P6, maxval 255) so no image codec is
needed; precomputed histogram files are the alternative ingestion path
(see corpus.load_features). load_ppm reads one frame's file and matches
its four header tokens with one regex; compute_histogram bins its
samples with one shift and one bincount. ``vtseval features`` calls both
once per frame, in (subshot, frame) order, into one matrix. Histograms
are per-channel with B bins each, concatenated R,G,B and jointly
L1-normalized, so the chi-square distance between two of them lands in
[0, 1]. Every distance comes from one row-blocked driver, chi_square_matrix,
which given one array twice (MMR's call) computes the blocks on and above the
diagonal and mirrors them: chi_square is one cell, subshot_min_distance the
minimum of a block, subshot_distances every block minimum of chosen subshot
pairs, and pixel_summary_distances, the one pixel summary metric, a mean of
row minima per summary (pixel_summary_distance is its one-row call). Each
refuses a malformed argument with a ValueError that names it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CorpusParseError, SubshotFeatures, SummarySelection, read_bytes


@dataclass(frozen=True)
class Frame:
    """Raw RGB pixels, 8 bits per sample, row-major, no color conversion."""

    width: int
    height: int
    pixels: bytes


# four times: whitespace and '#' comments, each ending before a line break, then one
# header token; in a bytes pattern \s is exactly the bytes that isspace() accepts. A
# token is empty only at the end of the file, and then so is every later one
_PPM_HEADER = re.compile(rb"(?:\s|#[^\n\r]*)*(\S*)" * 4)


def load_ppm(path: str | Path) -> Frame:
    """Parse a binary PPM (magic P6, maxval 255)."""
    blob = read_bytes(path)
    header = _PPM_HEADER.match(blob)
    magic, *numbers = header.groups()
    if not magic:
        raise CorpusParseError(f"{path}: truncated PPM header")
    if magic != b"P6":
        raise CorpusParseError(f"{path}: unsupported format {magic!r}, expected binary P6")
    # each number is read before the next token is looked at, as a token at a time would
    for i, token in enumerate(numbers):
        if not token:
            raise CorpusParseError(f"{path}: truncated PPM header")
        try:
            numbers[i] = int(token)
        except ValueError as exc:
            raise CorpusParseError(f"{path}: malformed PPM header") from exc
    width, height, maxval = numbers
    if width <= 0 or height <= 0:
        raise CorpusParseError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise CorpusParseError(f"{path}: unsupported maxval {maxval}, expected 255")
    pos = header.end() + 1  # single whitespace byte after maxval
    expected = 3 * width * height
    payload = blob[pos : pos + expected]
    if len(payload) < expected:
        raise CorpusParseError(
            f"{path}: truncated payload, expected {expected} bytes, got {len(payload)}"
        )
    return Frame(width=width, height=height, pixels=payload)


def check_bins(bins_per_channel: int) -> None:
    """Refuse a bin count that is not a divisor of 256 (ValueError): bins must be uniform."""
    if bins_per_channel < 1 or 256 % bins_per_channel != 0:
        raise ValueError(f"bins_per_channel must divide 256, got {bins_per_channel}")


def compute_histogram(frame: Frame, bins_per_channel: int) -> np.ndarray:
    """Concatenated per-channel color histogram, jointly L1-normalized.

    Pixel value v goes to bin floor(v * B / 256); B must divide 256 so
    bins are uniform. The 3B-vector sums to exactly 1. The frame must hold
    3 * width * height bytes, at least one pixel's.
    """
    b = bins_per_channel
    check_bins(b)
    if not frame.pixels:
        raise ValueError("cannot compute a histogram of a zero-pixel frame")
    expected = 3 * frame.width * frame.height
    if len(frame.pixels) != expected:
        raise ValueError(f"frame pixels: a {frame.width}x{frame.height} frame needs {expected} "
                         f"bytes, got {len(frame.pixels)}")
    data = np.frombuffer(frame.pixels, dtype=np.uint8).reshape(-1, 3)
    # B = 2**k divides 256, so floor(v * B / 256) is v >> (8 - k), taken in uint8; the
    # channel offsets, up to 2B, widen the sum to intp
    bins = (data >> (9 - b.bit_length())) + np.arange(0, 3 * b, b)
    return np.bincount(bins.ravel(), minlength=3 * b) / (3 * data.shape[0])


def chi_square(a: np.ndarray, b: np.ndarray) -> float:
    """0.5 * sum (a-b)^2 / (a+b) of two 1-D histograms, empty bins 0: a chi_square_matrix cell."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"chi_square takes two 1-D histograms, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"histogram length mismatch: {a.shape} vs {b.shape}")
    return float(chi_square_matrix(a[None], b[None])[0, 0])


# Byte budget of one buffer of the chi-square matrix kernel. A block takes
# as many rows of `a` as fit, at least one, so the two float buffers a
# call allocates stay about 2 MB however many frames there are; at 1 MB
# they run faster than at 4 MB, which outgrows the CPU caches.
_BLOCK_BYTES = 1 << 20


def _block_rows(cols: int, width: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * max(1, cols * width)))


def _check_entries(a: np.ndarray) -> None:
    """Refuse the first negative, NaN or infinite entry in C order: the kernel needs finite bins."""
    bad = a[~((a >= 0) & (a < np.inf))].tolist()  # NaN compares false
    if bad:
        raise ValueError(f"histogram entries must be finite and non-negative, got {bad[0]!r}")


def _chi_square_block(a: np.ndarray, b: np.ndarray, work: tuple[np.ndarray, ...]) -> np.ndarray:
    shape = (a.shape[0], b.shape[0], a.shape[1])
    num, den = (buf[: shape[0] * shape[1] * shape[2]].reshape(shape) for buf in work)
    np.subtract(a[:, None, :], b[None, :, :], out=num)
    np.square(num, out=num)
    np.add(a[:, None, :], b[None, :, :], out=den)
    # x + y is 0 only where both bins are, and then so is (x - y)^2: 0 / 2**-1074 adds 0.0
    # there, and no positive sum is below 2**-1074
    np.maximum(den, 2.0**-1074, out=den)
    np.divide(num, den, out=num)
    return 0.5 * num.sum(axis=-1)


def chi_square_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chi-square distances of every row of a to every row of b, shape (len(a), len(b)).

    Each cell is 0.5 * sum over the histogram axis of (x-y)^2 / (x+y),
    with empty bins contributing 0. A negative, NaN or infinite entry is
    refused (ValueError). The result is computed in row blocks of at most
    _BLOCK_BYTES per temporary, and every cell has the same bits as the
    one-shot broadcast over all rows. Given one array twice (``b is a``),
    only the blocks on and above the diagonal are computed and mirrored:
    (x-y)^2 == (y-x)^2 and x+y == y+x hold exactly in floating point.
    """
    half = b is a
    _check_entries(a)
    if not half:
        _check_entries(b)
    out = np.empty((a.shape[0], b.shape[0]))
    step = _block_rows(b.shape[0], a.shape[1])
    size = min(step, a.shape[0]) * b.shape[0] * a.shape[1]
    work = np.empty(size), np.empty(size)  # _chi_square_block's buffers, reused block by block
    for start in range(0, a.shape[0], step):
        stop, first = min(start + step, a.shape[0]), start if half else 0
        block = _chi_square_block(a[start:stop], b[first:], work)
        out[start:stop, first:] = block
        if half:
            out[stop:, start:stop] = block[:, stop - start :].T
    return out


def subshot_min_distance(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """Minimum chi-square over all cross pairs of two frame lists."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("subshot frame lists must be non-empty")
    return float(chi_square_matrix(np.asarray(a, np.float64), np.asarray(b, np.float64)).min())


# refuse a subshot index outside the features, with the one message of every pixel comparison
def check_range(features: SubshotFeatures, indices) -> None:
    m = len(features)
    for idx in indices:
        if not 0 <= idx < m:
            raise ValueError(f"subshot index {idx} not covered by features ({m} subshots)")


def subshot_distances(features: SubshotFeatures, rows, cols) -> np.ndarray:
    """Cell (i, j) is the least chi-square between frames of subshots rows[i] and cols[j], all
    from one chi_square_matrix call; indices may repeat, in any order; neither side may be empty."""
    if len(rows) == 0 or len(cols) == 0:
        raise ValueError(f"{'cols' if len(rows) else 'rows'}: at least one subshot index required")
    check_range(features, (*rows, *cols))
    sides = [[features.subshots[i] for i in side] for side in (rows, cols)]
    starts = [np.cumsum([0] + [len(frames) for frames in chosen[:-1]]) for chosen in sides]
    out = chi_square_matrix(*map(np.vstack, sides))
    return np.minimum.reduceat(np.minimum.reduceat(out, starts[1], axis=1), starts[0], axis=0)


def pixel_summary_distances(picks, gt_indices, features: SubshotFeatures) -> np.ndarray:
    """Row i is the mean, over the subshots picks[i] of a summary, of the distance to the nearest
    ground-truth subshot, a left fold in pick order; lower is more visually similar. The k
    summaries are non-empty and of one size; each distinct pick is one row of one
    subshot_distances call."""
    for row in picks:  # sizes first, as judge_summary_pair checks them
        if len(row) != len(picks[0]):
            raise ValueError(f"summaries must have equal size, got {len(picks[0])} and {len(row)}")
    if not len(picks[0]):
        raise ValueError("summary selection is empty")
    if len(gt_indices) == 0:
        raise ValueError("ground-truth selection is empty")
    # before bincount sees a negative, in the order of one summary at a time: picks, ground truth
    check_range(features, (i for row in (picks[0], gt_indices, *picks[1:]) for i in row))
    picks = np.array(picks, dtype=np.intp)
    used = np.flatnonzero(np.bincount(picks.ravel()))
    nearest = subshot_distances(features, used, gt_indices).min(axis=1)
    # row i of the gather is summary i: folding its columns folds every summary at once
    return left_sum(nearest[np.searchsorted(used, picks)].T) / picks.shape[1]


def pixel_summary_distance(summary: SummarySelection, gt_subshots: SummarySelection,
                           features: SubshotFeatures) -> float:
    """pixel_summary_distances of the one summary."""
    return float(pixel_summary_distances([summary.indices], gt_subshots.indices, features)[0])


def left_sum(values):
    """Sum in index order, elementwise for arrays. From Python 3.12, sum()
    compensates float rounding, so its bits would depend on the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total
