"""The blocked chi-square matrix kernel and the marginal-relevance loop built on it.

The kernel must give the same bits as the one-shot broadcast formula
(inlined below) whatever the block size, including on block edges, empty
bins and duplicated rows, and given one array twice its half-computed,
mirrored matrix must have the bits of the full one; no cell may be -0.0,
which MMR's sums over zeroed rows rely on; MMR must pick what the
brute-force oracle picks at every step; and neither may hold an f x f x 3B
temporary.
"""
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import visual
from vtseval.corpus import CorpusValidationError, SubshotFeatures, SummarySelection
from vtseval.summarize import mmr_keyframes

import oracles

BLOCK = 5
F_EDGES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def one_shot(a, b):
    num = (a[:, None, :] - b[None, :, :]) ** 2
    den = a[:, None, :] + b[None, :, :]
    frac = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return 0.5 * frac.sum(axis=-1)


def blocks_of(rows, cols, width):
    """Patch the kernel's byte budget so a block holds exactly `rows` rows."""
    return mock.patch.object(visual, "_BLOCK_BYTES", 8 * cols * width * rows)


widths = st.sampled_from([3, 12, 48])


@st.composite
def histograms(draw, f, width):
    """f jointly normalized histograms with empty bins and duplicated rows."""
    counts = np.array(
        draw(st.lists(st.integers(0, 4), min_size=f * width, max_size=f * width)),
        dtype=np.float64,
    ).reshape(f, width)
    empty = draw(st.lists(st.integers(0, width - 1), max_size=3))
    counts[:, empty] = 0.0
    counts[counts.sum(axis=1) == 0, 0] = 1.0
    for dst, src in draw(
        st.lists(st.tuples(st.integers(0, f - 1), st.integers(0, f - 1)), max_size=f)
    ):
        counts[dst] = counts[src]
    return counts / counts.sum(axis=1, keepdims=True)


@st.composite
def kernel_inputs(draw):
    width = draw(widths)
    a = draw(histograms(draw(st.sampled_from(F_EDGES)), width))
    b = draw(histograms(draw(st.sampled_from(F_EDGES)), width))
    if draw(st.booleans()):  # rows shared between a and b
        b[: min(len(a), len(b))] = a[: len(b)]
    return a, b


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_blocked_kernels_equal_one_shot_formula_bit_for_bit(inputs):
    a, b = inputs
    f, width = a.shape
    want = one_shot(a, b)
    want_pairwise = one_shot(a, a)
    for rows in (1, BLOCK):
        with blocks_of(rows, b.shape[0], width):
            got = visual.chi_square_matrix(a, b)
        with blocks_of(rows, f, width):
            got_pairwise = visual.chi_square_matrix(a, a)
        assert got.tobytes() == want.tobytes()
        assert got_pairwise.tobytes() == want_pairwise.tobytes()
    assert visual.chi_square_matrix(a, b).tobytes() == want.tobytes()
    assert visual.chi_square_matrix(a, a).tobytes() == want_pairwise.tobytes()
    assert np.all(np.diagonal(got_pairwise) == 0.0)


@settings(max_examples=60, deadline=None)
@given(kernel_inputs())
def test_kernel_within_1e12_of_reference(inputs):
    a, b = inputs
    with blocks_of(BLOCK, b.shape[0], a.shape[1]):
        got = visual.chi_square_matrix(a, b)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            assert abs(got[i, j] - oracles.chi_square_ref(list(x), list(y))) < 1e-12


@st.composite
def signed_rows(draw, f, width):
    """f rows of small signed integers, some the negation of an earlier row, so that
    x + y == 0 where x != y, and some with x + y < 0."""
    rows = np.array(
        draw(st.lists(st.integers(-3, 3), min_size=f * width, max_size=f * width)),
        dtype=np.float64,
    ).reshape(f, width)
    for dst, src in draw(
        st.lists(st.tuples(st.integers(0, f - 1), st.integers(0, f - 1)), max_size=f)
    ):
        rows[dst] = -rows[src]
    return rows / 4.0


@st.composite
def kernel_call_sequences(draw):
    """Calls of both kernels with changing shapes and byte budgets, one after another."""
    calls = []
    for _ in range(draw(st.integers(2, 5))):
        width = draw(st.sampled_from([3, 12]))
        rows = draw(st.sampled_from([histograms, signed_rows]))
        a = draw(rows(draw(st.integers(1, 9)), width))
        b = draw(rows(draw(st.integers(1, 9)), width))
        if draw(st.booleans()):  # b holds the negations of rows of a
            b[: min(len(a), len(b))] = -a[: len(b)]
        calls.append((a, b, draw(st.integers(1, 4))))
    return calls


def kernel_or_refusal(kernel, *args):
    """The kernel's result, or "refused" if it raised the bad-entry ValueError."""
    try:
        return kernel(*args).tobytes()
    except ValueError as exc:
        assert "must be finite and non-negative" in str(exc)
        return "refused"


@settings(max_examples=120, deadline=None)
@given(kernel_call_sequences())
def test_reused_buffers_leak_nothing_between_blocks_or_calls(calls):
    """Every call on non-negative rows has the one-shot bits, refused signed calls between them."""
    for a, b, rows in calls:
        with blocks_of(rows, b.shape[0], a.shape[1]):
            got = kernel_or_refusal(visual.chi_square_matrix, a, b)
        with blocks_of(rows, a.shape[0], a.shape[1]):
            got_pairwise = kernel_or_refusal(visual.chi_square_matrix, a, a)
        signed_a, signed_b = (bool((side < 0).any()) for side in (a, b))
        assert got == ("refused" if signed_a or signed_b else one_shot(a, b).tobytes())
        assert got_pairwise == ("refused" if signed_a else one_shot(a, a).tobytes())


@pytest.mark.parametrize("a, b, bad", [
    ([1.0, -1.0], [-1.0, 1.0], -1.0),  # read 0.0 before the check
    ([0.5, 0.5], [1.0, -1e-300], -1e-300),
    ([np.nan, 1.0], [0.5, 0.5], np.nan),
    ([0.5, 0.5], [np.inf, np.nan], np.inf),
    ([np.inf, 0.0], [1.0, 0.0], np.inf),  # read NaN before the check
    ([0.5, 0.5], [1.0, -np.inf], -np.inf),
])
def test_a_negative_or_nan_entry_is_refused(a, b, bad):
    """A negative, NaN or infinite entry is refused, naming the first in C order."""
    message = f"histogram entries must be finite and non-negative, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        visual.chi_square(a, b)
    both = np.array([a, b])
    with pytest.raises(ValueError, match=re.escape(message)):  # the first bad entry in C order
        visual.chi_square_matrix(both, both)


@st.composite
def one_array_cases(draw):
    """f >= 2 rows, some all zero and some duplicated, and a block of fewer rows than f."""
    width = draw(widths)
    f = draw(st.integers(2, 2 * BLOCK + 3))
    a = draw(histograms(f, width))
    for z in draw(st.lists(st.integers(0, f - 1), max_size=3)):
        a[z] = 0.0
    return a, draw(st.integers(1, f - 1))


@settings(max_examples=150, deadline=None)
@given(one_array_cases())
def test_one_array_twice_has_the_bits_of_two_equal_arrays(case):
    """Given b is a, the blocks above the diagonal are mirrored: the bytes of a copy's matrix."""
    a, rows = case
    with blocks_of(rows, a.shape[0], a.shape[1]):
        got = visual.chi_square_matrix(a, a)
        want = visual.chi_square_matrix(a, a.copy())
    assert got.tobytes() == want.tobytes()
    assert np.all(np.diagonal(got) == 0.0)


def test_one_array_twice_is_checked_once():
    a = np.full((3, 3), 1 / 3)
    with mock.patch.object(visual, "_check_entries", wraps=visual._check_entries) as check:
        visual.chi_square_matrix(a, a)
        assert check.call_count == 1
        visual.chi_square_matrix(a, a.copy())
        assert check.call_count == 3


def test_negative_zero_and_subnormal_entries_are_read_as_the_one_shot_formula_reads_them():
    a = np.array([[-0.0, 5e-324, 0.5, 0.5 - 5e-324], [0.0, -0.0, 1.0, 0.0]])
    b = np.array([[0.0, 0.0, 1.0, 0.0], [5e-324, -0.0, 0.25, 0.75], [-0.0, -0.0, 0.0, 1.0]])
    assert visual.chi_square_matrix(a, b).tobytes() == one_shot(a, b).tobytes()
    assert visual.chi_square_matrix(b, b).tobytes() == one_shot(b, b).tobytes()


# zeros, subnormals, the binade edges around 2**-1020 where y +- 2**-1074 can tie, values whose
# square underflows or just does not, and ordinary bins
TINY_BINS = [0.0, -0.0, 2.0**-1074, 3 * 2.0**-1074, 2.0**-1022, 2.0**-1021, 1.5 * 2.0**-1021,
             np.nextafter(2.0**-1020, 0.0), 2.0**-1020, 2.0**-1020 + 2.0**-1072, 2.0**-1019,
             2.0**-538, 2.0**-537, 1e-300, 1e-160, 1e-154, 0.25, 1.0]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2 * BLOCK + 3), st.integers(1, 2 * BLOCK + 3), st.sampled_from([1, 3, 12]),
       st.data())
def test_bins_near_underflow_have_the_one_shot_bits_across_blocks(fa, fb, width, data):
    """The kernel raises a block's empty bins to 2**-1074; no cell may move for it."""
    bins = st.sampled_from(TINY_BINS)
    a = np.array(data.draw(st.lists(bins, min_size=fa * width, max_size=fa * width))).reshape(fa, width)
    b = np.array(data.draw(st.lists(bins, min_size=fb * width, max_size=fb * width))).reshape(fb, width)
    for rows in (1, BLOCK):
        with blocks_of(rows, fb, width):
            assert visual.chi_square_matrix(a, b).tobytes() == one_shot(a, b).tobytes()
            assert visual.chi_square_matrix(b, a).tobytes() == one_shot(b, a).tobytes()
        with blocks_of(rows, fa, width):
            assert visual.chi_square_matrix(a, a).tobytes() == one_shot(a, a).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2 * BLOCK + 3), st.integers(1, 2 * BLOCK + 3), st.sampled_from([1, 3, 12]),
       st.data())
def test_no_cell_has_its_sign_bit_set(fa, fb, width, data):
    """mmr_keyframes zeroes a picked frame's row and sums whole columns. That keeps the bits of the
    fold over the other rows only if no cell is -0.0: x + 0.0 is x for every other x."""
    bins = st.one_of(st.sampled_from(TINY_BINS), st.floats(0.0, 1.0))
    a = np.array(data.draw(st.lists(bins, min_size=fa * width, max_size=fa * width))).reshape(fa, width)
    b = np.array(data.draw(st.lists(bins, min_size=fb * width, max_size=fb * width))).reshape(fb, width)
    for rows in (1, BLOCK):
        with blocks_of(rows, fb, width):
            assert not np.signbit(visual.chi_square_matrix(a, b)).any()
        with blocks_of(rows, fa, width):
            assert not np.signbit(visual.chi_square_matrix(a, a)).any()


def test_default_budget_splits_large_inputs_into_blocks():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 3, size=(300, 48)).astype(np.float64)
    a[:, 7] = 0.0
    a[::4] = a[1::4][0]
    a[a.sum(axis=1) == 0, 0] = 1.0
    a /= a.sum(axis=1, keepdims=True)
    assert visual._block_rows(300, 48) < 300
    assert visual.chi_square_matrix(a, a).tobytes() == one_shot(a, a).tobytes()
    assert visual.chi_square_matrix(a, a[:40]).tobytes() == one_shot(a, a[:40]).tobytes()


def _replay_against_oracle(features, lam, n, dist):
    keys = mmr_keyframes(features, n, lam)
    owners = [i for i, frames in enumerate(features.subshots) for _ in range(len(frames))]
    remaining = list(range(len(owners)))
    selected, covered = [], set()
    for step, picked in enumerate(keys):
        want = oracles.mmr_step_argmin(dist, remaining, selected, lam)
        assert picked == want, f"step {step}: picked {picked}, oracle {want}"
        selected.append(want)
        remaining.remove(want)
        covered.add(owners[want])
    assert len(covered) == n


@st.composite
def mmr_inputs(draw):
    fps = draw(st.integers(1, 3))
    m = draw(st.integers(BLOCK // fps + 1, 14))
    flat = draw(histograms(m * fps, draw(widths)))
    features = SubshotFeatures(
        video_id="v",
        bins_per_channel=flat.shape[1] // 3,
        subshots=tuple(flat[s * fps : (s + 1) * fps] for s in range(m)),
    )
    lam = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return features, flat, lam, draw(st.integers(1, m))


@settings(max_examples=80, deadline=None)
@given(mmr_inputs())
def test_mmr_matches_oracle_every_step_across_blocks(inputs):
    features, flat, lam, n = inputs
    assert flat.shape[0] > BLOCK
    with blocks_of(BLOCK, flat.shape[0], flat.shape[1]):
        _replay_against_oracle(features, lam, n, one_shot(flat, flat).tolist())


def test_mmr_matches_oracle_with_default_budget_and_duplicates():
    rng = np.random.default_rng(11)
    flat = rng.integers(0, 4, size=(150, 48)).astype(np.float64)
    flat[:, 5] = 0.0
    flat[10:30] = flat[:20]
    flat[flat.sum(axis=1) == 0, 0] = 1.0
    flat /= flat.sum(axis=1, keepdims=True)
    assert visual._block_rows(150, 48) < 150
    features = SubshotFeatures(
        video_id="v", bins_per_channel=16, subshots=tuple(flat[2 * s : 2 * s + 2] for s in range(75))
    )
    dist = one_shot(flat, flat).tolist()
    for lam in (0.0, 0.5, 1.0):
        _replay_against_oracle(features, lam, 6, dist)


def test_mmr_memory_stays_tens_of_mb_at_800_frames():
    # the one-shot matrix would hold 800 x 800 x 48 float64 temporaries:
    # 246 MB each
    rng = np.random.default_rng(5)
    flat = rng.random((800, 48))
    flat /= flat.sum(axis=1, keepdims=True)
    features = SubshotFeatures(
        video_id="v", bins_per_channel=16, subshots=tuple(flat[2 * s : 2 * s + 2] for s in range(400))
    )
    tracemalloc.start()
    try:
        start = time.perf_counter()
        keys = mmr_keyframes(features, 5, 0.5)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len({k // 2 for k in keys}) == 5
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
    assert elapsed < 5.0


def test_mmr_means_are_left_folds():
    # at the second pick, the scores of frames 9 and 10 differ only through
    # the summation order of their means: the left fold (the oracle's)
    # picks 9, numpy's pairwise np.sum would pick 10
    counts = np.array(
        [[1, 1, 2], [2, 1, 1], [1, 1, 0], [0, 1, 2], [0, 2, 2], [1, 1, 1],
         [2, 0, 2], [1, 2, 1], [2, 0, 0], [0, 0, 2], [0, 2, 0], [0, 2, 1]],
        dtype=np.float64,
    )
    flat = counts / counts.sum(axis=1, keepdims=True)
    features = SubshotFeatures(
        video_id="v", bins_per_channel=1, subshots=tuple(row[None, :] for row in flat)
    )
    assert mmr_keyframes(features, 4, 0.5) == [5, 9, 10, 4]
    _replay_against_oracle(features, 0.5, 4, one_shot(flat, flat).tolist())


@st.composite
def pixel_summary_cases(draw):
    """Features of 1-6 subshots of 1-3 frames, a summary, a ground truth and a block size."""
    width = draw(st.sampled_from([3, 12]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    frames = draw(histograms(sum(sizes), width))
    features = SubshotFeatures("v", width // 3, np.split(frames, np.cumsum(sizes)[:-1]))
    subsets = st.lists(st.integers(0, len(sizes) - 1), min_size=1, unique=True)
    summary, gt = (SummarySelection("v", tuple(sorted(draw(subsets)))) for _ in range(2))
    return features, summary, gt, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(pixel_summary_cases())
def test_pixel_summary_distance_is_one_kernel_call_with_the_loop_bits(case):
    features, summary, gt_sel, rows = case
    gt = np.vstack([features.subshots[g] for g in gt_sel.indices])
    total = 0.0
    for s in summary.indices:
        total += float(visual.chi_square_matrix(features.subshots[s], gt).min())
    want = total / len(summary)
    kernel = visual.chi_square_matrix
    calls = []
    with blocks_of(rows, gt.shape[0], gt.shape[1]), mock.patch.object(
        visual, "chi_square_matrix", lambda a, b: calls.append(a.shape) or kernel(a, b)
    ):
        got = visual.pixel_summary_distance(summary, gt_sel, features)
    assert got == want
    assert len(calls) == 1


@st.composite
def k_summary_cases(draw):
    """Features of 1-12 subshots, 1-5 summaries of one size n (n = 1 included, and n past 8,
    where numpy's sum stops adding in index order; subshots shared across summaries), a
    ground truth, and at times a pick or a ground-truth subshot outside the features."""
    width = draw(st.sampled_from([3, 12]))
    m = draw(st.sampled_from([1, 2, 3, 6, 12]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    frames = draw(histograms(sum(sizes), width))
    features = SubshotFeatures("v", width // 3, np.split(frames, np.cumsum(sizes)[:-1]))
    n = draw(st.sampled_from(range(1, m + 1)))
    summary = st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True)
    picks = [tuple(sorted(s)) for s in draw(st.lists(summary, min_size=1, max_size=5))]
    gt = tuple(sorted(draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))))
    outside = st.none() | st.integers(-3, -1) | st.integers(m, m + 2)
    bad = draw(outside)
    if bad is not None:
        row, col = draw(st.integers(0, len(picks) - 1)), draw(st.integers(0, n - 1))
        picks[row] = picks[row][:col] + (bad,) + picks[row][col + 1 :]
    bad = draw(outside)
    if bad is not None:
        col = draw(st.integers(0, len(gt)))
        gt = gt[:col] + (bad,) + gt[col:]
    return features, picks, gt


@settings(max_examples=200, deadline=None)
@given(k_summary_cases())
def test_each_row_of_the_k_summary_distances_is_that_summary_alone(case):
    """Row i has the bits of pixel_summary_distance of summary i, from one kernel call; at one
    bin per channel also those of the loop oracle, whose three-term sums the kernel adds in
    the same order (within 1e-12 at four bins). An index outside the features is refused with
    check_range's message, before bincount could read it: the first in the order of scoring
    one summary at a time, its picks and then the ground truth, on both paths."""
    features, picks, gt = case
    m = len(features)

    def outside(*rows):
        return next((i for row in rows for i in row if not 0 <= i < m), None)

    def refuses(call, index):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"subshot index {index} not covered by features ({m} subshots)"

    def one_row(summary):
        """pixel_summary_distance of summary; a row or ground truth that no selection holds (a
        negative index, or one out of order) takes the one-row raw call instead."""
        try:
            one, gt_sel = SummarySelection("v", summary), SummarySelection("v", gt)
        except CorpusValidationError:
            return visual.pixel_summary_distances([summary], gt, features)[0]
        return visual.pixel_summary_distance(one, gt_sel, features)

    first = next((bad for row in picks if (bad := outside(row, gt)) is not None), None)
    if first is not None:
        refuses(lambda: visual.pixel_summary_distances(picks, gt, features), first)
        for summary in picks:
            if (bad := outside(summary, gt)) is not None:
                refuses(lambda: one_row(summary), bad)
        return
    kernel = visual.chi_square_matrix
    calls = []
    with mock.patch.object(
        visual, "chi_square_matrix", lambda a, b: calls.append(a.shape) or kernel(a, b)
    ):
        got = visual.pixel_summary_distances(picks, gt, features)
    assert len(calls) == 1 and got.shape == (len(picks),)
    frames = [f.tolist() for f in features.subshots]
    for row, summary in zip(got.tolist(), picks):
        assert row.hex() == one_row(summary).hex()
        want = oracles.naive_pixel_distance(summary, gt, frames)
        if features.bins_per_channel == 1:
            assert row.hex() == want.hex()
        else:
            assert abs(row - want) <= 1e-12
