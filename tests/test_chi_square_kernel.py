"""The blocked chi-square matrix kernel and the marginal-relevance loop built on it.

The kernel must give the same bits as the one-shot broadcast formula
(inlined below) whatever the block size, including on block edges, empty
bins and duplicated rows; MMR must pick what the brute-force oracle picks
at every step; and neither may hold an f x f x 3B temporary.
"""
import time
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import visual
from vtseval.corpus import SubshotFeatures
from vtseval.summarize import MmrParams, mmr_keyframes

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
            got_pairwise = visual.pairwise_chi_square(a)
        assert got.tobytes() == want.tobytes()
        assert got_pairwise.tobytes() == want_pairwise.tobytes()
    assert visual.chi_square_matrix(a, b).tobytes() == want.tobytes()
    assert visual.pairwise_chi_square(a).tobytes() == want_pairwise.tobytes()
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


@settings(max_examples=120, deadline=None)
@given(kernel_call_sequences())
def test_reused_buffers_leak_nothing_between_blocks_or_calls(calls):
    for a, b, rows in calls:
        with blocks_of(rows, b.shape[0], a.shape[1]):
            got = visual.chi_square_matrix(a, b)
        with blocks_of(rows, a.shape[0], a.shape[1]):
            got_pairwise = visual.pairwise_chi_square(a)
        assert got.tobytes() == one_shot(a, b).tobytes()
        assert got_pairwise.tobytes() == one_shot(a, a).tobytes()


def test_default_budget_splits_large_inputs_into_blocks():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 3, size=(300, 48)).astype(np.float64)
    a[:, 7] = 0.0
    a[::4] = a[1::4][0]
    a[a.sum(axis=1) == 0, 0] = 1.0
    a /= a.sum(axis=1, keepdims=True)
    assert visual._block_rows(300, 48) < 300
    assert visual.pairwise_chi_square(a).tobytes() == one_shot(a, a).tobytes()
    assert visual.chi_square_matrix(a, a[:40]).tobytes() == one_shot(a, a[:40]).tobytes()


def _replay_against_oracle(features, lam, n, dist):
    keys = mmr_keyframes(features, MmrParams(lambda_=lam, n=n))
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
        bins_per_channel=1,
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
        keys = mmr_keyframes(features, MmrParams(lambda_=0.5, n=5))
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
    assert mmr_keyframes(features, MmrParams(lambda_=0.5, n=4)) == [5, 9, 10, 4]
    _replay_against_oracle(features, 0.5, 4, one_shot(flat, flat).tolist())
