import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval.corpus import CorpusIOError, CorpusParseError, SubshotFeatures, SummarySelection
from vtseval.visual import (
    Frame,
    chi_square,
    compute_histogram,
    load_ppm,
    pixel_summary_distance,
    pixel_summary_distances,
    subshot_distances,
    subshot_min_distance,
)

import oracles
from oracles import chi_square_ref, naive_pixel_distance


def write_ppm(path, width, height, pixels, magic=b"P6", maxval=255):
    payload = bytes(v for px in pixels for v in px)
    path.write_bytes(magic + b"\n%d %d\n%d\n" % (width, height, maxval) + payload)


def random_histogram(rng, dim):
    v = np.array([rng.random() for _ in range(dim)])
    return v / v.sum()


# every byte that bytes.isspace() accepts, and header tokens that are valid,
# malformed, hold a '#' or bytes at or above 0x80 (0x85 and 0xa0 are Unicode
# whitespace but not bytes whitespace; 0x1c is neither)
WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
JUNK = [b"P3", b"P5", b"-1", b"0", b"+2", b"1_0", b"02", b"65535", b"1#2", b"#", b"P6#",
        b"\x80\xff", b"2\x85", b"\xa0", b"\x1c", b"1\x00"]
comments = st.builds(
    lambda body, end: b"#" + body + end,
    st.binary(max_size=5).map(lambda body: body.replace(b"\n", b"").replace(b"\r", b"")),
    st.sampled_from([b"\n", b"\r", b"\n", b"\r", b""]),  # b"": it runs on into what follows
)
runs = st.lists(st.sampled_from(WHITESPACE) | comments, max_size=2).map(b"".join)
# mostly a whitespace byte first; otherwise a '#' or the next token may join the last token
spaced = st.builds(bytes.__add__, st.sampled_from(WHITESPACE), runs)
gaps = st.integers(0, 3).flatmap(lambda k: spaced if k else runs)


def token(*valid: bytes):
    """Mostly one of the valid tokens, otherwise a malformed or random one."""
    junk = st.sampled_from(JUNK) | st.binary(min_size=1, max_size=3)
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(valid) if k else junk)


headers = st.tuples(token(b"P6"), token(b"1", b"2", b"3"), token(b"1", b"2"), token(b"255"))


def outcome(call):
    """What a loader gives: its frame, or the class and message of its refusal."""
    try:
        return call()
    except CorpusParseError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(gaps, min_size=5, max_size=5), headers, st.binary(max_size=20),
       st.integers(0, 2).flatmap(lambda k: st.integers(0, 40) if k == 0 else st.none()))
def test_ppm_header_regex_reads_as_the_byte_loop(tmp_path_factory, seps, tokens, payload, cut):
    """Random headers, whole or truncated, give the loop's frame or its exact error."""
    blob = (b"".join(sep + tok for sep, tok in zip(seps, tokens)) + seps[4] + payload)[:cut]
    path = tmp_path_factory.getbasetemp() / "header.ppm"
    path.write_bytes(blob)
    assert outcome(lambda: load_ppm(path)) == outcome(lambda: oracles.ppm_frame(blob, path))


class TestLoadPpm:
    def test_exact_pixels(self, tmp_path):
        path = tmp_path / "f.ppm"
        write_ppm(path, 2, 1, [(255, 0, 0), (0, 255, 0)])
        frame = load_ppm(path)
        assert (frame.width, frame.height) == (2, 1)
        assert frame.pixels == bytes([255, 0, 0, 0, 255, 0])

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6 # comment\n# another\n1 1\n255\n\xff\x00\x00")
        frame = load_ppm(path)
        assert frame.pixels == b"\xff\x00\x00"

    def test_rejects_ascii_format(self, tmp_path):
        path = tmp_path / "f.ppm"
        write_ppm(path, 1, 1, [(1, 2, 3)], magic=b"P3")
        with pytest.raises(CorpusParseError, match="P3"):
            load_ppm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "f.ppm"
        write_ppm(path, 1, 1, [(1, 2, 3)], maxval=65535)
        with pytest.raises(CorpusParseError, match="maxval"):
            load_ppm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(CorpusParseError, match="truncated"):
            load_ppm(path)

    def test_unreadable_and_non_utf8_files_are_refused_by_path(self, tmp_path):
        missing = tmp_path / "missing.ppm"
        with pytest.raises(CorpusIOError) as exc:
            load_ppm(missing)
        assert str(exc.value).startswith(f"cannot read {missing}: ")
        garbage = tmp_path / "garbage.ppm"
        garbage.write_bytes(b"\xff\xfe")
        with pytest.raises(CorpusParseError) as exc:
            load_ppm(garbage)
        assert str(exc.value).startswith(f"{garbage}: ")


class TestComputeHistogram:
    def test_hand_counted(self):
        frame = Frame(2, 1, bytes([255, 0, 0, 0, 255, 0]))
        hist = compute_histogram(frame, 16)
        expected = np.zeros(48)
        expected[15] = 1  # R of pixel 1
        expected[0] = 1  # R of pixel 2
        expected[16] = 1  # G of pixel 1
        expected[31] = 1  # G of pixel 2
        expected[32] = 2  # B of both
        np.testing.assert_array_equal(hist, expected / 6)

    def test_uniform_gray(self):
        frame = Frame(3, 2, bytes([128, 128, 128] * 6))
        hist = compute_histogram(frame, 16)
        nonzero = np.nonzero(hist)[0]
        assert list(nonzero) == [8, 24, 40]
        assert np.allclose(hist[nonzero], 1 / 3)

    def test_deterministic(self):
        frame = Frame(2, 2, bytes(range(12)))
        np.testing.assert_array_equal(compute_histogram(frame, 8), compute_histogram(frame, 8))

    def test_rejects_bad_bins(self):
        frame = Frame(1, 1, bytes([0, 0, 0]))
        with pytest.raises(ValueError):
            compute_histogram(frame, 3)

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            compute_histogram(Frame(0, 0, b""), 16)

    @pytest.mark.parametrize("width, height, size", [(2, 2, 3), (1, 1, 2), (1, 1, 6), (2, 1, 3)])
    def test_rejects_pixels_that_are_not_three_bytes_per_pixel(self, width, height, size):
        """Binning part of a frame, or a partial pixel, would give a plausible-looking histogram."""
        with pytest.raises(ValueError) as exc:
            compute_histogram(Frame(width, height, bytes(size)), 16)
        assert str(exc.value) == (
            f"frame pixels: a {width}x{height} frame needs {3 * width * height} bytes, got {size}")

    def test_output_normalized(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(1, 20)
            frame = Frame(n, 1, bytes(rng.randrange(256) for _ in range(3 * n)))
            hist = compute_histogram(frame, 16)
            assert hist.shape == (48,)
            assert np.all(hist >= 0)
            assert abs(hist.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("bins", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_one_bincount_is_the_channel_loop_bit_for_bit(self, bins):
        rng = np.random.default_rng(bins)
        for n in (1, 2, 7, 300):
            pixels = rng.integers(0, 256, 3 * n, dtype=np.uint8)
            pixels[:3] = (0, 255, 128)  # both ends of the range and a bin edge
            got = compute_histogram(Frame(n, 1, pixels.tobytes()), bins)
            want = oracles.channel_histogram(pixels.tobytes(), bins)
            assert got.dtype == np.float64 and got.shape == (3 * bins,)
            assert got.tobytes() == want.tobytes()


class TestChiSquare:
    def test_identity(self):
        a = np.array([0.25, 0.75])
        assert chi_square(a, a) == 0.0

    def test_disjoint_support(self):
        assert chi_square(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_hand_value(self):
        d = chi_square(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert d == pytest.approx(0.0666667, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError) as exc:
            chi_square(np.array([1.0]), np.array([0.5, 0.5]))
        assert str(exc.value) == "histogram length mismatch: (1,) vs (2,)"

    @pytest.mark.parametrize("a, b", [
        (np.full((2, 3), 1 / 3), np.full((2, 3), 1 / 3)),  # one histogram of six bins before
        (np.array(1.0), np.array(1.0)),
        (np.array([0.5, 0.5]), np.array([[0.5, 0.5]])),
    ], ids=["two_matrices", "two_scalars", "vector_and_matrix"])
    def test_refuses_anything_but_two_1d_histograms(self, a, b):
        with pytest.raises(ValueError) as exc:
            chi_square(a, b)
        assert str(exc.value) == (
            f"chi_square takes two 1-D histograms, got shapes {a.shape} and {b.shape}")

    def test_properties_random(self):
        rng = random.Random(2)
        for _ in range(200):
            a = random_histogram(rng, 8)
            b = random_histogram(rng, 8)
            d = chi_square(a, b)
            assert d == chi_square(b, a)
            assert 0.0 <= d <= 1.0
            assert d == pytest.approx(chi_square_ref(list(a), list(b)), abs=1e-12)

    def test_zero_iff_equal(self):
        rng = random.Random(3)
        a = random_histogram(rng, 8)
        b = random_histogram(rng, 8)
        assert chi_square(a, a) == 0.0
        assert chi_square(a, b) > 0.0


class TestSubshotMinDistance:
    def test_shared_frame(self):
        shared = np.array([0.5, 0.5])
        assert subshot_min_distance([shared, np.array([1.0, 0.0])], [shared]) == 0.0

    def test_singletons(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert subshot_min_distance([a], [b]) == chi_square(a, b)

    def test_min_over_cross_pairs(self):
        # min over cross pairs of chi2([1,0], .) = min(1.0, 1/3)
        a = [np.array([1.0, 0.0])]
        b = [np.array([0.0, 1.0]), np.array([0.5, 0.5])]
        assert subshot_min_distance(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            subshot_min_distance([], [np.array([1.0])])


class TestPixelSummaryDistance:
    def make_features(self, rng, subshots, frames_per_subshot, dim=6):
        return SubshotFeatures(
            video_id="v",
            bins_per_channel=dim // 3,
            subshots=tuple(
                np.vstack([random_histogram(rng, dim) for _ in range(frames_per_subshot)])
                for _ in range(subshots)
            ),
        )

    def test_self_distance_zero(self):
        rng = random.Random(4)
        features = self.make_features(rng, 4, 2)
        sel = SummarySelection(video_id="v", indices=(0, 2))
        assert pixel_summary_distance(sel, sel, features) == 0.0

    def test_single_pair(self):
        rng = random.Random(5)
        features = self.make_features(rng, 2, 3)
        a = SummarySelection(video_id="v", indices=(0,))
        b = SummarySelection(video_id="v", indices=(1,))
        expected = subshot_min_distance(features.subshots[0], features.subshots[1])
        assert pixel_summary_distance(a, b, features) == expected

    def test_matches_brute_force(self):
        rng = random.Random(6)
        for _ in range(20):
            features = self.make_features(rng, 4, 2)
            summary = SummarySelection(video_id="v", indices=(0, 1, 3))
            gt = SummarySelection(video_id="v", indices=(1, 2))
            got = pixel_summary_distance(summary, gt, features)
            want = naive_pixel_distance(
                summary.indices, gt.indices, [s.tolist() for s in features.subshots]
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_gt_permutation_invariant(self):
        rng = random.Random(7)
        features = self.make_features(rng, 5, 2)
        summary = SummarySelection(video_id="v", indices=(0, 4))
        gt1 = SummarySelection(video_id="v", indices=(1, 2, 3))
        # same set, different construction order is impossible through the
        # type (indices sorted), so compare against manual reordering
        d1 = pixel_summary_distance(summary, gt1, features)
        total = 0.0
        for s in summary.indices:
            total += min(
                subshot_min_distance(features.subshots[s], features.subshots[g])
                for g in (3, 1, 2)
            )
        assert d1 == pytest.approx(total / 2, abs=1e-15)

    def test_rejects_empty_selection(self):
        rng = random.Random(8)
        features = self.make_features(rng, 2, 1)
        empty = SummarySelection(video_id="v", indices=())
        full = SummarySelection(video_id="v", indices=(0,))
        with pytest.raises(ValueError):
            pixel_summary_distance(empty, full, features)
        with pytest.raises(ValueError):
            pixel_summary_distance(full, empty, features)

    def test_rejects_summaries_of_unequal_size(self, features12):
        """In judge_summary_pair's words, not numpy's inhomogeneous-shape error."""
        for picks, sizes in (([[0, 1], [2]], "2 and 1"), ([[0], [1], [2, 3]], "1 and 2")):
            with pytest.raises(ValueError) as exc:
                pixel_summary_distances(picks, [3], features12)
            assert str(exc.value) == f"summaries must have equal size, got {sizes}"

    @pytest.mark.parametrize("rows, cols, side", [([], [1], "rows"), ([1], [], "cols"),
                                                  ([], [], "rows"), ([], [99], "rows")])
    def test_subshot_distances_refuse_an_empty_side_by_name(self, features12, rows, cols, side):
        with pytest.raises(ValueError) as exc:
            subshot_distances(features12, rows, cols)
        assert str(exc.value) == f"{side}: at least one subshot index required"

    @pytest.mark.parametrize("summary, gt, bad", [((-1,), (2, 5), -1), ((0, 3), (5, -12), -12),
                                                  ((11, 12), (0,), 12)])
    def test_rejects_an_index_outside_the_features(self, features12, summary, gt, bad):
        """A negative index is refused as the text side refuses it, not read from the end."""
        with pytest.raises(ValueError) as exc:
            pixel_summary_distance(SummarySelection("video12", summary),
                                   SummarySelection("video12", gt), features12)
        assert str(exc.value) == f"subshot index {bad} not covered by features (12 subshots)"
