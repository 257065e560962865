import random

import pytest

from vtseval.rouge import RougeScore, UnitTable, match_matrix, rouge_n, rouge_su

from oracles import SAFE_VOCAB, clip_count, naive_rouge_n, naive_rouge_su


def random_text(rng, max_sentences=6, max_tokens=6):
    return [
        " ".join(rng.choices(SAFE_VOCAB, k=rng.randint(1, max_tokens)))
        for _ in range(rng.randint(0, max_sentences))
    ]


def unigram_matches(candidate: str, reference: str) -> int:
    """Clipped unigram matches of two one-sentence texts, through match_matrix."""
    return int(match_matrix(UnitTable(), 1, [[candidate]], [[reference]])[0][0, 0])


class TestCountMatches:
    def test_clipped(self):
        assert clip_count(["a", "a", "b"], ["a", "b", "b"]) == 2
        assert unigram_matches("dog dog park", "dog park park") == 2

    def test_identity(self):
        x = ["a", "a", "b", "c"]
        assert clip_count(x, x) == 4
        assert unigram_matches("dog dog park lake", "dog dog park lake") == 4

    def test_disjoint(self):
        assert clip_count(["a"], ["b"]) == 0
        assert unigram_matches("dog", "park") == 0


class TestRougeSu:
    def test_identical(self):
        text = ["I walked my dog at the park."]
        score = rouge_su(text, text)
        assert score.precision == score.recall == score.f_measure == 1.0

    def test_partial_overlap_pair(self):
        score = rouge_su(["I walked my dog"], ["I walked my dog at the park."])
        assert score.candidate_units == 3
        assert score.reference_units == 6
        assert score.match_count == 3
        assert score.precision == 1.0
        assert score.recall == 0.5
        assert score.f_measure == pytest.approx(2 / 3, abs=1e-15)

    def test_disjoint(self):
        score = rouge_su(["He ate lunch"], ["She drove home"])
        assert score.f_measure == 0.0

    def test_empty_candidate(self):
        score = rouge_su([], ["I walked my dog"])
        assert score == RougeScore(0.0, 0.0, 0.0, 0, 0, 3)

    def test_bigrams_do_not_cross_sentences(self):
        # same tokens, but split sentences lose the cross pair
        joined = rouge_su(["dog park"], ["dog park"])
        split = rouge_su(["dog", "park"], ["dog park"])
        assert joined.match_count == 3
        assert split.match_count == 2

    def test_swap_symmetry(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b = random_text(rng), random_text(rng)
            ab, ba = rouge_su(a, b), rouge_su(b, a)
            assert ab.precision == ba.recall
            assert ab.recall == ba.precision
            assert ab.f_measure == pytest.approx(ba.f_measure, abs=1e-15)

    def test_f_is_one_iff_pools_equal(self):
        rng = random.Random(5)
        seen_equal = seen_unequal = 0
        for i in range(200):
            a = random_text(rng, 2, 3)
            # pooling ignores sentence order, so a permutation keeps F = 1
            b = list(reversed(a)) if i % 4 == 0 and a else random_text(rng, 2, 3)
            score = rouge_su(a, b)
            pools_equal = (
                score.candidate_units == score.reference_units == score.match_count
                and score.candidate_units > 0
            )
            if score.f_measure == 1.0:
                assert pools_equal
                seen_equal += 1
            else:
                assert not pools_equal
                seen_unequal += 1
        assert seen_equal and seen_unequal

    def test_appending_sentence_never_decreases_recall(self):
        rng = random.Random(11)
        for _ in range(50):
            cand, ref = random_text(rng), random_text(rng)
            if not ref:
                continue
            base = rouge_su(cand, ref)
            extended = rouge_su(cand + [" ".join(rng.choices(SAFE_VOCAB, k=3))], ref)
            assert extended.match_count >= base.match_count
            assert extended.recall >= base.recall

    def test_oracle_equivalence(self):
        rng = random.Random(17)
        for _ in range(100):
            cand, ref = random_text(rng), random_text(rng)
            score = rouge_su(cand, ref)
            p, r, f = naive_rouge_su(cand, ref)
            assert score.precision == pytest.approx(p, abs=1e-12)
            assert score.recall == pytest.approx(r, abs=1e-12)
            assert score.f_measure == pytest.approx(f, abs=1e-12)


class TestRougeN:
    def test_identical_unigrams(self):
        text = ["dog park lake"]
        assert rouge_n(text, text, 1).f_measure == 1.0

    def test_bigram_overlap_pair(self):
        score = rouge_n(["walked dog park"], ["walked dog home"], 2)
        assert score.match_count == 1
        assert score.precision == score.recall == score.f_measure == 0.5

    def test_empty_candidate(self):
        assert rouge_n([], ["dog"], 1).f_measure == 0.0

    @pytest.mark.parametrize("n", [0, 3, -1])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            rouge_n(["dog"], ["dog"], n)

    def test_oracle_equivalence(self):
        rng = random.Random(23)
        for _ in range(50):
            cand, ref = random_text(rng), random_text(rng)
            for n in (1, 2):
                score = rouge_n(cand, ref, n)
                p, r, f = naive_rouge_n(cand, ref, n)
                assert score.precision == pytest.approx(p, abs=1e-12)
                assert score.recall == pytest.approx(r, abs=1e-12)
                assert score.f_measure == pytest.approx(f, abs=1e-12)
