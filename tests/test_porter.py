import itertools
from pathlib import Path

import pytest

from vtseval.porter import _STEP1A, _STEP4, _apply_longest, stem

import oracles

SAMPLE = Path(__file__).parent / "data" / "porter_sample.txt"


def load_sample():
    pairs = []
    for line in SAMPLE.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, expected = line.split("\t")
        pairs.append((word, expected))
    return pairs


@pytest.mark.parametrize("word,expected", load_sample())
def test_reference_sample(word, expected):
    assert stem(word) == expected


def test_sample_has_fifty_words():
    assert len(load_sample()) == 50


def test_short_words_unchanged():
    for word in ("a", "is", "by", "on"):
        assert stem(word) == word


def test_y_consonant_handling():
    # y after a consonant acts as a vowel, at word start as a consonant
    assert stem("happy") == "happi"
    assert stem("sky") == "sky"
    assert stem("syzygy") == "syzygi"


def test_double_consonant_not_undoubled_for_l_s_z():
    assert stem("falling") == "fall"
    assert stem("hissing") == "hiss"
    assert stem("fizzing") == "fizz"
    assert stem("hopping") == "hop"


def test_longest_suffix_blocks_shorter_rules():
    # "feed" matches eed (condition fails) so the ed rule must not fire
    assert stem("feed") == "feed"
    # "rational" matches ational (condition fails) so tional must not fire
    assert stem("rational") == "ration"


def suffixed_words(suffixes):
    """Every base, a sample word, its stem or a short letter string, with each suffix."""
    bases = {w for pair in load_sample() for w in pair}
    for k in (1, 2, 3):
        bases.update(map("".join, itertools.product("abcilnorstuy", repeat=k)))
    return [base + suffix for base in sorted(bases) for suffix in suffixes]


def test_step4_table_matches_the_written_out_rule():
    """Step 4's table row for (s|t)ion picks and strips as the loop in oracles does.

    Every base takes every step-4 suffix and also "sion" and "tion".
    """
    words = suffixed_words(oracles.STEP4_SUFFIXES + ("ion", "sion", "tion"))
    assert [_apply_longest(w, _STEP4) for w in words] == list(map(oracles.porter_step4, words))


def test_step1a_table_matches_the_if_chain():
    words = suffixed_words(("", "s", "ss", "sses", "ies", "es", "is", "us", "sss"))
    assert [_apply_longest(w, _STEP1A) for w in words] == list(map(oracles.porter_step1a, words))
