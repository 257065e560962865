import itertools
from pathlib import Path

import pytest

from vtseval import porter
from vtseval.porter import _STEP1A, _STEP2, _STEP3, _STEP4, _apply_longest, stem

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


# each of Porter's conditions in the package, with the per-letter oracle it must equal
CONDITIONS = {
    "_measure": oracles.measure,
    "_contains_vowel": oracles.contains_vowel,
    "_ends_double_cons": oracles.ends_double_cons,
    "_ends_cvc": oracles.ends_cvc,
}


def test_conditions_equal_the_per_letter_consonant_test():
    """Every string of length 1-5 over vowels, y, w, x, doubled and plain consonants."""
    words = ["".join(p) for k in range(1, 6) for p in itertools.product("aeiouybwxslt", repeat=k)]
    assert len(words) == 271_452
    for name, oracle in CONDITIONS.items():
        condition = getattr(porter, name)
        assert [w for w in words if condition(w) != oracle(w)][:5] == [], name


def test_stems_equal_the_stems_under_the_oracle_conditions(monkeypatch):
    """Every base takes every suffix a step tests, and stems as with the oracle's conditions."""
    suffixes = {rule[0] for step in (_STEP1A, _STEP2, _STEP3, _STEP4) for rule in step}
    words = suffixed_words(sorted(suffixes | {"", "eed", "ed", "ing", "y", "e", "ll"}))
    want = list(map(stem, words))
    for name, oracle in CONDITIONS.items():
        monkeypatch.setattr(porter, name, oracle)
    assert list(map(stem, words)) == want
