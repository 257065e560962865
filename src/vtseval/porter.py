"""Classic Porter stemmer (1980 edition).

Implements the original five-step suffix-stripping algorithm without any
of the later revisions, so output is stable and matches the algorithm's
published example vocabulary (see tests/data/porter_sample.txt). Within a
step the longest matching suffix is selected first and only then is its
condition tested; if the condition fails no other rule in that step fires.
The four conditions (the measure m, *v*, *d and *o) read one letter form
of the word, "v" per vowel and "c" per consonant. Input is a lowercase
alphabetic word; words of length one or two are returned unchanged.
"""
from __future__ import annotations

_VOWELS = "aeiou"


def _form(word: str) -> str:
    """One letter per letter of word, "v" or "c"; y is a vowel only after a consonant."""
    form = ""
    for c in word:
        form += "v" if c in _VOWELS or (c == "y" and form[-1:] == "c") else "c"
    return form


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    return _form(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _form(stem)


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _form(word)[-1] == "c"


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    return _form(stem).endswith("cvc") and stem[-1] not in "wxy"


def _apply_longest(word: str, rules) -> str:
    """Pick the longest matching suffix, then test its m-condition.

    A rule is (suffix, replacement, min_m), or (suffix, replacement, min_m,
    endings) when the stem must also end in one of endings.
    """
    best = None
    for rule in rules:
        if word.endswith(rule[0]) and (best is None or len(rule[0]) > len(best[0])):
            best = rule
    if best is None:
        return word
    suffix, repl, min_m, *endings = best
    stem = word[: -len(suffix)]
    if _measure(stem) > min_m and (not endings or stem.endswith(endings[0])):
        return stem + repl
    return word


# m > -1 always holds: step 1a's rules have no condition
_STEP1A = [("sses", "ss", -1), ("ies", "i", -1), ("ss", "ss", -1), ("s", "", -1)]

_STEP2 = [
    ("ational", "ate", 0), ("tional", "tion", 0), ("enci", "ence", 0),
    ("anci", "ance", 0), ("izer", "ize", 0), ("abli", "able", 0),
    ("alli", "al", 0), ("entli", "ent", 0), ("eli", "e", 0),
    ("ousli", "ous", 0), ("ization", "ize", 0), ("ation", "ate", 0),
    ("ator", "ate", 0), ("alism", "al", 0), ("iveness", "ive", 0),
    ("fulness", "ful", 0), ("ousness", "ous", 0), ("aliti", "al", 0),
    ("iviti", "ive", 0), ("biliti", "ble", 0),
]

_STEP3 = [
    ("icate", "ic", 0), ("ative", "", 0), ("alize", "al", 0),
    ("iciti", "ic", 0), ("ical", "ic", 0), ("ful", "", 0), ("ness", "", 0),
]

_STEP4 = [
    ("al", "", 1), ("ance", "", 1), ("ence", "", 1), ("er", "", 1),
    ("ic", "", 1), ("able", "", 1), ("ible", "", 1), ("ant", "", 1),
    ("ement", "", 1), ("ment", "", 1), ("ent", "", 1), ("ion", "", 1, ("s", "t")),
    ("ou", "", 1), ("ism", "", 1), ("ate", "", 1), ("iti", "", 1),
    ("ous", "", 1), ("ive", "", 1), ("ize", "", 1),
]


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    if word.endswith("ed"):
        stem = word[:-2]
        if not _contains_vowel(stem):
            return word
    elif word.endswith("ing"):
        stem = word[:-3]
        if not _contains_vowel(stem):
            return word
    else:
        return word
    # ed/ing was stripped; tidy up the exposed stem
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_cons(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _measure(stem)
    if m > 1 or (m == 1 and not _ends_cvc(stem)):
        return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("l") and _ends_double_cons(word) and _measure(word) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem one lowercase alphabetic word."""
    if len(word) <= 2:
        return word
    word = _apply_longest(word, _STEP1A)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_longest(word, _STEP2)
    word = _apply_longest(word, _STEP3)
    word = _apply_longest(word, _STEP4)
    word = _step5a(word)
    word = _step5b(word)
    return word
