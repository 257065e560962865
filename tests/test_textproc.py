import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vtseval
from vtseval.corpus import CorpusIOError, CorpusParseError
from vtseval.rouge import SU, UnitTable
from vtseval.textproc import (
    default_stopwords,
    load_stopwords,
    preprocess,
    stem,
    tokenize,
)

from oracles import SAFE_VOCAB
from test_unit_table import decoded_row


def table_units(sentence, table=None):
    """(unigrams, skip-bigrams) of one sentence as the unit table compiles it, decoded to stems."""
    units = Counter(decoded_row(table or UnitTable(), SU, sentence))
    unigrams = Counter({u: c for u, c in units.items() if isinstance(u, str)})
    pairs = Counter({u: c for u, c in units.items() if isinstance(u, tuple)})
    return unigrams, pairs


class TestTokenize:
    def test_sentence(self):
        assert tokenize("I walked my dog at the park.") == [
            "i", "walked", "my", "dog", "at", "the", "park",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_and_digits(self):
        assert tokenize("Mall-side stroll, 2pm") == ["mall", "side", "stroll", "2pm"]

    def test_only_separators(self):
        assert tokenize("--- ;; !!") == []


class TestStopwords:
    def test_walk_sentence_stopwords(self):
        sentence = "I walked my dog at the park"
        assert preprocess(sentence) == ["walk", "dog", "park"]
        assert decoded_row(UnitTable(), 1, sentence) == ["walk", "dog", "park"]

    def test_all_stopwords(self):
        assert preprocess("the a of") == []
        assert len(UnitTable().row(1, "the a of")) == 0

    def test_no_stopwords(self):
        assert preprocess("dog") == ["dog"]
        assert decoded_row(UnitTable(), 1, "dog") == ["dog"]

    def test_custom_list(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\ndog\n\npark\n")
        stops = load_stopwords(path)
        assert stops == frozenset({"dog", "park"})
        assert preprocess("dog walked park", stops) == ["walk"]
        assert decoded_row(UnitTable(stops), 1, "dog walked park") == ["walk"]

    def test_unreadable_and_non_utf8_files_raise_corpus_errors_naming_them(self, tmp_path):
        missing = tmp_path / "missing.txt"
        with pytest.raises(CorpusIOError) as exc:
            load_stopwords(missing)
        assert str(exc.value).startswith(f"cannot read {missing}: ")
        garbage = tmp_path / "garbage.txt"
        garbage.write_bytes(b"dog\n\xff\xfe\n")
        with pytest.raises(CorpusParseError) as exc:
            load_stopwords(garbage)
        assert str(exc.value).startswith(f"{garbage}: not UTF-8 text: ")

    def test_bundled_list_loaded(self):
        assert "the" in default_stopwords()
        assert "went" in default_stopwords()
        assert "dog" not in default_stopwords()


def test_importing_the_package_reads_no_stopword_file():
    """The bundled list is read on first use: an import opens no stopwords.txt."""
    code = (
        "import sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, args: event == 'open' and opened.append(str(args[0])))\n"
        "import vtseval, vtseval.cli\n"
        "print([p for p in opened if p.endswith('stopwords.txt')])\n"
        "from vtseval.textproc import preprocess\n"
        "preprocess('the dog')\n"
        "print(sum(p.endswith('stopwords.txt') for p in opened))\n"
    )
    src = str(Path(vtseval.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.split("\n") == ["[]", "1", ""]


class TestStem:
    def test_digit_bearing_passthrough(self):
        assert stem("2pm") == "2pm"
        assert stem("route66") == "route66"

    def test_alphabetic(self):
        assert stem("walked") == "walk"
        assert stem("shopping") == "shop"


class TestExtractUnits:
    """Units of one sentence as UnitTable.row compiles them, decoded back to stems."""

    def test_dog_walk_sentence(self):
        unigrams, pairs = table_units("I walked my dog at the park.")
        assert dict(unigrams) == {"walk": 1, "dog": 1, "park": 1}
        assert dict(pairs) == {
            ("walk", "dog"): 1,
            ("walk", "park"): 1,
            ("dog", "park"): 1,
        }

    def test_all_stopwords(self):
        unigrams, pairs = table_units("The the the.")
        assert not unigrams
        assert not pairs

    def test_repeated_token(self):
        unigrams, pairs = table_units("dog dog")
        assert dict(unigrams) == {"dog": 2}
        assert dict(pairs) == {("dog", "dog"): 1}

    def test_pair_count_formula(self):
        rng = random.Random(7)
        table = UnitTable()
        for _ in range(50):
            sentence = " ".join(rng.choices(SAFE_VOCAB, k=rng.randint(0, 10)))
            unigrams, pairs = table_units(sentence, table)
            k = sum(unigrams.values())
            assert sum(pairs.values()) == k * (k - 1) // 2

    def test_bigram_elements_in_unigrams(self):
        unigrams, pairs = table_units("I walked my dog at the park near the lake.")
        for a, b in pairs:
            assert a in unigrams and b in unigrams

    def test_deterministic(self):
        s = "I bought apples at the market."
        table = UnitTable()
        assert table_units(s, table) == table_units(s, table) == table_units(s)

    def test_removing_word_never_increases_counts(self):
        rng = random.Random(13)
        table = UnitTable()
        for _ in range(30):
            words = rng.choices(SAFE_VOCAB, k=rng.randint(1, 8))
            full_uni, full_pairs = table_units(" ".join(words), table)
            drop = rng.randrange(len(words))
            reduced = table_units(" ".join(words[:drop] + words[drop + 1 :]), table)
            for unit, count in reduced[0].items():
                assert count <= full_uni[unit]
            for unit, count in reduced[1].items():
                assert count <= full_pairs[unit]


def test_preprocess_order_preserved():
    assert preprocess("I walked my dog at the park.") == ["walk", "dog", "park"]
