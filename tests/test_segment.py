import random
import unicodedata

import pytest

from indicsum import segment
from indicsum.segment import (
    iter_sentences,
    split_sentences,
    strip_punctuation,
    tokenize_words,
)

from conftest import segment_cases

_MARKS = {"english": ".?!", "gujarati": ".?!", "hindi": ".?!।"}


def reference_split(text, language):
    """Sentences by a character scan: a chunk ends after the last mark
    of a run of terminators; chunks are stripped, blank ones dropped."""
    marks = _MARKS[language]
    chunks, start = [], 0
    for i, ch in enumerate(text):
        if ch in marks and (i + 1 == len(text) or text[i + 1] not in marks):
            chunks.append(text[start:i + 1])
            start = i + 1
    chunks.append(text[start:])
    return tuple(c.strip() for c in chunks if c.strip())


def assert_ordered_substrings(sentences, text):
    """The sentences are stripped pieces of ``text``, in order, with only
    whitespace before, between and after them."""
    pos = 0
    for sentence in sentences:
        assert sentence and sentence == sentence.strip()
        found = text.find(sentence, pos)
        assert found >= 0 and not text[pos:found].strip(), (sentence, text)
        pos = found + len(sentence)
    assert not text[pos:].strip()


class TestSplitSentences:
    def test_full_stop_split(self):
        assert list(split_sentences("A. B. C.", "english")) == ["A.", "B.", "C."]

    def test_empty_text(self):
        for language in ("english", "hindi", "gujarati"):
            assert list(split_sentences("", language)) == []

    def test_whitespace_only(self):
        assert list(split_sentences("   \n\t ", "english")) == []

    def test_hindi_danda(self):
        got = split_sentences("पहला वाक्य। दूसरा वाक्य।", "hindi")
        assert list(got) == ["पहला वाक्य।", "दूसरा वाक्य।"]

    def test_danda_ignored_outside_hindi(self):
        text = "પહેલું વાક્ય। બીજું."
        assert len(split_sentences(text, "gujarati")) == 1
        assert len(split_sentences(text, "hindi")) == 2

    def test_terminator_run_stays_with_sentence(self):
        got = split_sentences("What?! Really. Yes", "english")
        assert list(got) == ["What?!", "Really.", "Yes"]

    def test_trailing_text_without_terminator(self):
        got = split_sentences("First. second half", "english")
        assert list(got) == ["First.", "second half"]

    def test_question_and_exclamation(self):
        got = split_sentences("One? Two! Three.", "english")
        assert len(got) == 3

    def test_unknown_language(self):
        with pytest.raises(ValueError):
            split_sentences("A.", "latin")

    def test_spans_recover_sentences(self):
        text = "  First one.   Second   one!  tail bit"
        got = split_sentences(text, "english")
        assert got == ("First one.", "Second   one!", "tail bit")
        assert_ordered_substrings(got, text)

    def test_spans_strictly_increasing(self):
        text = "A. B? C! D. B?"
        got = split_sentences(text, "english")
        assert got == ("A.", "B?", "C!", "D.", "B?")
        assert_ordered_substrings(got, text)

    def test_sentence_count_bounded_by_delimiters(self):
        rng = random.Random(91)
        alphabet = "ab .?!"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            count = len(split_sentences(text, "english"))
            delimiters = sum(text.count(d) for d in ".?!")
            assert count <= delimiters + 1

    def test_random_spans_always_exact(self):
        rng = random.Random(17)
        words = ["abc", "de", "f", "નમસ્તે", "।", "?"]
        for _ in range(200):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 25)))
            for language in ("english", "hindi"):
                assert_ordered_substrings(split_sentences(text, language), text)


class TestIterSentences:
    @pytest.mark.parametrize("language", ["english", "hindi", "gujarati"])
    def test_matches_split_sentences_and_reference(self, language):
        for text in segment_cases(language):
            got = tuple(iter_sentences(text, language))
            assert got == split_sentences(text, language), text
            assert got == reference_split(text, language), text

    def test_splits_only_as_far_as_read(self, monkeypatch):
        pieces = segment._SENTENCE_PIECES["english"]
        found = []

        class CountingPieces:
            def finditer(self, text):
                for m in pieces.finditer(text):
                    found.append(m.group())
                    yield m

        monkeypatch.setitem(segment._SENTENCE_PIECES, "english", CountingPieces())
        sentences = iter_sentences("First. Second?! Third. Tail", "english")
        assert next(sentences) == "First."
        assert found == ["First."]
        assert list(sentences) == ["Second?!", "Third.", "Tail"]
        assert found == ["First.", " Second?!", " Third.", " Tail"]

    def test_unknown_language(self):
        with pytest.raises(ValueError):
            list(iter_sentences("A.", "latin"))


class TestTokenizeWords:
    def test_basic(self):
        assert tokenize_words("a b  c") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize_words("") == []
        assert tokenize_words("   ") == []

    def test_gujarati(self):
        assert len(tokenize_words("નમસ્તે દુનિયા")) == 2

    def test_no_empty_tokens(self):
        assert all(tokenize_words(" x \t y \n "))


class TestStripPunctuation:
    def test_matches_category_definition(self):
        codes = [
            *range(0x80),
            *range(0x900, 0xB00),            # Devanagari and Gujarati
            0x200C, 0x200D,                  # ZWNJ, ZWJ
            0x1D400, 0x20000, 0x1F600, 0x1F4A9,
        ]
        text = "".join(map(chr, codes))
        expected = [
            chr(c) if unicodedata.category(chr(c))[0] in "LMN" else " "
            for c in codes
        ]
        # the second pass reads the table the first pass filled
        for _ in range(2):
            assert list(strip_punctuation(text)) == expected
