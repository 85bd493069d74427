"""Sentence segmentation and word tokenization.

Segmentation is a deliberate plain delimiter split (no abbreviation
handling): English and Gujarati sentences end on ``.``, ``?`` or ``!``;
Hindi additionally ends on the danda ``।``.
"""

import re
import unicodedata

LANGUAGES = ("english", "hindi", "gujarati")

# A run of consecutive sentence terminators, per language.
_TERMINATOR_RUNS = {
    "english": re.compile(r"[.?!]+"),
    "gujarati": re.compile(r"[.?!]+"),
    "hindi": re.compile(r"[.?!।]+"),
}


class SentenceList(tuple):
    """Sentences in document order: a tuple of strings.  ``sentences``
    returns the tuple itself, for callers, such as the acceptance
    tests, that read it by that name."""

    @property
    def sentences(self) -> tuple[str, ...]:
        return self


def iter_sentences(text: str, language: str = "english"):
    """Yield the sentences of ``text`` on the language's terminators,
    splitting only as far as the caller reads.

    A run of consecutive terminators stays with its sentence ("What?!"
    is one sentence), trailing text without a terminator forms a final
    sentence, and blank segments are dropped.
    """
    if language not in _TERMINATOR_RUNS:
        raise ValueError(f"unknown language: {language!r}")
    start = 0
    for m in _TERMINATOR_RUNS[language].finditer(text):
        chunk = text[start:m.end()].strip()
        start = m.end()
        if chunk:
            yield chunk
    chunk = text[start:].strip()
    if chunk:
        yield chunk


def split_sentences(text: str, language: str = "english") -> SentenceList:
    """All sentences of ``text``, as :func:`iter_sentences` yields them."""
    return SentenceList(iter_sentences(text, language))


def tokenize_words(text: str) -> list[str]:
    """Split on Unicode whitespace; never yields empty tokens."""
    return text.split()


# Word characters are letters, combining marks and digits.  Combining
# marks matter: Indic vowel signs, nukta and virama are category Mn/Mc
# and must survive punctuation stripping or Hindi/Gujarati words get
# mangled.
class _WordCharTable(dict):
    """``str.translate`` table: a word character maps to itself, any
    other code point to a space.  Entries are filled on first use."""

    def __missing__(self, code: int):
        value = code if unicodedata.category(chr(code))[0] in "LMN" else " "
        self[code] = value
        return value


_TABLE = _WordCharTable()


def strip_punctuation(text: str) -> str:
    """Replace every non-word character (see above) with a space."""
    return text.translate(_TABLE)
