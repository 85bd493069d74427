"""Sentence segmentation and word tokenization.

Segmentation is a deliberate plain delimiter split (no abbreviation
handling): English and Gujarati sentences end on ``.``, ``?`` or ``!``;
Hindi additionally ends on the danda ``।``.  One pattern per language
matches a whole sentence piece, and serves both splitters.
"""

import re
import unicodedata

LANGUAGES = ("english", "hindi", "gujarati")

# The sentence terminators of each language.
_TERMINATORS = {"english": ".?!", "gujarati": ".?!", "hindi": ".?!।"}


class _PiecePatterns(dict):
    """Language -> compiled pattern of one sentence piece: text up to
    and including a run of consecutive terminators, or trailing text
    with no terminator.  Entries are compiled on first use."""

    def __missing__(self, language: str):
        if language not in _TERMINATORS:
            raise ValueError(f"unknown language: {language!r}")
        marks = _TERMINATORS[language]
        pattern = self[language] = re.compile(f"[^{marks}]*[{marks}]+|[^{marks}]+")
        return pattern


_SENTENCE_PIECES = _PiecePatterns()


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
    for m in _SENTENCE_PIECES[language].finditer(text):
        chunk = m.group().strip()
        if chunk:
            yield chunk


def split_sentences(text: str, language: str = "english") -> SentenceList:
    """All sentences of ``text``, as :func:`iter_sentences` yields them."""
    pieces = _SENTENCE_PIECES[language].findall(text)
    return SentenceList(filter(None, map(str.strip, pieces)))


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
