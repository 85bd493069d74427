"""Sentence segmentation and word tokenization.

Segmentation is a deliberate plain delimiter split (no abbreviation
handling): English and Gujarati sentences end on ``.``, ``?`` or ``!``;
Hindi additionally ends on the danda ``।``.
"""

import re
import unicodedata
from dataclasses import dataclass

LANGUAGES = ("english", "hindi", "gujarati")

# A run of consecutive sentence terminators, per language.
_TERMINATOR_RUNS = {
    "english": re.compile(r"[.?!]+"),
    "gujarati": re.compile(r"[.?!]+"),
    "hindi": re.compile(r"[.?!।]+"),
}


@dataclass(frozen=True)
class SentenceList:
    """Sentences in document order plus their character spans.

    ``source_spans[i]`` is the ``(start, end)`` offset pair such that
    ``text[start:end] == sentences[i]`` in the original text.
    """

    sentences: tuple[str, ...]
    source_spans: tuple[tuple[int, int], ...]

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __getitem__(self, i):
        return self.sentences[i]


def split_sentences(text: str, language: str = "english") -> SentenceList:
    """Split ``text`` into sentences on the language's terminators.

    A run of consecutive terminators stays with its sentence ("What?!"
    is one sentence), trailing text without a terminator forms a final
    sentence, and blank segments are dropped.
    """
    if language not in _TERMINATOR_RUNS:
        raise ValueError(f"unknown language: {language!r}")
    sentences: list[str] = []
    spans: list[tuple[int, int]] = []

    def push(lo: int, hi: int) -> None:
        chunk = text[lo:hi]
        stripped = chunk.strip()
        if not stripped:
            return
        begin = lo + (len(chunk) - len(chunk.lstrip()))
        sentences.append(stripped)
        spans.append((begin, begin + len(stripped)))

    start = 0
    for m in _TERMINATOR_RUNS[language].finditer(text):
        push(start, m.end())
        start = m.end()
    push(start, len(text))
    return SentenceList(tuple(sentences), tuple(spans))


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
