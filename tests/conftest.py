import csv
import random
import sys
from pathlib import Path

import pytest

from indicsum.corpus import ArticleRecord

STUB_PATH = Path(__file__).resolve().parent / "adapter_stub.py"
DATA_DIR = Path(__file__).resolve().parent / "data"

_WORDS = (
    "storm market river council school cricket farmers rain harvest road "
    "city night morning report week water price election festival train "
    "bridge doctor village coast winter summer office police museum court"
).split()

_GUJARATI_WORDS = (
    "સમાચાર શહેર વરસાદ સરકાર લોકો રમત બજાર પાણી શાળા રસ્તો "
    "ગામ નેતા વેપાર ખેડૂત મેળો આજે કાલે મોટું નવું જૂનું"
).split()


_HINDI_WORDS = "समाचार शहर बारिश सरकार लोग खेल बाजार पानी स्कूल सड़क".split()

# Terminator runs, blank segments and unterminated tails, per language.
_EDGE_TEXTS = {
    "english": [
        "What?! Really. Yes",
        ". . Storm hit the coast. . .",
        "One long opening sentence with many words in it. Short one. Tail",
        "  no terminator at all  ",
        "?!",
    ],
    "hindi": [
        "पहला वाक्य।। दूसरा वाक्य यहाँ?! तीसरा",
        "। । समाचार आज। ।",
        "बहुत लंबा पहला वाक्य जिसमें कई शब्द हैं। छोटा। अंत",
    ],
    "gujarati": [
        "પહેલું વાક્ય।। બીજું વાક્ય?! ત્રીજું",
        ". . સમાચાર આજે. .",
        "ખૂબ લાંબું પહેલું વાક્ય જેમાં ઘણા શબ્દો છે. ટૂંકું. અંત",
    ],
}


def segment_cases(language, n=60, seed=7):
    """Edge-case texts plus ``n`` seeded random ones in ``language``:
    mixed terminator runs, blank segments, stray whitespace and
    trailing text without a terminator."""
    words = {"english": _WORDS, "hindi": _HINDI_WORDS,
             "gujarati": _GUJARATI_WORDS}[language]
    marks = [".", "?", "!", "?!", "..", "।", "।।", ". ."]
    rng = random.Random(seed)
    texts = list(_EDGE_TEXTS[language])
    for _ in range(n):
        parts = []
        for _ in range(rng.randint(0, 6)):
            parts.append(" ".join(rng.choices(words, k=rng.randint(0, 9))))
            parts.append(rng.choice(marks) + rng.choice(["", " ", "  \n"]))
        if rng.random() < 0.5:
            parts.append(" ".join(rng.choices(words, k=rng.randint(1, 5))))
        texts.append("".join(parts))
    return texts


def _english_sentence(rng, tag=None):
    words = rng.sample(_WORDS, k=rng.randint(4, 7))
    if tag is not None:
        words.append(tag)
    return " ".join(words).capitalize() + "."


@pytest.fixture(scope="session")
def stub_argv():
    """Command-line builder for the out-of-process adapter stub."""

    def build(*flags):
        return [sys.executable, str(STUB_PATH), *flags]

    return build


@pytest.fixture(scope="session")
def fixture_50(tmp_path_factory):
    """A deterministic 50-row English train CSV."""
    rng = random.Random(2024)
    path = tmp_path_factory.mktemp("fixture") / "train50.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "Link", "Heading", "Article", "Summary"])
        for i in range(50):
            sentences = [
                _english_sentence(rng, f"t{i}x{j}")
                for j in range(rng.randint(3, 6))
            ]
            writer.writerow(
                [
                    f"rec-{i:03d}",
                    f"https://news.example/{i}",
                    _english_sentence(rng),
                    " ".join(sentences),
                    sentences[rng.randrange(len(sentences))],
                ]
            )
    return path


@pytest.fixture(scope="session")
def gujarati_records():
    """100 synthetic Gujarati records; summary = first article sentence."""
    rng = random.Random(404)
    records = []
    for i in range(100):
        sentences = []
        for _ in range(rng.randint(3, 5)):
            words = rng.sample(_GUJARATI_WORDS, k=rng.randint(4, 7))
            sentences.append(" ".join(words) + ".")
        records.append(
            ArticleRecord(
                id=f"guj-{i:03d}",
                article=" ".join(sentences),
                summary=sentences[0],
            )
        )
    return records


@pytest.fixture
def write_csv(tmp_path):
    """Write rows under a header to a temp CSV and return its path."""
    counter = {"n": 0}

    def _write(rows, header=("id", "Link", "Heading", "Article", "Summary"),
               name=None):
        if name is None:
            counter["n"] += 1
            name = f"data{counter['n']}.csv"
        path = tmp_path / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    return _write
