"""Property tests over random English, Hindi and Gujarati texts, and
exhaustive torn-tail checks of the append-only logs.

Texts are runs of words split into lines by newlines only, into
sentences by each language's terminators, or not at all.  Examples are
derandomized, so every run checks the same cases.
"""

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indicsum import jsonlog
from indicsum.backends import GenerationParams, baseline_handle, lead_baseline
from indicsum.crosslingual import (IdentityTranslator, TranslationCache,
                                   pipeline_summarize)
from indicsum.errors import NoAlignment
from indicsum.experiments import RunRecord, load_runs
from indicsum.rouge import rouge_tokens
from indicsum.segment import iter_sentences, split_sentences, tokenize_words

from conftest import _GUJARATI_WORDS, _HINDI_WORDS, _WORDS

_VOCAB = {"english": _WORDS, "hindi": _HINDI_WORDS, "gujarati": _GUJARATI_WORDS}
_TERMINATORS = {"english": [".", "?", "!", "?!", "..."],
                "hindi": [".", "?", "!", "।", "।।"],
                "gujarati": [".", "?", "!", "?!", "..."]}

derandomized = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def texts(draw, language, terminators=None):
    """Runs of words, each ended by a terminator, by a newline only or by
    nothing; any run may be long enough to outlast a summary budget."""
    words = st.sampled_from(_VOCAB[language])
    terminators = terminators or _TERMINATORS[language]
    ends = st.sampled_from([*terminators, "\n", "\n\n", " ", ""])
    runs = draw(st.lists(st.tuples(st.lists(words, min_size=1, max_size=40),
                                   ends), min_size=1, max_size=8))
    return "".join(" ".join(run) + end + draw(st.sampled_from(["", " ", "\n"]))
                   for run, end in runs)


languages = st.sampled_from(sorted(_VOCAB))


def identity_translate_map(article, language, max_tokens):
    return pipeline_summarize(
        article, IdentityTranslator(source_lang=language),
        baseline_handle("english"), GenerationParams(max_tokens=max_tokens),
    )


# Under IdentityTranslator the English side is the source text, split by
# English rules.  A danda ends a Hindi sentence and not an English one,
# so a lead sentence can span several mapping entries, which back_map
# cannot resolve; test_danda_runs_back_map pins that.  Here every
# language ends its sentences on the terminators English shares.
@derandomized
@given(st.data(), languages, st.integers(min_value=1, max_value=120))
def test_translate_map_is_extractive(data, language, max_tokens):
    article = data.draw(texts(language, _TERMINATORS["english"]))
    summary = identity_translate_map(article, language, max_tokens)
    article_sentences = set(split_sentences(article, language))
    for sentence in split_sentences(summary, language):
        assert sentence in article_sentences


@derandomized
@given(st.data(), st.sampled_from(["english", "gujarati"]),
       st.integers(min_value=1, max_value=120))
def test_identity_translate_map_equals_direct(data, language, max_tokens):
    article = data.draw(texts(language))
    sentences = split_sentences(article, language)
    assume(len({tuple(rouge_tokens(s)) for s in sentences}) == len(sentences))
    # The lead takes whole sentences unless the first overruns the budget.
    assume(len(tokenize_words(sentences[0])) <= max_tokens)
    direct = lead_baseline(article, GenerationParams(max_tokens=max_tokens),
                           language)
    assert identity_translate_map(article, language, max_tokens) == direct


@pytest.mark.xfail(raises=NoAlignment, strict=True,
                   reason="a lead sentence spanning several Hindi"
                          " sentences matches no single mapping entry")
def test_danda_runs_back_map():
    article = "समाचार शहर। बारिश सरकार। लोग खेल। बाजार पानी."
    assert identity_translate_map(article, "hindi", 50) == article


@derandomized
@given(st.data(), languages)
def test_segmentation_loses_nothing(data, language):
    text = data.draw(texts(language))
    sentences = list(iter_sentences(text, language))
    assert all(sentence.strip() for sentence in sentences)
    assert re.sub(r"\s", "", "".join(sentences)) == re.sub(r"\s", "", text)


GUJ_SOURCES = ("પહેલું વાક્ય અહીં છે.", "બીજું વાક્ય અહીં છે.",
               "ત્રીજું વાક્ય.", "ચોથું વાક્ય અહીં.")


class CacheLog:
    """A translation cache whose line i translates ``GUJ_SOURCES[i]``."""

    lines = 3

    @staticmethod
    def line(i):
        return json.dumps({"src": GUJ_SOURCES[i], "src_lang": "gujarati",
                           "tgt_lang": "english", "dst": f"e{i}."},
                          ensure_ascii=False)

    @staticmethod
    def load(path):
        cache = TranslationCache(path)
        held = [i for i, src in enumerate(GUJ_SOURCES)
                if cache.get(src, "gujarati", "english") == f"e{i}."]
        assert len(cache) == len(held)
        return held

    @staticmethod
    def append(path, i):
        TranslationCache(path).put([(GUJ_SOURCES[i], f"e{i}.")],
                                   "gujarati", "english")


class RunsLog:
    """A run log whose line i is the run with approach ``a<i>``."""

    lines = 2

    @staticmethod
    def line(i):
        scores = {str(n): {"precision": 0.5, "recall": 0.25, "f1": 0.125}
                  for n in (1, 2, 4)}
        return RunRecord(
            config_hash=f"h{i}", timestamp="2026-01-01T00:00:00+00:00",
            approach=f"a{i}", language="gujarati",
            backend={"kind": "lead-baseline"},
            records=({"id": f"g{i}", "summary": GUJ_SOURCES[i],
                      "scores": scores},),
            aggregate=scores,
        ).to_json()

    @staticmethod
    def load(path):
        return [int(run.approach[1:]) for run in load_runs(path)]

    @classmethod
    def append(cls, path, i):
        jsonlog.append(path, [cls.line(i)], RunRecord.from_json)


@pytest.mark.parametrize("log", [CacheLog, RunsLog], ids=["cache", "runs"])
def test_torn_tail_at_every_offset(log, tmp_path):
    """Cut the log at each byte offset: every line that ends before the
    cut loads, and the next append reads back after them."""
    lines = [log.line(i).encode("utf-8") for i in range(log.lines)]
    data = b"".join(line + b"\n" for line in lines)
    ends, pos = [], 0
    for line in lines:
        ends.append(pos + len(line))
        pos += len(line) + 1
    path = tmp_path / "log.jsonl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        whole = [i for i, end in enumerate(ends) if end <= cut]
        assert log.load(path) == whole, cut
        log.append(path, log.lines)
        assert log.load(path) == whole + [log.lines], cut
