"""Property tests over random English, Hindi and Gujarati texts.

Texts are runs of words split into lines by newlines only, into
sentences by each language's terminators, or not at all.  Examples are
derandomized, so every run checks the same cases.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicsum.backends import GenerationParams, baseline_handle
from indicsum.crosslingual import IdentityTranslator, pipeline_summarize
from indicsum.errors import NoAlignment
from indicsum.segment import iter_sentences, split_sentences

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
