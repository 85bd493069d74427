"""Property tests over random English, Hindi and Gujarati texts, random
config files and CSV rows, exhaustive torn-tail checks of the
append-only logs, and a check that a failing property test reports its
falsifying example under the repository's pytest settings.

Texts are runs of words split into lines by newlines only, into
sentences by each language's terminators, or not at all.  Examples are
derandomized, so every run checks the same cases.
"""

import json
import math
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import unicodedata
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indicsum import crosslingual, jsonlog
from indicsum.augment import add_noise, augment_split, right_shift
from indicsum.backends import (PRESETS, AdapterBackend, GenerationParams,
                               SummarizerSpec, baseline_handle, lead_baseline)
from indicsum.corpus import (SPLIT_KINDS, ArticleRecord, DatasetSplit,
                             load_csv, load_summaries, save_csv,
                             write_summaries)
from indicsum.crosslingual import (IdentityTranslator, SentenceMapping,
                                   TranslationCache, _parse_cache_line,
                                   back_map, pipeline_summarize)
from indicsum.errors import ConfigError, EmptyArticle, NoAlignment
from indicsum.experiments import (ExperimentConfig, RunRecord, config_hash,
                                  load_runs, parse_config_file)
from indicsum.rouge import (DEFAULT_ORDERS, ngrams, rouge_scores,
                            rouge_tokens, score_counts)
from indicsum.segment import (LANGUAGES, iter_sentences, split_sentences,
                              tokenize_words)

from conftest import _GUJARATI_WORDS, _HINDI_WORDS, _WORDS
from test_segment import reference_split

# The danda ends Hindi sentences only, so Gujarati words may carry it.
_VOCAB = {"english": _WORDS, "hindi": _HINDI_WORDS,
          "gujarati": _GUJARATI_WORDS + [w + "।" for w in _GUJARATI_WORDS[:3]]}
_TERMINATORS = {"english": [".", "?", "!", "?!", "..."],
                "hindi": [".", "?", "!", "।", "।।"],
                "gujarati": [".", "?", "!", "?!", "..."]}

derandomized = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def texts(draw, language):
    """Runs of words, each ended by a terminator, by a newline only or by
    nothing; any run may be long enough to outlast a summary budget."""
    words = st.sampled_from(_VOCAB[language])
    ends = st.sampled_from([*_TERMINATORS[language], "\n", "\n\n", " ", ""])
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


@derandomized
@given(st.data(), languages, st.integers(min_value=1, max_value=120))
def test_translate_map_is_extractive(data, language, max_tokens):
    article = data.draw(texts(language))
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


# Words of all three scripts, every terminator alone and in runs, and
# whitespace that ``str.strip`` removes but a plain space check misses.
_SPLIT_PARTS = st.one_of(
    st.sampled_from([*_WORDS[:4], *_HINDI_WORDS[:4], *_GUJARATI_WORDS[:4]]),
    st.sampled_from([".", "?", "!", "।"]),
    st.text(".?!।", min_size=2, max_size=4),
    st.sampled_from([" ", "\n", "\t", "\x85", "\u3000"]),
)


@derandomized
@given(st.lists(_SPLIT_PARTS, max_size=30), languages)
def test_splitters_agree_with_reference(parts, language):
    text = "".join(parts)
    expected = reference_split(text, language)
    assert split_sentences(text, language) == expected
    assert tuple(iter_sentences(text, language)) == expected


# Words in three scripts, with case, vowel signs, nukta and virama, and
# composed and decomposed forms ("\u0958" decomposes under NFC).
_ROUGE_WORDS = ("the", "The", "CAT", "caf\u00e9", "cafe\u0301", "42", "x2",
                "समाचार", "बारिश", "हिंदी", "\u0958िला", "क\u093cिला",
                "સમાચાર", "વરસાદ", "ભરાયાં")
_ROUGE_SEPARATORS = (" ", "\n", ", ", ". ", "।", "॥ ", "?!", "-", "_", "'",
                     "\"", "(", "…", "\u200c")


@st.composite
def rouge_texts(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(_ROUGE_WORDS),
                                    st.sampled_from(_ROUGE_SEPARATORS)),
                          max_size=25))
    return "".join(word + sep for word, sep in pairs)


def oracle_tokens(text):
    """Letters, marks and digits form words; every other character parts them."""
    text = unicodedata.normalize("NFC", text).lower()
    return "".join(c if unicodedata.category(c)[0] in "LMN" else " "
                   for c in text).split()


def oracle_scores(cand, ref, n):
    """Brute-force clipped n-gram precision, recall and F1."""
    cand = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
    ref = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
    overlap = sum(min(cand.count(g), ref.count(g)) for g in set(cand))
    p = overlap / len(cand) if cand else 0.0
    r = overlap / len(ref) if ref else 0.0
    return p, r, 2 * p * r / (p + r) if p + r else 0.0


@derandomized
@given(rouge_texts(), rouge_texts())
def test_rouge_matches_oracle_and_swaps(candidate, reference):
    got = rouge_scores(candidate, reference)
    swapped = rouge_scores(reference, candidate)
    cand, ref = oracle_tokens(candidate), oracle_tokens(reference)
    for n in DEFAULT_ORDERS:
        score = got[n]
        assert (score.precision, score.recall, score.f1) == pytest.approx(
            oracle_scores(cand, ref, n), abs=1e-12)
        assert (swapped[n].precision, swapped[n].recall, swapped[n].f1) == (
            score.recall, score.precision, score.f1)


# Runs of one word (repeated tokens) and separators alone (no tokens),
# besides the mixed texts above, which may be empty.
kernel_texts = st.one_of(
    rouge_texts(),
    st.builds(lambda word, k: " ".join([word] * k),
              st.sampled_from(_ROUGE_WORDS), st.integers(1, 6)),
    st.lists(st.sampled_from(_ROUGE_SEPARATORS), max_size=6).map("".join),
)


@derandomized
@given(kernel_texts, kernel_texts,
       st.lists(st.integers(1, 5), min_size=1, max_size=5))
def test_rouge_scores_equal_public_composition(candidate, reference, orders):
    """The kernel's scores are the same floats, bit for bit, as
    ``score_counts`` over ``ngrams`` Counters, for every order, also one
    longer than either text."""
    cand, ref = rouge_tokens(candidate), rouge_tokens(reference)
    expected = {n: score_counts(ngrams(cand, n), ngrams(ref, n), n)
                for n in orders}
    got = rouge_scores(candidate, reference, orders)
    assert got == expected
    assert repr(got) == repr(expected)  # -0.0 == 0.0, but it prints apart


def counter_back_map(summary, mapping, threshold):
    """``back_map`` as it was written over ``Counter`` and
    ``score_counts(...).f1``: exact tokens, else the first maximal
    unigram F1 at or above ``threshold``, else the first entry the
    sentence's tokens begin, else ``NoAlignment``."""
    entry_tokens = [tuple(rouge_tokens(t)) for _, _, t in mapping.entries]
    matched = []
    for sentence in split_sentences(summary, mapping.language):
        tokens = tuple(rouge_tokens(sentence))
        if tokens in entry_tokens:
            matched.append(entry_tokens.index(tokens))
            continue
        counts = Counter(tokens)
        best_index, best_score = 0, -1.0
        for i, key in enumerate(entry_tokens):
            score = score_counts(counts, Counter(key)).f1
            if score > best_score:
                best_index, best_score = i, score
        if best_score < threshold:
            best_index = next((i for i, key in enumerate(entry_tokens)
                               if tokens and key[:len(tokens)] == tokens),
                              None)
        if best_index is None:
            raise NoAlignment(
                f"no mapping entry reaches threshold {threshold} for"
                f" summary sentence {sentence!r}"
                f" (best unigram F1 {max(best_score, 0.0):.3f})",
                sentence=sentence,
                best_score=max(best_score, 0.0),
            )
        matched.append(best_index)
    return " ".join(mapping.entries[i][1] for i in sorted(set(matched)))


_MAP_WORDS = ("rain", "Rain", "city", "road", "flood", "river", "school")


@st.composite
def near_miss_mappings(draw):
    """``(summary, mapping, threshold)``: entries from a small vocabulary,
    some a reordering of an earlier one (a tie), and summary sentences
    that copy an entry with one token swapped, dropped or repeated, or
    cut short (the prefix fallback), or are new.  The threshold is often
    exactly one of the scores the search computes."""
    words = st.lists(st.sampled_from(_MAP_WORDS), min_size=1, max_size=6)
    entries = []
    for _ in range(draw(st.integers(1, 5))):
        if entries and draw(st.booleans()):
            entries.append(draw(st.permutations(draw(st.sampled_from(entries)))))
        else:
            entries.append(draw(words))
    mapping = SentenceMapping(tuple((i, f"src{i}.", " ".join(e) + ".")
                                    for i, e in enumerate(entries)))
    sentences = []
    for _ in range(draw(st.integers(1, 4))):
        tokens = list(draw(st.sampled_from(entries)))
        edit = draw(st.sampled_from(["copy", "swap", "drop", "repeat",
                                     "truncate", "new"]))
        at = draw(st.integers(0, len(tokens) - 1))
        if edit == "swap":
            tokens[at] = draw(st.sampled_from(_MAP_WORDS + ("zzz",)))
        elif edit == "drop" and len(tokens) > 1:
            del tokens[at]
        elif edit == "repeat":
            tokens.insert(at, tokens[at])
        elif edit == "truncate":
            tokens = tokens[:at + 1]
        elif edit == "new":
            tokens = draw(words)
        sentences.append(" ".join(tokens) + ".")
    summary = " ".join(sentences)
    scores = [score_counts(Counter(rouge_tokens(s)), Counter(rouge_tokens(e))).f1
              for s in sentences for _, _, e in mapping.entries]
    threshold = draw(st.sampled_from([*scores, 0.0, 0.5, 0.6, 1.0]))
    return summary, mapping, threshold


def assert_back_map_as_counter_search(summary, mapping, threshold):
    """``back_map`` gives what ``counter_back_map`` gives: the same
    string, or ``NoAlignment`` with the same message, sentence and
    best score."""
    try:
        expected = counter_back_map(summary, mapping, threshold)
    except NoAlignment as exc:
        with pytest.raises(NoAlignment) as raised:
            back_map(summary, mapping, threshold)
        assert str(raised.value) == str(exc)
        assert raised.value.best_score == exc.best_score
        assert raised.value.sentence == exc.sentence
    else:
        assert back_map(summary, mapping, threshold) == expected


@derandomized
@given(near_miss_mappings())
def test_back_map_picks_what_counter_search_picked(case):
    assert_back_map_as_counter_search(*case)


def exact_f1(tokens, key):
    """Unigram F1 of two token sequences as an exact fraction."""
    overlap = sum((Counter(tokens) & Counter(key)).values())
    return Fraction(2 * overlap, len(tokens) + len(key))


def length_bound(tokens, key):
    """``2·min(|s|, |e|) / (|s| + |e|)``, the most F1 that ``key``'s
    length allows against ``tokens``."""
    return Fraction(2 * min(len(tokens), len(key)), len(tokens) + len(key))


_BOUND_WORDS = ("rain", "city", "road", "flood", "river", "school")


@st.composite
def length_bound_mappings(draw):
    """``(summary, mapping, threshold)``: up to 12 entries of 1-20 tokens
    and summary sentences that are an entry cut short or with one token
    swapped.  For each sentence, entries are added whose lengths lie
    just inside and just outside the bound set by its F1 against the
    entry it came from, and pairs of entries of different lengths whose
    F1 ties exactly (a prefix of ``e`` tokens and an extension to
    ``s²/e`` tokens both score ``2e/(s + e)``).  Entries are shuffled,
    so the best so far may come before or after them."""
    words = st.lists(st.sampled_from(_BOUND_WORDS), min_size=1, max_size=20)
    entries = draw(st.lists(words, min_size=1, max_size=5))
    sentences = []

    def add(tokens, length):
        if 1 <= length <= 20 and len(entries) < 12 and draw(st.booleans()):
            grow = max(length - len(tokens), 0)
            extra = draw(st.lists(st.sampled_from(_BOUND_WORDS),
                                  min_size=grow, max_size=grow))
            entries.append(tokens[:length] + extra)

    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.sampled_from(entries))
        tokens = list(base)
        at = draw(st.integers(0, len(tokens) - 1))
        if draw(st.booleans()):
            tokens = tokens[:at + 1]
        else:
            tokens[at] = draw(st.sampled_from(_BOUND_WORDS + ("zzz",)))
        sentences.append(tokens)
        s, f1 = len(tokens), exact_f1(tokens, base)
        if f1:
            # The lengths at which 2·min(s, e)/(s + e) equals f1.
            for edge in (f1 * s / (2 - f1), s * (2 - f1) / f1):
                for length in {math.floor(edge), math.ceil(edge)}:
                    add(tokens, length)
        ties = [e for e in range(1, s) if s * s % e == 0 and s * s // e <= 20]
        if ties:
            e = draw(st.sampled_from(ties))
            add(tokens, e)
            add(tokens, s * s // e)
    entries = draw(st.permutations(entries))
    mapping = SentenceMapping(tuple((i, f"src{i}.", " ".join(e) + ".")
                                    for i, e in enumerate(entries)))
    summary = " ".join(" ".join(tokens) + "." for tokens in sentences)
    scores = [score_counts(Counter(tokens), Counter(e)).f1
              for tokens in sentences for e in entries]
    threshold = draw(st.sampled_from([*scores, 0.0, 0.6, 1.0]))
    return summary, mapping, threshold


def bounded_scorings(summary, mapping, threshold):
    """How many entries a search that skips an entry whose length bound
    is below the exact best F1 before it scores, over the summary's
    sentences up to the first that does not align."""
    entry_tokens = [rouge_tokens(t) for _, _, t in mapping.entries]
    scored = 0
    for sentence in split_sentences(summary, mapping.language):
        tokens = rouge_tokens(sentence)
        if tokens in entry_tokens:
            continue
        best = best_score = None
        for key in entry_tokens:
            if best is None or length_bound(tokens, key) >= best:
                scored += 1
                best = max(best or 0, exact_f1(tokens, key))
                best_score = max(best_score or 0.0, score_counts(
                    Counter(tokens), Counter(key)).f1)
        if best_score < threshold and not any(
                key[:len(tokens)] == tokens for key in entry_tokens):
            break
    return scored


@derandomized
@given(length_bound_mappings())
def test_length_bound_never_changes_a_back_map_choice(case):
    """``back_map`` gives what ``counter_back_map``, which scores every
    entry, gives, and scores exactly the entries whose length does not
    rule them out."""
    with mock.patch.object(crosslingual, "_overlap",
                           wraps=crosslingual._overlap) as overlap:
        assert_back_map_as_counter_search(*case)
    assert overlap.call_count == bounded_scorings(*case)


_NAMES = st.text(alphabet="abxyz019/._-", min_size=1, max_size=12)


@st.composite
def config_files(draw):
    """``(raw, kwargs)``: a valid config-file mapping of strings, and the
    ``ExperimentConfig`` keywords that describe the same experiment."""
    preset = draw(st.sampled_from([None, *sorted(PRESETS)]))
    language = (PRESETS[preset].language if preset
                else draw(st.sampled_from(LANGUAGES)))
    raw = {"language": language}
    kwargs = {"language": language}

    def maybe(key, field, values, text=str, required=False):
        if required or draw(st.booleans()):
            value = draw(values)
            raw[key], kwargs[field] = text(value), value

    maybe("eval", "eval_path", _NAMES, required=True)
    maybe("output_dir", "output_dir", _NAMES, required=True)
    maybe("eval_kind", "eval_kind", st.sampled_from(SPLIT_KINDS))
    maybe("train", "train_path", _NAMES)
    if preset:
        maybe("preset", "preset", st.just(preset), required=True)
        maybe("pipeline", "pipeline", st.just(PRESETS[preset].pipeline))
    else:
        maybe("pipeline", "pipeline", st.sampled_from(["direct", "translate-map"]))
    maybe("augment", "augmentations",
          st.lists(st.sampled_from(["right-shift", "noise", "noise:0.25"]),
                   min_size=1, max_size=3).map(tuple), text=" , ".join)
    if draw(st.booleans()):
        word, value = draw(st.sampled_from(
            [("yes", True), ("No", False), ("1", True), ("FALSE", False)]))
        raw["augment_append"], kwargs["augment_append"] = word, value
    maybe("translator", "translator", st.sampled_from(
        ["identity", "table:gu-en.tsv", "live:http://127.0.0.1:9/t"]))
    maybe("threshold", "threshold", st.floats(min_value=0.0, max_value=1.0))
    maybe("max_tokens", "max_tokens", st.integers(1, 400))
    maybe("seed", "seed", st.integers(0, 2 ** 31))
    maybe("adapter", "adapter", st.just("python3 adapter.py --fast"))
    maybe("socket", "socket", st.just("127.0.0.1:9000"))
    if not preset and draw(st.booleans()):
        spec = draw(st.builds(
            SummarizerSpec, model_id=_NAMES, epochs=st.integers(1, 9),
            weight_decay=st.floats(0.0, 1.0),
            learning_rate=st.floats(1e-6, 1.0),
            batch_size=st.integers(1, 64), max_input_tokens=st.integers(1, 4096)))
        for name, value in vars(spec).items():
            raw[name] = str(value)
        kwargs["spec"] = spec
    return raw, kwargs


@derandomized
@given(config_files(), st.data())
def test_config_hash_survives_the_file(config, data):
    raw, kwargs = config
    expected = config_hash(ExperimentConfig(**kwargs))
    assert config_hash(ExperimentConfig.from_mapping(raw)) == expected

    pad = st.sampled_from(["", " ", "\t", "  "])
    lines = []
    for key in data.draw(st.permutations(sorted(raw))):
        lines.append(data.draw(st.sampled_from(["", "  ", "# a = b"])))
        lines.append(f"{data.draw(pad)}{key}{data.draw(pad)}={data.draw(pad)}"
                     f"{raw[key]}{data.draw(pad)}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        parsed = parse_config_file(path)
    assert parsed == raw
    assert config_hash(ExperimentConfig.from_mapping(parsed)) == expected


# Any UTF-8 text, with extra weight on what JSON must escape or pass
# through: quotes, backslashes, control characters, Indic marks, non-BMP
# characters.
cache_texts = st.text(st.one_of(
    st.characters(codec="utf-8"),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028",
                     "\u0abe", "\u0acd", "\u093c", "\u0964", "\U0001d11e",
                     "\U0001f600"]),
))


@derandomized
@given(cache_texts, cache_texts.filter(str.strip), cache_texts)
def test_cache_line_is_json_dumps(src, dst, src_lang):
    """The line ``put`` writes is ``json.dumps`` of the record and loads
    back to the same key and translation."""
    record = {"src": src, "src_lang": src_lang, "tgt_lang": "english",
              "dst": dst}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        TranslationCache(path).put([(src, dst)], src_lang)
        with open(path, "rb") as fh:
            data = fh.read()
    line = json.dumps(record, ensure_ascii=False).encode("utf-8")
    assert data == line + b"\n"
    assert _parse_cache_line(data) == ((src, src_lang, "english"), dst)


def json_parse_cache_line(line):
    """The cache-line rule by the JSON decoder alone: the reference that
    ``_parse_cache_line``'s regex path for ``put``'s own lines must match."""
    try:
        rec = json.loads(line.decode("utf-8"))
        fields = rec["src"], rec["src_lang"], rec["tgt_lang"], rec["dst"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"bad cache record: {exc}") from None
    if not all(isinstance(f, str) for f in fields) or not fields[3].strip():
        raise ValueError("bad cache record: a non-string field or a blank dst")
    try:
        if b"\\" in line:
            "".join(fields).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("bad cache record: a field that is not UTF-8") from None
    return fields[:3], fields[3]


# Fields that ``put`` writes unescaped, blank ones and any UTF-8 text.
cache_fields = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters='"\\' + "".join(
        map(chr, range(0x20))))),
    st.sampled_from(["", " ", "\u3000"]),
    cache_texts,
)


@st.composite
def cache_lines(draw):
    """A line as ``put`` writes it, or a variant only the JSON decoder
    reads: ASCII escapes, other key orders, an extra or repeated key,
    extra spaces, CRLF, fields left unescaped, data after the record, a
    cut-off line or a byte that is not UTF-8."""
    record = {"src": draw(cache_fields), "src_lang": draw(cache_fields),
              "tgt_lang": draw(st.just("english") | cache_fields),
              "dst": draw(cache_fields)}
    canonical = json.dumps(record, ensure_ascii=False)
    other = json.dumps(draw(cache_texts), ensure_ascii=False)
    key = draw(st.sampled_from(sorted(record)))
    line = draw(st.sampled_from([
        canonical,
        json.dumps(record),
        json.dumps(dict(reversed(record.items())), ensure_ascii=False),
        json.dumps({**record, "extra": 1}, ensure_ascii=False),
        canonical[:-1] + f', "{key}": {other}}}',
        json.dumps(record, ensure_ascii=False, separators=(",  ", ": ")),
        " " + canonical,
        canonical + "\r",
        '{"src": "%s", "src_lang": "%s", "tgt_lang": "%s", "dst": "%s"}'
        % tuple(record.values()),
        canonical + other,
        canonical[:draw(st.integers(0, len(canonical)))],
    ])).encode("utf-8") + b"\n"
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(line) - 1))
        line = line[:at] + b"\xff" + line[at:]
    return line


@derandomized
@given(cache_lines())
def test_cache_line_parse_matches_json_rule(line):
    """Every line loads to what the JSON decoder reads from it, or both
    reject it with the same message."""
    try:
        expected = json_parse_cache_line(line)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _parse_cache_line(line)
        assert str(got.value) == str(exc)
    else:
        assert _parse_cache_line(line) == expected


# Sentences a cache file may hold, in one, two, three and four bytes a
# character; few, so that later lines often replace earlier ones.
_CACHE_SRCS = ["", "a b.", "વાક્ય ૧.", "ક\u0acd\u0ab7", "😀 x", "x" * 70]


@st.composite
def cache_files(draw):
    """``(file bytes, wanted)``: lines in ``put``'s own form, ASCII-escaped,
    reordered, CRLF-ended, space-led (a canonical match inside a line),
    for another source language and whitespace-only; at most one bad
    line among them (a blank ``dst``, not JSON, text before a canonical
    line, a byte that is not UTF-8, a non-ASCII space); maybe a torn
    tail.  ``wanted`` maps some of the sentences to themselves."""
    def record():
        return {"src": draw(st.sampled_from(_CACHE_SRCS)),
                "src_lang": draw(st.sampled_from(["gujarati", "gujarati",
                                                  "hindi"])),
                "tgt_lang": "english",
                "dst": draw(st.sampled_from(["e.", "ઈ ૨", "😀", " x "]))}

    def canonical(rec):
        return json.dumps(rec, ensure_ascii=False)

    good = {
        "canonical": lambda: canonical(record()),
        "escaped": lambda: json.dumps(record()),
        "reordered": lambda: json.dumps(dict(reversed(record().items())),
                                        ensure_ascii=False),
        "crlf": lambda: canonical(record()) + "\r",
        "space-led": lambda: " " + canonical(record()),
        "whitespace": lambda: draw(st.sampled_from(["", " ", "\t\r",
                                                    "\x0b\x0c"])),
    }
    bad = {
        "blank dst": lambda: canonical(record() | {"dst": draw(
            st.sampled_from(["", " "]))}),
        "not JSON": lambda: "{not json",
        "text before": lambda: "x" + canonical(record()),
        "non-ASCII space": lambda: "\u3000",
    }
    kinds = draw(st.lists(st.sampled_from(
        ["canonical"] * 4 + sorted(good)), max_size=14))
    lines = [good[kind]().encode("utf-8") + b"\n" for kind in kinds]
    if draw(st.booleans()):
        kind = draw(st.sampled_from([*sorted(bad), "not UTF-8"]))
        if kind == "not UTF-8":
            line = canonical(record()).encode("utf-8")
            at = draw(st.integers(0, len(line)))
            line = line[:at] + b"\xff" + line[at:]
        else:
            line = bad[kind]().encode("utf-8")
        lines.insert(draw(st.integers(0, len(lines))), line + b"\n")
    tail = canonical(record()).encode("utf-8")
    tail = tail[:draw(st.integers(0, len(tail)))]  # a torn tail, maybe none
    wanted = {s: s for s in draw(st.sets(st.sampled_from(_CACHE_SRCS)))}
    return b"".join(lines) + tail, wanted


def per_line_cache_load(path, data, wanted):
    """The cache-file rule one line at a time: the bytes after the last
    newline are dropped, whitespace-only lines skipped, every other line
    read by ``json_parse_cache_line``, the later of two lines for one
    wanted Gujarati sentence kept under the caller's string.  The kept
    dict, or the first bad line's ``path:line: message``."""
    *whole, _torn = data.split(b"\n")
    kept = {}
    for lineno, line in enumerate(whole, start=1):
        line += b"\n"
        if line.isspace():
            continue
        try:
            (src, src_lang, tgt_lang), dst = json_parse_cache_line(line)
        except ValueError as exc:
            return f"{path}:{lineno}: {exc}"
        if src in wanted and src_lang == "gujarati" and tgt_lang == "english":
            kept[wanted[src]] = dst
    return kept


@derandomized
@given(cache_files(), st.sampled_from([1, 7, 64, jsonlog.BLOCK_BYTES]))
def test_cache_load_matches_per_line_rule(case, block_bytes):
    """``TranslationCache.load``, reading blocks of whole lines by one
    regex scan, keeps what the per-line rule keeps, or fails with its
    message, whatever the block size: with blocks of 1, 7 or 64 bytes a
    read ends inside lines and inside multibyte characters."""
    data, wanted = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        expected = per_line_cache_load(path, data, wanted)
        cache = TranslationCache(path)
        with mock.patch.object(jsonlog, "BLOCK_BYTES", block_bytes):
            try:
                cache.load(wanted, "gujarati")
            except ConfigError as exc:
                got = str(exc)
            else:
                got = cache._held
                assert all(key is wanted[key] for key in got)
    assert got == expected


@st.composite
def log_files(draw):
    """Whole lines (``b"ok N"``, ``b"bad N"`` or whitespace-only), maybe
    followed by a torn tail, as the bytes of a log file."""
    lines = draw(st.lists(st.sampled_from(
        [b"ok", b"ok \xe0\xaa\x95", b"bad", b"", b" \t", b"\r"]), max_size=8))
    tail = draw(st.sampled_from([b"", b"ok torn", b"\xe0\xaa"]))
    return b"".join(line + b" %d\n" % i if line.strip() else line + b"\n"
                    for i, line in enumerate(lines)) + tail


def parse_ok(line):
    if line.startswith(b"bad"):
        raise ValueError("bad line")
    return line


@derandomized
@given(log_files(), st.sampled_from([1, 7, 64, jsonlog.BLOCK_BYTES]))
def test_last_reads_the_last_whole_line(data, block_bytes):
    """``jsonlog.last`` gives what ``jsonlog.read`` gives last, and
    rejects the last line as ``read`` would, at any block size."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        *whole, _torn = data.split(b"\n")
        lines = [(n, line + b"\n") for n, line in enumerate(whole, start=1)
                 if not (line + b"\n").isspace()]
        with mock.patch.object(jsonlog, "BLOCK_BYTES", block_bytes):
            if lines and lines[-1][1].startswith(b"bad"):
                with pytest.raises(ConfigError) as got:
                    jsonlog.last(path, parse_ok)
                assert str(got.value) == f"{path}:{lines[-1][0]}: bad line"
            else:
                assert jsonlog.last(path, parse_ok) == (lines[-1] if lines else None)
            assert list(jsonlog.read(path, bytes)) == lines


@contextmanager
def recording_adapter():
    """Yield ``(address, lines)`` of an adapter that a thread serves on a
    local socket: it appends each raw request line to ``lines`` and
    answers it with a checkpoint and a summary."""
    lines = []
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(10)

        def serve():
            conn, _ = server.accept()
            with conn, conn.makefile("rb") as requests:
                for line in requests:
                    lines.append(line)
                    reply = {"id": json.loads(line)["id"],
                             "result": {"checkpoint": "c", "summary": "s"}}
                    conn.sendall(json.dumps(reply).encode() + b"\n")

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            yield server.getsockname(), lines
        finally:
            thread.join(10)
            assert not thread.is_alive()


specs = st.builds(SummarizerSpec, model_id=cache_texts.filter(bool),
                  epochs=st.integers(1, 50), weight_decay=st.floats(0, 1),
                  learning_rate=st.floats(1e-6, 1), batch_size=st.integers(1, 64),
                  max_input_tokens=st.integers(1, 4096))


@derandomized
@given(st.lists(st.tuples(cache_texts, cache_texts | texts("hindi"),
                          st.none() | cache_texts), max_size=4),
       st.booleans(), st.none() | st.floats(0, 0.9), st.booleans(),
       specs, cache_texts, st.none() | cache_texts, st.integers(1, 500),
       st.integers(0, 2 ** 31))
def test_adapter_requests_are_json_dumps(rows, shift, noise_rate, append, spec,
                                         article, checkpoint, max_tokens, seed):
    """The lines ``train`` streams and ``generate`` writes to an adapter
    are ``json.dumps`` of each whole request, also when ``train`` sends
    an augmented split, whose copies are made as they are read: every
    pass over its records makes the same ones, as many as its ``len()``."""
    split = DatasetSplit("train", "hindi", tuple(
        ArticleRecord(rec_id, text, summary=summary) for rec_id, text, summary in rows))
    sent = augment_split(split, shift=shift, noise_rate=noise_rate, seed=seed,
                         append=append)
    expected = list(split.records) if append else []
    blank = False
    for pos, rec in enumerate(split.records):
        if shift:
            expected.append(right_shift(rec, "hindi"))
        if noise_rate is not None:
            expected.append(add_noise(rec, noise_rate, seed + pos))
            blank = blank or not expected[-1].article.strip()
    assert len(sent) == len(expected)
    if blank:
        with pytest.raises(EmptyArticle, match="^noise copy "):
            list(sent.records)
        sent, expected = split, list(split.records)
    params = GenerationParams(max_tokens=max_tokens, seed=seed)
    with recording_adapter() as (address, lines):
        with closing(AdapterBackend(address=address)) as backend:
            backend.train(sent, spec)
            backend.generate(article, params, checkpoint)
    assert list(sent.records) == expected
    train = {"records": [{"id": r.id, "article": r.article, "summary": r.summary or ""}
                         for r in expected],
             "spec": asdict(spec)}
    generate = {"article": article, "checkpoint": checkpoint,
                "max_tokens": max_tokens, "seed": seed}
    assert lines == [
        json.dumps({"op": op, "payload": payload, "id": n},
                   ensure_ascii=False).encode("utf-8") + b"\n"
        for n, (op, payload) in enumerate([("train", train),
                                           ("generate", generate)], start=1)
    ]


# Cells with what CSV must quote (commas, quotes, CR and LF) and Indic
# marks; surrogates cannot be written as UTF-8, and NUL is left out.
csv_texts = st.text(st.one_of(
    st.characters(codec="utf-8", exclude_characters="\x00"),
    st.sampled_from([",", '"', "\r", "\n", " ", "\u0abe", "\u0acd", "\u093c",
                     "\u0964"]),
))
csv_ids = csv_texts.map(str.strip).filter(bool)


@derandomized
@given(st.lists(st.tuples(csv_ids, csv_texts), unique_by=lambda row: row[0],
                max_size=6))
def test_summaries_csv_round_trips(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "summaries.csv")
        write_summaries(path, rows)
        assert list(load_summaries(path).items()) == rows


@derandomized
@given(st.sampled_from(SPLIT_KINDS), languages, st.data())
def test_split_csv_round_trips(kind, language, data):
    """A split with stripped ids, articles that are not blank and, on a
    train split, summaries that are not blank loads back as it was saved."""
    summaries = csv_texts.filter(str.strip) if kind == "train" else st.none()
    rows = data.draw(st.lists(
        st.tuples(csv_ids, csv_texts.filter(str.strip), csv_texts, csv_texts,
                  summaries),
        unique_by=lambda row: row[0], max_size=6))
    split = DatasetSplit(kind, language, tuple(ArticleRecord(*row) for row in rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "split.csv")
        save_csv(split, path)
        assert load_csv(path, kind, language) == split


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
        cache.load({src: src for src in GUJ_SOURCES}, "gujarati")
        held = [i for i, src in enumerate(GUJ_SOURCES)
                if cache.get(src) == f"e{i}."]
        assert len(cache._held) == len(held)
        return held

    @staticmethod
    def append(path, i):
        TranslationCache(path).put([(GUJ_SOURCES[i], f"e{i}.")], "gujarati")


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
        jsonlog.append(path, [cls.line(i)])


@pytest.mark.parametrize("log", [CacheLog, RunsLog], ids=["cache", "runs"])
def test_torn_tail_at_every_offset(log, tmp_path):
    """Cut the log at each byte offset: a line loads iff its newline lies
    before the cut, and the next append keeps every byte up to the cut's
    last newline and reads back after those lines."""
    lines = [log.line(i).encode("utf-8") for i in range(log.lines)]
    data = b"".join(line + b"\n" for line in lines)
    ends, pos = [], 0
    for line in lines:
        ends.append(pos + len(line))
        pos += len(line) + 1
    path = tmp_path / "log.jsonl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        whole = [i for i, end in enumerate(ends) if end < cut]
        assert log.load(path) == whole, cut
        log.append(path, log.lines)
        kept = data.rfind(b"\n", 0, cut) + 1
        appended = log.line(log.lines).encode("utf-8") + b"\n"
        assert path.read_bytes() == data[:kept] + appended, cut
        assert log.load(path) == whole + [log.lines], cut


def test_failing_property_reports_its_example(tmp_path):
    """Under the repository's pytest settings, a failing property test
    reports its falsifying example, not an internal error."""
    test = tmp_path / "test_fails.py"
    test.write_text("from hypothesis import given, settings, strategies as st\n"
                    "@settings(database=None, derandomize=True)\n"
                    "@given(st.integers())\n"
                    "def test_small(n):\n"
                    "    assert n < 10\n", encoding="utf-8")
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
