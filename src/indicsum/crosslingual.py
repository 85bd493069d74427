"""Cross-lingual summarization: translate per sentence, keep the
sentence mapping, summarize on the English side, then back-map the
summary onto the original-language sentences.

Back-mapping guarantees extractiveness: every output sentence is a
verbatim sentence of the source article, because summary sentences are
resolved to mapping entries: equal ``rouge_tokens`` first, then a
clipped unigram F1 fallback with a configurable threshold.

The HTTP modules (``http.client``, ``urllib.request``, ``urllib.error``)
load on the first remote translation and ``concurrent.futures`` on the
first remote client's split, so a run with an in-memory translator
never loads them.
"""

import json
import os
import re
import time
from dataclasses import dataclass

from . import jsonlog, segment
from .backends import GenerationParams, summarize
from .corpus import open_utf8
from .errors import (
    ConfigError,
    EmptyInput,
    EmptySummary,
    IndicSumError,
    NoAlignment,
    TranslationFailure,
)
from .rouge import _counts, _overlap, _prf, rouge_tokens

__all__ = [
    "HttpTranslator",
    "IdentityTranslator",
    "SentenceMapping",
    "TableTranslator",
    "TranslationCache",
    "back_map",
    "build_mapping",
    "build_mappings",
    "pipeline_summarize",
]

DEFAULT_THRESHOLD = 0.6
PARALLELISM = 4         # threads translating a split for a remote client
RETRY_ATTEMPTS = 3      # tries per sentence for a remote client,
RETRY_BASE_DELAY = 0.1  # sleeping this * 2**k s after failure k
HTTP_TIMEOUT = 30.0     # seconds per HttpTranslator request
TARGET_LANG = "english"  # the one language every translator translates into


@dataclass(frozen=True)
class SentenceMapping:
    """Ordered pairs (index, source sentence, translated sentence) of an
    article in ``language``."""

    entries: tuple[tuple[int, str, str], ...]
    language: str = "english"

    def __post_init__(self):
        for pos, entry in enumerate(self.entries):
            index, _, translated = entry
            if index != pos:
                raise ValueError(
                    f"mapping indices must be contiguous; entry {pos} has {index}"
                )
            if not translated.strip():
                raise ValueError(f"entry {pos} has an empty translation")

    @property
    def english_article(self) -> str:
        """The translations, joined by single spaces."""
        return " ".join(entry[2] for entry in self.entries)


class IdentityTranslator:
    """Returns the input unchanged; the offline default for tests."""

    local = True  # in memory: build_mappings calls it once, inline

    def __init__(self, source_lang: str = "gujarati"):
        self.source_lang = source_lang

    def translate(self, sentence: str) -> str:
        return sentence


class TableTranslator:
    """Fixed-table translator backed by a two-column UTF-8 TSV."""

    local = True

    def __init__(self, table: dict, source_lang: str = "gujarati"):
        self.table = table
        self.source_lang = source_lang

    @classmethod
    def from_tsv(cls, path, source_lang: str = "gujarati") -> "TableTranslator":
        table = {}
        with open_utf8(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                if "\t" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected two TAB columns")
                src, dst = line.split("\t", 1)
                table[src.strip()] = dst.strip()
        return cls(table, source_lang)

    def translate(self, sentence: str) -> str:
        try:
            return self.table[sentence.strip()]
        except KeyError:
            raise TranslationFailure(
                f"no table entry for sentence: {sentence!r}"
            ) from None


class HttpTranslator:
    """Live translator over a JSON-POST endpoint.

    Credentials come from the ``TRANSLATE_API_KEY`` environment
    variable, sent as a bearer token.  The endpoint is expected to map
    {"text", "source", "target"} to {"translation"}.
    """

    def __init__(self, endpoint: str, source_lang: str = "gujarati"):
        key = os.environ.get("TRANSLATE_API_KEY")
        if not key:
            raise TranslationFailure(
                "TRANSLATE_API_KEY is not set; the live translator needs it"
            )
        self.endpoint = endpoint
        self.source_lang = source_lang
        self._headers = {"Authorization": f"Bearer {key}",
                         "Content-Type": "application/json"}

    def translate(self, sentence: str) -> str:
        import http.client
        import urllib.error
        import urllib.request

        data = json.dumps({"text": sentence, "source": self.source_lang,
                           "target": TARGET_LANG}).encode("utf-8")
        request = urllib.request.Request(self.endpoint, data=data,
                                         headers=self._headers)
        try:
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT) as response:
                body = json.load(response)
        except urllib.error.HTTPError as exc:
            exc.close()  # a 4xx/5xx error still holds the open response
            raise
        except (ValueError, http.client.HTTPException) as exc:
            raise TranslationFailure(f"endpoint sent a bad response: {exc}") from exc
        translation = body.get("translation") if isinstance(body, dict) else None
        if not isinstance(translation, str) or not translation.strip():
            raise TranslationFailure(
                f"endpoint returned no translation: {body!r}"
            )
        return translation


_quote = json.encoder.encode_basestring  # a JSON string, non-ASCII kept

# A whole line in the exact form ``put`` writes, where no field holds a
# character JSON must escape: ``json.loads`` of it gives the four
# captured substrings.  No field holds a newline, so a match found
# anywhere in a block ends at the end of the line it starts in.
_CANONICAL_LINE = re.compile(
    r'\{"src": "([^"\\\x00-\x1f]*)", "src_lang": "([^"\\\x00-\x1f]*)",'
    r' "tgt_lang": "([^"\\\x00-\x1f]*)", "dst": "([^"\\\x00-\x1f]*)"\}\n')


def _parse_cache_line(line: bytes):
    """``(key, translation)`` of one cache line, read by the JSON
    decoder; ``ValueError`` unless all four fields are UTF-8 strings and
    the translation is not blank."""
    try:
        rec = json.loads(line.decode("utf-8"))
        fields = rec["src"], rec["src_lang"], rec["tgt_lang"], rec["dst"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"bad cache record: {exc}") from None
    if not all(isinstance(f, str) for f in fields) or not fields[3].strip():
        raise ValueError("bad cache record: a non-string field or a blank dst")
    try:  # a lone surrogate does not encode; only a JSON escape spells one
        if b"\\" in line:
            "".join(fields).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("bad cache record: a field that is not UTF-8") from None
    return fields[:3], fields[3]


class TranslationCache:
    """Append-only persistent sentence-translation cache.

    One JSON record per line: {"src", "src_lang", "tgt_lang", "dst"},
    where ``tgt_lang`` is always ``TARGET_LANG``.  Constructing a cache
    reads nothing: ``load`` reads the file once per split, a block of
    whole lines at a time, and keeps only that split's translations, so
    memory grows with the split, not with the file's history.  Each
    ``put`` streams its records to the end of the file through
    ``jsonlog.append`` and keeps none of them.
    One process may write a file at a time (``run_experiment`` and
    ``translate-map --cache`` hold ``experiments.directory_lock`` on the
    file's directory), on one thread.  A process killed mid-``put``
    leaves the records it had written whole and at most one torn last
    line, without its newline, handled by the rule in ``jsonlog``:
    skipped on load, cut off by the next ``put``.  A whole line that is
    not a record is a ``ConfigError``, even as the last line.
    """

    def __init__(self, path):
        self.path = path
        self._held = {}  # src -> dst, as the last load kept them

    def __len__(self):
        return len(self._held)

    def load(self, sentences, src_lang: str) -> None:
        """Read the file, keeping only the ``src_lang`` to English
        translations of ``sentences``, in place of what was held.

        ``sentences`` maps each wanted sentence to itself (as
        ``build_mappings``' memo does), so each kept translation is keyed
        by the caller's own string, not by a copy parsed from the file.
        Every whole line is parsed and checked, wanted or not; of two
        lines for one sentence, the later wins.

        The file is read in ``jsonlog`` blocks of whole lines, each
        decoded once.  One regex scan reads a block's run of lines in
        ``put``'s own form whose translation is not blank.  A line that
        breaks the run, and every line of a block that is not UTF-8,
        goes on its own to ``_parse_cache_line`` through
        ``jsonlog.parse_lines`` (which skips a blank line and names a bad
        one), and the scan resumes at the next line."""
        kept = {}
        wanted = sentences.get

        def keep(lineno, data):  # lines off the run, one by one
            for _, ((src, src_l, tgt_l), dst) in jsonlog.parse_lines(
                    self.path, lineno, data, _parse_cache_line):
                own = wanted(src)
                if own is not None and src_l == src_lang and tgt_l == TARGET_LANG:
                    kept[own] = dst

        if os.path.exists(self.path):
            for lineno, block in jsonlog.blocks(self.path):
                try:
                    text = block.decode("utf-8")
                except UnicodeDecodeError:
                    keep(lineno, block)
                    continue
                # text[:pos] is read; line lineno starts at offset counted.
                pos = counted = 0
                while pos < len(text):
                    stop = len(text)
                    for match in _CANONICAL_LINE.finditer(text, pos):
                        src, src_l, tgt_l, dst = match.groups()
                        start, end = match.span()
                        if start != pos or not dst.strip():
                            # The run breaks at pos.  The lines up to the
                            # match are off it, and so is the match's own
                            # line when it begins inside that line or has
                            # a blank dst.
                            stop = (start if start > pos and text[start - 1] == "\n"
                                    else end)
                            break
                        own = wanted(src)
                        if (own is not None and src_l == src_lang
                                and tgt_l == TARGET_LANG):
                            kept[own] = dst
                        pos = end
                    if pos < stop:
                        lineno += text.count("\n", counted, pos)
                        counted = pos
                        keep(lineno, text[pos:stop].encode("utf-8"))
                        pos = stop
        self._held = kept

    def get(self, src: str) -> str | None:
        return self._held.get(src)

    def put(self, pairs, src_lang: str) -> None:
        """Append a line for each ``src_lang`` to English ``(src, dst)``
        pair, in order, holding none of them.

        ``pairs`` may be a lazy iterator; each line is written as its
        pair arrives.  A line is ``json.dumps(record, ensure_ascii=False)``
        byte for byte, built from the encoder's own string quoting."""
        # The field order and separators of json.dumps, with the
        # language fields quoted once per put.
        middle = (f', "src_lang": {_quote(src_lang)},'
                  f' "tgt_lang": {_quote(TARGET_LANG)}, "dst": ')
        jsonlog.append(self.path, (f'{{"src": {_quote(src)}{middle}{_quote(dst)}}}'
                                   for src, dst in pairs))


def _translate_once(client, sentence):
    """``client.translate(sentence)``; ``TranslationFailure`` if blank or not UTF-8."""
    translated = client.translate(sentence)
    if not isinstance(translated, str) or not translated.strip():
        raise TranslationFailure(
            f"client returned an empty translation for {sentence!r}"
        )
    try:
        translated.encode("utf-8")  # a lone surrogate does not encode
    except UnicodeEncodeError:
        raise TranslationFailure(
            f"client returned text that is not UTF-8: {translated!r}") from None
    return translated


def _translate_retrying(client, sentence, sleep):
    """``_translate_once`` with bounded retry and exponential backoff.

    Transport errors (``OSError``, which covers ``URLError``,
    ``ConnectionError`` and ``TimeoutError``), HTTP 5xx and 429 and
    ``TranslationFailure`` are retried.  Any other HTTP status is a
    refusal (a 401 for a wrong key, a 400), which the same request
    would get again, so it fails at once; any other exception is a bug
    and propagates at once.
    """
    import urllib.error  # bound before an except clause can name it

    for attempt in range(RETRY_ATTEMPTS):
        try:
            return _translate_once(client, sentence)
        except urllib.error.HTTPError as exc:
            if exc.code < 500 and exc.code != 429:
                raise TranslationFailure(
                    f"endpoint refused {sentence!r}: {exc}") from exc
            failure = exc
        except (OSError, TranslationFailure) as exc:
            failure = exc
        if attempt + 1 == RETRY_ATTEMPTS:
            raise TranslationFailure(
                f"translation failed after {RETRY_ATTEMPTS} attempts for"
                f" {sentence!r}: {failure}"
            ) from failure
        sleep(RETRY_BASE_DELAY * (2 ** attempt))


def build_mappings(articles, client, *, cache: TranslationCache | None = None,
                   sleep=time.sleep) -> list[SentenceMapping]:
    """Translate each of ``articles`` sentence by sentence, keeping the
    mappings, in one pass over the split.

    The source language (taken from the client) selects sentence
    delimiters; every translation is into ``TARGET_LANG``.  One memo
    holds each distinct sentence of the split, in first-seen order:
    every occurrence in the articles is the memo's one string.  With a
    cache, it is loaded for the memo's sentences, then the memo maps
    each sentence to its translation (None while pending): each is
    looked up in the cache, when given, once, and each miss is
    translated once.  A client that declares ``local = True`` (an
    in-memory translator) is called on this thread, and its error
    propagates; any other client translates on one pool of
    ``PARALLELISM`` threads for the split, with ``_translate_retrying``.
    New translations stream into the memo, their only map, and, with a
    cache, through its one ``put``, in first-seen order, so a failure
    keeps every translation made before it.  A toolkit error about an
    article carries ``article_index``: the position of the first
    article it concerns, which for a failed translation is the first
    article holding the first sentence left untranslated.  A bad cache
    line is a ``ConfigError`` about no article, and carries none.
    """
    language = client.source_lang
    if language not in segment.LANGUAGES:
        raise ValueError(f"unknown source language: {language!r}")
    memo = {}
    split = []
    for index, article in enumerate(articles):
        if not article.strip():
            exc = EmptyInput("cannot translate an empty article")
            exc.article_index = index
            raise exc
        split.append([memo.setdefault(s, s)
                      for s in segment.split_sentences(article, language)])

    if cache is not None:
        cache.load(memo, language)
    for sentence in memo:
        memo[sentence] = None if cache is None else cache.get(sentence)
    pending = [s for s, translated in memo.items() if translated is None]

    def remembered(pairs):  # each pair enters memo, then the file
        for sentence, translated in pairs:
            memo[sentence] = translated
            yield sentence, translated

    def store(translations):
        pairs = zip(pending, translations)
        if cache is None:
            memo.update(pairs)
        else:
            cache.put(remembered(pairs), language)

    try:
        if pending and getattr(client, "local", False):
            store(_translate_once(client, s) for s in pending)
        elif pending:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(min(PARALLELISM, len(pending))) as pool:
                store(pool.map(lambda s: _translate_retrying(client, s, sleep),
                               pending))
    except IndicSumError as exc:
        first = next(s for s in pending if memo[s] is None)
        exc.article_index = next(i for i, sentences in enumerate(split)
                                 if first in sentences)
        raise

    return [SentenceMapping(entries=tuple(
        (i, sentence, memo[sentence]) for i, sentence in enumerate(sentences)
    ), language=language) for sentences in split]


def build_mapping(article: str, client, *, cache: TranslationCache | None = None,
                  sleep=time.sleep) -> SentenceMapping:
    """``build_mappings`` of the one ``article``."""
    return build_mappings([article], client, cache=cache, sleep=sleep)[0]


def back_map(english_summary: str, mapping: SentenceMapping,
             threshold: float = DEFAULT_THRESHOLD) -> str:
    """Restore original-language sentences for an English summary.

    The summary splits into sentences on the terminators of the
    mapping's language, the ones its entries were split on, so a
    sentence that runs over several danda-ended Hindi entries (as under
    ``IdentityTranslator``) splits into them.  Each summary sentence
    resolves to the lowest-index mapping entry whose translation has
    the same ``rouge_tokens`` (so case, spacing and punctuation do not
    matter), else to the entry of maximal clipped unigram F1 over those
    tokens when it reaches ``threshold`` (ties go to the lowest index),
    else to the lowest-index entry whose tokens begin with the
    sentence's, when it has any (a sentence the generator cut short),
    else ``NoAlignment``.  Entries are tokenized once each, in index
    order, only as far as needed.  The F1 search does not score an
    entry whose length alone bounds its F1 below the best found before
    it (F1 <= 2·min(|s|, |e|) / (|s| + |e|) for token counts |s| and
    |e|), so the choice is the same as scoring every entry; an entry's
    unigram tally is built when it is first scored.  Matched source
    sentences come out deduplicated, in article order.
    """
    if not mapping.entries:
        raise EmptyInput("mapping has no entries")
    if not english_summary.strip():
        raise EmptySummary("summary is empty, nothing to back-map")
    summary_sentences = list(segment.split_sentences(english_summary,
                                                     mapping.language))

    entry_tokens = []  # token tuples of entries 0, 1, ... as far as scanned
    exact = {}         # token tuple -> lowest index among scanned entries
    entry_counts = None  # built on the first fuzzy match

    matched = []
    for sentence in summary_sentences:
        tokens = tuple(rouge_tokens(sentence))
        index = exact.get(tokens)
        while index is None and len(entry_tokens) < len(mapping.entries):
            i = len(entry_tokens)
            key = tuple(rouge_tokens(mapping.entries[i][2]))
            entry_tokens.append(key)
            exact.setdefault(key, i)
            if key == tokens:
                index = i
        if index is None:
            if entry_counts is None:
                entry_counts = [None] * len(entry_tokens)
            counts, total = _counts(tokens, 1), len(tokens)
            best_index, best_score = 0, -1.0
            for i, key in enumerate(entry_tokens):
                # F1 is at most 2·min(|s|, |e|) / (|s| + |e|): skip an entry
                # whose bound is below the best so far (-1 before the first
                # score) by a relative margin far above float rounding.
                size = len(key)
                if 2 * min(size, total) < best_score * (1 - 1e-9) * (size + total):
                    continue
                ref = entry_counts[i]
                if ref is None:
                    ref = entry_counts[i] = _counts(key, 1)
                score = _prf(_overlap(counts, ref), total, size)[2]
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
            index = best_index
        matched.append(index)

    ordered = sorted(set(matched))
    return " ".join(mapping.entries[i][1] for i in ordered)


def pipeline_summarize(article: str, client, handle,
                       params: GenerationParams, *,
                       threshold: float = DEFAULT_THRESHOLD,
                       cache: TranslationCache | None = None) -> str:
    """Translate, summarize in English, back-map to the source language.

    The result consists solely of sentences from ``article``.
    """
    mapping = build_mapping(article, client, cache=cache)
    english_summary = summarize(handle, mapping.english_article, params)
    return back_map(english_summary, mapping, threshold)
