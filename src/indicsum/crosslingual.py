"""Cross-lingual summarization: translate per sentence, keep the
sentence mapping, summarize on the English side, then back-map the
summary onto the original-language sentences.

Back-mapping guarantees extractiveness: every output sentence is a
verbatim sentence of the source article, because summary sentences are
resolved to mapping entries (exact match first, then a clipped unigram
F1 fallback with a configurable threshold).
"""

import http.client
import json
import os
import threading
import time
import unicodedata
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import segment
from .backends import GenerationParams, summarize
from .errors import (
    ConfigError,
    EmptyInput,
    EmptySummary,
    NoAlignment,
    TranslationFailure,
)
from .rouge import rouge_tokens

__all__ = [
    "HttpTranslator",
    "IdentityTranslator",
    "SentenceMapping",
    "TableTranslator",
    "TranslationCache",
    "back_map",
    "build_mapping",
    "pipeline_summarize",
]

DEFAULT_THRESHOLD = 0.6


@dataclass(frozen=True)
class SentenceMapping:
    """Ordered pairs (index, source sentence, translated sentence)."""

    entries: tuple[tuple[int, str, str], ...]

    def __post_init__(self):
        for pos, entry in enumerate(self.entries):
            index, _, translated = entry
            if index != pos:
                raise ValueError(
                    f"mapping indices must be contiguous; entry {pos} has {index}"
                )
            if not translated.strip():
                raise ValueError(f"entry {pos} has an empty translation")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class IdentityTranslator:
    """Returns the input unchanged; the offline default for tests."""

    local = True  # in memory: build_mapping calls it inline, on one thread

    def __init__(self, source_lang: str = "gujarati",
                 target_lang: str = "english"):
        self.source_lang = source_lang
        self.target_lang = target_lang

    def translate(self, sentence: str, source_lang: str,
                  target_lang: str) -> str:
        return sentence


class TableTranslator:
    """Fixed-table translator backed by a two-column UTF-8 TSV."""

    local = True

    def __init__(self, table: dict, source_lang: str = "gujarati",
                 target_lang: str = "english"):
        self.table = dict(table)
        self.source_lang = source_lang
        self.target_lang = target_lang

    @classmethod
    def from_tsv(cls, path, source_lang: str = "gujarati",
                 target_lang: str = "english") -> "TableTranslator":
        table = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                if "\t" not in line:
                    raise ValueError(f"{path}:{lineno}: expected two TAB columns")
                src, dst = line.split("\t", 1)
                table[src.strip()] = dst.strip()
        return cls(table, source_lang, target_lang)

    def translate(self, sentence: str, source_lang: str,
                  target_lang: str) -> str:
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

    def __init__(self, endpoint: str, source_lang: str = "gujarati",
                 target_lang: str = "english", timeout: float = 30.0):
        key = os.environ.get("TRANSLATE_API_KEY")
        if not key:
            raise TranslationFailure(
                "TRANSLATE_API_KEY is not set; the live translator needs it"
            )
        self.endpoint = endpoint
        self.source_lang = source_lang
        self.target_lang = target_lang
        self.timeout = timeout
        self._headers = {"Authorization": f"Bearer {key}",
                         "Content-Type": "application/json"}

    def translate(self, sentence: str, source_lang: str,
                  target_lang: str) -> str:
        data = json.dumps({"text": sentence, "source": source_lang,
                           "target": target_lang}).encode("utf-8")
        request = urllib.request.Request(self.endpoint, data=data,
                                         headers=self._headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
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


class TranslationCache:
    """Append-only persistent sentence-translation cache.

    One JSON record per line: {"src", "src_lang", "tgt_lang", "dst"}.
    Existing entries are loaded eagerly.  Each ``put`` appends its batch
    of new records with one write.  One process may write a file at a
    time (``run_experiment`` and ``translate-map --cache`` hold
    ``experiments.directory_lock`` on the file's directory).  A
    process killed mid-write leaves a torn last line: loading skips it,
    and the next ``put`` cuts it off before appending.  An unreadable
    line anywhere else is a ``ConfigError``.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._map = {}
        self._torn_at = None    # byte offset of a torn last line
        self._newline_first = False
        if not os.path.exists(path):
            return
        bad = None  # (line number, byte offset) of an unreadable line
        with open(path, "rb") as fh:
            offset = 0
            line = b"\n"  # an empty file needs no leading newline
            for lineno, line in enumerate(fh, start=1):
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                if bad is not None:
                    raise ConfigError(f"{path}:{bad[0]}: bad cache record")
                try:
                    rec = json.loads(line.decode("utf-8"))
                    self._map[rec["src"], rec["src_lang"], rec["tgt_lang"]] = rec["dst"]
                except (ValueError, KeyError, TypeError):
                    bad = (lineno, start)
        if bad is not None:
            self._torn_at = bad[1]
        elif not line.endswith(b"\n"):
            self._newline_first = True

    def __len__(self):
        return len(self._map)

    def get(self, src: str, src_lang: str, tgt_lang: str) -> str | None:
        with self._lock:
            return self._map.get((src, src_lang, tgt_lang))

    def put(self, pairs, src_lang: str, tgt_lang: str) -> None:
        """Record ``(src, dst)`` pairs, appending the new ones in order."""
        with self._lock:
            lines = []
            for src, dst in pairs:
                key = (src, src_lang, tgt_lang)
                if key in self._map:
                    continue
                self._map[key] = dst
                record = {"src": src, "src_lang": src_lang,
                          "tgt_lang": tgt_lang, "dst": dst}
                lines.append(json.dumps(record, ensure_ascii=False) + "\n")
            if not lines:
                return
            if self._newline_first:
                lines.insert(0, "\n")
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._torn_at is not None:
                    fh.truncate(self._torn_at)
                fh.write("".join(lines))
            self._torn_at = None
            self._newline_first = False


def _translate_once(client, sentence, retry_attempts, retry_base_delay, sleep):
    """Call the client with bounded retry and exponential backoff.

    Only transport errors (``OSError``, which covers ``URLError``,
    ``ConnectionError`` and ``TimeoutError``) and ``TranslationFailure``
    are retried; any other exception is a bug and propagates at once.
    """
    src, tgt = client.source_lang, client.target_lang
    last_exc = None
    for attempt in range(retry_attempts):
        try:
            translated = client.translate(sentence, src, tgt)
            if not isinstance(translated, str) or not translated.strip():
                raise TranslationFailure(
                    f"client returned an empty translation for {sentence!r}"
                )
            return translated
        except (OSError, TranslationFailure) as exc:
            last_exc = exc
            if attempt + 1 < retry_attempts:
                sleep(retry_base_delay * (2 ** attempt))
    raise TranslationFailure(
        f"translation failed after {retry_attempts} attempts for"
        f" {sentence!r}: {last_exc}"
    ) from last_exc


def build_mapping(article: str, client, *, cache: TranslationCache | None = None,
                  parallelism: int = 4, retry_attempts: int = 3,
                  retry_base_delay: float = 0.1,
                  sleep=time.sleep) -> tuple[str, SentenceMapping]:
    """Translate ``article`` sentence by sentence, keeping the mapping.

    The source language (taken from the client) selects sentence
    delimiters.  Each distinct sentence is translated at most once per
    call; the persistent cache, when given, short-circuits repeat work
    across calls, and new translations go to it in one ``put``.  A
    client that declares ``local = True`` (an in-memory translator) is
    called inline on this thread; any other client translates distinct
    sentences concurrently on up to ``parallelism`` threads.
    """
    language = client.source_lang
    if language not in segment.LANGUAGES:
        raise ValueError(f"unknown source language: {language!r}")
    if not article.strip():
        raise EmptyInput("cannot translate an empty article")
    sentences = list(segment.split_sentences(article, language))

    src, tgt = client.source_lang, client.target_lang
    memo = {}
    pending = []
    for sentence in sentences:
        if sentence in memo:
            continue
        hit = cache.get(sentence, src, tgt) if cache is not None else None
        if hit is not None:
            memo[sentence] = hit
        else:
            memo[sentence] = None
            pending.append(sentence)

    if pending:
        def translate(sentence):
            return _translate_once(client, sentence, retry_attempts,
                                   retry_base_delay, sleep)

        if getattr(client, "local", False):
            translated = [translate(s) for s in pending]
        else:
            workers = max(1, min(parallelism, len(pending)))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                translated = list(pool.map(translate, pending))
        new = list(zip(pending, translated))
        memo.update(new)
        if cache is not None:
            cache.put(new, src, tgt)

    entries = tuple(
        (i, sentence, memo[sentence]) for i, sentence in enumerate(sentences)
    )
    english_article = " ".join(memo[s] for s in sentences)
    return english_article, SentenceMapping(entries=entries)


def _normalize(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).casefold().split())


def _unigram_f1(cand_tokens, ref_tokens) -> float:
    if not cand_tokens or not ref_tokens:
        return 0.0
    cand_counts = Counter(cand_tokens)
    ref_counts = Counter(ref_tokens)
    overlap = sum(min(c, ref_counts[t]) for t, c in cand_counts.items())
    if overlap == 0:
        return 0.0
    precision = overlap / len(cand_tokens)
    recall = overlap / len(ref_tokens)
    return 2 * precision * recall / (precision + recall)


def back_map(english_summary: str, mapping: SentenceMapping,
             threshold: float = DEFAULT_THRESHOLD) -> str:
    """Restore original-language sentences for an English summary.

    Each summary sentence resolves to the mapping entry whose
    translation matches exactly after whitespace/case normalization,
    falling back to the entry with maximal clipped unigram F1 when that
    score reaches ``threshold`` (ties go to the lowest index).  Matched
    source sentences come out deduplicated, in article order.
    """
    if not mapping.entries:
        raise EmptyInput("mapping has no entries")
    if not english_summary.strip():
        raise EmptySummary("summary is empty, nothing to back-map")
    summary_sentences = list(segment.split_sentences(english_summary, "english"))

    exact = {}
    for index, _, translated in mapping.entries:
        exact.setdefault(_normalize(translated), index)
    entry_tokens = None  # tokenized on the first fuzzy match only

    matched = []
    for sentence in summary_sentences:
        index = exact.get(_normalize(sentence))
        if index is None:
            if entry_tokens is None:
                entry_tokens = [rouge_tokens(t) for _, _, t in mapping.entries]
            tokens = rouge_tokens(sentence)
            best_index, best_score = 0, -1.0
            for i, ref in enumerate(entry_tokens):
                score = _unigram_f1(tokens, ref)
                if score > best_score:
                    best_index, best_score = i, score
            if best_score < threshold:
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
                       params: GenerationParams | None = None, *,
                       threshold: float = DEFAULT_THRESHOLD,
                       cache: TranslationCache | None = None,
                       parallelism: int = 4, retry_attempts: int = 3,
                       retry_base_delay: float = 0.1) -> str:
    """Translate, summarize in English, back-map to the source language.

    ``params`` defaults to the pipeline's generation preset (token cap
    85).  The result consists solely of sentences from ``article``.
    """
    if params is None:
        params = GenerationParams(max_tokens=85)
    english_article, mapping = build_mapping(
        article,
        client,
        cache=cache,
        parallelism=parallelism,
        retry_attempts=retry_attempts,
        retry_base_delay=retry_base_delay,
    )
    english_summary = summarize(handle, english_article, params)
    return back_map(english_summary, mapping, threshold)
