import concurrent.futures
import json
import random
import re
import threading
from collections import Counter
from contextlib import closing
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from indicsum import crosslingual, jsonlog
from indicsum.backends import (
    AdapterBackend,
    GenerationParams,
    TrainedHandle,
    baseline_handle,
    get_preset,
)
from indicsum.crosslingual import (
    HttpTranslator,
    IdentityTranslator,
    SentenceMapping,
    TableTranslator,
    TranslationCache,
    back_map,
    build_mapping,
    build_mappings,
    pipeline_summarize,
)
from indicsum.errors import (
    ConfigError,
    EmptyInput,
    EmptySummary,
    NoAlignment,
    TranslationFailure,
)
from indicsum.rouge import rouge_n, rouge_tokens
from indicsum.segment import split_sentences

GUJ = "પહેલું વાક્ય અહીં છે. બીજું વાક્ય અહીં છે. ત્રીજું વાક્ય અહીં છે."
GUJ_SENTENCES = [
    "પહેલું વાક્ય અહીં છે.",
    "બીજું વાક્ય અહીં છે.",
    "ત્રીજું વાક્ય અહીં છે.",
]


class CountingIdentity(IdentityTranslator):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = []

    def translate(self, sentence):
        self.calls.append(sentence)
        return sentence


class FailingClient:
    source_lang = "gujarati"

    def __init__(self, fail_times=10**9):
        self.fail_times = fail_times
        self.calls = 0

    def translate(self, sentence):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise ConnectionError("boom")
        return f"en({sentence})"


class TestBuildMapping:
    def test_identity_three_sentences(self):
        mapping = build_mapping(GUJ, IdentityTranslator())
        assert mapping.english_article == " ".join(GUJ_SENTENCES)
        assert list(mapping.entries) == [
            (i, s, s) for i, s in enumerate(GUJ_SENTENCES)
        ]

    def test_table_translator(self):
        table = {
            GUJ_SENTENCES[0]: "e1.",
            GUJ_SENTENCES[1]: "e2.",
            GUJ_SENTENCES[2]: "e3.",
        }
        mapping = build_mapping(GUJ, TableTranslator(table))
        assert mapping.english_article == "e1. e2. e3."
        assert mapping.entries[1] == (1, GUJ_SENTENCES[1], "e2.")

    def test_always_failing_client(self):
        client = FailingClient()
        delays = []
        with pytest.raises(TranslationFailure, match="after 3 attempts"):
            build_mapping("એક વાક્ય છે.", client, sleep=delays.append)
        assert client.calls == crosslingual.RETRY_ATTEMPTS == 3
        assert delays == [0.1, 0.2]

    def test_retry_with_backoff_then_success(self):
        delays = []
        client = FailingClient(fail_times=2)
        mapping = build_mapping("એક વાક્ય છે.", client, sleep=delays.append)
        assert mapping.english_article == "en(એક વાક્ય છે.)"
        assert client.calls == 3
        base = crosslingual.RETRY_BASE_DELAY
        assert delays == [base * 1, base * 2]

    def test_table_miss_is_one_call_without_sleep(self):
        calls, delays = [], []

        class Counting(TableTranslator):
            def translate(self, sentence):
                calls.append(sentence)
                return super().translate(sentence)

        with pytest.raises(TranslationFailure,
                           match="^no table entry for sentence: 'એક વાક્ય છે.'$"):
            build_mapping("એક વાક્ય છે.", Counting({}), sleep=delays.append)
        assert calls == ["એક વાક્ય છે."]
        assert delays == []

    def test_programming_error_not_retried(self):
        class Buggy(FailingClient):
            def translate(self, sentence):
                self.calls += 1
                raise TypeError("bug")

        delays = []
        client = Buggy()
        with pytest.raises(TypeError):
            build_mapping("એક વાક્ય છે.", client, sleep=delays.append)
        assert client.calls == 1
        assert delays == []

    def test_client_called_once_per_distinct_sentence(self):
        client = CountingIdentity()
        repeated = "એક સરખું વાક્ય. બીજું વાક્ય. એક સરખું વાક્ય."
        mapping = build_mapping(repeated, client)
        assert len(mapping.entries) == 3
        assert sorted(client.calls) == sorted(set(client.calls))

    def test_parallel_translation_preserves_order(self):
        # The first call returns only after the fourth has, so the pool's
        # results finish out of order.
        sentences = [f"વાક્ય ક્રમ {i} છે." for i in range(30)]
        fourth_done = threading.Event()
        finished = []

        class Remote:
            source_lang = "gujarati"

            def translate(self, sentence):
                if sentence == sentences[0]:
                    assert fourth_done.wait(5)
                finished.append(sentence)
                if sentence == sentences[3]:
                    fourth_done.set()
                return f"en({sentence})"

        mapping = build_mapping(" ".join(sentences), Remote())
        assert finished.index(sentences[3]) < finished.index(sentences[0])
        assert sorted(finished) == sorted(sentences)
        assert [e[1] for e in mapping.entries] == sentences
        assert mapping.english_article == " ".join(f"en({s})" for s in sentences)

    def test_local_translator_runs_on_calling_thread(self):
        threads = set()

        class Recording(IdentityTranslator):
            def translate(self, sentence):
                threads.add(threading.get_ident())
                return sentence

        sentences = [f"વાક્ય ક્રમ {i} છે." for i in range(30)]
        build_mapping(" ".join(sentences), Recording())
        assert threads == {threading.get_ident()}

    def test_other_clients_translate_concurrently(self):
        # Each call waits for a second one; a serial caller would break
        # the barrier after 5 s.
        barrier = threading.Barrier(2, timeout=5)

        class Remote:
            source_lang = "gujarati"

            def translate(self, sentence):
                barrier.wait()
                return sentence

        mapping = build_mapping(" ".join(GUJ_SENTENCES[:2]), Remote())
        assert mapping.english_article == " ".join(GUJ_SENTENCES[:2])

    def test_empty_article(self):
        with pytest.raises(EmptyInput):
            build_mapping("   ", IdentityTranslator())

    def test_unknown_source_language(self):
        with pytest.raises(ValueError):
            build_mapping("text.", IdentityTranslator(source_lang="swedish"))

    def test_empty_translation_rejected(self):
        class Empty(IdentityTranslator):
            def translate(self, sentence):
                return "  "

        delays = []
        with pytest.raises(TranslationFailure, match="empty translation"):
            build_mapping("એક વાક્ય.", Empty(), sleep=delays.append)
        assert delays == []

    def test_cache_roundtrip_and_short_circuit(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        cache = TranslationCache(cache_path)
        client = CountingIdentity()
        build_mapping(GUJ, client, cache=cache)
        assert len(client.calls) == 3

        with open(cache_path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert {row["src"] for row in rows} == set(GUJ_SENTENCES)
        assert all(row["src_lang"] == "gujarati" for row in rows)
        assert all(row["tgt_lang"] == "english" for row in rows)
        assert all(row["dst"] for row in rows)

        # a fresh cache instance serves a client that would otherwise fail
        reloaded = TranslationCache(cache_path)
        mapping = build_mapping(GUJ, FailingClient(), cache=reloaded)
        assert mapping.english_article == " ".join(GUJ_SENTENCES)

    def test_cold_mapping_appends_in_one_put(self, tmp_path, monkeypatch):
        batches = []
        put = TranslationCache.put

        def counting_put(self, pairs, src_lang):
            batches.append(list(pairs))  # pairs may be a one-pass iterator
            put(self, batches[-1], src_lang)

        monkeypatch.setattr(TranslationCache, "put", counting_put)
        cache_path = tmp_path / "cache.jsonl"
        build_mapping(GUJ, IdentityTranslator(), cache=TranslationCache(cache_path))
        assert len(batches) == 1
        assert cache_path.read_text(encoding="utf-8") == "".join(
            cache_line(s, s) for s in GUJ_SENTENCES
        )


# A split whose articles repeat sentences across records: five distinct
# sentences in first-seen order S[0], S[1], S[2], S[3], S[4].
S = [f"વાક્ય ક્રમ {i} છે." for i in range(5)]
SPLIT = [f"{S[0]} {S[1]} {S[0]}", f"{S[2]} {S[1]}", f"{S[3]} {S[0]} {S[4]}",
         f"{S[4]} {S[2]}"]


class Remote:
    """A client without ``local``: translated on the pool, with retry."""

    source_lang = "gujarati"

    def __init__(self, table):
        self.table = table
        self.calls = []

    def translate(self, sentence):
        self.calls.append(sentence)
        if sentence not in self.table:
            raise TranslationFailure(f"no entry for {sentence!r}")
        return self.table[sentence]


class CountingTable(TableTranslator):
    def __init__(self, table):
        super().__init__(table)
        self.calls = []

    def translate(self, sentence):
        self.calls.append(sentence)
        return super().translate(sentence)


class TestBuildMappings:
    def test_equals_build_mapping_per_article(self):
        mappings = build_mappings(SPLIT, IdentityTranslator())
        assert mappings == [build_mapping(a, IdentityTranslator()) for a in SPLIT]

    def test_client_called_once_per_distinct_sentence(self):
        client = CountingIdentity()
        build_mappings(SPLIT, client)
        assert client.calls == S

    def test_cache_get_once_per_distinct_sentence(self, tmp_path, monkeypatch):
        gets = []
        get = TranslationCache.get

        def counting_get(self, src):
            gets.append(src)
            return get(self, src)

        monkeypatch.setattr(TranslationCache, "get", counting_get)
        cache = TranslationCache(tmp_path / "cache.jsonl")
        cache.put([(S[2], "e2.")], "gujarati")
        client = CountingIdentity()
        mappings = build_mappings(SPLIT, client, cache=cache)
        assert gets == S
        assert client.calls == [S[0], S[1], S[3], S[4]]
        assert mappings[3].english_article == f"{S[4]} e2."

    def test_remote_client_gets_one_pool_per_split(self, monkeypatch):
        pools = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        # build_mappings imports the pool class from here when it needs one.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        client = Remote({s: f"en({s})" for s in S})
        mappings = build_mappings(SPLIT, client)
        assert len(pools) == 1
        assert sorted(client.calls) == sorted(S)
        assert [m.english_article for m in mappings] == [
            " ".join(f"en({s})" for s in split_sentences(a, "gujarati"))
            for a in SPLIT]

    def test_cache_bytes_equal_article_by_article(self, tmp_path):
        split_wide, per_article = tmp_path / "split.jsonl", tmp_path / "one.jsonl"
        build_mappings(SPLIT, IdentityTranslator(),
                       cache=TranslationCache(split_wide))
        cache = TranslationCache(per_article)
        for article in SPLIT:
            build_mapping(article, IdentityTranslator(), cache=cache)
        assert split_wide.read_bytes() == per_article.read_bytes()
        assert split_wide.read_text(encoding="utf-8") == "".join(
            cache_line(s, s) for s in S)

    def test_repeated_sentence_is_one_string(self, tmp_path):
        # S[0] occurs in articles 0 (twice) and 2, and S[2] is a cache hit.
        path = tmp_path / "cache.jsonl"
        path.write_text(cache_line(S[2], "e2."), encoding="utf-8")
        for cache in (None, TranslationCache(path)):
            mappings = build_mappings(SPLIT, IdentityTranslator(), cache=cache)
            first = mappings[0].entries[0][1]
            assert first == S[0]
            assert mappings[0].entries[2][1] is first
            assert mappings[2].entries[1][1] is first
            assert mappings[3].entries[1][1] is mappings[1].entries[0][1]
        # The new translations live only in the memo, not in the cache.
        assert len(cache._held) == 1 and cache.get(S[2]) == "e2."
        key = next(iter(cache._held))
        assert key is mappings[1].entries[0][1]

    def test_empty_article_names_its_index(self):
        with pytest.raises(EmptyInput) as info:
            build_mappings([SPLIT[0], "  "], IdentityTranslator())
        assert info.value.article_index == 1


class TestFailureMidSplit:
    """S[3] has no translation: it is first seen in article 2, after
    S[0], S[1] and S[2], and article 3 holds it too."""

    TABLE = {s: f"e{i}." for i, s in enumerate(S)}

    @pytest.fixture(params=["local", "remote"])
    def make_client(self, request):
        return CountingTable if request.param == "local" else Remote

    def test_failure_keeps_earlier_translations(self, make_client, tmp_path):
        path = tmp_path / "cache.jsonl"
        split = SPLIT[:3] + [f"{S[3]} {S[4]}"]
        table = {s: t for s, t in self.TABLE.items() if s != S[3]}
        for cache in (None, TranslationCache(path)):
            with pytest.raises(TranslationFailure,
                               match=re.escape(repr(S[3]))) as info:
                build_mappings(split, make_client(table), cache=cache,
                               sleep=lambda _: None)
            assert info.value.article_index == 2
        assert path.read_text(encoding="utf-8") == "".join(
            cache_line(s, self.TABLE[s]) for s in S[:3])

        # A re-run with the fixed table translates only the rest, and
        # the cache ends as an uninterrupted run leaves it.
        client = make_client(self.TABLE)
        build_mappings(split, client, cache=TranslationCache(path))
        assert sorted(client.calls) == sorted(S[3:])
        fresh = tmp_path / "fresh.jsonl"
        build_mappings(split, make_client(self.TABLE),
                       cache=TranslationCache(fresh))
        assert path.read_bytes() == fresh.read_bytes()


def cache_line(src, dst):
    return json.dumps({"src": src, "src_lang": "gujarati", "tgt_lang": "english",
                       "dst": dst}, ensure_ascii=False) + "\n"


def loaded(path, sentences=GUJ_SENTENCES):
    """The cache at ``path``, loaded for ``sentences``, Gujarati to English."""
    cache = TranslationCache(path)
    cache.load({s: s for s in sentences}, "gujarati")
    return cache


DROP = object()  # a field value that leaves the field out


class TestTranslationCache:
    @pytest.fixture
    def torn(self, tmp_path):
        """A cache whose last record was cut off mid-character."""
        path = tmp_path / "cache.jsonl"
        second = cache_line(GUJ_SENTENCES[1], "e2.").encode("utf-8")
        path.write_bytes(cache_line(GUJ_SENTENCES[0], "e1.").encode("utf-8")
                         + second[:len(second) // 2 + 1])
        return path

    def test_torn_last_line_skipped_then_cut_off(self, torn):
        cache = loaded(torn)
        assert len(cache._held) == 1
        cache.put([(GUJ_SENTENCES[2], "e3.")], "gujarati")
        assert torn.read_text(encoding="utf-8") == (
            cache_line(GUJ_SENTENCES[0], "e1.") + cache_line(GUJ_SENTENCES[2], "e3.")
        )
        assert loaded(torn).get(GUJ_SENTENCES[2]) == "e3."

    def test_missing_final_newline(self, tmp_path):
        # A line without its newline is torn, however whole its JSON.
        path = tmp_path / "cache.jsonl"
        path.write_text(cache_line(GUJ_SENTENCES[0], "e1.").rstrip("\n"),
                        encoding="utf-8")
        cache = loaded(path)
        assert len(cache._held) == 0
        cache.put([(GUJ_SENTENCES[1], "e2.")], "gujarati")
        assert path.read_text(encoding="utf-8") == cache_line(GUJ_SENTENCES[1], "e2.")

    def test_construction_reads_nothing(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        cache = TranslationCache(path)
        assert len(cache._held) == 0
        assert cache.get(GUJ_SENTENCES[0]) is None

    def test_kept_translations_keyed_by_callers_strings(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(cache_line(s, s) for s in GUJ_SENTENCES),
                        encoding="utf-8")
        # Equal strings, but not the objects the file's lines parse to.
        own = ["".join(list(s)) for s in GUJ_SENTENCES]
        cache = TranslationCache(path)
        cache.load({s: s for s in own}, "gujarati")
        keys = list(cache._held)
        assert keys == own
        assert all(key is s for key, s in zip(keys, own))

    def test_load_keeps_only_wanted_sentences_and_pair(self, tmp_path):
        path = tmp_path / "cache.jsonl"

        def other_pair(src_lang, tgt_lang, dst):
            return json.dumps({"src": GUJ_SENTENCES[0], "src_lang": src_lang,
                               "tgt_lang": tgt_lang, "dst": dst},
                              ensure_ascii=False) + "\n"

        path.write_text(cache_line(GUJ_SENTENCES[0], "e1.")
                        + cache_line(GUJ_SENTENCES[1], "e2.")
                        + cache_line(GUJ_SENTENCES[0], "e1b.")
                        + other_pair("hindi", "english", "h1.")
                        + other_pair("gujarati", "hindi", "g1."),
                        encoding="utf-8")
        cache = loaded(path, GUJ_SENTENCES[:1])
        assert len(cache._held) == 1
        # Of two lines for one sentence, the later wins; a line into a
        # language other than English is skipped.
        assert cache.get(GUJ_SENTENCES[0]) == "e1b."
        assert cache.get(GUJ_SENTENCES[1]) is None
        cache.load({GUJ_SENTENCES[0]: GUJ_SENTENCES[0]}, "hindi")
        assert len(cache._held) == 1
        assert cache.get(GUJ_SENTENCES[0]) == "h1."

    def test_bad_middle_line(self, torn):
        with open(torn, "a", encoding="utf-8") as fh:
            fh.write("\n" + cache_line(GUJ_SENTENCES[2], "e3."))
        with pytest.raises(ConfigError, match=f"{torn}:2: bad cache record"):
            loaded(torn)

    @pytest.mark.parametrize("field, value", [
        ("dst", ""), ("dst", "   "), ("dst", 5), ("dst", None),
        ("src", ["a"]), ("src_lang", None), ("tgt_lang", 1.5), ("dst", DROP),
        ("dst", "\ud800 x."),
    ])
    @pytest.mark.parametrize("position", ["middle", "last"])
    def test_whole_line_with_bad_field(self, field, value, position, tmp_path):
        """A whole line is never taken for a torn one, even as the last."""
        record = {"src": GUJ_SENTENCES[1], "src_lang": "gujarati",
                  "tgt_lang": "english", "dst": "e2.", field: value}
        record = {k: v for k, v in record.items() if v is not DROP}
        bad = json.dumps(record) + "\n"  # a lone surrogate as a JSON escape
        good = cache_line(GUJ_SENTENCES[0], "e1.")
        last = cache_line(GUJ_SENTENCES[2], "e3.") if position == "middle" else ""
        path = tmp_path / "cache.jsonl"
        path.write_text(good + bad + last, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{path}:2: bad cache record"):
            loaded(path)
        jsonlog.append(path, ["{}"])
        assert path.read_text(encoding="utf-8") == good + bad + last + "{}\n"


def ten_token_mapping():
    entries = []
    for i, prefix in enumerate("abc"):
        source = " ".join(f"સ{prefix}{j}" for j in range(10)) + "."
        translated = " ".join(f"{prefix}{j}" for j in range(10)) + "."
        entries.append((i, source, translated))
    return SentenceMapping(entries=tuple(entries))


_VOCAB = "rain fell hard on the coast storm market".split()


def _render(words, rng):
    """``words`` as an English sentence with random case, separators and
    terminator; only the tokens are fixed."""
    words = [w.upper() if rng.random() < 0.2 else w for w in words]
    separators = [" ", ", ", "  ", " -- ", "; ", " \"", "\" "]
    text = words[0] if words else ""
    for word in words[1:]:
        text += rng.choice(separators) + word
    return text + rng.choice([".", "!", "?", "?!", "..."])


def random_back_map_case(seed):
    """A mapping with repeated, permuted and re-punctuated entries, a
    summary of variants of them (cut short among them) and of
    strangers, and a threshold."""
    rng = random.Random(seed)
    token_lists = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if token_lists and roll < 0.25:
            words = list(rng.choice(token_lists))      # a repeat
        elif token_lists and roll < 0.45:
            words = list(rng.choice(token_lists))
            rng.shuffle(words)                         # a permutation
        elif roll < 0.5:
            words = []                                 # punctuation only
        else:
            words = rng.choices(_VOCAB, k=rng.randint(1, 5))
        token_lists.append(words)
    mapping = SentenceMapping(entries=tuple(
        (i, f"મૂળ {i}.", _render(words, rng))
        for i, words in enumerate(token_lists)
    ))
    summary = []
    for _ in range(rng.randint(1, 4)):
        words = list(rng.choice(token_lists))
        roll = rng.random()
        if roll < 0.3:
            rng.shuffle(words)
        elif roll < 0.5 and words:
            words[rng.randrange(len(words))] = rng.choice(_VOCAB)
        elif roll < 0.6:
            words = rng.choices(_VOCAB + ["zzz"], k=rng.randint(0, 5))
        elif roll < 0.8 and words:
            words = words[:rng.randrange(len(words))]  # cut short
        summary.append(_render(words, rng))
    return mapping, " ".join(summary), rng.choice([0.0, 0.3, 0.6, 1.0])


def reference_back_map(summary, mapping, threshold, rules=None):
    """Brute force: per summary sentence, the lowest index with equal
    tokens, else the lowest index of maximal unigram F1 at or above
    ``threshold``, else the lowest index whose tokens begin with the
    sentence's (when it has any), else ``NoAlignment``.  ``rules``, a
    Counter, counts the rule each sentence resolved by."""
    rules = Counter() if rules is None else rules

    def f1(a, b):
        overlap = sum((Counter(a) & Counter(b)).values())
        p = overlap / len(a) if a else 0.0
        r = overlap / len(b) if b else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0

    entries = [rouge_tokens(t) for _, _, t in mapping.entries]
    picked = set()
    for sentence in split_sentences(summary, "english"):
        tokens = rouge_tokens(sentence)
        if tokens in entries:
            rules["exact"] += 1
            picked.add(entries.index(tokens))
            continue
        scores = [f1(tokens, ref) for ref in entries]
        if max(scores) >= threshold:
            rules["fuzzy"] += 1
            picked.add(scores.index(max(scores)))
            continue
        begun = [i for i, ref in enumerate(entries)
                 if tokens and ref[:len(tokens)] == tokens]
        if not begun:
            raise NoAlignment("", sentence=sentence, best_score=max(scores))
        rules["prefix"] += 1
        picked.add(begun[0])
    return " ".join(mapping.entries[i][1] for i in sorted(picked))


class TestBackMap:
    def test_exact_match(self):
        mapping = ten_token_mapping()
        assert back_map(mapping.entries[1][2], mapping) == mapping.entries[1][1]

    def test_exact_match_is_normalized(self):
        mapping = ten_token_mapping()
        shouted = mapping.entries[2][2].upper().replace(" ", "   ")
        assert back_map(shouted, mapping) == mapping.entries[2][1]

    def test_single_substitution_fuzzy_match(self):
        mapping = ten_token_mapping()
        words = mapping.entries[1][2].split()
        words[4] = "zzz"
        assert back_map(" ".join(words), mapping) == mapping.entries[1][1]

    def test_disjoint_raises_no_alignment(self):
        mapping = ten_token_mapping()
        with pytest.raises(NoAlignment) as info:
            back_map("totally unrelated words here.", mapping)
        assert info.value.sentence == "totally unrelated words here."
        assert info.value.best_score < 0.6

    def test_threshold_is_configurable(self):
        mapping = ten_token_mapping()
        words = mapping.entries[1][2].split()
        words[4] = "zzz"
        summary = " ".join(words)
        assert back_map(summary, mapping, threshold=0.9) == mapping.entries[1][1]
        with pytest.raises(NoAlignment):
            back_map(summary, mapping, threshold=0.95)

    def test_output_in_article_order_and_deduplicated(self):
        mapping = ten_token_mapping()
        summary = " ".join(
            [mapping.entries[2][2], mapping.entries[0][2], mapping.entries[2][2]]
        )
        out = back_map(summary, mapping)
        assert out == mapping.entries[0][1] + " " + mapping.entries[2][1]

    def test_tie_goes_to_lowest_index(self):
        twin = SentenceMapping(
            entries=(
                (0, "પહેલું મૂળ વાક્ય.", "same translated words here."),
                (1, "બીજું મૂળ વાક્ય.", "same translated words here."),
            )
        )
        assert back_map("same translated words here.", twin) == "પહેલું મૂળ વાક્ય."
        # equal tokens, not equal strings
        mapping = SentenceMapping(entries=(
            (0, "પહેલું.", "Other words."),
            (1, "બીજું.", "The rain, fell."),
            (2, "ત્રીજું.", "the rain fell!"),
        ))
        assert back_map("THE RAIN FELL.", mapping) == "બીજું."
        assert back_map("the  rain fell?! Other words.", mapping) == (
            "પહેલું. બીજું.")

    @pytest.fixture
    def tokenized(self, monkeypatch):
        """Every text ``back_map`` passes to ``rouge_tokens``, in order."""
        seen = []

        def counting(text):
            seen.append(text)
            return rouge_tokens(text)

        monkeypatch.setattr(crosslingual, "rouge_tokens", counting)
        return seen

    @staticmethod
    def numbered_mapping():
        return SentenceMapping(entries=tuple(
            (i, f"મૂળ {i}.", f"entry number {i}.") for i in range(10)
        ))

    def test_entries_tokenized_once_up_to_last_exact_match(self, tokenized):
        mapping = self.numbered_mapping()
        translated = [t for _, _, t in mapping.entries]
        summary = "Entry number 3. entry   number 1. ENTRY, NUMBER 3!"
        assert back_map(summary, mapping) == "મૂળ 1. મૂળ 3."
        assert [t for t in tokenized if t in translated] == translated[:4]
        # each summary sentence once, and nothing else
        assert len(tokenized) == 4 + 3

    def test_miss_tokenizes_each_entry_once(self, tokenized):
        mapping = self.numbered_mapping()
        translated = [t for _, _, t in mapping.entries]
        # The second sentence misses: the scan tokenizes the rest, and
        # the fuzzy stage counts from those same tokens; the third
        # misses too and tokenizes no entry again.
        summary = "Entry number 1. entry number 9 extra. extra entry number 4."
        assert back_map(summary, mapping) == "મૂળ 1. મૂળ 4. મૂળ 9."
        assert [t for t in tokenized if t in translated] == translated
        assert len(tokenized) == len(translated) + 3

    def test_punctuation_variant_matches_exactly(self):
        # Same tokens in another order score F1 1.0 on the fuzzy path;
        # the exact stage, on the same tokens, takes the right entry.
        mapping = SentenceMapping(entries=(
            (0, "SRC-A.", "rain fell hard."),
            (1, "SRC-B.", "hard fell rain."),
        ))
        assert back_map("Hard, fell, rain!", mapping) == "SRC-B."
        assert back_map("\"Rain\" -- fell; hard?", mapping) == "SRC-A."

    def test_equal_only_under_casefold_is_not_exact(self):
        mapping = SentenceMapping(entries=(
            (0, "પહેલું.", "strasse closed today."),
            (1, "બીજું.", "Straße closed today."),
        ))
        assert back_map("straße closed today.", mapping) == "બીજું."

    def test_sentence_without_tokens(self):
        mapping = SentenceMapping(entries=(
            (0, "પહેલું.", "rain fell."),
            (1, "બીજું.", "-- ..."),
            (2, "ત્રીજું.", "!"),
        ))
        # it matches the first entry without tokens exactly
        assert back_map("Rain fell. ?!", mapping) == "પહેલું. બીજું."
        words_only = SentenceMapping(entries=mapping.entries[:1])
        # else every entry scores F1 0 on the fuzzy path
        with pytest.raises(NoAlignment) as info:
            back_map("Rain fell. ?!", words_only)
        assert info.value.sentence == "?!"
        assert info.value.best_score == 0.0
        assert back_map("?!", words_only, threshold=0.0) == "પહેલું."

    def test_matches_brute_force_reference(self):
        outcomes, rules = Counter(), Counter()
        for seed in range(300):
            mapping, summary, threshold = random_back_map_case(seed)
            try:
                expected = reference_back_map(summary, mapping, threshold,
                                              rules)
            except NoAlignment as exc:
                outcomes["no alignment"] += 1
                with pytest.raises(NoAlignment) as info:
                    back_map(summary, mapping, threshold)
                assert (info.value.sentence, info.value.best_score) == (
                    exc.sentence, exc.best_score), seed
            else:
                outcomes["mapped"] += 1
                assert back_map(summary, mapping, threshold) == expected, seed
        assert min(outcomes.values()) > 30, outcomes
        assert min(rules.values()) > 15, rules

    def test_lazy_exact_match_keeps_lowest_index(self):
        mapping = SentenceMapping(entries=(
            (0, "પહેલું.", "A."),
            (1, "બીજું.", "B."),
            (2, "ત્રીજું.", "A."),
            (3, "ચોથું.", "C."),
        ))
        assert back_map("B. A.", mapping) == "પહેલું. બીજું."
        # The scan for C passes the second A; A still maps to entry 0.
        assert back_map("C. A.", mapping) == "પહેલું. ચોથું."

    def test_empty_summary(self):
        with pytest.raises(EmptySummary):
            back_map("  ", ten_token_mapping())

    def test_empty_mapping(self):
        with pytest.raises(EmptyInput):
            back_map("text.", SentenceMapping(entries=()))

    def test_mapping_invariants_enforced(self):
        with pytest.raises(ValueError):
            SentenceMapping(entries=((1, "s", "t"),))
        with pytest.raises(ValueError):
            SentenceMapping(entries=((0, "s", "  "),))


class TestPipeline:
    def test_identity_plus_lead_one_sentence_budget(self):
        out = pipeline_summarize(
            GUJ, IdentityTranslator(), baseline_handle("english"),
            GenerationParams(max_tokens=4),
        )
        assert out == GUJ_SENTENCES[0]

    def test_single_sentence_article(self):
        out = pipeline_summarize(
            "એકમાત્ર વાક્ય છે.", IdentityTranslator(),
            baseline_handle("english"), GenerationParams(max_tokens=50),
        )
        assert out == "એકમાત્ર વાક્ય છે."

    def test_danda_inside_a_gujarati_sentence(self):
        # The danda ends Hindi sentences only: this is one Gujarati sentence.
        article = "પહેલું વાક્ય। બીજું."
        out = pipeline_summarize(article, IdentityTranslator(),
                                 baseline_handle("english"),
                                 GenerationParams(max_tokens=50))
        assert out == article

    def test_table_translator_with_fixed_output_backend(self, stub_argv):
        table = {
            GUJ_SENTENCES[0]: "first english sentence here.",
            GUJ_SENTENCES[1]: "second english sentence here.",
            GUJ_SENTENCES[2]: "third english sentence here.",
        }
        argv = stub_argv("--fixed-summary", "second english sentence here.")
        with closing(AdapterBackend(argv=argv)) as backend:
            out = pipeline_summarize(
                GUJ, TableTranslator(table), TrainedHandle(backend=backend),
                get_preset("gujarati-translate-map").generation,
            )
        assert out == GUJ_SENTENCES[1]

    def test_output_sentences_subset_of_article(self, gujarati_records):
        client = IdentityTranslator()
        handle = baseline_handle("english")
        for rec in gujarati_records[:20]:
            out = pipeline_summarize(rec.article, client, handle,
                                     GenerationParams(max_tokens=12))
            article_sentences = set(split_sentences(rec.article, "gujarati"))
            for sentence in split_sentences(out, "gujarati"):
                assert sentence in article_sentences

    def test_first_sentence_cut_short_maps_back(self):
        # 199 words on lines split only by newlines, then three sentences:
        # the first sentence has no terminator before GUJ's first one.
        # The lead cuts it to 85 words, whose unigram F1 against it is
        # under the threshold; they begin it, so the whole of it comes back.
        words = random.Random(5).choices(
            "સમાચાર શહેર વરસાદ સરકાર લોકો રમત બજાર પાણી શાળા રસ્તો".split(),
            k=199)
        lines = [" ".join(words[i:i + 10]) for i in range(0, 199, 10)]
        article = "\n".join(lines) + "\n" + GUJ
        first = split_sentences(article, "gujarati")[0]
        cut = " ".join(first.split()[:85])
        assert rouge_n(cut, first, 1).f1 < 0.6
        out = pipeline_summarize(article, IdentityTranslator(),
                                 baseline_handle("english"),
                                 GenerationParams(max_tokens=85))
        assert out == first


class _Translate(BaseHTTPRequestHandler):
    seen_auth = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.seen_auth.append(self.headers.get("Authorization"))
        out = json.dumps({"translation": body["text"].upper()}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, *args):
        pass


class _Fail(_Translate):
    def do_POST(self):
        self.send_response(500)
        self.send_header("Content-Length", "0")
        self.end_headers()


class _Refuse(_Translate):
    requests = []

    def do_POST(self):
        self.requests.append(self.path)
        self.send_response(401)
        self.send_header("Content-Length", "0")
        self.end_headers()


class _Garbled(_Translate):
    def do_POST(self):
        self.send_response(200)
        self.send_header("Content-Length", "8")
        self.end_headers()
        self.wfile.write(b"not json")


def _serve(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/translate"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHttpTranslator:
    @pytest.fixture
    def endpoint(self):
        yield from _serve(_Translate)

    @pytest.fixture
    def failing_endpoint(self):
        yield from _serve(_Fail)

    @pytest.fixture
    def garbled_endpoint(self):
        yield from _serve(_Garbled)

    @pytest.fixture
    def refusing_endpoint(self):
        yield from _serve(_Refuse)

    def test_requires_api_key(self, monkeypatch):
        monkeypatch.delenv("TRANSLATE_API_KEY", raising=False)
        with pytest.raises(TranslationFailure):
            HttpTranslator("http://127.0.0.1:1/translate")

    def test_translates_and_sends_bearer_token(self, endpoint, monkeypatch):
        monkeypatch.setenv("TRANSLATE_API_KEY", "sekrit")
        _Translate.seen_auth.clear()
        client = HttpTranslator(endpoint, source_lang="english")
        mapping = build_mapping("small test. another one.", client)
        assert mapping.english_article == "SMALL TEST. ANOTHER ONE."
        assert set(_Translate.seen_auth) == {"Bearer sekrit"}

    def test_server_error_raises_translation_failure(self, failing_endpoint,
                                                      monkeypatch):
        monkeypatch.setenv("TRANSLATE_API_KEY", "sekrit")
        client = HttpTranslator(failing_endpoint, source_lang="english")
        with pytest.raises(TranslationFailure, match="HTTP Error 500"):
            build_mapping("small test.", client, sleep=lambda _: None)

    def test_refusal_is_not_retried(self, refusing_endpoint, monkeypatch):
        monkeypatch.setenv("TRANSLATE_API_KEY", "wrong")
        _Refuse.requests.clear()
        client = HttpTranslator(refusing_endpoint, source_lang="english")
        delays = []
        with pytest.raises(TranslationFailure, match="HTTP Error 401"):
            build_mapping("small test.", client, sleep=delays.append)
        assert len(_Refuse.requests) == 1
        assert delays == []

    def test_malformed_response_raises_translation_failure(self, garbled_endpoint,
                                                           monkeypatch):
        monkeypatch.setenv("TRANSLATE_API_KEY", "sekrit")
        client = HttpTranslator(garbled_endpoint, source_lang="english")
        with pytest.raises(TranslationFailure, match="bad response"):
            build_mapping("small test.", client, sleep=lambda _: None)


class TestTableTranslatorFile:
    def test_from_tsv(self, tmp_path):
        tsv = tmp_path / "table.tsv"
        entries = "એક વાક્ય.\tone sentence.\nબે વાક્ય.\ttwo sentences.\n"
        # The second input starts with a BOM, as some editors save files.
        for text in ("# comment line\n" + entries, "\ufeff" + entries):
            tsv.write_text(text, encoding="utf-8")
            client = TableTranslator.from_tsv(tsv)
            assert client.translate("એક વાક્ય.") == "one sentence."

    def test_missing_entry(self):
        client = TableTranslator({})
        with pytest.raises(TranslationFailure):
            client.translate("unknown.")

    def test_bad_tsv_line(self, tmp_path):
        tsv = tmp_path / "bad.tsv"
        tsv.write_text("# comment\nno tab here\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"bad\.tsv:2: expected two TAB"):
            TableTranslator.from_tsv(tsv)
