import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import closing

import pytest

from indicsum import backends, segment
from indicsum.augment import add_noise, augment_split
from indicsum.backends import (
    DEFAULT_SEED,
    AdapterBackend,
    GenerationParams,
    LeadBaselineBackend,
    PRESETS,
    SummarizerSpec,
    TrainedHandle,
    baseline_handle,
    fine_tune,
    get_preset,
    lead_baseline,
    summarize,
)
from indicsum.corpus import ArticleRecord, DatasetSplit
from indicsum.errors import (BackendUnavailable, ConfigError, EmptyArticle,
                             EmptyInput, InvalidSpec)
from indicsum.segment import split_sentences, tokenize_words

from conftest import segment_cases


def reference_lead(article, budget, language):
    """The lead baseline over the article's full sentence list."""
    sentences = split_sentences(article, language)
    chosen, used = [], 0
    for sent in sentences:
        words = len(tokenize_words(sent))
        if used + words > budget:
            break
        chosen.append(sent)
        used += words
    if not chosen:
        return " ".join(tokenize_words(sentences[0])[:budget])
    return " ".join(chosen)


def train_split(n=3):
    return DatasetSplit(
        kind="train",
        language="english",
        records=tuple(
            ArticleRecord(id=f"r{i}", article=f"Body {i} text. More {i} text.",
                          summary=f"Body {i} text.")
            for i in range(n)
        ),
    )


class TestSpecs:
    def test_valid_spec_passes(self):
        SummarizerSpec(model_id="m", epochs=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_id": ""},
            {"epochs": 0},
            {"weight_decay": -0.1},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"max_input_tokens": 0},
            *({name: value} for name in ("weight_decay", "learning_rate")
              for value in (float("nan"), float("inf"), float("-inf"))),
        ],
    )
    def test_invalid_spec_fields(self, kwargs):
        base = {"model_id": "m", "epochs": 1}
        base.update(kwargs)
        with pytest.raises(InvalidSpec):
            SummarizerSpec(**base)

    def test_generation_params(self):
        GenerationParams(max_tokens=1)
        with pytest.raises(InvalidSpec):
            GenerationParams(max_tokens=0)

    def test_replace_checks_too(self):
        with pytest.raises(InvalidSpec, match="max_tokens must be >= 1, got 0"):
            dataclasses.replace(GenerationParams(), max_tokens=0)


class TestPresets:
    def test_registry_is_exactly_the_experiment_grid(self):
        assert sorted(PRESETS) == sorted(
            [
                "english-pegasus",
                "english-brio",
                "english-t5",
                "extractive-bert",
                "hindi-indicbart",
                "hindi-xlsum",
                "hindi-mbart",
                "gujarati-mbart",
                "gujarati-xlsum",
                "gujarati-translate-map",
            ]
        )

    def test_english_pegasus_values(self):
        p = get_preset("english-pegasus")
        assert p.spec.epochs == 1
        assert p.spec.weight_decay == 0.01
        assert p.generation.max_tokens == 65

    def test_english_brio_values(self):
        p = get_preset("english-brio")
        assert p.spec.epochs == 1
        assert p.spec.weight_decay == 0.01

    def test_english_t5_values(self):
        p = get_preset("english-t5")
        assert p.spec.epochs == 20
        assert p.generation.max_tokens == 75

    def test_extractive_bert_values(self):
        p = get_preset("extractive-bert")
        assert p.spec.batch_size == 4
        assert p.spec.max_input_tokens == 512
        assert p.spec.learning_rate == pytest.approx(1e-5)
        assert p.spec.epochs == 3

    def test_hindi_presets(self):
        indicbart = get_preset("hindi-indicbart")
        assert indicbart.spec.epochs == 2
        assert indicbart.generation.max_tokens == 60
        assert indicbart.augment == "noise"
        assert get_preset("hindi-xlsum").spec.epochs == 2
        assert get_preset("hindi-mbart").spec.epochs == 1

    def test_gujarati_presets(self):
        mbart = get_preset("gujarati-mbart")
        assert mbart.spec.epochs == 1
        assert mbart.augment == "noise"
        xlsum = get_preset("gujarati-xlsum")
        assert xlsum.spec.epochs == 5
        assert xlsum.generation.max_tokens == 75
        pipeline = get_preset("gujarati-translate-map")
        assert pipeline.pipeline == "translate-map"
        assert pipeline.generation.max_tokens == 85
        assert pipeline.spec is None

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_preset("english-gpt17")


class TestLeadBaseline:
    def test_budget_takes_two_of_three(self):
        article = "one two three four five. six seven eight nine ten. " \
                  "eleven twelve thirteen fourteen fifteen."
        out = lead_baseline(article, GenerationParams(max_tokens=12))
        assert out == "one two three four five. six seven eight nine ten."

    def test_first_sentence_truncated(self):
        out = lead_baseline("alpha beta gamma delta epsilon.",
                            GenerationParams(max_tokens=3))
        assert out == "alpha beta gamma"

    def test_single_sentence_large_budget(self):
        article = "The whole story in one line."
        assert lead_baseline(article, GenerationParams(max_tokens=500)) == article

    def test_empty_article(self):
        with pytest.raises(EmptyInput):
            lead_baseline("   ", GenerationParams())

    def test_output_is_prefix_and_within_budget(self):
        rng = random.Random(10)
        words = "a b c d e f g".split()
        for _ in range(200):
            sentences = [
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 8))) + "."
                for _ in range(rng.randint(1, 6))
            ]
            article = " ".join(sentences)
            budget = rng.randint(1, 20)
            out = lead_baseline(article, GenerationParams(max_tokens=budget))
            assert article.startswith(out)
            assert len(tokenize_words(out)) <= budget

    def test_hindi_sentences(self):
        article = "पहला वाक्य यहाँ। दूसरा वाक्य यहाँ। तीसरा वाक्य यहाँ।"
        out = lead_baseline(article, GenerationParams(max_tokens=3), "hindi")
        assert out == "पहला वाक्य यहाँ।"

    @pytest.mark.parametrize("language", ["english", "hindi", "gujarati"])
    def test_matches_full_split_reference(self, language):
        checked = 0
        for article in segment_cases(language):
            if not article.strip():
                continue
            for budget in range(1, len(tokenize_words(article)) + 2):
                got = lead_baseline(article, GenerationParams(max_tokens=budget),
                                    language)
                assert got == reference_lead(article, budget, language), (
                    article, budget)
                checked += 1
        assert checked > 500

    def test_reads_at_most_one_sentence_past_budget(self, monkeypatch):
        pulled = []
        iter_sentences = segment.iter_sentences

        def counting(text, language):
            for sent in iter_sentences(text, language):
                pulled.append(sent)
                yield sent

        monkeypatch.setattr(segment, "iter_sentences", counting)
        article = "a b c. d e. f g h i. j. k l."
        cases = [
            (2, "a b", ["a b c."]),               # first sentence truncated
            (3, "a b c.", ["a b c.", "d e."]),
            (8, "a b c. d e.", ["a b c.", "d e.", "f g h i."]),
            (99, article, split_sentences(article)),
        ]
        for budget, summary, read in cases:
            pulled.clear()
            assert lead_baseline(article, GenerationParams(max_tokens=budget)) \
                == summary
            assert pulled == list(read)

    def test_deterministic(self):
        handle = baseline_handle("english")
        params = GenerationParams(max_tokens=9)
        article = "News text one two. Second sentence words. Third sentence."
        assert summarize(handle, article, params) == summarize(
            handle, article, params
        )


class TestFineTune:
    def test_baseline_not_trainable(self):
        with pytest.raises(InvalidSpec):
            fine_tune(LeadBaselineBackend(), train_split(),
                      SummarizerSpec(model_id="m", epochs=1))

    def test_zero_epochs(self, stub_argv):
        with closing(AdapterBackend(argv=stub_argv())) as backend:
            with pytest.raises(InvalidSpec):
                fine_tune(backend, train_split(),
                          SummarizerSpec(model_id="m", epochs=0))

    def test_wrong_split_kind(self, stub_argv):
        split = DatasetSplit(kind="validation", language="english",
                             records=train_split().records)
        with closing(AdapterBackend(argv=stub_argv())) as backend:
            with pytest.raises(InvalidSpec):
                fine_tune(backend, split, SummarizerSpec(model_id="m", epochs=1))

    def test_summarize_empty_article(self):
        with pytest.raises(EmptyInput):
            summarize(baseline_handle(), "", GenerationParams())


class TestAdapterStdio:
    def test_train_then_generate(self, stub_argv):
        with closing(AdapterBackend(argv=stub_argv())) as backend:
            handle = fine_tune(backend, train_split(4),
                               get_preset("english-pegasus").spec)
            assert handle.checkpoint == "ckpt-4x1"
            out = summarize(handle, "one two three four five six",
                            GenerationParams(max_tokens=3))
            assert out == "one two three"

    def test_generate_without_training(self, stub_argv):
        with closing(AdapterBackend(argv=stub_argv())) as backend:
            handle_out = backend.generate("alpha beta gamma delta",
                                          GenerationParams(max_tokens=2))
            assert handle_out == "alpha beta"

    def test_blank_article_never_starts_the_adapter(self, stub_argv, tmp_path):
        pid_file = tmp_path / "stub.pid"
        handle = TrainedHandle(backend=AdapterBackend(
            argv=stub_argv("--pid-file", str(pid_file))))
        with closing(handle.backend):
            with pytest.raises(EmptyInput,
                               match="^cannot summarize an empty article$"):
                summarize(handle, " ", GenerationParams())
        assert not pid_file.exists()

    def test_adapter_error_response(self, stub_argv):
        with closing(AdapterBackend(
                argv=stub_argv("--fail-op", "generate"))) as backend:
            with pytest.raises(BackendUnavailable):
                backend.generate("some text", GenerationParams())

    def test_malformed_response(self, stub_argv):
        with closing(AdapterBackend(argv=stub_argv("--malformed"))) as backend:
            with pytest.raises(BackendUnavailable):
                backend.generate("some text", GenerationParams())

    @pytest.mark.parametrize("stray, error", [
        (b"stray\n", "adapter sent a malformed response: 'stray\\n'"),
        (b"\xff\n", "adapter transport failed: 'utf-8' codec can't decode"
                    " byte 0xff in position 0: invalid start byte"),
    ], ids=["stray-line", "not-utf8"])
    def test_bad_output_is_the_next_reply(self, stray, error, tmp_path):
        """What an adapter sends after a reply in the same write is read
        as the next reply, and fails it; a fresh adapter then answers."""
        adapter = tmp_path / "stray_adapter.py"
        adapter.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    reply = {'id': json.loads(line)['id'],\n"
            "             'result': {'summary': 'ok'}}\n"
            "    sys.stdout.buffer.write(json.dumps(reply).encode()"
            f" + b'\\n' + {stray!r})\n"
            "    sys.stdout.flush()\n", encoding="utf-8")
        with closing(AdapterBackend(argv=[sys.executable, str(adapter)])) as backend:
            assert backend.generate("a b", GenerationParams()) == "ok"
            with pytest.raises(BackendUnavailable) as info:
                backend.generate("a b", GenerationParams())
            assert str(info.value) == error
            assert backend.generate("a b", GenerationParams()) == "ok"

    def test_crash_mid_session(self, stub_argv):
        with closing(AdapterBackend(argv=stub_argv("--crash-after", "1"))) as backend:
            assert backend.generate("a b c", GenerationParams())
            with pytest.raises(BackendUnavailable):
                backend.generate("a b c", GenerationParams())

    def test_unlaunchable_command(self):
        backend = AdapterBackend(argv=["/nonexistent/adapter-binary"])
        with pytest.raises(BackendUnavailable):
            backend.generate("text", GenerationParams())

    def test_close_kills_an_adapter_that_outlives_terminate(self):
        calls = []

        class StubbornProc:
            def terminate(self):
                calls.append("terminate")

            def wait(self, timeout=None):
                calls.append(("wait", timeout))
                if len(calls) == 2:
                    raise subprocess.TimeoutExpired("adapter", timeout)

            def kill(self):
                calls.append("kill")

        backend = AdapterBackend(argv=["adapter"])
        backend._proc = StubbornProc()
        backend.close()
        assert calls == ["terminate", ("wait", 5), "kill", ("wait", None)]
        assert backend._proc is None

    def test_constructor_argument_validation(self):
        with pytest.raises(ValueError):
            AdapterBackend()
        with pytest.raises(ValueError):
            AdapterBackend(argv=["x"], address=("127.0.0.1", 1))


def large_train_split(*extra):
    """A train split of about 4 MB of article text, then ``extra``."""
    article = "शब्द और text, \"quoted\" here. " * 100
    return DatasetSplit("train", "hindi", tuple(
        ArticleRecord(id=f"r{i}", article=article, summary="s") for i in range(1000)
    ) + extra)


class TestAdapterStreaming:
    """``train`` writes its request record by record: the line is never
    held whole, and a write that fails partway closes the adapter, so
    the next request starts a fresh one."""

    def test_train_memory_does_not_grow_with_the_request(self, stub_argv):
        split = large_train_split()
        spec = SummarizerSpec(model_id="m", epochs=1)
        request = len(json.dumps({"op": "train", "payload": {
            "records": [{"id": r.id, "article": r.article, "summary": r.summary}
                        for r in split.records],
            "spec": dataclasses.asdict(spec)}, "id": 1},
            ensure_ascii=False).encode("utf-8"))
        assert request > 4_000_000
        with closing(AdapterBackend(argv=stub_argv())) as backend:
            tracemalloc.start()
            try:
                assert backend.train(split, spec) == "ckpt-1000x1"
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < request / 4

    def test_augmented_copies_are_never_held(self, stub_argv):
        """An augmented split's noise copies are made as ``train`` sends
        them, so the request holds at most one at a time."""
        split = large_train_split()
        spec = SummarizerSpec(model_id="m", epochs=1)
        with closing(AdapterBackend(argv=stub_argv())) as backend:
            tracemalloc.start()
            try:
                augmented = augment_split(split, noise_rate=0.1)
                assert backend.train(augmented, spec) == "ckpt-2000x1"
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        copies = sum(len(add_noise(r, 0.1, DEFAULT_SEED + pos).article.encode("utf-8"))
                     for pos, r in enumerate(split.records))
        assert copies > 3_000_000
        assert peak < copies / 4

    def test_blank_noise_copy_partway(self, stub_argv, tmp_path):
        """A blank noise copy stops the request with ``EmptyArticle``, and
        the next request starts a fresh adapter."""
        pid_file = tmp_path / "stub.pid"
        split = DatasetSplit("train", "english", (
            ArticleRecord("a0", "A long article body.", summary="s"),
            ArticleRecord("a1", "S one.", summary="s")))
        with closing(AdapterBackend(
                argv=stub_argv("--pid-file", str(pid_file)))) as backend:
            assert backend.generate("a b c", GenerationParams(max_tokens=2)) == "a b"
            first = pid_file.read_text()
            with pytest.raises(EmptyArticle, match="^noise copy 'a0-noise' "):
                backend.train(augment_split(split, noise_rate=1.0),
                              SummarizerSpec(model_id="m", epochs=1))
            assert backend.generate("a b c", GenerationParams(max_tokens=2)) == "a b"
            assert pid_file.read_text() != first

    def test_unencodable_record_partway(self, stub_argv, tmp_path):
        pid_file = tmp_path / "stub.pid"
        split = large_train_split(ArticleRecord("bad", "Lone \ud800 half.", summary="s"))
        with closing(AdapterBackend(
                argv=stub_argv("--pid-file", str(pid_file)))) as backend:
            assert backend.generate("a b c", GenerationParams(max_tokens=2)) == "a b"
            first = pid_file.read_text()
            with pytest.raises(BackendUnavailable, match=r"^adapter transport failed: "
                               r"'utf-8' codec can't encode character '\\ud800'"):
                backend.train(split, SummarizerSpec(model_id="m", epochs=1))
            assert backend.generate("a b c", GenerationParams(max_tokens=2)) == "a b"
            assert pid_file.read_text() != first

    def test_unserializable_record_partway(self, stub_argv, tmp_path):
        """The error of a record that is not JSON text passes through, and
        the torn line never reaches the adapter's next request."""
        pid_file = tmp_path / "stub.pid"
        split = large_train_split(ArticleRecord("bad", b"bytes", summary="s"))
        with closing(AdapterBackend(
                argv=stub_argv("--pid-file", str(pid_file)))) as backend:
            assert backend.generate("a b c", GenerationParams(max_tokens=2)) == "a b"
            first = pid_file.read_text()
            with pytest.raises(TypeError, match="bytes is not JSON serializable"):
                backend.train(split, SummarizerSpec(model_id="m", epochs=1))
            assert backend.generate("a b c", GenerationParams(max_tokens=2)) == "a b"
            assert pid_file.read_text() != first

    def test_adapter_exits_partway(self, tmp_path):
        adapter = tmp_path / "short_reader.py"
        adapter.write_text(
            "import json, sys\n"
            "for line in iter(lambda: sys.stdin.buffer.readline(65536), b''):\n"
            "    if not line.endswith(b'\\n'):\n"
            "        sys.exit()  # read 64 KiB of a longer request\n"
            "    reply = {'id': json.loads(line)['id'], 'result': {'summary': 'ok'}}\n"
            "    print(json.dumps(reply), flush=True)\n", encoding="utf-8")
        with closing(AdapterBackend(argv=[sys.executable, str(adapter)])) as backend:
            with pytest.raises(BackendUnavailable,
                               match="^adapter transport failed: "):
                backend.train(large_train_split(), SummarizerSpec(model_id="m", epochs=1))
            assert backend.generate("a b", GenerationParams()) == "ok"


class TestAdapterSocket:
    @pytest.fixture
    def socket_stub(self, stub_argv):
        proc = subprocess.Popen(
            stub_argv("--port", "0"),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = int(proc.stdout.readline())
            yield ("127.0.0.1", port)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_round_trip_over_socket(self, socket_stub):
        with closing(AdapterBackend(address=socket_stub)) as backend:
            handle = fine_tune(backend, train_split(2),
                               SummarizerSpec(model_id="m", epochs=5))
            assert handle.checkpoint == "ckpt-2x5"
            out = summarize(handle, "uno dos tres cuatro",
                            GenerationParams(max_tokens=2))
            assert out == "uno dos"

    def test_unreachable_port(self, monkeypatch):
        monkeypatch.setattr(backends, "ADAPTER_TIMEOUT", 0.5)
        backend = AdapterBackend(address=("127.0.0.1", 1))
        with pytest.raises(BackendUnavailable):
            backend.generate("text", GenerationParams())


def call_within(seconds, call, kill):
    """Run ``call()`` in a thread; return ``(outcome, elapsed)``, where
    ``outcome`` holds what it returned or raised.  A call still running
    after ``seconds`` fails the test, after ``kill()`` has ended the
    adapter so that the thread returns."""
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    start = time.monotonic()
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        kill()
        thread.join(10)
        pytest.fail(f"adapter call still waiting after {seconds} s")
    return outcome, time.monotonic() - start


class TestAdapterDeadlines:
    """Over both transports: ``generate`` gives up after
    ``ADAPTER_TIMEOUT``, ``train`` waits as long as the adapter lives,
    and an adapter that dies ends any wait."""

    @pytest.fixture(params=["stdio", "socket"])
    def open_adapter(self, request, stub_argv, tmp_path, monkeypatch):
        """Builder of ``(backend, kill)`` over a stub started with
        ``flags``, under an ``ADAPTER_TIMEOUT`` of ``timeout``;
        ``kill()`` ends the stub process."""
        servers = []

        def build(*flags, timeout):
            monkeypatch.setattr(backends, "ADAPTER_TIMEOUT", timeout)
            if request.param == "stdio":
                pid_file = tmp_path / "stub.pid"
                argv = stub_argv(*flags, "--pid-file", str(pid_file))

                def kill():
                    os.kill(int(pid_file.read_text()), signal.SIGKILL)

                return AdapterBackend(argv=argv), kill
            proc = subprocess.Popen(stub_argv(*flags, "--port", "0"),
                                    stdout=subprocess.PIPE, text=True)
            servers.append(proc)
            address = ("127.0.0.1", int(proc.stdout.readline()))
            return AdapterBackend(address=address), proc.kill

        yield build
        for proc in servers:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    @pytest.mark.parametrize("op", ["generate"])
    def test_stalled_request_times_out(self, open_adapter, op):
        backend, kill = open_adapter("--delay-op", op, "--delay", "60",
                                     timeout=0.5)
        with closing(backend):
            outcome, elapsed = call_within(10, lambda: backend.generate(
                "a b c", GenerationParams()), kill)
        assert isinstance(outcome.get("error"), BackendUnavailable)
        assert "timed out" in str(outcome["error"])
        assert elapsed < 5

    def test_train_longer_than_timeout(self, open_adapter):
        backend, kill = open_adapter("--delay-op", "train", "--delay", "1.5",
                                     timeout=0.5)
        with closing(backend):
            outcome, _ = call_within(10, lambda: fine_tune(
                backend, train_split(3), SummarizerSpec(model_id="m", epochs=1),
            ), kill)
            assert outcome.get("result") is not None, outcome.get("error")
            assert outcome["result"].checkpoint == "ckpt-3x1"
            # The deadline is back for the next generate.
            assert backend.generate("a b c", GenerationParams(max_tokens=2)) == "a b"

    def test_crash_ends_an_unbounded_wait(self, open_adapter):
        backend, kill = open_adapter("--crash-after", "1", timeout=60)
        with closing(backend):
            assert backend.generate("a b c", GenerationParams())
            # train has no deadline: only the closed connection ends it.
            outcome, elapsed = call_within(10, lambda: backend.train(
                train_split(2), SummarizerSpec(model_id="m", epochs=1),
            ), kill)
        assert isinstance(outcome.get("error"), BackendUnavailable)
        assert elapsed < 5


ARTICLES = ["a1 b1 c1", "a2 b2 c2", "a3 b3 c3"]
TWO_WORDS = GenerationParams(max_tokens=2)


def sequential_outcome(backend):
    """The summaries a loop over ``generate`` gets, and what it raised."""
    got = []
    try:
        for article in ARTICLES:
            got.append(backend.generate(article, TWO_WORDS))
    except BackendUnavailable as exc:
        return got, str(exc)
    return got, None


def pipelined_outcome(backend):
    """The summaries ``generate_all`` yields, and what it raised."""
    got = []
    try:
        for summary in backend.generate_all(ARTICLES, TWO_WORDS):
            got.append(summary)
    except BackendUnavailable as exc:
        return got, str(exc)
    return got, None


class TestAdapterPipelined:
    """``generate_all`` writes one request ahead, yet gives what a loop
    over ``generate`` gives: the same summaries, and each error after
    the summaries before it, leaving the backend as usable."""

    def test_summaries_in_order_then_generate(self, stub_argv):
        with closing(AdapterBackend(argv=stub_argv())) as backend:
            assert list(backend.generate_all(ARTICLES, TWO_WORDS)) == [
                "a1 b1", "a2 b2", "a3 b3"]
            assert list(backend.generate_all([], TWO_WORDS)) == []
            assert backend.generate("x y z", TWO_WORDS) == "x y"

    def test_next_request_is_written_before_the_reply_is_read(self,
                                                                ahead_adapter):
        argv, log = ahead_adapter(len(ARTICLES))
        with closing(AdapterBackend(argv=argv)) as backend:
            assert list(backend.generate_all(ARTICLES, TWO_WORDS)) == [
                "a1 b1", "a2 b2", "a3 b3"]
        assert log.read_text(encoding="utf-8").split("\n") == [
            "1 ahead", "2 ahead", "3 alone", ""]

    @pytest.mark.parametrize("served", [0, 1, len(ARTICLES) - 1],
                             ids=["first", "middle", "last"])
    def test_crash_fails_the_record_the_loop_fails(self, served, stub_argv):
        flags = ("--crash-after", str(served))
        with closing(AdapterBackend(argv=stub_argv(*flags))) as backend:
            expected = sequential_outcome(backend)
        with closing(AdapterBackend(argv=stub_argv(*flags))) as backend:
            assert pipelined_outcome(backend) == expected
        assert expected == (["a1 b1", "a2 b2", "a3 b3"][:served],
                            "adapter closed the connection")

    def test_exit_with_a_request_unread_reads_as_closed(self, tmp_path):
        """An adapter that exits with a request still unread resets the
        connection; that reads as the close it is, for the record whose
        reply never came."""
        adapter = tmp_path / "one_reply.py"
        adapter.write_text(
            "import json, os, time\n"
            "line = b''\n"
            "while not line.endswith(b'\\n'):\n"
            "    line += os.read(0, 1)  # leaves request 2 unread\n"
            "reply = {'id': json.loads(line)['id'], 'result': {'summary': 'ok'}}\n"
            "os.write(1, json.dumps(reply).encode() + b'\\n')\n"
            "time.sleep(0.2)\n", encoding="utf-8")
        with closing(AdapterBackend(argv=[sys.executable, str(adapter)])) as backend:
            assert pipelined_outcome(backend) == (
                ["ok"], "adapter closed the connection")

    def test_adapter_error_leaves_the_backend_usable(self, stub_argv, tmp_path):
        """The reply written ahead is read before the error is raised, so
        the next request reads its own reply from the same adapter."""
        pid_file = tmp_path / "stub.pid"
        with closing(AdapterBackend(argv=stub_argv(
                "--fail-op", "generate", "--fail-count", "1",
                "--pid-file", str(pid_file)))) as backend:
            assert pipelined_outcome(backend) == (
                [], "adapter error: stub was told to fail op 'generate'")
            first = pid_file.read_text()
            assert backend.generate("x y z", TWO_WORDS) == "x y"
            assert pid_file.read_text() == first

    def test_malformed_reply(self, stub_argv):
        with closing(AdapterBackend(argv=stub_argv("--malformed"))) as backend:
            assert pipelined_outcome(backend) == (
                [], "adapter sent a malformed response:"
                    " 'this is not a json response\\n'")

    def test_stray_line_fails_the_next_record(self, tmp_path):
        adapter = tmp_path / "stray_adapter.py"
        adapter.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    reply = {'id': json.loads(line)['id'],\n"
            "             'result': {'summary': 'ok'}}\n"
            "    print(json.dumps(reply) + '\\nstray', flush=True)\n",
            encoding="utf-8")
        with closing(AdapterBackend(argv=[sys.executable, str(adapter)])) as backend:
            assert pipelined_outcome(backend) == (
                ["ok"], "adapter sent a malformed response: 'stray\\n'")

    def test_stalled_reply_times_out(self, stub_argv, tmp_path, monkeypatch):
        monkeypatch.setattr(backends, "ADAPTER_TIMEOUT", 0.5)
        pid_file = tmp_path / "stub.pid"
        backend = AdapterBackend(argv=stub_argv(
            "--delay-op", "generate", "--delay", "60", "--pid-file", str(pid_file)))
        with closing(backend):
            outcome, elapsed = call_within(
                10, lambda: pipelined_outcome(backend),
                lambda: os.kill(int(pid_file.read_text()), signal.SIGKILL))
        assert outcome["result"] == ([], "adapter transport failed: timed out")
        assert elapsed < 5

    @pytest.mark.parametrize("stop", ["close", "throw", "del"])
    def test_abandoned_after_one_summary(self, stop, stub_argv, tmp_path):
        """A caller that stops after one summary leaves one reply in
        flight; it is read and dropped, so ``generate`` gets its own."""
        pid_file = tmp_path / "stub.pid"
        with closing(AdapterBackend(
                argv=stub_argv("--pid-file", str(pid_file)))) as backend:
            summaries = backend.generate_all(ARTICLES, TWO_WORDS)
            assert next(summaries) == "a1 b1"
            first = pid_file.read_text()
            if stop == "close":
                summaries.close()
            elif stop == "throw":
                with pytest.raises(KeyError):
                    summaries.throw(KeyError("stop"))
            else:
                del summaries
            assert backend.generate("x y z", TWO_WORDS) == "x y"
            assert pid_file.read_text() == first

    def test_bad_article_comes_in_its_turn(self, stub_argv):
        """An error of the articles' own comes after every summary
        before it, and writes nothing, so the adapter stays in step."""
        def articles():
            yield ARTICLES[0]
            raise ValueError("no second article")

        with closing(AdapterBackend(argv=stub_argv())) as backend:
            summaries = backend.generate_all(articles(), TWO_WORDS)
            assert next(summaries) == "a1 b1"
            with pytest.raises(ValueError, match="no second article"):
                next(summaries)
            assert backend.generate("x y z", TWO_WORDS) == "x y"

    def test_failed_write_comes_after_the_reply_before_it(self, tmp_path):
        """Request 3 cannot be written once the adapter has gone, but reply
        2 was sent before: summary 2 comes first, then the write's error."""
        adapter = tmp_path / "two_replies.py"
        adapter.write_text(
            "import json, sys\n"
            "for served, line in enumerate(sys.stdin, start=1):\n"
            "    reply = {'id': json.loads(line)['id'], 'result': {'summary': 'ok'}}\n"
            "    print(json.dumps(reply), flush=True)\n"
            "    if served == 2:\n"
            "        break\n", encoding="utf-8")
        with closing(AdapterBackend(argv=[sys.executable, str(adapter)])) as backend:
            summaries = backend.generate_all(ARTICLES, TWO_WORDS)
            assert next(summaries) == "ok"
            backend._proc.wait(timeout=10)  # gone before request 3 is written
            assert next(summaries) == "ok"
            with pytest.raises(BackendUnavailable, match=r"^adapter transport"
                               r" failed: \[Errno 32\] Broken pipe$"):
                next(summaries)
            assert backend.generate("x y z", TWO_WORDS) == "ok"

    def test_interrupted_write_closes_the_connection(self, stub_argv, tmp_path,
                                                     monkeypatch):
        """A write cut off by ``KeyboardInterrupt`` leaves a torn request,
        so the connection closes and the next request starts a fresh
        adapter, which never reads the torn line."""
        pid_file = tmp_path / "stub.pid"
        with closing(AdapterBackend(
                argv=stub_argv("--pid-file", str(pid_file)))) as backend:
            assert backend.generate("a b c", TWO_WORDS) == "a b"
            first = pid_file.read_text()
            write = backend._stream.write

            def interrupted(text):
                if text.startswith(', "id": '):
                    raise KeyboardInterrupt
                return write(text)

            monkeypatch.setattr(backend._stream, "write", interrupted)
            with pytest.raises(KeyboardInterrupt):
                backend.generate("x y z", TWO_WORDS)
            assert backend._sock is None
            assert backend.generate("x y z", TWO_WORDS) == "x y"
            assert pid_file.read_text() != first

    def test_closed_while_suspended(self, stub_argv):
        with closing(AdapterBackend(argv=stub_argv())) as backend:
            summaries = backend.generate_all(ARTICLES, TWO_WORDS)
            assert next(summaries) == "a1 b1"
            backend.close()
            with pytest.raises(BackendUnavailable,
                               match="^adapter closed the connection$"):
                next(summaries)
            assert backend.generate("x y z", TWO_WORDS) == "x y"
