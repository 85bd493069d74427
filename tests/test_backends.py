import random
import subprocess

import pytest

from indicsum.backends import (
    AdapterBackend,
    GenerationParams,
    LeadBaselineBackend,
    PRESETS,
    SummarizerSpec,
    baseline_handle,
    fine_tune,
    get_preset,
    lead_baseline,
    scorer_from_handle,
    summarize,
)
from indicsum.corpus import ArticleRecord, DatasetSplit
from indicsum.errors import BackendUnavailable, ConfigError, EmptyInput, InvalidSpec
from indicsum.segment import split_sentences, tokenize_words


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
        SummarizerSpec(model_id="m", epochs=1).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_id": ""},
            {"epochs": 0},
            {"weight_decay": -0.1},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"max_input_tokens": 0},
        ],
    )
    def test_invalid_spec_fields(self, kwargs):
        base = {"model_id": "m", "epochs": 1}
        base.update(kwargs)
        with pytest.raises(InvalidSpec):
            SummarizerSpec(**base).validate()

    def test_generation_params(self):
        GenerationParams(max_tokens=1).validate()
        with pytest.raises(InvalidSpec):
            GenerationParams(max_tokens=0).validate()


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
        with AdapterBackend(argv=stub_argv()) as backend:
            with pytest.raises(InvalidSpec):
                fine_tune(backend, train_split(),
                          SummarizerSpec(model_id="m", epochs=0))

    def test_wrong_split_kind(self, stub_argv):
        split = DatasetSplit(kind="validation", language="english",
                             records=train_split().records)
        with AdapterBackend(argv=stub_argv()) as backend:
            with pytest.raises(InvalidSpec):
                fine_tune(backend, split, SummarizerSpec(model_id="m", epochs=1))

    def test_summarize_empty_article(self):
        with pytest.raises(EmptyInput):
            summarize(baseline_handle(), "", GenerationParams())


class TestAdapterStdio:
    def test_train_then_generate(self, stub_argv):
        with AdapterBackend(argv=stub_argv()) as backend:
            handle = fine_tune(backend, train_split(4),
                               get_preset("english-pegasus").spec)
            assert handle.checkpoint == "ckpt-4x1"
            out = summarize(handle, "one two three four five six",
                            GenerationParams(max_tokens=3))
            assert out == "one two three"

    def test_generate_without_training(self, stub_argv):
        with AdapterBackend(argv=stub_argv(), trainable=False) as backend:
            handle_out = backend.generate("alpha beta gamma delta",
                                          GenerationParams(max_tokens=2))
            assert handle_out == "alpha beta"

    def test_score_vector(self, stub_argv):
        with AdapterBackend(argv=stub_argv()) as backend:
            handle = fine_tune(backend, train_split(),
                               get_preset("extractive-bert").spec)
            scorer = scorer_from_handle(handle)
            scores = scorer(["s one.", "s two.", "s three."])
            assert scores == pytest.approx([0.25, 0.5, 0.75])

    def test_adapter_error_response(self, stub_argv):
        with AdapterBackend(argv=stub_argv("--fail-op", "generate")) as backend:
            with pytest.raises(BackendUnavailable):
                backend.generate("some text", GenerationParams())

    def test_malformed_response(self, stub_argv):
        with AdapterBackend(argv=stub_argv("--malformed")) as backend:
            with pytest.raises(BackendUnavailable):
                backend.generate("some text", GenerationParams())

    def test_crash_mid_session(self, stub_argv):
        with AdapterBackend(argv=stub_argv("--crash-after", "1")) as backend:
            assert backend.generate("a b c", GenerationParams())
            with pytest.raises(BackendUnavailable):
                backend.generate("a b c", GenerationParams())

    def test_unlaunchable_command(self):
        backend = AdapterBackend(argv=["/nonexistent/adapter-binary"])
        with pytest.raises(BackendUnavailable):
            backend.generate("text", GenerationParams())

    def test_constructor_argument_validation(self):
        with pytest.raises(ValueError):
            AdapterBackend()
        with pytest.raises(ValueError):
            AdapterBackend(argv=["x"], address=("127.0.0.1", 1))


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
        with AdapterBackend(address=socket_stub) as backend:
            handle = fine_tune(backend, train_split(2),
                               SummarizerSpec(model_id="m", epochs=5))
            assert handle.checkpoint == "ckpt-2x5"
            out = summarize(handle, "uno dos tres cuatro",
                            GenerationParams(max_tokens=2))
            assert out == "uno dos"

    def test_unreachable_port(self):
        backend = AdapterBackend(address=("127.0.0.1", 1), timeout=0.5)
        with pytest.raises(BackendUnavailable):
            backend.generate("text", GenerationParams())
