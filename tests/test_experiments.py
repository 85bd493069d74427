import csv
import dataclasses
import errno
import fcntl
import gc
import json
import os
import re
import resource
import shlex
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import closing, contextmanager
from pathlib import Path

import pytest

import indicsum
from indicsum import backends, corpus, experiments, jsonlog
from indicsum.backends import (PRESETS, AdapterBackend, GenerationParams,
                               SummarizerSpec, TrainedHandle, baseline_handle)
from indicsum.cli import main
from indicsum.corpus import ArticleRecord, DatasetSplit
from indicsum.crosslingual import TableTranslator, TranslationCache
from indicsum.errors import (BackendUnavailable, ConfigError, EmptyArticle,
                             EmptyInput, EmptyReport, MissingGoldSummary,
                             NoAlignment, TranslationFailure)
from indicsum.experiments import (
    CONFIG_KEYS,
    ExperimentConfig,
    RunRecord,
    config_hash,
    load_runs,
    parse_config_file,
    render_report,
    run_experiment,
    summarize_split,
)
from indicsum.rouge import corpus_rouge, rouge_n
from indicsum.segment import split_sentences

from conftest import STUB_PATH

ENG_ROWS = [
    ["e1", "", "h1",
     "Rain hit the coast early. Trains were delayed for hours. Schools shut.",
     "Rain hit the coast early."],
    ["e2", "", "h2",
     "The council met on Monday. A new budget was approved. Roads come first.",
     "The council met on Monday."],
    ["e3", "", "h3",
     "Farmers finished the harvest. Prices rose at the market.",
     "Farmers finished the harvest."],
]


SRC_DIR = str(Path(indicsum.__file__).resolve().parents[1])


@pytest.fixture
def eval_csv(write_csv):
    return write_csv(ENG_ROWS)


@contextmanager
def held_flock(directory):
    """Hold an exclusive flock on ``directory`` from this process."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


def base_config(eval_csv, tmp_path, **kw):
    defaults = dict(
        language="english",
        eval_path=str(eval_csv),
        output_dir=str(tmp_path / "out"),
        max_tokens=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigParsing:
    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        body = ("language = english\n"
                "\n"
                "eval = val.csv\n"
                "output_dir = out\n"
                "seed = 21\n"
                "seed = 22\n")
        # The second input starts with a BOM, as some editors save files.
        for text in ("# a comment\n" + body, "\ufeff" + body):
            cfg.write_text(text, encoding="utf-8")
            mapping = parse_config_file(cfg)
            assert mapping["language"] == "english"
            assert mapping["seed"] == "22"

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("language english\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_from_mapping_requires_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"language": "english"})

    def test_from_mapping_full(self):
        config = ExperimentConfig.from_mapping(
            {
                "language": "hindi",
                "eval": "v.csv",
                "output_dir": "o",
                "train": "t.csv",
                "preset": "hindi-indicbart",
                "augment": "right-shift, noise:0.2",
                "augment_append": "false",
                "pipeline": "direct",
                "threshold": "0.7",
                "max_tokens": "60",
                "seed": "5",
            }
        )
        assert config.augmentations == ("right-shift", "noise:0.2")
        assert config.augment_append is False
        assert config.threshold == 0.7
        assert config.max_tokens == 60

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(
                {"language": "english", "eval": "v", "output_dir": "o",
                 "augment_append": "maybe"}
            )

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(
                {"language": "english", "eval": "v", "output_dir": "o",
                 "seed": "thirteen"}
            )

    def test_inline_spec(self):
        config = ExperimentConfig.from_mapping(
            {"language": "english", "eval": "v", "output_dir": "o",
             "model_id": "my/model", "epochs": "2", "weight_decay": "0.01"}
        )
        assert config.spec == SummarizerSpec(
            model_id="my/model", epochs=2, weight_decay=0.01
        )

    @pytest.mark.parametrize("extra, message", [
        ({"max_token": "5"}, "unknown config key 'max_token'"),
        ({"model_id": "m"}, "config is missing required key 'epochs'"),
    ])
    def test_rejected_keys(self, extra, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_mapping(
                {"language": "english", "eval": "v", "output_dir": "o",
                 **extra}
            )

    def test_readme_lists_every_key(self):
        """README's "Recognized keys" list, one ``- `key`:`` item per
        key, names exactly the keys that ``from_mapping`` reads."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("Recognized keys")[1]
        items = re.search(r"(?:^(?:- |  ).*\n)+", section, re.M).group()
        listed = re.findall(r"^- `(\w+)`:", items, re.M)
        assert sorted(listed) == sorted(CONFIG_KEYS)


class TestConfigHash:
    def test_stable(self, eval_csv, tmp_path):
        a = base_config(eval_csv, tmp_path)
        b = base_config(eval_csv, tmp_path)
        assert config_hash(a) == config_hash(b)

    def test_changes_with_every_field(self, eval_csv, tmp_path):
        base = base_config(eval_csv, tmp_path)
        baseline = config_hash(base)
        tweaks = dict(
            language="hindi",
            eval_path="other.csv",
            output_dir="elsewhere",
            eval_kind="test",
            train_path="t.csv",
            preset="english-t5",
            spec=SummarizerSpec(model_id="m", epochs=1),
            augmentations=("right-shift",),
            augment_append=False,
            pipeline="translate-map",
            translator="table:x.tsv",
            threshold=0.5,
            max_tokens=9,
            seed=14,
            adapter="cmd",
            socket="127.0.0.1:5",
        )
        assert set(tweaks) == {f.name for f in dataclasses.fields(base)}
        for name, value in tweaks.items():
            changed = dataclasses.replace(base, **{name: value})
            assert config_hash(changed) != baseline, name


    # Digests as computed before a preset's pipeline became the default:
    # a config that names its pipeline, or whose preset (or lack of one)
    # means direct, hashes as it did.  Only a translate-map preset
    # without a pipeline key, which used to run direct, moves.
    @pytest.mark.parametrize("overrides,digest", [
        ({}, "eb6aeb4ca9e8f1e18fae71547535d922a17fc2a4bd4b157bf54042d9f7d2d073"),
        ({"pipeline": "direct"},
         "eb6aeb4ca9e8f1e18fae71547535d922a17fc2a4bd4b157bf54042d9f7d2d073"),
        ({"preset": "english-t5"},
         "45ed4fd83590926002e9524b2f17d64ff4bf524d1fbf2b5bbb71934f3e4f501c"),
        ({"pipeline": "translate-map"},
         "a26d5dc18f9d53c7cb5611918207c789b95a9b56ee60f9a5404a9618d4a9ee22"),
        ({"language": "gujarati", "preset": "gujarati-translate-map",
          "pipeline": "translate-map"},
         "6bb72aaec747ebc74a5e76d7dcd5eeee7dff1e836059a7f7dbfa31b6e62a1e3e"),
        ({"language": "gujarati", "preset": "gujarati-translate-map"},
         "6bb72aaec747ebc74a5e76d7dcd5eeee7dff1e836059a7f7dbfa31b6e62a1e3e"),
    ])
    def test_pipeline_hashes_as_resolved(self, overrides, digest):
        config = ExperimentConfig(**{"language": "english", "eval_path": "v.csv",
                                     "output_dir": "out", **overrides})
        assert config_hash(config) == digest


class TestRunExperiment:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_runs_its_pipeline(self, name, eval_csv, tmp_path):
        preset = PRESETS[name]
        run = run_experiment(ExperimentConfig(
            language=preset.language, eval_path=str(eval_csv),
            output_dir=str(tmp_path / "out"), preset=name,
        ))
        # No adapter serves a preset here, so the lead baseline made the
        # summaries and the results table names it, after its pipeline.
        assert run.approach == ("translate-map+lead-baseline"
                                if preset.pipeline == "translate-map"
                                else "lead-baseline")
        assert len(run.records) == len(ENG_ROWS)
        cache = tmp_path / "out" / "translation-cache.jsonl"
        assert cache.exists() == (preset.pipeline == "translate-map")

    @pytest.mark.parametrize("language,preset,pipeline", [
        ("english", "english-t5", "translate-map"),
        ("gujarati", "gujarati-translate-map", "direct"),
    ])
    def test_pipeline_other_than_presets_rejected(self, language, preset,
                                                  pipeline, eval_csv, tmp_path):
        config = base_config(eval_csv, tmp_path, language=language,
                             preset=preset, pipeline=pipeline)
        with pytest.raises(ConfigError, match=f"preset {preset!r} runs the"
                                              f" {PRESETS[preset].pipeline}"
                                              f" pipeline, not {pipeline}"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    def test_aggregate_matches_recomputation(self, eval_csv, tmp_path):
        run = run_experiment(base_config(eval_csv, tmp_path))
        refs = {row[0]: row[4] for row in ENG_ROWS}
        pairs = [(r["summary"], refs[r["id"]]) for r in run.records]
        again = corpus_rouge(pairs)
        for n in (1, 2, 4):
            assert run.aggregate[str(n)]["f1"] == pytest.approx(
                again[n].f1, abs=1e-12
            )
        for row in run.records:
            for n in (1, 2, 4):
                single = rouge_n(row["summary"], refs[row["id"]], n)
                for key in ("precision", "recall", "f1"):
                    assert row["scores"][str(n)][key] == pytest.approx(
                        getattr(single, key), abs=1e-12
                    )
        assert run.approach == "lead-baseline"

    def test_determinism_and_append_only_log(self, eval_csv, tmp_path):
        config = base_config(eval_csv, tmp_path)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.config_hash == second.config_hash
        assert first.aggregate == second.aggregate
        assert first.records == second.records
        log = tmp_path / "out" / "runs.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2

    def test_summaries_csv_written(self, eval_csv, tmp_path):
        run = run_experiment(base_config(eval_csv, tmp_path))
        path = tmp_path / "out" / f"summaries-{run.config_hash[:12]}.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "Summary"]
        assert [r[0] for r in rows[1:]] == ["e1", "e2", "e3"]

    def test_lock_conflict(self, eval_csv, tmp_path):
        config = base_config(eval_csv, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        with held_flock(out), pytest.raises(ConfigError):
            run_experiment(config)

    def test_lock_released_after_run(self, eval_csv, tmp_path):
        config = base_config(eval_csv, tmp_path)
        run_experiment(config)
        assert not (tmp_path / "out" / ".lock").exists()
        # Raises BlockingIOError if the run still held the lock.
        with held_flock(tmp_path / "out"):
            pass

    def test_killed_lock_holder_does_not_block(self, eval_csv, tmp_path):
        config = base_config(eval_csv, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        holder_code = (
            "import sys\n"
            "from indicsum.experiments import directory_lock\n"
            "with directory_lock(sys.argv[1]):\n"
            "    print('locked', flush=True)\n"
            "    sys.stdin.read()\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", holder_code, str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        ) as holder:
            assert holder.stdout.readline() == "locked\n"
            with pytest.raises(ConfigError):
                run_experiment(config)
            os.kill(holder.pid, signal.SIGKILL)
            assert holder.wait(timeout=10) == -signal.SIGKILL
        run = run_experiment(config)
        assert [r["id"] for r in run.records] == ["e1", "e2", "e3"]

    def test_preset_language_mismatch(self, eval_csv, tmp_path):
        config = base_config(eval_csv, tmp_path, preset="hindi-indicbart")
        with pytest.raises(ConfigError, match="preset 'hindi-indicbart' is for"
                                              " hindi, not english"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    def test_unknown_preset(self, eval_csv, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(base_config(eval_csv, tmp_path, preset="nope"))

    def test_missing_eval_file(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(
                ExperimentConfig(language="english", eval_path="missing.csv",
                                 output_dir=str(tmp_path))
            )

    @pytest.mark.parametrize("step", ["noise:abc", "noise:7", "noise0.2"])
    def test_bad_augmentation_step_rejected_without_training(self, step,
                                                             eval_csv, tmp_path):
        # no train split: the steps would never run, but still must parse
        with pytest.raises(ConfigError, match="noise|augmentation"):
            run_experiment(base_config(eval_csv, tmp_path, augmentations=(step,)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, message", [
        ({"max_tokens": 0}, "max_tokens must be >= 1, got 0"),
        ({"eval_kind": "bogus"}, "unknown eval_kind 'bogus'"),
    ])
    def test_bad_setting_rejected_before_training(self, setting, message,
                                                  write_csv, eval_csv, tmp_path):
        # The adapter does not exist: reaching it would raise
        # BackendUnavailable instead of the config error.
        train = write_csv([["t1", "", "", "Train body one.", "Train body one."]])
        config = base_config(eval_csv, tmp_path, preset="english-pegasus",
                             train_path=str(train), adapter="/nonexistent/adapter",
                             **setting)
        with pytest.raises(ConfigError, match=message):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("translator, key, error, message", [
        ("table:/nonexistent.tsv", None, ConfigError,
         "translator table does not exist"),
        ("bogus", None, ConfigError, "unknown translator 'bogus'"),
        ("live:http://127.0.0.1:9/translate", None, TranslationFailure,
         "TRANSLATE_API_KEY is not set"),
        ("live:notaurl", "k", ConfigError,
         "^live: needs an http\\(s\\) URL with a host, got 'notaurl'$"),
        ("live:", "k", ConfigError,
         "^live: needs an http\\(s\\) URL with a host, got ''$"),
    ], ids=["missing-table", "unknown", "live-without-key", "live-not-a-url",
            "live-empty-url"])
    def test_bad_translator_rejected_before_training(
        self, translator, key, error, message, write_csv, tmp_path,
        gujarati_records, monkeypatch,
    ):
        # A stub that fails the train op: reaching it would raise
        # BackendUnavailable instead of the translator error.
        if key is None:
            monkeypatch.delenv("TRANSLATE_API_KEY", raising=False)
        else:
            monkeypatch.setenv("TRANSLATE_API_KEY", key)
        rows = [[r.id, "", "", r.article, r.summary] for r in gujarati_records[:2]]
        pid_file = tmp_path / "stub.pid"
        config = base_config(
            write_csv(rows), tmp_path, language="gujarati",
            pipeline="translate-map", translator=translator,
            spec=SummarizerSpec(model_id="m", epochs=1),
            train_path=str(write_csv(rows)),
            adapter=shlex.join([sys.executable, str(STUB_PATH), "--fail-op",
                                "train", "--pid-file", str(pid_file)]),
        )
        with pytest.raises(error, match=message):
            run_experiment(config)
        assert not pid_file.exists()
        assert not (tmp_path / "out").exists()

    def test_unscorable_eval_split_rejected_before_training(self, write_csv,
                                                            tmp_path):
        train = write_csv([["t1", "", "", "पहला वाक्य यहाँ है। दूसरा वाक्य।",
                            "पहला वाक्य यहाँ है।"]])
        no_gold = write_csv([["x9", "", "", "कोई वाक्य यहाँ है।"]],
                            header=("id", "Link", "Heading", "Article"))
        pid_file = tmp_path / "stub.pid"
        config = base_config(
            no_gold, tmp_path, language="hindi", preset="hindi-indicbart",
            train_path=str(train),
            adapter=shlex.join([sys.executable, str(STUB_PATH),
                                "--pid-file", str(pid_file)]),
        )
        with pytest.raises(MissingGoldSummary, match="'x9'"):
            run_experiment(config)
        assert not pid_file.exists()
        assert not (tmp_path / "out").exists()

    def test_translation_errors_come_before_generation(self, write_csv,
                                                       tmp_path,
                                                       gujarati_records):
        # Every record's translation runs before any generate call, so a
        # sentence of the last record with no table entry is the error,
        # not the adapter failing the first record's generate.
        records = gujarati_records[:3]
        earlier = {s for r in records[:-1]
                   for s in split_sentences(r.article, "gujarati")}
        last = records[-1]
        missing = next(s for s in split_sentences(last.article, "gujarati")
                       if s not in earlier)
        table = tmp_path / "table.tsv"
        table.write_text("".join(
            f"{s}\t{s}\n" for r in records
            for s in split_sentences(r.article, "gujarati") if s != missing
        ), encoding="utf-8")
        config = base_config(
            write_csv([[r.id, "", "", r.article, r.summary] for r in records]),
            tmp_path, language="gujarati", pipeline="translate-map",
            translator=f"table:{table}",
            adapter=shlex.join([sys.executable, str(STUB_PATH),
                                "--fail-op", "generate"]),
        )
        with pytest.raises(TranslationFailure) as info:
            run_experiment(config)
        assert str(info.value).startswith(f"record {last.id!r}: ")
        assert missing in str(info.value)

    def test_translation_error_names_first_record_with_sentence(self,
                                                                tmp_path):
        # The untranslatable sentence is first seen in record g3, and
        # g4 holds it too; every translation before it reaches the cache.
        s = [f"વાક્ય ક્રમ {i} છે." for i in range(6)]
        articles = [f"{s[0]} {s[1]}", f"{s[1]} {s[2]}", f"{s[3]} {s[0]} {s[4]}",
                    f"{s[4]} {s[5]}"]
        records = [ArticleRecord(id=f"g{i}", article=a, summary=None)
                   for i, a in enumerate(articles, start=1)]
        path = tmp_path / "cache.jsonl"
        with pytest.raises(TranslationFailure) as info:
            summarize_split(records, baseline_handle("english"),
                            GenerationParams(max_tokens=5),
                            translator=TableTranslator({x: x for x in s
                                                        if x != s[4]}),
                            cache=TranslationCache(path))
        assert str(info.value) == f"record 'g3': no table entry for sentence: {s[4]!r}"
        cache = TranslationCache(path)
        cache.load({x: x for x in s}, "gujarati")
        assert len(cache._held) == 4
        assert [x for x in s if cache.get(x) == x] == s[:4]

    def test_surrogate_translation_names_record(self, write_csv, tmp_path,
                                                monkeypatch):
        # A lone surrogate cannot be written as UTF-8: it is a failure of
        # the translation, and the cache keeps the one made before it.
        s = [f"વાક્ય ક્રમ {i} છે." for i in range(3)]
        path = write_csv([["g1", "", "", s[0], s[0]],
                          ["g2", "", "", f"{s[1]} {s[2]}", s[1]]])
        table = TableTranslator({s[0]: s[0], s[1]: "\ud800 x", s[2]: s[2]})
        monkeypatch.setattr(experiments, "make_translator",
                            lambda spec, language: table)
        with pytest.raises(TranslationFailure) as info:
            run_experiment(base_config(path, tmp_path, language="gujarati",
                                       pipeline="translate-map"))
        assert str(info.value) == ("record 'g2': client returned text that is"
                                   " not UTF-8: '\\ud800 x'")
        out = tmp_path / "out"
        assert os.listdir(out) == ["translation-cache.jsonl"]
        cache = TranslationCache(out / "translation-cache.jsonl")
        cache.load({x: x for x in s}, "gujarati")
        assert len(cache._held) == 1
        assert cache.get(s[0]) == s[0]

    def test_surrogate_summary_names_record(self, eval_csv, tmp_path):
        adapter = tmp_path / "surrogate_adapter.py"
        adapter.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    reply = {'id': json.loads(line)['id'],\n"
            "             'result': {'summary': '\\ud800 x'}}\n"
            "    print(json.dumps(reply), flush=True)\n", encoding="utf-8")
        config = base_config(eval_csv, tmp_path, adapter=shlex.join(
            [sys.executable, str(adapter)]))
        with pytest.raises(BackendUnavailable) as info:
            run_experiment(config)
        assert str(info.value).startswith(
            "record 'e1': generate returned text that is not UTF-8")
        assert os.listdir(tmp_path / "out") == []

    def test_error_annotated_with_record_id(self, write_csv, tmp_path):
        path = write_csv(
            [["x9", "", "", "Article text here."]],
            header=("id", "Link", "Heading", "Article"),
        )
        with pytest.raises(MissingGoldSummary) as info:
            run_experiment(base_config(path, tmp_path))
        assert "x9" in str(info.value)

    def test_record_id_keeps_exception_fields(self, write_csv, tmp_path,
                                              gujarati_records):
        rec = gujarati_records[0]
        path = write_csv([[rec.id, "", "", rec.article, rec.summary]])
        # A summary sharing no word with the article maps to no sentence.
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--fixed-summary", "Unrelated words here."])
        config = base_config(path, tmp_path, language="gujarati",
                             pipeline="translate-map", adapter=adapter)
        with pytest.raises(NoAlignment) as info:
            run_experiment(config)
        assert str(info.value).startswith(f"record {rec.id!r}: ")
        assert info.value.sentence is not None
        assert info.value.best_score is not None

    def test_translate_map_pipeline(self, write_csv, tmp_path, gujarati_records):
        rows = [
            [rec.id, "", "", rec.article, rec.summary]
            for rec in gujarati_records[:10]
        ]
        path = write_csv(rows)
        config = base_config(
            path, tmp_path, language="gujarati", pipeline="translate-map",
            max_tokens=6,
        )
        run = run_experiment(config)
        assert run.approach == "translate-map+lead-baseline"
        assert (tmp_path / "out" / "translation-cache.jsonl").exists()
        assert len(run.records) == 10

    def test_cache_lines_the_split_does_not_need(self, write_csv, tmp_path,
                                                 gujarati_records):
        # The split's sentences, half of them cached; another split's
        # lines and another language pair's lines around them.
        records = gujarati_records[:6]
        split = list(dict.fromkeys(s for r in records
                                   for s in split_sentences(r.article, "gujarati")))
        other = [s for r in gujarati_records[6:12]
                 for s in split_sentences(r.article, "gujarati") if s not in split]

        def line(src, dst, src_lang="gujarati"):
            return json.dumps({"src": src, "src_lang": src_lang,
                               "tgt_lang": "english", "dst": dst},
                              ensure_ascii=False) + "\n"

        own = [line(x, x) for x in split[::2]]
        noise = ([line(x, x) for x in other]
                 + [line(x, f"wrong {i}.", "hindi") for i, x in enumerate(split)])
        # Every other line of the mixed file is the split's, while they last.
        mixed = "".join(a + b for a, b in zip(noise, own + [""] * len(noise)))
        path = write_csv([[r.id, "", "", r.article, r.summary] for r in records])
        outs = {}
        for name, text in (("only", "".join(own)), ("mixed", mixed)):
            out = tmp_path / name
            out.mkdir()
            (out / "translation-cache.jsonl").write_text(text, encoding="utf-8")
            outs[name] = out
        cache_path = outs["mixed"] / "translation-cache.jsonl"
        config = base_config(path, tmp_path, language="gujarati",
                             pipeline="translate-map")

        with open(cache_path, "a", encoding="utf-8") as fh:
            fh.write('{"src": 1}\n')
        bad_line = mixed.count("\n") + 1
        with pytest.raises(ConfigError,
                           match=re.escape(f"{cache_path}:{bad_line}: bad cache")):
            run_experiment(dataclasses.replace(config, output_dir=str(outs["mixed"])))
        cache_path.write_text(mixed, encoding="utf-8")

        cache = TranslationCache(cache_path)
        cache.load({x: x for x in split}, "gujarati")
        assert len(cache._held) == len(own)

        runs, written = {}, {}
        for name, out in outs.items():
            before = (out / "translation-cache.jsonl").read_bytes()
            runs[name] = run_experiment(dataclasses.replace(config,
                                                            output_dir=str(out)))
            after = (out / "translation-cache.jsonl").read_bytes()
            assert after.startswith(before)
            written[name] = after[len(before):]
            [csv_path] = out.glob("summaries-*.csv")
            written[name, "csv"] = csv_path.read_bytes()
        assert runs["mixed"].records == runs["only"].records
        assert runs["mixed"].aggregate == runs["only"].aggregate
        assert written["mixed", "csv"] == written["only", "csv"]
        assert written["mixed"] == written["only"]
        assert written["only"].decode("utf-8") == "".join(
            line(x, x) for x in split if x not in split[::2])

    def test_adapter_training_run(self, write_csv, eval_csv, tmp_path):
        train = write_csv(
            [[f"t{i}", "", "", f"Train body {i} one. Train body {i} two.",
              f"Train body {i} one."] for i in range(4)]
        )
        config = base_config(
            eval_csv, tmp_path, preset="english-pegasus",
            train_path=str(train),
            adapter=shlex.join([sys.executable, str(STUB_PATH)]),
        )
        run = run_experiment(config)
        assert run.approach == "english-pegasus"
        assert run.backend["kind"] == "adapter"
        assert run.backend["checkpoint"] == "ckpt-4x1"
        assert run.backend["spec"]["epochs"] == 1

    def test_model_preset_without_adapter_reports_lead_baseline(
            self, write_csv, tmp_path, capsys):
        eval_path = write_csv([["h1", "", "", "पहला वाक्य यहाँ है। दूसरा वाक्य।",
                                "पहला वाक्य यहाँ है।"]])
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"language = hindi\neval = {eval_path}\n"
                       f"output_dir = {out}\npreset = hindi-indicbart\n",
                       encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["report", "--runs", str(out / "runs.jsonl")]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["lead-baseline"]

    @pytest.mark.parametrize("overrides,approach", [
        ({"spec": SummarizerSpec("m", 1)}, "m"),
        ({"spec": SummarizerSpec("m", 1), "pipeline": "translate-map"},
         "translate-map+m"),
        ({}, "adapter"),
    ], ids=["inline-spec", "translate-map", "no-spec"])
    def test_adapter_run_reports_its_model(self, overrides, approach,
                                           write_csv, eval_csv, tmp_path):
        train = write_csv(
            [[f"t{i}", "", "", f"Train body {i} one. Train body {i} two.",
              f"Train body {i} one."] for i in range(4)]
        )
        run = run_experiment(base_config(
            eval_csv, tmp_path, train_path=str(train),
            adapter=shlex.join([sys.executable, str(STUB_PATH)]), **overrides,
        ))
        assert run.approach == approach
        trained = "spec" in overrides
        assert run.backend["checkpoint"] == ("ckpt-4x1" if trained else None)

    def test_eval_split_not_held_while_training(self, write_csv, eval_csv,
                                                tmp_path, monkeypatch):
        train = write_csv([["t1", "", "", "Train body one. Train body two.",
                            "Train body one."]])
        held = []

        def fine_tune(*args, **kwargs):
            gc.collect()
            held.append(sum(1 for obj in gc.get_objects()
                            if isinstance(obj, DatasetSplit)
                            and obj.kind == "validation"))
            return real(*args, **kwargs)

        real = experiments.fine_tune
        monkeypatch.setattr(experiments, "fine_tune", fine_tune)
        run = run_experiment(base_config(
            eval_csv, tmp_path, preset="english-pegasus", train_path=str(train),
            adapter=shlex.join([sys.executable, str(STUB_PATH)]),
        ))
        assert held == [0]
        assert [row["id"] for row in run.records] == ["e1", "e2", "e3"]

    def test_eval_split_checked_again_after_training(self, write_csv, eval_csv,
                                                     tmp_path, monkeypatch):
        # The split passed its check before training; e2 loses its gold
        # summary while the model trains, and the second read finds it.
        train = write_csv([["t1", "", "", "Train body one. Train body two.",
                            "Train body one."]])
        pid_file = tmp_path / "stub.pid"

        def fine_tune(*args, **kwargs):
            write_csv([row[:4] if row[0] == "e2" else row for row in ENG_ROWS],
                      name=eval_csv.name)
            return real(*args, **kwargs)

        real = experiments.fine_tune
        monkeypatch.setattr(experiments, "fine_tune", fine_tune)
        with pytest.raises(MissingGoldSummary, match="^record 'e2': no gold"):
            run_experiment(base_config(
                eval_csv, tmp_path, preset="english-pegasus",
                train_path=str(train),
                adapter=shlex.join([sys.executable, str(STUB_PATH),
                                    "--pid-file", str(pid_file)]),
            ))
        assert os.listdir(tmp_path / "out") == []
        pid = int(pid_file.read_text(encoding="utf-8"))
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("how,reads", [
        ("direct", 1), ("translate-map", 1), ("preset-no-train", 1),
        ("training", 2),
    ])
    def test_eval_csv_read_again_only_after_training(
            self, how, reads, write_csv, tmp_path, gujarati_records,
            monkeypatch):
        # Only a run that trains drops the eval split and reads it again.
        adapter = shlex.join([sys.executable, str(STUB_PATH)])
        if how == "translate-map":
            path = write_csv([[r.id, "", "", r.article, r.summary]
                              for r in gujarati_records[:3]])
            config = base_config(path, tmp_path, language="gujarati",
                                 pipeline="translate-map")
        else:
            path = write_csv(ENG_ROWS)
            config = base_config(path, tmp_path)
        if how == "preset-no-train":
            config = dataclasses.replace(config, preset="english-pegasus",
                                         adapter=adapter)
        elif how == "training":
            train = write_csv([["t1", "", "", "Train body one. Train body two.",
                                "Train body one."]])
            config = dataclasses.replace(config, preset="english-pegasus",
                                         adapter=adapter, train_path=str(train))
        paths = []

        def load_csv(path, *args):
            paths.append(str(path))
            return real(path, *args)

        real = experiments.load_csv
        monkeypatch.setattr(experiments, "load_csv", load_csv)
        run = run_experiment(config)
        assert paths.count(str(path)) == reads
        if how == "preset-no-train":
            assert run.approach == "english-pegasus"
            assert run.backend["checkpoint"] is None

    def test_adapter_training_applies_augmentation_steps(
        self, write_csv, eval_csv, tmp_path
    ):
        train = write_csv(
            [[f"t{i}", "", "", f"Train body {i} one. Train body {i} two.",
              f"Train body {i} one."] for i in range(4)]
        )
        config = base_config(
            eval_csv, tmp_path, preset="english-pegasus",
            train_path=str(train), augmentations=("right-shift",),
            adapter=shlex.join([sys.executable, str(STUB_PATH)]),
        )
        run = run_experiment(config)
        # 4 originals + 4 right-shifted copies reach the adapter
        assert run.backend["checkpoint"] == "ckpt-8x1"

    def test_blank_noise_copy_stops_training(self, write_csv, eval_csv, tmp_path):
        train = write_csv([["t1", "", "", "Train body one. Train body two.",
                            "Train body one."]])
        pid_file = tmp_path / "stub.pid"
        config = base_config(
            eval_csv, tmp_path, preset="english-pegasus",
            train_path=str(train), augmentations=("noise:1",),
            adapter=shlex.join([sys.executable, str(STUB_PATH),
                                "--pid-file", str(pid_file)]),
        )
        with pytest.raises(EmptyArticle, match="^noise copy 't1-noise' has a blank"
                                               " article at noise rate 1.0$"):
            run_experiment(config)
        assert not pid_file.exists()
        assert os.listdir(tmp_path / "out") == []

    def test_socket_in_brackets_reaches_ipv6_loopback(self, eval_csv, tmp_path):
        """``socket = [::1]:PORT`` connects to an adapter listening on
        ``::1``, here one that a test thread serves."""
        try:
            server = socket.create_server(("::1", 0), family=socket.AF_INET6)
        except OSError as exc:
            pytest.skip(f"cannot listen on ::1: {exc}")
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            with conn, conn.makefile("rb") as requests:
                for line in requests:
                    reply = {"id": json.loads(line)["id"],
                             "result": {"summary": "s"}}
                    conn.sendall(json.dumps(reply).encode() + b"\n")

        with server:
            server.settimeout(10)
            thread = threading.Thread(target=serve)
            thread.start()
            try:
                run = run_experiment(base_config(eval_csv, tmp_path,
                                                 socket=f"[::1]:{port}"))
            finally:
                thread.join(10)
        assert not thread.is_alive()
        assert run.backend["address"] == ["::1", port]
        assert {record["summary"] for record in run.records} == {"s"}


class TestRunLog:
    def test_round_trip(self, eval_csv, tmp_path):
        run = run_experiment(base_config(eval_csv, tmp_path))
        runs = list(load_runs(tmp_path / "out" / "runs.jsonl"))
        assert len(runs) == 1
        assert runs[0] == run

    def test_corrupt_line(self, tmp_path):
        # A whole line that is no run record is an error, wherever it is.
        log = tmp_path / "runs.jsonl"
        good = fake_run("x", (0.5, 0.2, 0.1)).to_json()
        for bad in ("{not json", "[1]", "7"):
            log.write_text(bad + "\n" + good + "\n", encoding="utf-8")
            with pytest.raises(ConfigError, match="runs.jsonl:1: bad run record"):
                list(load_runs(log))

    def test_torn_last_line_skipped(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        good = NON_ASCII_RUN.to_json()
        data = (good + "\n" + good[:-1]).encode("utf-8")
        for torn in (data[:-1], data[:-len(good) // 2], data):
            log.write_bytes(torn)
            assert list(load_runs(log)) == [NON_ASCII_RUN]
        # cut inside a multibyte character of the summary
        cut = data.index("સારાંશ".encode("utf-8"), len(good) + 1) + 1
        log.write_bytes(data[:cut])
        assert list(load_runs(log)) == [NON_ASCII_RUN]

    def test_unterminated_last_line_loads(self, tmp_path):
        """A whole last record without its newline is torn until the
        newline is written; then it loads."""
        log = tmp_path / "runs.jsonl"
        good = NON_ASCII_RUN.to_json()
        log.write_text(good + "\n" + good, encoding="utf-8")
        assert list(load_runs(log)) == [NON_ASCII_RUN]
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert list(load_runs(log)) == [NON_ASCII_RUN, NON_ASCII_RUN]

    @pytest.mark.parametrize("tail", ["torn", "not an object", "unterminated",
                                      "blank lines"])
    def test_next_run_repairs_log_tail(self, tail, eval_csv, tmp_path):
        first = run_experiment(base_config(eval_csv, tmp_path))
        log = tmp_path / "out" / "runs.jsonl"
        line = first.to_json()
        log.write_text(line + "\n" + {
            "torn": line[:len(line) // 2],
            "not an object": "[1]\n",
            "unterminated": line,
            "blank lines": line + "\n\n \n",
        }[tail], encoding="utf-8")
        if tail == "not an object":
            # A whole line is never cut off, even as the last: the next
            # run refuses the log before it starts and leaves its bytes.
            with pytest.raises(ConfigError, match="runs.jsonl:2: bad run record"):
                run_experiment(base_config(eval_csv, tmp_path))
            assert log.read_text(encoding="utf-8") == line + "\n[1]\n"
            return
        second = run_experiment(base_config(eval_csv, tmp_path))
        text = log.read_text(encoding="utf-8")
        assert text.endswith(second.to_json() + "\n")
        want = [first] + ([first] if tail == "blank lines" else []) + [second]
        assert list(load_runs(log)) == want

    @pytest.mark.parametrize("last, after, message", [
        ("not an object", "", "bad run record: "),
        ("not an object", "\n \n", "bad run record: "),
        ("not an object", '{"torn', "bad run record: "),
        ("inconsistent", "", "aggregate f1 for n=1 is 0.75, per-record mean is 0.5"),
        ("no records", "", "run has no records"),
    ], ids=["not-an-object", "blank-lines-after", "torn-line-after",
            "inconsistent-aggregate", "no-records"])
    def test_run_refuses_a_log_it_cannot_extend(self, last, after, message,
                                                eval_csv, tmp_path):
        """A run whose log ends in a whole line that is no run record (a
        blank or torn line after it does not hide it) fails before its
        adapter starts, with the error ``report`` gives, and leaves the
        log's bytes."""
        log = tmp_path / "out" / "runs.jsonl"
        log.parent.mkdir()
        good = json.loads(NON_ASCII_RUN.to_json())
        bad = {
            "not an object": "[1]",
            "inconsistent": json.dumps(good | {"aggregate": good["aggregate"] | {
                "1": {"precision": 0.5, "recall": 0.5, "f1": 0.75}}}),
            "no records": json.dumps(good | {"records": []}),
        }[last]
        data = json.dumps(good) + "\n" + bad + "\n" + after
        log.write_text(data, encoding="utf-8")
        pid_file = tmp_path / "stub.pid"
        config = base_config(
            eval_csv, tmp_path, spec=SummarizerSpec(model_id="m", epochs=1),
            train_path=str(eval_csv),
            adapter=shlex.join([sys.executable, str(STUB_PATH),
                                "--pid-file", str(pid_file)]))
        with pytest.raises(ConfigError) as got:
            run_experiment(config)
        assert str(got.value).startswith(f"{log}:2: {message}")
        assert not pid_file.exists()
        assert log.read_text(encoding="utf-8") == data
        assert os.listdir(log.parent) == ["runs.jsonl"]

    def test_run_checks_only_the_last_line(self, eval_csv, tmp_path):
        """``run`` reads the log's last whole line only: a bad middle line
        is ``report``'s to name, and the run appends after a good last one."""
        log = tmp_path / "out" / "runs.jsonl"
        log.parent.mkdir()
        line = NON_ASCII_RUN.to_json()
        log.write_text(f"[1]\n{line}\n", encoding="utf-8")
        run = run_experiment(base_config(eval_csv, tmp_path))
        assert log.read_text(encoding="utf-8") == f"[1]\n{line}\n{run.to_json()}\n"

    def test_to_json_bytes(self, tmp_path):
        run = NON_ASCII_RUN
        line = run.to_json()
        assert line == json.dumps(
            dataclasses.asdict(run) | {"records": list(run.records)},
            ensure_ascii=False, sort_keys=True,
        )
        assert "સારાંશ" in line
        assert RunRecord.from_json(line) == run
        log = tmp_path / "runs.jsonl"
        log.write_text(line + "\n", encoding="utf-8")
        assert list(load_runs(log)) == [run]

    def test_tampered_aggregate_detected(self, eval_csv, tmp_path):
        run_experiment(base_config(eval_csv, tmp_path))
        log = tmp_path / "out" / "runs.jsonl"
        line = log.read_text(encoding="utf-8")
        for tamper in ("aggregate", "record not an object",
                       "scores lack an order", "no records"):
            payload = json.loads(line)
            if tamper == "aggregate":
                payload["aggregate"]["1"]["f1"] += 0.25
            elif tamper == "record not an object":
                payload["records"] = [1]
            elif tamper == "scores lack an order":
                del payload["records"][0]["scores"]["4"]
            else:
                payload["records"], payload["aggregate"] = [], {}
            log.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            # A whole line is never taken for a torn one, even as the last.
            with pytest.raises(ConfigError, match="runs.jsonl:1: "):
                list(load_runs(log))

    def test_score_too_large_for_a_float(self, tmp_path, capsys):
        payload = json.loads(fake_run("x", (0.5, 0.2, 0.1)).to_json())
        payload["records"][0]["scores"]["1"]["f1"] = 10 ** 400
        log = tmp_path / "runs.jsonl"
        log.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        assert main(["report", "--runs", str(log)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}:1: malformed run record:"
                              " OverflowError(")
        assert err.count("\n") == 1


def fake_run(approach, f1s):
    scores = {
        str(n): {"precision": f1, "recall": f1, "f1": f1}
        for n, f1 in zip((1, 2, 4), f1s)
    }
    return RunRecord(
        config_hash="deadbeef",
        timestamp="2026-01-01T00:00:00+00:00",
        approach=approach,
        language="english",
        backend={"kind": "lead-baseline"},
        records=({"id": "r", "summary": "s", "scores": scores},),
        aggregate=scores,
    )


NON_ASCII_RUN = dataclasses.replace(
    fake_run("gujarati-translate-map", (0.5, 0.25, 0.125)),
    language="gujarati",
    backend={
        "kind": "adapter", "transport": "stdio", "argv": ["python3", "a.py"],
        "checkpoint": None,
        "spec": {"model_id": "m", "epochs": 2, "weight_decay": 0.01},
        "generation": {"max_tokens": 85, "seed": 13},
    },
    records=tuple(
        {"id": rid, "summary": summary,
         "scores": fake_run("", (0.5, 0.25, 0.125)).aggregate}
        for rid, summary in (("g1", "પહેલું વાક્ય. સારાંશ અહીં છે."),
                             ("g2", "बारिश \u0958िला \"quoted\""))
    ),
)


GUJ_SOURCES = ("પહેલું વાક્ય અહીં છે.", "બીજું વાક્ય અહીં છે.", "ત્રીજું વાક્ય.")


class CacheLog:
    """The translation cache, as lines 0, 1 and 2 of an append-only log."""

    def __init__(self, tmp_path):
        self.path = tmp_path / "out" / "translation-cache.jsonl"

    def line(self, i):
        return json.dumps({"src": GUJ_SOURCES[i], "src_lang": "gujarati",
                           "tgt_lang": "english", "dst": f"e{i}."},
                          ensure_ascii=False)

    def load(self):
        cache = TranslationCache(self.path)
        cache.load({src: src for src in GUJ_SOURCES}, "gujarati")
        held = [i for i, src in enumerate(GUJ_SOURCES)
                if cache.get(src) == f"e{i}."]
        assert len(cache._held) == len(held)
        return held

    def append(self):
        TranslationCache(self.path).put([(GUJ_SOURCES[2], "e2.")], "gujarati")
        return self.line(2)


class RunLog:
    """The run log, as lines 0, 1 and 2 of an append-only log; line 2 is
    the run that ``run_experiment`` appends."""

    def __init__(self, tmp_path, eval_csv):
        self.path = tmp_path / "out" / "runs.jsonl"
        self.config = base_config(eval_csv, tmp_path)

    def line(self, i):
        return dataclasses.replace(NON_ASCII_RUN, approach=f"a{i}").to_json()

    def load(self):
        index = {"a0": 0, "a1": 1, "lead-baseline": 2}
        return [index[run.approach] for run in load_runs(self.path)]

    def append(self):
        return run_experiment(self.config).to_json()


class TestLogTails:
    """One torn-tail rule for both append-only logs: what loads, and
    what the next append leaves, after each kind of tail.  Only a last
    line without its newline is torn; any whole bad line is an error."""

    @pytest.mark.parametrize("kind", ["cache", "runs"])
    @pytest.mark.parametrize("tail, loaded, kept", [
        ("torn mid-character", [0], ""),
        ("terminated JSON non-object", None, None),
        ("unterminated whole line", [0], ""),
        ("trailing blank lines", [0, 1], "{1}\n\n \n"),
        ("trailing ASCII whitespace lines", [0, 1], "{1}\n \t\r\x0b\x0c\n\n"),
        ("bad middle line", None, None),
    ])
    def test_tail(self, kind, tail, loaded, kept, eval_csv, tmp_path):
        log = CacheLog(tmp_path) if kind == "cache" else RunLog(tmp_path, eval_csv)
        log.path.parent.mkdir()
        head = (log.line(0) + "\n").encode("utf-8")
        second = log.line(1).encode("utf-8")
        log.path.write_bytes(head + {
            # cut one byte into the first multibyte character
            "torn mid-character": second[:second.index(b"\xe0") + 1],
            "terminated JSON non-object": b"[1]\n",
            "unterminated whole line": second,
            "trailing blank lines": second + b"\n\n \n",
            "trailing ASCII whitespace lines": second + b"\n \t\r\x0b\x0c\n\n",
            "bad middle line": b"{not json\n" + second + b"\n",
        }[tail])
        if loaded is None:
            with pytest.raises(ConfigError,
                               match=re.escape(f"{log.path}:2: bad ")):
                log.load()
            return
        assert log.load() == loaded
        appended = log.append()
        assert log.path.read_bytes().decode("utf-8") == (
            log.line(0) + "\n" + kept.format(*map(log.line, range(2)))
            + appended + "\n"
        )
        assert log.load() == loaded + [2]


def test_append_keeps_whole_lines_when_lines_raise(tmp_path):
    """An iterator that fails, or gives a line that does not encode (a
    lone surrogate), after more lines than the write buffer holds, after
    exactly one batch, after one batch and a line, or after several
    batches, leaves exactly the lines before it, each whole; the next
    append continues the log."""
    batch = jsonlog.BATCH_LINES
    lines = [json.dumps({"n": i, "pad": "x" * 200}) for i in range(4 * batch)]

    def raising(stop):
        yield from lines[:stop]
        raise TranslationFailure("stopped")

    def unencodable(stop):
        yield from lines[:stop]
        yield '{"n": "\ud800"}'
        yield from lines[stop:]

    for stop, failing, error in [(60, raising, TranslationFailure),
                                 (batch, raising, TranslationFailure),
                                 (batch + 1, raising, TranslationFailure),
                                 (3 * batch + 7, raising, TranslationFailure),
                                 (batch + 3, unencodable, UnicodeEncodeError)]:
        path = tmp_path / f"log-{stop}.jsonl"
        with pytest.raises(error):
            jsonlog.append(path, failing(stop))
        assert path.read_text() == "".join(line + "\n" for line in lines[:stop])
        jsonlog.append(path, lines[stop:])
        assert ([v["n"] for _, v in jsonlog.read(path, json.loads)]
                == list(range(len(lines))))


def test_cache_put_of_several_batches_writes_json_dumps_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    pairs = [(f"વાક્ય {i} \"ક\"\t.", f"sentence {i} \\ \u2028")
             for i in range(2 * jsonlog.BATCH_LINES + 5)]
    TranslationCache(path).put(iter(pairs), "gujarati")
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps({"src": src, "src_lang": "gujarati", "tgt_lang": "english",
                    "dst": dst}, ensure_ascii=False) + "\n"
        for src, dst in pairs)


def save_rows(path, rows):
    """``save_csv`` of a test split whose records come lazily from
    ``(id, article)`` rows."""
    corpus.save_csv(DatasetSplit("test", "english",
                                 (ArticleRecord(i, text) for i, text in rows)), path)


@pytest.mark.parametrize("write, old", [
    pytest.param(corpus.write_summaries, None, id="new-file"),
    pytest.param(corpus.write_summaries, b"id,Summary\nx1,kept\n",
                 id="existing-file"),
    pytest.param(save_rows, None, id="save_csv-new-file"),
    pytest.param(save_rows, b"id,Link,Heading,Article\nx1,,,kept\n",
                 id="save_csv-existing-file"),
])
def test_write_summaries_leaves_no_partial_csv(write, old, tmp_path):
    """Rows that fail after more than the write buffer holds leave the
    target as it was (absent or with its old bytes) and no other file."""
    path = tmp_path / "summaries.csv"
    if old is not None:
        path.write_bytes(old)

    def failing():
        for i in range(200):
            yield f"e{i}", "x" * 200
        raise OSError("disk went away")

    with pytest.raises(OSError, match="disk went away"):
        write(path, failing())
    assert os.listdir(tmp_path) == ([] if old is None else ["summaries.csv"])
    if old is not None:
        assert path.read_bytes() == old


def test_write_summaries_error_names_target(tmp_path):
    path = str(tmp_path / "missing" / "summaries.csv")
    with pytest.raises(FileNotFoundError) as info:
        corpus.write_summaries(path, [("e1", "one")])
    assert str(info.value) == f"[Errno 2] No such file or directory: {path!r}"


# Writes a little over 20,000 bytes (30,000 for "append-batches") to the
# file named by argv[2], through argv[1]'s writer, and prints the error it
# raises.
_FSIZE_CHILD = """
import sys
from indicsum import corpus, jsonlog
writer, path = sys.argv[1:]
try:
    if writer == "append":
        jsonlog.append(path, ("x" * 999 for _ in range(21)))
    elif writer == "append-batches":
        jsonlog.append(path, ("x" * 99 for _ in range(300)))
    else:
        corpus.write_summaries(path, ((str(i), "x" * 997) for i in range(21)))
except OSError as exc:
    print(exc)
"""


def run_fsize_child(writer, path, limit):
    """Run ``_FSIZE_CHILD`` with ``RLIMIT_FSIZE`` at ``limit`` bytes, set
    in the child only; check that it printed the error for ``path``."""
    src = str(Path(indicsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        # -B: a byte-code file written under the limit would be cut short.
        [sys.executable, "-B", "-c", _FSIZE_CHILD, writer, path],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE,
                                              (limit, limit)))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {path!r}\n"


@pytest.mark.parametrize("writer", ["append", "write_summaries"])
def test_write_past_file_size_limit_names_target(writer, tmp_path):
    """Under ``RLIMIT_FSIZE``, set in the child only, the failed write
    names the file the caller asked for."""
    run_fsize_child(writer, str(tmp_path / "out"), 20_000)


def test_append_cut_mid_line_by_file_size_limit(tmp_path):
    """A child whose append stops mid-line leaves 20 whole lines and a
    torn one: ``read`` yields the whole ones, and the next append cuts
    the torn one off and keeps every byte before it."""
    path = str(tmp_path / "out")
    run_fsize_child("append", path, 20_500)
    data = Path(path).read_bytes()
    assert len(data) == 20_500
    whole = [b"x" * 999 + b"\n"] * 20
    assert [line for _, line in jsonlog.read(path, bytes)] == whole
    jsonlog.append(path, ["y"])
    assert Path(path).read_bytes() == data[:20_000] + b"y\n"
    assert [line for _, line in jsonlog.read(path, bytes)] == whole + [b"y\n"]


def test_append_cut_in_a_later_batch_by_file_size_limit(tmp_path):
    """A limit that falls inside the last batch of an append still fails
    it, naming the file, and leaves the earlier batches whole."""
    assert jsonlog.BATCH_LINES * 100 < 27_050 < 30_000
    path = str(tmp_path / "out")
    run_fsize_child("append-batches", path, 27_050)
    assert Path(path).read_bytes() == (b"x" * 99 + b"\n") * 270 + b"x" * 50


class TestRenderReport:
    def test_formatting(self):
        out = render_report([fake_run("lead-baseline", (0.5, 0.4, 0.3))])
        lines = out.splitlines()
        assert lines[0].split() == [
            "Approach", "Implemented", "Language", "ROUGE-1", "ROUGE-2", "ROUGE-4"
        ]
        assert lines[2].split()[1] == "english"
        assert "0.5000" in lines[2]
        assert "0.4000" in lines[2]
        assert "0.3000" in lines[2]

    def test_rows_in_submission_order(self):
        out = render_report(
            [fake_run("first", (0.1, 0.1, 0.1)), fake_run("second", (0.2, 0.2, 0.2))]
        )
        body = out.splitlines()[2:]
        assert body[0].startswith("first")
        assert body[1].startswith("second")

    def test_each_language_its_own_row(self):
        runs = [dataclasses.replace(fake_run("lead-baseline", (0.5, 0.4, 0.3)),
                                    language=language)
                for language in ("english", "hindi", "gujarati")]
        body = render_report(runs).splitlines()[2:]
        assert [row.split()[:2] for row in body] == [
            ["lead-baseline", "english"], ["lead-baseline", "hindi"],
            ["lead-baseline", "gujarati"]]

    def test_csv_format(self):
        out = render_report([fake_run("x", (0.5, 0.2, 0.1))], format="csv")
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["Approach Implemented", "Language", "ROUGE-1",
                           "ROUGE-2", "ROUGE-4"]
        assert rows[1] == ["x", "english", "0.5000", "0.2000", "0.1000"]

    def test_empty(self):
        with pytest.raises(EmptyReport):
            render_report([])

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report([fake_run("x", (0, 0, 0))], format="xml")


class TestCli:
    def test_prepare(self, eval_csv, capsys):
        assert main(["prepare", str(eval_csv), "--lang", "english",
                     "--split", "validation"]) == 0
        assert "3 records" in capsys.readouterr().out

    def test_prepare_rejects_bad_file(self, write_csv, capsys):
        bad = write_csv([["a", "b"]], header=("id", "Heading"))
        assert main(["prepare", str(bad), "--lang", "english",
                     "--split", "validation"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_augment_cli(self, write_csv, tmp_path, capsys):
        src = write_csv(ENG_ROWS)
        out = tmp_path / "aug.csv"
        assert main(["augment", str(src), "--lang", "english",
                     "--right-shift", "--noise-rate", "0.2",
                     "--out", str(out)]) == 0
        assert "9 records" in capsys.readouterr().out

    def test_augment_blank_noise_copy(self, write_csv, tmp_path, capsys):
        src = write_csv([["a1", "", "", "S one.", "S one."]])
        out = tmp_path / "aug.csv"
        assert main(["augment", str(src), "--lang", "english",
                     "--noise-rate", "1", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            "error: noise copy 'a1-noise' has a blank article at noise rate 1.0\n"))
        assert os.listdir(tmp_path) == [src.name]

    def test_augment_noise_rate_out_of_range(self, write_csv, tmp_path, capsys):
        out = tmp_path / "aug.csv"
        assert main(["augment", str(write_csv(ENG_ROWS)), "--lang", "english",
                     "--noise-rate", "7", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: noise rate must be within [0, 1], got 7.0\n"
        assert not out.exists()

    def test_augment_requires_an_operation(self, write_csv, tmp_path):
        src = write_csv(ENG_ROWS)
        assert main(["augment", str(src), "--lang", "english",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_summarize_and_evaluate(self, eval_csv, tmp_path, capsys):
        cands = tmp_path / "cands.csv"
        assert main(["summarize", str(eval_csv), "--lang", "english",
                     "--split", "validation", "--max-tokens", "5",
                     "--out", str(cands)]) == 0
        assert main(["evaluate", str(cands), "--refs", str(eval_csv),
                     "--lang", "english", "--split", "validation"]) == 0
        out = capsys.readouterr().out
        assert "ROUGE-1:" in out
        assert "ROUGE-4:" in out

    @pytest.mark.parametrize("ids, problem", [
        (("e1", "e3"), "no candidate for reference ids 'e2'"),
        (("e1", "e2", "e3", "x9", "x8"), "no reference for candidate ids 'x9', 'x8'"),
    ])
    def test_evaluate_rejects_mismatched_ids(self, ids, problem, write_csv,
                                             eval_csv, capsys):
        cands = write_csv([[i, "Rain hit the coast."] for i in ids],
                          header=("id", "Summary"))
        assert main(["evaluate", str(cands), "--refs", str(eval_csv),
                     "--lang", "english", "--split", "validation"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cands}: {problem}\n"
        assert "ROUGE" not in captured.out

    def test_evaluate_rejects_duplicate_id(self, write_csv, eval_csv, capsys):
        cands = write_csv([["e1", "Rain hit the coast."], ["e1", "Schools shut."]],
                          header=("id", "Summary"))
        assert main(["evaluate", str(cands), "--refs", str(eval_csv),
                     "--lang", "english", "--split", "validation"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cands}:3: duplicate id 'e1'\n"
        assert "ROUGE" not in captured.out

    def test_evaluate_matches_corpus_rouge(self, write_csv, eval_csv, capsys):
        """Candidates are read by ``load_csv``'s rules: a missing Summary
        cell is an empty summary, header names and ids are stripped, blank
        rows are skipped and the first column of a name counts."""
        full = [[r[0], r[3]] for r in ENG_ROWS]
        texts = [r[3] for r in ENG_ROWS]
        cases = [  # (header, candidate rows, candidate text of e1, e2, e3)
            (("id", "Summary"), full, texts),
            (("id", "Summary"), [full[0], ["e2"], full[2]],
             [texts[0], "", texts[2]]),
            (("id", " Summary"), full, texts),
            (("id", "Summary"), [[f" {i} ", text] for i, text in full], texts),
            (("id", "Summary"), full + [["", ""]], texts),
            (("id", "Summary", "Summary"), [row + ["other"] for row in full],
             texts),
        ]
        for header, rows, candidates in cases:
            cands = write_csv(rows, header=header)
            assert main(["evaluate", str(cands), "--refs", str(eval_csv),
                         "--lang", "english", "--split", "validation"]) == 0
            want = corpus_rouge([(c, r[4]) for c, r in zip(candidates, ENG_ROWS)])
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == "3 scored pairs"
            assert lines[1:] == [
                f"ROUGE-{n}: precision {s.precision:.4f} recall {s.recall:.4f}"
                f" f1 {s.f1:.4f}" for n, s in want.items()
            ]

    def test_evaluate_missing_column(self, write_csv, eval_csv, capsys):
        bad = write_csv([["e1", "text"]], header=("id", "Article"))
        assert main(["evaluate", str(bad), "--refs", str(eval_csv),
                     "--lang", "english", "--split", "validation"]) == 1
        assert "Summary" in capsys.readouterr().err

    def test_train_via_stub(self, write_csv, capsys):
        train = write_csv(
            [["t1", "", "", "Body one. Body two.", "Body one."]]
        )
        argv = shlex.join([sys.executable, str(STUB_PATH)])
        assert main(["train", "--preset", "english-t5", "--train", str(train),
                     "--adapter", argv]) == 0
        assert "ckpt-1x20" in capsys.readouterr().out

    def test_train_takes_no_checkpoint(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--preset", "english-t5", "--train", "t.csv",
                  "--checkpoint", "x"])
        assert info.value.code == 2
        assert "unrecognized arguments: --checkpoint x" in capsys.readouterr().err

    @pytest.mark.parametrize("checkpoint,message", [
        ("\ud800", "train returned text that is not UTF-8: '\\ud800'"),
        ("   ", "train returned no checkpoint: {'checkpoint': '   '}"),
    ], ids=["surrogate", "blank"])
    def test_bad_checkpoint_is_one_line_error(self, checkpoint, message,
                                              write_csv, eval_csv, tmp_path,
                                              capsys):
        ops = tmp_path / "ops.txt"
        adapter = tmp_path / "bad_checkpoint_adapter.py"
        adapter.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    request = json.loads(line)\n"
            f"    with open({str(ops)!r}, 'a') as log:\n"
            "        print(request['op'], file=log)\n"
            "    reply = {'id': request['id'],\n"
            f"             'result': {{'checkpoint': {checkpoint!r}}}}}\n"
            "    print(json.dumps(reply), flush=True)\n", encoding="utf-8")
        adapter = shlex.join([sys.executable, str(adapter)])
        train = write_csv([["t1", "", "", "Body one. Body two.", "Body one."]])
        assert main(["train", "--preset", "english-t5", "--train", str(train),
                     "--adapter", adapter]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert ops.read_text(encoding="utf-8") == "train\n"

        ops.unlink()
        cfg = tmp_path / "exp.cfg"
        out_dir = tmp_path / "out"
        cfg.write_text(
            f"language = english\neval = {eval_csv}\ntrain = {train}\n"
            f"output_dir = {out_dir}\npreset = english-t5\n"
            f"adapter = {adapter}\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert ops.read_text(encoding="utf-8") == "train\n"
        assert os.listdir(out_dir) == []

    def test_train_matches_run_experiment(self, write_csv, tmp_path, capsys):
        # hindi-indicbart augments with noise: one original and one noisy
        # copy reach the adapter from both the CLI and a run.
        train = write_csv([["t1", "", "", "पहला वाक्य यहाँ है। दूसरा वाक्य यहाँ है।",
                            "पहला वाक्य यहाँ है।"]])
        adapter = shlex.join([sys.executable, str(STUB_PATH)])
        run = run_experiment(base_config(
            train, tmp_path, language="hindi", eval_kind="train",
            preset="hindi-indicbart", train_path=str(train), adapter=adapter,
        ))
        assert run.backend["checkpoint"] == "ckpt-2x2"
        assert main(["train", "--preset", "hindi-indicbart", "--train",
                     str(train), "--adapter", adapter]) == 0
        assert capsys.readouterr().out == "checkpoint: ckpt-2x2\n"

    @pytest.mark.parametrize("stage", ["train", "summarize"])
    def test_stage_rejects_preset_language_mismatch(self, stage, eval_csv,
                                                    tmp_path, capsys):
        pid_file = tmp_path / "stub.pid"
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--pid-file", str(pid_file)])
        out = tmp_path / "c.csv"
        argv = (["train", "--train", str(eval_csv)] if stage == "train"
                else ["summarize", str(eval_csv), "--out", str(out)])
        assert main([*argv, "--preset", "hindi-indicbart", "--lang", "english",
                     "--adapter", adapter]) == 1
        assert capsys.readouterr().err == (
            "error: preset 'hindi-indicbart' is for hindi, not english\n"
        )
        assert not pid_file.exists()
        assert not out.exists()

    def test_summarize_rejects_translate_map_preset(self, eval_csv, tmp_path,
                                                    capsys):
        out = tmp_path / "c.csv"
        assert main(["summarize", str(eval_csv), "--preset",
                     "gujarati-translate-map", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: preset 'gujarati-translate-map' runs the translate-map"
            " pipeline, not direct\n"
        )
        assert not out.exists()

    def test_train_pipeline_preset_has_nothing_to_train(self, eval_csv,
                                                         tmp_path, capsys):
        pid_file = tmp_path / "stub.pid"
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--pid-file", str(pid_file)])
        assert main(["train", "--preset", "gujarati-translate-map", "--train",
                     str(eval_csv), "--adapter", adapter]) == 2
        assert capsys.readouterr().err == (
            "preset 'gujarati-translate-map' is a pipeline preset;"
            " nothing to train\n"
        )
        assert not pid_file.exists()

    @pytest.mark.parametrize("stage", ["summarize", "translate-map"])
    @pytest.mark.parametrize("how", ["unclosed-quote", "no-words", "empty"])
    def test_unsplittable_adapter_is_one_line_error(self, stage, how, write_csv,
                                                    tmp_path, gujarati_records,
                                                    capsys):
        # The quoted variant would start the stub if it were split.
        pid_file = tmp_path / "stub.pid"
        stub = shlex.join([sys.executable, str(STUB_PATH),
                           "--pid-file", str(pid_file)])
        if how == "unclosed-quote":
            adapter = stub + " 'x"
            message = f"bad adapter command line {adapter!r}: No closing quotation"
        else:
            adapter = " " if how == "no-words" else ""
            message = f"adapter command line {adapter!r} has no words"
        src = write_csv([[r.id, "", "", r.article, r.summary]
                         for r in gujarati_records[:3]])
        cache = tmp_path / "cache" / "tc.jsonl"
        out = tmp_path / "c.csv"
        assert main([stage, str(src), "--lang", "gujarati", "--adapter", adapter,
                     "--out", str(out),
                     *(["--cache", str(cache)] if stage == "translate-map"
                       else [])]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert not cache.parent.exists()
        assert not pid_file.exists()

    @pytest.mark.parametrize("argv", [
        ["report", "--runs", "nope.jsonl"],
        ["prepare", "nope.csv", "--lang", "english", "--split", "validation",
         "--out", "out.csv"],
        ["summarize", "nope.csv", "--out", "out.csv"],
        ["evaluate", "nope.csv", "--refs", "nope.csv", "--lang", "english"],
        ["run", "--config", "nope.cfg"],
    ], ids=lambda argv: argv[0])
    def test_missing_input_is_one_line_error(self, argv, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "indicsum.cli", *argv], cwd=work,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        error = "error: [Errno 2] No such file or directory: 'nope."
        assert done.stderr.startswith(error)
        assert done.stderr.count("\n") == 1
        assert list(work.iterdir()) == []

    _CSV = "id,Link,Heading,Article,Summary\ng1,,,એક વાક્ય છે.,એક.\n".encode()

    @pytest.mark.parametrize("files,argv,error", [
        ({"bad.tsv": b"no tab here\n"},
         ["translate-map", "data.csv", "--translator", "table:bad.tsv",
          "--out", "out.csv"],
         "error: bad.tsv:1: expected two TAB columns"),
        ({"bad.tsv": b"no tab here\n",
          "exp.cfg": b"language = gujarati\neval = data.csv\noutput_dir = out\n"
                     b"pipeline = translate-map\ntranslator = table:bad.tsv\n"},
         ["run", "--config", "exp.cfg"],
         "error: bad.tsv:1: expected two TAB columns"),
        ({"data.csv": _CSV.replace("એક.".encode(), b"\xff")},
         ["prepare", "data.csv", "--lang", "gujarati", "--split", "validation"],
         "error: data.csv: not UTF-8 text (invalid start byte)"),
        ({"bad.tsv": "એક વાક્ય છે.\t".encode() + b"one\xe0.\n"},
         ["translate-map", "data.csv", "--translator", "table:bad.tsv",
          "--out", "out.csv"],
         "error: bad.tsv: not UTF-8 text ("),
        ({"exp.cfg": b"language = gujarati\n# caf\xe9\neval = data.csv\n"},
         ["run", "--config", "exp.cfg"],
         "error: exp.cfg: not UTF-8 text ("),
        ({"cands.csv": b"id,Summary\ng1,\xff\n"},
         ["evaluate", "cands.csv", "--refs", "data.csv", "--lang", "gujarati"],
         "error: cands.csv: not UTF-8 text (invalid start byte)"),
    ], ids=["translate-map-table-no-tab", "run-table-no-tab", "prepare-not-utf8",
            "translate-map-table-not-utf8", "run-config-not-utf8",
            "evaluate-cands-not-utf8"])
    def test_unreadable_input_is_one_line_error(self, files, argv, error,
                                                 tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        files = {"data.csv": self._CSV, **files}
        for name, data in files.items():
            (work / name).write_bytes(data)
        done = subprocess.run(
            [sys.executable, "-m", "indicsum.cli", *argv], cwd=work,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(error)
        assert done.stderr.count("\n") == 1
        assert sorted(p.name for p in work.iterdir()) == sorted(files)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_stopped_run_stops_its_adapter(self, signum, write_csv, tmp_path):
        """A run stopped while its adapter trains ends the adapter, prints
        one line, leaves no ``*.tmp`` and holds no lock."""
        rows = [["h1", "", "", "पहला वाक्य यहाँ है। दूसरा वाक्य यहाँ है।",
                 "पहला वाक्य यहाँ है।"]]
        pid_file = tmp_path / "stub.pid"
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"

        def write_config(*stub_flags):
            adapter = shlex.join([sys.executable, str(STUB_PATH), *stub_flags])
            cfg.write_text(
                f"language = hindi\neval = {write_csv(rows)}\n"
                f"train = {write_csv(rows)}\noutput_dir = {out}\n"
                f"preset = hindi-indicbart\nadapter = {adapter}\n",
                encoding="utf-8")

        write_config("--delay-op", "train", "--delay", "30",
                     "--pid-file", str(pid_file))
        with subprocess.Popen(
            [sys.executable, "-m", "indicsum.cli", "run", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            deadline = time.monotonic() + 30
            while not (pid_file.exists() and pid_file.read_text().strip()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            stub = int(pid_file.read_text())
            proc.send_signal(signum)
            stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 128 + signum
        assert stderr == "error: interrupted\n"
        assert stdout == ""
        deadline = time.monotonic() + 2
        while True:
            try:
                os.kill(stub, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "the adapter outlived its run"
            time.sleep(0.02)
        assert list(tmp_path.rglob("*.tmp")) == []
        write_config()
        assert main(["run", "--config", str(cfg)]) == 0

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="the parent-death signal is Linux only")
    def test_killed_run_stops_its_adapter(self, write_csv, tmp_path):
        """A run killed by SIGKILL while its adapter trains takes the
        adapter with it, and a re-run gives what an unbroken run gives."""
        rows = [["h1", "", "", "पहला वाक्य यहाँ है। दूसरा वाक्य यहाँ है।",
                 "पहला वाक्य यहाँ है।"]]
        pid_file = tmp_path / "stub.pid"
        cfg = tmp_path / "exp.cfg"

        def write_config(out, *stub_flags):
            adapter = shlex.join([sys.executable, str(STUB_PATH), *stub_flags])
            cfg.write_text(
                f"language = hindi\neval = {write_csv(rows)}\n"
                f"train = {write_csv(rows)}\noutput_dir = {out}\n"
                f"preset = hindi-indicbart\nadapter = {adapter}\n",
                encoding="utf-8")

        def exited(pid):
            """No such process, or a zombie not yet reaped by its new
            parent, on which ``os.kill(pid, 0)`` still succeeds."""
            try:
                stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
            except FileNotFoundError:
                return True
            return stat.rpartition(")")[2].split()[0] == "Z"

        write_config(tmp_path / "out", "--delay-op", "train", "--delay", "30",
                     "--pid-file", str(pid_file))
        with subprocess.Popen(
            [sys.executable, "-m", "indicsum.cli", "run", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ) as proc:
            deadline = time.monotonic() + 30
            while not (pid_file.exists() and pid_file.read_text().strip()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            stub = int(pid_file.read_text())
            proc.kill()
        assert proc.returncode == -signal.SIGKILL
        deadline = time.monotonic() + 2
        while not exited(stub):
            assert time.monotonic() < deadline, "the adapter outlived its run"
            time.sleep(0.02)
        outputs = []
        for out in (tmp_path / "out", tmp_path / "unbroken"):
            write_config(out)
            assert main(["run", "--config", str(cfg)]) == 0
            [run] = load_runs(out / "runs.jsonl")
            [summaries] = out.glob("summaries-*.csv")
            outputs.append((run.records, run.aggregate, summaries.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_terminal_interrupt_reaches_only_the_run(self, write_csv, tmp_path):
        """Ctrl-C in a terminal signals the whole foreground process group.
        The adapter runs in its own session, so only the run sees it: one
        line on stderr, no traceback from the adapter, and the run's
        close ends the adapter."""
        rows = [["h1", "", "", "पहला वाक्य यहाँ है। दूसरा वाक्य यहाँ है।",
                 "पहला वाक्य यहाँ है।"]]
        pid_file = tmp_path / "stub.pid"
        adapter = shlex.join([sys.executable, str(STUB_PATH), "--delay-op", "train",
                              "--delay", "30", "--pid-file", str(pid_file)])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"language = hindi\neval = {write_csv(rows)}\n"
            f"train = {write_csv(rows)}\noutput_dir = {tmp_path / 'out'}\n"
            f"preset = hindi-indicbart\nadapter = {adapter}\n", encoding="utf-8")
        with subprocess.Popen(
            [sys.executable, "-m", "indicsum.cli", "run", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": SRC_DIR}, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            deadline = time.monotonic() + 30
            while not (pid_file.exists() and pid_file.read_text().strip()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            stub = int(pid_file.read_text())
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 128 + signal.SIGINT
        assert stderr == "error: interrupted\n"
        assert stdout == ""
        deadline = time.monotonic() + 2
        while True:
            try:
                os.kill(stub, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "the adapter outlived its run"
            time.sleep(0.02)

    def test_translate_map_cli(self, write_csv, tmp_path, gujarati_records, capsys):
        rows = [[r.id, "", "", r.article, r.summary or ""]
                for r in gujarati_records[:5]]
        src = write_csv(rows)
        out = tmp_path / "guj.csv"
        assert main(["translate-map", str(src), "--lang", "gujarati",
                     "--split", "validation", "--max-tokens", "6",
                     "--out", str(out)]) == 0
        assert "5 summaries" in capsys.readouterr().out

    def test_translate_map_cache_lock_held(self, write_csv, tmp_path,
                                           gujarati_records, capsys):
        src = write_csv([[r.id, "", "", r.article, r.summary]
                         for r in gujarati_records[:3]])
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        out = tmp_path / "guj.csv"
        with held_flock(cache_dir):
            assert main(["translate-map", str(src), "--max-tokens", "6",
                         "--cache", str(cache_dir / "tc.jsonl"),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["run", "translate-map"])
    def test_bad_cache_line_is_one_line_error(self, stage, write_csv, tmp_path,
                                              gujarati_records, capsys):
        # The bad line belongs to no record; it fails before the adapter
        # starts, and nothing is written.
        records = gujarati_records[:3]
        src = write_csv([[r.id, "", "", r.article, r.summary] for r in records])
        pid_file = tmp_path / "stub.pid"
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--pid-file", str(pid_file)])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        cache = out_dir / "translation-cache.jsonl"
        sentences = split_sentences(records[0].article, "gujarati")[:3]
        data = "".join(json.dumps({"src": x, "src_lang": "gujarati",
                                   "tgt_lang": "english", "dst": x},
                                  ensure_ascii=False) + "\n"
                       for x in sentences) + '{"src": 1}\n'
        cache.write_text(data, encoding="utf-8")
        out = tmp_path / "guj.csv"
        if stage == "run":
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"language = gujarati\neval = {src}\n"
                           f"output_dir = {out_dir}\npipeline = translate-map\n"
                           f"adapter = {adapter}\n", encoding="utf-8")
            argv = ["run", "--config", str(cfg)]
        else:
            argv = ["translate-map", str(src), "--adapter", adapter,
                    "--cache", str(cache), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {cache}:4: bad cache record: 'src_lang'\n")
        assert sorted(p.name for p in out_dir.iterdir()) == [cache.name]
        assert not out.exists()
        assert cache.read_text(encoding="utf-8") == data
        assert not pid_file.exists()

    @pytest.mark.parametrize("threshold", ["-3", "7"])
    def test_translate_map_threshold_out_of_range(self, threshold, write_csv,
                                                  tmp_path, gujarati_records,
                                                  capsys):
        src = write_csv([[r.id, "", "", r.article, r.summary]
                         for r in gujarati_records[:3]])
        pid_file = tmp_path / "stub.pid"
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--pid-file", str(pid_file)])
        out = tmp_path / "guj.csv"
        assert main(["translate-map", str(src), "--threshold", threshold,
                     "--adapter", adapter, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: threshold must be within [0, 1], got {float(threshold)}\n"
        )
        assert not out.exists()
        assert not pid_file.exists()

    @pytest.mark.parametrize("stage", ["summarize", "translate-map"])
    def test_stage_rejects_zero_budget_up_front(self, stage, write_csv,
                                                tmp_path, gujarati_records,
                                                capsys):
        src = write_csv([[r.id, "", "", r.article, r.summary]
                         for r in gujarati_records[:3]])
        pid_file = tmp_path / "stub.pid"
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--pid-file", str(pid_file)])
        cache = tmp_path / "cache" / "tc.jsonl"
        out = tmp_path / "c.csv"
        assert main([stage, str(src), "--lang", "gujarati", "--max-tokens", "0",
                     "--adapter", adapter, "--out", str(out),
                     *(["--cache", str(cache)] if stage == "translate-map"
                       else [])]) == 1
        assert capsys.readouterr().err == "error: max_tokens must be >= 1, got 0\n"
        assert not out.exists()
        assert not cache.parent.exists()
        assert not pid_file.exists()

    def test_summarize_bad_socket(self, eval_csv, tmp_path, capsys):
        # An empty one is not the baseline; getaddrinfo would connect
        # 99999 to port 34463 and fail -1 only at the first record.
        for socket in ("host:bad", "", "127.0.0.1:99999", "127.0.0.1:-1"):
            assert main(["summarize", str(eval_csv), "--lang", "english",
                         "--socket", socket,
                         "--out", str(tmp_path / "c.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "Traceback" not in err
            if socket.startswith("127.0.0.1"):
                assert err == (f"error: bad socket address {socket!r}:"
                               " the port must be in 1-65535\n")

    def test_summarize_adapter_error_names_record(self, eval_csv, tmp_path,
                                                  capsys):
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--fail-op", "generate"])
        assert main(["summarize", str(eval_csv), "--lang", "english",
                     "--adapter", adapter,
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert "error: record 'e1': adapter error:" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["train", "summarize", "translate-map"])
    def test_stage_closes_adapter(self, stage, write_csv, eval_csv, tmp_path,
                                  gujarati_records, capsys):
        pid_file = tmp_path / "stub.pid"
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--pid-file", str(pid_file)])
        out = str(tmp_path / "c.csv")
        if stage == "train":
            train = write_csv([["t1", "", "", "Body one. Body two.", "Body one."]])
            argv = ["train", "--preset", "english-t5", "--train", str(train)]
        elif stage == "summarize":
            argv = ["summarize", str(eval_csv), "--lang", "english", "--out", out]
        else:
            src = write_csv([[r.id, "", "", r.article, r.summary]
                             for r in gujarati_records[:3]])
            argv = ["translate-map", str(src), "--out", out]
        assert main([*argv, "--adapter", adapter]) == 0
        pid = int(pid_file.read_text(encoding="utf-8"))
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("stage, preset", [
        pytest.param("summarize", None, id="summarize"),
        pytest.param("translate-map", None, id="translate-map"),
        *(pytest.param("summarize", name, id=f"summarize-{name}")
          for name in ("english-pegasus", "english-brio", "english-t5",
                       "extractive-bert")),
    ])
    def test_stage_matches_run_experiment(self, stage, preset, write_csv,
                                          tmp_path, gujarati_records):
        if preset is not None:
            # 150-word articles, so the lead baseline stops at the
            # preset's budget (65 or 75 words).
            src = write_csv([[f"p{i}", "", "", " ".join(
                f"Sentence {j} of article {i}." for j in range(30)),
                f"Sentence 0 of article {i}."] for i in range(3)])
            language, max_tokens, pipeline = "english", None, "direct"
        elif stage == "summarize":
            src = write_csv(ENG_ROWS)
            language, max_tokens, pipeline = "english", 5, "direct"
        else:
            src = write_csv([[r.id, "", "", r.article, r.summary]
                             for r in gujarati_records[:10]])
            language, max_tokens, pipeline = "gujarati", 6, "translate-map"
        budget = (["--preset", preset] if preset
                  else ["--max-tokens", str(max_tokens)])
        run = run_experiment(base_config(src, tmp_path, language=language,
                                         max_tokens=max_tokens,
                                         pipeline=pipeline, preset=preset))
        out = tmp_path / "cli.csv"
        assert main([stage, str(src), "--lang", language, *budget,
                     "--out", str(out)]) == 0
        expected = tmp_path / "out" / f"summaries-{run.config_hash[:12]}.csv"
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("stage", ["summarize", "translate-map"])
    def test_checkpoint_reaches_adapter(self, stage, write_csv, tmp_path,
                                        gujarati_records, capsys):
        # The adapter answers generate only under the checkpoint it
        # expects, echoing the article's first max_tokens words.
        adapter = tmp_path / "checkpoint_adapter.py"
        adapter.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    request = json.loads(line)\n"
            "    payload = request['payload']\n"
            "    if payload.get('checkpoint') == 'ckpt-7':\n"
            "        words = payload['article'].split()[:payload['max_tokens']]\n"
            "        reply = {'result': {'summary': ' '.join(words)}}\n"
            "    else:\n"
            "        reply = {'error': 'no checkpoint ckpt-7'}\n"
            "    print(json.dumps({'id': request['id'], **reply}), flush=True)\n",
            encoding="utf-8")
        src = write_csv([[r.id, "", "", r.article, r.summary]
                         for r in gujarati_records[:3]])
        out = tmp_path / "c.csv"
        argv = [stage, str(src), "--lang", "gujarati", "--max-tokens", "6",
                "--adapter", shlex.join([sys.executable, str(adapter)]),
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: record {gujarati_records[0].id!r}: adapter error:"
            " no checkpoint ckpt-7\n")
        assert not out.exists()
        assert main([*argv, "--checkpoint", "ckpt-7"]) == 0
        assert capsys.readouterr().out == f"{out}: 3 summaries\n"

    @pytest.mark.parametrize("line, message", [
        ("adaptor = python3 my_adapter.py", "unknown config key 'adaptor'"),
        ("epochs = 3", "config key 'epochs' needs model_id"),
        ("model_id = m\nepochs = 0",
         "bad inline spec value: epochs must be >= 1, got 0"),
        ("model_id = m\nepochs = 1\nlearning_rate = nan",
         "bad inline spec value: learning_rate must be finite and > 0, got nan"),
        ("model_id = m\nepochs = 1\nweight_decay = inf",
         "bad inline spec value: weight_decay must be finite and >= 0, got inf"),
        ("adapter = python3 'x",
         "bad adapter command line \"python3 'x\": No closing quotation"),
    ])
    def test_run_rejects_config_before_adapter(self, line, message, write_csv,
                                               eval_csv, tmp_path, capsys):
        pid_file = tmp_path / "stub.pid"
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--pid-file", str(pid_file)])
        train = write_csv([["t1", "", "", "Train body one.", "Train body one."]])
        cfg = tmp_path / "exp.cfg"
        out_dir = tmp_path / "out"
        cfg.write_text(
            f"language = english\neval = {eval_csv}\ntrain = {train}\n"
            f"output_dir = {out_dir}\nadapter = {adapter}\n{line}\n",
            encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()
        assert not pid_file.exists()

    def test_run_and_report(self, eval_csv, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        out_dir = tmp_path / "out"
        cfg.write_text(
            f"language = english\neval = {eval_csv}\n"
            f"output_dir = {out_dir}\nmax_tokens = 5\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert "config hash:" in first
        assert main(["report", "--runs", str(out_dir / "runs.jsonl"),
                     "--format", "csv"]) == 0
        assert "lead-baseline" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value, message", [
        ("approach", 7, "approach must be a str, got 7"),
        ("config_hash", None, "config_hash must be a str, got None"),
        ("timestamp", ["t"], "timestamp must be a str, got ['t']"),
        ("language", {"x": 1}, "language must be a str, got {'x': 1}"),
        ("backend", "lead-baseline",
         "backend must be a dict, got 'lead-baseline'"),
        ("aggregate", [1], "aggregate must be a dict, got [1]"),
    ])
    def test_report_names_a_wrongly_typed_field(self, field, value, message,
                                                 tmp_path, capsys):
        # Also as the last line: a whole line is never taken for a torn one.
        log = tmp_path / "runs.jsonl"
        good = fake_run("x", (0.5, 0.2, 0.1)).to_json()
        bad = json.dumps(json.loads(good) | {field: value})
        log.write_text(f"{good}\n{bad}\n", encoding="utf-8")
        assert main(["report", "--runs", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {log}:2: malformed run record: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("change", [
        {"records": 5}, {"records": None}, {"metrics": {"t": 1}},
    ], ids=["records-int", "records-null", "unknown-key"])
    def test_report_names_a_whole_bad_last_line(self, change, eval_csv,
                                                tmp_path, capsys):
        """A whole last line that is no run record is an error, not a torn
        line: ``report`` names it, and the next run keeps its bytes."""
        log = tmp_path / "out" / "runs.jsonl"
        log.parent.mkdir()
        good = fake_run("x", (0.5, 0.2, 0.1)).to_json()
        bad = json.dumps(json.loads(good) | change)
        log.write_text(f"{good}\n{bad}\n", encoding="utf-8")
        assert main(["report", "--runs", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {log}:2: bad run record: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        with pytest.raises(ConfigError, match=re.escape(f"{log}:2: bad run record: ")):
            run_experiment(base_config(eval_csv, tmp_path))
        assert log.read_text(encoding="utf-8") == f"{good}\n{bad}\n"

    def test_newer_schema_is_refused_by_report_and_run(self, eval_csv, tmp_path,
                                                       capsys):
        """A line of a later schema, with a field this build does not
        know, is one error naming it and the newer writer, from ``report``
        and from ``run`` before its adapter starts; the log keeps its bytes."""
        log = tmp_path / "out" / "runs.jsonl"
        log.parent.mkdir()
        good = fake_run("x", (0.5, 0.2, 0.1)).to_json()
        newer = json.dumps(json.loads(good) | {"schema": 2, "metrics": {}})
        log.write_text(f"{good}\n{newer}\n", encoding="utf-8")
        error = (f"error: {log}:2: run record schema 2 was written by a newer"
                 " indicsum; this one reads schema 1\n")
        assert main(["report", "--runs", str(log)]) == 1
        assert capsys.readouterr().err == error
        pid_file = tmp_path / "stub.pid"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"language = english\neval = {eval_csv}\noutput_dir = {log.parent}\n"
            f"adapter = {shlex.join([sys.executable, str(STUB_PATH), '--pid-file', str(pid_file)])}\n",
            encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == error
        assert not pid_file.exists()
        assert log.read_text(encoding="utf-8") == f"{good}\n{newer}\n"


class TestRunLogSchema:
    def test_line_carries_schema_one(self):
        run = fake_run("x", (0.5, 0.2, 0.1))
        assert run.schema == 1
        assert json.loads(run.to_json())["schema"] == 1
        assert RunRecord.from_json(run.to_json()) == run

    def test_line_without_schema_reads_as_one(self, tmp_path):
        """Logs written before the field existed still load."""
        log = tmp_path / "runs.jsonl"
        payload = json.loads(NON_ASCII_RUN.to_json())
        del payload["schema"]
        log.write_text(json.dumps(payload, ensure_ascii=False) + "\n",
                       encoding="utf-8")
        assert list(load_runs(log)) == [NON_ASCII_RUN]

    @pytest.mark.parametrize("schema, message", [
        (0, "malformed run record: schema must be 1, got 0"),
        ("2", "malformed run record: schema must be a int, got '2'"),
        (3, "run record schema 3 was written by a newer indicsum;"
            " this one reads schema 1"),
    ])
    def test_other_schemas_are_refused(self, schema, message, tmp_path):
        log = tmp_path / "runs.jsonl"
        line = json.dumps(json.loads(fake_run("x", (0.5, 0.2, 0.1)).to_json())
                          | {"schema": schema})
        log.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            list(load_runs(log))
        assert str(info.value) == f"{log}:1: {message}"


def adapter_handle(argv):
    return TrainedHandle(backend=AdapterBackend(argv=argv))


class TestPipelinedGeneration:
    """Behind an adapter, ``summarize_split`` generates one request ahead
    and, in the direct pipeline, hands out each pair as its summary
    arrives; every error names the record a loop over ``summarize``
    names."""

    RECORDS = [ArticleRecord(id=row[0], article=row[3], summary=row[4])
               for row in ENG_ROWS]

    def test_direct_pairs_arrive_one_at_a_time(self, ahead_adapter):
        argv, log = ahead_adapter(len(self.RECORDS))
        handle = adapter_handle(argv)
        with closing(handle.backend):
            pairs = summarize_split(self.RECORDS, handle, GenerationParams())
            rec, summary = next(pairs)
            # Request 2 went out with request 1; request 3 waits for the
            # caller to ask for the second pair.
            assert (rec.id, summary) == ("e1", "Rain hit")
            assert log.read_text(encoding="utf-8") == "1 ahead\n"
            assert [(r.id, s) for r, s in pairs] == [("e2", "The council"),
                                                    ("e3", "Farmers finished")]
        assert log.read_text(encoding="utf-8") == "1 ahead\n2 ahead\n3 alone\n"

    @pytest.mark.parametrize("served", [0, 1, 2], ids=["first", "middle", "last"])
    def test_crash_names_the_record(self, served, eval_csv, tmp_path):
        adapter = shlex.join([sys.executable, str(STUB_PATH),
                              "--crash-after", str(served)])
        with pytest.raises(BackendUnavailable) as info:
            run_experiment(base_config(eval_csv, tmp_path, adapter=adapter))
        assert str(info.value) == (f"record {ENG_ROWS[served][0]!r}:"
                                   " adapter closed the connection")
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("flags, error", [
        (("--fail-op", "generate"),
         "adapter error: stub was told to fail op 'generate'"),
        (("--malformed",),
         "adapter sent a malformed response: 'this is not a json response\\n'"),
    ], ids=["fail-op", "malformed"])
    def test_bad_reply_names_the_first_record(self, flags, error, eval_csv,
                                              tmp_path):
        adapter = shlex.join([sys.executable, str(STUB_PATH), *flags])
        with pytest.raises(BackendUnavailable) as info:
            run_experiment(base_config(eval_csv, tmp_path, adapter=adapter))
        assert str(info.value) == f"record 'e1': {error}"

    def test_adapter_error_leaves_the_backend_usable(self):
        handle = adapter_handle([sys.executable, str(STUB_PATH), "--fail-op",
                                 "generate", "--fail-count", "1"])
        with closing(handle.backend):
            with pytest.raises(BackendUnavailable, match="^record 'e1': adapter error"):
                list(summarize_split(self.RECORDS, handle, GenerationParams()))
            assert [s for _, s in summarize_split(
                self.RECORDS, handle, GenerationParams(max_tokens=2))] == [
                "Rain hit", "The council", "Farmers finished"]

    def test_stalled_adapter_fails_the_run_in_time(self, eval_csv, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(backends, "ADAPTER_TIMEOUT", 0.5)
        adapter = shlex.join([sys.executable, str(STUB_PATH), "--delay-op",
                              "generate", "--delay", "60"])
        start = time.monotonic()
        with pytest.raises(BackendUnavailable) as info:
            run_experiment(base_config(eval_csv, tmp_path, adapter=adapter))
        assert str(info.value) == "record 'e1': adapter transport failed: timed out"
        assert time.monotonic() - start < 5

    def test_abandoned_split_then_generate(self):
        handle = adapter_handle([sys.executable, str(STUB_PATH)])
        with closing(handle.backend):
            pairs = summarize_split(self.RECORDS, handle, GenerationParams(max_tokens=2))
            assert next(pairs)[1] == "Rain hit"
            pairs.close()
            assert handle.backend.generate("x y z", GenerationParams(max_tokens=2)) == "x y"

    @pytest.mark.parametrize("adapter", [False, True],
                             ids=["lead-baseline", "adapter"])
    def test_blank_article_names_its_record(self, adapter):
        """Every backend gives the summary before a blank article, then
        the blank article's error, and stays usable."""
        records = [*self.RECORDS[:1], ArticleRecord(id="blank", article=" ", summary="s")]
        handle = (adapter_handle([sys.executable, str(STUB_PATH)]) if adapter
                  else baseline_handle())
        with closing(handle.backend):
            pairs = summarize_split(records, handle, GenerationParams(max_tokens=2))
            assert next(pairs)[1] == "Rain hit"
            with pytest.raises(EmptyInput, match="^record 'blank': cannot summarize"
                                                 " an empty article$"):
                next(pairs)
            assert backends.summarize(handle, "x y z",
                                      GenerationParams(max_tokens=2)) == "x y"
