import csv
import dataclasses
import fcntl
import json
import os
import shlex
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import indicsum
from indicsum.backends import SummarizerSpec
from indicsum.cli import main
from indicsum.errors import ConfigError, EmptyReport, MissingGoldSummary, NoAlignment
from indicsum.experiments import (
    ExperimentConfig,
    RunRecord,
    config_hash,
    load_runs,
    parse_config_file,
    render_report,
    run_experiment,
)
from indicsum.rouge import corpus_rouge, rouge_n

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
        cfg.write_text(
            "# a comment\n"
            "language = english\n"
            "\n"
            "eval = val.csv\n"
            "output_dir = out\n"
            "seed = 21\n"
            "seed = 22\n",
            encoding="utf-8",
        )
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


class TestRunExperiment:
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

    def test_unknown_preset(self, eval_csv, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(base_config(eval_csv, tmp_path, preset="nope"))

    def test_missing_eval_file(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(
                ExperimentConfig(language="english", eval_path="missing.csv",
                                 output_dir=str(tmp_path))
            )

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
        # Two words cut the first sentence short, and no fragment reaches
        # a threshold of 1.0.
        config = base_config(path, tmp_path, language="gujarati",
                             pipeline="translate-map", threshold=1.0, max_tokens=2)
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


class TestRunLog:
    def test_round_trip(self, eval_csv, tmp_path):
        run = run_experiment(base_config(eval_csv, tmp_path))
        runs = load_runs(tmp_path / "out" / "runs.jsonl")
        assert len(runs) == 1
        assert runs[0] == run

    def test_corrupt_line(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        log.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_runs(log)

    def test_tampered_aggregate_detected(self, eval_csv, tmp_path):
        run_experiment(base_config(eval_csv, tmp_path))
        log = tmp_path / "out" / "runs.jsonl"
        payload = json.loads(log.read_text(encoding="utf-8"))
        payload["aggregate"]["1"]["f1"] += 0.25
        log.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_runs(log)


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


class TestRenderReport:
    def test_formatting(self):
        out = render_report([fake_run("lead-baseline", (0.5, 0.4, 0.3))])
        lines = out.splitlines()
        assert lines[0].split() == [
            "Approach", "Implemented", "ROUGE-1", "ROUGE-2", "ROUGE-4"
        ]
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

    def test_csv_format(self):
        out = render_report([fake_run("x", (0.5, 0.2, 0.1))], format="csv")
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["Approach Implemented", "ROUGE-1", "ROUGE-2", "ROUGE-4"]
        assert rows[1] == ["x", "0.5000", "0.2000", "0.1000"]

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

    def test_summarize_bad_socket(self, eval_csv, tmp_path, capsys):
        assert main(["summarize", str(eval_csv), "--lang", "english",
                     "--socket", "host:bad",
                     "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("stage", ["summarize", "translate-map"])
    def test_stage_matches_run_experiment(self, stage, write_csv, tmp_path,
                                          gujarati_records):
        if stage == "summarize":
            src = write_csv(ENG_ROWS)
            language, max_tokens, pipeline = "english", 5, "direct"
        else:
            src = write_csv([[r.id, "", "", r.article, r.summary]
                             for r in gujarati_records[:10]])
            language, max_tokens, pipeline = "gujarati", 6, "translate-map"
        run = run_experiment(base_config(src, tmp_path, language=language,
                                         max_tokens=max_tokens,
                                         pipeline=pipeline))
        out = tmp_path / "cli.csv"
        assert main([stage, str(src), "--lang", language,
                     "--max-tokens", str(max_tokens), "--out", str(out)]) == 0
        expected = tmp_path / "out" / f"summaries-{run.config_hash[:12]}.csv"
        assert out.read_bytes() == expected.read_bytes()

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
