"""Config-driven experiment runner.

An experiment is described by a flat key=value config file (or an
ExperimentConfig built in code): which split to summarize, which
backend preset or inline hyperparameters to use, which augmentations
to apply to the train split, and whether generation runs directly or
through the translate/back-map pipeline.  Running one produces a
RunRecord: per-record summaries with their ROUGE scores plus corpus
aggregates, appended as one JSON line to ``runs.jsonl`` in the output
directory.  An flock on the output directory serializes experiments.
The CLI stages share ``run_experiment``'s backend, generation and
per-record helpers.
"""

import csv
import fcntl
import hashlib
import io
import json
import os
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone

from . import augment as augment_mod
from .backends import (
    AdapterBackend,
    GenerationParams,
    LeadBaselineBackend,
    SummarizerSpec,
    TrainedHandle,
    fine_tune,
    get_preset,
    summarize,
)
from .corpus import load_csv
from .crosslingual import (
    DEFAULT_THRESHOLD,
    HttpTranslator,
    IdentityTranslator,
    TableTranslator,
    TranslationCache,
    pipeline_summarize,
)
from .errors import ConfigError, EmptyReport, IndicSumError, MissingGoldSummary
from .rouge import DEFAULT_ORDERS, mean_scores, rouge_scores
# Unused here, but e2ebench/tracing.py wraps these two names in this module.
from .rouge import corpus_rouge, rouge_n  # noqa: F401
from .segment import LANGUAGES

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "config_hash",
    "directory_lock",
    "generation_params",
    "load_runs",
    "open_backend",
    "parse_config_file",
    "render_report",
    "run_experiment",
    "summarize_split",
    "write_summaries",
]

DEFAULT_NOISE_RATE = 0.1
DEFAULT_SEED = 13

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    language: str
    eval_path: str
    output_dir: str
    eval_kind: str = "validation"
    train_path: str | None = None
    preset: str | None = None
    spec: SummarizerSpec | None = None
    augmentations: tuple[str, ...] = ()
    augment_append: bool = True
    pipeline: str = "direct"
    translator: str = "identity"
    threshold: float = 0.6
    max_tokens: int | None = None
    seed: int = DEFAULT_SEED
    adapter: str | None = None
    socket: str | None = None

    def to_mapping(self) -> dict:
        """All fields as JSON-safe primitives, for hashing and logs."""
        out = asdict(self)
        out["augmentations"] = list(self.augmentations)
        out["spec"] = asdict(self.spec) if self.spec else None
        return out

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        def need(key):
            if key not in raw or str(raw[key]).strip() == "":
                raise ConfigError(f"config is missing required key {key!r}")
            return str(raw[key]).strip()

        def opt(key, default=None):
            value = raw.get(key)
            if value is None or str(value).strip() == "":
                return default
            return str(value).strip()

        def boolean(key, default):
            value = opt(key)
            if value is None:
                return default
            try:
                return _BOOL_WORDS[value.lower()]
            except KeyError:
                raise ConfigError(
                    f"config key {key!r} must be a boolean, got {value!r}"
                ) from None

        spec = None
        if opt("model_id"):
            try:
                spec = SummarizerSpec(
                    model_id=need("model_id"),
                    epochs=int(need("epochs")),
                    weight_decay=float(opt("weight_decay", "0.0")),
                    learning_rate=float(opt("learning_rate", "5e-5")),
                    batch_size=int(opt("batch_size", "4")),
                    max_input_tokens=int(opt("max_input_tokens", "512")),
                )
            except ValueError as exc:
                raise ConfigError(f"bad inline spec value: {exc}") from None

        augmentations = tuple(
            step.strip()
            for step in opt("augment", "").split(",")
            if step.strip()
        )
        max_tokens = opt("max_tokens")
        try:
            return cls(
                language=need("language"),
                eval_path=need("eval"),
                output_dir=need("output_dir"),
                eval_kind=opt("eval_kind", "validation"),
                train_path=opt("train"),
                preset=opt("preset"),
                spec=spec,
                augmentations=augmentations,
                augment_append=boolean("augment_append", True),
                pipeline=opt("pipeline", "direct"),
                translator=opt("translator", "identity"),
                threshold=float(opt("threshold", "0.6")),
                max_tokens=int(max_tokens) if max_tokens is not None else None,
                seed=int(opt("seed", str(DEFAULT_SEED))),
                adapter=opt("adapter"),
                socket=opt("socket"),
            )
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_mapping(parse_config_file(path))


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` config document.

    Blank lines and lines starting with ``#`` are ignored; later keys
    override earlier ones.
    """
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def config_hash(config: ExperimentConfig) -> str:
    """Stable digest of the full config; changes iff a field changes."""
    canonical = json.dumps(
        config.to_mapping(), sort_keys=True, ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """One completed experiment: summaries, scores and provenance."""

    config_hash: str
    timestamp: str
    approach: str
    language: str
    backend: dict
    records: tuple = field(default_factory=tuple)
    aggregate: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["records"] = list(self.records)
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        payload = json.loads(line)
        payload["records"] = tuple(payload.get("records", ()))
        return cls(**payload)


def _score_triplet(score) -> dict:
    return {"precision": score.precision, "recall": score.recall, "f1": score.f1}


def _validate(config: ExperimentConfig) -> None:
    if config.language not in LANGUAGES:
        raise ConfigError(f"unknown language {config.language!r}")
    if config.pipeline not in ("direct", "translate-map"):
        raise ConfigError(f"unknown pipeline {config.pipeline!r}")
    if not 0 <= config.threshold <= 1:
        raise ConfigError(f"threshold must be within [0, 1], got {config.threshold}")
    if config.preset is not None:
        get_preset(config.preset)
    if not os.path.exists(config.eval_path):
        raise ConfigError(f"eval file does not exist: {config.eval_path}")
    if config.train_path is not None and not os.path.exists(config.train_path):
        raise ConfigError(f"train file does not exist: {config.train_path}")
    for step in config.augmentations:
        if step != "right-shift" and not step.startswith("noise"):
            raise ConfigError(f"unknown augmentation step {step!r}")


def _parse_augmentations(steps, preset) -> tuple[bool, float | None]:
    """Resolve config/preset augmentation steps to (shift, noise rate)."""
    steps = list(steps)
    if not steps and preset is not None and preset.augment:
        steps = [preset.augment]
    shift = False
    noise_rate = None
    for step in steps:
        if step == "right-shift":
            shift = True
        elif step == "noise":
            noise_rate = DEFAULT_NOISE_RATE
        elif step.startswith("noise:"):
            try:
                noise_rate = float(step.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad noise rate in step {step!r}") from None
        else:
            raise ConfigError(f"unknown augmentation step {step!r}")
    return shift, noise_rate


def make_translator(spec: str, language: str):
    """Build a translation client from its config string.

    Accepted forms: ``identity``, ``table:<tsv path>``, ``live:<url>``.
    """
    if spec == "identity":
        return IdentityTranslator(source_lang=language)
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        if not os.path.exists(path):
            raise ConfigError(f"translator table does not exist: {path}")
        return TableTranslator.from_tsv(path, source_lang=language)
    if spec.startswith("live:"):
        return HttpTranslator(spec.split(":", 1)[1], source_lang=language)
    raise ConfigError(f"unknown translator {spec!r}")


def open_backend(adapter: str | None, socket: str | None, language: str):
    """The adapter given as a command line or ``host:port``, else the
    lead baseline for ``language``.  The caller closes it."""
    if adapter:
        return AdapterBackend(argv=adapter)
    if socket:
        host, _, port = socket.rpartition(":")
        if not host:
            raise ConfigError(f"socket must be host:port, got {socket!r}")
        try:
            return AdapterBackend(address=(host, int(port)))
        except ValueError as exc:
            raise ConfigError(f"bad socket address {socket!r}: {exc}") from None
    return LeadBaselineBackend(language)


def generation_params(preset, max_tokens: int | None,
                      seed: int = DEFAULT_SEED) -> GenerationParams:
    """The preset's generation settings (or the defaults), with
    ``max_tokens`` overriding its budget when given."""
    generation = preset.generation if preset else GenerationParams()
    if max_tokens is not None:
        generation = replace(generation, max_tokens=max_tokens)
    return replace(generation, seed=seed)


def summarize_split(split, handle, generation, *, translator=None,
                    cache=None, threshold: float = DEFAULT_THRESHOLD):
    """Yield ``(record, summary)`` for every record of ``split``, in order.

    With a ``translator`` each summary goes through the translate/back-map
    pipeline, else straight through ``handle``.  Toolkit errors are
    re-raised with the record id prepended.
    """
    for rec in split:
        try:
            if translator is None:
                summary = summarize(handle, rec.article, generation)
            else:
                summary = pipeline_summarize(
                    rec.article, translator, handle, generation,
                    threshold=threshold, cache=cache,
                )
        except IndicSumError as exc:
            # Re-raise the same object so fields such as
            # NoAlignment.sentence survive the added record id.
            exc.args = (f"record {rec.id!r}: {exc}", *exc.args[1:])
            raise
        yield rec, summary


def write_summaries(path, rows) -> None:
    """Write ``(id, summary)`` rows as an ``id,Summary`` CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "Summary"])
        writer.writerows(rows)


@contextmanager
def directory_lock(path):
    """Hold an exclusive lock on directory ``path`` for the block.

    ``ConfigError`` if the lock is already held.  The lock is an flock on
    an open descriptor, so the kernel releases it when the holder exits,
    even after ``kill -9``.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"another process holds the lock on {path}") from None
        yield
    finally:
        os.close(fd)


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Run one experiment end to end and append its RunRecord.

    Deterministic for a fixed config when the backend and translator
    are deterministic (the baseline and the offline translators are).
    Module errors raised while processing a record are re-raised with
    the record id prepended.
    """
    _validate(config)
    preset = get_preset(config.preset) if config.preset else None
    generation = generation_params(preset, config.max_tokens, config.seed)
    translate_map = config.pipeline == "translate-map"
    approach = config.preset or (
        "translate-map+lead-baseline" if translate_map else "lead-baseline"
    )

    digest = config_hash(config)
    os.makedirs(config.output_dir, exist_ok=True)
    with directory_lock(config.output_dir), closing(open_backend(
        config.adapter, config.socket,
        "english" if translate_map else config.language,
    )) as backend:
        spec = config.spec or (preset.spec if preset else None)
        handle = TrainedHandle(backend=backend)
        if spec is not None and backend.capabilities.trainable and config.train_path:
            train_split = load_csv(config.train_path, "train", config.language)
            shift, noise_rate = _parse_augmentations(config.augmentations, preset)
            if shift or noise_rate is not None:
                train_split = augment_mod.augment_split(
                    train_split,
                    shift=shift,
                    noise_rate=noise_rate,
                    seed=config.seed,
                    append=config.augment_append,
                )
            handle = fine_tune(backend, train_split, spec)

        eval_split = load_csv(config.eval_path, config.eval_kind, config.language)
        for rec in eval_split:
            if rec.summary is None:
                raise MissingGoldSummary(
                    f"record {rec.id!r}: no gold summary;"
                    " evaluation needs references"
                )

        translator = None
        cache = None
        if translate_map:
            translator = make_translator(config.translator, config.language)
            cache = TranslationCache(
                os.path.join(config.output_dir, "translation-cache.jsonl")
            )

        record_rows = []
        per_record = []
        for rec, candidate in summarize_split(
            eval_split, handle, generation, translator=translator,
            cache=cache, threshold=config.threshold,
        ):
            scores = rouge_scores(candidate, rec.summary, DEFAULT_ORDERS)
            record_rows.append({
                "id": rec.id, "summary": candidate,
                "scores": {str(n): _score_triplet(s) for n, s in scores.items()},
            })
            per_record.append(scores)

        aggregate = {
            str(n): _score_triplet(score)
            for n, score in mean_scores(per_record).items()
        }

        backend_meta = backend.describe()
        backend_meta["checkpoint"] = handle.checkpoint
        backend_meta["spec"] = asdict(spec) if spec else None
        backend_meta["generation"] = asdict(generation)

        run = RunRecord(
            config_hash=digest,
            timestamp=datetime.now(timezone.utc).isoformat(),
            approach=approach,
            language=config.language,
            backend=backend_meta,
            records=tuple(record_rows),
            aggregate=aggregate,
        )

        write_summaries(
            os.path.join(config.output_dir, f"summaries-{digest[:12]}.csv"),
            ((row["id"], row["summary"]) for row in record_rows),
        )
        with open(os.path.join(config.output_dir, "runs.jsonl"), "a",
                  encoding="utf-8") as fh:
            fh.write(run.to_json() + "\n")
        return run


def _check_consistency(run: RunRecord, path, lineno: int) -> None:
    for n, agg in run.aggregate.items():
        count = len(run.records)
        if count == 0:
            raise ConfigError(f"{path}:{lineno}: run has no records")
        for key in ("precision", "recall", "f1"):
            mean = sum(r["scores"][n][key] for r in run.records) / count
            if abs(mean - agg[key]) > 1e-9:
                raise ConfigError(
                    f"{path}:{lineno}: aggregate {key} for n={n} is"
                    f" {agg[key]}, per-record mean is {mean}"
                )


def load_runs(path) -> list[RunRecord]:
    """Load a run log, checking each aggregate against its records."""
    runs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                run = RunRecord.from_json(line)
            except (json.JSONDecodeError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad run record: {exc}") from None
            _check_consistency(run, path, lineno)
            runs.append(run)
    return runs


_REPORT_COLUMNS = ("Approach Implemented", "ROUGE-1", "ROUGE-2", "ROUGE-4")


def _report_rows(records) -> list[tuple[str, str, str, str]]:
    rows = []
    for run in records:
        rows.append(
            (
                run.approach,
                *(f"{run.aggregate[str(n)]['f1']:.4f}" for n in DEFAULT_ORDERS),
            )
        )
    return rows


def render_report(records, format: str = "table") -> str:
    """Render runs as a results table (one row per run, 4 decimals)."""
    records = list(records)
    if not records:
        raise EmptyReport("no runs to report")
    rows = _report_rows(records)
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(_REPORT_COLUMNS)
        writer.writerows(rows)
        return out.getvalue()
    if format != "table":
        raise ValueError(f"unknown report format {format!r}")
    widths = [
        max(len(_REPORT_COLUMNS[i]), *(len(row[i]) for row in rows))
        for i in range(len(_REPORT_COLUMNS))
    ]
    lines = [
        "  ".join(name.ljust(widths[i]) for i, name in enumerate(_REPORT_COLUMNS)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
