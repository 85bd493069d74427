"""Config-driven experiment runner.

An experiment is described by a flat key=value config file (or an
ExperimentConfig built in code): which split to summarize, which
backend preset or inline hyperparameters to use, which augmentations
to apply to the train split, and whether generation runs directly or
through the translate/back-map pipeline.  Running one produces a
RunRecord: per-record summaries with their ROUGE scores plus corpus
aggregates, appended as one JSON line to ``runs.jsonl`` in the output
directory.  An flock on the output directory serializes experiments.
Every command that opens a backend resolves its settings through
``resolve_settings`` and enters ``run_setup``; ``run_experiment`` adds
only training, scoring and the run record.
"""

import csv
import fcntl
import hashlib
import io
import json
import os
import urllib.parse
from collections import namedtuple
from contextlib import ExitStack, closing, contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import partial

from . import augment as augment_mod
from . import crosslingual, jsonlog
from .backends import (
    DEFAULT_SEED,
    PRESETS,
    AdapterBackend,
    GenerationParams,
    LeadBaselineBackend,
    SummarizerSpec,
    TrainedHandle,
    fine_tune,
    get_preset,
    summarize_all,
)
from .corpus import SPLIT_KINDS, load_csv, open_utf8, write_summaries
from .crosslingual import (
    DEFAULT_THRESHOLD,
    HttpTranslator,
    IdentityTranslator,
    TableTranslator,
    TranslationCache,
)
from .errors import (
    ConfigError,
    EmptyReport,
    IndicSumError,
    InvalidSpec,
    MissingGoldSummary,
)
from .rouge import DEFAULT_ORDERS, mean_scores, rouge_scores
# Unused here, but e2ebench/tracing.py wraps these names in this module.
from .backends import summarize  # noqa: F401
from .crosslingual import pipeline_summarize  # noqa: F401
from .rouge import corpus_rouge, rouge_n  # noqa: F401
from .segment import LANGUAGES

__all__ = [
    "CONFIG_KEYS",
    "ExperimentConfig",
    "RunRecord",
    "check_unit_interval",
    "config_hash",
    "directory_lock",
    "load_runs",
    "parse_config_file",
    "render_report",
    "resolve_settings",
    "run_experiment",
    "run_setup",
    "summarize_split",
    "train_on_file",
]

DEFAULT_NOISE_RATE = 0.1
RUN_SCHEMA = 1  # the run-log line layout this build writes and reads

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
    pipeline: str | None = None  # None: the preset's pipeline, else "direct"
    translator: str = "identity"
    threshold: float = DEFAULT_THRESHOLD
    max_tokens: int | None = None
    seed: int = DEFAULT_SEED
    adapter: str | None = None
    socket: str | None = None

    def to_mapping(self) -> dict:
        """All fields as JSON-safe primitives, for hashing and logs."""
        out = asdict(self)  # spec too; json.dumps writes the tuple as a list
        # An unset pipeline hashes as the one it resolves to, so a config
        # that names it and one that leaves it to the preset hash alike.
        out["pipeline"] = effective_pipeline(self.pipeline, self.preset)
        return out

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        """Parse ``raw``'s config-file keys (``CONFIG_KEYS``); any other
        key is an error, and a blank value keeps its field's default."""
        values, spec = {}, {}
        for key, value in raw.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            value = str(value).strip()
            if not value:
                continue
            name, parse = CONFIG_KEYS[key]
            into = spec if name in _SPEC_FIELDS else values
            try:
                into[name] = parse(value)
            except ConfigError as exc:
                raise ConfigError(f"config key {key!r} {exc}") from None
            except ValueError as exc:
                what = "inline spec" if into is spec else "config"
                raise ConfigError(f"bad {what} value: {exc}") from None
        if spec:
            if "model_id" not in spec:
                raise ConfigError(f"config key {next(iter(spec))!r} needs model_id")
            values["spec"] = _build(SummarizerSpec, spec)
        return _build(cls, values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_mapping(parse_config_file(path))


def _boolean(word: str) -> bool:
    try:
        return _BOOL_WORDS[word.lower()]
    except KeyError:
        raise ConfigError(f"must be a boolean, got {word!r}") from None


def _steps(value: str) -> tuple[str, ...]:
    return tuple(step.strip() for step in value.split(",") if step.strip())


# Each config-file key: the field it sets and the parser of its value.
# The inline spec keys are SummarizerSpec's fields, parsed by their type.
CONFIG_KEYS = {
    "language": ("language", str),
    "eval": ("eval_path", str),
    "output_dir": ("output_dir", str),
    "eval_kind": ("eval_kind", str),
    "train": ("train_path", str),
    "preset": ("preset", str),
    **{f.name: (f.name, f.type) for f in fields(SummarizerSpec)},
    "augment": ("augmentations", _steps),
    "augment_append": ("augment_append", _boolean),
    "pipeline": ("pipeline", str),
    "translator": ("translator", str),
    "threshold": ("threshold", float),
    "max_tokens": ("max_tokens", int),
    "seed": ("seed", int),
    "adapter": ("adapter", str),
    "socket": ("socket", str),
}
_SPEC_FIELDS = {f.name for f in fields(SummarizerSpec)}


def _build(cls, values: dict):
    """``cls(**values)``, or a ``ConfigError`` naming what is wrong."""
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for key, (name, _) in CONFIG_KEYS.items():
        if name in required and name not in values:
            raise ConfigError(f"config is missing required key {key!r}")
    try:
        return cls(**values)
    except InvalidSpec as exc:
        raise ConfigError(f"bad inline spec value: {exc}") from None


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` config document.

    Blank lines and lines starting with ``#`` are ignored; later keys
    override earlier ones.
    """
    mapping = {}
    with open_utf8(path) as fh:
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
    schema: int = RUN_SCHEMA  # of the run-log line; a line without one is 1

    def to_json(self) -> str:
        # The record is frozen and json.dumps only reads it, so the fields
        # go in as they are: asdict would deep-copy every leaf.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, line) -> "RunRecord":
        """Decode and check one run-log line (str or UTF-8 bytes);
        ``ValueError`` unless it is a JSON object with a RunRecord's
        fields, each of its declared type, with records and an aggregate
        for every reported order, each the mean of its records' scores.
        A line of a later ``schema`` than ``RUN_SCHEMA`` is refused as
        written by a newer indicsum, before its fields are read."""
        try:
            payload = json.loads(line)
            schema = payload.get("schema", RUN_SCHEMA)
            newer = isinstance(schema, int) and schema > RUN_SCHEMA
            if not newer:
                payload["records"] = tuple(payload.get("records", ()))
                run = cls(**payload)
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"bad run record: {exc}") from None
        if newer:
            raise ValueError(f"run record schema {schema} was written by a newer"
                             f" indicsum; this one reads schema {RUN_SCHEMA}")
        for f in fields(run):
            value = getattr(run, f.name)
            if not isinstance(value, f.type):
                raise ValueError(f"malformed run record: {f.name} must be"
                                 f" a {f.type.__name__}, got {value!r}")
        if run.schema != RUN_SCHEMA:
            raise ValueError(f"malformed run record: schema must be"
                             f" {RUN_SCHEMA}, got {run.schema}")
        count = len(run.records)
        if not count:
            raise ValueError("run has no records")
        try:
            for n in dict.fromkeys([*map(str, DEFAULT_ORDERS), *run.aggregate]):
                agg = run.aggregate[n]
                for key in ("precision", "recall", "f1"):
                    mean = sum(r["scores"][n][key] for r in run.records) / count
                    if abs(mean - agg[key]) > 1e-9:
                        raise ValueError(f"aggregate {key} for n={n} is"
                                         f" {agg[key]}, per-record mean is {mean}")
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed run record: {exc!r}") from None
        return run


def _score_triplet(score) -> dict:
    return {"precision": score.precision, "recall": score.recall, "f1": score.f1}


def check_unit_interval(name: str, value: float) -> None:
    """``ConfigError`` unless ``value`` lies in [0, 1] (NaN does not)."""
    if not 0 <= value <= 1:
        raise ConfigError(f"{name} must be within [0, 1], got {value}")


# What resolve_settings returns; ``augmentation`` is (shift, noise rate).
Settings = namedtuple("Settings", "language pipeline spec generation augmentation")


def effective_pipeline(pipeline: str | None, preset: str | None) -> str:
    """``pipeline`` when set, else preset ``preset``'s, else ``direct``."""
    if pipeline is None:
        pipeline = PRESETS[preset].pipeline if preset in PRESETS else "direct"
    return pipeline


def resolve_settings(options) -> Settings:
    """Check and resolve the settings ``run`` and the CLI stages share, from
    an ``ExperimentConfig`` or a stage's arguments, named alike.  A setting
    not given (``None`` or empty) is the preset's, else the default."""
    preset, language = options.preset, options.language
    found = get_preset(preset, language) if preset else None
    if language is None:
        language = found.language if found else "english"
    if language not in LANGUAGES:
        raise ConfigError(f"unknown language {language!r}")
    pipeline = effective_pipeline(options.pipeline, preset)
    if pipeline not in ("direct", "translate-map"):
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    if found is not None and pipeline != found.pipeline:
        raise ConfigError(f"preset {preset!r} runs the"
                          f" {found.pipeline} pipeline, not {pipeline}")
    check_unit_interval("threshold", options.threshold)
    max_tokens = options.max_tokens
    if max_tokens is None:
        max_tokens = (found.generation if found else GenerationParams()).max_tokens
    try:
        generation = GenerationParams(max_tokens, options.seed)
    except InvalidSpec as exc:
        raise ConfigError(str(exc)) from None
    shift, noise_rate = False, None
    steps = options.augmentations
    for step in steps or ([found.augment] if found and found.augment else ()):
        if step == "right-shift":
            shift = True
        elif step == "noise":
            noise_rate = DEFAULT_NOISE_RATE
        elif step.startswith("noise:"):
            try:
                noise_rate = float(step.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad noise rate in step {step!r}") from None
            check_unit_interval("noise rate", noise_rate)
        else:
            raise ConfigError(f"unknown augmentation step {step!r}")
    spec = options.spec or (found.spec if found else None)
    return Settings(language, pipeline, spec, generation, (shift, noise_rate))


def _resolve(config: ExperimentConfig) -> Settings:
    """Check ``config`` before anything runs; return its settings."""
    settings = resolve_settings(config)
    if config.eval_kind not in SPLIT_KINDS:
        raise ConfigError(f"unknown eval_kind {config.eval_kind!r}")
    if not os.path.exists(config.eval_path):
        raise ConfigError(f"eval file does not exist: {config.eval_path}")
    if config.train_path is not None and not os.path.exists(config.train_path):
        raise ConfigError(f"train file does not exist: {config.train_path}")
    return settings


def make_translator(spec: str, language: str):
    """Build a translation client from its config string.

    Accepted forms: ``identity``, ``table:<tsv path>``, ``live:<url>``
    with an ``http``/``https`` URL that names a host.
    """
    if spec == "identity":
        return IdentityTranslator(source_lang=language)
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        if not os.path.exists(path):
            raise ConfigError(f"translator table does not exist: {path}")
        return TableTranslator.from_tsv(path, source_lang=language)
    if spec.startswith("live:"):
        url = spec.split(":", 1)[1]
        try:
            parts = urllib.parse.urlsplit(url)
            valid = parts.scheme in ("http", "https") and parts.hostname
        except ValueError:  # e.g. an unclosed IPv6 bracket
            valid = False
        if not valid:
            raise ConfigError(f"live: needs an http(s) URL with a host, got {url!r}")
        return HttpTranslator(url, source_lang=language)
    raise ConfigError(f"unknown translator {spec!r}")


def train_on_file(backend, spec, train_path, language: str, augmentation, *,
                  seed: int = DEFAULT_SEED, append: bool = True) -> TrainedHandle:
    """Fine-tune ``backend`` on the train CSV at ``train_path``, augmented
    by ``augmentation``, the (shift, noise rate) of ``resolve_settings``.
    ``run_experiment`` and the CLI's ``train`` both train here."""
    train_split = load_csv(train_path, "train", language)
    shift, noise_rate = augmentation
    if shift or noise_rate is not None:
        train_split = augment_mod.augment_split(
            train_split, shift=shift, noise_rate=noise_rate, seed=seed,
            append=append,
        )
    return fine_tune(backend, train_split, spec)


def _name_record(rec, exc):
    """Prepend ``rec``'s id to the toolkit error ``exc``, keeping the
    same object, so ``NoAlignment.sentence`` and such survive."""
    exc.args = (f"record {rec.id!r}: {exc}", *exc.args[1:])


def _with_record_id(rec, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with ``rec``'s id on a toolkit error."""
    try:
        return fn(*args, **kwargs)
    except IndicSumError as exc:
        _name_record(rec, exc)
        raise


def _summarized(records, texts, handle, generation):
    """``(record, summary)`` for each of ``records`` as the summary of its
    text in ``texts`` arrives from ``summarize_all`` (through an adapter,
    one request ahead).  A toolkit error met getting a summary names its
    record."""
    summaries = summarize_all(handle, texts, generation)
    for rec in records:
        try:
            summary = next(summaries)
        except IndicSumError as exc:
            _name_record(rec, exc)
            raise
        yield rec, summary


def summarize_split(split, handle, generation, *, translator=None,
                    cache=None, threshold: float = DEFAULT_THRESHOLD):
    """``(record, summary)`` for every record of ``split``, in order.

    The direct pipeline yields each pair as its summary arrives, so the
    caller works on record k while an adapter generates k+1.  With a
    ``translator`` each stage runs over the whole split before the next,
    here, before this returns: translate (each distinct sentence once,
    one cache ``put``), generate through ``handle``, back-map, so a
    translation error comes before any generation.  Toolkit errors name
    the record; a translation error names the first record holding the
    sentence, and a bad cache line none.
    """
    records = list(split)
    texts = [rec.article for rec in records]
    if translator is None:
        return _summarized(records, texts, handle, generation)
    # Only the mappings are kept; each English article is joined below.
    try:
        mappings = crosslingual.build_mappings(texts, translator, cache=cache)
    except IndicSumError as exc:
        index = getattr(exc, "article_index", None)
        if index is not None:
            _name_record(records[index], exc)
        raise
    english = (m.english_article for m in mappings)
    pairs = list(_summarized(records, english, handle, generation))
    return [(rec, _with_record_id(rec, crosslingual.back_map, summary, m, threshold))
            for (rec, summary), m in zip(pairs, mappings)]


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


@contextmanager
def run_setup(language: str, adapter: str | None = None,
              socket: str | None = None, *, translator: str | None = None,
              directory=None, cache=None):
    """Open what a run needs, in order: the translator from its config
    string (None: direct pipeline), the backend (``adapter``, else
    ``socket``, else the lead baseline; English under a translator; an
    adapter starts on its first request), a lock on ``directory``, made
    if missing (else on the ``cache`` file's), and the cache.  So a bad
    setting fails before any directory is made.  Yields ``(backend,
    summarize_split)`` bound to those."""
    if translator is not None:
        translator = make_translator(translator, language)
        language = "english"
    if adapter is not None:
        backend = AdapterBackend(argv=adapter)
    elif socket is not None:
        host, _, port = socket.rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]  # an IPv6 address, as in [::1]:PORT
        if not host:
            raise ConfigError(f"socket must be host:port, got {socket!r}")
        try:
            port = int(port)
        except ValueError as exc:
            raise ConfigError(f"bad socket address {socket!r}: {exc}") from None
        if not 1 <= port <= 65535:
            raise ConfigError(f"bad socket address {socket!r}:"
                              " the port must be in 1-65535")
        backend = AdapterBackend(address=(host, port))
    else:
        backend = LeadBaselineBackend(language)
    if directory is None and cache:
        directory = os.path.dirname(os.path.abspath(cache))
    with ExitStack() as stack:
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            stack.enter_context(directory_lock(directory))
        stack.enter_context(closing(backend))
        cache = TranslationCache(cache) if cache else None
        yield backend, partial(summarize_split, translator=translator, cache=cache)


def _load_scorable(config: ExperimentConfig, language: str):
    """``config``'s eval split; ``MissingGoldSummary`` naming the first
    record without a gold summary, since scoring needs every one."""
    split = load_csv(config.eval_path, config.eval_kind, language)
    for rec in split:
        if rec.summary is None:
            raise MissingGoldSummary(
                f"record {rec.id!r}: no gold summary;"
                " evaluation needs references"
            )
    return split


def _approach(preset, spec, backend, translate_map: bool) -> str:
    """The results table's name for what made the summaries: ``preset``
    when an adapter ran; else the adapter's model id (``adapter``
    without a spec), else the lead baseline, each after
    ``translate-map+`` when that pipeline ran."""
    adapter = isinstance(backend, AdapterBackend)
    if preset and adapter:
        return preset
    if adapter:
        made = spec.model_id if spec else "adapter"
    else:
        made = "lead-baseline"
    return f"translate-map+{made}" if translate_map else made


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Run one experiment end to end and append its RunRecord.

    Before the backend starts, a run log whose last whole line is no run
    record is refused with the ``ConfigError`` that ``report`` gives for
    it, and keeps its bytes.
    Deterministic for a fixed config when the backend and translator
    are deterministic (the baseline and the offline translators are).
    Module errors raised while processing a record are re-raised with
    the record id prepended.
    """
    language, pipeline, spec, generation, augmentation = _resolve(config)
    translate_map = pipeline == "translate-map"

    # The eval split is checked before the backend starts, so an
    # unscorable split fails before anything trains.
    eval_split = _load_scorable(config, language)

    log = os.path.join(config.output_dir, "runs.jsonl")
    jsonlog.last(log, RunRecord.from_json)

    digest = config_hash(config)
    with run_setup(
        language, config.adapter, config.socket,
        translator=config.translator if translate_map else None,
        directory=config.output_dir,
        cache=os.path.join(config.output_dir, "translation-cache.jsonl")
        if translate_map else None,
    ) as (backend, summarize_all):
        handle = TrainedHandle(backend=backend)
        if spec is not None and backend.trainable and config.train_path:
            # Only one split is held at a time: nothing reads the eval
            # split until generation, so it is dropped while the model
            # trains and loaded (and checked) again after.
            eval_split = None
            handle = train_on_file(
                backend, spec, config.train_path, language,
                augmentation, seed=config.seed, append=config.augment_append,
            )
            eval_split = _load_scorable(config, language)
        approach = _approach(config.preset, spec, backend, translate_map)

        record_rows = []
        per_record = []
        for rec, candidate in summarize_all(
            eval_split, handle, generation, threshold=config.threshold,
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
            language=language,
            backend=backend_meta,
            records=tuple(record_rows),
            aggregate=aggregate,
        )

        write_summaries(
            os.path.join(config.output_dir, f"summaries-{digest[:12]}.csv"),
            ((row["id"], row["summary"]) for row in record_rows),
        )
        jsonlog.append(log, [run.to_json()])
        return run


def load_runs(path):
    """Yield each run of a run log as it is read, checked by
    ``RunRecord.from_json``.

    A torn last line, without its newline, is skipped (``jsonlog``);
    any whole bad line is a ``ConfigError`` naming it."""
    for _, run in jsonlog.read(path, RunRecord.from_json):
        yield run


_REPORT_COLUMNS = ("Approach Implemented", "Language", "ROUGE-1", "ROUGE-2",
                   "ROUGE-4")


def render_report(records, format: str = "table") -> str:
    """Render runs, any iterable, as a results table (one row per run, 4
    decimals), keeping only the rows."""
    rows = [(run.approach, run.language,
             *(f"{run.aggregate[str(n)]['f1']:.4f}" for n in DEFAULT_ORDERS))
            for run in records]
    if not rows:
        raise EmptyReport("no runs to report")
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
