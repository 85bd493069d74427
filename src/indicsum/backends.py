"""Summarizer backends: a uniform fine-tune/generate contract, the
hyperparameter presets used by the experiments, a deterministic
lead-sentence baseline, and the out-of-process adapter transport.

Neural models never run inside this package.  A backend is either the
built-in lead baseline or an adapter: a separate process (spawned over
stdio or reached over a local socket) speaking newline-delimited JSON.
Each request is one line ``{"op", "payload", "id"}``; each response is
one line ``{"id", "result"}`` or ``{"id", "error"}``.  Supported ops:

* ``train``    payload {records: [{id, article, summary}], spec: {...}}
               result {checkpoint}
* ``generate`` payload {article, checkpoint, max_tokens, seed}
               result {summary}
* ``score``    payload {sentences: [...], checkpoint}
               result {scores: [...]}

Any transport failure, malformed response or adapter-reported error
surfaces as BackendUnavailable.
"""

import json
import shlex
import socket
import subprocess
import threading
from dataclasses import asdict, dataclass, field

from . import segment
from .corpus import DatasetSplit
from .errors import BackendUnavailable, ConfigError, EmptyInput, InvalidSpec

__all__ = [
    "AdapterBackend",
    "BackendCapabilities",
    "GenerationParams",
    "LeadBaselineBackend",
    "PRESETS",
    "Preset",
    "SummarizerSpec",
    "TrainedHandle",
    "baseline_handle",
    "fine_tune",
    "get_preset",
    "lead_baseline",
    "scorer_from_handle",
    "summarize",
]


@dataclass(frozen=True)
class SummarizerSpec:
    """Training hyperparameters for one summarizer configuration."""

    model_id: str
    epochs: int
    weight_decay: float = 0.0
    learning_rate: float = 5e-5
    batch_size: int = 4
    max_input_tokens: int = 512

    def validate(self) -> None:
        if not self.model_id:
            raise InvalidSpec("model_id must be nonempty")
        if self.epochs < 1:
            raise InvalidSpec(f"epochs must be >= 1, got {self.epochs}")
        if self.weight_decay < 0:
            raise InvalidSpec("weight_decay must be >= 0")
        if self.learning_rate <= 0:
            raise InvalidSpec("learning_rate must be > 0")
        if self.batch_size < 1:
            raise InvalidSpec("batch_size must be >= 1")
        if self.max_input_tokens < 1:
            raise InvalidSpec("max_input_tokens must be >= 1")


@dataclass(frozen=True)
class GenerationParams:
    """Decoding-time knobs shared by every backend."""

    max_tokens: int = 75
    seed: int = 13

    def validate(self) -> None:
        if self.max_tokens < 1:
            raise InvalidSpec(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class BackendCapabilities:
    trainable: bool
    languages: frozenset[str]


@dataclass(frozen=True)
class Preset:
    """A named, ready-to-run configuration from the experiment grid."""

    name: str
    language: str
    spec: SummarizerSpec | None
    generation: GenerationParams = field(default_factory=GenerationParams)
    augment: str | None = None
    pipeline: str = "direct"


def _preset_table() -> dict[str, Preset]:
    def spec(model_id, epochs, **kw):
        return SummarizerSpec(model_id=model_id, epochs=epochs, **kw)

    presets = [
        Preset(
            name="english-pegasus",
            language="english",
            spec=spec("google/pegasus-large", 1, weight_decay=0.01),
            generation=GenerationParams(max_tokens=65),
        ),
        Preset(
            name="english-brio",
            language="english",
            spec=spec("Yale-LILY/brio-cnndm-uncased", 1, weight_decay=0.01),
        ),
        Preset(
            name="english-t5",
            language="english",
            spec=spec("t5-base", 20),
            generation=GenerationParams(max_tokens=75),
        ),
        Preset(
            name="extractive-bert",
            language="english",
            spec=spec(
                "bert-base-multilingual-cased",
                3,
                learning_rate=1e-5,
                batch_size=4,
                max_input_tokens=512,
            ),
        ),
        Preset(
            name="hindi-indicbart",
            language="hindi",
            spec=spec("ai4bharat/IndicBART", 2),
            generation=GenerationParams(max_tokens=60),
            augment="noise",
        ),
        Preset(
            name="hindi-xlsum",
            language="hindi",
            spec=spec("csebuetnlp/mT5_multilingual_XLSum", 2),
        ),
        Preset(
            name="hindi-mbart",
            language="hindi",
            spec=spec("facebook/mbart-large-50", 1),
        ),
        Preset(
            name="gujarati-mbart",
            language="gujarati",
            spec=spec("facebook/mbart-large-50", 1),
            augment="noise",
        ),
        Preset(
            name="gujarati-xlsum",
            language="gujarati",
            spec=spec("csebuetnlp/mT5_multilingual_XLSum", 5),
            generation=GenerationParams(max_tokens=75),
        ),
        Preset(
            name="gujarati-translate-map",
            language="gujarati",
            spec=None,
            generation=GenerationParams(max_tokens=85),
            pipeline="translate-map",
        ),
    ]
    return {p.name: p for p in presets}


PRESETS = _preset_table()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}") from None


def lead_baseline(article: str, params: GenerationParams,
                  language: str = "english") -> str:
    """Deterministic lead summary under a whitespace-word budget.

    Whole sentences are appended in order while the cumulative word
    count stays within ``params.max_tokens``; if even the first
    sentence exceeds the budget it is truncated to ``max_tokens`` words.
    """
    params.validate()
    if not article.strip():
        raise EmptyInput("cannot summarize an empty article")
    sentences = list(segment.split_sentences(article, language))
    chosen = []
    used = 0
    for sent in sentences:
        words = len(segment.tokenize_words(sent))
        if used + words > params.max_tokens:
            break
        chosen.append(sent)
        used += words
    if not chosen:
        first = segment.tokenize_words(sentences[0])
        return " ".join(first[: params.max_tokens])
    return " ".join(chosen)


class LeadBaselineBackend:
    """Non-trainable backend wrapping :func:`lead_baseline`."""

    def __init__(self, language: str = "english"):
        if language not in segment.LANGUAGES:
            raise ValueError(f"unknown language: {language!r}")
        self.language = language
        self.capabilities = BackendCapabilities(
            trainable=False, languages=frozenset(segment.LANGUAGES)
        )

    def generate(self, article: str, params: GenerationParams,
                 checkpoint: str | None = None) -> str:
        return lead_baseline(article, params, self.language)

    def describe(self) -> dict:
        return {"kind": "lead-baseline", "language": self.language}

    def close(self) -> None:
        pass


class AdapterBackend:
    """Out-of-process summarizer reached over stdio or a local socket.

    Exactly one of ``argv`` (command line of a subprocess; a string is
    split with shell quoting rules) and ``address`` ((host, port) of a
    listening adapter) must be given.  The transport starts lazily on
    the first request and is reused; requests are serialized through a
    lock, matching the adapters' single-threaded protocol loop.
    """

    def __init__(self, argv=None, address=None, *, trainable: bool = True,
                 languages=segment.LANGUAGES, timeout: float = 30.0,
                 name: str = "adapter"):
        if (argv is None) == (address is None):
            raise ValueError("pass exactly one of argv or address")
        if isinstance(argv, str):
            argv = shlex.split(argv)
        self._argv = list(argv) if argv else None
        self._address = tuple(address) if address else None
        self._timeout = timeout
        self._proc = None
        self._sock = None
        self._reader = None
        self._writer = None
        self._lock = threading.Lock()
        self._next_id = 0
        self.name = name
        self.capabilities = BackendCapabilities(
            trainable=trainable, languages=frozenset(languages)
        )

    # -- transport ---------------------------------------------------

    def _connect(self) -> None:
        if self._reader is not None:
            return
        try:
            if self._argv is not None:
                self._proc = subprocess.Popen(
                    self._argv,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    encoding="utf-8",
                )
                self._reader = self._proc.stdout
                self._writer = self._proc.stdin
            else:
                self._sock = socket.create_connection(
                    self._address, timeout=self._timeout
                )
                self._reader = self._sock.makefile("r", encoding="utf-8")
                self._writer = self._sock.makefile("w", encoding="utf-8")
        except OSError as exc:
            self.close()
            raise BackendUnavailable(f"cannot reach adapter: {exc}") from exc

    def close(self) -> None:
        for stream in (self._writer, self._reader):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc = self._sock = self._reader = self._writer = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _request(self, op: str, payload: dict) -> dict:
        with self._lock:
            self._connect()
            self._next_id += 1
            req_id = self._next_id
            line = json.dumps(
                {"op": op, "payload": payload, "id": req_id},
                ensure_ascii=False,
            )
            try:
                self._writer.write(line + "\n")
                self._writer.flush()
                raw = self._reader.readline()
            except (OSError, ValueError) as exc:
                self.close()
                raise BackendUnavailable(f"adapter transport failed: {exc}") from exc
            if not raw:
                self.close()
                raise BackendUnavailable("adapter closed the connection")
            try:
                response = json.loads(raw)
            except json.JSONDecodeError as exc:
                self.close()
                raise BackendUnavailable(
                    f"adapter sent a malformed response: {raw!r}"
                ) from exc
            if not isinstance(response, dict) or response.get("id") != req_id:
                self.close()
                raise BackendUnavailable(
                    f"adapter response id mismatch: {response!r}"
                )
            if "error" in response:
                raise BackendUnavailable(f"adapter error: {response['error']}")
            result = response.get("result")
            if not isinstance(result, dict):
                self.close()
                raise BackendUnavailable(f"adapter sent no result: {response!r}")
            return result

    # -- operations --------------------------------------------------

    def train(self, dataset: DatasetSplit, spec: SummarizerSpec) -> str:
        payload = {
            "records": [
                {"id": r.id, "article": r.article, "summary": r.summary or ""}
                for r in dataset.records
            ],
            "spec": asdict(spec),
        }
        result = self._request("train", payload)
        checkpoint = result.get("checkpoint")
        if not isinstance(checkpoint, str) or not checkpoint:
            raise BackendUnavailable(f"train returned no checkpoint: {result!r}")
        return checkpoint

    def generate(self, article: str, params: GenerationParams,
                 checkpoint: str | None = None) -> str:
        result = self._request(
            "generate",
            {
                "article": article,
                "checkpoint": checkpoint,
                "max_tokens": params.max_tokens,
                "seed": params.seed,
            },
        )
        summary = result.get("summary")
        if not isinstance(summary, str) or not summary.strip():
            raise BackendUnavailable(f"generate returned no summary: {result!r}")
        return summary

    def score(self, sentences: list[str], checkpoint: str | None = None) -> list[float]:
        result = self._request(
            "score", {"sentences": list(sentences), "checkpoint": checkpoint}
        )
        scores = result.get("scores")
        if not isinstance(scores, list) or len(scores) != len(sentences):
            raise BackendUnavailable(f"score returned a bad vector: {result!r}")
        return [float(s) for s in scores]

    def describe(self) -> dict:
        transport = (
            {"transport": "stdio", "argv": self._argv}
            if self._argv is not None
            else {"transport": "socket", "address": list(self._address)}
        )
        return {"kind": "adapter", "name": self.name, **transport}


@dataclass(frozen=True)
class TrainedHandle:
    """An immutable, summarize-ready backend reference.

    ``checkpoint`` identifies the trained state inside the adapter (None
    for untrained backends such as the baseline); the handle, not the
    backend, is what pipelines pass around.
    """

    backend: object
    checkpoint: str | None = None
    spec: SummarizerSpec | None = None


def baseline_handle(language: str = "english") -> TrainedHandle:
    """A ready-to-use handle over the lead baseline."""
    return TrainedHandle(backend=LeadBaselineBackend(language))


def fine_tune(backend, dataset: DatasetSplit, spec: SummarizerSpec) -> TrainedHandle:
    """Train ``backend`` on a train split and return a usable handle."""
    spec.validate()
    if dataset.kind != "train":
        raise InvalidSpec(f"fine_tune needs a train split, got {dataset.kind!r}")
    if not backend.capabilities.trainable:
        raise InvalidSpec("backend is not trainable")
    checkpoint = backend.train(dataset, spec)
    return TrainedHandle(backend=backend, checkpoint=checkpoint, spec=spec)


def summarize(handle: TrainedHandle, article: str,
              params: GenerationParams) -> str:
    """Generate a summary for ``article`` through ``handle``."""
    params.validate()
    if not article.strip():
        raise EmptyInput("cannot summarize an empty article")
    return handle.backend.generate(article, params, handle.checkpoint)


def scorer_from_handle(handle: TrainedHandle):
    """Adapt a trained sentence classifier into a plain score function.

    The returned callable maps a list of sentences to a list of floats
    through the adapter's ``score`` op, suitable for
    extractive.score_sentences.
    """
    def scorer(sentences):
        return handle.backend.score(list(sentences), handle.checkpoint)

    return scorer
