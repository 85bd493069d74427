"""Summarizer backends: a uniform fine-tune/generate contract, the
hyperparameter presets used by the experiments, a deterministic
lead-sentence baseline, and the out-of-process adapter transport.

Neural models never run inside this package.  A backend is either the
built-in lead baseline or an adapter: a separate process (spawned with
one end of a socket pair as its stdin and stdout, or reached over a
local socket) speaking newline-delimited JSON.  Each request is one
line ``{"op", "payload", "id"}``; each response is one line
``{"id", "result"}`` or ``{"id", "error"}``.  A request is written as
it is encoded, a ``train`` request record by record, and is never held
whole.  Supported ops:

* ``train``    payload {records: [{id, article, summary}], spec: {...}}
               result {checkpoint}
* ``generate`` payload {article, checkpoint, max_tokens, seed}
               result {summary}

An adapter that serves an extractive model selects its sentences
inside ``generate``.

Every summary is made one way: ``summarize_all`` refuses a blank
article in its turn, then hands the articles to the backend's
``generate_all``, which yields their summaries in order; ``summarize``
is its one-article call.  ``AdapterBackend.generate_all`` keeps one
``generate`` request in flight: it writes request k+1 before it reads
reply k, so the adapter works while the caller uses summary k.  An
adapter must answer requests in the order it reads them, one reply
each, as a single-threaded read loop does.  On Linux a spawned adapter
is sent SIGTERM when the process that spawned it dies, even by SIGKILL.

Any transport failure, malformed response, adapter-reported error or
result field that is blank or not UTF-8 surfaces as BackendUnavailable.

``socket`` and ``subprocess`` load on an adapter's first request, so a
run without an adapter never loads them.
"""

import json
import math
import shlex
import sys
import threading
from dataclasses import asdict, dataclass, field

from . import segment
from .corpus import DatasetSplit
from .errors import BackendUnavailable, ConfigError, EmptyInput, InvalidSpec

__all__ = [
    "AdapterBackend",
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
    "summarize",
    "summarize_all",
]

ADAPTER_TIMEOUT = 30.0  # seconds an adapter has to answer any op but train
PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


@dataclass(frozen=True)
class SummarizerSpec:
    """Training hyperparameters for one summarizer configuration."""

    model_id: str
    epochs: int
    weight_decay: float = 0.0
    learning_rate: float = 5e-5
    batch_size: int = 4
    max_input_tokens: int = 512

    def __post_init__(self):
        if not self.model_id:
            raise InvalidSpec("model_id must be nonempty")
        if self.epochs < 1:
            raise InvalidSpec(f"epochs must be >= 1, got {self.epochs}")
        # NaN fails every comparison, and neither NaN nor inf is JSON.
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise InvalidSpec(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidSpec(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InvalidSpec("batch_size must be >= 1")
        if self.max_input_tokens < 1:
            raise InvalidSpec("max_input_tokens must be >= 1")


DEFAULT_SEED = 13


@dataclass(frozen=True)
class GenerationParams:
    """Decoding-time knobs shared by every backend."""

    max_tokens: int = 75
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.max_tokens < 1:
            raise InvalidSpec(f"max_tokens must be >= 1, got {self.max_tokens}")


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
    presets = [
        Preset(
            name="english-pegasus",
            language="english",
            spec=SummarizerSpec("google/pegasus-large", 1, weight_decay=0.01),
            generation=GenerationParams(max_tokens=65),
        ),
        Preset(
            name="english-brio",
            language="english",
            spec=SummarizerSpec("Yale-LILY/brio-cnndm-uncased", 1,
                                weight_decay=0.01),
        ),
        Preset(
            name="english-t5",
            language="english",
            spec=SummarizerSpec("t5-base", 20),
        ),
        Preset(
            name="extractive-bert",
            language="english",
            spec=SummarizerSpec(
                "bert-base-multilingual-cased",
                3,
                learning_rate=1e-5,
            ),
        ),
        Preset(
            name="hindi-indicbart",
            language="hindi",
            spec=SummarizerSpec("ai4bharat/IndicBART", 2),
            generation=GenerationParams(max_tokens=60),
            augment="noise",
        ),
        Preset(
            name="hindi-xlsum",
            language="hindi",
            spec=SummarizerSpec("csebuetnlp/mT5_multilingual_XLSum", 2),
        ),
        Preset(
            name="hindi-mbart",
            language="hindi",
            spec=SummarizerSpec("facebook/mbart-large-50", 1),
        ),
        Preset(
            name="gujarati-mbart",
            language="gujarati",
            spec=SummarizerSpec("facebook/mbart-large-50", 1),
            augment="noise",
        ),
        Preset(
            name="gujarati-xlsum",
            language="gujarati",
            spec=SummarizerSpec("csebuetnlp/mT5_multilingual_XLSum", 5),
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


def get_preset(name: str, language: str | None = None) -> Preset:
    """The named preset; ``ConfigError`` if there is none, or if it was
    made for another language than ``language`` (when given)."""
    try:
        preset = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}") from None
    if language not in (None, preset.language):
        raise ConfigError(f"preset {name!r} is for {preset.language}, not {language}")
    return preset


def lead_baseline(article: str, params: GenerationParams,
                  language: str = "english") -> str:
    """Deterministic lead summary under a whitespace-word budget.

    Whole sentences are appended in order while the cumulative word
    count stays within ``params.max_tokens``; if even the first
    sentence exceeds the budget it is truncated to ``max_tokens`` words.
    The article is split only up to the first sentence that breaks the
    budget.
    """
    if not article.strip():
        raise EmptyInput("cannot summarize an empty article")
    chosen = []
    used = 0
    for sent in segment.iter_sentences(article, language):
        words = segment.tokenize_words(sent)
        if used + len(words) > params.max_tokens:
            if not chosen:
                return " ".join(words[: params.max_tokens])
            break
        chosen.append(sent)
        used += len(words)
    return " ".join(chosen)


class LeadBaselineBackend:
    """Non-trainable backend wrapping :func:`lead_baseline`."""

    trainable = False

    def __init__(self, language: str = "english"):
        if language not in segment.LANGUAGES:
            raise ValueError(f"unknown language: {language!r}")
        self.language = language

    def generate_all(self, articles, params: GenerationParams,
                     checkpoint: str | None = None):
        for article in articles:
            yield lead_baseline(article, params, self.language)

    def describe(self) -> dict:
        return {"kind": "lead-baseline", "language": self.language}

    def close(self) -> None:
        pass


class AdapterBackend:
    """Out-of-process summarizer reached over one stream socket.

    Exactly one of ``argv`` (command line of a subprocess; a string is
    split with shell quoting rules, and one that does not split into at
    least one word is a ``ConfigError``) and ``address`` ((host, port) of a
    listening adapter) must be given.  A spawned adapter gets one end of
    a socket pair as its stdin and stdout; the parent closes that end
    after the spawn, so the adapter's exit reads as end of stream.  The
    transport (one stream over the socket: requests go out as text in
    pieces, replies are read as lines from its byte buffer) starts
    lazily on the first request and is reused; requests are serialized
    through a lock, matching the adapters' single-threaded loop.  A
    spawned adapter runs in its own session, so a terminal's Ctrl-C
    reaches only this process, and on Linux it gets SIGTERM when this
    process dies.  Every request is written by ``_send``
    and every reply is parsed and checked by ``_receive``: ``train``'s
    checkpoint and ``generate``'s summary must be text that is not blank
    and encodes as UTF-8.  A ``generate`` write or reply fails after
    ``ADAPTER_TIMEOUT`` seconds; ``train`` waits until the adapter
    answers or its end of the connection closes.
    """

    trainable = True

    def __init__(self, argv=None, address=None):
        if (argv is None) == (address is None):
            raise ValueError("pass exactly one of argv or address")
        if isinstance(argv, str):
            try:
                words = shlex.split(argv)
            except ValueError as exc:
                raise ConfigError(f"bad adapter command line {argv!r}: {exc}") from None
            if not words:
                raise ConfigError(f"adapter command line {argv!r} has no words")
            argv = words
        self._argv = list(argv) if argv else None
        self._address = tuple(address) if address else None
        self._proc = None
        self._sock = None
        self._stream = None
        self._lock = threading.Lock()
        self._next_id = 0

    # -- transport ---------------------------------------------------

    def _connect(self) -> None:
        if self._sock is not None:
            return
        import socket

        try:
            if self._argv is not None:
                import subprocess

                self._sock, child_end = socket.socketpair()
                with child_end:
                    self._proc = subprocess.Popen(
                        self._argv, stdin=child_end, stdout=child_end,
                        start_new_session=True, preexec_fn=_parent_death_signal(),
                    )
            else:
                self._sock = socket.create_connection(
                    self._address, timeout=ADAPTER_TIMEOUT
                )
        except OSError as exc:
            self.close()
            raise BackendUnavailable(f"cannot reach adapter: {exc}") from exc
        self._stream = self._sock.makefile("rw", encoding="utf-8")

    def close(self) -> None:
        for stream in (self._stream, self._sock):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        if self._proc is not None:
            import subprocess  # for TimeoutExpired; loaded by _connect

            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc = self._sock = self._stream = None

    def _send(self, op: str, payload) -> int:
        """Write one ``op`` request and return its id; the caller holds the
        lock.  ``payload`` is JSON text in pieces, each written as it comes
        inside the request's frame.  A failure leaves the connection open
        for the caller to close once it has read the replies sent before:
        a torn request line must never reach the adapter's next read."""
        self._connect()
        self._next_id += 1
        try:
            # No deadline on train: a real fine-tune runs for hours.
            self._sock.settimeout(None if op == "train" else ADAPTER_TIMEOUT)
            self._stream.write(f'{{"op": "{op}", "payload": ')
            for piece in payload:
                self._stream.write(piece)
            self._stream.write(f', "id": {self._next_id}}}\n')
            self._stream.flush()
        except (OSError, ValueError) as exc:
            raise BackendUnavailable(f"adapter transport failed: {exc}") from exc
        return self._next_id

    def _receive(self, op: str, req_id: int, key: str) -> str:
        """Read the reply to request ``req_id`` and return its
        ``result[key]``, a string that is not blank and encodes as UTF-8;
        the caller holds the lock.  A reply that cannot be read or is not
        this request's closes the connection; an adapter-reported error or
        a bad value leaves it open, in step for the next reply."""
        try:
            # From the byte buffer: a text write drops decoded text not
            # yet read, and stray output must be read as the next reply.
            raw = self._stream.buffer.readline().decode("utf-8")
        except ConnectionResetError:  # it exited with a request unread
            raw = ""
        except (OSError, ValueError) as exc:
            self.close()
            raise BackendUnavailable(f"adapter transport failed: {exc}") from exc
        except BaseException:
            self.close()
            raise
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
        value = result.get(key)
        if not isinstance(value, str) or not value.strip():
            raise BackendUnavailable(f"{op} returned no {key}: {result!r}")
        try:
            value.encode("utf-8")  # a lone surrogate does not encode
        except UnicodeEncodeError:
            raise BackendUnavailable(
                f"{op} returned text that is not UTF-8: {value!r}") from None
        return value

    # -- operations --------------------------------------------------

    def train(self, dataset: DatasetSplit, spec: SummarizerSpec) -> str:
        def payload():  # each record is read from the split as it is sent
            yield '{"records": ['
            for i, r in enumerate(dataset.records):
                record = {"id": r.id, "article": r.article, "summary": r.summary or ""}
                yield (", " if i else "") + json.dumps(record, ensure_ascii=False)
            yield f'], "spec": {json.dumps(asdict(spec), ensure_ascii=False)}}}'
        with self._lock:
            try:
                req_id = self._send("train", payload())
            except BaseException:  # also e.g. a record json.dumps cannot encode
                self.close()  # a torn request must not reach the next read
                raise
            return self._receive("train", req_id, "checkpoint")

    def generate(self, article: str, params: GenerationParams,
                 checkpoint: str | None = None) -> str:
        [summary] = self.generate_all([article], params, checkpoint)
        return summary

    def generate_all(self, articles, params: GenerationParams,
                     checkpoint: str | None = None):
        """Yield ``generate``'s summary of each of ``articles``, in order,
        with one request written ahead: request k+1 goes out before reply
        k is read, so the adapter works on it while the caller uses
        summary k.  Each error, one that ``articles`` raises too, comes
        when its article's summary is asked for, after every earlier
        summary, as a loop over ``generate`` would raise it.  A reply
        still in flight when an error is raised or the caller stops is
        read and dropped; the connection closes only if that read fails
        or a request was torn."""
        payloads = (_generate_payload(a, params, checkpoint) for a in articles)
        pending = []    # ids of the requests written whose replies are unread
        failure = None  # what stopped the next request, raised in its turn
        torn = False    # whether a request's write did not finish
        conn = None     # the connection the pending requests went out on
        try:
            while True:
                with self._lock:
                    if pending and self._sock is not conn:
                        raise BackendUnavailable("adapter closed the connection")
                    while failure is None and len(pending) < 2:
                        try:
                            payload = next(payloads, None)
                        except Exception as exc:
                            failure = exc
                            break
                        if payload is None:
                            break
                        torn = True
                        try:
                            pending.append(self._send("generate", (payload,)))
                            torn = False
                        except Exception as exc:
                            failure = exc
                        finally:  # also under e.g. KeyboardInterrupt
                            conn = self._sock
                    if not pending:
                        if failure is not None:
                            raise failure
                        return
                    summary = self._receive("generate", pending.pop(0), "summary")
                yield summary
        finally:
            if self._sock is conn:  # else closed since, with nothing left on it
                if torn:
                    self.close()
                elif pending:
                    with self._lock:
                        try:
                            self._receive("generate", pending[0], "summary")
                        except BackendUnavailable:
                            pass

    def describe(self) -> dict:
        transport = (
            {"transport": "stdio", "argv": self._argv}
            if self._argv is not None
            else {"transport": "socket", "address": list(self._address)}
        )
        return {"kind": "adapter", "name": "adapter", **transport}


def _parent_death_signal():
    """A ``preexec_fn`` that has Linux send the adapter SIGTERM when this
    process dies, even by SIGKILL; None elsewhere.  ``ctypes`` and
    ``prctl`` are resolved here, in the parent, so the child only calls."""
    # The signal follows the death of the thread that spawned the child,
    # not of the process, so only the main thread, which outlives every
    # other, asks for it: an adapter spawned by a worker thread would
    # otherwise die when that thread returns.
    if (not sys.platform.startswith("linux")
            or threading.current_thread() is not threading.main_thread()):
        return None
    import ctypes
    import signal

    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    return lambda: prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _generate_payload(article: str, params: GenerationParams,
                      checkpoint: str | None) -> str:
    return json.dumps({
        "article": article,
        "checkpoint": checkpoint,
        "max_tokens": params.max_tokens,
        "seed": params.seed,
    }, ensure_ascii=False)


@dataclass(frozen=True)
class TrainedHandle:
    """An immutable, summarize-ready backend reference.

    ``checkpoint`` identifies the trained state inside the adapter (None
    for untrained backends such as the baseline); the handle, not the
    backend, is what pipelines pass around.
    """

    backend: object
    checkpoint: str | None = None


def baseline_handle(language: str = "english") -> TrainedHandle:
    """A ready-to-use handle over the lead baseline."""
    return TrainedHandle(backend=LeadBaselineBackend(language))


def fine_tune(backend, dataset: DatasetSplit, spec: SummarizerSpec) -> TrainedHandle:
    """Train ``backend`` on a train split and return a usable handle."""
    if dataset.kind != "train":
        raise InvalidSpec(f"fine_tune needs a train split, got {dataset.kind!r}")
    if not backend.trainable:
        raise InvalidSpec("backend is not trainable")
    checkpoint = backend.train(dataset, spec)
    return TrainedHandle(backend=backend, checkpoint=checkpoint)


def summarize_all(handle: TrainedHandle, articles, params: GenerationParams):
    """The summaries of ``articles`` through ``handle``, in order, as its
    backend's ``generate_all`` yields them.  A blank article raises
    ``EmptyInput`` in its turn, after every earlier summary, and never
    reaches the backend."""
    def checked():
        for article in articles:
            if not article.strip():
                raise EmptyInput("cannot summarize an empty article")
            yield article

    return handle.backend.generate_all(checked(), params, handle.checkpoint)


def summarize(handle: TrainedHandle, article: str,
              params: GenerationParams) -> str:
    """Generate a summary for ``article`` through ``handle``."""
    [summary] = summarize_all(handle, [article], params)
    return summary

