"""Outside-in tracing of indicsum for the end-to-end benchmark.

``Tracer.install`` replaces each traced function at the name its caller
looks it up by (modules import functions by name, so
``indicsum.experiments.rouge_n`` is wrapped, not only
``indicsum.rouge.rouge_n``) and ``uninstall`` puts the originals back.
Spans are kept in memory as ``(id, parent, name, start, end, record)``
tuples; ``record`` is the id of the eval record being summarized.

A span opened on a worker thread with no open span of its own gets the
main thread's innermost span as parent: the program's translation pool
runs while ``build_mapping`` waits for it.
"""

import gzip
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict

from indicsum import augment, backends, crosslingual, experiments, rouge, segment

# (owner, attribute, span name).  Owners are the modules or classes the
# callers look the name up in.
TRACED = (
    (experiments, "run_experiment", "experiments.run_experiment"),
    (experiments, "load_csv", "corpus.load_csv"),
    (augment, "augment_split", "augment.augment_split"),
    (experiments, "fine_tune", "backends.fine_tune"),
    (experiments, "make_translator", "experiments.make_translator"),
    (experiments, "summarize", "backends.summarize"),
    (experiments, "pipeline_summarize", "crosslingual.pipeline_summarize"),
    (experiments, "rouge_n", "rouge.rouge_n"),
    (experiments, "corpus_rouge", "rouge.corpus_rouge"),
    (rouge, "rouge_tokens", "rouge.rouge_tokens"),
    (segment, "split_sentences", "segment.split_sentences"),
    (segment, "strip_punctuation", "segment.strip_punctuation"),
    (crosslingual, "summarize", "backends.summarize"),
    (crosslingual, "build_mapping", "crosslingual.build_mapping"),
    (crosslingual, "back_map", "crosslingual.back_map"),
    (crosslingual, "rouge_tokens", "rouge.rouge_tokens"),
    (crosslingual.TableTranslator, "translate", "crosslingual.translate"),
    (crosslingual.TranslationCache, "__init__", "crosslingual.cache.load"),
    (crosslingual.TranslationCache, "get", "crosslingual.cache.get"),
    (crosslingual.TranslationCache, "put", "crosslingual.cache.put"),
    (backends.AdapterBackend, "train", "backends.adapter.train"),
    (backends.AdapterBackend, "generate", "backends.adapter.generate"),
    (backends.AdapterBackend, "close", "backends.adapter.close"),
)

# Calls that start work on one eval record; their article argument
# names the record for every span until the next one.
_RECORD_STARTS = {"backends.summarize", "crosslingual.pipeline_summarize"}

PER_LAYER = (
    ("corpus.load_csv.s", "s"),
    ("augment.augment_split.s", "s"),
    ("augment.records_out", "count"),
    ("segment.split_sentences.s", "s"),
    ("segment.split_sentences.calls", "count"),
    ("segment.strip_punctuation.s", "s"),
    ("segment.strip_punctuation.calls_per_record", "count"),
    ("rouge.rouge_n.s", "s"),
    ("rouge.corpus_rouge.s", "s"),
    ("rouge.rouge_tokens.calls_per_record", "count"),
    ("backends.summarize.s", "s"),
    ("backends.adapter.train.s", "s"),
    ("backends.adapter.generate.s", "s"),
    ("backends.adapter.generate.p50_ms", "ms"),
    ("backends.adapter.generate.max_ms", "ms"),
    ("backends.adapter.payload_bytes", "bytes"),
    ("crosslingual.build_mapping.s", "s"),
    ("crosslingual.translate.calls", "count"),
    ("crosslingual.cache.put.s", "s"),
    ("crosslingual.cache.put.calls", "count"),
    ("crosslingual.cache.bytes_written", "bytes"),
    ("crosslingual.cache.load_s", "s"),
    ("crosslingual.cache.get.calls", "count"),
    ("crosslingual.cache.hit_ratio", "ratio"),
    ("crosslingual.back_map.s", "s"),
    ("crosslingual.back_map.fuzzy_ratio", "ratio"),
    ("experiments.run_experiment.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Span recorder over the functions in ``TRACED``."""

    def __init__(self, article_ids):
        self.article_ids = article_ids
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()
        self._saved = []
        self.reset()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        starts_record = name in _RECORD_STARTS
        observe = {
            "augment.augment_split": self._observe_augment,
            "crosslingual.cache.get": self._observe_get,
            "backends.adapter.train": self._observe_train,
            "backends.adapter.generate": self._observe_generate,
        }.get(name)

        def traced(*args, **kwargs):
            if starts_record:
                for arg in args:
                    if isinstance(arg, str) and arg in self.article_ids:
                        self._record = self.article_ids[arg]
                        break
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, self._record))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_augment(self, args, result):
        self.augmented_records += len(result)

    def _observe_get(self, args, result):
        if result is not None:
            self.cache_hits += 1

    def _observe_train(self, args, result):
        _, dataset, spec = args
        self.requests.append(("train", {
            "records": [{"id": r.id, "article": r.article, "summary": r.summary or ""}
                        for r in dataset.records],
            "spec": asdict(spec),
        }))

    def _observe_generate(self, args, result):
        _, article, params, checkpoint = args
        self.requests.append(("generate", {
            "article": article, "checkpoint": checkpoint,
            "max_tokens": params.max_tokens, "seed": params.seed,
        }))

    def install(self):
        for owner, attr, name in TRACED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def reset(self):
        """Forget what the previous traced iteration recorded."""
        self.spans = []
        self.cache_hits = 0
        self.augmented_records = 0
        self.requests = []      # (op, payload) as the adapter protocol sends them
        self._record = None

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, record in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "record": record}) + "\n")


def _union(intervals):
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def layer_times(spans):
    """``{name: (calls, inclusive s, self s)}``; self time is a span's
    duration minus the part of it its child spans cover."""
    children = {}
    for span_id, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, name, start, end, _ in spans:
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        duration = end - start
        covered = _union(children.get(span_id, ()))
        out[name] = (calls + 1, total + duration, own + duration - covered)
    return out


def _payload_bytes(requests):
    return sum(
        len(json.dumps({"op": op, "payload": payload, "id": i},
                       ensure_ascii=False).encode("utf-8")) + 1
        for i, (op, payload) in enumerate(requests, start=1)
    )


def layer_metrics(tracer, records, cache_bytes, fuzzy_ratio):
    """The per-layer metrics of one traced iteration that scored ``records``."""
    times = layer_times(tracer.spans)

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    generate_ms = [(end - start) * 1e3 for _, _, name, start, end, _ in tracer.spans
                   if name == "backends.adapter.generate"]
    gets = calls("crosslingual.cache.get")
    return {
        "corpus.load_csv.s": inclusive("corpus.load_csv"),
        "augment.augment_split.s": inclusive("augment.augment_split"),
        "augment.records_out": tracer.augmented_records,
        "segment.split_sentences.s": inclusive("segment.split_sentences"),
        "segment.split_sentences.calls": calls("segment.split_sentences"),
        "segment.strip_punctuation.s": inclusive("segment.strip_punctuation"),
        "segment.strip_punctuation.calls_per_record":
            calls("segment.strip_punctuation") / records,
        "rouge.rouge_n.s": inclusive("rouge.rouge_n"),
        "rouge.corpus_rouge.s": inclusive("rouge.corpus_rouge"),
        "rouge.rouge_tokens.calls_per_record": calls("rouge.rouge_tokens") / records,
        "backends.summarize.s": inclusive("backends.summarize"),
        "backends.adapter.train.s": inclusive("backends.adapter.train"),
        "backends.adapter.generate.s": inclusive("backends.adapter.generate"),
        "backends.adapter.generate.p50_ms":
            statistics.median(generate_ms) if generate_ms else 0.0,
        "backends.adapter.generate.max_ms": max(generate_ms, default=0.0),
        "backends.adapter.payload_bytes": _payload_bytes(tracer.requests),
        "crosslingual.build_mapping.s": inclusive("crosslingual.build_mapping"),
        "crosslingual.translate.calls": calls("crosslingual.translate"),
        "crosslingual.cache.put.s": inclusive("crosslingual.cache.put"),
        "crosslingual.cache.put.calls": calls("crosslingual.cache.put"),
        "crosslingual.cache.bytes_written": cache_bytes,
        "crosslingual.cache.load_s": inclusive("crosslingual.cache.load"),
        "crosslingual.cache.get.calls": gets,
        "crosslingual.cache.hit_ratio": tracer.cache_hits / gets if gets else 0.0,
        "crosslingual.back_map.s": inclusive("crosslingual.back_map"),
        "crosslingual.back_map.fuzzy_ratio":
            fuzzy_ratio if calls("crosslingual.back_map") else 0.0,
        "experiments.run_experiment.self_s":
            times.get("experiments.run_experiment", (0, 0.0, 0.0))[2],
    }
