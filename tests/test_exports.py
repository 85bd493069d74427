"""Every exported name exists, so a deletion cannot leave a stale export,
and every name the benchmark's tracer patches exists too; what the
tracer reads of a traced run matches what the run sent.  Importing the
package loads none of the modules only the live translator, the
translation pool and the adapter transport use, and exactly the
modules pinned here."""

import importlib
import importlib.util
import json
import os
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import indicsum
from indicsum import experiments, rouge
from indicsum.experiments import ExperimentConfig

MODULES = ["indicsum"] + [
    f"indicsum.{info.name}" for info in pkgutil.iter_modules(indicsum.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def load_tracing():
    """The benchmark's ``e2ebench/tracing.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "e2ebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("e2ebench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_exist():
    """The benchmark's tracer patches each ``(owner, attr)`` in its
    ``TRACED`` table, and its runner records ``rouge.KERNEL_BACKEND``;
    a deletion that removes one breaks the benchmark."""
    tracing = load_tracing()
    assert tracing.TRACED
    assert [(owner.__name__, attr) for owner, attr, _ in tracing.TRACED
            if attr not in owner.__dict__] == []
    assert hasattr(rouge, "KERNEL_BACKEND")


def test_tracer_reads_augmented_split_again(write_csv, tmp_path):
    """The tracer takes ``len()`` of ``augment_split``'s result and reads
    the trained split's records again after ``train``; both must match
    the records the adapter received, so the records stay re-iterable."""
    tracing = load_tracing()
    requests = tmp_path / "requests.jsonl"
    adapter = tmp_path / "recording_adapter.py"
    adapter.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        f"    with open({str(requests)!r}, 'a', encoding='utf-8') as log:\n"
        "        log.write(line)\n"
        "    request = json.loads(line)\n"
        "    reply = {'id': request['id'],\n"
        "             'result': {'checkpoint': 'c', 'summary': 'सार'}}\n"
        "    print(json.dumps(reply), flush=True)\n", encoding="utf-8")
    rows = [[f"t{i}", "", "", f"पहला वाक्य {i} यहाँ है। दूसरा वाक्य {i} यहाँ है।",
             f"पहला वाक्य {i} यहाँ है।"] for i in range(3)]
    config = ExperimentConfig(
        language="hindi", eval_path=str(write_csv(rows)), eval_kind="train",
        output_dir=str(tmp_path / "out"), preset="hindi-indicbart",
        train_path=str(write_csv(rows)),
        adapter=shlex.join([sys.executable, str(adapter)]))
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        experiments.run_experiment(config)
    finally:
        tracer.uninstall()
    with open(requests, encoding="utf-8") as fh:
        train = json.loads(fh.readline())
    assert train["op"] == "train"
    assert [r["id"] for r in train["payload"]["records"]] == [
        "t0", "t1", "t2", "t0-noise", "t1-noise", "t2-noise"]
    assert tracer.augmented_records == len(train["payload"]["records"])
    assert tracer.requests[0] == ("train", train["payload"])


def test_tracer_counts_warm_cache_gets(write_csv, tmp_path):
    """On a warm translate-map run the tracer sees one cache ``get`` per
    distinct sentence of the split, every one a hit, and no ``put``."""
    tracing = load_tracing()
    sentences = [f"વાક્ય ક્રમ {i} છે." for i in range(5)]
    rows = [[f"g{i}", "", "", " ".join(sentences[i:i + 3]), sentences[i]]
            for i in range(3)]
    config = ExperimentConfig(
        language="gujarati", eval_path=str(write_csv(rows)),
        output_dir=str(tmp_path / "out"), pipeline="translate-map", max_tokens=6)
    cold = experiments.run_experiment(config)  # fills the cache
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        warm = experiments.run_experiment(config)
    finally:
        tracer.uninstall()
    assert warm.records == cold.records
    metrics = tracing.layer_metrics(tracer, len(rows), 0, 0.0)
    assert metrics["crosslingual.cache.get.calls"] == len(sentences)
    assert metrics["crosslingual.cache.hit_ratio"] == 1.0
    assert metrics["crosslingual.cache.put.calls"] == 0


# Loaded on first use by crosslingual (the live translator and the pool
# of a remote client) and backends (the adapter transport).
DEFERRED = ["http.client", "urllib.request", "urllib.error", "ssl", "email",
            "concurrent.futures", "subprocess", "socket"]


def test_import_defers_transport_modules():
    code = ("import json, sys; import indicsum, indicsum.cli; "
            f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    src = str(Path(indicsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(done.stdout) == []


# Every module ``import indicsum`` loads under ``python -I -S`` on 3.11:
# the standard library's own and the package's.  Import time is what
# the benchmark's ``setup_s`` measures, so a new module-level import
# must change this list on purpose.
IMPORTED = [
    "_ast", "_bisect", "_blake2", "_collections", "_collections_abc", "_csv",
    "_datetime", "_functools", "_hashlib", "_json", "_opcode", "_operator",
    "_random", "_sha512", "_sre", "_stat", "_weakrefset", "ast", "bisect",
    "collections", "collections.abc", "contextlib", "copy", "copyreg", "csv",
    "dataclasses", "datetime", "dis", "enum", "fcntl", "functools",
    "genericpath", "hashlib", "importlib", "importlib._bootstrap",
    "importlib._bootstrap_external", "importlib.machinery", "indicsum",
    "indicsum.augment", "indicsum.backends", "indicsum.corpus",
    "indicsum.crosslingual", "indicsum.errors", "indicsum.experiments",
    "indicsum.extractive", "indicsum.jsonlog", "indicsum.rouge",
    "indicsum.segment", "inspect", "ipaddress", "itertools", "json",
    "json.decoder", "json.encoder", "json.scanner", "keyword", "linecache",
    "math", "opcode", "operator", "os", "os.path", "posixpath", "random", "re",
    "re._casefix", "re._compiler", "re._constants", "re._parser", "reprlib",
    "shlex", "stat", "threading", "token", "tokenize", "types", "unicodedata",
    "urllib", "urllib.parse", "warnings", "weakref",
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the list is the standard library of Python 3.11")
def test_import_loads_the_pinned_modules():
    src = str(Path(indicsum.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import indicsum; "
            "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          check=True, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == IMPORTED
