"""Every exported name exists, so a deletion cannot leave a stale export,
and every name the benchmark's tracer patches exists too.  Importing the
package loads none of the modules only the live translator, the
translation pool and the adapter transport use."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import indicsum
from indicsum import rouge

MODULES = ["indicsum"] + [
    f"indicsum.{info.name}" for info in pkgutil.iter_modules(indicsum.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_traced_names_exist():
    """The benchmark's tracer patches each ``(owner, attr)`` in its
    ``TRACED`` table, and its runner records ``rouge.KERNEL_BACKEND``;
    a deletion that removes one breaks the benchmark."""
    path = Path(__file__).resolve().parents[1] / "e2ebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("e2ebench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    assert [(owner.__name__, attr) for owner, attr, _ in tracing.TRACED
            if attr not in owner.__dict__] == []
    assert hasattr(rouge, "KERNEL_BACKEND")


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
