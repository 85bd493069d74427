"""The golden-output check of ``golden_outputs.py``, run as CI runs it on
the other supported Pythons: a script under warnings-as-errors."""

import os
import subprocess
import sys
from pathlib import Path

import indicsum

SCRIPT = Path(__file__).with_name("golden_outputs.py")


def test_golden_outputs():
    src = str(Path(indicsum.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPT)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "" and done.stderr == ""
