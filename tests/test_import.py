"""`import opdiv` loads only the standard library, numpy and opdiv itself.

Every run of the CLI pays for the import, so a heavy dependency pulled in at
module level would slow each call by its own import time.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import opdiv
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_adds_only_stdlib_numpy_and_opdiv():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    added = json.loads(out)
    assert "opdiv" in added and "numpy" in added
    foreign = [
        m for m in added
        if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] not in ("numpy", "opdiv")
    ]
    assert foreign == []
