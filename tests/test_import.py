"""`import opdiv` loads only the standard library, numpy and opdiv itself.

Every run of the CLI pays for the import, so a heavy dependency pulled in at
module level would slow each call by its own import time. The library returns
plain data and leaves every output format to `opdiv.cli`, so computing with it
loads no serialiser either.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# one fresh interpreter: the modules `import opdiv` adds, then the serialisers
# loaded after computing on a tree, a cycle and a graph for the dense engine
PROBE = """
import sys
before = set(sys.modules)
import opdiv
print(sorted(set(sys.modules) - before))
tree, cycle = opdiv.path(6), opdiv.cycle(6)
dense = opdiv.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
for g in (tree, cycle, dense):
    opdiv.brute_force_best(g, 1, 2)
    lc = opdiv.single_pair(1, 5)
    opdiv.bin_opinions(opdiv.steady_state(g, lc), 2)
    opdiv.grounded_inverse(g, lc)
print([m for m in ("json", "decimal") if m in sys.modules])
"""


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return [ast.literal_eval(line) for line in out.splitlines()]


def test_import_adds_only_stdlib_numpy_and_opdiv(probe):
    added = probe[0]
    assert "opdiv" in added and "numpy" in added
    foreign = [
        m for m in added
        if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] not in ("numpy", "opdiv")
    ]
    assert foreign == []


def test_computing_loads_no_serialiser(probe):
    assert probe[1] == []
