"""Import footprint: the package needs numpy and scipy.linalg only.

``scipy.special`` and ``scipy.optimize`` add about 20 MiB to the resident
set of every process that imports the package, so neither may be loaded by
it.  The check runs in a fresh interpreter, since the test modules
themselves import both as oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
import renyimeat
names = sorted(m.name for m in pkgutil.iter_modules(renyimeat.__path__))
for name in names:
    importlib.import_module("renyimeat." + name)
print(json.dumps({"modules": names,
                  "scipy": sorted(m for m in sys.modules
                                  if m.startswith("scipy."))}))
"""


def test_no_module_loads_scipy_special_or_optimize():
    out = subprocess.run([sys.executable, "-c", PROBE],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert "sdp" in report["modules"]
    loaded = report["scipy"]
    assert not [m for m in loaded if m.startswith(("scipy.special",
                                                   "scipy.optimize"))]
    assert "scipy.linalg" in loaded
