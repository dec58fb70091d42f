"""Every name the benchmark's tracer wraps or counts exists in the package.

The tracer (perfbench/tracer.py) patches functions and methods by name at
run time; a refactor that deletes or renames one would break the benchmark
only when it runs.  The file is read, never imported as a package module.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import primspec.cli  # noqa: F401  (loads every layer module, as the tracer does)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    tracer = runpy.run_path(str(TRACER))
    missing = []
    for table in (tracer["TARGETS"], tracer["COUNTED"]):
        for module, names in table.items():
            mod = sys.modules[f"primspec.{module}"]
            for name in names:
                # a method is looked up in its class's own __dict__, as the tracer does
                cls_name, _, attr = name.rpartition(".")
                if attr not in vars(getattr(mod, cls_name) if cls_name else mod):
                    missing.append(f"{module}.{name}")
    assert missing == []


ROUTE_SCRIPT = """
import json, runpy, sys
from primspec.errors import UnsupportedRegimeError
from primspec.super_inclusion import covers
from primspec.weights import SuperWeight

tracer = runpy.run_path(sys.argv[1])["Tracer"]()
tracer.install()
tracer.active = True
for a, b in json.loads(sys.argv[2]):
    try:
        covers(SuperWeight.parse(a), SuperWeight.parse(b))
    except UnsupportedRegimeError:
        pass
print(json.dumps(tracer.report()["routes"]))
"""

# one covers call per route of `inclusion`, as the tracer names them
ROUTE_PAIRS = {
    "central_character": ("1,0|1", "5,2|5"),
    "same_orbit": ("2,0,1|0", "0,2,1|0"),
    "ladder": ("1,2,2|2", "2,1,0|0"),
    "gl22": ("1,0|0,1", "1,1|1,1"),
    "unsupported": ("1,0,5|0,1", "2,0,5|0,2"),
}


def test_covers_shows_every_route_to_the_tracer():
    # the tracer reads each route off the children of an `inclusion` span,
    # so `covers` has to enter through `inclusion`; installing patches the
    # package's globals, hence a fresh interpreter
    src = str(Path(primspec.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", ROUTE_SCRIPT, str(TRACER), json.dumps(list(ROUTE_PAIRS.values()))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {route: 1 for route in ROUTE_PAIRS}
