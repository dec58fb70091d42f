"""Every name the benchmark's tracer wraps or counts exists in the package.

The tracer (perfbench/tracer.py) patches functions and methods by name at
run time; a refactor that deletes or renames one would break the benchmark
only when it runs.  The file is read, never imported as a package module.
"""

import runpy
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
