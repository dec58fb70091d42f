"""Every function in the package has a caller outside the tests, or a line
in the README's library list.

The entry points are the README's commands, the crystal operations and
errors the commands leave out, the demos and the benchmark workloads at
their smoke size.  They run in a fresh interpreter under `sys.setprofile`:
in this process a memo filled by an earlier test would hide a call.  A
function counts as called when its code object is entered, keyed by its
file and first line (the first decorator's, for a decorated one); dunders
are left out, nested functions are not.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from test_readme import COMMANDS as README_COMMANDS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "primspec"
README = (ROOT / "README.md").read_text()

ENTRY_SCRIPT = """
import contextlib, io, json, os, runpy, shutil, sys
from pathlib import Path

root, tmp, commands = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])
package = str(root / "src" / "primspec") + os.sep
called = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from primspec.cli import main

for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(["--cache-dir", str(tmp), *argv])
        except SystemExit:
            pass
for demo in sorted((root / "demos").glob("*.py")):
    script = tmp / demo.name  # a copy: a demo may write next to itself
    shutil.copy(demo, script)
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(script), run_name="__main__")
bench = runpy.run_path(str(root / "perfbench" / "workloads.py"))
for name, workload in sorted(bench["WORKLOADS"].items()):
    work = workload(1, "smoke", str(tmp))
    out = work.job()
    work.check(out)
    work.sizes(out)
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""

# the README's commands, the crystal ops they leave out, and three errors
COMMANDS = [
    *README_COMMANDS,
    *(["crystal", "--weight", "1,0|0,1", "--op", op, "--i", "1"]
      for op in ("f", "eps", "phi", "signature")),
    ["crystal", "--weight", "1,0|0,1"],  # usage error
    ["inclusion", "--weights", "1,x|0", "0|0"],  # parse error
    ["aug-poset", "--m", "9"],  # bound error
]


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every non-dunder function and
    method of the package, nested ones included."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out[str(path), first] = name
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def _library() -> dict[str, str]:
    """Each name of the README's library list -> the test given for it."""
    section = README.split("## Library\n", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^\* `([\w.]+)`(.*?)(?=^\* |\Z)", section, re.M | re.S)
    return {name: re.findall(r"`(tests/[\w/.]+::[\w:]+)`", rest)[-1] for name, rest in entries}


def test_every_function_is_called_or_listed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PRIMSPEC_CACHE=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-c", ENTRY_SCRIPT, str(ROOT), str(tmp_path), json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    called = {(path, line) for path, line in json.loads(done.stdout)}
    listed = set(_library())
    uncalled = sorted(name for key, name in _functions().items() if key not in called)
    assert [name for name in uncalled if name not in listed] == []


def test_every_library_name_resolves_to_a_function_and_a_test():
    library = _library()
    assert library
    for name, test in library.items():
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"primspec.{module}")
        for attr in attrs:
            obj = vars(obj)[attr]  # defined there, not inherited
        assert callable(obj), name
        path, *scope = test.split("::")
        source = (ROOT / path).read_text()
        for part in scope:
            assert re.search(rf"^\s*(class|def) {part}\b", source, re.M), test
