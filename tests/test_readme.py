"""The README's command-line and library examples run as written."""

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from primspec.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(heading: str, lang: str = "") -> str:
    """The first fenced block under the `## heading` section."""
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


COMMANDS = [
    shlex.split(line)[1:]
    for line in _block("Command line").splitlines()
    if line.startswith("primspec ")
]

# runs the README commands in order against one cache directory
_RUN_ALL = """
import json, sys
from primspec.cli import main
for argv in json.loads(sys.argv[2]):
    if main(["--cache-dir", sys.argv[1], *argv]) != 0:
        raise SystemExit(f"exit status != 0: {argv}")
"""


def test_the_command_block_is_read():
    assert [argv[0] for argv in COMMANDS] == [
        "inclusion", "aug-poset", "crystal", "kl", "super-kl", "counts", "components",
    ]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_each_command_exits_zero_with_machine_output(capsys, tmp_path, argv):
    assert main(["--cache-dir", str(tmp_path), *argv]) == 0
    out = capsys.readouterr().out
    if "dot" in argv:
        assert out.startswith("graph ideals {")
    else:
        json.loads(out)


def test_commands_print_the_same_bytes_under_other_hash_seeds(tmp_path):
    # "byte-stable across identical invocations": no set order may leak into
    # stdout; each run starts from an empty cache at one path, which `kl` prints
    outputs = []
    cache = tmp_path / "cache"
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        shutil.rmtree(cache, ignore_errors=True)
        done = subprocess.run(
            [sys.executable, "-c", _RUN_ALL, str(cache), json.dumps(COMMANDS)],
            env=env, capture_output=True, check=True, timeout=60,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"graph ideals {") == 1


def test_library_example_gives_the_values_in_its_comments():
    # each commented expression is evaluated and compared with the comment
    # on its line, or on the line after it
    steps = []
    for line in _block("Library example", "python").splitlines():
        code, _, shown = (part.strip() for part in line.partition("#"))
        if code:
            steps.append([code, shown or None])
        elif shown:
            steps[-1][1] = shown
    namespace: dict = {}
    checked = []
    for code, shown in steps:
        if shown is None:
            exec(code, namespace)
        else:
            assert repr(eval(code, namespace)) == shown, code
            checked.append(shown)
    assert checked == ["'subset'", "1", "'1,3,0,2|3'", "['e~_0', 'e~_1', 'e~_2']"]
