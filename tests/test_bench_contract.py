"""The benchmark's workloads still run on the package and match its reference.

perfbench/workloads.py drives the package through public names, keywords
(`cache_dir=`, `use_disk=`) and output formats, and compares every output
with the digests in perfbench/reference.json.  A change that breaks one of
these couplings would otherwise show only when the benchmark runs.  Each
workload runs here at its `smoke` size, in-process; the file is read, never
imported as a package module.
"""

import runpy
from pathlib import Path

import pytest

from primspec.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
BENCH = runpy.run_path(str(WORKLOADS))


@pytest.mark.parametrize("name", sorted(BENCH["WORKLOADS"]))
def test_smoke_workload_matches_the_reference(name, tmp_path):
    work = BENCH["WORKLOADS"][name](1, "smoke", str(tmp_path))
    out = work.job()
    work.check(out)
    assert work.attempted > 0
    assert (work.failed, work.errors) == (0, [])
    sizes = work.sizes(out)
    assert all(value > 0 for value in sizes.values()), sizes


def test_kl_cli_output_matches_the_reference(tmp_path, capsys):
    ref = BENCH["reference"]()["kl-6"]["smoke"]
    code = main(["--cache-dir", str(tmp_path), *ref["cli_args"]])
    assert code == 0
    assert BENCH["KL"].check_cli(ref, capsys.readouterr().out)
