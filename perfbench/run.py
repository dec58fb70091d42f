"""The primspec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload aug-poset-6 --seed 1 --seconds 20 --trace 0

Each workload is timed as a single-threaded, single-client closed loop:
fresh worker processes run one after another, each timing a fixed
calibration loop that calls nothing in primspec, then doing set-up
(import, inputs from the seed, the KL preorders the job needs, built
against an empty cache directory) and one job, until ``--seconds`` have
passed and at least ``MIN_JOBS`` workers have finished.  On kl-6 the
``primspec kl`` command then runs in fresh processes, cold (empty KL cache
directory) and warm (the cache the cold run left).  Every output is
checked against the digests in ``reference.json``.

Set-up and job times are gated in host-speed-adjusted seconds: the run's
wall time times CAL_REF_S over the run's calibration time.  A shared host
runs for minutes at a time up to half again slower, which slows wall times
and the calibration loop largely alike; the ratio keeps most of the host's
speed out of the gate, while a change to primspec moves it as it moves
wall time.  The wall times are printed on the report line.

With ``--trace 0`` the last stdout line holds the gated end-to-end metrics
and the line before it a report: run metadata, the raw samples, and the
end-to-end metrics that are printed but not gated (wall-clock set-up and
job time; error rate; query throughput and p50/p99 latency on query-mix;
the cold/warm command-line times on kl-6).  With ``--trace 1`` a further
worker (and on kl-6 the command-line pair) runs under the span tracer and
the last line holds the per-layer metrics, the tracing overhead included.
``--size smoke`` runs the small inputs the benchmark's own tests use.

Every cache and temp file lives in a directory under ``.bench_tmp/`` in
the checkout, removed at exit; raw spans of the last traced run of each
workload go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 5  # workers behind each gated value, however long they take
TRIM = 0.1  # share of samples dropped at each end before averaging
CAL_REF_S = 0.04  # the calibration loop's time on this host when it is quiet
CLI_PAIRS = 3  # cold/warm command-line pairs on kl-6
DEADLINE_S = 170.0  # every process of one run ends before this

# end-to-end metrics on the result line, each with a bound in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
}
# end-to-end metrics printed on the report line only, each on the workloads
# that have it: error_rate must be 0, which a gated metric may not be; the
# wall times are gated adjusted for host speed; the rest spread by a fifth
# or more between runs on a shared 2-CPU host, and query-mix's throughput
# is its fixed query count over job_s, gated already
WALL_METRICS = {"setup_wall_s": "s", "job_wall_s": "s", "calibration_s": "s"}
QUERY_METRICS = {"queries_per_s": "1/s", "query_p50_us": "us", "query_p99_us": "us"}
CLI_METRICS = {"kl_cold_cli_s": "s", "kl_warm_cli_s": "s"}

ROUTES = ["equal", "central_character", "same_orbit", "ladder", "gl22", "unsupported"]
MIX = ["central_character", "same_orbit", "ladder", "gl22", "unsupported", "crystal"]

# per-layer metric -> (unit, source): ("calls"|"total_s"|"self_s", span name)
# for span-derived numbers, or a key computed in layer_metrics()
PER_LAYER = {
    "aug_poset.enumerate_X_s": ("s", ("total_s", "aug_poset.enumerate_X")),
    "aug_poset.strata_s": ("s", ("total_s", "aug_poset.strata")),
    "aug_poset.irreducible_components_s": ("s", ("total_s", "aug_poset.irreducible_components")),
    "aug_poset.to_json_dict_s": ("s", ("total_s", "aug_poset.to_json_dict")),
    "aug_poset.pairs_decided": ("count", "pairs_decided"),
    "aug_poset.strict_share": ("ratio", "strict_share"),
    "super_inclusion.inclusion_calls": ("count", ("calls", "super_inclusion.inclusion")),
    "super_inclusion.inclusion_self_s": ("s", ("self_s", "super_inclusion.inclusion")),
    "super_inclusion.frame_calls": ("count", ("calls", "super_inclusion.frame")),
    "super_inclusion.frame_self_s": ("s", ("self_s", "super_inclusion.frame")),
    "super_inclusion.frames_per_inclusion": ("ratio", "frames_per_inclusion"),
    "super_inclusion.theta_membership_s": ("s", ("total_s", "super_inclusion.theta_membership")),
    "super_inclusion.gamma_delta_s": ("s", ("total_s", "super_inclusion.gamma_delta")),
    "super_inclusion.decide_s": ("s", ("total_s", "super_inclusion.decide")),
    "super_inclusion.reduction_trace_s": ("s", ("total_s", "super_inclusion.reduction_trace")),
    "super_inclusion.covers_s": ("s", ("total_s", "super_inclusion.covers")),
    **{f"super_inclusion.route.{r}": ("count", f"route.{r}") for r in ROUTES},
    "weights.central_character_calls": ("count", ("calls", "weights.central_character")),
    "weights.central_character_self_s": ("s", ("self_s", "weights.central_character")),
    "weights.atypicality_degree_calls": ("count", ("calls", "weights.atypicality_degree")),
    "weights.atypicality_degree_self_s": ("s", ("self_s", "weights.atypicality_degree")),
    "kl_classical.kl_table_build_s": ("s", ("total_s", "kl_classical.kl_table")),
    "kl_classical.kl_table_pairs": ("count", "kl_pairs"),
    "kl_classical.LeftOrder_s": ("s", ("total_s", "kl_classical.LeftOrder.__init__")),
    "kl_classical.left_order_classes": ("count", "left_classes"),
    "kl_classical.kl_table_save_s": ("s", "kl_table_save_s"),
    "kl_classical.kl_table_load_s": ("s", "kl_table_load_s"),
    "kl_classical.cache_file_bytes": ("bytes", "cache_file_bytes"),
    "kl_classical.classical_inclusion_calls": ("count", ("calls", "kl_classical.classical_inclusion")),
    "kl_classical.classical_inclusion_self_s": ("s", ("self_s", "kl_classical.classical_inclusion")),
    "kl_classical.left_preorder_calls": ("count", ("calls", "kl_classical.left_preorder")),
    "tableaux.robinson_schensted_calls": ("count", ("calls", "tableaux.robinson_schensted")),
    "tableaux.robinson_schensted_self_s": ("s", ("self_s", "tableaux.robinson_schensted")),
    "crystal.e_tilde_calls": ("count", ("calls", "crystal.e_tilde")),
    "crystal.f_tilde_calls": ("count", ("calls", "crystal.f_tilde")),
    "crystal.self_s": ("s", "crystal_self_s"),
    "brundan_kl.canonical_basis_s": ("s", ("total_s", "brundan_kl.canonical_basis")),
    "brundan_kl.weight_space_dim": ("count", "weight_space_dim"),
    "brundan_kl.kl_left_order_s": ("s", ("total_s", "brundan_kl.kl_left_order")),
    "brundan_kl.psi_calls": ("count", ("calls", "brundan_kl.BarInvolution.psi")),
    "brundan_kl.psi_self_s": ("s", ("self_s", "brundan_kl.BarInvolution.psi")),
    "brundan_kl.bar_windows": ("count", ("calls", "brundan_kl.BarInvolution.__init__")),
    "laurent.mul_calls": ("count", ("calls", "laurent.LaurentPolynomial.__mul__")),
    "posets.transitive_reduction_s": ("s", ("total_s", "posets.transitive_reduction")),
    "posets.strongly_connected_components_s": (
        "s", ("total_s", "posets.strongly_connected_components"),
    ),
    "posets.transitive_closure_s": ("s", ("total_s", "posets.transitive_closure")),
    "input.weight_reuse_share": ("ratio", "weight_reuse_share"),
    **{f"input.mix.{r}_share": ("ratio", f"mix.{r}") for r in MIX},
    "input.blocks_per_window": ("ratio", "blocks_per_window"),
    "trace.job_s": ("s", "traced_job_s"),
    "trace.untraced_job_s": ("s", "untraced_job_s"),
    "trace.overhead": ("ratio", "overhead"),
    "trace.spans": ("count", "spans"),
}


class Run:
    """One benchmark run: workers, the command-line pair and the tallies."""

    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.k = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def fresh_dir(self, tag: str) -> Path:
        self.k += 1
        path = self.tmp / f"{tag}-{self.k}"
        path.mkdir()
        return path

    def env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PRIMSPEC_CACHE"] = str(cache)
        env["TMPDIR"] = str(self.tmp)
        return env

    def process(self, cmd: list[str], cache: Path):
        """Run one fresh process; None (a failed operation) if it times out."""
        try:
            return subprocess.run(
                cmd, env=self.env(cache), cwd=ROOT, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            self.tally(False, f"timed out: {' '.join(cmd[1:4])}")
            return None

    def worker(self, trace: int = 0) -> dict | None:
        cache = self.fresh_dir("cache")
        out = self.tmp / f"job-{self.k}.json"
        proc = self.process([
            sys.executable, str(HERE / "worker.py"), "--role", "job",
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--size", self.args.size, "--cache-dir", str(cache),
            "--trace", str(trace), "--out", str(out),
        ], cache)
        if proc is None:
            return None
        if proc.returncode != 0 or not out.exists():
            self.tally(False, f"job worker exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        result = json.loads(out.read_text())
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors.extend(result["errors"])
        if trace:
            spans = out.with_suffix(".spans")
            if spans.exists():
                keep = ROOT / ".bench_out"
                keep.mkdir(exist_ok=True)
                shutil.move(str(spans), keep / f"spans-{self.args.workload}.bin")
        return result

    def cli(self, work_cls, ref: dict, cache: Path, trace: int) -> tuple[float, dict | None]:
        """One ``primspec`` command against `cache`; (wall seconds, trace report)."""
        argv = ["--cache-dir", str(cache), *ref["cli_args"]]
        if trace:
            out = self.fresh_dir("cli-trace") / "trace.json"
            cmd = [
                sys.executable, str(HERE / "worker.py"), "--role", "cli",
                "--cache-dir", str(cache), "--out", str(out), "--", *argv,
            ]
        else:
            cmd = [sys.executable, "-m", "primspec.cli", *argv]
        t0 = time.perf_counter()
        proc = self.process(cmd, cache)
        wall = time.perf_counter() - t0
        if proc is None:
            return wall, None
        self.tally(
            proc.returncode == 0 and work_cls.check_cli(ref, proc.stdout),
            f"primspec {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}",
        )
        report = json.loads(out.read_text())["trace"] if trace and out.exists() else None
        return wall, report


def _median(values):
    return statistics.median(values) if values else 0.0


def _trimmed_mean(values) -> float:
    """Mean of the samples less the TRIM share at each end.

    The gated end-to-end values build on these, not on medians: a shared host runs
    at two or three speeds for seconds at a time, and the median of one
    run's workers jumps between them while the mean follows the share of
    the run spent at each (IQR/median of 20-second kl-6 windows: median
    0.13, mean 0.10); the trim keeps one stalled worker out."""
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k]) if values else 0.0


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _adjusted_job_s(jobs: list[dict]) -> float:
    """Job seconds adjusted for host speed, as gated."""
    cal = _trimmed_mean([x for r in jobs for x in r["cal_s"]])
    return _trimmed_mean([r["job_s"] for r in jobs]) * CAL_REF_S / cal if cal else 0.0


def job_loop(run: Run, seconds: float) -> list[dict]:
    """Fresh job workers back to back until `seconds` have passed and
    MIN_JOBS have finished (or the run's deadline nears)."""
    results = []
    loop_start = time.perf_counter()
    while True:
        result = run.worker()
        if result is not None:
            results.append(result)
        done = time.perf_counter() - loop_start >= seconds and len(results) >= MIN_JOBS
        if done or run.remaining() < 40:
            return results


def end_to_end(run: Run, work_cls, ref: dict) -> tuple[list[dict], dict, dict, dict]:
    """Job workers, then on kl-6 the command-line pairs; (jobs, raw
    samples, gated metrics, reported metrics)."""
    jobs = job_loop(run, run.args.seconds)
    samples = {
        "setup_s": [r["setup_s"] for r in jobs],
        "calibration_s": [x for r in jobs for x in r["cal_s"]],
    }
    wall = {
        "setup_wall_s": _trimmed_mean(samples["setup_s"]),
        "job_wall_s": _trimmed_mean([r["job_s"] for r in jobs]),
        "calibration_s": _trimmed_mean(samples["calibration_s"]),
    }
    report = {"error_rate": ("ratio", 0.0), **{k: ("s", v) for k, v in wall.items()}}
    latencies = [x for r in jobs for x in r["query_us"]]
    if latencies:
        report["queries_per_s"] = (
            "1/s", _median([len(r["query_us"]) / r["job_s"] for r in jobs]),
        )
        report["query_p50_us"] = ("us", _percentile(latencies, 50))
        report["query_p99_us"] = ("us", _percentile(latencies, 99))
    if "cli_args" in ref:
        cold, warm = [], []
        while len(cold) < CLI_PAIRS and run.remaining() > 10:
            cache = run.fresh_dir("cli-cache")
            cold.append(run.cli(work_cls, ref, cache, 0)[0])
            warm.append(run.cli(work_cls, ref, cache, 0)[0])
        samples.update(kl_cold_cli_s=cold, kl_warm_cli_s=warm)
        report["kl_cold_cli_s"] = ("s", _median(cold))
        report["kl_warm_cli_s"] = ("s", _median(warm))
    report["error_rate"] = ("ratio", run.failed / run.attempted if run.attempted else 0.0)
    speed = CAL_REF_S / wall["calibration_s"]
    values = {
        "setup_s": wall["setup_wall_s"] * speed,
        "job_s": wall["job_wall_s"] * speed,
        "peak_rss_mb": _trimmed_mean([r["peak_rss_mb"] for r in jobs]),
    }
    return jobs, samples, values, report


def layer_metrics(run: Run, work_cls, ref: dict, jobs: list[dict]) -> dict:
    traced = run.worker(trace=1)
    cold = warm = None
    cache_bytes = 0
    if "cli_args" in ref:
        cache = run.fresh_dir("cli-cache")
        _, cold = run.cli(work_cls, ref, cache, 1)
        cache_bytes = sum(p.stat().st_size for p in cache.iterdir() if p.is_file())
        _, warm = run.cli(work_cls, ref, cache, 1)
    if traced is None:
        return {}
    trace = traced["trace"]

    def span(field, name, report=trace):
        return (report or {}).get("layers", {}).get(name, {}).get(field, 0)

    sizes = traced["sizes"]
    untraced = _adjusted_job_s(jobs)
    traced_job_s = _adjusted_job_s([traced])
    inclusions = span("calls", "super_inclusion.inclusion")
    derived = {
        **{f"route.{r}": trace["routes"].get(r, 0) for r in ROUTES},
        **{f"mix.{r}": sizes.get(f"mix.{r}", 0.0) for r in MIX},
        "pairs_decided": trace["pairs_decided"],
        "strict_share": sizes.get("strict", 0) / trace["pairs_decided"] if trace["pairs_decided"] else 0.0,
        "frames_per_inclusion": span("calls", "super_inclusion.frame") / inclusions if inclusions else 0.0,
        "kl_pairs": sizes.get("kl_pairs", 0),
        "left_classes": sizes.get("left_classes", 0),
        "kl_table_save_s": span("total_s", "kl_classical.KLTable.save", cold),
        "kl_table_load_s": span("total_s", "kl_classical.KLTable.load", warm),
        "cache_file_bytes": cache_bytes,
        "crystal_self_s": sum(
            v["self_s"] for k, v in trace["layers"].items() if k.startswith("crystal.")
        ),
        "weight_space_dim": sizes.get("weight_space_dim", 0),
        "weight_reuse_share": trace["weight_reuse_share"],
        "blocks_per_window": traced["blocks_per_window"],
        "traced_job_s": traced_job_s,
        "untraced_job_s": untraced,
        "overhead": traced_job_s / untraced - 1.0 if untraced else 0.0,
        "spans": trace["spans"],
    }
    return {
        name: (span(*source) if isinstance(source, tuple) else derived[source], unit)
        for name, (unit, source) in PER_LAYER.items()
    }


def metadata(args, jobs: list[dict]) -> dict:
    sources = sorted((SRC / "primspec").glob("*.py"))
    h = hashlib.sha256()
    for path in sources:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": len(jobs),
        "worker_peak_rss_mb": [round(r["peak_rss_mb"], 1) for r in jobs],
        "job_s": [round(r["job_s"], 4) for r in jobs],
        "queries": sum(len(r["query_us"]) for r in jobs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)

    if not (SRC / "primspec" / "__init__.py").is_file():
        print(f"error: no primspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, reference

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_cls = WORKLOADS[args.workload]
    ref = reference()[args.workload][args.size]

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        run = Run(args, tmp)
        samples, report = {}, {}
        if args.trace:
            jobs = job_loop(run, args.seconds)
            pairs = layer_metrics(run, work_cls, ref, jobs) if jobs else {}
        else:
            jobs, samples, values, reported = end_to_end(run, work_cls, ref)
            pairs = {k: (values[k], unit) for k, unit in END_TO_END.items()}
            report = {k: {"value": v, "unit": unit} for k, (unit, v) in reported.items()}
        if not jobs:
            print("error: no job worker finished\n" + "\n".join(run.errors[:5]), file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    for line in run.errors[:20]:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, jobs), "report": report, "samples": samples}))
    result = {
        "correct": run.failed == 0 and bool(pairs),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
