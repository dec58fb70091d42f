"""One fresh benchmark worker process.

Roles:

* ``job``: time the calibration loop (before primspec is imported, so
  that nothing primspec does can move it), set up, run the timed job,
  check every output, and write one JSON result to ``--out``;
* ``cli``: run the ``primspec`` command line in-process under the tracer
  (stdout is the command's own), writing the trace report to ``--out``.

``run.py`` starts workers; a worker is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _calibration_work() -> int:
    """Fixed pure-Python work of the kinds primspec does (tuple keys in
    dicts, sets, sorting, dicts of dicts of small ints, slotted objects)
    that calls nothing in primspec, so no change to primspec moves it."""
    acc = 0
    counts: dict = {}
    for i in range(20000):
        t = (i % 97, i % 89, i % 7)
        key = tuple(sorted(t))
        counts[key] = counts.get(key, 0) + 1
        seen = {t[0], t[1]}
        acc += len(seen) + (t[2] in seen)
    rng = random.Random(5)
    table: dict = {}
    for x in range(150):
        row: dict = {}
        for y in range(40):
            poly = {k: rng.randrange(3) for k in range(4)}
            into = row.get(y % 17)
            if into:
                for k, v in poly.items():
                    into[k] = into.get(k, 0) + v
            else:
                row[y % 17] = poly
        table[x] = row
    pairs = [
        _Pair(tuple(rng.randrange(9) for _ in range(4)), tuple(rng.randrange(9) for _ in range(2)))
        for _ in range(2000)
    ]
    for w in pairs:
        labels = sorted(w.left + w.right)
        acc += len(set(labels)) + labels[0] + sum(1 for x in w.left if x in w.right)
    return acc + len(counts) + len(table)


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


CALIBRATIONS = 3  # calibration samples per worker


def calibrate() -> float:
    """Seconds the calibration work takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(args, t0: float) -> dict:
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    work = WORKLOADS[args.workload](args.seed, args.size, args.cache_dir)
    setup_s = time.perf_counter() - t0

    gc.collect()
    if tracer:
        tracer.active = True
    start = time.perf_counter()
    out = work.job()
    job_s = time.perf_counter() - start
    if tracer:
        tracer.active = False

    try:
        work.check(out)
    except Exception as exc:
        work.expect(False, f"check raised {type(exc).__name__}: {exc}")
    result = {
        "setup_s": setup_s,
        "job_s": job_s,
        "query_us": [x * 1e6 for x in work.latencies],
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": work.attempted,
        "failed": work.failed,
        "errors": work.errors,
        "sizes": work.sizes(out),
        "blocks_per_window": work.blocks_per_window,
    }
    if tracer:
        result["trace"] = tracer.report()
        tracer.dump(Path(args.out).with_suffix(".spans"))
    return result


def run_cli(args) -> dict:
    from tracer import Tracer

    import primspec.cli

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    code = primspec.cli.main(args.cli)
    tracer.active = False
    sys.stdout.flush()
    return {"exit": code, "trace": tracer.report()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["job", "cli"], required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.role == "cli":
        args.cli = [a for a in args.cli if a != "--"]
        result = run_cli(args)
    else:
        cal_s = [calibrate() for _ in range(CALIBRATIONS)]
        result = run_job(args, time.perf_counter())
        result["cal_s"] = cal_s
    Path(args.out).write_text(json.dumps(result))
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
