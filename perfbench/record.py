"""Record the reference digests the benchmark checks every output against.

    python3 perfbench/record.py

Computes each workload's outputs at both sizes from the sources in
``src/`` and writes ``perfbench/reference.json``.  Run it once, at the
commit whose outputs are the reference; a later run of the benchmark
counts any output that differs as a failed operation.  Takes about a
minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def cli_stdout(args: list[str], cache: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PRIMSPEC_CACHE=cache)
    proc = subprocess.run(
        [sys.executable, "-m", "primspec.cli", "--cache-dir", cache, *args],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return proc.stdout


def record_aug(W, m: int, cache: str) -> dict:
    from primspec import aug_poset

    poset = aug_poset.enumerate_X(m, cache_dir=cache)
    assignments = aug_poset.strata(poset)
    components = aug_poset.irreducible_components(poset, assignments)
    text = json.dumps(aug_poset.to_json_dict(poset, assignments), indent=2, sort_keys=True) + "\n"
    if cli_stdout(["aug-poset", "--m", str(m)], cache) != text:
        raise SystemExit(f"aug-poset --m {m}: library JSON differs from the command's bytes")
    return {
        "json": W.digest(text),
        "components": W.digest(W.AugPoset.components_text(components)),
    }


def record_kl(W, rank: int, cli_rank: int, pair: str, cache: str) -> dict:
    from primspec import kl_classical

    table = kl_classical.kl_table(rank, use_disk=False)
    order = kl_classical.LeftOrder(table)
    chunks = []
    for c in range(W.KL.POOL):
        pairs = W.kl_read_pairs(rank, c, W.KL.PER_CHUNK)
        chunks.append(W.digest("\n".join(W.kl_read_record(W.kl_read(table, x, y)) for x, y in pairs)))
    args = ["kl", "--m", str(cli_rank), "--pair", pair]
    return {
        "cli_args": args,
        "cli": W.digest(W.kl_cli_text(cli_stdout(args, cache))),
        "classes": order.class_count(),
        "classes_digest": W.digest(W.left_classes_text(order)),
        "chunks": chunks,
    }


def record_super(W, windows, cache: str) -> dict:
    from primspec import brundan_kl, super_inclusion

    digests = []
    for m, n, length, weight in W.super_blocks(windows):
        table = brundan_kl.canonical_basis([weight], (0, length - 1))
        order = brundan_kl.kl_left_order(table.weights, table)
        digests.append(W.digest(W.super_block_text(table, order, 0)))
        bad = [
            (a, b) for a, b in W.cross_check_pairs(table.weights)
            if super_inclusion.inclusion(a, b, cache_dir=cache) != order.leq(b, a)
        ]
        if bad:
            raise SystemExit(f"ladder and canonical order disagree on {bad[:3]}")
    return {"blocks": digests}


def query_chunks(W, cache: str) -> list[str]:
    chunks = []
    for c in range(W.QueryMix.POOL):
        queries = W.query_chunk(c, W.QueryMix.PER_CHUNK)
        records = (W.query_record((op, W.run_query(op, args, cache))) for _, op, args in queries)
        chunks.append(W.digest("\n".join(records)))
    return chunks


def main() -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=tmp_root) as cache:
        os.environ["PRIMSPEC_CACHE"] = cache
        import workloads as W

        ref: dict = {name: {} for name in W.WORKLOADS}
        chunks = query_chunks(W, cache)
        ref["query-mix"] = {"smoke": {"chunks": chunks}, "full": {"chunks": chunks}}
        for size, m in (("smoke", 4), ("full", 6)):
            ref["aug-poset-6"][size] = record_aug(W, m, cache)
        for size, windows in (("smoke", W.SUPER_SMOKE), ("full", W.SUPER_WINDOWS)):
            ref["super-kl-sweep"][size] = record_super(W, windows, cache)
        print("aug-poset, query-mix and super-kl-sweep recorded", file=sys.stderr)
        ref["kl-6"]["smoke"] = record_kl(W, 5, 4, "1,3,2,4;3,4,1,2", cache)
        ref["kl-6"]["full"] = record_kl(W, 6, 6, "2,1,4,3,6,5;5,6,3,4,1,2", cache)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    try:
        tmp_root.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
