"""Command-line front end: inclusion queries, poset export, crystal ops.

Subcommands
-----------
inclusion   decide how J(first) compares to J(second)
aug-poset   enumerate the augmentation-ideal poset of gl(m|1)
crystal     apply a crystal operator or read off a statistic
kl          build (and cache) a classical KL table, optionally query a pair
super-kl    canonical-basis table of the block of the given weights
counts      class counts of augmentation posets over a range of ranks
components  irreducible components of an augmentation poset

All machine output is JSON on stdout (DOT for ``--format dot``); identical
invocations against an unchanged cache print identical bytes.  Exit codes:
0 decided/ok, 1 usage, parse or bound errors or a closed stdout, 2 undecidable
regime.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import aug_poset, brundan_kl, crystal, kl_classical, super_inclusion
from .errors import PreconditionError, PrimspecError, UnsupportedRegimeError
from .weights import SuperWeight

__all__ = ["main"]


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _positive(flag: str, bound: int) -> int:
    if bound <= 0:
        raise ValueError(f"{flag} {bound}: bounds must be positive")
    return bound


def _table_kwargs(args) -> dict:
    """KL-table kwargs from the flags; with no cache dir, `kl_classical.cache_file`
    picks one."""
    return {"bound": _positive("--kl-bound", args.kl_bound), "cache_dir": args.cache_dir or None}


def cmd_inclusion(args) -> int:
    kwargs = _table_kwargs(args)
    first = SuperWeight.parse(args.weights[0])
    second = SuperWeight.parse(args.weights[1])
    for w in (first, second):
        if args.m is not None and w.m != args.m:
            raise ValueError(f"{w} has {w.m} left labels, --m says {args.m}")
        if args.n is not None and w.n != args.n:
            raise ValueError(f"{w} has {w.n} right labels, --n says {args.n}")
    decision = super_inclusion.decide(first, second, **kwargs)
    _emit(decision.to_json_dict())
    return 2 if decision.relation == "unsupported" else 0


def cmd_aug_poset(args) -> int:
    poset = aug_poset.enumerate_X(args.m, **_table_kwargs(args))
    if args.format == "dot":
        text = aug_poset.to_dot(poset, cluster=args.cluster)
    else:
        doc = aug_poset.to_json_dict(poset, aug_poset.strata(poset))
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise PreconditionError(f"--out {args.out!r}: cannot write: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_crystal(args) -> int:
    weight, op, i = SuperWeight.parse(args.weight), args.op, args.i
    if op in ("e", "f"):
        moved = (crystal.e_tilde if op == "e" else crystal.f_tilde)(weight, i)
        result = None if moved is None else str(moved)
    elif op in ("eps", "phi"):
        result = (crystal.epsilon if op == "eps" else crystal.phi)(weight, i)
    else:  # signature
        result = str(crystal.reduce(crystal.i_signature(weight, i)))
    _emit({"weight": str(weight), "op": op, "i": i, "result": result})
    return 0


def _ints(flag: str, text: str, sep: str) -> tuple[int, ...]:
    """`text` split at `sep`, as integers; a part that is not one names `flag`."""
    out = []
    for part in text.split(sep):
        try:
            out.append(int(part))
        except ValueError:
            raise PreconditionError(f"{flag} {text!r}: {part!r} is not an integer") from None
    return tuple(out)


def _pair_words(text: str, m: int) -> list[tuple[int, ...]]:
    if text.count(";") != 1:
        raise PreconditionError(f"--pair {text!r} is not of the form x1,..,xm;y1,..,ym")
    words = []
    for half in text.split(";"):
        words.append(_ints("--pair", half, ","))
        if sorted(words[-1]) != list(range(1, m + 1)):
            raise PreconditionError(f"--pair word {half!r} is not a permutation of 1..{m}")
    return words


def cmd_kl(args) -> int:
    kwargs = _table_kwargs(args)
    x, y = _pair_words(args.pair, args.m) if args.pair else (None, None)
    table = kl_classical.kl_table(args.m, **kwargs)
    doc = {
        "m": args.m,
        "comparable_pairs": len(table),
        "cache_file": str(kl_classical.cache_file(args.m, kwargs["cache_dir"])),
    }
    if args.pair:
        doc["pair"] = {
            "x": list(x),
            "y": list(y),
            "polynomial": table.kl_polynomial(x, y).to_pairs(),
            "mu": table.mu(x, y),
        }
    _emit(doc)
    return 0


def cmd_super_kl(args) -> int:
    block = [SuperWeight.parse(text) for text in args.weights]
    interval = _ints("--interval", args.interval, ":") if args.interval else None
    if interval and (len(interval) != 2 or interval[0] > interval[1]):
        raise PreconditionError(f"--interval {args.interval!r} is not lo:hi with lo <= hi")
    table = brundan_kl.canonical_basis(
        block, interval, rank_bound=_positive("--rank-bound", args.rank_bound),
        interval_bound=_positive("--interval-bound", args.interval_bound),
    )
    doc = table.to_json_dict()
    order = brundan_kl.kl_left_order(table.weights, table)
    doc["order"] = sorted(
        [str(b), str(a)] for b, a in order.relations()
    )
    _emit(doc)
    return 0


def cmd_counts(args) -> int:
    kwargs = _table_kwargs(args)
    bounds = _ints("--m", args.m, "..")
    if len(bounds) > 2:
        raise PreconditionError(f"--m {args.m!r} is not a rank or a range like 1..6")
    lo, hi = bounds[0], bounds[-1]
    if lo > hi:
        raise PreconditionError(f"--m range {args.m!r} is empty: {lo} > {hi}")
    if lo < 0:
        raise PreconditionError(f"--m {args.m!r}: ranks must be nonnegative")
    rows = []
    for m in range(lo, hi + 1):
        s_m = aug_poset.involution_count(m)
        row = {"m": m, "s": s_m, "t": (m + 1) * s_m // 2}
        if args.enumerate and 1 <= m <= args.kl_bound:  # m = 0 has no poset to enumerate
            poset = aug_poset.enumerate_X(m, **kwargs)
            report = aug_poset.counts(poset)
            row["enumerated"] = report.total
            row["strata"] = report.stratum_sizes
        rows.append(row)
    _emit({"counts": rows})
    return 0


def cmd_components(args) -> int:
    poset = aug_poset.enumerate_X(args.m, **_table_kwargs(args))
    assignments = aug_poset.strata(poset)
    reports = aug_poset.irreducible_components(poset, assignments)
    _emit(
        {
            "m": args.m,
            "components": [
                {
                    "k": r.k,
                    "classes": [str(poset.classes[c].representative) for c in r.class_indices],
                    "order_isomorphic_to_regular_stratum": r.order_isomorphic,
                }
                for r in reports
            ],
        }
    )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1; 2 means undecidable
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primspec",
        description="Inclusion order on primitive ideals of gl(m|n).",
    )
    parser.add_argument("--cache-dir", help="KL table cache directory (or $PRIMSPEC_CACHE)")
    parser.add_argument(
        "--kl-bound", type=int, default=kl_classical.DEFAULT_KL_BOUND,
        help="largest symmetric-group rank for KL tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inclusion", help="compare two primitive ideals")
    p.add_argument("--weights", nargs=2, required=True, metavar="W")
    p.add_argument("--m", type=int, default=None, help="expected left rank (validation)")
    p.add_argument("--n", type=int, default=None, help="expected right rank (validation)")
    p.set_defaults(func=cmd_inclusion)

    p = sub.add_parser("aug-poset", help="augmentation-ideal poset of gl(m|1)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--cluster", choices=["x"], default=None)
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_aug_poset)

    p = sub.add_parser("crystal", help="crystal operators and statistics")
    p.add_argument("--weight", required=True)
    p.add_argument("--op", choices=["e", "f", "eps", "phi", "signature"], required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("kl", help="build/cache a classical KL table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pair", help="one-line words 'x1,..,xm;y1,..,ym' to query")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("super-kl", help="canonical-basis table of a block")
    p.add_argument("--weights", nargs="+", required=True, metavar="W")
    p.add_argument("--interval", help="label interval 'lo:hi'")
    p.add_argument(
        "--rank-bound", type=int, default=brundan_kl.DEFAULT_RANK_BOUND,
        help="largest m+n for a canonical basis",
    )
    p.add_argument(
        "--interval-bound", type=int, default=brundan_kl.DEFAULT_INTERVAL_BOUND
    )
    p.set_defaults(func=cmd_super_kl)

    p = sub.add_parser("counts", help="class counts; ranks above --kl-bound get the formula only")
    p.add_argument("--m", required=True, help="a rank or a range like 1..6")
    p.add_argument("--enumerate", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("components", help="irreducible components of the poset")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_components)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone: send what is left to devnull and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UnsupportedRegimeError as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return 2
    except (PrimspecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
