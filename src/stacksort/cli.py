"""Command-line front door.

Subcommands: trace, count, classify, verify, fertility, explore.  Exit codes
are stable: 0 success / all checks pass, 1 verification failure, 2 usage or
parse error.  `count sortable|sorted` refuse --max-n beyond 11 unless --force
is given; `count anchored132` prints the closed form, whose exhaustive check
is verify's THM 3.3 line, and takes neither --sigma nor --force; verify,
explore and fertility --n have no such guard.  Every command runs in one
process.  A ValueError, raised by a usage check here or by the library,
prints `error: ...` and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bivincular import count_anchored_132_avoiders
from .classify import classification_row
from .conjectures import equidistribution_report
from .enumeration import count_sortable, count_sorted, fertility, sorted_profile
from .machine import check_forbidden, stack_pass_traced, trace_json
from .perms import Perm, all_perms, format_perm, parse_perm
from .verify import verify_all, verify_conjectures, verify_tables, verify_theorems

ENUMERATION_GUARD = 11


def _parse_perm_arg(text: str, what: str) -> Perm:
    try:
        return parse_perm(text)
    except ValueError as exc:
        raise ValueError(f"bad {what}: {exc}") from None


def _emit_sequence(counts: list[int], fmt: str) -> None:
    if fmt == "plain":
        print(" ".join(str(c) for c in counts))
    elif fmt == "csv":
        for n, c in enumerate(counts, start=1):
            print(f"{n},{c}")
    elif fmt == "bfile":
        for n, c in enumerate(counts, start=1):
            print(f"{n} {c}")
    elif fmt == "json":
        print(json.dumps([{"n": n, "count": c} for n, c in enumerate(counts, start=1)]))


def _cmd_trace(args: argparse.Namespace) -> int:
    forbidden = _parse_perm_arg(args.sigma, "forbidden pattern")
    perm = _parse_perm_arg(args.pi, "input permutation")
    output, trace = stack_pass_traced(forbidden, perm)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "forbidden": format_perm(forbidden),
                    "input": format_perm(perm),
                    "output": format_perm(output),
                    "events": trace_json(trace),
                }
            )
        )
        return 0
    stack: list[int] = []
    done: list[int] = []
    print(f"{'step':<6}{'event':<10}{'stack (top..bottom)':<22}output")
    for i, ev in enumerate(trace, start=1):
        if ev.op == "push":
            stack.append(ev.value)
        else:
            done.append(stack.pop())
        print(
            f"{i:<6}{ev.op + ' ' + str(ev.value):<10}"
            f"{' '.join(str(v) for v in reversed(stack)):<22}"
            f"{' '.join(str(v) for v in done)}"
        )
    print(f"map[{format_perm(forbidden)}]({format_perm(perm)}) = {format_perm(output)}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    if args.max_n < 0:  # the range below would make no library call to reject it
        raise ValueError("n must be >= 0")
    if args.what in ("sortable", "sorted"):
        if args.sigma is None:
            raise ValueError(f"count {args.what} requires --sigma")
        forbidden = _parse_perm_arg(args.sigma, "forbidden pattern")
        check_forbidden(forbidden)
        if args.max_n > ENUMERATION_GUARD and not args.force:
            raise ValueError(
                f"refusing: would enumerate > {ENUMERATION_GUARD}! permutations "
                "(use --force to override)"
            )
        fn = count_sortable if args.what == "sortable" else count_sorted
        counts = [fn(n, forbidden) for n in range(1, args.max_n + 1)]
    else:
        if args.sigma is not None or args.force:
            raise ValueError("count anchored132 takes no --sigma or --force")
        counts = [count_anchored_132_avoiders(n) for n in range(1, args.max_n + 1)]
    _emit_sequence(counts, args.format)
    return 0


def _flag(value: bool, glyphs: bool) -> str:
    if glyphs:
        return "✓" if value else "✗"
    return "Y" if value else "N"


def _cmd_classify(args: argparse.Namespace) -> int:
    if not 3 <= args.length <= 6:
        raise ValueError("classify supports lengths 3 to 6")
    rows = [classification_row(p) for p in all_perms(args.length)]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "pattern": format_perm(r.pattern),
                        "is_class": r.is_class,
                        "class_basis": [format_perm(b) for b in r.class_basis]
                        if r.class_basis
                        else None,
                        "is_effective": r.is_effective,
                        "sortables_avoid_anchored_132": r.sortables_avoid_anchored_132,
                        "label": r.label,
                    }
                    for r in rows
                ]
            )
        )
        return 0
    if args.format == "csv":
        for r in rows:
            basis = ";".join(format_perm(b) for b in r.class_basis) if r.class_basis else ""
            print(
                f"{format_perm(r.pattern)},{r.is_class},{r.is_effective},"
                f"{r.sortables_avoid_anchored_132},{r.label},{basis}"
            )
        return 0
    glyphs = sys.stdout.isatty()
    width = max(2 * args.length - 1, len("pattern")) + 2
    print(f"{'pattern':<{width}}{'class':<7}{'effective':<11}{'avoid-a132':<12}row")
    for r in rows:
        print(
            f"{format_perm(r.pattern):<{width}}"
            f"{_flag(r.is_class, glyphs):<7}"
            f"{_flag(r.is_effective, glyphs):<11}"
            f"{_flag(r.sortables_avoid_anchored_132, glyphs):<12}"
            f"{r.label}"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "theorems":
        results = verify_theorems(args.max_sigma_len, args.max_n)
    elif args.suite == "tables":
        results = verify_tables(args.max_sigma_len, args.max_n)
    elif args.suite == "conjectures":
        results = verify_conjectures(args.max_n, args.minima_convention)
    else:
        results = verify_all(args.max_sigma_len, args.max_n)
    for r in results:
        print(r.line())
    failures = sum(1 for r in results if r.status == "FAIL")
    passes = sum(1 for r in results if r.status == "PASS")
    findings = sum(1 for r in results if r.status == "FINDING")
    print(f"summary: {passes} pass, {failures} fail, {findings} findings")
    return 1 if failures else 0


def _cmd_fertility(args: argparse.Namespace) -> int:
    forbidden = _parse_perm_arg(args.sigma, "forbidden pattern")
    check_forbidden(forbidden)
    if (args.gamma is None) == (args.n is None):
        raise ValueError("give exactly one of --gamma or --n")
    if args.gamma is not None:
        gamma = _parse_perm_arg(args.gamma, "target output")
        value = fertility(forbidden, gamma)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "forbidden": format_perm(forbidden),
                        "gamma": format_perm(gamma),
                        "fertility": value,
                    }
                )
            )
        else:
            print(value)
        return 0
    profile = sorted_profile(args.n, forbidden)
    if args.format == "json":
        print(json.dumps({format_perm(g): c for g, c in profile.entries.items()}))
    else:
        for gamma, count in profile.entries.items():
            print(f"{format_perm(gamma)}  {count}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    for line in equidistribution_report(args.max_n, args.minima_convention):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacksort",
        description="Pattern-restricted stack machines: traces, counts, classification, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="step-by-step pass of one input through a restricted stack")
    p.add_argument("sigma", help="forbidden pattern, e.g. 231")
    p.add_argument("pi", help="input permutation, e.g. 2413")
    p.add_argument("--format", default="plain", choices=("plain", "json"))
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("count", help="sequence of counts for n = 1..max-n")
    p.add_argument("what", choices=("sortable", "sorted", "anchored132"))
    p.add_argument("--sigma", help="forbidden pattern (required for sortable/sorted)")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", default="plain", choices=("plain", "csv", "json", "bfile"))
    p.add_argument("--force", action="store_true", help="allow max-n beyond the 11! guard")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("classify", help="classification table for all patterns of one length")
    p.add_argument("length", type=int)
    p.add_argument("--format", default="plain", choices=("plain", "csv", "json"))
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify", help="run the exhaustive cross-checks and print a report")
    p.add_argument("--suite", default="all", choices=("all", "theorems", "tables", "conjectures"))
    p.add_argument("--max-sigma-len", type=int, default=4)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--minima-convention", default="strict", choices=("strict", "weak"))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fertility", help="preimage count of one output, or the full profile at length n")
    p.add_argument("--sigma", required=True)
    p.add_argument("--gamma", help="target output permutation")
    p.add_argument("--n", type=int, help="profile length")
    p.add_argument("--format", default="plain", choices=("plain", "json"))
    p.set_defaults(fn=_cmd_fertility)

    p = sub.add_parser("explore", help="joint statistic distributions of the three conjectural families")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--minima-convention", default="strict", choices=("strict", "weak"))
    p.set_defaults(fn=_cmd_explore)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
