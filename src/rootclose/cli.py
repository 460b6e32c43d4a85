"""Command-line front end.

Exit code 0 means every check passed; undetermined outcomes count as
failures for CI purposes but keep their own label in the output.  Exit
code 2 means the input could not be used: bad options, an expression
that does not parse, or a report that is unreadable or malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass

from . import closure, report
from .fontaine import CERTIFIED, PLAIN
from .parser import ParseError, parse_expr


def _emit(rep: report.Report, fmt: str) -> int:
    sys.stdout.write(rep.to_json() if fmt == "json" else rep.to_text())
    return 0 if rep.ok else 1


def _example_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=5)
    sub.add_argument("--depth", type=int, default=3)
    sub.add_argument("--witt-len", type=int, default=2)
    sub.add_argument("--mode", choices=(CERTIFIED, PLAIN), default=CERTIFIED)
    sub.add_argument("--no-timestamp", action="store_true")


def _example(args: argparse.Namespace) -> int:
    cfg = report.Config(
        p=args.p,
        depth=args.depth,
        witt_length=args.witt_len,
        timestamp=not args.no_timestamp,
        closure_mode=args.mode,
    )
    try:
        rep = report.run_example_suite(cfg)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return _emit(rep, args.format)


def _props_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--no-timestamp", action="store_true")


def _props(args: argparse.Namespace) -> int:
    rep = report.run_property_suites(args.seed, timestamp=not args.no_timestamp)
    return _emit(rep, args.format)


def _eval_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("expr")
    sub.add_argument("--check-closure", action="store_true")
    sub.add_argument("--mmax", type=int, default=5)
    sub.add_argument("--p", type=int, default=5)
    sub.add_argument("--degree", type=int, default=3)


def _eval(args: argparse.Namespace) -> int:
    # a coefficient past Python's int-to-str digit limit is unusable
    # input too: terms_to_json raises ValueError naming the limit
    try:
        elem = parse_expr(args.expr, args.p, args.degree)
        num_terms = report.terms_to_json(elem.num.terms)
    except (ParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    out: dict = {"level": elem.level, "denom_exp": elem.denom_exp, "num_terms": num_terms}
    status = 0
    if args.check_closure:
        if args.mmax < 0:
            sys.stderr.write("error: --mmax must be non-negative\n")
            return 2
        got = closure.membership(elem, args.mmax)
        if isinstance(got, closure.ClosureCert):
            out["closure"] = {"member": True, "certificate": report.cert_to_json(got)}
        else:
            out["closure"] = {
                "member": False,
                "m_max": got.m_max,
                "definite_nonmember": got.refuted,
            }
            status = 1
    if args.format == "json":
        sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(f"level {out['level']}, denominator PI^{out['denom_exp']}\n")
        sys.stdout.write(f"numerator terms: {out['num_terms']}\n")
        if "closure" in out:
            c = out["closure"]
            if c["member"]:
                sys.stdout.write(f"closure member: m = {c['certificate']['m']}\n")
            elif c["definite_nonmember"]:
                sys.stdout.write("not a closure member (structurally impossible)\n")
            else:
                sys.stdout.write(f"no certificate up to m = {c['m_max']}\n")
    return status


def _revalidate_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("report")


def _revalidate(args: argparse.Namespace) -> int:
    # unreadable file, invalid or too deeply nested JSON and
    # malformed reports all land here
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        rep = report.revalidate_report(data)
    except (OSError, ValueError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return _emit(rep, args.format)


@dataclass(frozen=True)
class Command:
    """A subcommand: its line in ``rootclose -h``, what adds its options
    and what runs it on the parsed arguments."""

    help: str
    add_options: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


#: name -> command, in the order ``rootclose -h`` lists them
COMMANDS = {
    "example": Command("run the worked example suite", _example_options, _example),
    "props": Command("run the randomized property suites", _props_options, _props),
    "eval": Command("parse an expression and test closure membership", _eval_options, _eval),
    "revalidate": Command("re-check every certificate in a report", _revalidate_options, _revalidate),
}


def _add_options(command: Command, parser: argparse.ArgumentParser) -> None:
    command.add_options(parser)
    parser.add_argument("--format", choices=("json", "text"), default="text")


def _whole_tree(argv: list[str]) -> int:
    """Parse ``argv`` with every command's subparser and options: the
    parser that prints ``rootclose -h`` and the usage errors."""
    parser = argparse.ArgumentParser(
        prog="rootclose",
        description="Exact verification of root-closure, sequence and Witt-vector constructions",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_options(command, subs.add_parser(name, help=command.help))
    args = parser.parse_args(argv)
    return COMMANDS[args.command].run(args)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command named first is parsed by its own parser alone, which is
    # the whole tree's subparser for it; every other argv, and one with
    # arguments left over, goes through the whole tree
    command = COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"rootclose {argv[0]}")
        _add_options(command, parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return command.run(args)
    return _whole_tree(argv)


if __name__ == "__main__":
    raise SystemExit(main())
