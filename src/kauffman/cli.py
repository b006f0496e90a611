"""Command-line front end.

Exit codes: 0 success (and "equal" for eq), 1 not-equal or failed
selftest, 2 parse or domain errors, 3 internal cross-check failures,
141 (128 + SIGPIPE, as a shell reports a pipe writer that SIGPIPE ended)
when the reader of stdout closed it before the output ended.

Output is written as it is produced: `enum` writes one line per object,
and `nf --trace` writes one line per rewrite step as the step fires, up
to TRACE_CHUNK lines per write, so neither holds its whole output in
memory; a failure partway leaves the lines of everything before it on
stdout.

Each call builds its own argparse parser.  Only the command that its
argv names is declared in full; every other command gets a bare
subparser, its name and help line without even `-h`, which is all that
usage, `kauffman -h` and an invalid-choice error read of it.  argparse
picks a subcommand by an exact match of one argv token, so the command
it runs is always fully declared.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
from typing import Sequence

from . import selftest
from .diagrams import from_json_dict, to_json_dict
from .draw import render
from .enumeration import (
    count_pairings,
    enumerate_normal_forms,
    enumerate_pairings,
    enumerate_terms,
)
# normalize and normal_form are not called here, but stay names of this module:
# perfbench/tracing.py wraps kauffman.cli.normalize and kauffman.cli.normal_form
from .rewrite import ConsistencyError, format_step, normal_form, normalize, rewrite_steps  # noqa: F401
from .semantics import decide_equal, decide_nf, delta, diagram_to_nf, peel
from .syntax import ParseError, format_term, parse
from .terms import DomainError, nf_to_term

EXIT_CLOSED_PIPE = 141
TRACE_CHUNK = 512  # nf --trace lines per write


def _cmd_nf(args) -> int:
    term = parse(args.term, args.n)
    if args.trace:
        steps, lines, write = rewrite_steps(term), [], sys.stdout.write
        try:
            while True:
                lines.append(format_step(next(steps)))
                if len(lines) == TRACE_CHUNK:
                    chunk, lines = lines, []
                    write("\n".join(chunk) + "\n")
        except StopIteration as done:
            nf = done.value
        finally:  # on a failing step too: the lines of the steps before it
            if lines:
                write("\n".join(lines) + "\n")
    else:
        nf = decide_nf(term)
    print(format_term(nf_to_term(nf)))
    return 0


def _cmd_eq(args) -> int:
    equal = decide_equal(parse(args.term_t, args.n), parse(args.term_u, args.n),
                         cross_check=args.cross_check)
    print("equal" if equal else "not-equal")
    return 0 if equal else 1


def _cmd_diagram(args) -> int:
    print(json.dumps(to_json_dict(delta(parse(args.term, args.n)))))
    return 0


def _cmd_term_of(args) -> int:
    try:
        data = json.load(sys.stdin)  # over-long integers and undecodable bytes: ValueError too
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        raise DomainError(f"invalid JSON on stdin: {e}") from None
    diagram = from_json_dict(data)
    if args.method == "slope":
        term = nf_to_term(diagram_to_nf(diagram))
    else:
        term = peel(diagram)
    print(format_term(term))
    return 0


def _cmd_enum(args) -> int:
    if args.pairings:
        for d in enumerate_pairings(args.n):
            print(json.dumps(to_json_dict(d)))
    elif args.terms is not None:
        for t in enumerate_terms(args.n, args.terms):
            print(format_term(t))
    else:
        for f in enumerate_normal_forms(args.n, args.nf):
            print(format_term(nf_to_term(f)))
    return 0


def _cmd_count(args) -> int:
    print(count_pairings(args.n))
    return 0


def _cmd_render(args) -> int:
    print(render(delta(parse(args.term, args.n)), args.format, args.unit, args.labels))
    return 0


def _cmd_selftest(args) -> int:
    return 0 if selftest.run() else 1


def _nf_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("term")
    p.add_argument("--trace", action="store_true", help="print one line per rewrite step")


def _eq_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("term_t")
    p.add_argument("term_u")
    p.add_argument("--cross-check", action="store_true",
                   help="run both the diagram route and the rewriting")


def _term_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("term")


def _term_of_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("slope", "peel"), default="slope")


def _enum_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--terms", type=int, metavar="L", help="all terms of length <= L")
    group.add_argument("--pairings", action="store_true",
                       help="all circle-free planar diagrams, one JSON per line")
    group.add_argument("--nf", type=int, metavar="C",
                       help="all normal forms with at most C circles")


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pairings", action="store_true", required=True)


def _render_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("term")
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--unit", type=float, default=None,
                   help="pixels per step (svg) or columns per step (ascii)")
    p.add_argument("--labels", action="store_true", help="label the boundary points")


# (name, help, takes -n, declares its other arguments, runs it), in the order of `-h`
_COMMANDS = (
    ("nf", "reduce a term to Jones normal form", True, _nf_arguments, _cmd_nf),
    ("eq", "decide whether two terms are equal", True, _eq_arguments, _cmd_eq),
    ("diagram", "print the diagram of a term as JSON", True, _term_arguments, _cmd_diagram),
    ("term-of", "read a diagram JSON from stdin, print its normal-form term", False,
     _term_of_arguments, _cmd_term_of),
    ("enum", "list terms, planar pairings, or normal forms", True, _enum_arguments, _cmd_enum),
    ("count", "count enumerated objects", True, _count_arguments, _cmd_count),
    ("render", "draw the diagram of a term", True, _render_arguments, _cmd_render),
    ("selftest", "run the exhaustive small-size oracle suite", False, None, _cmd_selftest),
)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for `argv`: every command, declared in full only if `argv` names it.

    Every formatter gets the terminal width, read once here, and the
    subparsers the prefix `parser.prog`, which argparse would otherwise
    find by formatting a usage string.
    """
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="kauffman",
        description="Kauffman monoids: Jones normal forms, diagrams, word problem.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, help_, with_n, add_arguments, func in _COMMANDS:
        named = name in argv
        p = sub.add_parser(name, help=help_, formatter_class=formatter, add_help=named)
        if not named:
            continue
        if with_n:
            p.add_argument("-n", type=int, required=True, metavar="N",
                           help="monoid size (number of strands)")
        if add_arguments is not None:
            add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader is gone.  Point stdout at os.devnull, so that the flush
        # at interpreter exit finds somewhere to write, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    return code


def _run(argv: Sequence[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ParseError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
