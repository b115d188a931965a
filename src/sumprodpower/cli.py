"""Command-line front end.

Subcommands: verify, gen4, family, search, s3.  Records go to stdout, one per
line, as JSON objects ({"s": ..., "parts": [...], "n": ..., "b": ...,
"source": ...}) or as tab-separated columns a_1 .. a_{s-1}, b, n; diagnostics
go to stderr.  Integers on the command line are ASCII decimals of any
length with an optional sign, rationals the same or p/q; any other form
(1_000, 1e3, 1.5, non-ASCII digits) is a usage error.  Exit codes: 0
success, 1 mathematical failure (not a solution, or positivity violated), 2
usage error, 3 generation budget exhausted, 130 interrupted (Ctrl-C), 141
stdout closed by its reader (as by `| head`; nothing on stderr).  A usage
error takes one of two forms on stderr.  A flag that argparse refuses
(unknown, missing, or a value that fails its type or choices) prints the
usage line of the subcommand it came from (the top-level one when there is
no subcommand), then `sumprodpower <command>: error: ...`.  A check across
flags or on their values that the subcommand makes itself (verify's part
count, gen4 and family's flag combinations, the bounds of search and s3)
prints one line, `error: ...`.  A repeated flag is no error: argparse keeps
its last value.

One table, _COMMANDS, defines every subcommand and flag, as the keywords of
the add_argument call that argparse would get.  A well-formed argv never
reaches argparse: one scan reads the subcommand's tokens left to right
against that table, with the dest names and defaults derived from it once
at import, and applies each flag's type and choices as argparse would.
Every other argv (no subcommand, -h, --, an abbreviation, a repeated flag,
a value that is missing, starts with '-' or fails its type or choices, a
missing required flag) goes to a parser that _build_parser builds from the
same table, so argparse, and only argparse, writes every usage line, error
and help text; it is imported for that alone.
"""

import os
import sys
from functools import cache
from types import SimpleNamespace

from .elliptic import on_curve
from .exactmath import (
    format_decimal,
    format_rational,
    parse_decimal,
    parse_rational,
)
from .family import FamilyParams, general_solution, s5_polynomial_family
from .search import SearchSpec, enumerate_solutions
from .transforms import (
    DioSolution,
    s4_point_solution,
    s4_solutions,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from argparse import ArgumentParser, Namespace
    from collections.abc import Callable, Sequence

    Args = Namespace | SimpleNamespace


def render(sol: DioSolution, source: str, fmt: str) -> str:
    """One output line: a JSON object (as json.dumps writes it) or TSV columns
    a_1 .. a_{s-1}, b, n, with the parts ascending."""
    parts = [format_decimal(a) for a in sol.sorted_parts]
    n, b = format_decimal(sol.n), format_decimal(sol.b)
    if fmt == "tsv":
        return "\t".join((*parts, b, n))
    return (f'{{"s": {sol.s}, "parts": [{", ".join(parts)}], "n": {n}, "b": {b}, '
            f'"source": "{source}"}}')


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _out_of_memory(flag: str, bound: int) -> int:
    """A search whose tables do not fit in memory: exit code 2, as for a
    bound above N_MAX_LIMIT."""
    return _usage_error(f"{flag} {bound}: the search tables do not fit in memory")


def _bad_value(message: str) -> Exception:
    """The error that argparse reports as `argument --flag: message`; only a
    bad value, which ends in argparse's error, imports it."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _typed(parse: "Callable[[str], object]", what: str) -> "Callable[[str], object]":
    """The flag type that reads a value with parse and reports one that
    parse refuses as `not {what}: 'text'`."""
    def convert(text: str) -> object:
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise _bad_value(f"not {what}: {text!r}") from exc
    return convert


def _each(parse: "Callable[[str], object]") -> "Callable[[str], list]":
    """parse applied to each comma-separated token, as a list."""
    return lambda text: [parse(tok) for tok in text.split(",")]


_int = _typed(parse_decimal, "an integer")
_int_list = _typed(_each(parse_decimal), "a comma-separated integer list")
_rational = _typed(parse_rational, "a rational p/q")
_rational_list = _typed(_each(parse_rational), "a comma-separated rational list")


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise _bad_value(f"must be positive: {text!r}")
    return value


def _point(text: str) -> "tuple[tuple[int, int], tuple[int, int]]":
    """The two coordinates, each as the pair (p, q) it was written as
    (s4_point_solution reads any terms, and format_rational prints the
    rejection line in lowest terms)."""
    coords = _rational_list(text)
    if len(coords) != 2:
        raise _bad_value(f"a point needs exactly two coordinates: {text!r}")
    return coords[0], coords[1]


def cmd_verify(args: "Args") -> int:
    s, parts = args.s, args.parts
    if s < 3:
        return _usage_error("--s must be at least 3")
    if len(parts) != s - 1:
        return _usage_error(f"expected {format_decimal(s - 1)} parts for "
                            f"s={format_decimal(s)}, got {len(parts)}")
    if any(a < 1 for a in parts):
        return _usage_error("parts must be positive integers")
    try:
        sol = DioSolution.from_parts(parts)
    except ValueError as exc:
        print(f"not a solution: {exc}", file=sys.stderr)
        return 1
    print(render(sol, "verify", args.format))
    return 0


def cmd_gen4(args: "Args") -> int:
    # --primitive computes nothing here: the walk and --from-point both build
    # through _s4_solution, whose clearing divides out the whole common factor,
    # so every gen4 record is primitive already (transforms module docstring).
    if args.from_point is not None:
        if args.count is not None:
            return _usage_error("--count and --from-point are mutually exclusive")
        x, y = args.from_point
        try:
            sol = s4_point_solution(x, y)
        except ValueError:
            sol, reason = None, "is not on the s=4 curve"
        else:
            reason = "is outside the positive region (needs x < 243 and |y| < 6369 - 27x)"
        if sol is None:  # the message prints the point in lowest terms
            print(f"point ({format_rational(*x)}, {format_rational(*y)}) {reason}",
                  file=sys.stderr)
            return 1
        print(render(sol, "gen4", args.format))
        return 0
    if args.count is None:
        return _usage_error("--count is required unless --from-point is given")
    # s4_solutions yields one record per odd multiple, so the first count
    # records are those of the multiples up to 2 * count - 1.
    found = 0
    for found, sol in enumerate(s4_solutions(min(args.max_multiple, 2 * args.count - 1)), 1):
        print(render(sol, "gen4", args.format))
    if found == args.count:
        return 0
    print(
        f"budget exhausted: found {found} of {format_decimal(args.count)} solutions "
        f"within {format_decimal(args.max_multiple)} multiples",
        file=sys.stderr,
    )
    return 3


def cmd_family(args: "Args") -> int:
    if args.t1 is None and args.t2 is None:
        if args.tail is None or args.t0 is None:
            return _usage_error("either --t1/--t2 or --tail/--t0 must be given")
        try:
            params = FamilyParams(args.s, args.tail, args.t0)
        except ValueError as exc:
            return _usage_error(str(exc))
    elif args.t1 is None or args.t2 is None:
        return _usage_error("--t1 and --t2 must be given together")
    elif args.tail is not None or args.t0 is not None:
        return _usage_error("--t1/--t2 and --tail/--t0 are mutually exclusive")
    elif args.s != 5:
        return _usage_error("the closed form --t1/--t2 is only defined for --s 5")
    elif args.primitive:  # the general form's record is primitive (family docstring)
        params = FamilyParams(5, ((args.t2, 1),), (args.t1, 1))
    else:
        params = None
    try:
        sol = s5_polynomial_family(args.t1, args.t2) if params is None else general_solution(params)
    except ValueError as exc:  # the positivity quadratic D is not positive
        print(exc, file=sys.stderr)
        return 1
    print(render(sol, "family", args.format))
    return 0


def cmd_search(args: "Args") -> int:
    try:
        spec = SearchSpec(s=args.s, n_max=args.max_n, a_max=args.max_part, jobs=args.jobs)
    except ValueError as exc:
        return _usage_error(str(exc).replace("n_max", "--max-n"))
    try:
        found = enumerate_solutions(spec)
    except MemoryError:
        return _out_of_memory("--max-n", args.max_n)
    for sol in found:
        print(render(sol, "search", args.format))
    return 0


# The integral torsion candidates of y^2 = x^3 + 16 (Nagell-Lutz: y = 0 or
# y | 27 * 16^2), sorted; tests/certificates.py derives them.  Both have
# x = 0, the fiber v = 0 of the chart (transforms module docstring), so none
# traces back to a pair (b1, b2).
_S3_CANDIDATES = ((0, -4), (0, 4))


def cmd_s3(args: "Args") -> int:
    try:
        spec = SearchSpec(3, args.brute_max)
    except ValueError as exc:
        return _usage_error(str(exc).replace("n_max", "--brute-max"))
    try:
        brute = enumerate_solutions(spec)
    except MemoryError:
        return _out_of_memory("--brute-max", args.brute_max)
    print("curve: y^2 = x^3 + 16")
    rendered = ", ".join(f"({x}, {y})" for x, y in _S3_CANDIDATES)
    print(f"integral candidates (y = 0 or y | disc): {rendered}")
    for x, y in _S3_CANDIDATES:
        print(f"trace back ({x}, {y}): v = 0, degenerate, no (b1, b2)")
    print("positive preimages among candidates: 0")
    print(f"brute force a1 + a2 <= {args.brute_max}: {len(brute)} solutions")
    print(
        "erratum: the scaling x = 4v, y = 16u + 8 does not land on y^2 = x^3 + 64"
        " ((16u+8)^2 - (4v)^3 - 64 = 192(u^2+u) is not identically 0);"
        " the consistent scaling is x = 4v, y = 8u + 4 onto y^2 = x^3 + 16"
    )
    for x, y in ((8, 24), (8, -24), (0, 8), (0, -8), (-4, 0)):
        ok = on_curve(64, x, y)
        print(f"point ({x}, {y}) on y^2 = x^3 + 64: {'yes' if ok else 'no'}")
    return 0


# Every subcommand: name -> (handler, help, option -> the keywords of its
# add_argument call).  The one definition of each flag: _scan reads it, and
# _build_parser gives it to argparse.
_COMMANDS = {
    "verify": (cmd_verify, "verify one candidate solution", {
        "--s": dict(type=_int, required=True, help="number of terms s (>= 3)"),
        "--parts": dict(type=_int_list, required=True,
                        help="comma-separated parts a_1,...,a_{s-1}"),
        "--format": dict(choices=("jsonl", "tsv"), default="jsonl"),
    }),
    "gen4": (cmd_gen4, "generate s=4 solutions from curve multiples", {
        "--count": dict(type=_positive_int, help="number of distinct solutions"),
        "--max-multiple": dict(type=_positive_int, default=25,
                               help="largest multiple of the seed point to try (default 25)"),
        "--primitive": dict(action="store_true", help="reduce each solution by its common factor"),
        "--from-point": dict(type=_point, metavar="X,Y",
                             help="map one explicit curve point instead of walking multiples"),
        "--format": dict(choices=("jsonl", "tsv"), default="jsonl"),
    }),
    "family": (cmd_family, "instantiate the s>=5 solution family", {
        "--s": dict(type=_int, required=True, help="number of terms s (>= 5)"),
        "--tail": dict(type=_rational_list,
                       help="comma-separated positive rationals b4,...,b_{s-1}"),
        "--t0": dict(type=_rational, help="positive rational parameter"),
        "--t1": dict(type=_positive_int, help="closed s=5 form: first integer"),
        "--t2": dict(type=_positive_int, help="closed s=5 form: second integer"),
        "--primitive": dict(action="store_true", help="reduce the solution by its common factor"),
        "--format": dict(choices=("jsonl", "tsv"), default="jsonl"),
    }),
    "search": (cmd_search, "enumerate all solutions within bounds", {
        "--s": dict(type=_int, required=True, help="number of terms s (>= 3)"),
        "--max-n": dict(type=_positive_int, required=True, help="largest allowed sum n"),
        "--max-part": dict(type=_positive_int, default=None,
                           help="largest allowed part (default: max-n)"),
        "--jobs": dict(type=_positive_int, default=1,
                       help="worker processes, capped at the usable cores (default 1)"),
        "--format": dict(choices=("tsv", "jsonl"), default="tsv"),
    }),
    "s3": (cmd_s3, "report the s=3 non-existence analysis", {
        "--brute-max": dict(type=_positive_int, default=10000,
                            help="brute-force bound on a1 + a2 (default 10000)"),
    }),
}


def _scan_table(handler, options):
    """(option -> (dest, type, choices), defaults by dest, required dests) of
    one subcommand, as argparse derives them from the add_argument keywords;
    a store_true flag has the type None, and a flag without a type has str."""
    flags, defaults = {}, {"func": handler}
    for option, spec in options.items():
        dest = option[2:].replace("-", "_")
        store_true = spec.get("action") == "store_true"
        flags[option] = dest, None if store_true else spec.get("type", str), spec.get("choices")
        defaults[dest] = spec.get("default", False if store_true else None)
    required = {flags[option][0] for option, spec in options.items() if spec.get("required")}
    return flags, defaults, required


_SCAN_TABLES = {name: _scan_table(handler, options)
                for name, (handler, _, options) in _COMMANDS.items()}


def _scan(table, argv: "Sequence[str]") -> SimpleNamespace | None:
    """The namespace that argparse gives argv, when every token is an exact
    option string of the table (`--flag value`, `--flag=value`, or a
    store_true flag alone), no flag repeats, each value passes its type and
    choices and every required flag is given; else None."""
    flags, defaults, required = table
    values: dict[str, object] = {}
    tokens = iter(argv)
    for token in tokens:
        name, eq, text = token.partition("=")  # no option string holds "="
        dest, convert, choices = flags.get(name, (None, None, None))
        if dest is None or dest in values or eq and convert is None:
            return None  # an unknown or repeated flag, or a store_true flag with a value
        if not eq and convert is not None:
            text = next(tokens, "-")  # a missing value reads as "-"
            if text.startswith("-"):  # argparse decides whether it is a value
                return None
        try:
            value = True if convert is None else convert(text)
        except Exception:  # a bad value: argparse converts it again and reports it
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not values.keys() >= required:
        return None
    return SimpleNamespace(**{**defaults, **values})


@cache
def _build_parser() -> "tuple[ArgumentParser, dict[str, ArgumentParser]]":
    """The top-level parser and its subcommand parsers by name, built from
    _COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sumprodpower",
        description="Construct, generate, search and verify solutions of "
        "n = a_1 + ... + a_{s-1} with a_1 * ... * a_{s-1} * n = b^s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option, spec in options.items():
            command.add_argument(option, **spec)
        command.set_defaults(func=handler)
    return parser, sub.choices


def _parse(argv: "Sequence[str]") -> "Args":
    """Parse argv with the subcommand that argv[0] names: its flag scan, or
    its parser when the scan returns None; the top-level parser takes every
    other argv (none, -h, an unknown command) and refuses a leading --.  A
    subcommand's namespace is the top-level one without its `command` key."""
    if argv and argv[0] in _SCAN_TABLES:
        args = _scan(_SCAN_TABLES[argv[0]], argv[1:])
        if args is None:
            args = _build_parser()[1][argv[0]].parse_args(argv[1:])
        return args
    parser = _build_parser()[0]
    if argv and argv[0] == "--":
        # argparse's own answer depends on its version: 3.13 reads a leading
        # -- as the end of the options and parses the command after it, and
        # earlier versions refuse it as a command.
        parser.error("the first argument must be a command, not '--'")
    return parser.parse_args(argv)


def main(argv: "Sequence[str] | None" = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # here, so that a closed pipe is caught below
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  What is still buffered goes
        # to devnull, so that the flush at exit stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended
    raise SystemExit(code)


if __name__ == "__main__":
    run()
