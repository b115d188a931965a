"""Command-line front end.

Subcommands: verify, gen4, family, search, s3.  Records go to stdout, one per
line, as JSON objects ({"s": ..., "parts": [...], "n": ..., "b": ...,
"source": ...}) or as tab-separated columns a_1 .. a_{s-1}, b, n; diagnostics
go to stderr.  Integers on the command line are ASCII decimals of any
length with an optional sign, rationals the same or p/q; any other form
(1_000, 1e3, 1.5, non-ASCII digits) is a usage error.  Exit codes: 0
success, 1 mathematical failure (not a solution, or positivity violated), 2
usage error, 3 generation budget exhausted, 130 interrupted (Ctrl-C).  A
usage error prints the usage line of the subcommand it came from (the
top-level one when there is no subcommand).

argparse defines every flag, and writes every usage line, error and help
text.  A well-formed argv does not run its parser, though: one scan reads
the subcommand's tokens left to right against a table of option string ->
Action, built once from the Actions that add_argument returned, and applies
each Action's type, choices, const and default as argparse would.  Whatever
the scan does not take (-h, --, an abbreviation, a repeated flag, a value
that is missing, starts with '-' or fails its type or choices, a missing
required flag) goes to the subcommand's parse_args unchanged.
"""

import argparse
import sys

from .elliptic import on_curve
from .exactmath import format_decimal, format_fraction, parse_decimal, parse_fraction
from .family import FamilyParams, general_solution, s5_polynomial_family
from .search import SearchSpec, enumerate_solutions
from .transforms import (
    DioSolution,
    primitive_reduce,
    s4_point_solution,
    s4_solutions,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction


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


def _int(text: str) -> int:
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [parse_decimal(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _fraction(text: str) -> "Fraction":
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r}") from exc


def _fraction_list(text: str) -> "list[Fraction]":
    try:
        return [parse_fraction(tok) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated rational list: {text!r}") from exc


def _point(text: str) -> "tuple[Fraction, Fraction]":
    coords = _fraction_list(text)
    if len(coords) != 2:
        raise argparse.ArgumentTypeError(f"a point needs exactly two coordinates: {text!r}")
    return coords[0], coords[1]


def cmd_verify(args: argparse.Namespace) -> int:
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


def cmd_gen4(args: argparse.Namespace) -> int:
    # --primitive changes no gen4 record: _s4_solution divides out the whole
    # common factor (transforms module docstring).
    if args.from_point is not None:
        x, y = args.from_point
        try:
            sol = s4_point_solution(x, y)
        except ValueError:
            sol, reason = None, "is not on the s=4 curve"
        else:
            reason = "is outside the positive region (needs x < 243 and |y| < 6369 - 27x)"
        if sol is None:
            print(f"point ({format_fraction(x)}, {format_fraction(y)}) {reason}", file=sys.stderr)
            return 1
        print(render(sol, "gen4", args.format))
        return 0
    if args.count is None:
        return _usage_error("--count is required unless --from-point is given")
    found = 0
    for sol in s4_solutions(args.max_multiple):
        print(render(sol, "gen4", args.format))
        found += 1
        if found == args.count:
            return 0
    print(
        f"budget exhausted: found {found} of {format_decimal(args.count)} solutions "
        f"within {format_decimal(args.max_multiple)} multiples",
        file=sys.stderr,
    )
    return 3


def cmd_family(args: argparse.Namespace) -> int:
    closed_form = args.t1 is not None or args.t2 is not None
    if closed_form:
        if args.t1 is None or args.t2 is None:
            return _usage_error("--t1 and --t2 must be given together")
        if args.tail is not None or args.t0 is not None:
            return _usage_error("--t1/--t2 and --tail/--t0 are mutually exclusive")
        if args.s != 5:
            return _usage_error("the closed form --t1/--t2 is only defined for --s 5")
    else:
        if args.tail is None or args.t0 is None:
            return _usage_error("either --t1/--t2 or --tail/--t0 must be given")
        try:
            params = FamilyParams(args.s, args.tail, args.t0)
        except ValueError as exc:
            return _usage_error(str(exc))
    try:
        if closed_form:
            sol = s5_polynomial_family(args.t1, args.t2)
        else:
            sol = general_solution(params)
    except ValueError as exc:  # the positivity quadratic D is not positive
        print(exc, file=sys.stderr)
        return 1
    if args.primitive and closed_form:  # a --tail record is primitive (family docstring)
        sol = primitive_reduce(sol)
    print(render(sol, "family", args.format))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    try:
        spec = SearchSpec(s=args.s, n_max=args.max_n, a_max=args.max_part, jobs=args.jobs)
    except ValueError as exc:
        return _usage_error(str(exc).replace("n_max", "--max-n"))
    for sol in enumerate_solutions(spec):
        print(render(sol, "search", args.format))
    return 0


# The integral torsion candidates of y^2 = x^3 + 16 (Nagell-Lutz: y = 0 or
# y | 27 * 16^2), sorted; tests/certificates.py derives them.  Both have
# x = 0, the fiber v = 0 of the chart (transforms module docstring), so none
# traces back to a pair (b1, b2).
_S3_CANDIDATES = ((0, -4), (0, 4))


def cmd_s3(args: argparse.Namespace) -> int:
    try:
        spec = SearchSpec(3, args.brute_max)
    except ValueError as exc:
        return _usage_error(str(exc).replace("n_max", "--brute-max"))
    print("curve: y^2 = x^3 + 16")
    rendered = ", ".join(f"({x}, {y})" for x, y in _S3_CANDIDATES)
    print(f"integral candidates (y = 0 or y | disc): {rendered}")
    for x, y in _S3_CANDIDATES:
        print(f"trace back ({x}, {y}): v = 0, degenerate, no (b1, b2)")
    print("positive preimages among candidates: 0")
    brute = enumerate_solutions(spec)
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


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="sumprodpower",
        description="Construct, generate, search and verify solutions of "
        "n = a_1 + ... + a_{s-1} with a_1 * ... * a_{s-1} * n = b^s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one candidate solution")
    p_verify.add_argument("--s", type=_int, required=True, help="number of terms s (>= 3)")
    p_verify.add_argument("--parts", type=_int_list, required=True,
                          help="comma-separated parts a_1,...,a_{s-1}")
    p_verify.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    p_verify.set_defaults(func=cmd_verify)

    p_gen4 = sub.add_parser("gen4", help="generate s=4 solutions from curve multiples")
    p_gen4.add_argument("--count", type=_positive_int, help="number of distinct solutions")
    p_gen4.add_argument("--max-multiple", type=_positive_int, default=25,
                        help="largest multiple of the seed point to try (default 25)")
    p_gen4.add_argument("--primitive", action="store_true",
                        help="reduce each solution by its common factor")
    p_gen4.add_argument("--from-point", type=_point, metavar="X,Y",
                        help="map one explicit curve point instead of walking multiples")
    p_gen4.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    p_gen4.set_defaults(func=cmd_gen4)

    p_family = sub.add_parser("family", help="instantiate the s>=5 solution family")
    p_family.add_argument("--s", type=_int, required=True, help="number of terms s (>= 5)")
    p_family.add_argument("--tail", type=_fraction_list,
                          help="comma-separated positive rationals b4,...,b_{s-1}")
    p_family.add_argument("--t0", type=_fraction, help="positive rational parameter")
    p_family.add_argument("--t1", type=_positive_int, help="closed s=5 form: first integer")
    p_family.add_argument("--t2", type=_positive_int, help="closed s=5 form: second integer")
    p_family.add_argument("--primitive", action="store_true",
                          help="reduce the solution by its common factor")
    p_family.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    p_family.set_defaults(func=cmd_family)

    p_search = sub.add_parser("search", help="enumerate all solutions within bounds")
    p_search.add_argument("--s", type=_int, required=True, help="number of terms s (>= 3)")
    p_search.add_argument("--max-n", type=_positive_int, required=True,
                          help="largest allowed sum n")
    p_search.add_argument("--max-part", type=_positive_int, default=None,
                          help="largest allowed part (default: max-n)")
    p_search.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes, capped at the usable cores (default 1)")
    p_search.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    p_search.set_defaults(func=cmd_search)

    p_s3 = sub.add_parser("s3", help="report the s=3 non-existence analysis")
    p_s3.add_argument("--brute-max", type=_positive_int, default=10000,
                      help="brute-force bound on a1 + a2 (default 10000)")
    p_s3.set_defaults(func=cmd_s3)

    return parser, sub.choices


_Flags = tuple[dict[str, argparse.Action], dict[str, object], tuple[str, ...]]


def _flag_table(command: argparse.ArgumentParser) -> "_Flags | None":
    """(option string -> Action, default by dest, required dests) of a
    subcommand parser, read from the Actions its add_argument calls returned;
    None if it has an action other than -h, a one-value store or a
    store_true, which only argparse applies."""
    flags: dict[str, argparse.Action] = {}
    defaults = {"func": command.get_default("func")}
    for action in command._actions:
        if isinstance(action, argparse._HelpAction):
            continue  # -h and --help stay out of the table: argparse prints the help
        store = type(action) is argparse._StoreAction and action.nargs is None
        if not store and type(action) is not argparse._StoreTrueAction:
            return None
        if store and isinstance(action.default, str) and action.type is not None:
            return None  # argparse converts a string default with the type
        flags.update(dict.fromkeys(action.option_strings, action))
        defaults[action.dest] = action.default
    required = tuple(action.dest for action in command._actions if action.required)
    return flags, defaults, required


def _scan(table: _Flags, argv: "Sequence[str]") -> argparse.Namespace | None:
    """The Namespace that argparse gives argv, when every token is an exact
    option string of the table (`--flag value`, `--flag=value`, or a
    store_true flag alone), no flag repeats, each value passes its type and
    choices and every required flag is given; else None."""
    flags, defaults, required = table
    values: dict[str, object] = {}
    tokens = iter(argv)
    for token in tokens:
        action = flags.get(token)
        if action is None:
            name, eq, text = token.partition("=")
            action = flags.get(name)
            if not eq or action is None or action.nargs == 0:
                return None
        elif action.nargs == 0:
            text = None
        else:
            text = next(tokens, "-")  # a missing value reads as "-"
            if text.startswith("-"):  # argparse decides whether it is a value
                return None
        if action.dest in values:
            return None
        if text is None:
            value = action.const
        else:
            try:
                value = text if action.type is None else action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
    for dest in required:
        if dest not in values:
            return None
    return argparse.Namespace(**{**defaults, **values})


_PARSERS: (tuple[argparse.ArgumentParser,
                 dict[str, tuple[argparse.ArgumentParser, _Flags | None]]] | None) = None


def _parse(argv: "Sequence[str]") -> argparse.Namespace:
    """Parse argv with the subcommand that argv[0] names: its flag scan, or
    its parser when the scan returns None; the top-level parser takes every
    other argv (none, -h, an unknown command).  The Namespace is the
    top-level one without its `command` key."""
    global _PARSERS
    if _PARSERS is None:
        parser, commands = _build_parser()
        _PARSERS = parser, {name: (command, _flag_table(command))
                            for name, command in commands.items()}
    parser, commands = _PARSERS
    command, table = commands.get(argv[0], (None, None)) if argv else (None, None)
    if command is None:
        return parser.parse_args(argv)
    rest = argv[1:]
    args = None if table is None else _scan(table, rest)
    return command.parse_args(rest) if args is None else args


def main(argv: "Sequence[str] | None" = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


def run() -> None:
    try:
        code = main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    raise SystemExit(code)


if __name__ == "__main__":
    run()
