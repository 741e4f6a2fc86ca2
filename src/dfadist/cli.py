"""Command-line interface: one subcommand per pipeline stage.

Machine-consumable results go to stdout, diagnostics to stderr.  Exit
codes: 0 for true/success/found, 1 for false/none/unsat, 2 for usage or
input errors, for running out of memory or recursion depth, for a failed
re-check of a solver model or a synthesized DFA, and for an interrupt.
A DIMACS file whose header declares a different clause count than it
holds is still read, with one ``warning:`` line on stderr.

A call of positional arguments only (a command without options, or
``check <kind>``, with exactly its arguments) is dispatched straight from
``_COMMANDS`` / ``_CHECKS``; argparse handles every other call: options,
help, ``--`` and usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from .automata import AutomataError, Dfa, is_equivalent, is_subset, parse_dfa, serialize_dfa
from .distinguish import (
    is_distinguishing,
    shortest_distinguishing_word,
    synth_min_distinguishing,
)
from .reduction import CnfFormula, build_lower_dfa, build_upper_dfa, verify_lemma
from .satsolve import CnfInstance, DimacsParseError, parse_dimacs, solve

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as file:
        return file.read()


def _load_dfa(path: str) -> Dfa:
    return parse_dfa(_read_text(path))


def _read_cnf(path: str) -> CnfInstance:
    """Parse a DIMACS file; each parser warning becomes one stderr line."""
    text = _read_text(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        instance = parse_dimacs(text)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return instance


def _load_cnf(path: str) -> CnfFormula:
    instance = _read_cnf(path)
    return CnfFormula(instance.var_count, instance.clauses)


def _cmd_reduce(args: argparse.Namespace) -> int:
    formula = _load_cnf(args.cnf)
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    upper = build_upper_dfa(formula)
    out_upper = Path(args.out_upper)
    out_upper.write_text(serialize_dfa(upper), encoding="utf-8")
    try:
        Path(args.out_lower).write_text(serialize_dfa(lower), encoding="utf-8")
    except OSError:  # both files or neither
        out_upper.unlink(missing_ok=True)
        raise
    print(f"upper states: {upper.state_count}")
    print(f"lower states: {lower.state_count}")
    return EXIT_TRUE


def _cmd_synth(args: argparse.Namespace) -> int:
    a1, a2 = _load_dfa(args.a1), _load_dfa(args.a2)
    outcome = synth_min_distinguishing(a1, a2, args.max_k)
    if not outcome.found:
        print("none")
        return EXIT_FALSE
    if args.emit:
        Path(args.emit).write_text(serialize_dfa(outcome.dfa), encoding="utf-8")
    print(f"k={outcome.bound} orientation={outcome.orientation.value}")
    return EXIT_TRUE


def _cmd_word(args: argparse.Namespace) -> int:
    a1, a2 = _load_dfa(args.a1), _load_dfa(args.a2)
    word = shortest_distinguishing_word(a1, a2)
    if word is None:
        print("none")
        return EXIT_FALSE
    print(word)
    return EXIT_TRUE


# check kind -> (help, positional .dfa arguments, predicate); the lambdas
# look the names up at call time, so rebinding them (perfbench's tracer) works
_CHECKS = {
    "subset": ("L(a1) subset of L(a2)", ("a1", "a2"), lambda a1, a2: is_subset(a1, a2)),
    "equiv": ("L(a1) equals L(a2)", ("a1", "a2"), lambda a1, a2: is_equivalent(a1, a2)),
    "distinguishing": (
        "L(dfa) inside exactly one of L(a1), L(a2)",
        ("dfa", "a1", "a2"),
        lambda dfa, a1, a2: is_distinguishing(dfa, a1, a2),
    ),
}


def _cmd_check(args: argparse.Namespace) -> int:
    _, names, predicate = _CHECKS[args.check_kind]
    result = predicate(*(_load_dfa(getattr(args, name)) for name in names))
    print("true" if result else "false")
    return EXIT_TRUE if result else EXIT_FALSE


def _cmd_minimize(args: argparse.Namespace) -> int:
    sys.stdout.write(serialize_dfa(_load_dfa(args.dfa).minimize()))
    return EXIT_TRUE


def _cmd_dot(args: argparse.Namespace) -> int:
    sys.stdout.write(_load_dfa(args.dfa).to_dot())
    return EXIT_TRUE


def _cmd_sat(args: argparse.Namespace) -> int:
    model = solve(_read_cnf(args.cnf))
    if model is None:
        print("s UNSATISFIABLE")
        return EXIT_FALSE
    print("s SATISFIABLE")
    lits = " ".join(str(v if value else -v) for v, value in enumerate(model, start=1))
    print(f"v {lits} 0")
    return EXIT_TRUE


def _cmd_verify_lemma(args: argparse.Namespace) -> int:
    report = verify_lemma(_load_cnf(args.cnf))
    sys.stdout.write(report.render())
    return EXIT_TRUE if report.consistent else EXIT_FALSE


# subcommand -> (help, positional arguments, options as (flag, add_argument
# keywords)); main dispatches to _cmd_<name>, looked up at call time so a
# rebound handler is reached
_COMMANDS = {
    "reduce": (
        "compile a DIMACS CNF into the upper/lower .dfa pair",
        ("cnf", "out_upper", "out_lower"),
        (),
    ),
    "synth": (
        "synthesize a minimal distinguishing DFA",
        ("a1", "a2"),
        (
            ("--max-k", {"type": int, "required": True, "help": "largest state count to try"}),
            ("--emit", {"help": "write the synthesized DFA here"}),
        ),
    ),
    "word": ("shortest word accepted by exactly one of two DFAs", ("a1", "a2"), ()),
    "check": ("boolean language checks", (), ()),
    "minimize": ("print the minimal DFA in .dfa format", ("dfa",), ()),
    "dot": ("print the DFA as a Graphviz digraph", ("dfa",), ()),
    "sat": ("solve a DIMACS CNF", ("cnf",), ()),
    "verify-lemma": ("check satisfiability against minimal distinguisher size", ("cnf",), ()),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfadist",
        description="DFA algebra, distinguishing-DFA synthesis, and the CNF-to-DFA-pair pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        for flag, settings in options:
            p.add_argument(flag, **settings)

    check_sub = sub.choices["check"].add_subparsers(dest="check_kind", required=True)
    for kind, (help_text, names, _) in _CHECKS.items():
        q = check_sub.add_parser(kind, help=help_text)
        for name in names:
            q.add_argument(name)
    return parser


def _positional_call(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would build for a call of positional arguments
    only, read off the tables; None leaves the call to argparse.

    Taken are a command that declares no option, or ``check <kind>``,
    followed by exactly its positional names, no token starting with ``-``.
    """
    if not argv or any(token.startswith("-") for token in argv):
        return None
    command, *values = argv
    entry = _COMMANDS.get(command)
    if entry is None or entry[2]:
        return None
    fields = {"command": command}
    names = entry[1]
    if command == "check":
        check = _CHECKS.get(values[0]) if values else None
        if check is None:
            return None
        fields["check_kind"] = values.pop(0)
        names = check[1]
    if len(values) != len(names):
        return None
    fields.update(zip(names, values))
    return argparse.Namespace(**fields)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _positional_call(argv)
    if args is None:
        args = _parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (AutomataError, DimacsParseError, ValueError, OSError, RuntimeError) as err:
        # a RuntimeError is a failed re-check; RecursionError is one too
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        # usually raised without a message
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
