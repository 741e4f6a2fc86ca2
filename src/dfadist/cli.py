"""Command-line interface: one subcommand per pipeline stage.

Machine-consumable results go to stdout, diagnostics to stderr.  Exit
codes: 0 for true/success/found, 1 for false/none/unsat, 2 for usage or
input errors and for running out of memory or recursion depth.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .automata import AutomataError, Dfa, is_equivalent, is_subset, parse_dfa, serialize_dfa
from .distinguish import (
    Orientation,
    is_distinguishing,
    shortest_distinguishing_word,
    synth_min_distinguishing,
)
from .reduction import CnfFormula, FormulaError, build_lower_dfa, build_upper_dfa, verify_lemma
from .satsolve import DimacsParseError, parse_dimacs, solve

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _load_dfa(path: str) -> Dfa:
    return parse_dfa(Path(path).read_text(encoding="utf-8"))


def _load_cnf(path: str) -> CnfFormula:
    instance = parse_dimacs(Path(path).read_text(encoding="utf-8"))
    return CnfFormula.from_instance(instance)


def _cmd_reduce(args: argparse.Namespace) -> int:
    formula = _load_cnf(args.cnf)
    upper = build_upper_dfa(formula)
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    Path(args.out_upper).write_text(serialize_dfa(upper), encoding="utf-8")
    Path(args.out_lower).write_text(serialize_dfa(lower), encoding="utf-8")
    print(f"upper states: {upper.state_count}")
    print(f"lower states: {lower.state_count}")
    return EXIT_TRUE


def _cmd_synth(args: argparse.Namespace) -> int:
    a1, a2 = _load_dfa(args.a1), _load_dfa(args.a2)
    outcome = synth_min_distinguishing(a1, a2, args.max_k)
    if not outcome.found:
        print("none")
        return EXIT_FALSE
    print(f"k={outcome.bound} orientation={outcome.orientation.value}")
    if args.emit:
        Path(args.emit).write_text(serialize_dfa(outcome.dfa), encoding="utf-8")
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
    instance = parse_dimacs(Path(args.cnf).read_text(encoding="utf-8"))
    model = solve(instance)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfadist",
        description="DFA algebra, distinguishing-DFA synthesis, and the CNF-to-DFA-pair pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="compile a DIMACS CNF into the upper/lower .dfa pair")
    p.add_argument("cnf")
    p.add_argument("out_upper")
    p.add_argument("out_lower")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("synth", help="synthesize a minimal distinguishing DFA")
    p.add_argument("a1")
    p.add_argument("a2")
    p.add_argument("--max-k", type=int, required=True, help="largest state count to try")
    p.add_argument("--emit", help="write the synthesized DFA here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("word", help="shortest word accepted by exactly one of two DFAs")
    p.add_argument("a1")
    p.add_argument("a2")
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("check", help="boolean language checks")
    check_sub = p.add_subparsers(dest="check_kind", required=True)
    for kind, (help_text, names, _) in _CHECKS.items():
        q = check_sub.add_parser(kind, help=help_text)
        for name in names:
            q.add_argument(name)
        q.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimize", help="print the minimal DFA in .dfa format")
    p.add_argument("dfa")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("dot", help="print the DFA as a Graphviz digraph")
    p.add_argument("dfa")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("sat", help="solve a DIMACS CNF")
    p.add_argument("cnf")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("verify-lemma", help="check satisfiability against minimal distinguisher size")
    p.add_argument("cnf")
    p.set_defaults(func=_cmd_verify_lemma)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        AutomataError,
        DimacsParseError,
        FormulaError,
        ValueError,
        OSError,
        RecursionError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        # usually raised without a message
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
