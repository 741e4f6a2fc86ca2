"""Fuzzing of the parsers and the command line.

Every input yields a valid value or a typed error, never a traceback:
``parse_dfa`` and ``parse_dimacs`` return a value or raise their parse
error, and ``dfadist`` exits 0, 1 or 2, with exactly one ``error:``
line on stderr for 2.
"""

import contextlib
import io
import string
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, strategies as st

from dfadist.automata import DfaParseError, parse_dfa, serialize_dfa
from dfadist.cli import main
from dfadist.satsolve import CnfInstance, DimacsParseError, parse_dimacs

VALID_DFA = ["dfa v1", "alphabet ab", "states 2", "initial 0", "accepting 1", "row 0 1 0", "row 1 1 1"]
# per line of the valid file, broken variants of that line
DFA_BREAKS = [
    ["dfa v2", "; comment"],
    ["alphabet aa", "alphabet", "alphabet a b"],
    ["states 0", "states x", "states \u0663"],
    ["initial 2", "initial -1"],
    ["accepting 0 9", "accepting 1 1", "accepting; none"],
    ["row 0 1", "row 0 7 0", "row 1 0 0", "row x 0 0"],
    ["row 1 1 1 1", "row 0 0 0", "", "row 1 1 1\nrow 2 0 0"],
]
VALID_CNF = ["c comment", "p cnf 2 2", "1 -2 0", "2 0"]
CNF_BREAKS = [
    ["c", "x"],
    ["p cnf 2 3", "p cnf 0 2", "p cnf x 2", "p dnf 2 2", "p cnf 2"],
    ["1 -3 0", "1 x 0", "0", "1 -2"],
    ["2", "p cnf 2 2", "-1 -1 0 0"],
]


def broken(valid, breaks):
    """The valid file with up to three lines swapped for broken variants,
    as is or with its lines shuffled."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 4)), max_size=3)

    def apply(edits):
        lines = list(valid)
        for i, j in edits:
            lines[i] = breaks[i][j % len(breaks[i])]
        return lines

    lines = edits.map(apply)
    return st.one_of(lines, lines.flatmap(st.permutations)).map("\n".join)


# printable ASCII plus what the parsers' str methods treat specially:
# further line boundaries for splitlines, non-ASCII whitespace for
# split, digits int() accepts (Arabic-Indic three) or rejects (superscript
# two); an explicit alphabet also spares Hypothesis its Unicode table
CHARS = string.printable + "\x00\x1c\x85\u2028\u00a0\u3000\u0663\u00b2\u00e9"
DFA_TEXT = st.one_of(st.text(CHARS), broken(VALID_DFA, DFA_BREAKS))
CNF_TEXT = st.one_of(st.text(CHARS), broken(VALID_CNF, CNF_BREAKS))


@contextlib.contextmanager
def clause_count_warnings():
    """Record the DIMACS clause-count warning; any other warning fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for w in caught:
        assert w.category is UserWarning and "clauses, found" in str(w.message)


@given(DFA_TEXT)
def test_parse_dfa_value_or_parse_error(text):
    try:
        dfa = parse_dfa(text)
    except DfaParseError:
        return
    assert parse_dfa(serialize_dfa(dfa)) == dfa


@given(CNF_TEXT)
def test_parse_dimacs_value_or_parse_error(text):
    with clause_count_warnings():
        try:
            instance = parse_dimacs(text)
        except DimacsParseError:
            return
    assert isinstance(instance, CnfInstance)


# "{}" stands for the directory holding the fuzzed files
DFA_COMMANDS = [
    ("word", "{}/x", "{}/y"),
    ("check", "subset", "{}/x", "{}/y"),
    ("check", "equiv", "{}/x", "{}/y"),
    ("check", "distinguishing", "{}/x", "{}/x", "{}/y"),
    ("synth", "{}/x", "{}/y", "--max-k", "2"),
    ("minimize", "{}/x"),
    ("dot", "{}/x"),
]
CNF_COMMANDS = [("sat", "{}/c"), ("reduce", "{}/c", "{}/u", "{}/l"), ("verify-lemma", "{}/c")]


def run_cli(files, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        args = [a.replace("{}", tmp) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clause_count_warnings():
            code = main(args)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


@given(DFA_TEXT, DFA_TEXT, st.sampled_from(DFA_COMMANDS))
def test_cli_on_fuzzed_dfa_files(x, y, argv):
    run_cli({"x": x, "y": y}, argv)


@given(CNF_TEXT, st.sampled_from(CNF_COMMANDS))
def test_cli_on_fuzzed_cnf_files(c, argv):
    run_cli({"c": c}, argv)
