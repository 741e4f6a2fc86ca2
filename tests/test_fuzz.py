"""Fuzzing of the parsers and the command line.

Every input yields a valid value or a typed error, never a traceback:
``parse_dfa`` and ``parse_dimacs`` return a value or raise their parse
error, and ``dfadist`` exits 0, 1 or 2, with exactly one ``error:``
line on stderr for 2.  A DIMACS clause-count mismatch may add one
``warning:`` line before it; stderr holds nothing else.
"""

import contextlib
import io
import re
import string
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dfadist.automata import DfaParseError, parse_dfa, serialize_dfa
from dfadist.cli import main
from dfadist.satsolve import CnfInstance, DimacsParseError, parse_dimacs

from support import assert_parsed_value, parse_dfa_reference, random_dfa

VALID_DFA = ["dfa v1", "alphabet ab", "states 2", "initial 0", "accepting 1", "row 0 1 0", "row 1 1 1"]
# per line of the valid file, broken variants of that line
DFA_BREAKS = [
    ["dfa v2", "; comment"],
    ["alphabet aa", "alphabet", "alphabet a b"],
    ["states 0", "states x", "states \u0663", "states", "states 2 2"],
    ["initial 2", "initial -1", "initial 0 0"],
    # the first faulty accepting token is the one reported: a state above m
    # before a bad numeral, a bad numeral before a state above m, a state below 0
    ["accepting 0 9", "accepting 1 1", "accepting; none", "accepting 9 x", "accepting x 9",
     "accepting 1 -1"],
    # what a bulk row check can get wrong: a row split or joined across
    # lines keeps the total token count right, int() reads "+1" and "00"
    # but not "1.0", and a max-only range check passes "-1"
    ["row 0 1", "row 0 7 0", "row 1 0 0", "row x 0 0", "row 0 1 0 row\n1 1 1",
     "row 0 1 0 row 1 1 1", "row 0 +1 00", "row 0 1.0 0", "row 0 -1 0"],
    ["row 1 1 1 1", "row 0 0 0", "", "row 1 1 1\nrow 2 0 0"],
]
VALID_CNF = ["c comment", "p cnf 2 2", "1 -2 0", "2 0"]
CNF_BREAKS = [
    ["c", "x"],
    ["p cnf 2 3", "p cnf 0 2", "p cnf x 2", "p dnf 2 2", "p cnf 2", "p cnf 2 -1"],
    ["1 -3 0", "1 x 0", "0", "1 -2"],
    ["2", "p cnf 2 2", "-1 -1 0 0"],
]


def broken(valid, breaks):
    """The valid file with up to three lines swapped for broken variants,
    as is or with its lines shuffled."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, max(map(len, breaks)) - 1)), max_size=3)

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
    assert_parsed_value(dfa)
    assert parse_dfa(serialize_dfa(dfa)) == dfa


# numerals in spellings int() reads, then two it rejects
ODD_NUMERALS = ["+1", "01", "1_0", "\u0663", "-0", "1.0", "1e0"]


def _shuffle_rows(lines, rng):
    rows = lines[5:]
    rng.shuffle(rows)
    return lines[:5] + rows


def _insert_blank_or_comment(lines, rng):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " \t", "; row 0 0", ";"]))
    return lines


def _comment_tail(lines, rng):
    i = rng.randrange(len(lines))
    lines[i] += rng.choice([" ; note", ";row 0 0", ";"])
    return lines


def _move_boundary(lines, rng):
    """Move one token across the boundary of two adjacent lines."""
    i = rng.randrange(len(lines) - 1)
    head, tail = lines[i].split(), lines[i + 1].split()
    if rng.random() < 0.5 and head:
        tail.insert(0, head.pop())
    elif tail:
        head.append(tail.pop(0))
    lines[i : i + 2] = [" ".join(head), " ".join(tail)]
    return lines


def _join_two_lines(lines, rng):
    i = rng.randrange(len(lines) - 1)
    lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
    return lines


def _odd_numeral(lines, rng):
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    if tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(ODD_NUMERALS)
    lines[i] = " ".join(tokens)
    return lines


MANGLES = [_shuffle_rows, _insert_blank_or_comment, _comment_tail, _move_boundary,
           _join_two_lines, _odd_numeral]


@st.composite
def mangled_dfa_text(draw):
    """A serialized random 1-60 state DFA, then up to four manglings."""
    rng = draw(st.randoms(use_true_random=False))
    alphabet = draw(st.sampled_from(["a", "ab", "01#"]))
    lines = serialize_dfa(random_dfa(rng, draw(st.integers(1, 60)), alphabet)).splitlines()
    for mangle in draw(st.lists(st.sampled_from(MANGLES), max_size=4)):
        lines = mangle(lines, rng)
    return "\n".join(lines)


def parse_outcome(parse, text):
    """The parsed value, which must pass the checked constructor, or the
    parse error's message and line."""
    try:
        dfa = parse(text)
    except DfaParseError as err:
        return str(err), err.line
    assert_parsed_value(dfa)
    return dfa


@settings(max_examples=300)
@given(st.one_of(DFA_TEXT, mangled_dfa_text()))
def test_parse_dfa_matches_line_by_line_reference(text):
    assert parse_outcome(parse_dfa, text) == parse_outcome(parse_dfa_reference, text)


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
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2)
    err = err.getvalue()
    warning = re.match(r"warning: header declares \d+ clauses, found \d+\n", err)
    if warning:
        err = err[warning.end():]
    if code == 2:
        assert err.startswith("error: ")
        assert err.count("\n") == 1
    else:
        assert err == ""


@given(DFA_TEXT, DFA_TEXT, st.sampled_from(DFA_COMMANDS))
def test_cli_on_fuzzed_dfa_files(x, y, argv):
    run_cli({"x": x, "y": y}, argv)


@given(CNF_TEXT, st.sampled_from(CNF_COMMANDS))
def test_cli_on_fuzzed_cnf_files(c, argv):
    run_cli({"c": c}, argv)


def each_break(valid, breaks):
    """The valid file with one line swapped for one broken variant, for
    every variant: the fuzz tests above draw any one of them only rarely."""
    return [
        pytest.param("\n".join(valid[:i] + [variant] + valid[i + 1:]), id=f"line{i}-{j}")
        for i, variants in enumerate(breaks)
        for j, variant in enumerate(variants)
    ]


@pytest.mark.parametrize("argv", DFA_COMMANDS)
@pytest.mark.parametrize("x", each_break(VALID_DFA, DFA_BREAKS))
def test_cli_on_each_broken_dfa_line(x, argv):
    run_cli({"x": x, "y": "\n".join(VALID_DFA)}, argv)


@pytest.mark.parametrize("text", each_break(VALID_DFA, DFA_BREAKS))
def test_parse_dfa_each_broken_line_matches_reference(text):
    assert parse_outcome(parse_dfa, text) == parse_outcome(parse_dfa_reference, text)


@pytest.mark.parametrize("argv", CNF_COMMANDS)
@pytest.mark.parametrize("c", each_break(VALID_CNF, CNF_BREAKS))
def test_cli_on_each_broken_cnf_line(c, argv):
    run_cli({"c": c}, argv)
