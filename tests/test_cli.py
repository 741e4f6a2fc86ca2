import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dfadist import cli, reduction
from dfadist.automata import Dfa, parse_dfa
from dfadist.cli import main


@pytest.fixture
def workdir(tmp_path, data_dir):
    for name in ("example_a.dfa", "example_b.dfa", "unit_pos.cnf", "contradiction.cnf"):
        shutil.copy(data_dir / name, tmp_path / name)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------
# word / check
# ---------------------------------------------------------------------

def test_word_prints_a7(workdir, capsys):
    code, out, _ = run(capsys, "word", workdir / "example_a.dfa", workdir / "example_b.dfa")
    assert code == 0
    assert out == "aaaaaaa\n"


def test_word_equal_languages_none(workdir, capsys):
    code, out, _ = run(capsys, "word", workdir / "example_a.dfa", workdir / "example_a.dfa")
    assert code == 1
    assert out == "none\n"


def test_check_equiv_same_file(workdir, capsys):
    code, out, _ = run(capsys, "check", "equiv", workdir / "example_a.dfa", workdir / "example_a.dfa")
    assert code == 0 and out == "true\n"


def test_check_equiv_differs(workdir, capsys):
    code, out, _ = run(capsys, "check", "equiv", workdir / "example_a.dfa", workdir / "example_b.dfa")
    assert code == 1 and out == "false\n"


def test_check_subset_exit_codes(workdir, capsys):
    code, out, _ = run(capsys, "check", "subset", workdir / "example_a.dfa", workdir / "example_a.dfa")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "check", "subset", workdir / "example_a.dfa", workdir / "example_b.dfa")
    assert code == 1 and out == "false\n"


def test_check_distinguishing(workdir, capsys):
    code, out, _ = run(
        capsys, "check", "distinguishing",
        workdir / "example_a.dfa", workdir / "example_a.dfa", workdir / "example_b.dfa",
    )
    assert code == 0 and out == "true\n"


@pytest.mark.parametrize(
    "kind, files, code, out",
    [
        ("subset", ("example_a", "example_a"), 0, "true\n"),
        ("subset", ("example_a", "example_b"), 1, "false\n"),
        ("subset", ("example_a", "other"), 2, ""),
        ("equiv", ("example_a", "example_a"), 0, "true\n"),
        ("equiv", ("example_a", "example_b"), 1, "false\n"),
        ("equiv", ("other", "example_a"), 2, ""),
        ("distinguishing", ("example_a", "example_a", "example_b"), 0, "true\n"),
        ("distinguishing", ("example_a", "example_a", "example_a"), 1, "false\n"),
        ("distinguishing", ("other", "example_a", "example_b"), 2, ""),
    ],
)
def test_check_kinds(workdir, capsys, kind, files, code, out):
    (workdir / "other.dfa").write_text(
        "dfa v1\nalphabet b\nstates 1\ninitial 0\naccepting\nrow 0 0\n"
    )
    got = run(capsys, "check", kind, *(workdir / f"{name}.dfa" for name in files))
    assert got[:2] == (code, out)
    if code == 2:
        assert got[2].startswith("error: alphabet mismatch")
        assert got[2].count("\n") == 1 and "Traceback" not in got[2]
    else:
        assert got[2] == ""


# ---------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------

def test_synth_example_pair(workdir, capsys):
    emitted = workdir / "dist.dfa"
    code, out, _ = run(
        capsys, "synth", workdir / "example_a.dfa", workdir / "example_b.dfa",
        "--max-k", "4", "--emit", emitted,
    )
    assert code == 0
    assert out == "k=2 orientation=1\n"
    dfa = parse_dfa(emitted.read_text())
    assert dfa.state_count == 2


def test_synth_identical_inputs_none(workdir, capsys):
    code, out, _ = run(
        capsys, "synth", workdir / "example_a.dfa", workdir / "example_a.dfa", "--max-k", "3"
    )
    assert code == 1 and out == "none\n"


def test_synth_equal_languages_huge_budget_returns_at_once(workdir, capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "synth", workdir / "example_a.dfa", workdir / "example_a.dfa",
        "--max-k", str(10**8),
    )
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == "none\n"


def test_synth_emit_failure_prints_no_result(workdir, capsys):
    # the file is written before the result line, so a failed write
    # leaves stdout empty and reports one error
    code, out, err = run(
        capsys, "synth", workdir / "example_a.dfa", workdir / "example_b.dfa",
        "--max-k", "2", "--emit", workdir / "missing" / "x.dfa",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_synth_requires_max_k(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", str(workdir / "example_a.dfa"), str(workdir / "example_b.dfa")])
    assert exc.value.code == 2


def test_synth_alphabet_mismatch_is_input_error(workdir, capsys):
    other = workdir / "other.dfa"
    other.write_text("dfa v1\nalphabet b\nstates 1\ninitial 0\naccepting\nrow 0 0\n")
    code, out, err = run(
        capsys, "synth", workdir / "example_a.dfa", other, "--max-k", "2"
    )
    assert code == 2
    assert out == ""
    assert "alphabet mismatch" in err


def test_synth_zero_budget_is_input_error(workdir, capsys):
    code, out, err = run(
        capsys, "synth", workdir / "example_a.dfa", workdir / "example_b.dfa", "--max-k", "0"
    )
    assert code == 2
    assert out == ""
    assert err == "error: state budget must be positive, got 0\n"


# ---------------------------------------------------------------------
# reduce / sat / verify-lemma
# ---------------------------------------------------------------------

def test_reduce_writes_pair_and_counts(workdir, capsys):
    up, low = workdir / "up.dfa", workdir / "low.dfa"
    code, out, _ = run(capsys, "reduce", workdir / "unit_pos.cnf", up, low)
    assert code == 0
    assert out == "upper states: 6\nlower states: 4\n"
    assert parse_dfa(low.read_text()).state_count == 4
    assert parse_dfa(up.read_text()).state_count == 6


@pytest.mark.parametrize("name", ["unit_pos", "contradiction", "tautology"])
def test_reduce_output_is_pinned(name, data_dir, tmp_path, capsys):
    # byte for byte the pair that the minimized-product construction
    # (support.upper_reference) wrote for these formulas
    up, low = tmp_path / "up.dfa", tmp_path / "low.dfa"
    code, _, _ = run(capsys, "reduce", data_dir / f"{name}.cnf", up, low)
    assert code == 0
    assert up.read_bytes() == (data_dir / f"{name}.upper.dfa").read_bytes()
    assert low.read_bytes() == (data_dir / f"{name}.lower.dfa").read_bytes()


def test_reduce_builds_the_lower_dfa_once(workdir, capsys, monkeypatch):
    calls = []
    build_lower = reduction.build_lower_dfa

    def counting_lower(k, n):
        calls.append((k, n))
        return build_lower(k, n)

    monkeypatch.setattr(reduction, "build_lower_dfa", counting_lower)
    monkeypatch.setattr(cli, "build_lower_dfa", counting_lower)
    code, _, _ = run(capsys, "reduce", workdir / "unit_pos.cnf", workdir / "u.dfa", workdir / "l.dfa")
    assert code == 0
    assert calls == [(1, 1)]


def test_reduce_rejects_empty_clause(workdir, capsys):
    bad = workdir / "bad.cnf"
    bad.write_text("p cnf 1 2\n1 0\n0\n")
    code, out, err = run(capsys, "reduce", bad, workdir / "u.dfa", workdir / "l.dfa")
    assert code == 2
    assert "empty" in err


def test_reduce_unreadable_path(workdir, capsys):
    code, _, err = run(capsys, "reduce", workdir / "missing.cnf", workdir / "u.dfa", workdir / "l.dfa")
    assert code == 2
    assert err.startswith("error:")


def test_reduce_leaves_no_half_pair(workdir, capsys):
    # the lower file cannot be written, so the upper one is removed again
    code, out, err = run(
        capsys, "reduce", workdir / "unit_pos.cnf", workdir / "u.dfa", workdir / "missing" / "l.dfa"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (workdir / "u.dfa").exists()


def test_sat_satisfiable_model_line(workdir, capsys):
    code, out, _ = run(capsys, "sat", workdir / "unit_pos.cnf")
    assert code == 0
    assert out == "s SATISFIABLE\nv 1 0\n"


def test_sat_unsatisfiable(workdir, capsys):
    code, out, _ = run(capsys, "sat", workdir / "contradiction.cnf")
    assert code == 1
    assert out == "s UNSATISFIABLE\n"


def test_verify_lemma_contradiction_consistent(workdir, capsys):
    code, out, _ = run(capsys, "verify-lemma", workdir / "contradiction.cnf")
    assert code == 0
    assert "verdict: CONSISTENT" in out
    assert "sat: no" in out


def test_verify_lemma_satisfiable_consistent(workdir, capsys):
    code, out, _ = run(capsys, "verify-lemma", workdir / "unit_pos.cnf")
    assert code == 0
    assert "sat: yes" in out
    assert "verdict: CONSISTENT" in out


# ---------------------------------------------------------------------
# minimize / dot
# ---------------------------------------------------------------------

def test_minimize_outputs_dfa_format(workdir, capsys):
    redundant = workdir / "redundant.dfa"
    redundant.write_text(
        "dfa v1\nalphabet a\nstates 3\ninitial 2\naccepting\nrow 0 0\nrow 1 1\nrow 2 2\n"
    )
    code, out, _ = run(capsys, "minimize", redundant)
    assert code == 0
    assert out == "dfa v1\nalphabet a\nstates 1\ninitial 0\naccepting\nrow 0 0\n"


def test_minimize_loosely_written_file_matches_canonical(workdir, capsys):
    # example_b.dfa with CRLF endings, tabs, comments, rows in reverse
    # order and the numerals +1, 01 and 02
    loose = workdir / "loose.dfa"
    loose.write_bytes(
        b"; example_b.dfa, written loosely\r\ndfa v1\r\nalphabet\ta\r\nstates 5\r\n"
        b"initial\t0\r\naccepting\t01 +1\t2 3 ; all but 0 and 4\r\n"
        b"row 4\t2\r\nrow\t3 4\r\nrow 2 3\r\nrow +1 02\r\nrow 0\t01\r\n"
    )
    assert run(capsys, "minimize", loose) == run(capsys, "minimize", workdir / "example_b.dfa")


@pytest.mark.parametrize("m", ["1000000000000", "100000000000000000000"])
def test_huge_declared_state_count_is_input_error(workdir, capsys, m):
    huge = workdir / "huge.dfa"
    huge.write_text(f"dfa v1\nalphabet a\nstates {m}\ninitial 0\naccepting\nrow 0 0\n")
    code, out, err = run(capsys, "minimize", huge)
    assert (code, out) == (2, "")
    assert err == "error: unexpected end of input, expected 'row <q> <1 targets>'\n"


def test_dot_output(workdir, capsys):
    code, out, _ = run(capsys, "dot", workdir / "example_a.dfa")
    assert code == 0
    assert out.startswith("digraph {\n  rankdir=LR;\n")
    assert "doublecircle" in out


# ---------------------------------------------------------------------
# determinism and error paths
# ---------------------------------------------------------------------

def test_outputs_are_byte_identical_across_runs(workdir, capsys):
    for argv in (
        ("word", workdir / "example_a.dfa", workdir / "example_b.dfa"),
        ("synth", workdir / "example_a.dfa", workdir / "example_b.dfa", "--max-k", "3"),
        ("dot", workdir / "example_b.dfa"),
        ("verify-lemma", workdir / "unit_pos.cnf"),
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_malformed_dfa_is_input_error(workdir, capsys):
    broken = workdir / "broken.dfa"
    broken.write_text("dfa v1\nalphabet a\nstates 3\ninitial 0\naccepting\nrow 0 7\n")
    code, _, err = run(capsys, "word", broken, workdir / "example_a.dfa")
    assert code == 2
    assert "line 6" in err


@pytest.mark.parametrize(
    "error, line",
    [
        (RecursionError("maximum recursion depth exceeded"), "error: maximum recursion depth exceeded"),
        (MemoryError(), "error: out of memory"),
        (KeyboardInterrupt(), "error: interrupted"),
    ],
)
def test_resource_exhaustion_exits_two(workdir, capsys, monkeypatch, error, line):
    def exhausted(args):
        raise error

    monkeypatch.setattr("dfadist.cli._cmd_word", exhausted)
    code, out, err = run(capsys, "word", workdir / "example_a.dfa", workdir / "example_b.dfa")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [line]
    assert "Traceback" not in err


def test_failed_recheck_exits_two(workdir, capsys, monkeypatch):
    # an all-false model falsifies unit_pos.cnf; verify_lemma's re-check
    # raises RuntimeError, which the CLI reports in one line
    monkeypatch.setattr(
        "dfadist.reduction.solve", lambda instance: (False,) * instance.var_count
    )
    code, out, err = run(capsys, "verify-lemma", workdir / "unit_pos.cnf")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: solver model failed the clause re-check")


def test_failed_synth_recheck_exits_two(workdir, capsys, monkeypatch):
    # synthesis raises RuntimeError when its candidate fails the re-check;
    # the CLI reports it in one line and prints no result
    monkeypatch.setattr("dfadist.distinguish.is_distinguishing", lambda dfa, a1, a2: False)
    code, out, err = run(
        capsys, "synth", workdir / "example_a.dfa", workdir / "example_b.dfa", "--max-k", "2"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: synthesized candidate failed the distinguishing re-check")


def test_failed_witness_recheck_exits_two(workdir, capsys, monkeypatch):
    # a witness accepting nothing distinguishes nothing; verify_lemma's
    # re-check raises instead of printing a CONSISTENT verdict
    empty = Dfa("01#", [(0, 0, 0)], 0, ())
    monkeypatch.setattr("dfadist.reduction.witness_dfa", lambda assignment: empty)
    code, out, err = run(capsys, "verify-lemma", workdir / "unit_pos.cnf")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: witness DFA from the solver model failed the distinguishing re-check")


def test_clause_count_mismatch_is_one_warning_line(workdir, capsys):
    short = workdir / "short.cnf"
    short.write_text("p cnf 2 3\n1 0\n-2 0\n")
    code, out, err = run(capsys, "sat", short)
    assert code == 0
    assert out == "s SATISFIABLE\nv 1 -2 0\n"
    assert err == "warning: header declares 3 clauses, found 2\n"


def test_negative_clause_count_is_one_error_line(workdir, capsys):
    bad = workdir / "negative.cnf"
    bad.write_text("p cnf 2 -1\n1 0\n")
    code, out, err = run(capsys, "sat", bad)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert "clause count" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("verify-lemma", "unit_pos.cnf"), 0),
        (("sat", "contradiction.cnf"), 1),
        (("verify-lemma", "missing.cnf"), 2),
    ],
)
def test_module_entry_point_exit_codes(data_dir, argv, expected):
    # the process path: `python -m dfadist.cli` ends in sys.exit(main())
    src = Path(__file__).parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "dfadist.cli", *argv],
        cwd=data_dir,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == expected
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") == (expected == 2)


# ---------------------------------------------------------------------
# the parser: built once, no state between calls, help screens
# ---------------------------------------------------------------------

def test_parser_built_once_per_process(workdir, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # an option call: positional-only calls are dispatched without a parser
    cli._parser.cache_clear()
    argv = ("synth", workdir / "example_a.dfa", workdir / "example_b.dfa", "--max-k", "2")
    assert run(capsys, *argv)[:2] == (0, "k=2 orientation=1\n")
    first = len(built)
    assert first > 0
    assert run(capsys, *argv)[:2] == (0, "k=2 orientation=1\n")
    assert len(built) == first


def test_no_state_carries_over_between_calls(workdir, capsys):
    emitted = workdir / "dist.dfa"
    synth = ("synth", workdir / "example_a.dfa", workdir / "example_b.dfa", "--max-k", "4")
    assert run(capsys, *synth, "--emit", emitted)[0] == 0
    emitted.unlink()
    assert run(capsys, *synth)[:2] == (0, "k=2 orientation=1\n")
    assert not emitted.exists()

    with pytest.raises(SystemExit) as exc:
        main(["word", str(workdir / "example_a.dfa")])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "word", workdir / "example_a.dfa", workdir / "example_b.dfa")
    assert (code, out) == (0, "aaaaaaa\n")


def help_screen(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_subcommand_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    commands = [
        ("reduce", "compile a DIMACS CNF into the upper/lower .dfa pair"),
        ("synth", "synthesize a minimal distinguishing DFA"),
        ("word", "shortest word accepted by exactly one of two DFAs"),
        ("check", "boolean language checks"),
        ("minimize", "print the minimal DFA in .dfa format"),
        ("dot", "print the DFA as a Graphviz digraph"),
        ("sat", "solve a DIMACS CNF"),
        ("verify-lemma", "check satisfiability against minimal distinguisher size"),
    ]
    out = help_screen(capsys)
    assert "{" + ",".join(name for name, _ in commands) + "}" in out
    listed = [line.split(None, 1) for line in out.splitlines() if line.startswith("    ")]
    assert listed == [[name, help_text] for name, help_text in commands]

    synth = help_screen(capsys, "synth")
    assert "--max-k" in synth and "--emit" in synth
    check = help_screen(capsys, "check")
    assert all(kind in check for kind in ("subset", "equiv", "distinguishing"))


# ---------------------------------------------------------------------
# positional calls: dispatched from the tables, argparse for the rest
# ---------------------------------------------------------------------

def table_calls():
    """(argv prefix, positional names, options) for every command and check kind."""
    for name, (_, positionals, options) in cli._COMMANDS.items():
        if name == "check":
            for kind, (_, names, _) in cli._CHECKS.items():
                yield (name, kind), names, options
        else:
            yield (name,), positionals, options


def argv_shapes(prefix, names, options):
    """The right call, and calls around it that argparse must be left to judge."""
    values = [f"{name}.in" for name in names]
    yield [*prefix, *values]
    yield [*prefix, *values[:-1]]
    yield [*prefix, *values, "extra.in"]
    yield [*prefix, "--", *values]
    yield [*prefix, *values, "-h"]
    yield [*prefix, "--help"]
    yield [prefix[0][:-1], *prefix[1:], *values]
    yield [*prefix[:-1], prefix[-1] + "x", *values]
    for i in range(len(values)):
        for token in ("-" + values[i], "--", "-1", ""):
            yield [*prefix, *values[:i], token, *values[i + 1:]]
    for flag, _ in options:
        yield [*prefix, *values, flag, "2"]
    yield [*prefix, *values, *(token for flag, _ in options for token in (flag, "2"))]


def parsed_or_none(argv):
    try:
        return vars(cli._parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize(
    "prefix, names, options", [pytest.param(*call, id=" ".join(call[0])) for call in table_calls()]
)
def test_positional_call_matches_argparse(prefix, names, options):
    right = [*prefix, *(f"{name}.in" for name in names)]
    taken = cli._positional_call(right)
    # a command that declares an option is left to argparse, even with none given
    assert (taken is None) == bool(options)
    for argv in argv_shapes(prefix, names, options):
        fast = cli._positional_call(list(argv))
        if fast is not None:
            assert vars(fast) == parsed_or_none(argv), argv


@pytest.mark.parametrize(
    "argv",
    [[], [""], ["frobnicate"], ["check"], ["check", ""], ["--", "word", "a", "b"], ["-h"], ["--help"]],
)
def test_positional_call_declines_what_argparse_decides(argv):
    assert cli._positional_call(argv) is None


def test_positional_calls_build_no_parser(workdir, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    pair = (workdir / "example_a.dfa", workdir / "example_b.dfa")
    assert run(capsys, "word", *pair)[:2] == (0, "aaaaaaa\n")
    assert run(capsys, "check", "subset", *pair)[:2] == (1, "false\n")
    assert run(capsys, "verify-lemma", workdir / "unit_pos.cnf")[0] == 0
    assert built == []

    synth = ("synth", *pair, "--max-k", "2")
    assert run(capsys, *synth)[:2] == (0, "k=2 orientation=1\n")
    assert built and cli._parser.cache_info().misses == 1
    first = len(built)
    assert run(capsys, *synth)[:2] == (0, "k=2 orientation=1\n")
    assert len(built) == first


# the bad input goes first, after the command; the messages are those of
# Path.read_text, which the CLI read its inputs with before
@pytest.mark.parametrize("argv", [("word", "example_b.dfa"), ("verify-lemma",)], ids=["word", "verify-lemma"])
@pytest.mark.parametrize(
    "name, message",
    [
        ("missing.in", "[Errno 2] No such file or directory: '{}'"),
        ("folder", "[Errno 21] Is a directory: '{}'"),
        ("latin1.in", "'utf-8' codec can't decode byte 0xe9 in position 1: invalid continuation byte"),
    ],
    ids=["missing", "directory", "invalid-utf8"],
)
def test_unreadable_input_is_one_error_line(workdir, capsys, argv, name, message):
    (workdir / "folder").mkdir()
    (workdir / "latin1.in").write_bytes(b"c\xe9\n")
    path = str(workdir / name)
    code, out, err = run(capsys, argv[0], path, *(workdir / a for a in argv[1:]))
    assert (code, out) == (2, "")
    assert err == "error: " + message.replace("{}", path) + "\n"


def test_input_path_is_opened_as_given(workdir, capsys):
    # no path normalization: a file named with a trailing slash is not read
    path = str(workdir / "example_a.dfa") + "/"
    code, out, err = run(capsys, "word", path, workdir / "example_b.dfa")
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 20] Not a directory: '{path}'\n"
