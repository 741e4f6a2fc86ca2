import shutil

import pytest

from dfadist.automata import parse_dfa
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


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
