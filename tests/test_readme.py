"""The README's examples run and give the values the README states."""

from pathlib import Path

from dfadist.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_examples(capsys, data_dir):
    library = README.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(library, scope)
    stated = {
        "shortest_distinguishing_word(a, b)": "aaaaaaa",
        "evaluate(formula, solve(formula))": True,
        "out.bound, out.dfa.state_count": (2, 2),
        "report.satisfiable, report.min_distinguishing_k, report.consistent": (True, 4, True),
    }
    for expression, value in stated.items():
        assert expression in library and repr(value) in library
        assert eval(expression, scope) == value

    # the verify-lemma example's output, one "# " line each
    shown = README.split("dfadist verify-lemma formula.cnf\n", 1)[1].split("```", 1)[0]
    assert main(["verify-lemma", str(data_dir / "unit_pos.cnf")]) == 0
    assert capsys.readouterr().out.splitlines() == [line.removeprefix("# ") for line in shown.splitlines()]
