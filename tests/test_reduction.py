import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from dfadist import automata, reduction
from dfadist.automata import Dfa, is_equivalent, is_subset
from dfadist.distinguish import (
    is_distinguishing,
    shortest_distinguishing_word,
    synth_min_distinguishing,
)
from dfadist.reduction import (
    CnfFormula,
    FormulaError,
    assignment_word,
    build_lower_dfa,
    build_upper_dfa,
    verify_lemma,
    witness_dfa,
)
from dfadist.satsolve import CnfInstance, evaluate, solve

from support import (
    all_words,
    assert_checked_copy,
    battery_formulas,
    brute_force_min_distinguishing,
    in_lower_language,
    in_upper_language,
    lower_grid_reference,
    truth_table_satisfiable,
    upper_reference,
)


# ---------------------------------------------------------------------
# CnfFormula
# ---------------------------------------------------------------------

def test_formula_rejects_empty_clause():
    with pytest.raises(FormulaError, match="empty"):
        CnfFormula(1, [(1,), ()])


def test_formula_rejects_bad_literals():
    with pytest.raises(FormulaError):
        CnfFormula(1, [(2,)])
    with pytest.raises(FormulaError):
        CnfFormula(1, [(0,)])
    with pytest.raises(FormulaError):
        CnfFormula(0, [(1,)])
    with pytest.raises(FormulaError):
        CnfFormula(1, [])
    # exactly int, as CnfInstance: True would pass as the literal 1
    for var_count, clauses in [(1, [(True,)]), (2, [(1.0,)]), (2.0, [(1,)]), (True, [(1,)])]:
        with pytest.raises(FormulaError):
            CnfFormula(var_count, clauses)
    # the instance's checks are the formula's: each input fails both
    # constructors with one message, a ValueError and a FormulaError
    invalid = [
        (1, [(2,)]), (1, [(0,)]), (0, [(1,)]), (1, [(1,), (True,)]), (2, [(1.0,)]),
        (2.0, [(1,)]), (True, [(1,)]), (2, [1]), (2, None), (2, [(1,), 3]),
    ]
    for var_count, clauses in invalid:
        with pytest.raises(ValueError) as instance_err:
            CnfInstance(var_count, clauses)
        assert type(instance_err.value) is ValueError
        with pytest.raises(FormulaError) as formula_err:
            CnfFormula(var_count, clauses)
        assert str(formula_err.value) == str(instance_err.value)
    with pytest.raises(FormulaError, match="clause 2: literal 5 outside 1..3"):
        CnfFormula(3, [(1,), (2, 5)])
    # so a formula is an instance, and goes straight to the solver
    formula = CnfFormula(2, [(1, 2), (-1,)])
    assert isinstance(formula, CnfInstance) and issubclass(FormulaError, ValueError)
    model = solve(formula)
    assert model == (False, True)
    assert evaluate(formula, model)


# ---------------------------------------------------------------------
# assignment words
# ---------------------------------------------------------------------

def test_assignment_word_single_true():
    assert assignment_word([True]) == "1"


def test_assignment_word_mixed():
    assert assignment_word([False, True, False]) == "010"


@pytest.mark.parametrize("k", range(1, 9))
def test_assignment_word_round_trip_exhaustive(k):
    for bits in itertools.product((False, True), repeat=k):
        assert tuple(c == "1" for c in assignment_word(bits)) == bits


# ---------------------------------------------------------------------
# scan-based membership
# ---------------------------------------------------------------------

def test_lower_scan_one_block():
    assert in_lower_language("1#", 1, 1)


def test_lower_scan_rejects_extra_block():
    assert not in_lower_language("1#1#", 1, 1)


def test_lower_scan_rejects_unterminated_block():
    assert not in_lower_language("1", 1, 1)


def test_lower_scan_accepts_empty_word():
    assert in_lower_language("", 1, 1)
    assert in_lower_language("", 3, 2)


def test_upper_scan_satisfying_block_with_suffix():
    phi = CnfFormula(1, [(1,)])
    assert in_upper_language("1#00", phi)


def test_upper_scan_falsifying_block_with_suffix():
    phi = CnfFormula(1, [(1,)])
    assert not in_upper_language("0#00", phi)


def test_upper_scan_lower_word_included():
    phi = CnfFormula(1, [(1,)])
    assert in_upper_language("0#", phi)


def test_upper_scan_blocks_must_satisfy_their_own_clause():
    phi = CnfFormula(1, [(1,), (-1,)])
    assert in_upper_language("1#0#1", phi)
    assert not in_upper_language("1#1#1", phi)
    assert not in_upper_language("0#0#1", phi)


# ---------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------

def test_lower_dfa_smallest_case():
    lower = build_lower_dfa(1, 1)
    assert lower.state_count == 4
    accepted = [w for w in all_words("01#", 6) if lower.accepts(w)]
    assert accepted == ["", "0#", "1#"]


def test_lower_dfa_accepts_empty_word_for_all_sizes():
    for k in (1, 2, 3):
        for n in (1, 2):
            assert build_lower_dfa(k, n).accepts("")


def test_lower_dfa_agrees_with_scan():
    lower = build_lower_dfa(2, 2)
    for word in all_words("01#", 8):
        assert lower.accepts(word) == in_lower_language(word, 2, 2)


def test_lower_dfa_rejects_bad_parameters():
    with pytest.raises(FormulaError):
        build_lower_dfa(0, 1)
    with pytest.raises(FormulaError):
        build_lower_dfa(1, 0)


def test_upper_dfa_agrees_with_scan_for_unit_clause():
    phi = CnfFormula(1, [(1,)])
    upper = build_upper_dfa(phi)
    assert upper.accepts("1#00")
    assert not upper.accepts("0#00")
    assert upper.accepts("0#")
    for word in all_words("01#", 8):
        assert upper.accepts(word) == in_upper_language(word, phi)


def test_upper_dfa_agrees_with_scan_for_tautology_and_repeats():
    # duplicate literals and a tautological clause are legal inputs
    for phi in (CnfFormula(2, [(1, 1, 2)]), CnfFormula(2, [(1, -1), (2,)])):
        upper = build_upper_dfa(phi)
        for word in all_words("01#", 7):
            assert upper.accepts(word) == in_upper_language(word, phi)


def test_lower_language_inside_upper():
    for clauses in [[(1,)], [(1, -2), (2,)], [(-1,), (-1,)]]:
        phi = CnfFormula(2, clauses)
        lower = build_lower_dfa(2, len(clauses))
        assert is_subset(lower, build_upper_dfa(phi))


def test_upper_strictly_larger_for_satisfiable_clauses():
    phi = CnfFormula(1, [(1,)])
    lower = build_lower_dfa(1, 1)
    upper = build_upper_dfa(phi)
    assert not is_equivalent(upper, lower)
    witness = shortest_distinguishing_word(upper, lower)
    assert witness is not None
    assert upper.accepts(witness) and not lower.accepts(witness)


def test_builders_return_minimized_automata():
    phi = CnfFormula(2, [(1,), (-2,)])
    lower = build_lower_dfa(2, 2)
    upper = build_upper_dfa(phi)
    assert upper.minimize() == upper
    assert lower.minimize() == lower


def test_lower_dfa_is_built_minimal():
    # the grid numbered in BFS order is what refining the plain grid
    # returns, and a copy without the minimal flag refines to itself
    for k in range(1, 9):
        for n in range(1, 9):
            lower = build_lower_dfa(k, n)
            assert lower == lower_grid_reference(k, n).minimize()
            assert lower.state_count == n * (k + 1) + 2
            assert lower.minimize() is lower
            copy = Dfa(lower.alphabet, lower.delta, lower.initial, lower.accepting)
            assert copy.minimize() == lower


def seeded_formulas(seed: int, count: int) -> list[CnfFormula]:
    """Random formulas with k <= 5 and n <= 4; clauses may repeat a literal,
    hold both literals of a variable, or repeat an earlier clause."""
    rng = random.Random(seed)
    formulas = []
    for _ in range(count):
        k, n = rng.randint(1, 5), rng.randint(1, 4)
        clauses = []
        for _ in range(n):
            if clauses and rng.random() < 0.2:
                clauses.append(rng.choice(clauses))
                continue
            literals = [rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(1, k + 1))]
            if rng.random() < 0.2:
                x = rng.randint(1, k)
                literals += [x, -x]
            clauses.append(tuple(literals))
        formulas.append(CnfFormula(k, clauses))
    return formulas


def test_upper_dfa_is_built_minimal():
    # the classes built directly are what minimizing the union of the
    # satisfying-prefix automaton with the lower DFA returns, numbering
    # included, and a copy without the minimal flag refines to itself
    for formula in battery_formulas() + seeded_formulas(24, 600):
        lower = build_lower_dfa(formula.var_count, formula.clause_count)
        upper = build_upper_dfa(formula)
        assert upper == upper_reference(formula, lower), formula
        assert upper.minimize() is upper
        copy = Dfa(upper.alphabet, upper.delta, upper.initial, upper.accepting)
        assert copy.minimize() == upper


# ---------------------------------------------------------------------
# witness automaton
# ---------------------------------------------------------------------

def test_witness_single_true_bit():
    wit = witness_dfa([True])
    assert wit.state_count == 3
    assert wit.accepts("") and wit.accepts("1#") and wit.accepts("1#1#")
    assert not wit.accepts("0#")


def test_witness_language_is_exactly_the_repeated_block():
    wit = witness_dfa([False, True])
    block = "01#"
    expected = {block * i for i in range(3)}
    accepted = {w for w in all_words("01#", 8) if wit.accepts(w)}
    assert accepted == expected


def test_witness_distinguishes_for_satisfiable_formula():
    phi = CnfFormula(1, [(1,)])
    wit = witness_dfa([True])
    lower = build_lower_dfa(1, 1)
    assert is_distinguishing(wit, build_upper_dfa(phi), lower)


@pytest.mark.parametrize("k", range(1, 6))
def test_witness_class_count_is_k_plus_two(k):
    bits = [(i * 7 + 3) % 2 == 0 for i in range(k)]
    wit = witness_dfa(bits)
    assert wit.state_count == k + 2
    assert wit.minimize().state_count == k + 2


# ---------------------------------------------------------------------
# end-to-end correspondence
# ---------------------------------------------------------------------

def test_verify_lemma_satisfiable_unit():
    report = verify_lemma(CnfFormula(1, [(1,)]))
    assert report.satisfiable
    assert report.synth.found
    assert report.min_distinguishing_k <= 3
    assert report.bound == 3
    assert report.consistent
    lower = build_lower_dfa(1, 1)
    upper = build_upper_dfa(report.formula)
    assert is_distinguishing(witness_dfa(report.model[:1]), upper, lower)
    assert evaluate(report.formula, report.model)


def test_verify_lemma_contradiction():
    report = verify_lemma(CnfFormula(1, [(1,), (-1,)]))
    assert not report.satisfiable
    assert not report.synth.found
    assert report.consistent
    assert report.model is None
    # independent confirmation that nothing small distinguishes the pair
    lower = build_lower_dfa(1, 2)
    upper = build_upper_dfa(report.formula)
    assert not brute_force_min_distinguishing(upper, lower, 3).found


def test_verify_lemma_rechecks_the_solver_model(monkeypatch):
    # a model that falsifies the formula must not be reported as "sat"
    formula = CnfFormula(1, [(1,)])
    monkeypatch.setattr(
        "dfadist.reduction.solve",
        lambda instance: (False,) if instance == formula else None,
    )
    with pytest.raises(RuntimeError, match="re-check"):
        verify_lemma(formula)


def test_verify_lemma_rechecks_the_witness(monkeypatch):
    # a witness that fails to distinguish the pair is an error, not a
    # report that still reads CONSISTENT
    empty = Dfa("01#", [(0, 0, 0)], 0, ())
    monkeypatch.setattr(reduction, "witness_dfa", lambda assignment: empty)
    with pytest.raises(RuntimeError, match="failed the distinguishing re-check"):
        verify_lemma(CnfFormula(1, [(1,)]))


def test_verify_lemma_builds_and_minimizes_each_automaton_once(monkeypatch):
    calls = {"lower": 0, "hopcroft": 0}
    build_lower, hopcroft = reduction.build_lower_dfa, automata._hopcroft

    def counting_lower(k, n):
        calls["lower"] += 1
        return build_lower(k, n)

    def counting_hopcroft(dfa, reachable):
        calls["hopcroft"] += 1
        return hopcroft(dfa, reachable)

    monkeypatch.setattr(reduction, "build_lower_dfa", counting_lower)
    monkeypatch.setattr(automata, "_hopcroft", counting_hopcroft)
    # refuted: both DFAs are built minimal, and synthesis takes them as
    # they are, so nothing is refined
    verify_lemma(CnfFormula(1, [(1,), (-1,)]))
    assert calls == {"lower": 1, "hopcroft": 0}
    # found: the candidate is a loop, built minimal, so nothing is
    # refined either
    verify_lemma(CnfFormula(1, [(1,)]))
    assert calls == {"lower": 2, "hopcroft": 0}


def test_verify_lemma_checks_each_distinct_distinguisher_once(monkeypatch):
    # synthesis checks its DFA; the solver's witness is the same DFA on
    # every satisfiable battery formula, so it is not checked again
    calls = []

    def counting(dfa, a1, a2):
        calls.append(dfa)
        return is_distinguishing(dfa, a1, a2)

    monkeypatch.setattr("dfadist.distinguish.is_distinguishing", counting)
    monkeypatch.setattr(reduction, "is_distinguishing", counting)
    satisfiable = 0
    for formula in battery_formulas():
        calls.clear()
        report = verify_lemma(formula)
        if report.model is None:
            assert calls == []
            continue
        satisfiable += 1
        assert witness_dfa(report.model[: formula.var_count]) == report.synth.dfa
        assert calls == [report.synth.dfa]
    assert satisfiable == 77


def test_reduction_and_synthesis_dfas_pass_the_public_constructor():
    # _canonical_dfa and minimize set their output's fields without the
    # constructor's row check; each DFA they return must pass it unchanged
    for formula in battery_formulas():
        k, n = formula.var_count, formula.clause_count
        report = verify_lemma(formula)
        dfas = [build_lower_dfa(k, n), build_upper_dfa(formula)]
        if report.synth.found:
            dfas.append(report.synth.dfa)
        if report.model is not None:
            dfas.append(witness_dfa(report.model[:k]))
        for dfa in dfas:
            assert_checked_copy(dfa)


def test_verify_lemma_two_variable_case():
    report = verify_lemma(CnfFormula(2, [(1, 2), (-1, -2)]))
    assert report.satisfiable
    assert report.synth.found
    assert report.min_distinguishing_k <= 4
    assert report.consistent


def test_report_render_format_satisfiable():
    report = verify_lemma(CnfFormula(1, [(1,)]))
    lines = report.render().splitlines()
    assert lines[0] == "sat: yes"
    assert lines[1].startswith("min_distinguishing_k: ")
    assert lines[2] == "bound: k+2 = 3"
    assert lines[3] == "verdict: CONSISTENT"


def test_report_render_format_unsatisfiable():
    report = verify_lemma(CnfFormula(1, [(1,), (-1,)]))
    assert report.render() == (
        "sat: no\nmin_distinguishing_k: none\nbound: k+2 = 3\nverdict: CONSISTENT\n"
    )


# ---------------------------------------------------------------------
# the k+2 lower bound: verify_lemma searches budget k+2 alone
# ---------------------------------------------------------------------

def reduction_pair(formula):
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    return build_upper_dfa(formula), lower


def test_verify_lemma_matches_the_full_range_search():
    # skipping budgets 1..k+1 changes no answer: same DFA, orientation,
    # bound; the battery takes 59 nodes instead of the full range's 347
    nodes = 0
    for formula in battery_formulas():
        upper, lower = reduction_pair(formula)
        synth = verify_lemma(formula).synth
        assert synth == synth_min_distinguishing(upper, lower, formula.var_count + 2)
        nodes += synth.nodes
    assert nodes == 59


def test_brute_force_refutes_budget_k_plus_one():
    # the exhaustive oracle finds no distinguisher below k+2 on the
    # one-variable battery formulas and on two two-variable ones (all
    # 72 two-variable formulas would take about 45 s)
    formulas = [f for f in battery_formulas() if f.var_count == 1]
    formulas += [CnfFormula(2, [(1, 2), (-1, -2)]), CnfFormula(2, [(-2,)])]
    for formula in formulas:
        upper, lower = reduction_pair(formula)
        assert not brute_force_min_distinguishing(upper, lower, formula.var_count + 1).found


def random_formulas(max_vars=3, max_clauses=2):
    def over(k):
        literal = st.builds(lambda v, sign: v * sign, st.integers(1, k), st.sampled_from((1, -1)))
        clauses = st.lists(st.lists(literal, min_size=1, max_size=k), min_size=1, max_size=max_clauses)
        return clauses.map(lambda cs: CnfFormula(k, cs))

    return st.integers(1, max_vars).flatmap(over)


@given(random_formulas())
def test_found_distinguishers_have_exactly_k_plus_two_states(formula):
    # the full-range search, which refutes every budget below k+2 itself
    upper, lower = reduction_pair(formula)
    k = formula.var_count
    outcome = synth_min_distinguishing(upper, lower, k + 2)
    assert outcome.found == truth_table_satisfiable(k, formula.clauses)
    if outcome.found:
        assert outcome.bound == outcome.dfa.state_count == k + 2


@pytest.mark.parametrize(
    "formula, expected",
    [
        (CnfFormula(5, [(5,)]), 7),
        (CnfFormula(8, [(1, -2, 3), (-4, 5, 8), (-1, 6, -7)]), 10),
        # satisfied only by all ones, the lexicographically last loop
        (CnfFormula(13, [(v,) for v in range(1, 14)]), 15),
        (CnfFormula(14, [(v,) for v in range(1, 15)]), 16),
    ],
)
def test_verify_lemma_large_satisfiable_formula_takes_no_search(formula, expected):
    # verify_lemma searches budget k+2 alone; from budget 1, 5-var [(5,)]
    # takes about 1 ms over 9 nodes, but the battery takes about five times
    # as long (347 nodes against 59). The loop pre-pass once walked all
    # 3^14 words of 14 letters on x1 ∧ … ∧ x13 (2-4 s)
    started = time.perf_counter()
    report = verify_lemma(formula)
    elapsed = time.perf_counter() - started
    assert report.consistent and report.min_distinguishing_k == expected
    assert report.synth.nodes == 0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
