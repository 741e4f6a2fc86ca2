"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The formula battery (every formula with at most two variables
and two clauses, plus five curated three-variable cases) is evaluated
once and shared across criteria.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from dfadist.automata import Dfa, is_equivalent, is_subset
from dfadist.distinguish import (
    is_distinguishing,
    shortest_distinguishing_word,
    synth_min_distinguishing,
)
from dfadist.reduction import (
    CnfFormula,
    LemmaReport,
    build_lower_dfa,
    build_upper_dfa,
    verify_lemma,
    witness_dfa,
)
from dfadist.satsolve import CnfInstance, evaluate, solve

from support import (
    all_words,
    battery_formulas,
    brute_force_min_distinguishing,
    complement,
    in_lower_language,
    in_upper_language,
    nerode_class_count_oracle,
    product,
    random_dfa,
    truth_table_satisfiable,
)

EXAMPLE_A = Dfa("a", [(1,), (2,), (3,), (0,)], 0, {1, 2, 3})
EXAMPLE_B = Dfa("a", [(1,), (2,), (3,), (4,), (2,)], 0, {1, 2, 3})


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {summary}")
        raise
    print(f"[criterion {number}] PASS - {summary}")


@dataclass
class BatteryEntry:
    formula: CnfFormula
    upper: Dfa
    lower: Dfa
    report: LemmaReport


@dataclass
class Battery:
    entries: list
    synth_seconds: float


@pytest.fixture(scope="module")
def battery() -> Battery:
    entries = []
    started = time.perf_counter()
    for formula in battery_formulas():
        report = verify_lemma(formula)
        lower = build_lower_dfa(formula.var_count, formula.clause_count)
        entries.append(
            BatteryEntry(
                formula=formula,
                upper=build_upper_dfa(formula),
                lower=lower,
                report=report,
            )
        )
    elapsed = time.perf_counter() - started
    return Battery(entries=entries, synth_seconds=elapsed)


def test_criterion_1_shortest_distinguishing_word():
    with criterion(1, "shortest distinguishing word of the example pair is a^7"):
        started = time.perf_counter()
        word = shortest_distinguishing_word(EXAMPLE_A, EXAMPLE_B)
        elapsed = time.perf_counter() - started
        assert word == "a" * 7
        assert len(word) == 7
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_two_state_distinguisher():
    with criterion(2, "two-state distinguisher synthesized, one state refuted"):
        started = time.perf_counter()
        outcome = synth_min_distinguishing(EXAMPLE_A, EXAMPLE_B, 8)
        assert outcome.found and outcome.bound == 2
        assert is_distinguishing(outcome.dfa, EXAMPLE_A, EXAMPLE_B)
        assert not brute_force_min_distinguishing(EXAMPLE_A, EXAMPLE_B, 1).found
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_satisfiable_side(battery):
    with criterion(3, "satisfiable side: witness size k+2 and synthesis within k+2"):
        sat_entries = [e for e in battery.entries if e.report.satisfiable]
        assert sat_entries, "battery must contain satisfiable formulas"
        for entry in sat_entries:
            k = entry.formula.var_count
            report = entry.report
            assert evaluate(entry.formula, report.model)
            witness = witness_dfa(report.model[:k])
            assert is_distinguishing(witness, entry.upper, entry.lower), entry.formula
            assert witness.state_count == k + 2
            assert report.synth.found, entry.formula
            assert report.synth.bound <= k + 2
            assert is_distinguishing(report.synth.dfa, entry.upper, entry.lower)
        assert battery.synth_seconds < 60.0, f"battery took {battery.synth_seconds:.1f}s"


def test_criterion_4_unsatisfiable_side(battery):
    with criterion(4, "unsatisfiable side: no distinguisher within k+2, all consistent"):
        unsat_entries = [e for e in battery.entries if not e.report.satisfiable]
        assert unsat_entries, "battery must contain unsatisfiable formulas"
        for entry in unsat_entries:
            assert not entry.report.synth.found, entry.formula
            bound = entry.formula.var_count + 2
            if bound <= 3:
                oracle = brute_force_min_distinguishing(entry.upper, entry.lower, bound)
                assert not oracle.found, entry.formula
        assert all(e.report.consistent for e in battery.entries)
        # four variables, past the battery: the contradiction took 238 s
        # before the search cut branches short of fresh states
        for formula in [CnfFormula(4, [(1,), (-1,)])] + unsatisfiable_four_variable_formulas(8):
            started = time.perf_counter()
            report = verify_lemma(formula)
            elapsed = time.perf_counter() - started
            assert report.consistent and report.min_distinguishing_k is None, formula
            assert elapsed < 1.0, f"{formula} took {elapsed:.2f}s"


def unsatisfiable_four_variable_formulas(count: int) -> list:
    """Seeded random unsatisfiable formulas over four variables, each of
    4-8 clauses of one or two literals."""
    rng = random.Random(4)
    formulas = []
    while len(formulas) < count:
        clauses = [
            [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(4, 8))
        ]
        if not truth_table_satisfiable(4, clauses):
            formulas.append(CnfFormula(4, clauses))
    return formulas


def test_criterion_5_builders_match_scans(battery):
    with criterion(5, "builders agree with scan predicates on all short words"):
        words_for_k = {}
        for k in {e.formula.var_count for e in battery.entries}:
            words_for_k[k] = list(all_words("01#", 2 * (k + 1) + 2))
        checked_lower = set()
        mismatches = 0
        for entry in battery.entries:
            k, n = entry.formula.var_count, entry.formula.clause_count
            words = words_for_k[k]
            upper_accepts = entry.upper.accepts
            for word in words:
                if upper_accepts(word) != in_upper_language(word, entry.formula):
                    mismatches += 1
            if (k, n) not in checked_lower:
                checked_lower.add((k, n))
                lower_accepts = entry.lower.accepts
                for word in words:
                    if lower_accepts(word) != in_lower_language(word, k, n):
                        mismatches += 1
        assert mismatches == 0


def test_criterion_6_polynomial_size_bounds(battery):
    with criterion(6, "builder state counts within the closed-form bounds"):
        for entry in battery.entries:
            k, n = entry.formula.var_count, entry.formula.clause_count
            assert entry.lower.state_count <= n * (k + 1) + 2, entry.formula
            assert entry.upper.state_count <= 2 * n * (k + 1) + 3, entry.formula


def test_criterion_7_core_algebra_properties(rng):
    with criterion(7, "core algebra properties hold on randomized instances"):
        ops = {
            "and": lambda x, y: x and y,
            "or": lambda x, y: x or y,
            "xor": lambda x, y: x != y,
            "and-not": lambda x, y: x and not y,
        }
        # minimization: idempotent, language preserving, class counting stable
        for _ in range(40):
            d = random_dfa(rng, rng.randint(1, 8), rng.choice(["a", "ab", "01#"]))
            m = d.minimize()
            assert is_equivalent(d, m)
            assert m.minimize() == m
            assert m.state_count == d.minimize().state_count

        # pointwise product/complement agreement on sampled word pairs
        comparisons = 0
        for _ in range(30):
            alphabet = rng.choice(["ab", "01#"])
            a = random_dfa(rng, rng.randint(1, 6), alphabet)
            b = random_dfa(rng, rng.randint(1, 6), alphabet)
            combos = {name: product(a, b, op) for name, op in ops.items()}
            flipped = complement(a)
            for _ in range(90):
                word = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(0, 12))
                )
                va, vb = a.accepts(word), b.accepts(word)
                for name, op in ops.items():
                    assert combos[name].accepts(word) == op(va, vb)
                    comparisons += 1
                assert flipped.accepts(word) == (not va)
                comparisons += 1
        assert comparisons >= 10_000

        # inclusion against exhaustive word enumeration; the |a|*|b| word
        # bound decides inclusion outright, so agreement is conclusive
        for _ in range(12):
            alphabet = rng.choice(["ab", "01#"])
            cap = 14 if len(alphabet) == 2 else 9
            while True:
                a = random_dfa(rng, rng.randint(1, 4), alphabet)
                b = random_dfa(rng, rng.randint(1, 4), alphabet)
                if a.state_count * b.state_count <= cap:
                    break
            limit = a.state_count * b.state_count
            expected = all(
                b.accepts(w) for w in all_words(alphabet, limit) if a.accepts(w)
            )
            assert is_subset(a, b) == expected

        # residual-table class counting
        for _ in range(6):
            d = random_dfa(rng, 8)
            assert d.minimize().state_count == nerode_class_count_oracle(d)


def test_criterion_8_sat_engine_agreement(battery, rng):
    with criterion(8, "solver agrees with truth tables on battery and random 3-CNF"):
        disagreements = 0
        for entry in battery.entries:
            instance = entry.formula
            model = solve(instance)
            expected = truth_table_satisfiable(instance.var_count, instance.clauses)
            if (model is not None) != expected:
                disagreements += 1
            if model is not None and not evaluate(instance, model):
                disagreements += 1
        for _ in range(200):
            n = rng.randint(3, 12)
            clauses = tuple(
                tuple(
                    rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(3)
                )
                for _ in range(rng.randint(1, int(4.5 * n)))
            )
            instance = CnfInstance(n, clauses)
            model = solve(instance)
            expected = truth_table_satisfiable(n, clauses)
            if (model is not None) != expected:
                disagreements += 1
            if model is not None and not evaluate(instance, model):
                disagreements += 1
        assert disagreements == 0
