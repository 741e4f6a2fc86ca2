import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from dfadist.satsolve import (
    CnfInstance,
    DimacsParseError,
    evaluate,
    parse_dimacs,
    solve,
)

from support import truth_table_satisfiable


# ---------------------------------------------------------------------
# CnfInstance
# ---------------------------------------------------------------------

def test_instance_validates_literals():
    with pytest.raises(ValueError):
        CnfInstance(0, [])
    with pytest.raises(ValueError):
        CnfInstance(2, [(0,)])
    with pytest.raises(ValueError):
        CnfInstance(2, [(3,)])
    # exactly int: a float would fail inside solve as a list index, and
    # a bool would pass as 0 or 1
    for var_count, clauses in [(2.0, [(1,)]), (True, [(1,)]), (2, [(1.0,)]), (2, [(True,)])]:
        with pytest.raises(ValueError):
            CnfInstance(var_count, clauses)
    # clauses that are not iterables of literals: a ValueError, not the
    # bare TypeError of tuple()
    for clauses in [[1], None, [(1,), 3]]:
        with pytest.raises(ValueError, match="iterable"):
            CnfInstance(2, clauses)


def test_instance_allows_repeats_and_empty_clause():
    inst = CnfInstance(1, [(1,), (1,), ()])
    assert inst.clauses == ((1,), (1,), ())


# ---------------------------------------------------------------------
# DIMACS parsing
# ---------------------------------------------------------------------

def test_parse_single_variable_contradiction():
    inst = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert inst.var_count == 1
    assert inst.clauses == ((1,), (-1,))


def test_parse_two_clause_instance():
    inst = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    assert inst.clauses == ((1, 2), (-1,))


def test_parse_clause_spanning_lines_and_comments():
    inst = parse_dimacs("c header comment\np cnf 3 1\n1 2\n3 0\n")
    assert inst.clauses == ((1, 2, 3),)


def test_parse_unterminated_final_clause_accepted():
    inst = parse_dimacs("p cnf 2 2\n1 0\n-1 -2\n")
    assert inst.clauses == ((1,), (-1, -2))


def test_parse_clause_count_mismatch_warns():
    with pytest.warns(UserWarning):
        parse_dimacs("p cnf 1 5\n1 0\n")


@pytest.mark.parametrize(
    "text",
    [
        "p dnf 1 1\n1 0\n",
        "1 0\n",
        "p cnf 1 1\n2 0\n",
        "p cnf 0 0\n",
        "p cnf 1 1\nx 0\n",
        "p cnf 1 1\np cnf 1 1\n1 0\n",
        "p cnf 2 -1\n1 0\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(DimacsParseError):
        parse_dimacs(text)


# ---------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------

def test_solve_contradiction_unsat():
    assert solve(CnfInstance(1, [(1,), (-1,)])) is None


def test_solve_unit_propagation_forces_model():
    assert solve(CnfInstance(2, [(1, 2), (-1,)])) == (False, True)


def test_solve_empty_clause_unsat():
    assert solve(CnfInstance(1, [()])) is None


def test_solve_no_clauses_defaults_false():
    # branching tries false first, so untouched variables end up false
    assert solve(CnfInstance(3, [])) == (False, False, False)


def test_solve_tautological_clause():
    assert solve(CnfInstance(1, [(1, -1)])) == (False,)


def test_solve_is_deterministic():
    inst = CnfInstance(4, [(1, 2, 3), (-2, 4), (-1, -3), (2, 3, -4)])
    assert solve(inst) == solve(inst)


def test_solve_agrees_with_truth_tables_random_3cnf(rng):
    for _ in range(40):
        n = rng.randint(1, 10)
        clauses = [
            tuple(
                rng.choice((-1, 1)) * rng.randint(1, n)
                for _ in range(rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 4 * n))
        ]
        inst = CnfInstance(n, clauses)
        model = solve(inst)
        assert (model is not None) == truth_table_satisfiable(n, clauses)
        if model is not None:
            assert evaluate(inst, model)


@given(st.data())
def test_solve_agrees_with_truth_tables(data):
    n = data.draw(st.integers(1, 6))
    literals = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = data.draw(
        st.lists(st.lists(literals, min_size=0, max_size=4).map(tuple), max_size=8).map(tuple)
    )
    inst = CnfInstance(n, clauses)
    model = solve(inst)
    assert (model is not None) == truth_table_satisfiable(n, clauses)
    if model is not None:
        assert evaluate(inst, model)


def test_solve_pigeonhole_unsat():
    # three pigeons, two holes: classic small unsatisfiable instance
    def var(p, h):
        return p * 2 + h + 1

    clauses = [tuple(var(p, h) for h in range(2)) for p in range(3)]
    for h in range(2):
        for p1, p2 in itertools.combinations(range(3), 2):
            clauses.append((-var(p1, h), -var(p2, h)))
    assert solve(CnfInstance(6, clauses)) is None


def random_instance(rng):
    """1-12 variables and up to 5n clauses of width 1-4, now and then
    empty; literals are drawn with replacement, so clauses repeat
    literals and hold complementary pairs."""
    n = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 5 * n)):
        width = rng.choice((1, 2, 3, 3, 3, 4)) if rng.random() < 0.99 else 0
        clauses.append(tuple(rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(width)))
    return CnfInstance(n, clauses)


def test_solve_models_are_pinned():
    # a change to the search's internals must keep its answers: the same
    # model (or None) on every instance of a seeded battery
    rng = random.Random(17)
    digest = hashlib.sha256()
    unsat = 0
    for _ in range(3000):
        model = solve(random_instance(rng))
        digest.update(repr(model).encode())
        unsat += model is None
    assert (digest.hexdigest()[:16], unsat) == ("975e767d5b70a801", 1368)


def timed_solve(instance):
    start = time.perf_counter()
    model = solve(instance)
    return model, time.perf_counter() - start


def test_solve_implication_chain_is_linear():
    # 1 and i -> i+1 force every variable true through one propagation
    # pass; a clause scan per assignment would take minutes
    n = 100_000
    chain = CnfInstance(n, [(1,)] + [(-i, i + 1) for i in range(1, n)])
    model, seconds = timed_solve(chain)
    assert model == (True,) * n
    assert seconds < 2


def test_solve_unconstrained_variables_are_linear():
    # n decisions with nothing to propagate; a rescan from variable 1
    # per decision would take minutes
    n = 100_000
    model, seconds = timed_solve(CnfInstance(n, []))
    assert model == (False,) * n
    assert seconds < 2


def test_solve_one_long_clause_is_linear():
    # false-first decisions falsify the watches of x1 ∨ … ∨ xn one by one,
    # and each search for a new watch resumes where the last one stopped;
    # restarting at slot 2 passes every false literal again (quadratic:
    # about 4.5 s at n = 10,000)
    n = 20_000
    model, seconds = timed_solve(CnfInstance(n, [tuple(range(1, n + 1))]))
    assert model == (False,) * (n - 1) + (True,)
    assert seconds < 2
