import itertools
import random
import tracemalloc

import pytest

from dfadist.automata import AlphabetError, Dfa, is_equivalent, is_subset
from dfadist.distinguish import (
    Orientation,
    SynthOutcome,
    _PairSpace,
    _search_feasible,
    brute_force_min_distinguishing,
    is_distinguishing,
    shortest_distinguishing_word,
    synth_min_distinguishing,
)
from dfadist.reduction import CnfFormula, build_lower_dfa, build_upper_dfa

from support import all_words, random_dfa


def inequivalent_pair(rng, max_states=4, alphabet="ab"):
    while True:
        a = random_dfa(rng, rng.randint(1, max_states), alphabet)
        b = random_dfa(rng, rng.randint(1, max_states), alphabet)
        if not is_equivalent(a, b):
            return a, b


def exhaustive_feasible(alphabet, k, target, escape):
    """Reference check: some complete k-state DFA with initial state 0
    fits inside the target and escapes the other automaton."""
    width = len(alphabet)
    for table in itertools.product(range(k), repeat=k * width):
        delta = [table[q * width : (q + 1) * width] for q in range(k)]
        for bits in range(1 << k):
            d = Dfa(alphabet, delta, 0, {q for q in range(k) if bits >> q & 1})
            if is_subset(d, target) and not is_subset(d, escape):
                return True
    return False


# ---------------------------------------------------------------------
# shortest distinguishing word
# ---------------------------------------------------------------------

def test_shortest_distinguishing_word_example_pair(example_a, example_b):
    assert shortest_distinguishing_word(example_a, example_b) == "a" * 7


def test_shortest_distinguishing_word_equal_languages(example_a):
    assert shortest_distinguishing_word(example_a, example_a) is None


def test_shortest_distinguishing_word_random_pairs(rng):
    for _ in range(20):
        a, b = inequivalent_pair(rng)
        word = shortest_distinguishing_word(a, b)
        assert a.accepts(word) != b.accepts(word)
        # the first differing word in length-lexicographic order
        assert word == next(w for w in all_words("ab", len(word)) if a.accepts(w) != b.accepts(w))


def test_shortest_distinguishing_word_memory_is_bounded(rng):
    # a short answer must not cost the reachable product of the pair
    a, b = random_dfa(rng, 1000), random_dfa(rng, 1000)
    tracemalloc.start()
    try:
        word = shortest_distinguishing_word(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert word is not None and a.accepts(word) != b.accepts(word)
    assert peak < 1 << 20


def test_no_word_iff_equivalent(rng):
    for _ in range(20):
        a = random_dfa(rng, rng.randint(1, 4))
        b = random_dfa(rng, rng.randint(1, 4))
        assert (shortest_distinguishing_word(a, b) is None) == is_equivalent(a, b)


# ---------------------------------------------------------------------
# distinguishing predicate
# ---------------------------------------------------------------------

def test_odd_length_distinguishes_example_pair(example_a, example_b, odd_length):
    assert is_distinguishing(odd_length, example_a, example_b)


def test_empty_language_never_distinguishes(example_a, example_b, empty_lang):
    assert not is_distinguishing(empty_lang, example_a, example_b)


def test_input_itself_distinguishes(example_a, example_b):
    assert is_distinguishing(example_a, example_a, example_b)
    assert is_distinguishing(example_b, example_a, example_b)


def test_distinguishing_alphabet_mismatch(example_a, example_b):
    with pytest.raises(AlphabetError):
        is_distinguishing(Dfa("ab", [(0, 0)], 0, set()), example_a, example_b)


# ---------------------------------------------------------------------
# per-orientation feasibility of the search
# ---------------------------------------------------------------------

def test_search_feasibility_matches_exhaustive_reference(rng, example_a, example_b):
    pairs = []
    while len(pairs) < 12:
        a, b = random_dfa(rng, 2), random_dfa(rng, 2)
        if not is_equivalent(a, b):
            pairs.append((a, b))
    # one to four states: some targets lie inside the other language
    pairs += [inequivalent_pair(rng) for _ in range(12)]
    pairs.append((example_a, example_b))
    feasible = {}
    skipped = 0
    for i, (a, b) in enumerate(pairs):
        for orientation in Orientation:
            target, escape = (a, b) if orientation is Orientation.FIRST else (b, a)
            space = _PairSpace(target.minimize(), escape.minimize())
            # synthesis skips an orientation without goal pairs
            assert (space.goal == 0) == is_subset(target, escape)
            skipped += not space.goal
            for k in (1, 2):
                found = _search_feasible(a.alphabet, k, space)
                feasible[i, orientation, k] = found is not None
                assert (found is not None) == exhaustive_feasible(a.alphabet, k, target, escape)
                if found is not None:
                    assert is_subset(found, target)
                    assert not is_subset(found, escape)
    assert skipped > 0
    # the example pair: no single state separates it in either
    # orientation, two states do with the first input as the target
    example = len(pairs) - 1
    assert not any(feasible[example, orientation, 1] for orientation in Orientation)
    assert feasible[example, Orientation.FIRST, 2]


# ---------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------

def test_synth_example_pair_two_states(example_a, example_b):
    outcome = synth_min_distinguishing(example_a, example_b, 8)
    assert outcome.found
    assert outcome.bound == 2
    assert outcome.dfa.state_count == 2
    assert is_distinguishing(outcome.dfa, example_a, example_b)


def test_synth_equal_languages_none(example_a):
    outcome = synth_min_distinguishing(example_a, example_a, 4)
    assert not outcome.found
    assert outcome.dfa is None and outcome.orientation is None
    assert outcome.bound == 4
    # both orientations are skipped before any search
    assert outcome.nodes == 0


def test_synth_is_deterministic(example_a, example_b):
    first = synth_min_distinguishing(example_a, example_b, 8)
    second = synth_min_distinguishing(example_a, example_b, 8)
    assert first.dfa == second.dfa
    assert first.orientation == second.orientation


def test_synth_outcome_invariants(rng):
    for _ in range(10):
        a, b = inequivalent_pair(rng)
        outcome = synth_min_distinguishing(a, b, 4)
        if outcome.found:
            assert outcome.dfa.state_count <= outcome.bound
            assert is_distinguishing(outcome.dfa, a, b)


def test_synth_minimality_against_brute_force(rng):
    for _ in range(10):
        a, b = inequivalent_pair(rng)
        outcome = synth_min_distinguishing(a, b, 3)
        if outcome.found and outcome.bound > 1:
            assert not brute_force_min_distinguishing(a, b, outcome.bound - 1).found


def test_synth_rejects_zero_budget(example_a, example_b):
    with pytest.raises(ValueError):
        synth_min_distinguishing(example_a, example_b, 0)
    with pytest.raises(ValueError):
        brute_force_min_distinguishing(example_a, example_b, 0)


def test_synth_agrees_with_brute_force_on_thirty_pairs(rng):
    checked = 0
    while checked < 30:
        a, b = inequivalent_pair(rng)
        checked += 1
        ours = synth_min_distinguishing(a, b, 3)
        oracle = brute_force_min_distinguishing(a, b, 3)
        assert ours.found == oracle.found
        if ours.found:
            assert ours.bound == oracle.bound
            # orientation feasibility agrees: the synthesized direction is
            # realized by some brute-force automaton of the same size
            target, escape = (
                (a, b) if ours.orientation is Orientation.FIRST else (b, a)
            )
            assert is_subset(ours.dfa, target) and not is_subset(ours.dfa, escape)


def test_synth_agrees_with_brute_force_over_three_symbols():
    # the reduction's alphabet has three symbols; pairs that no two-state
    # DFA separates make the search branch over fresh and used targets
    rng = random.Random(11)  # its six pairs include one refuted at 3
    checked = refuted = 0
    while checked < 6:
        a = random_dfa(rng, rng.randint(3, 6), "01#")
        b = random_dfa(rng, rng.randint(3, 6), "01#")
        if is_equivalent(a, b) or brute_force_min_distinguishing(a, b, 2).found:
            continue
        checked += 1
        ours = synth_min_distinguishing(a, b, 3)
        oracle = brute_force_min_distinguishing(a, b, 3)
        assert (ours.found, ours.bound) == (oracle.found, oracle.bound)
        refuted += not oracle.found
    assert refuted >= 1


def test_synth_counts_search_nodes():
    # refuting every k <= 4 for the two-variable contradiction; pruning
    # on the initial state's pair set alone takes 123,152 nodes
    formula = CnfFormula(2, [(1,), (-1,)])
    upper = build_upper_dfa(formula)
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    outcome = synth_min_distinguishing(upper, lower, 4)
    assert not outcome.found
    assert 0 < outcome.nodes <= 1000
    # the count takes no part in equality
    assert outcome == SynthOutcome(None, None, 4)


def test_synth_singleton_word_upper_bound(rng):
    for _ in range(8):
        a, b = inequivalent_pair(rng, max_states=3)
        word = shortest_distinguishing_word(a, b)
        outcome = synth_min_distinguishing(a, b, len(word) + 2)
        assert outcome.found
        assert outcome.bound <= len(word) + 2


# ---------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------

def test_brute_force_example_pair(example_a, example_b):
    outcome = brute_force_min_distinguishing(example_a, example_b, 2)
    assert outcome.found and outcome.bound == 2
    assert is_distinguishing(outcome.dfa, example_a, example_b)


def test_brute_force_equal_languages(example_b):
    assert not brute_force_min_distinguishing(example_b, example_b, 2).found


def test_brute_force_enumeration_order_is_fixed(example_a, example_b):
    first = brute_force_min_distinguishing(example_a, example_b, 2)
    second = brute_force_min_distinguishing(example_a, example_b, 2)
    assert first.dfa == second.dfa


def test_brute_force_first_hit_is_odd_length_loop(example_a, example_b, odd_length):
    # at two states the counter order reaches the alternating loop first
    outcome = brute_force_min_distinguishing(example_a, example_b, 2)
    assert is_equivalent(outcome.dfa, odd_length)
