import gc
import hashlib
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dfadist import distinguish
from dfadist.automata import (
    Alphabet,
    AlphabetError,
    Dfa,
    _pair_search,
    is_equivalent,
    is_subset,
    serialize_dfa,
)
from dfadist.distinguish import (
    Orientation,
    SynthOutcome,
    _PairSpace,
    _cycle_candidate,
    _loop_dfa,
    _search_feasible,
    is_distinguishing,
    shortest_distinguishing_word,
    synth_min_distinguishing,
)
from dfadist.reduction import CnfFormula, build_lower_dfa, build_upper_dfa

from support import (
    all_words,
    battery_formulas,
    brute_force_min_distinguishing,
    cycle_candidate_reference,
    dead_states,
    escape_reference,
    hard_pair_battery,
    language_up_to,
    random_dfa,
    random_pair_battery,
)


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
                found = _search_feasible(k, space)
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


@st.composite
def small_dfa(draw):
    """A DFA over ``ab`` with 1-4 states, half of the time plus a
    rejecting sink that the other states may enter."""
    n = draw(st.integers(1, 4))
    sink = draw(st.booleans())
    targets = st.integers(0, n - 1 + sink)
    delta = [(draw(targets), draw(targets)) for _ in range(n)]
    if sink:
        delta.append((n, n))
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Dfa("ab", delta, draw(st.integers(0, n - 1)), accepting)


def dead_pairs(target, other):
    """Mask of the (t, x) pairs whose target state can reach no
    accepting state, by the forward-search reference."""
    dead = dead_states(target)
    return sum(1 << y for y, (t, _) in enumerate(_pair_search(target, other)[0]) if t in dead)


@given(small_dfa(), small_dfa(), st.data())
def test_escape_possible_matches_plain_subset_search(target, other, data):
    # on the minimized target the sink rule dooms every dead pair; on the
    # raw one it may miss some, and the answers stay exact either way
    for minimized in (False, True):
        if minimized:
            target = target.minimize()
        space = _PairSpace(target, other)
        pairs = _pair_search(target, other)[0]
        dead = dead_pairs(target, other)
        if minimized:
            assert space.doomed == dead
        else:
            assert space.doomed & ~dead == 0
        # several masks on one space, so later ones also read the cache
        masks = data.draw(st.lists(st.integers(0, (1 << len(pairs)) - 1), max_size=8))
        for mask in masks:
            pair_set = frozenset(p for y, p in enumerate(pairs) if mask >> y & 1)
            assert space.escape_possible(mask) == escape_reference(target, other, pair_set)
            for c in range(space.width):
                image = {(target.delta[t][c], other.delta[x][c]) for t, x in pair_set}
                assert space.step_set(c, mask) == sum(1 << pairs.index(p) for p in image)
        assert not any(key & space.doomed for key in space._escape_cache)


# ---------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------

def test_cycle_candidate_tries_only_k_state_loops():
    # at budget k the pre-pass returns None or a loop of exactly k states:
    # synthesis reaches k only after every smaller budget failed
    formula = CnfFormula(1, [(1,)])
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    upper = build_upper_dfa(formula)
    space = _PairSpace(upper.minimize(), lower.minimize())
    sizes = []
    for k in range(1, 5):
        loop = _cycle_candidate(k, space)
        if loop is not None:
            assert loop.state_count == k
            assert is_subset(loop, upper) and not is_subset(loop, lower)
        sizes.append(loop and loop.state_count)
    assert sizes == [None, None, 3, 4]


def test_cycle_candidate_matches_loop_semantics():
    # the pre-pass returns the loop of the first word of k-1 letters, in
    # product order, whose loop language fits the target and escapes the
    # other automaton, judged by plain inclusion checks
    for a, b in random_pair_battery() + hard_pair_battery():
        for target, other in ((a.minimize(), b.minimize()), (b.minimize(), a.minimize())):
            space = _PairSpace(target, other)
            for k in range(1, 5):
                expected = None
                # at k = 1 the only word is the empty one: the universal DFA
                for letters in itertools.product(target.alphabet.symbols, repeat=k - 1):
                    loop = _loop_dfa(target.alphabet, "".join(letters))
                    if is_subset(loop, target) and not is_subset(loop, other):
                        expected = loop
                        break
                assert _cycle_candidate(k, space) == expected


def test_loop_dfa_is_built_minimal():
    # the loop comes out in minimize's numbering and marked minimal, and
    # its language is w* (the empty word's loop is the universal DFA)
    rng = random.Random(41)
    for symbols in ("a", "ab", "01#"):
        alphabet = Alphabet(symbols)
        words = [""] + ["".join(rng.choices(symbols, k=rng.randint(1, 6))) for _ in range(30)]
        for word in words:
            loop = _loop_dfa(alphabet, word)
            assert loop == Dfa(alphabet, loop.delta, loop.initial, loop.accepting).minimize()
            assert loop.minimize() is loop
            limit = 8
            expected = [
                w
                for w in all_words(symbols, limit)
                if not word or w == word * (len(w) // len(word))
            ]
            assert language_up_to(loop, limit) == expected


def test_cycle_candidate_matches_the_unpruned_walk():
    # cutting prefixes that reach a doomed pair keeps the lexicographic
    # order: the same loop as enumerating every word, on random formulas
    # and both orientations of their reduction pairs
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 4)
        clauses = [
            [rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(1, k))]
            for _ in range(rng.randint(1, 3))
        ]
        formula = CnfFormula(k, clauses)
        lower = build_lower_dfa(k, formula.clause_count)
        upper = build_upper_dfa(formula)
        for target, other in ((upper, lower), (lower, upper)):
            space = _PairSpace(target, other)
            for budget in range(1, k + 4):
                assert _cycle_candidate(budget, space) == cycle_candidate_reference(budget, space)


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


def test_synth_equal_languages_return_at_once(example_a):
    # no orientation has a goal pair, so no budget is walked
    start = time.perf_counter()
    outcome = synth_min_distinguishing(example_a, example_a, 10**8)
    assert time.perf_counter() - start < 0.5
    assert not outcome.found
    assert outcome.bound == 10**8
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


def test_synth_failed_recheck_raises(example_a, example_b, monkeypatch):
    # a candidate that fails the independent re-check is never returned
    monkeypatch.setattr(distinguish, "is_distinguishing", lambda dfa, a1, a2: False)
    with pytest.raises(RuntimeError, match="distinguishing re-check"):
        synth_min_distinguishing(example_a, example_b, 2)


def test_synth_rejects_zero_budget(example_a, example_b):
    with pytest.raises(ValueError):
        synth_min_distinguishing(example_a, example_b, 0)
    with pytest.raises(ValueError):
        brute_force_min_distinguishing(example_a, example_b, 0)


def test_synth_rejects_a_lower_bound_outside_the_budget(example_a, example_b):
    for k_min in (0, -1, 4):
        with pytest.raises(ValueError, match="k_min"):
            synth_min_distinguishing(example_a, example_b, 3, k_min=k_min)


def test_synth_lower_bound_skips_the_budgets_below_it():
    # the 3-var contradiction's full search takes 1 + 1 + 1 nodes below
    # budget 5 (pinned per budget below); k_min = 5 enters none of them
    formula = CnfFormula(3, [(1,), (-1,)])
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    outcome = synth_min_distinguishing(build_upper_dfa(formula), lower, 5, k_min=5)
    assert outcome == SynthOutcome(None, None, 5)
    assert outcome.nodes == 11


def test_synth_catches_a_false_lower_bound(example_a, example_b, odd_length, monkeypatch):
    # the example pair has a two-state distinguisher, so k_min = 3 is
    # false; the three-state loop the search finds minimizes to two states
    with pytest.raises(RuntimeError, match="fewer than the lower bound k_min=3"):
        synth_min_distinguishing(example_a, example_b, 3, k_min=3)
    # a candidate smaller than k_min is refused even when it distinguishes
    monkeypatch.setattr(distinguish, "_search_feasible", lambda k, space: odd_length)
    with pytest.raises(RuntimeError, match="fewer than the lower bound k_min=3"):
        synth_min_distinguishing(example_a, example_b, 4, k_min=3)


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
    # refuting every k <= 4 for the two-variable contradiction (k = 1 by
    # rule, with no search); pruning on the initial state's pair set alone
    # takes 123,152 nodes, the liveness check without the fresh-state
    # budget 122
    formula = CnfFormula(2, [(1,), (-1,)])
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    upper = build_upper_dfa(formula)
    outcome = synth_min_distinguishing(upper, lower, 4)
    assert not outcome.found
    assert outcome.nodes == 9
    # the count takes no part in equality
    assert outcome == SynthOutcome(None, None, 4)


def answers_and_nodes(cases):
    """Digest of the synthesized answers for (a1, a2, budget) cases, and
    the search nodes they took in total."""
    digest = hashlib.sha256()
    nodes = 0
    for a1, a2, budget in cases:
        outcome = synth_min_distinguishing(a1, a2, budget)
        orientation = outcome.orientation.value if outcome.orientation else None
        dfa = serialize_dfa(outcome.dfa) if outcome.dfa else "none"
        digest.update(repr((dfa, orientation, outcome.bound)).encode())
        nodes += outcome.nodes
    return digest.hexdigest()[:16], nodes


def battery_cases():
    for formula in battery_formulas():
        lower = build_lower_dfa(formula.var_count, formula.clause_count)
        yield build_upper_dfa(formula), lower, formula.var_count + 2


def test_synth_refutes_three_variable_contradiction_in_pinned_nodes():
    formula = CnfFormula(3, [(1,), (-1,)])
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    outcome = synth_min_distinguishing(build_upper_dfa(formula), lower, 5)
    assert not outcome.found
    assert outcome.nodes == 14


def test_synth_nodes_per_budget_are_pinned():
    # each k's tree on its own, not just the sum: budget 1 is answered
    # by rule, and k = 2..5 refute the 3-var contradiction's first orientation
    formula = CnfFormula(3, [(1,), (-1,)])
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    upper = build_upper_dfa(formula)
    space = _PairSpace(upper.minimize(), lower.minimize())
    added = []
    for k in range(1, 6):
        before = space.nodes
        assert _search_feasible(k, space) is None
        added.append(space.nodes - before)
    assert added == [0, 1, 1, 1, 11]


def test_synth_budget_one_is_answered_by_rule():
    # a one-state DFA accepts nothing or everything, so budget 1 needs
    # no search: the universal DFA, when it distinguishes, or nothing
    found = 0
    for a, b in random_pair_battery() + hard_pair_battery():
        outcome = synth_min_distinguishing(a, b, 1)
        assert outcome.nodes == 0
        assert outcome.found == brute_force_min_distinguishing(a, b, 1).found
        if outcome.found:
            assert outcome.dfa == _loop_dfa(a.alphabet, "")
            found += 1
    assert found > 0


def test_synth_budget_one_is_fast_on_large_random_pairs():
    # budget 1 is one test, not a search of the pair space: the 50-state
    # pair of rnd(n) (random rows and accepting set, initial state 0, one
    # random.Random(3) drawing n = 20 then 50) spans 947 pairs
    rng = random.Random(3)

    def rnd(n):
        delta = [tuple(rng.randrange(n) for _ in "ab") for _ in range(n)]
        return Dfa("ab", delta, 0, {q for q in range(n) if rng.random() < 0.5})

    _, _, a, b = (rnd(n) for n in (20, 20, 50, 50))
    start = time.perf_counter()
    outcome = synth_min_distinguishing(a, b, 1)
    assert time.perf_counter() - start < 0.5
    assert not outcome.found and outcome.nodes == 0


@pytest.fixture
def built_spaces(monkeypatch):
    """Records every pair space synthesis builds, with its target."""
    built = []

    def recording(target, other):
        built.append((_PairSpace(target, other), target, other))
        return built[-1][0]

    monkeypatch.setattr(distinguish, "_PairSpace", recording)
    return built


def test_synth_caches_no_doomed_pair_set(built_spaces):
    # a pair set holding a doomed pair is refused before the escape
    # cache, which keeps the reduction's caches small: 37 entries on
    # 3-var [(1,2,3),(-1,-2)]
    for a1, a2, budget in battery_cases():
        built_spaces.clear()
        synth_min_distinguishing(a1, a2, budget)
        assert not any(key & s.doomed for s, _, _ in built_spaces for key in s._escape_cache)
    # the spaces left are those of the battery's last formula
    assert battery_formulas()[-1] == CnfFormula(3, [(1, 2, 3), (-1, -2)])
    assert sum(len(s._escape_cache) for s, _, _ in built_spaces) < 100


def test_synth_spaces_doom_exactly_the_dead_pairs(built_spaces):
    # synthesis minimizes its inputs, so the rejecting-sink rule finds
    # every pair whose target state can reach no accepting state
    battery = list(battery_cases())
    cases = battery + [(a, b, 4) for a, b in random_pair_battery() + hard_pair_battery()]
    per_case = []
    for a1, a2, budget in cases:
        built_spaces.clear()
        synth_min_distinguishing(a1, a2, budget)
        m1, m2 = a1.minimize(), a2.minimize()
        (_, t, o), *rest = built_spaces
        assert (t, o) == (m1, m2)
        if rest:
            # the second orientation's space has a goal pair and matches
            # a space built on its own
            ((second, t, o),) = rest
            assert (t, o) == (m2, m1) and second.goal
            alone = _PairSpace(t, o)
            assert (second.step, second.bad, second.goal) == (alone.step, alone.bad, alone.goal)
        else:
            # an orientation without a goal pair is never built
            assert _PairSpace(m2, m1).goal == 0
        per_case.append(list(built_spaces))
    # lower is inside upper: no reduction pair builds its second space
    assert all(len(built) == 1 for built in per_case[: len(battery)])
    assert any(len(built) == 2 for built in per_case)
    spaces = [space for built in per_case for space in built]
    assert all(s.doomed == dead_pairs(t, o) for s, t, o in spaces)
    # not vacuously: every upper DFA has a sink (no word of upper starts
    # with '#'), and so do some of the random pairs' targets
    assert all(built[0][0].doomed for built in per_case[: len(battery)])
    assert any(s.doomed for built in per_case[len(battery) :] for s, _, _ in built)


def test_synth_battery_answers_and_nodes_are_pinned():
    # a change to the search's internals must keep its decisions: the
    # same first table per formula, found after the same number of nodes
    assert answers_and_nodes(battery_cases()) == ("552671ddb4160c5c", 347)


def test_synth_random_pair_answers_and_nodes_are_pinned():
    cases = [(a, b, 4) for a, b in random_pair_battery()]
    assert answers_and_nodes(cases) == ("f4d32e6f94167489", 369)


def test_synth_hard_pair_answers_and_nodes_are_pinned():
    # every pair needs three or four states, so the search refutes k = 2
    # (and, for two pairs, k = 3) over the reduction's alphabet
    cases = [(a, b, 4) for a, b in hard_pair_battery()]
    assert answers_and_nodes(cases) == ("5cab2a319d57a3ed", 2855)


def test_synth_leaves_no_cyclic_garbage():
    # the search state and pair spaces are freed when the call returns,
    # not left for the cyclic collector
    formula = CnfFormula(2, [(1,), (-1,)])
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    upper = build_upper_dfa(formula)
    gc.collect()
    gc.disable()
    try:
        assert not synth_min_distinguishing(upper, lower, 4).found
        assert gc.collect() == 0
    finally:
        gc.enable()


def deepest_child_stack(search):
    """Most child generators of ``_search_feasible`` open at once while
    ``search()`` runs: the depth of its deepest node, in filled cells."""
    code = distinguish._search_feasible.__code__
    children = next(c for c in code.co_consts if getattr(c, "co_name", None) == "children")
    open_frames = set()
    deepest = 0

    def profile(frame, event, arg):
        nonlocal deepest
        if frame.f_code is not children:
            return
        # a generator's frame is entered on each resume and left on each
        # yield (of True) and at its end (returning None)
        if event == "call":
            open_frames.add(frame)
            deepest = max(deepest, len(open_frames))
        elif event == "return" and arg is None:
            open_frames.discard(frame)

    sys.setprofile(profile)
    try:
        search()
    finally:
        sys.setprofile(None)
    return deepest


def test_synth_depth_needs_no_recursion():
    # a recursive search takes a frame per filled cell; the loop's stack
    # depth does not grow with the tree.  Refuting budget 10 alone on the
    # 8-var contradiction reaches nodes more than a dozen cells deep, yet
    # runs a dozen levels above its caller.  The depth is the one the
    # interpreter counts (C calls included): the lowest limit it accepts
    # here, minus 1.
    formula = CnfFormula(8, [(1,), (-1,)])
    lower = build_lower_dfa(formula.var_count, formula.clause_count)
    upper = build_upper_dfa(formula)

    def search():
        return synth_min_distinguishing(upper, lower, 10, k_min=10)

    assert deepest_child_stack(search) > 12
    limit = sys.getrecursionlimit()
    depth = 1
    while True:
        try:
            sys.setrecursionlimit(depth + 1)
            break
        except RecursionError:
            depth += 1
    try:
        sys.setrecursionlimit(depth + 12)
        outcome = search()
    finally:
        sys.setrecursionlimit(limit)
    assert outcome == SynthOutcome(None, None, 10)
    assert outcome.nodes == 259


def test_synth_sees_a_witness_through_the_empty_word():
    # a accepts everything, b nothing: the one-state DFA accepting at its
    # initial state already separates them through the empty word
    a = Dfa("ab", [(0, 0)], 0, {0})
    b = Dfa("ab", [(1, 1), (1, 1)], 0, {1})
    for budget in (1, 3):
        outcome = synth_min_distinguishing(a, b, budget)
        assert outcome.found
        assert (outcome.bound, outcome.orientation) == (1, Orientation.FIRST)


def test_synth_singleton_word_upper_bound(rng):
    # the DFA of a shortest separating word w alone (a path of len(w) + 1
    # states plus a sink) separates the pair, so synthesis finds one
    # within len(w) + 2 states.  The hard pairs need three or four states
    # over three symbols: there a cut that drops a live branch shows as a
    # missed answer, and each refutation at k <= 3 is checked by brute force
    pairs = [inequivalent_pair(rng, max_states=3) for _ in range(8)] + hard_pair_battery()
    refuted = 0
    for a, b in pairs:
        word = shortest_distinguishing_word(a, b)
        outcome = synth_min_distinguishing(a, b, len(word) + 2)
        assert outcome.found
        assert outcome.bound <= len(word) + 2
        if not synth_min_distinguishing(a, b, 3).found:
            assert not brute_force_min_distinguishing(a, b, 3).found
            refuted += 1
    assert refuted > 0


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
