import pytest
from hypothesis import given, strategies as st

from dfadist.automata import (
    Alphabet,
    AlphabetError,
    AutomataError,
    Dfa,
    DfaParseError,
    is_equivalent,
    is_subset,
    parse_dfa,
    product,
    serialize_dfa,
)

from support import (
    all_words,
    language_up_to,
    nerode_class_count_oracle,
    permuted_copy,
    random_dfa,
    states_pairwise_distinguishable,
)

AND = lambda x, y: x and y
OR = lambda x, y: x or y
XOR = lambda x, y: x != y
AND_NOT = lambda x, y: x and not y
OPS = {"and": AND, "or": OR, "xor": XOR, "and-not": AND_NOT}


@st.composite
def dfas(draw, alphabets=("a", "ab", "01#"), max_states=8):
    alphabet = draw(st.sampled_from(alphabets))
    m = draw(st.integers(1, max_states))
    delta = [
        tuple(draw(st.integers(0, m - 1)) for _ in alphabet) for _ in range(m)
    ]
    initial = draw(st.integers(0, m - 1))
    accepting = draw(st.sets(st.integers(0, m - 1)))
    return Dfa(alphabet, delta, initial, accepting)


@st.composite
def dfa_pairs(draw, max_states=5):
    alphabet = draw(st.sampled_from(("a", "ab", "01#")))
    return (
        draw(dfas(alphabets=(alphabet,), max_states=max_states)),
        draw(dfas(alphabets=(alphabet,), max_states=max_states)),
    )


# ---------------------------------------------------------------------
# Alphabet and Dfa construction
# ---------------------------------------------------------------------

def test_alphabet_rejects_bad_symbols():
    with pytest.raises(AlphabetError):
        Alphabet("")
    with pytest.raises(AlphabetError):
        Alphabet("aa")
    with pytest.raises(AlphabetError):
        Alphabet("a b")
    with pytest.raises(AlphabetError):
        Alphabet("a;")


def test_alphabet_order_is_significant():
    assert Alphabet("01#") != Alphabet("0#1")
    assert Alphabet("ab").index("b") == 1


def test_dfa_requires_total_in_range_table():
    with pytest.raises(AutomataError):
        Dfa("ab", [(0,)], 0, set())  # row too short
    with pytest.raises(AutomataError):
        Dfa("a", [(1,)], 0, set())  # target out of range
    with pytest.raises(AutomataError):
        Dfa("a", [(0,)], 1, set())  # initial out of range
    with pytest.raises(AutomataError):
        Dfa("a", [(0,)], 0, {3})  # accepting out of range
    with pytest.raises(AutomataError):
        Dfa("a", [(True,), (0,)], 0, set())  # bool target
    with pytest.raises(AutomataError):
        Dfa("a", [(0,), (0,)], 0.0, set())  # float initial
    with pytest.raises(AutomataError):
        Dfa("a", [(0,), (0,)], 0, {True})  # bool accepting state


@given(dfas())
def test_dfa_is_complete_everywhere(d):
    for q in range(d.state_count):
        for c in d.alphabet.symbols:
            assert 0 <= d.step(q, c) < d.state_count


# ---------------------------------------------------------------------
# accepts
# ---------------------------------------------------------------------

def test_accepts_unary_cycle_word(example_a, example_b):
    assert example_a.accepts("a" * 7)
    assert not example_b.accepts("a" * 7)


def test_accepts_empty_word_depends_on_initial(example_a):
    assert not example_a.accepts("")
    assert example_a.complement().accepts("")


def test_accepts_rejects_foreign_symbol(example_a):
    with pytest.raises(AlphabetError):
        example_a.accepts("ab")


# ---------------------------------------------------------------------
# parse / serialize
# ---------------------------------------------------------------------

def test_parse_example_b_file(data_dir):
    d = parse_dfa((data_dir / "example_b.dfa").read_text())
    assert d.state_count == 5
    assert d.accepting == {1, 2, 3}
    assert d.initial == 0


def test_parse_single_state_empty_language():
    d = parse_dfa("dfa v1\nalphabet a\nstates 1\ninitial 0\naccepting\nrow 0 0\n")
    assert d.state_count == 1
    assert d.shortest_accepted_word() is None


def test_parse_comments_and_blank_lines():
    text = (
        "; a comment line\n"
        "dfa v1\n\n"
        "alphabet ab ; trailing comment\n"
        "states 2\n"
        "initial 1\n"
        "accepting 0\n"
        "row 0 1 0\n"
        "row 1 0 1\n"
    )
    d = parse_dfa(text)
    assert d.initial == 1 and d.accepting == {0}


@pytest.mark.parametrize(
    "text, line",
    [
        ("dfa v2\n", 1),
        ("dfa v1\nalphabet aa\n", 2),
        ("dfa v1\nalphabet a\nstates 0\n", 3),
        ("dfa v1\nalphabet a\nstates 3\ninitial 3\n", 4),
        ("dfa v1\nalphabet a\nstates 2\ninitial 0\naccepting 2\n", 5),
        ("dfa v1\nalphabet a\nstates 3\ninitial 0\naccepting\nrow 0 7\n", 6),
        ("dfa v1\nalphabet ab\nstates 1\ninitial 0\naccepting\nrow 0 0\n", 6),
        ("dfa v1\nalphabet a\nstates 2\ninitial 0\naccepting\nrow 0 1\nrow 0 0\n", 7),
    ],
)
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(DfaParseError) as err:
        parse_dfa(text)
    assert err.value.line == line


def test_parse_error_on_missing_row():
    with pytest.raises(DfaParseError, match="expected"):
        parse_dfa("dfa v1\nalphabet a\nstates 2\ninitial 0\naccepting\nrow 0 1\n")


def test_parse_error_on_trailing_content():
    with pytest.raises(DfaParseError, match="after last row"):
        parse_dfa("dfa v1\nalphabet a\nstates 1\ninitial 0\naccepting\nrow 0 0\nrow 1 0\n")


def test_serialize_empty_language_golden():
    d = Dfa("a", [(0,)], 0, set())
    assert serialize_dfa(d) == "dfa v1\nalphabet a\nstates 1\ninitial 0\naccepting\nrow 0 0\n"


def test_serialize_example_a(example_a):
    text = serialize_dfa(example_a)
    assert "states 4" in text
    assert "accepting 1 2 3" in text


@pytest.mark.parametrize("name", ["example_a.dfa", "example_b.dfa"])
def test_serialize_is_canonical_form_of_input(data_dir, name):
    original = (data_dir / name).read_text()
    assert serialize_dfa(parse_dfa(original)) == original


@given(dfas(max_states=10))
def test_round_trip_identity(d):
    assert parse_dfa(serialize_dfa(d)) == d


# ---------------------------------------------------------------------
# product / complement
# ---------------------------------------------------------------------

def test_product_self_difference_is_empty(example_a):
    assert product(example_a, example_a, XOR).shortest_accepted_word() is None


def test_product_difference_contains_separating_word(example_a, example_b):
    diff = product(example_a, example_b, AND_NOT)
    assert diff.accepts("a" * 7)
    assert diff.shortest_accepted_word() is not None


def test_product_reachable_size_bound(example_a, example_b):
    assert product(example_a, example_b, OR).state_count <= 20


def test_product_requires_same_alphabet(example_a):
    with pytest.raises(AlphabetError):
        product(example_a, Dfa("ab", [(0, 0)], 0, set()), AND)


@given(dfa_pairs(), st.sampled_from(sorted(OPS)), st.data())
def test_product_pointwise_agreement(pair, op_name, data):
    a, b = pair
    op = OPS[op_name]
    combined = product(a, b, op)
    word = data.draw(st.text(alphabet=a.alphabet.symbols, max_size=12))
    assert combined.accepts(word) == op(a.accepts(word), b.accepts(word))


def test_complement_of_empty_is_universal(empty_lang):
    assert empty_lang.complement().shortest_accepted_word() == ""


def test_complement_is_involution(example_b):
    assert example_b.complement().complement() == example_b


def test_complement_flips_membership(example_a):
    assert not example_a.complement().accepts("a" * 7)


@given(dfas(), st.data())
def test_complement_pointwise(d, data):
    word = data.draw(st.text(alphabet=d.alphabet.symbols, max_size=12))
    assert d.complement().accepts(word) == (not d.accepts(word))


# ---------------------------------------------------------------------
# shortest accepted word
# ---------------------------------------------------------------------

def test_shortest_word_empty_language(empty_lang):
    assert empty_lang.shortest_accepted_word() is None


def test_shortest_word_initial_accepting():
    loop = Dfa("01#", [(2, 1, 2), (2, 2, 0), (2, 2, 2)], 0, {0})
    assert loop.shortest_accepted_word() == ""


def test_shortest_word_of_difference_is_a7(example_a, example_b):
    assert product(example_a, example_b, XOR).shortest_accepted_word() == "a" * 7


def test_shortest_word_alphabet_order_tie_break():
    # accepts exactly {"ab", "ba"}; BFS explores 'a' first
    d = Dfa(
        "ab",
        [(1, 2), (4, 3), (3, 4), (4, 4), (4, 4)],
        0,
        {3},
    )
    assert d.shortest_accepted_word() == "ab"


def test_shortest_word_is_minimal(rng):
    for _ in range(25):
        d = random_dfa(rng, rng.randint(1, 5))
        got = d.shortest_accepted_word()
        accepted = language_up_to(d, 6)
        if got is None:
            assert accepted == []
        else:
            assert got == accepted[0]


@given(dfas())
def test_shortest_word_none_iff_subset_of_empty(d):
    empty = Dfa(d.alphabet, [(0,) * len(d.alphabet)], 0, set())
    assert (d.shortest_accepted_word() is None) == is_subset(d, empty)


# ---------------------------------------------------------------------
# inclusion / equivalence
# ---------------------------------------------------------------------

def test_subset_odd_inside_example_a(example_a, example_b, odd_length):
    assert is_subset(odd_length, example_a)
    assert not is_subset(odd_length, example_b)


def test_subset_is_reflexive(example_b):
    assert is_subset(example_b, example_b)


def test_subset_alphabet_mismatch(example_a):
    with pytest.raises(AlphabetError):
        is_subset(example_a, Dfa("b", [(0,)], 0, set()))


def test_subset_matches_exhaustive_word_check(rng):
    # words up to |a|*|b| decide inclusion outright: a shortest
    # counterexample never revisits a product state
    for _ in range(25):
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


def test_equivalence_example_pair_differs(example_a, example_b):
    assert not is_equivalent(example_a, example_b)


def test_equivalence_with_own_minimization(example_b):
    assert is_equivalent(example_b, example_b.minimize())


def test_equivalence_of_two_odd_length_encodings(odd_length):
    four_state = Dfa("a", [(1,), (2,), (3,), (0,)], 0, {1, 3})
    assert is_equivalent(odd_length, four_state)


# ---------------------------------------------------------------------
# minimize / class counting
# ---------------------------------------------------------------------

def test_minimize_example_b_already_minimal(example_b):
    assert states_pairwise_distinguishable(example_b)
    assert example_b.minimize().state_count == 5


def test_minimize_block_loop_stays_three_states():
    loop = Dfa("01#", [(2, 1, 2), (2, 2, 0), (2, 2, 2)], 0, {0})
    assert loop.minimize().state_count == 3


def test_minimize_empty_language_with_redundant_states():
    d = Dfa("a", [(1,), (2,), (3,), (4,), (5,), (0,)], 0, set())
    assert d.minimize().state_count == 1


def test_minimize_drops_unreachable_states():
    d = Dfa("a", [(0,), (1,)], 0, {1})
    assert d.minimize().state_count == 1


@given(dfas())
def test_minimize_idempotent_and_language_preserving(d):
    m = d.minimize()
    assert is_equivalent(d, m)
    assert m.minimize() == m


def test_minimize_canonical_under_isomorphism(rng):
    for _ in range(20):
        d = random_dfa(rng, rng.randint(2, 7))
        shuffled = permuted_copy(d, rng)
        assert serialize_dfa(d.minimize()) == serialize_dfa(shuffled.minimize())


def test_nerode_count_universal_language():
    assert Dfa("ab", [(0, 0)], 0, {0}).nerode_class_count() == 1


def test_nerode_count_block_loop():
    loop = Dfa("01#", [(2, 1, 2), (2, 2, 0), (2, 2, 2)], 0, {0})
    assert loop.nerode_class_count() == 3


def test_nerode_count_matches_residual_table(rng):
    for _ in range(8):
        d = random_dfa(rng, 8)
        assert d.nerode_class_count() == nerode_class_count_oracle(d)


# ---------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------

def test_dot_structure(odd_length):
    dot = odd_length.to_dot()
    assert dot.startswith("digraph {")
    assert "rankdir=LR;" in dot
    assert "start [shape=point];" in dot
    assert "start -> 0;" in dot
    assert "1 [shape=doublecircle];" in dot
    assert "0 [shape=circle];" in dot
    assert dot.count("label=") == odd_length.state_count * len(odd_length.alphabet)
    assert dot == odd_length.to_dot()
