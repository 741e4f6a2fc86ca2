import time

import pytest
from hypothesis import given, strategies as st

from dfadist import automata
from dfadist.automata import (
    Alphabet,
    AlphabetError,
    AutomataError,
    Dfa,
    DfaParseError,
    is_equivalent,
    is_subset,
    parse_dfa,
    serialize_dfa,
)
from dfadist.distinguish import shortest_distinguishing_word

from support import (
    all_words,
    assert_checked_copy,
    assert_parsed_value,
    complement,
    language_up_to,
    nerode_class_count_oracle,
    parse_dfa_reference,
    permuted_copy,
    product,
    random_dfa,
    states_pairwise_distinguishable,
)

AND = lambda x, y: x and y
OR = lambda x, y: x or y
XOR = lambda x, y: x != y
AND_NOT = lambda x, y: x and not y
OPS = {"and": AND, "or": OR, "xor": XOR, "and-not": AND_NOT}


def shortest_accepted(d: Dfa) -> str | None:
    """Shortest accepted word: the shortest word separating L(d) from the
    empty language."""
    empty = Dfa(d.alphabet, [(0,) * len(d.alphabet)], 0, set())
    return shortest_distinguishing_word(d, empty)


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
    with pytest.raises(AlphabetError):
        Alphabet("ab").index("c")


def test_dfa_requires_total_in_range_table():
    with pytest.raises(AutomataError):
        Dfa("a", [], 0, ())  # no state
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
            assert 0 <= d.delta[q][d.alphabet.index(c)] < d.state_count


# ---------------------------------------------------------------------
# accepts
# ---------------------------------------------------------------------

def test_accepts_unary_cycle_word(example_a, example_b):
    assert example_a.accepts("a" * 7)
    assert not example_b.accepts("a" * 7)


def test_accepts_empty_word_depends_on_initial(example_a):
    assert not example_a.accepts("")
    assert complement(example_a).accepts("")


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
    assert shortest_accepted(d) is None


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
        ("dfa v1\nalphabet a\nstates 1\nstart 0\n", 4),
        ("dfa v1\nalphabet a\nstates 1\ninitial 0\nfinal 0\n", 5),
        ("dfa v1\nalphabet a\nstates 1\ninitial 0\naccepting\nedge 0 0\n", 6),
        ("dfa v1\nalphabet a\nstates 1\ninitial 0\naccepting\nrow 1 0\n", 6),
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


def test_parse_large_dfa_in_any_row_order(rng):
    d = random_dfa(rng, 20_000)
    lines = serialize_dfa(d).splitlines()
    parsed = parse_dfa("\n".join(lines))
    assert parsed == d
    assert_parsed_value(parsed)
    # rows reversed, with a comment line every 1,000 rows
    shuffled = lines[:5]
    for i, row in enumerate(reversed(lines[5:])):
        if i % 1000 == 0:
            shuffled.append(f"; row {i}")
        shuffled.append(row)
    parsed = parse_dfa("\n".join(shuffled))
    assert parsed == d
    assert_parsed_value(parsed)
    # and the last state's first target spelled "+t": both reasons to read
    # the block line by line at once
    q = d.state_count - 1
    assert shuffled[6] == f"row {q} {d.delta[q][0]} {d.delta[q][1]}"
    shuffled[6] = f"row {q} +{d.delta[q][0]} {d.delta[q][1]}"
    text = "\n".join(shuffled)
    parsed = parse_dfa(text)
    assert parsed == d == parse_dfa_reference(text)
    assert_parsed_value(parsed)


def test_parse_reads_only_other_layouts_line_by_line(rng, monkeypatch):
    # the bulk path serves the layout serialize_dfa writes: a canonical
    # file sent line by line would parse to the same value, only slower
    calls = []
    line_rows = automata._line_rows

    def counting_line_rows(*args):
        calls.append(args)
        return line_rows(*args)

    monkeypatch.setattr(automata, "_line_rows", counting_line_rows)
    d = random_dfa(rng, 500)
    lines = serialize_dfa(d).splitlines()
    assert parse_dfa("\n".join(lines)) == d
    assert calls == []
    reversed_rows = lines[:5] + lines[5:][::-1]
    assert parse_dfa("\n".join(reversed_rows)) == d
    assert len(calls) == 1
    loose = lines[:5] + [f"row 0 07 {d.delta[0][1]}"] + lines[6:]
    assert parse_dfa("\n".join(loose)).delta[0] == (7, d.delta[0][1])
    assert len(calls) == 2
    faulty = lines[:5] + [f"row 0 500 {d.delta[0][1]}"] + lines[6:]
    with pytest.raises(DfaParseError, match=r"^line 6: row target 500 outside \[0,500\)$"):
        parse_dfa("\n".join(faulty))
    assert len(calls) == 3


def test_parse_huge_state_count_allocates_nothing():
    # a declared count alone must not size anything: m slots would not fit
    text = "dfa v1\nalphabet a\nstates 1000000000000\ninitial 0\naccepting\nrow 0 0\n"
    start = time.perf_counter()
    with pytest.raises(DfaParseError, match="unexpected end of input"):
        parse_dfa(text)
    assert time.perf_counter() - start < 0.1


def test_parse_state_count_past_the_index_range():
    # a count no slice can take is still a parse error, not a ValueError
    text = "dfa v1\nalphabet a\nstates 100000000000000000000\ninitial 0\naccepting\nrow 0 0\n"
    with pytest.raises(DfaParseError, match="unexpected end of input") as err:
        parse_dfa(text)
    assert err.value.line is None


# the rows are split and checked in bulk, without line numbers; a fault
# must still name the line that the line-by-line reference names
HEADER_2 = "dfa v1\nalphabet ab\nstates 2\ninitial 0\naccepting 1\n"
HEADER_A2 = "dfa v1\nalphabet a\nstates 2\ninitial 0\naccepting 1\n"


@pytest.mark.parametrize(
    "text, message, line",
    [
        # blank lines, a comment-only line and a \x1c line boundary before the fault
        (HEADER_2 + "\n \t\n; note\nrow 0 1 0\x1crow 1 1 2\n",
         "row target 2 outside [0,2)", 10),
        (HEADER_2 + "row 1 1 1\n\n;\nrow 1 0 0\n", "duplicate row for state 1", 9),
        # a full block, then more content after blank lines
        (HEADER_2 + "row 1 1 1\nrow 0 1 0\n\n  \nrow 1 0 0\n",
         "unexpected content 'row 1 0 0' after last row", 10),
        (HEADER_2 + "row 0 1 0\nrow 1 1 1\n\n; end\nrow\n",
         "unexpected content 'row' after last row", 10),
        # too few rows
        (HEADER_2 + "row 0 1 0\n\n; end\n",
         "unexpected end of input, expected 'row <q> <2 targets>'", None),
        (HEADER_2, "unexpected end of input, expected 'row <q> <2 targets>'", None),
        # the block's shape is checked by counts: line count, lines starting
        # with "row", token total and "row" at every (2 + width)-th token.
        # A row spilling onto the next line, with the right token total:
        (HEADER_A2 + "row 0 1 row\n1 0\n", "row needs 1 targets for alphabet 'a', got 2", 6),
        (HEADER_A2 + "row 0\n1 row 1 0\n", "row needs 1 targets for alphabet 'a', got 0", 6),
        # a row token in the middle of a line
        (HEADER_2 + "row 0 row 1\nrow 1 0 1\n", "expected row target, got 'row'", 6),
        (HEADER_A2 + "row row 0\nrow 1 0\n", "expected row state, got 'row'", 6),
        (HEADER_A2 + "row 0 1\nrow 1 row\n", "expected row target, got 'row'", 7),
        # a first token that only starts with "row"
        (HEADER_A2 + "row0 1\nrow 1 0\n", "expected 'row ...', got 'row0'", 6),
        (HEADER_A2 + "rowx 0 1\nrow 1 0\n", "expected 'row ...', got 'rowx'", 6),
        (HEADER_A2 + "row 0 1\nrow1 0 0\n", "expected 'row ...', got 'row1'", 7),
        # a faulty accepting line is reported before any row fault, whether
        # the block's shape, its numerals or its state set is at fault
        (HEADER_2.replace("accepting 1", "accepting x") + "row 0 1 0\nrow 1 1 2\n",
         "expected accepting state, got 'x'", 5),
        (HEADER_2.replace("accepting 1", "accepting -1") + "row 0 1 0 row\n1 1 1\n",
         "accepting state -1 outside [0,2)", 5),
        (HEADER_2.replace("accepting 1", "accepting 0 2") + "row 0 1 0\nrow 0 1 1\n",
         "accepting state 2 outside [0,2)", 5),
        (HEADER_2.replace("accepting 1", "accepting 1 +x"), "expected accepting state, got '+x'", 5),
    ],
)
def test_parse_row_block_faults_name_the_line(text, message, line):
    for parse in (parse_dfa, parse_dfa_reference):
        with pytest.raises(DfaParseError) as err:
            parse(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_parse_accepting_line_reads_numerals_like_int():
    text = "dfa v1\nalphabet a\nstates 3\ninitial 0\naccepting +1 02 01\nrow 0 1\nrow 1 2\nrow 2 0\n"
    d = parse_dfa(text)
    assert d.accepting == {1, 2}
    assert d == parse_dfa_reference(text)
    assert_parsed_value(d)


@pytest.mark.parametrize(
    "tokens, message",
    [
        ("1 1.0 -1 3", "expected accepting state, got '1.0'"),
        ("1 -1 1.0 3", "accepting state -1 outside [0,3)"),
        ("1 3 1.0 -1", "accepting state 3 outside [0,3)"),
        # only a state below 0 is faulty: a max-only range check would pass it
        ("2 -1 1", "accepting state -1 outside [0,3)"),
        ("+1 x", "expected accepting state, got 'x'"),
    ],
)
def test_parse_accepting_line_names_the_first_faulty_token(tokens, message):
    # comment and blank lines move the accepting line to line 7
    text = f"; header\ndfa v1\nalphabet a\nstates 3\n\ninitial 0\naccepting {tokens}\nrow 0 0\n"
    for parse in (parse_dfa, parse_dfa_reference):
        with pytest.raises(DfaParseError) as err:
            parse(text)
        assert err.value.line == 7
        assert str(err.value) == f"line 7: {message}"


# the row block's canonical numerals are read by lookup in a table built
# for the parse; any other numeral sends the block to the line walk
@pytest.mark.parametrize(
    "spell",
    [
        lambda t: f"0{t}",
        lambda t: f"+{t}",
        lambda t: str(t).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    ],
    ids=["leading-zero", "plus-sign", "arabic-indic"],
)
def test_parse_row_block_reads_a_loose_numeral_like_int(rng, spell):
    d = random_dfa(rng, 500)
    lines = serialize_dfa(d).splitlines()
    assert lines[5].startswith("row 0 ")
    lines[5] = f"row 0 {spell(d.delta[0][0])} {d.delta[0][1]}"
    text = "\n".join(lines)
    parsed = parse_dfa(text)
    assert parsed == d == parse_dfa_reference(text)
    assert_parsed_value(parsed)


def test_parse_row_lines_with_loose_whitespace():
    # lines led by tabs and spaces, trailing whitespace, \x1c line
    # boundaries; then no-break and ideographic spaces, which str.strip
    # drops as str.split splits on them
    text = HEADER_2 + " \trow 1 1 1\t \x1c\t row 0 1 0 \x1c\n  \t\n"
    parsed = parse_dfa(text)
    assert parsed == Dfa("ab", [(1, 0), (1, 1)], 0, {1}) == parse_dfa_reference(text)
    assert_parsed_value(parsed)
    text = HEADER_2 + "\xa0row\xa01 1 1\u3000\n\trow 0\u20031 0\r\n"
    assert parse_dfa(text) == parsed == parse_dfa_reference(text)


def test_parse_accepting_line_reads_through_the_rows_table(rng):
    d = random_dfa(rng, 500)
    lines = serialize_dfa(d).splitlines()
    assert lines[4].startswith("accepting")
    canonical = "\n".join(lines)
    assert parse_dfa(canonical) == d == parse_dfa_reference(canonical)
    # tokens outside the table send the line through int()
    lines[4] = "accepting +1 01 ٣ " + lines[4].removeprefix("accepting")
    text = "\n".join(lines)
    parsed = parse_dfa(text)
    assert parsed == parse_dfa_reference(text)
    assert parsed.accepting == d.accepting | {1, 3}
    assert_parsed_value(parsed)
    # a canonical numeral past the last state is not in the table either
    lines[4] = "accepting 0 499 500"
    text = "\n".join(lines)
    for parse in (parse_dfa, parse_dfa_reference):
        with pytest.raises(DfaParseError, match=r"^line 5: accepting state 500 outside \[0,500\)$"):
            parse(text)


# ---------------------------------------------------------------------
# product
# ---------------------------------------------------------------------

def test_product_self_difference_is_empty(example_a):
    assert shortest_accepted(product(example_a, example_a, XOR)) is None


def test_product_difference_contains_separating_word(example_a, example_b):
    diff = product(example_a, example_b, AND_NOT)
    assert diff.accepts("a" * 7)
    assert shortest_accepted(diff) is not None


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


# ---------------------------------------------------------------------
# shortest accepted word (the shortest word separating from the empty language)
# ---------------------------------------------------------------------

def test_shortest_word_empty_language(empty_lang):
    assert shortest_accepted(empty_lang) is None


def test_shortest_word_initial_accepting():
    loop = Dfa("01#", [(2, 1, 2), (2, 2, 0), (2, 2, 2)], 0, {0})
    assert shortest_accepted(loop) == ""


def test_shortest_word_of_difference_is_a7(example_a, example_b):
    assert shortest_accepted(product(example_a, example_b, XOR)) == "a" * 7


def test_shortest_word_alphabet_order_tie_break():
    # accepts exactly {"ab", "ba"}; BFS explores 'a' first
    d = Dfa(
        "ab",
        [(1, 2), (4, 3), (3, 4), (4, 4), (4, 4)],
        0,
        {3},
    )
    assert shortest_accepted(d) == "ab"


def test_shortest_word_is_minimal(rng):
    for _ in range(25):
        d = random_dfa(rng, rng.randint(1, 5))
        got = shortest_accepted(d)
        accepted = language_up_to(d, 6)
        if got is None:
            assert accepted == []
        else:
            assert got == accepted[0]


@given(dfas())
def test_shortest_word_none_iff_subset_of_empty(d):
    empty = Dfa(d.alphabet, [(0,) * len(d.alphabet)], 0, set())
    assert (shortest_accepted(d) is None) == is_subset(d, empty)


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
    with pytest.raises(AlphabetError):
        is_equivalent(example_a, Dfa("b", [(0,)], 0, set()))


@pytest.mark.parametrize(
    "check, agree",
    [(is_subset, lambda x, y: y or not x), (is_equivalent, lambda x, y: x == y)],
    ids=["is_subset", "is_equivalent"],
)
def test_subset_matches_exhaustive_word_check(rng, check, agree):
    # words up to |a|*|b| decide inclusion and equivalence outright: a
    # shortest counterexample never revisits a product state
    for _ in range(25):
        alphabet = rng.choice(["ab", "01#"])
        cap = 14 if len(alphabet) == 2 else 9
        while True:
            a = random_dfa(rng, rng.randint(1, 4), alphabet)
            b = random_dfa(rng, rng.randint(1, 4), alphabet)
            if a.state_count * b.state_count <= cap:
                break
        limit = a.state_count * b.state_count
        expected = all(agree(a.accepts(w), b.accepts(w)) for w in all_words(alphabet, limit))
        assert check(a, b) == expected


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
    assert states_pairwise_distinguishable(m)
    # the canonical numbering is BFS order from the initial state
    assert m.reachable_states() == list(range(m.state_count))
    assert m.minimize() is m
    # the flag that marks m as minimal takes no part in value semantics
    copy = parse_dfa(serialize_dfa(m))
    assert copy == m
    assert hash(copy) == hash(m)
    assert repr(copy) == repr(m)
    assert "_minimal" not in repr(m)
    # a parsed copy carries no flag, so this runs the refinement again
    assert copy.minimize() == m


def test_only_minimize_marks_a_dfa_minimal():
    # two equivalent states, parsed or built by hand: still merged
    text = "dfa v1\nalphabet ab\nstates 2\ninitial 0\naccepting 0 1\nrow 0 1 0\nrow 1 1 0\n"
    for d in (parse_dfa(text), Dfa("ab", [(1, 0), (1, 0)], 0, {0, 1})):
        m = d.minimize()
        assert m is not d
        assert m.state_count == 1
        assert m == Dfa("ab", [(0, 0)], 0, {0})


def test_minimize_output_passes_the_public_constructor(rng):
    # minimize sets its output's fields without the constructor's row
    # check; each output must pass that check unchanged
    for _ in range(200):
        alphabet = rng.choice(["a", "ab", "01#"])
        assert_checked_copy(random_dfa(rng, rng.randint(1, 12), alphabet).minimize())


def test_minimize_canonical_under_isomorphism(rng):
    def check(d):
        m = d.minimize()
        assert is_equivalent(d, m)
        assert serialize_dfa(permuted_copy(d, rng).minimize()) == serialize_dfa(m)

    for _ in range(200):
        check(random_dfa(rng, rng.randint(2, 7)))
    # large inputs, so the refinement runs through many splits
    for _ in range(5):
        check(random_dfa(rng, 300, "01#"))
        delta = [(rng.randrange(300), rng.randrange(300)) for _ in range(300)]
        check(Dfa("ab", delta, 0, {q for q in range(300) if rng.random() < 0.1}))


def test_minimize_chain_is_not_quadratic():
    # `a` advances, `b` resets, the last state accepts: every state is its
    # own class, and a refinement that copies a whole block on each split
    # takes quadratic time here
    n = 20_000
    chain = Dfa("ab", [(min(q + 1, n - 1), 0) for q in range(n)], 0, {n - 1})
    start = time.perf_counter()
    assert chain.minimize().state_count == n
    assert time.perf_counter() - start < 2.0


def test_nerode_count_universal_language():
    assert Dfa("ab", [(0, 0)], 0, {0}).minimize().state_count == 1


def test_nerode_count_block_loop():
    loop = Dfa("01#", [(2, 1, 2), (2, 2, 0), (2, 2, 2)], 0, {0})
    assert loop.minimize().state_count == 3


def test_nerode_count_matches_residual_table(rng):
    for _ in range(8):
        d = random_dfa(rng, 8)
        assert d.minimize().state_count == nerode_class_count_oracle(d)


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
