"""Shared test helpers: independent oracles, generators, the formula battery.

Every oracle here deliberately recomputes its answer by a different
route than the code under test (exhaustive enumeration, truth tables,
residual tables, block-by-block word scans, a token-by-token parser), so
agreement is meaningful.
"""

from __future__ import annotations

import itertools
import operator
import random
from typing import Callable

from dfadist.automata import (
    _COMMENT_CHAR,
    Alphabet,
    AlphabetError,
    Dfa,
    DfaParseError,
    Word,
    _pair_search,
    _require_same_alphabet,
    is_equivalent,
)
from dfadist.distinguish import Orientation, SynthOutcome, _loop_dfa
from dfadist.reduction import REDUCTION_ALPHABET, CnfFormula


def all_words(alphabet: str, max_len: int):
    """Every word over the alphabet up to the given length, shortest first."""
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield "".join(tup)


def language_up_to(dfa: Dfa, max_len: int) -> list[str]:
    return [w for w in all_words(dfa.alphabet.symbols, max_len) if dfa.accepts(w)]


def assert_checked_copy(dfa: Dfa) -> None:
    """``dfa`` equals its copy through the public, checked constructor,
    and its fields have the types that constructor stores."""
    copy = Dfa(dfa.alphabet, [list(row) for row in dfa.delta], dfa.initial, set(dfa.accepting))
    assert copy == dfa
    assert type(dfa.alphabet) is Alphabet
    assert type(dfa.delta) is tuple
    assert all(type(row) is tuple for row in dfa.delta)
    assert all(type(t) is int for row in dfa.delta for t in row)
    assert type(dfa.initial) is int
    assert type(dfa.accepting) is frozenset
    assert all(type(q) is int for q in dfa.accepting)


def assert_parsed_value(dfa: Dfa) -> None:
    """``dfa``, which ``parse_dfa`` built from checked fields without the
    constructor, passes that constructor, and carries no minimal mark: a
    parsed file is never taken as minimal, so ``minimize`` refines it."""
    assert_checked_copy(dfa)
    assert dfa._minimal is False


def random_dfa(rng: random.Random, states: int, alphabet: str = "ab") -> Dfa:
    delta = [tuple(rng.randrange(states) for _ in alphabet) for _ in range(states)]
    accepting = {q for q in range(states) if rng.random() < 0.5}
    return Dfa(alphabet, delta, rng.randrange(states), accepting)


def _random_pairs(seed: int, count: int, alphabet: str, states: tuple[int, int], keep):
    """The first ``count`` inequivalent random pairs that ``keep`` accepts."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a = random_dfa(rng, rng.randint(*states), alphabet)
        b = random_dfa(rng, rng.randint(*states), alphabet)
        if not is_equivalent(a, b) and keep(a, b):
            pairs.append((a, b))
    return pairs


def random_pair_battery() -> list[tuple[Dfa, Dfa]]:
    """120 inequivalent pairs of 1-4 state DFAs over ``ab`` (seed 5)."""
    return _random_pairs(5, 120, "ab", (1, 4), lambda a, b: True)


def hard_pair_battery() -> list[tuple[Dfa, Dfa]]:
    """30 inequivalent pairs of 3-6 state DFAs over ``01#`` that no
    two-state DFA separates, by the brute-force oracle (seed 13)."""
    return _random_pairs(
        13, 30, "01#", (3, 6), lambda a, b: not brute_force_min_distinguishing(a, b, 2).found
    )


def permuted_copy(dfa: Dfa, rng: random.Random) -> Dfa:
    """Isomorphic copy under a random state renaming."""
    m = dfa.state_count
    perm = list(range(m))
    rng.shuffle(perm)
    delta = [None] * m
    for q, row in enumerate(dfa.delta):
        delta[perm[q]] = tuple(perm[t] for t in row)
    return Dfa(
        dfa.alphabet,
        delta,
        perm[dfa.initial],
        {perm[q] for q in dfa.accepting},
    )


def parse_dfa_reference(text: str) -> Dfa:
    """The ``.dfa`` parser with every token of every line checked one at a
    time, in file order: ``parse_dfa``, which checks its rows in bulk,
    must return the same value or raise the same error.

    ``;`` starts a comment, blank lines are ignored.  Expected lines:
    ``dfa v1``, ``alphabet <symbols>``, ``states <m>``, ``initial <q>``,
    ``accepting [q...]``, then exactly one ``row <q> <targets...>`` line
    per state.  Any violation raises DfaParseError naming the line.
    """
    content: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split(_COMMENT_CHAR, 1)[0].strip()
        if stripped:
            content.append((lineno, stripped.split()))

    lines = iter(content)

    def take(what: str) -> tuple[int, list[str]]:
        line = next(lines, None)
        if line is None:
            raise DfaParseError(f"unexpected end of input, expected {what}")
        return line

    def parse_int(token: str, lineno: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise DfaParseError(f"expected {what}, got {token!r}", lineno) from None

    lineno, tokens = take("header 'dfa v1'")
    if tokens != ["dfa", "v1"]:
        raise DfaParseError(f"malformed header {' '.join(tokens)!r}, expected 'dfa v1'", lineno)

    lineno, tokens = take("'alphabet <symbols>'")
    if len(tokens) != 2 or tokens[0] != "alphabet":
        raise DfaParseError("expected 'alphabet <symbols>'", lineno)
    try:
        alphabet = Alphabet(tokens[1])
    except AlphabetError as err:
        raise DfaParseError(str(err), lineno) from None

    lineno, tokens = take("'states <m>'")
    if len(tokens) != 2 or tokens[0] != "states":
        raise DfaParseError("expected 'states <m>'", lineno)
    m = parse_int(tokens[1], lineno, "state count")
    if m < 1:
        raise DfaParseError(f"state count must be positive, got {m}", lineno)

    lineno, tokens = take("'initial <q>'")
    if len(tokens) != 2 or tokens[0] != "initial":
        raise DfaParseError("expected 'initial <q>'", lineno)
    initial = parse_int(tokens[1], lineno, "initial state")
    if not 0 <= initial < m:
        raise DfaParseError(f"initial state {initial} outside [0,{m})", lineno)

    lineno, tokens = take("'accepting [q...]'")
    if tokens[0] != "accepting":
        raise DfaParseError("expected 'accepting [q...]'", lineno)
    accepting = set()
    for token in tokens[1:]:
        q = parse_int(token, lineno, "accepting state")
        if not 0 <= q < m:
            raise DfaParseError(f"accepting state {q} outside [0,{m})", lineno)
        accepting.add(q)

    rows: dict[int, tuple[int, ...]] = {}
    width = len(alphabet)
    for _ in range(m):
        lineno, tokens = take(f"'row <q> <{width} targets>'")
        if tokens[0] != "row":
            raise DfaParseError(f"expected 'row ...', got {tokens[0]!r}", lineno)
        if len(tokens) != 2 + width:
            raise DfaParseError(
                f"row needs {width} targets for alphabet {alphabet.symbols!r}, "
                f"got {len(tokens) - 2}",
                lineno,
            )
        q = parse_int(tokens[1], lineno, "row state")
        if not 0 <= q < m:
            raise DfaParseError(f"row state {q} outside [0,{m})", lineno)
        if q in rows:
            raise DfaParseError(f"duplicate row for state {q}", lineno)
        targets = []
        for token in tokens[2:]:
            t = parse_int(token, lineno, "row target")
            if not 0 <= t < m:
                raise DfaParseError(f"row target {t} outside [0,{m})", lineno)
            targets.append(t)
        rows[q] = tuple(targets)

    extra = next(lines, None)
    if extra is not None:
        lineno, tokens = extra
        raise DfaParseError(f"unexpected content {' '.join(tokens)!r} after last row", lineno)
    # no row is missing: m rows were read, each for a distinct state in [0, m)
    return Dfa(alphabet, [rows[q] for q in range(m)], initial, accepting)


def complement(dfa: Dfa) -> Dfa:
    """Same states and transitions, accepting set flipped."""
    flipped = frozenset(range(dfa.state_count)) - dfa.accepting
    return Dfa(dfa.alphabet, dfa.delta, dfa.initial, flipped)


def brute_force_min_distinguishing(a1: Dfa, a2: Dfa, k_max: int) -> SynthOutcome:
    """Exhaustive synthesis oracle; intended for k_max <= 3 and small alphabets.

    Enumerates every complete k-state DFA with initial state 0 for
    k = 1..k_max: transition tables as a base-k counter (alphabet-major,
    later alphabet symbols in higher digits) and accepting sets as a
    binary counter nested inside.  Returns the first distinguishing hit.
    """
    _require_same_alphabet(a1, a2)
    if k_max < 1:
        raise ValueError(f"state budget must be positive, got {k_max}")
    width = len(a1.alphabet)
    refs = []
    for ref in (a1, a2):
        bad_states = frozenset(range(ref.state_count)) - ref.accepting
        refs.append((ref.delta, ref.initial, bad_states))
    for k in range(1, k_max + 1):
        cells = width * k
        for table in range(k**cells):
            digits = table
            flat = []
            for _ in range(cells):
                flat.append(digits % k)
                digits //= k
            # cell (c, q) lives at digit c*k + q
            delta = tuple(tuple(flat[c * k + q] for c in range(width)) for q in range(k))
            bad_masks = []
            for ref_delta, ref_initial, ref_bad in refs:
                bad = 0
                start = (0, ref_initial)
                seen = {start}
                stack = [start]
                while stack:
                    q, s = stack.pop()
                    if s in ref_bad:
                        bad |= 1 << q
                    row = delta[q]
                    rrow = ref_delta[s]
                    for c in range(width):
                        np = (row[c], rrow[c])
                        if np not in seen:
                            seen.add(np)
                            stack.append(np)
                bad_masks.append(bad)
            bad1, bad2 = bad_masks
            if bad1 == bad2:
                # inclusion verdicts coincide for every accepting set
                continue
            for mask in range(1 << k):
                inside1 = not (mask & bad1)
                inside2 = not (mask & bad2)
                if inside1 != inside2:
                    accepting = {q for q in range(k) if mask & (1 << q)}
                    dfa = Dfa(a1.alphabet, delta, 0, accepting)
                    orientation = Orientation.FIRST if inside1 else Orientation.SECOND
                    return SynthOutcome(dfa, orientation, k)
    return SynthOutcome(None, None, k_max)


def lower_grid_reference(k: int, n: int) -> Dfa:
    """The lower language's grid, numbered as built and not minimized:
    state i(k+1) + p is block i, position p; then the state after all n
    blocks and the sink.  Reference for ``build_lower_dfa``."""
    span = k + 1
    final = n * span
    sink = final + 1
    delta = []
    for i in range(n):
        for p in range(span):
            base = i * span
            if p < k:
                delta.append((base + p + 1, base + p + 1, sink))
            else:
                after = base + span if i + 1 < n else final
                delta.append((sink, sink, after))
    delta.append((sink, sink, sink))  # final
    delta.append((sink, sink, sink))  # sink
    accepting = {i * span for i in range(n)} | {final}
    return Dfa("01#", delta, 0, accepting)


def product(a: Dfa, b: Dfa, combine: Callable[[bool, bool], bool]) -> Dfa:
    """Reachable product automaton; acceptance is ``combine`` of the parts.

    Only pairs reachable from the pair of initial states are
    materialized, indexed in BFS discovery order.
    """
    pairs, step, _ = _pair_search(a, b)
    accepting = {
        i for i, (s, t) in enumerate(pairs) if combine(s in a.accepting, t in b.accepting)
    }
    return Dfa(a.alphabet, list(zip(*step)), 0, accepting)


def upper_reference(formula: CnfFormula, lower: Dfa) -> Dfa:
    """The upper DFA as the minimized union of the satisfying-prefix
    automaton with ``lower``.  Reference for ``build_upper_dfa``.

    The prefix automaton tracks (block, position, clause-already-satisfied)
    while every completed block has satisfied its clause, rejects once
    one fails, and jumps to an all-accepting absorbing state after n
    satisfying blocks.
    """
    k, n = formula.var_count, formula.clause_count
    span = k + 1
    # state (block i, position p, clause i satisfied) is 2 * (i * span + p) + sat;
    # the start of block n is the accepting absorbing state
    absorb = 2 * n * span
    sink = absorb + 1
    delta = []
    for i, clause in enumerate(formula.clauses):
        for p in range(span):
            after = 2 * (i * span + p + 1)  # next position, or the next block after '#'
            for sat in (False, True):
                if p < k:
                    on_zero = after + (sat or -(p + 1) in clause)
                    on_one = after + (sat or (p + 1) in clause)
                    delta.append((on_zero, on_one, sink))
                else:
                    delta.append((sink, sink, after if sat else sink))
    delta.append((absorb, absorb, absorb))
    delta.append((sink, sink, sink))
    prefix = Dfa(REDUCTION_ALPHABET, delta, 0, {absorb})
    return product(prefix, lower, operator.or_).minimize()


def cycle_candidate_reference(k: int, space) -> Dfa | None:
    """The loop pre-pass by plain enumeration: every word of k-1 letters
    in ``itertools.product`` order, no prefix cut.  Reference for
    ``distinguish._cycle_candidate``."""
    alphabet, step, goal, bad = space.alphabet, space.step, space.goal, space.bad
    if k == 1:
        return _loop_dfa(alphabet, "") if goal and not bad else None
    for word in itertools.product(range(space.width), repeat=k - 1):
        orbit = y = 0
        while not orbit >> y & 1:
            orbit |= 1 << y
            for c in word:
                y = step[c][y]
        if orbit & goal and not orbit & bad:
            return _loop_dfa(alphabet, "".join(alphabet.symbols[c] for c in word))
    return None


def dead_states(dfa: Dfa) -> set[int]:
    """States from which no accepting state is reachable, by a forward
    search from each state."""
    dead = set()
    for q in range(dfa.state_count):
        seen = {q}
        stack = [q]
        while stack:
            s = stack.pop()
            for t in dfa.delta[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if seen.isdisjoint(dfa.accepting):
            dead.add(q)
    return dead


def escape_reference(target: Dfa, other: Dfa, pair_set: frozenset) -> bool:
    """Plain subset-image search over explicit (t, x) pairs: can some
    word carry the set onto one where every t accepts and some x rejects?

    No shortcut for dead pairs and no cache; reference for
    ``_PairSpace.escape_possible``.
    """
    seen = {pair_set}
    frontier = [pair_set]
    while frontier:
        nxt = []
        for pairs in frontier:
            if all(t in target.accepting for t, _ in pairs) and any(
                x not in other.accepting for _, x in pairs
            ):
                return True
            for c in range(len(target.alphabet)):
                image = frozenset((target.delta[t][c], other.delta[x][c]) for t, x in pairs)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return False


def _clause_satisfied(clause: tuple[int, ...], bits: tuple[bool, ...]) -> bool:
    return any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)


def _split_blocks(word: Word, k: int, count: int) -> list[tuple[bool, ...]] | None:
    """First ``count`` assignment blocks of the word, or None if malformed."""
    span = k + 1
    if len(word) < span * count:
        return None
    blocks = []
    for i in range(count):
        chunk = word[i * span : (i + 1) * span]
        if chunk[k] != "#" or any(c not in "01" for c in chunk[:k]):
            return None
        blocks.append(tuple(c == "1" for c in chunk[:k]))
    return blocks


def in_lower_language(word: Word, k: int, n: int) -> bool:
    """Scan-based membership: j complete assignment blocks for some j in [0, n].

    Reference decision procedure, deliberately independent of the DFA
    construction.
    """
    span = k + 1
    if len(word) % span != 0:
        return False
    j = len(word) // span
    return j <= n and _split_blocks(word, k, j) is not None


def in_upper_language(word: Word, formula: CnfFormula) -> bool:
    """Scan-based membership: lower-language word, or n satisfying blocks
    followed by an arbitrary suffix."""
    k, n = formula.var_count, formula.clause_count
    if in_lower_language(word, k, n):
        return True
    blocks = _split_blocks(word, k, n)
    if blocks is None:
        return False
    return all(
        _clause_satisfied(clause, bits) for clause, bits in zip(formula.clauses, blocks)
    )


def nerode_class_count_oracle(dfa: Dfa) -> int:
    """Distinct rows of the residual-language table over all prefixes up
    to the state count; counts the reachable language-equivalence classes.

    Extensions up to the state count decide residual equality, because
    two distinct residuals are separated by a word shorter than the
    number of states.
    """
    m = dfa.state_count
    pos = {c: i for i, c in enumerate(dfa.alphabet.symbols)}

    def walk(state: int, word: str) -> int:
        for ch in word:
            state = dfa.delta[state][pos[ch]]
        return state

    extensions = list(all_words(dfa.alphabet.symbols, m))
    row_of_state: dict[int, tuple[bool, ...]] = {}
    rows = set()
    for prefix in all_words(dfa.alphabet.symbols, m):
        state = walk(dfa.initial, prefix)
        row = row_of_state.get(state)
        if row is None:
            row = tuple(walk(state, z) in dfa.accepting for z in extensions)
            row_of_state[state] = row
        rows.add(row)
    return len(rows)


def states_pairwise_distinguishable(dfa: Dfa) -> bool:
    """Marking-based oracle: every state pair is separated by some word."""
    m = dfa.state_count
    width = len(dfa.alphabet)
    marked = {
        (p, q)
        for p in range(m)
        for q in range(m)
        if (p in dfa.accepting) != (q in dfa.accepting)
    }
    changed = True
    while changed:
        changed = False
        for p in range(m):
            for q in range(m):
                if p != q and (p, q) not in marked:
                    for c in range(width):
                        if (dfa.delta[p][c], dfa.delta[q][c]) in marked:
                            marked.add((p, q))
                            changed = True
                            break
    return all((p, q) in marked for p in range(m) for q in range(m) if p != q)


def truth_table_satisfiable(var_count: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=var_count):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


def clauses_over(var_count: int) -> list[tuple[int, ...]]:
    """All non-tautological nonempty clauses over the variables, one per
    sign assignment, in base-3 counter order."""
    out = []
    for signs in itertools.product((0, 1, -1), repeat=var_count):
        clause = tuple(s * (i + 1) for i, s in enumerate(signs) if s)
        if clause:
            out.append(clause)
    return out


CURATED_THREE_VAR = [
    CnfFormula(3, [(3,)]),
    CnfFormula(3, [(1, 2, 3)]),
    CnfFormula(3, [(1, -2), (3,)]),
    CnfFormula(3, [(-1,), (-2, 3)]),
    CnfFormula(3, [(1, 2, 3), (-1, -2)]),
]


def battery_formulas() -> list[CnfFormula]:
    """The verification battery: every formula with at most two variables
    and at most two clauses, plus the curated three-variable cases."""
    formulas = []
    for var_count in (1, 2):
        candidates = clauses_over(var_count)
        for clause_count in (1, 2):
            for combo in itertools.product(candidates, repeat=clause_count):
                formulas.append(CnfFormula(var_count, combo))
    formulas.extend(CURATED_THREE_VAR)
    return formulas
