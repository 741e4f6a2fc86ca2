"""Complete deterministic finite automata and the classical language algebra.

States are dense indices 0..m-1 and the transition table is total by
construction, so every operation can assume a complete DFA.  Provides:

- immutable ``Dfa`` values with run/accept simulation, complement
- one early-exit BFS over the state pairs two automata reach together,
  behind the product (reachable pairs only), the shortest accepted word
  (alphabet-order tie break), inclusion and equivalence; the last three
  stop at the first witness pair and rebuild it from parent pointers
- Hopcroft minimization with canonical BFS state numbering
- the line-based ``.dfa`` text format and Graphviz DOT export
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

Word = str

# Reserved: starts a comment in the .dfa format, so it can never round-trip.
_COMMENT_CHAR = ";"


class AutomataError(Exception):
    """Base class for automata-layer failures."""


class AlphabetError(AutomataError):
    """Mismatched operand alphabets, or a symbol outside an alphabet."""


class DfaParseError(AutomataError):
    """Malformed ``.dfa`` input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct printable, non-whitespace symbols.

    The symbol order is significant: it defines transition-row column
    order and every tie break that depends on it.
    """

    symbols: str
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.symbols:
            raise AlphabetError("alphabet must not be empty")
        for c in self.symbols:
            if not c.isprintable() or c.isspace():
                raise AlphabetError(f"symbol {c!r} is not printable or is whitespace")
            if c == _COMMENT_CHAR:
                raise AlphabetError(f"symbol {_COMMENT_CHAR!r} is reserved for comments")
        if len(set(self.symbols)) != len(self.symbols):
            raise AlphabetError(f"duplicate symbol in alphabet {self.symbols!r}")
        object.__setattr__(self, "_pos", {c: i for i, c in enumerate(self.symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._pos[symbol]
        except KeyError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet {self.symbols!r}") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return isinstance(symbol, str) and symbol in self._pos


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: total transition table over an explicit alphabet.

    ``delta[q][c]`` is the successor of state ``q`` on the ``c``-th
    alphabet symbol.  Values are immutable; all operations return new
    automata.
    """

    alphabet: Alphabet
    delta: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    def __post_init__(self):
        if isinstance(self.alphabet, str):
            object.__setattr__(self, "alphabet", Alphabet(self.alphabet))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        m = len(self.delta)
        if m == 0:
            raise AutomataError("a DFA needs at least one state")
        width = len(self.alphabet)
        # state ids are exactly int: a bool would serialize as True/False,
        # a float would fail as an index
        for q, row in enumerate(self.delta):
            if len(row) != width:
                raise AutomataError(f"row {q} has {len(row)} entries, expected {width}")
            for t in row:
                if type(t) is not int or not 0 <= t < m:
                    raise AutomataError(f"row {q} target {t!r} is not a state in [0,{m})")
        if type(self.initial) is not int or not 0 <= self.initial < m:
            raise AutomataError(f"initial state {self.initial!r} is not a state in [0,{m})")
        for q in self.accepting:
            if type(q) is not int or not 0 <= q < m:
                raise AutomataError(f"accepting state {q!r} is not a state in [0,{m})")

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def step(self, state: int, symbol: str) -> int:
        return self.delta[state][self.alphabet.index(symbol)]

    def run(self, word: Word) -> int:
        """State reached from the initial state after reading ``word``."""
        pos = self.alphabet._pos
        state = self.initial
        delta = self.delta
        try:
            for c in word:
                state = delta[state][pos[c]]
        except KeyError as err:
            raise AlphabetError(
                f"symbol {err.args[0]!r} not in alphabet {self.alphabet.symbols!r}"
            ) from None
        return state

    def accepts(self, word: Word) -> bool:
        """Iterated table lookup; true iff the word ends in an accepting state."""
        return self.run(word) in self.accepting

    def complement(self) -> Dfa:
        """Same states and transitions, accepting set flipped."""
        flipped = frozenset(range(self.state_count)) - self.accepting
        return Dfa(self.alphabet, self.delta, self.initial, flipped)

    def reachable_states(self) -> list[int]:
        """States reachable from the initial one, in BFS discovery order."""
        seen = {self.initial}
        order = [self.initial]
        for q in order:
            for t in self.delta[q]:
                if t not in seen:
                    seen.add(t)
                    order.append(t)
        return order

    def shortest_accepted_word(self) -> Word | None:
        """Minimum-length accepted word, or None iff the language is empty.

        Pair search over the diagonal; ties go to the earlier alphabet
        symbol, so the result is the lexicographically first among the
        shortest accepted words.
        """
        accepting = self.accepting
        return _pair_search(self, self, lambda s, _: s in accepting)[2]

    def minimize(self) -> Dfa:
        """Unique minimal complete DFA for the same language.

        Partition refinement (Hopcroft) over the reachable states, then
        canonical renumbering in BFS order with alphabet-ordered edges,
        so the result is deterministic and minimize is idempotent.
        Unreachable states are dropped.
        """
        reachable = self.reachable_states()
        blocks = _hopcroft(self, reachable)
        block_of = {}
        for i, block in enumerate(blocks):
            for q in block:
                block_of[q] = i
        width = len(self.alphabet)
        quot_delta = []
        for block in blocks:
            rep = next(iter(block))
            quot_delta.append([block_of[self.delta[rep][c]] for c in range(width)])
        quot_accepting = {i for i, block in enumerate(blocks) if next(iter(block)) in self.accepting}
        quot_initial = block_of[self.initial]
        return _bfs_renumber(self.alphabet, quot_delta, quot_initial, quot_accepting)

    def nerode_class_count(self) -> int:
        """Number of equivalence classes of the language's residual relation."""
        return self.minimize().state_count

    def to_dot(self) -> str:
        """Graphviz digraph with an entry arrow and doublecircle accepting states."""
        lines = ["digraph {", "  rankdir=LR;", "  start [shape=point];", f"  start -> {self.initial};"]
        for q in range(self.state_count):
            shape = "doublecircle" if q in self.accepting else "circle"
            lines.append(f"  {q} [shape={shape}];")
        for q, row in enumerate(self.delta):
            for c, t in zip(self.alphabet.symbols, row):
                label = c.replace("\\", "\\\\").replace('"', '\\"')
                lines.append(f'  {q} -> {t} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _hopcroft(dfa: Dfa, reachable: list[int]) -> list[frozenset[int]]:
    """Hopcroft's refinement restricted to the reachable states.

    Returns the coarsest partition into language-equivalence classes,
    as a deterministically ordered list of blocks.
    """
    states = set(reachable)
    final = frozenset(q for q in reachable if q in dfa.accepting)
    nonfinal = frozenset(states - final)
    partition = {b for b in (final, nonfinal) if b}
    if len(partition) <= 1:
        return [frozenset(states)]

    preds: dict[tuple[int, int], list[int]] = {}
    width = len(dfa.alphabet)
    for q in reachable:
        row = dfa.delta[q]
        for c in range(width):
            preds.setdefault((c, row[c]), []).append(q)

    block_of = {}
    for block in partition:
        for q in block:
            block_of[q] = block

    # a set: the coarsest partition is unique, so pop order cannot matter
    worklist = {min(final, nonfinal, key=len)}
    while worklist:
        splitter = worklist.pop()
        for c in range(width):
            affected: dict[frozenset[int], set[int]] = {}
            for target in splitter:
                for q in preds.get((c, target), ()):
                    affected.setdefault(block_of[q], set()).add(q)
            for block, overlap in affected.items():
                if len(overlap) == len(block):
                    continue
                part1 = frozenset(overlap)
                part2 = block - part1
                partition.remove(block)
                partition.add(part1)
                partition.add(part2)
                for q in part1:
                    block_of[q] = part1
                for q in part2:
                    block_of[q] = part2
                if block in worklist:
                    worklist.remove(block)
                    worklist |= {part1, part2}
                else:
                    worklist.add(min(part1, part2, key=len))

    # order blocks by their smallest member for reproducibility
    return sorted(partition, key=min)


def _bfs_renumber(
    alphabet: Alphabet,
    delta: Sequence[Sequence[int]],
    initial: int,
    accepting: Iterable[int],
) -> Dfa:
    """Renumber states by BFS discovery order from the initial state."""
    accepting = set(accepting)
    width = len(alphabet)
    new_id = {initial: 0}
    order = [initial]
    for q in order:
        for c in range(width):
            t = delta[q][c]
            if t not in new_id:
                new_id[t] = len(order)
                order.append(t)
    new_delta = [[new_id[delta[q][c]] for c in range(width)] for q in order]
    new_accepting = {new_id[q] for q in order if q in accepting}
    return Dfa(alphabet, new_delta, 0, new_accepting)


def _pair_search(
    a: Dfa, b: Dfa, stop: Callable[[int, int], bool] | None = None
) -> tuple[list[tuple[int, int]], list[list[int]], Word | None]:
    """BFS over the state pairs that ``a`` and ``b`` reach together.

    Successors go in alphabet order and pairs are numbered in discovery
    order from the initial pair.  Returns at the first discovered pair
    satisfying ``stop``, with ``(pairs, rows of the expanded pairs,
    word)``; the word reaches that pair (None without a hit) and is the
    first such word in length-lexicographic order.
    """
    _require_same_alphabet(a, b)
    width = len(a.alphabet)
    start = (a.initial, b.initial)
    if stop is not None and stop(*start):
        return [start], [], ""
    index = {start: 0}
    pairs = [start]
    parent = [0]  # parent number * width + symbol index; unused for pair 0
    rows = []
    for i, (s, t) in enumerate(pairs):
        arow, brow = a.delta[s], b.delta[t]
        row = []
        for c in range(width):
            np = (arow[c], brow[c])
            j = index.get(np)
            if j is None:
                j = index[np] = len(pairs)
                pairs.append(np)
                parent.append(i * width + c)
                if stop is not None and stop(*np):
                    letters = []
                    while j:
                        j, c = divmod(parent[j], width)
                        letters.append(a.alphabet.symbols[c])
                    return pairs, rows, "".join(reversed(letters))
            row.append(j)
        rows.append(row)
    return pairs, rows, None


def product(a: Dfa, b: Dfa, combine: Callable[[bool, bool], bool]) -> Dfa:
    """Reachable product automaton; acceptance is ``combine`` of the parts.

    Only pairs reachable from the pair of initial states are
    materialized, indexed in BFS discovery order.
    """
    pairs, rows, _ = _pair_search(a, b)
    accepting = {
        i for i, (s, t) in enumerate(pairs) if combine(s in a.accepting, t in b.accepting)
    }
    return Dfa(a.alphabet, rows, 0, accepting)


def is_subset(a: Dfa, b: Dfa) -> bool:
    """True iff L(a) is a subset of L(b).

    Equivalent to emptiness of the product of ``a`` with the complement
    of ``b``; the pair search stops at the first violating pair.
    """
    acc_a, acc_b = a.accepting, b.accepting
    return _pair_search(a, b, lambda s, t: s in acc_a and t not in acc_b)[2] is None


def is_equivalent(a: Dfa, b: Dfa) -> bool:
    """True iff both languages coincide; stops at the first differing pair."""
    acc_a, acc_b = a.accepting, b.accepting
    return _pair_search(a, b, lambda s, t: (s in acc_a) != (t in acc_b))[2] is None


def _require_same_alphabet(a: Dfa, b: Dfa) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetError(
            f"alphabet mismatch: {a.alphabet.symbols!r} vs {b.alphabet.symbols!r}"
        )


def parse_dfa(text: str) -> Dfa:
    """Parse the ``.dfa`` text format.

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
    missing = [q for q in range(m) if q not in rows]
    if missing:
        raise DfaParseError(f"missing row for state {missing[0]}")
    return Dfa(alphabet, tuple(rows[q] for q in range(m)), initial, accepting)


def serialize_dfa(dfa: Dfa) -> str:
    """Canonical ``.dfa`` text for the value as-is (no renumbering).

    ``parse_dfa(serialize_dfa(d)) == d`` for every Dfa; canonical
    numbering is the job of ``Dfa.minimize``.
    """
    lines = [
        "dfa v1",
        f"alphabet {dfa.alphabet.symbols}",
        f"states {dfa.state_count}",
        f"initial {dfa.initial}",
        ("accepting " + " ".join(str(q) for q in sorted(dfa.accepting))).rstrip(),
    ]
    for q, row in enumerate(dfa.delta):
        lines.append("row " + str(q) + " " + " ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"
