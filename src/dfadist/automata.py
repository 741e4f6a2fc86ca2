"""Complete deterministic finite automata and the classical language algebra.

States are dense indices 0..m-1 and the transition table is total by
construction, so every operation can assume a complete DFA.  Provides:

- immutable ``Dfa`` values with run/accept simulation
- two walks over the state pairs two automata reach together: a yes/no
  walk behind inclusion and equivalence, and a BFS that numbers the
  pairs, keeps their successor columns and rebuilds a shortest witness word
- Hopcroft minimization, its blocks numbered in BFS order, and
  ``_canonical_dfa``, which numbers the states of an automaton minimal
  by construction the same way
- the line-based ``.dfa`` text format and Graphviz DOT export
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

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
    # set only by _trusted_dfa: true for the output of minimize and of
    # _canonical_dfa, each its own minimization; false for parse_dfa's,
    # which checks every fact of its file itself, so a parsed file is
    # never taken as minimal
    _minimal: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.alphabet, str):
            object.__setattr__(self, "alphabet", Alphabet(self.alphabet))
        # from a list: tuple() of a generator allocates 10 slots and then
        # resizes, so each freed table fills CPython's tuple free list of
        # another size, which only a full collection empties again
        object.__setattr__(self, "delta", tuple([tuple(row) for row in self.delta]))
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

    def minimize(self) -> Dfa:
        """Unique minimal complete DFA for the same language.

        Partition refinement (Hopcroft) over the reachable states.  Each
        block is numbered, and its row read off, at its first state in
        ``reachable_states`` order.  All states of a block have the same
        successor blocks, so that is BFS order over the blocks, and the
        result is deterministic: minimize returns its own output
        unchanged.  Unreachable states are dropped.
        """
        if self._minimal:
            return self
        reachable = self.reachable_states()
        block_of = _hopcroft(self, reachable)
        new_id: dict[int, int] = {}
        order = []  # the first state of each block
        for q in reachable:
            if block_of[q] not in new_id:
                new_id[block_of[q]] = len(order)
                order.append(q)
        delta = [tuple([new_id[block_of[t]] for t in self.delta[q]]) for q in order]
        accepting = {i for i, q in enumerate(order) if q in self.accepting}
        return _trusted_dfa(self.alphabet, delta, 0, accepting, minimal=True)

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


def _trusted_dfa(
    alphabet: Alphabet,
    delta: list[tuple[int, ...]],
    initial: int,
    accepting: Iterable[int],
    minimal: bool,
) -> Dfa:
    """The Dfa of fields whose facts the caller has already checked, set
    directly, without ``__post_init__``'s second pass over every row.

    The caller vouches for what ``__post_init__`` checks: at least one
    row, each a tuple of ``len(alphabet)`` exact ints in [0, m), and an
    initial state and accepting states that are exact ints in [0, m).
    ``minimize`` and ``_canonical_dfa`` number their rows so by
    construction and pass ``minimal=True``: each output is its own
    minimization.  ``parse_dfa`` checks every fact of its file itself and
    passes ``minimal=False``: a parsed file is never taken as minimal.
    Every other Dfa goes through the checked constructor.
    """
    dfa = object.__new__(Dfa)
    object.__setattr__(dfa, "alphabet", alphabet)
    # from a list, as in __post_init__
    object.__setattr__(dfa, "delta", tuple(delta))
    object.__setattr__(dfa, "initial", initial)
    object.__setattr__(dfa, "accepting", frozenset(accepting))
    object.__setattr__(dfa, "_minimal", minimal)
    return dfa


def _canonical_dfa(
    alphabet: Alphabet,
    start: Hashable,
    successors: Callable[[Hashable], Sequence[Hashable]],
    accepts: Callable[[Hashable], bool],
) -> Dfa:
    """DFA of the keys reachable from ``start``, in ``minimize``'s numbering.

    ``successors(key)`` lists a key's successor keys in alphabet order.
    The keys are numbered in breadth-first discovery order from
    ``start``, which is how ``minimize`` numbers its blocks.  The caller
    vouches that distinct keys have distinct languages: the result is
    then its own minimization, and it is marked so.
    """
    ids = {start: 0}
    order = [start]
    delta = []
    for key in order:
        row = []
        for succ in successors(key):
            j = ids.get(succ)
            if j is None:
                j = ids[succ] = len(order)
                order.append(succ)
            row.append(j)
        delta.append(tuple(row))
    accepting = {j for j, key in enumerate(order) if accepts(key)}
    return _trusted_dfa(alphabet, delta, 0, accepting, minimal=True)


def _hopcroft(dfa: Dfa, reachable: list[int]) -> list[int]:
    """Hopcroft's refinement restricted to the reachable states.

    Returns, indexed by state id, each reachable state's block number in
    the coarsest partition into language-equivalence classes.  A split
    moves only the states the splitter reached, into a new block.
    """
    final = {q for q in reachable if q in dfa.accepting}
    blocks = [final, set(reachable) - final]
    # indexed by state id (ids are dense); unreachable states keep block 1
    # and no predecessors, and are never read
    m = dfa.state_count
    block_of = [1] * m
    for q in final:
        block_of[q] = 0
    if not blocks[0] or not blocks[1]:
        return block_of

    preds: list[list[list[int]]] = [[[] for _ in range(m)] for _ in dfa.alphabet.symbols]
    for q in reachable:
        for c, t in enumerate(dfa.delta[q]):
            preds[c][t].append(q)

    # a set: the coarsest partition is unique, so pop order cannot matter
    worklist = {0 if len(blocks[0]) <= len(blocks[1]) else 1}
    while worklist:
        # a copy: the splitter may split itself, and every symbol must see all of it
        splitter = tuple(blocks[worklist.pop()])
        for pred in preds:
            affected: dict[int, set[int]] = {}
            for target in splitter:
                for q in pred[target]:
                    affected.setdefault(block_of[q], set()).add(q)
            for b, part in affected.items():
                block = blocks[b]
                if len(part) == len(block):
                    continue
                block.difference_update(part)
                new = len(blocks)
                blocks.append(part)
                for q in part:
                    block_of[q] = new
                worklist.add(new if b in worklist or len(part) <= len(block) else b)
    return block_of


def _pair_search(
    a: Dfa, b: Dfa, stop: Callable[[int, int], bool] | None = None
) -> tuple[list[tuple[int, int]], list[list[int]], Word | None]:
    """BFS over the state pairs that ``a`` and ``b`` reach together.

    Successors go in alphabet order and pairs are numbered in discovery
    order from the initial pair.  Returns at the first pair satisfying
    ``stop``, tested as it is expanded, with ``(pairs, step, word)``:
    ``step[c][i]`` numbers the c-th symbol's successor of each pair i
    expanded before it; the word reaches that pair (None without a hit)
    and is the first such word in length-lexicographic order, and
    ``pairs`` may hold pairs discovered past it.
    """
    _require_same_alphabet(a, b)
    width = len(a.alphabet)
    start = (a.initial, b.initial)
    index = {start: 0}
    pairs = [start]
    parent = [0]  # parent number * width + symbol index; unused for pair 0
    step: list[list[int]] = [[] for _ in range(width)]
    for i, (s, t) in enumerate(pairs):
        if stop is not None and stop(s, t):
            letters = []
            while i:
                i, c = divmod(parent[i], width)
                letters.append(a.alphabet.symbols[c])
            return pairs, step, "".join(reversed(letters))
        arow, brow = a.delta[s], b.delta[t]
        for c in range(width):
            np = (arow[c], brow[c])
            j = index.get(np)
            if j is None:
                j = index[np] = len(pairs)
                pairs.append(np)
                parent.append(i * width + c)
            step[c].append(j)
    return pairs, step, None


def _pairs_differ(a: Dfa, b: Dfa, differ: Callable[[bool, bool], bool]) -> bool:
    """True iff some state pair that ``a`` and ``b`` reach together has
    ``differ(s accepts, t accepts)``.

    A yes/no walk: one ``seen`` set and a FIFO list, returning at the
    first such pair.  It is kept apart from ``_pair_search``, which also
    numbers the pairs, keeps their successors and parent pointers for its word;
    inclusion and equivalence read none of that.  On the 308 ``is_subset``
    calls that ``verify_lemma`` makes over the 83-formula battery (half of
    them hold, so walk every reachable pair), this walk took 5.3 ms (median
    of 30 rounds) against 7.7 ms through ``_pair_search``, and one kernel
    for all callers, numbering pairs and keeping parent pointers but no
    rows, took 7.6 ms.
    """
    _require_same_alphabet(a, b)
    acc_a, acc_b = a.accepting, b.accepting
    delta_a, delta_b = a.delta, b.delta
    start = (a.initial, b.initial)
    seen = {start}
    queue = [start]
    for s, t in queue:
        if differ(s in acc_a, t in acc_b):
            return True
        for pair in zip(delta_a[s], delta_b[t]):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return False


def is_subset(a: Dfa, b: Dfa) -> bool:
    """True iff L(a) is a subset of L(b).

    Equivalent to emptiness of the product of ``a`` with the complement
    of ``b``; the walk stops at the first pair where ``a`` accepts and
    ``b`` rejects.
    """
    return not _pairs_differ(a, b, operator.gt)


def is_equivalent(a: Dfa, b: Dfa) -> bool:
    """True iff both languages coincide; stops at the first differing pair."""
    return not _pairs_differ(a, b, operator.ne)


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
    per state, in any order.  Numerals are read as ``int()`` reads them.
    Any violation raises DfaParseError naming the line; of several
    faulty lines, the first in the file.

    Each fact is checked once, and the value is built from the checked
    fields without a second pass; ``_parse_int`` reads the state count
    and initial state.  A row block as ``serialize_dfa`` writes it, rows
    in state order with canonical numerals, is checked by counts, split
    once and read by lookup in a table of the canonical numerals
    (``_bulk_rows``); the accepting line shares the table.  Any other
    block is read line by line where the header's walk stopped
    (``_line_rows``), to the same values and errors but about three
    times slower; the accepting line is read first, so its fault wins.
    """
    raw = text.splitlines()
    if _COMMENT_CHAR in text:
        raw = [line.partition(_COMMENT_CHAR)[0] for line in raw]
    lines = filter(itemgetter(1), enumerate(map(str.split, raw), start=1))

    def take(what: str, keyword: str | None = None) -> tuple[int, list[str]]:
        line = next(lines, None)
        if line is None:
            raise DfaParseError(f"unexpected end of input, expected {what}")
        if keyword is not None and (len(line[1]) != 2 or line[1][0] != keyword):
            raise DfaParseError(f"expected {what}", line[0])
        return line

    lineno, tokens = take("header 'dfa v1'")
    if tokens != ["dfa", "v1"]:
        raise DfaParseError(f"malformed header {' '.join(tokens)!r}, expected 'dfa v1'", lineno)

    lineno, tokens = take("'alphabet <symbols>'", "alphabet")
    try:
        alphabet = Alphabet(tokens[1])
    except AlphabetError as err:
        raise DfaParseError(str(err), lineno) from None

    lineno, tokens = take("'states <m>'", "states")
    m = _parse_int(tokens[1], lineno, "state count")
    if m < 1:
        raise DfaParseError(f"state count must be positive, got {m}", lineno)

    lineno, tokens = take("'initial <q>'", "initial")
    initial = _parse_int(tokens[1], lineno, "initial state", m)

    lineno, tokens = take("'accepting [q...]'")
    if tokens[0] != "accepting":
        raise DfaParseError("expected 'accepting [q...]'", lineno)
    # the lines after the accepting line, stripped, blank ones dropped, not
    # numbered: str.strip drops the whitespace that str.split splits on
    row_lines = list(filter(None, map(str.strip, islice(raw, lineno, None))))
    rows, numerals = _bulk_rows(row_lines, m, len(alphabet)) or (None, {})
    try:  # through the rows' table
        accepting = list(map(numerals.__getitem__, tokens[1:]))
    except KeyError:  # raises at the first faulty token
        accepting = [_parse_int(t, lineno, "accepting state", m) for t in tokens[1:]]
    if rows is None:
        rows = _line_rows(lines, m, alphabet)
    return _trusted_dfa(alphabet, rows, initial, accepting, minimal=False)


def _parse_int(token: str, lineno: int, what: str, m: int | None = None) -> int:
    """The numeral ``token``; with ``m``, a state id in [0, m)."""
    try:
        q = int(token)
    except ValueError:
        raise DfaParseError(f"expected {what}, got {token!r}", lineno) from None
    if m is not None and not 0 <= q < m:
        raise DfaParseError(f"{what} {q} outside [0,{m})", lineno)
    return q


def _bulk_rows(
    lines: list[str], m: int, width: int
) -> tuple[list[tuple[int, ...]], dict[str, int]] | None:
    """The m rows' targets in state order, each a tuple of exact ints in
    [0, m), and the numeral table they were read with; or None unless
    ``lines``, stripped and not blank, are exactly m rows for the states
    0 to m-1 in order, with canonical numerals in [0, m).

    The block's shape is checked by counts, then it is split once.  With
    m lines, each starting with ``row``, and m * (2 + width) tokens whose
    every (2 + width)-th one is ``row``, each line holds exactly one row:
    every other token must read as a numeral, so each line's first
    token sits in one of the m ``row`` places, and each line spans one
    row's tokens, not spilling onto the next.  Then each numeral is read
    by one lookup in a table of ``"0"`` to ``str(m - 1)``, which also
    checks its range.
    """
    stride = 2 + width
    if len(lines) != m:
        return None
    # splitlines left no "\n" in a line, so each "\nrow" starts a line
    block = "\n" + "\n".join(lines)
    if block.count("\nrow") != m:
        return None
    tokens = block.split()
    if len(tokens) != m * stride or tokens[::stride].count("row") != m:
        return None
    del tokens[::stride]
    # sized by the m lines already read, never by the declared count alone
    numerals = {str(q): q for q in range(m)}
    try:
        numbers = list(map(numerals.__getitem__, tokens))
    except KeyError:
        return None
    per_row = 1 + width
    if numbers[::per_row] != list(range(m)):
        return None
    return list(zip(*(numbers[c::per_row] for c in range(1, per_row)))), numerals


def _line_rows(
    lines: Iterator[tuple[int, list[str]]], m: int, alphabet: Alphabet
) -> list[tuple[int, ...]]:
    """The m rows' targets in state order, the (line number, tokens)
    ``lines`` checked one by one, numerals read by ``int()``; or the
    error of the first faulty line: a faulty row, content past the m-th
    row, or else too few rows."""
    width = len(alphabet)
    # grown by the rows read, never sized by the declared count
    by_state: dict[int, tuple[int, ...]] = {}
    for lineno, tokens in lines:
        if len(by_state) == m:
            raise DfaParseError(f"unexpected content {' '.join(tokens)!r} after last row", lineno)
        if tokens[0] != "row":
            raise DfaParseError(f"expected 'row ...', got {tokens[0]!r}", lineno)
        if len(tokens) != 2 + width:
            raise DfaParseError(
                f"row needs {width} targets for alphabet {alphabet.symbols!r}, "
                f"got {len(tokens) - 2}",
                lineno,
            )
        q = _parse_int(tokens[1], lineno, "row state", m)
        if q in by_state:
            raise DfaParseError(f"duplicate row for state {q}", lineno)
        by_state[q] = tuple([_parse_int(t, lineno, "row target", m) for t in tokens[2:]])
    if len(by_state) < m:
        raise DfaParseError(f"unexpected end of input, expected 'row <q> <{width} targets>'")
    return [by_state[q] for q in range(m)]


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
