"""Distinguishing two inequivalent DFAs.

A DFA distinguishes a pair of automata when its language is a subset of
exactly one of the two.  This module provides shortest distinguishing
words, the distinguishing predicate and exact synthesis of a minimal
distinguishing DFA.

The per-bound question is "is there a k-state DFA whose language fits
inside the target automaton and escapes the other one".
``synth_min_distinguishing`` answers it, per orientation, with a
pre-pass over loop-shaped candidates and then a dedicated backtracking
search over canonical transition tables.  The search tracks pairs (t, x) of states that the two minimized inputs
reach together: a candidate may not accept where t rejects, and it
escapes once it accepts where t accepts and x rejects.  The tests
cross-validate that search against an exhaustive brute-force oracle and
an exhaustive per-orientation feasibility reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .automata import (
    Alphabet,
    Dfa,
    Word,
    is_subset,
    _canonical_dfa,
    _pair_search,
    _require_same_alphabet,
)


class Orientation(Enum):
    """Which input the synthesized language must be a subset of.

    The other automaton is the one the language must escape: with
    ``FIRST`` the goal is L(D) inside L(a1) and not inside L(a2).
    """

    FIRST = 1
    SECOND = 2


@dataclass(frozen=True)
class SynthOutcome:
    """Result of bounded synthesis: a DFA plus orientation, or nothing.

    ``bound`` is the state budget that produced the result: the
    successful k, or the exhausted maximum.  ``nodes`` counts the search
    nodes entered (partial tables tried) over the budgets tried and both
    orientations (budget 1 needs no search); it does not take part in
    equality.
    """

    dfa: Dfa | None
    orientation: Orientation | None
    bound: int
    nodes: int = field(default=0, compare=False)

    @property
    def found(self) -> bool:
        return self.dfa is not None


def shortest_distinguishing_word(a1: Dfa, a2: Dfa) -> Word | None:
    """Shortest word accepted by exactly one automaton; None iff equivalent.

    Ties go to the earlier alphabet symbol; no product is built.
    """
    acc1, acc2 = a1.accepting, a2.accepting
    return _pair_search(a1, a2, lambda s, t: (s in acc1) != (t in acc2))[2]


def is_distinguishing(dfa: Dfa, a1: Dfa, a2: Dfa) -> bool:
    """True iff L(dfa) is a subset of exactly one of L(a1), L(a2)."""
    return is_subset(dfa, a1) != is_subset(dfa, a2)


def _rejecting_sink(dfa: Dfa) -> int | None:
    """The rejecting state that loops on every symbol, or None; a minimized DFA has one at most."""
    width, accepting = len(dfa.alphabet), dfa.accepting
    return next(
        (q for q, row in enumerate(dfa.delta) if q not in accepting and row.count(q) == width),
        None,
    )


class _PairSpace:
    """Joint tracking space for candidate synthesis against one orientation.

    A node is a pair (t, x) of states that the target and the other
    automaton reach together; the search follows candidate states
    through this space.  Synthesis builds one per orientation, and only
    for the search: when the loop pre-pass, which walks the two DFAs
    themselves, misses at some budget of 2 or more.  ``bad`` marks pairs where t rejects (accepting
    there would break inclusion in the target), ``goal`` marks pairs
    where t accepts and x rejects (accepting there certifies the
    escape).  ``goal`` is empty exactly when L(target) is inside
    L(other).  ``doomed`` marks pairs where t is the rejecting sink, a
    non-accepting state whose transitions all loop back to it: every
    image of a doomed pair is doomed and bad, so a pair set holding one
    never escapes.  The target must be minimized (synthesis minimizes
    its inputs): then its only state with an empty language, if any, is
    that sink.  On other targets ``doomed`` misses some dead pairs, which
    the shortcuts built on it allow.  ``step`` holds ``_pair_search``'s
    columns: ``step[c][y]`` numbers pair y's successor on the c-th
    symbol.  Pair sets are bitmasks; ``bit[c][y]`` is the one-pair image
    ``1 << step[c][y]``, and ``step_set`` ORs those over a set, one pair
    at a time (the spaces synthesis meets hold tens of pairs).  Only
    ``escape_possible`` reads or writes its cache of answers per mask.
    """

    def __init__(self, target: Dfa, other: Dfa):
        self.alphabet = target.alphabet
        self.width = len(target.alphabet)
        pairs, self.step, _ = _pair_search(target, other)
        self.bit = [[1 << t for t in col] for col in self.step]
        self.pairs = pairs  # (t, x) per pair number
        accepting = target.accepting
        sink = _rejecting_sink(target)
        self.bad = self.goal = self.doomed = 0
        for y, (t, x) in enumerate(pairs):
            if t not in accepting:
                self.bad |= 1 << y
                if t == sink:
                    self.doomed |= 1 << y
            elif x not in other.accepting:
                self.goal |= 1 << y
        self._escape_cache: dict[int, bool] = {}
        self.nodes = 0  # nodes entered by searches over this space

    def step_set(self, c: int, mask: int) -> int:
        """Image of a pair set under one symbol: its pairs' images ORed,
        lowest pair first."""
        bits = self.bit[c]
        out = 0
        while mask:
            low = mask & -mask
            out |= bits[low.bit_length() - 1]
            mask ^= low
        return out

    def escape_possible(self, mask: int) -> bool:
        """Can some word image of this pair set be accepted safely?

        True iff some symbol sequence turns the set into one that meets
        a goal pair while avoiding every bad pair.  A relaxation of the
        rest of a witness: if a completed table reads a witness word as
        u.v, and the set sits inside the pair set of the state u leads to
        and holds u's image of pair 0, then v's image of the set sits
        inside the accepting state's pair set (so it is bad-free) and
        holds the witness's goal pair.

        A set meeting ``doomed`` is refused at once; the breadth-first
        search (one growing list) never expands or caches such an image.
        """
        doomed = self.doomed
        if mask & doomed:
            return False
        cache = self._escape_cache
        cached = cache.get(mask)
        if cached is not None:
            return cached
        seen = {mask}
        order = [mask]
        for m in order:
            if m & self.goal and not m & self.bad:
                cache[mask] = True
                return True
            for c in range(self.width):
                image = self.step_set(c, m)
                if image & doomed or image in seen:
                    continue
                known = cache.get(image)
                if known:
                    cache[mask] = True
                    return True
                seen.add(image)
                if known is None:  # a known dead end is not expanded
                    order.append(image)
        for m in seen:
            cache[m] = False
        return False


def _loop_dfa(alphabet: Alphabet, word: Word) -> Dfa:
    """DFA of ``word`` repeated any number of times, built minimal.

    A cycle spelling the word, one state per position, plus a rejecting
    sink that takes every other symbol; only position 0 accepts.  The
    empty word's loop is the one accepting state, the universal DFA.

    No two states share a language, so ``_canonical_dfa`` numbers the
    states reached as ``minimize`` would and marks the result minimal.
    The shortest word position i accepts is the rest of the word up to
    position 0, (|word| - i) mod |word| letters, since every other symbol
    leads to the sink; so the positions differ pairwise, and each differs
    from the sink, which accepts nothing.  Over a one-letter alphabet no
    symbol leads to the sink, which is then never discovered.
    """
    sink, width = len(word), len(alphabet)  # the positions are 0..sink-1
    rows = [[sink] * width for _ in range(sink + 1)]
    for i, symbol in enumerate(word):
        rows[i][alphabet.index(symbol)] = (i + 1) % sink
    return _canonical_dfa(alphabet, 0, rows.__getitem__, {0}.__contains__)


def _cycle_candidate(k: int, target: Dfa, other: Dfa) -> Dfa | None:
    """Cheap pre-pass: a k-state candidate that loops one word forever.

    Such loops (``_loop_dfa``: one state per position of a word of k-1
    letters, plus a sink) are the natural shape of minimal distinguishers
    here, so they are tried in lexicographic order before the search.
    Only state 0 accepts, after whole copies of the word, so its pair set
    is the orbit of the initial pair (t, x) under the word: every t in it
    must accept (the loop stays inside the target) and some x must reject
    (it escapes the other input).  Shorter loops failed at lower budgets,
    or those budgets were ruled out by the caller's ``k_min``.

    Both inputs must be minimized, as synthesis makes them.  At k = 1 the
    only loop is the empty word's, the universal DFA: it wins iff the
    target is one accepting state and the other input has a rejecting
    state (every state of a minimized DFA is reachable).

    The words are walked as a tree of prefixes over the two DFAs, with
    the pair each prefix reaches on the stack; a node's two rows are read
    once for all its letters.  A prefix whose target state is the
    rejecting sink is not extended: every word through it leaves the
    target for good.  So the first loop found is the first in
    lexicographic order, without walking all of them, and no pair space
    is built.
    """
    alphabet, width = target.alphabet, len(target.alphabet)
    t_delta, t_acc = target.delta, target.accepting
    x_delta, x_acc = other.delta, other.accepting
    if k == 1:
        universal = len(t_delta) == 1 and bool(t_acc)
        return _loop_dfa(alphabet, "") if universal and len(x_acc) < len(x_delta) else None
    t0, x0 = target.initial, other.initial
    if t0 not in t_acc:  # the initial pair is on every orbit
        return None
    sink = _rejecting_sink(target)
    # depth-first over the words of k-1 letters in lexicographic order;
    # an entry (depth, c, t, x) puts letter c at ``depth`` of ``word``,
    # and (t, x) is the image of the initial pair under the prefix c ends
    last, letters = k - 1, range(width - 1, -1, -1)
    word = [0] * last
    t_row, x_row = t_delta[t0], x_delta[x0]
    stack = [(0, c, t_row[c], x_row[c]) for c in letters if t_row[c] != sink]
    while stack:
        depth, c, t, x = stack.pop()
        word[depth] = c
        depth += 1
        if depth < last:
            t_row, x_row = t_delta[t], x_delta[x]
            stack.extend([(depth, d, t_row[d], x_row[d]) for d in letters if t_row[d] != sink])
            continue
        # the target states of the initial pair's orbit are t0's orbit,
        # and its other states x0's orbit, so each DFA is walked alone
        if _orbit_accepted(t0, t, word, t_delta, t_acc) and not _orbit_accepted(
            x0, x, word, x_delta, x_acc
        ):
            return _loop_dfa(alphabet, "".join(alphabet.symbols[d] for d in word))
    return None


def _orbit_accepted(start: int, image: int, word: list[int], delta, accepting) -> bool:
    """Does every state of ``start``'s orbit under the word accept?

    ``image`` is ``start``'s image under the word.  The walk stops at the
    first rejecting state or when the word leads back into the orbit.
    """
    orbit = {start}
    q = image
    while q in accepting and q not in orbit:
        orbit.add(q)
        for d in word:
            q = delta[q][d]
    return start in accepting and q in accepting


def _search_feasible(k: int, space: _PairSpace) -> Dfa | None:
    """Bounded synthesis for one orientation, behind the loop pre-pass.

    Depth-first search over canonical transition tables (states are
    numbered in first-use order, so each reachable table is visited once
    up to isomorphism), tracking per-state pair sets incrementally.  The
    partial table is one row per used state, ``None`` marking an open
    cell.  Each node fills the first open cell of the newest state that
    has one, so depth-first demand chases loop-shaped witnesses instead
    of fanning out across sibling cells.  For a fixed table the best
    accepting set is forced: accept exactly the states whose pair set
    avoids every bad pair; the table succeeds iff such a state meets a
    goal pair.  After every assignment, ``live`` checks whether the
    partial table can still be completed, within k states, into one with
    a witness; subtrees where it cannot are cut.  The check only drops
    subtrees without a solution, so the first table found is the one an
    unpruned search would find.

    The search runs only after ``_cycle_candidate`` found no k-state
    loop, and returns None at once at k = 1, whose only candidate is that
    loop.  The two together are complete for k states; which DFA comes
    back assumes, as in ``synth_min_distinguishing``, that lower budgets
    were tried first or ruled out by the caller's ``k_min``.
    """
    if k == 1:
        return None
    width = space.width
    tau = [1 << 0]  # pair sets per used candidate state; pair 0 is initial
    delta: list[list[int | None]] = [[None] * width]
    step, step_set, bit = space.step, space.step_set, space.bit
    escape_possible = space.escape_possible
    goal, bad, doomed = space.goal, space.bad, space.doomed

    def propagate(state: int, add: int) -> bool:
        """Close the pair sets under the table after ``add`` joins ``state``.

        Pending masks are ORed per state until it is popped, so each
        growth of a state costs one image per assigned cell: a
        ``step_set``, or a ``bit`` lookup when one pair is new.  Returns
        False, leaving the closure unfinished, once a doomed pair joins
        state 0: every used state is reachable from state 0, so after
        the closure each one would hold a doomed, bad pair and ``live``
        would fail.
        """
        pending = {state: add}
        while pending:
            s, mask = pending.popitem()
            new = mask & ~tau[s]
            if not new:
                continue
            if not s and new & doomed:
                return False
            tau[s] |= new
            single = not new & (new - 1)
            y = new.bit_length() - 1
            for c, target in enumerate(delta[s]):
                if target is not None:
                    image = bit[c][y] if single else step_set(c, new)
                    pending[target] = pending.get(target, 0) | image
        return True

    def finish(open_cells: bool) -> Dfa | None:
        """Close the current partial table if some state is already a witness.

        A state whose pair set meets a goal pair and avoids every bad
        pair stays that way when all open cells are routed into an
        absorbing non-accepting sink, because sink-bound flow never
        enters any other state.  The sink is a fresh state, so with all k
        states used only a complete table (no ``open_cells``) closes.  A
        used state without assigned cells cannot serve: as cells are
        filled in the newest state that has an open one, it is the one
        just created, and so the winner.
        """
        if not any(m & goal and not m & bad for m in tau):
            return None
        used = len(tau)
        if open_cells and used == k:
            return None
        rows = [[used if t is None else t for t in row] for row in delta]
        if open_cells:
            rows.append([used] * width)
        accepting = {q for q, m in enumerate(tau) if not m & bad}
        return Dfa(space.alphabet, rows, 0, accepting)

    def within_room(start: int, room: int, fits: dict[int, bool]) -> bool:
        """Can a pair path from ``start`` reach a goal pair along which the
        greedy clique (see ``live``) holds at most ``room`` pairs?

        A breadth-first search over (pair, clique) states, which fix the
        rest of the greedy walk; ``start`` is always in the clique.  A
        pair that cannot escape on its own (doomed pairs among them) lies
        on no witness and is not followed.  ``fits`` caches the fit test
        per pair: ``tau`` does not change during one ``live`` call.
        """
        if 1 << start & goal:
            return True
        order = [(start, 1 << start)]
        seen = set(order)
        for y, clique in order:
            for c in range(width):
                z = step[c][y]
                if not escape_possible(1 << z):
                    continue
                grown = clique
                fit = fits.get(z)
                if fit is None:
                    fit = fits[z] = any(escape_possible(m | 1 << z) for m in tau)
                if not fit:
                    members = clique
                    while members:  # z joins if incompatible with every member
                        low = members & -members
                        if escape_possible(low | 1 << z):
                            break
                        members ^= low
                    else:
                        if clique.bit_count() == room:
                            continue
                        grown = clique | 1 << z
                if 1 << z & goal:
                    return True
                if (z, grown) not in seen:
                    seen.add((z, grown))
                    order.append((z, grown))
        return False

    def live() -> bool:
        """Can some completion with at most k states still hold a witness?

        A witness is a word that leads the table from state 0 to an
        accepting state and pair 0 to a goal pair.  The search follows
        candidate witness words through configurations (state, pair),
        starting at (0, 0).  In any such completion the pair set of the
        current state includes its partial set plus the pair, so that
        mask must be able to escape and, at the end, meets a goal pair
        while avoiding every bad pair.  An open cell may lead to any used
        state, or to a fresh one, where ``escape_possible`` stands in for
        the rest of the word.  A configuration is marked seen before its
        escape test, so a dead one is tested only once.  A state whose
        pair set holds a doomed pair is skipped outright: no mask built
        on it is bad-free or escapes.

        (0, 0) is never tested as a goal: a goal pair 0 closes the table
        at the root in ``finish``, as k >= 2 here; any other witness state
        lies at the end of a nonempty word over assigned cells.

        A witness that enters a fresh state at pair y2 must also find the
        states for the rest of its pair path, the pairs z it passes, among
        the ``room`` = k - len(tau) still unused.  Two facts follow from
        the relaxation behind ``escape_possible``: in a completion, the
        state the witness holds at pair z has a pair set that contains z
        and escapes through the rest of the witness, and so does each of
        its subsets that contains z.  So z *fits* used state s only if
        ``escape_possible(tau[s] | 1 << z)``: pair sets only grow, and a
        pair that fits no used state sits in a fresh one.  Two pairs are
        *incompatible* when their two-pair set cannot escape: no state
        on a witness holds both.  Hence pairwise incompatible pairs of the
        path that fit no used state, with y2 (in its fresh state) among
        them, each take their own fresh state, and the size of such a
        clique is a lower bound on the fresh states the witness needs.
        ``within_room`` builds one greedily along each pair path from y2
        and accepts only paths to a goal pair whose clique fits in
        ``room``; a completion holding this witness would trace such a
        path, so no subtree with a solution is cut.
        """
        if not escape_possible(tau[0]):
            return False
        used = len(tau)
        room = k - used
        fits: dict[int, bool] = {}
        seen = {(0, 0)}
        stack = [(0, 0)]
        while stack:
            q, y = stack.pop()
            row = delta[q]
            for c in range(width):
                y2 = step[c][y]
                target = row[c]
                if target is None:
                    if (
                        room
                        and escape_possible(step_set(c, tau[q] | 1 << y))
                        and within_room(y2, room, fits)
                    ):
                        return True
                    targets = range(used)
                else:
                    targets = (target,)
                for t in targets:
                    if tau[t] & doomed:
                        continue
                    mask = tau[t] | 1 << y2
                    if 1 << y2 & goal and not mask & bad:
                        return True
                    if (t, y2) not in seen:
                        seen.add((t, y2))
                        if escape_possible(mask):
                            stack.append((t, y2))
        return False

    def children(q: int, c: int):
        """Set up each live child of the current node, yielding once per child.

        The child fills the open cell (q, c) with a fresh state first, then
        with each used state.  When resumed it is undone: the pair sets
        come back from a snapshot, which drops a fresh state's slot too.
        """
        row = delta[q]
        image = step_set(c, tau[q])
        used = len(tau)
        saved = tau.copy()
        for q2 in ([used] if used < k else []) + list(range(used)):
            fresh = q2 == used
            if fresh:
                tau.append(0)
                delta.append([None] * width)
            row[c] = q2
            if propagate(q2, image) and live():
                yield True
            tau[:] = saved
            row[c] = None
            if fresh:
                delta.pop()

    # depth-first: every node entered is counted and closed if it can be;
    # an open node pushes the children of the first open cell of the
    # newest state that has one, an exhausted frame is popped
    frames = []
    while True:
        space.nodes += 1
        q = next((q for q in reversed(range(len(delta))) if None in delta[q]), None)
        done = finish(q is not None)
        if done is not None:
            return done
        if q is not None:
            frames.append(children(q, delta[q].index(None)))
        while frames and not next(frames[-1], False):
            frames.pop()
        if not frames:
            return None


def synth_min_distinguishing(a1: Dfa, a2: Dfa, k_max: int, k_min: int = 1) -> SynthOutcome:
    """Smallest distinguishing DFA within the state budget.

    Tries k = k_min..k_max, first with a1 as the inclusion target, then
    a2; the first hit is minimal in k with ties broken toward a1.
    ``k_min`` is a lower bound the caller has proven: no distinguisher
    of the pair has fewer states, so the budgets below it are skipped
    rather than refuted.  It must satisfy 1 <= k_min <= k_max.  The
    returned DFA is minimized and defensively re-checked: it must
    distinguish the pair, and it must have at least ``k_min`` states, or
    the caller's bound is false.

    Each budget and orientation tries the loop pre-pass first, on the two
    minimized inputs.  An orientation's pair space is built only when its
    pre-pass misses at some k >= 2, once, for the search.  The first
    space built also tells which orientations have a goal pair: one
    without is skipped from then on, and with none (equal languages) the
    call returns at once, with the whole budget as the bound.  So when
    L(a1) lies inside L(a2), the first pre-pass still walks its prefix
    tree once, at k_min, before a space shows that it cannot win; at a
    large ``k_min`` that walk is long.  This is accepted: learning the
    goal first would take an inclusion walk on every satisfiable
    ``verify_lemma`` call (on the battery, ``is_subset(upper, lower)``
    costs about a twentieth of a call), and no caller passes a large
    ``k_min`` with L(a1) inside L(a2).
    """
    _require_same_alphabet(a1, a2)
    if k_max < 1:
        raise ValueError(f"state budget must be positive, got {k_max}")
    if not 1 <= k_min <= k_max:
        raise ValueError(f"need 1 <= k_min <= k_max, got k_min={k_min}, k_max={k_max}")
    m1, m2 = a1.minimize(), a2.minimize()
    sides = ((Orientation.FIRST, m1, m2), (Orientation.SECOND, m2, m1))
    # each orientation's pair space once built; None marks an orientation
    # without a goal pair
    spaces: dict[Orientation, _PairSpace | None] = {}
    for k in range(k_min, k_max + 1):
        for orientation, target, other in sides:
            if orientation in spaces and spaces[orientation] is None:
                continue
            candidate = _cycle_candidate(k, target, other)
            if candidate is None and k > 1:
                if not spaces:
                    # no goal pair: the target language is inside the
                    # other, so no subset of it can escape
                    first = _PairSpace(m1, m2)
                    spaces[Orientation.FIRST] = first if first.goal else None
                    # the second orientation's goal pairs are the first
                    # space's pairs where m2 accepts and m1 rejects
                    if not any(s2 in m2.accepting and s1 not in m1.accepting for s1, s2 in first.pairs):
                        if not first.goal:  # equal languages: no budget can help
                            return SynthOutcome(None, None, k_max)
                        spaces[Orientation.SECOND] = None
                if orientation not in spaces:
                    spaces[orientation] = _PairSpace(target, other)
                space = spaces[orientation]
                if space is None:
                    continue
                candidate = _search_feasible(k, space)
            if candidate is None:
                continue
            dfa = candidate.minimize()
            if not is_distinguishing(dfa, a1, a2):
                raise RuntimeError(
                    "synthesized candidate failed the distinguishing re-check; "
                    "this indicates an encoding bug"
                )
            if dfa.state_count < k_min:
                raise RuntimeError(
                    f"synthesized distinguisher has {dfa.state_count} states, fewer than "
                    f"the lower bound k_min={k_min}; the caller's bound is false"
                )
            return SynthOutcome(dfa, orientation, k, _nodes(spaces))
    return SynthOutcome(None, None, k_max, _nodes(spaces))


def _nodes(spaces: dict[Orientation, _PairSpace | None]) -> int:
    """Search nodes entered over the pair spaces built."""
    return sum(space.nodes for space in spaces.values() if space is not None)
