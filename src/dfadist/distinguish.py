"""Distinguishing two inequivalent DFAs.

A DFA distinguishes a pair of automata when its language is a subset of
exactly one of the two.  This module provides shortest distinguishing
words, the distinguishing predicate, exact synthesis of a minimal
distinguishing DFA, and an exhaustive brute-force oracle used to
cross-validate the synthesizer.

The per-bound question is "is there a k-state DFA whose language fits
inside the target automaton and escapes the other one".
``synth_min_distinguishing`` answers it, per orientation, with a
dedicated backtracking search over canonical transition tables.  The
search tracks pairs (t, x) of states that the two minimized inputs
reach together: a candidate may not accept where t rejects, and it
escapes once it accepts where t accepts and x rejects.  The tests
cross-validate that search against ``brute_force_min_distinguishing``
and against an exhaustive per-orientation feasibility reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .automata import Alphabet, Dfa, Word, is_subset, _pair_search, _require_same_alphabet


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
    successful k, or the exhausted maximum.  ``nodes`` counts the table
    assignments the search tried over all k and orientations (0 from
    the brute-force oracle); it does not take part in equality.
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


class _PairSpace:
    """Joint tracking space for candidate synthesis against one orientation.

    A node is a pair (t, x) of states that the target and the other
    automaton reach together; the search follows candidate states
    through this space.  ``bad`` marks pairs where t rejects (accepting
    there would break inclusion in the target), ``goal`` marks pairs
    where t accepts and x rejects (accepting there certifies the
    escape).  ``goal`` is empty exactly when L(target) is inside
    L(other).  Pair sets are bitmasks.
    """

    def __init__(self, target: Dfa, other: Dfa):
        pairs, rows, _ = _pair_search(target, other)
        self.width = width = len(target.alphabet)
        self.step = [[rows[y][c] for y in range(len(pairs))] for c in range(width)]
        self.bad = 0
        self.goal = 0
        for y, (t, x) in enumerate(pairs):
            if t not in target.accepting:
                self.bad |= 1 << y
            elif x not in other.accepting:
                self.goal |= 1 << y
        # step kernel: per symbol, per 8-pair chunk of a mask, the images
        # of all 256 byte values.  A chunk's table is built on first use,
        # so a large space pays only for the chunks a search reaches.
        self._chunks: list[list[list[int] | None]] = [
            [None] * ((len(pairs) + 7) // 8) for _ in range(width)
        ]
        self._escape_cache: dict[int, bool] = {}
        self.nodes = 0  # assign calls made by searches over this space

    def _chunk_table(self, c: int, chunk: int) -> list[int]:
        table = [0]
        for target in self.step[c][chunk * 8 : chunk * 8 + 8]:
            bit = 1 << target
            table += [m | bit for m in table]
        self._chunks[c][chunk] = table
        return table

    def step_set(self, c: int, mask: int) -> int:
        """Image of a pair set under one symbol."""
        out = 0
        tables = self._chunks[c]
        for chunk, b in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
            if b:
                table = tables[chunk] or self._chunk_table(c, chunk)
                out |= table[b]
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
        """
        cache = self._escape_cache
        cached = cache.get(mask)
        if cached is not None:
            return cached
        seen = {mask}
        frontier = [mask]
        while frontier:
            nxt = []
            for m in frontier:
                if m & self.goal and not m & self.bad:
                    cache[mask] = True
                    return True
                for c in range(self.width):
                    image = self.step_set(c, m)
                    if image in seen:
                        continue
                    known = cache.get(image)
                    if known:
                        cache[mask] = True
                        return True
                    seen.add(image)
                    if known is None:  # a known dead end is not expanded
                        nxt.append(image)
            frontier = nxt
        for m in seen:
            cache[m] = False
        return False


def _cycle_candidate(alphabet: Alphabet, k: int, space: _PairSpace) -> Dfa | None:
    """Cheap pre-pass: candidates that loop one word forever.

    The automaton for the language "some word repeated any number of
    times" is a cycle spelling the word plus a rejecting sink, one state
    per word position.  Such loops are the natural shape of minimal
    distinguishers here, so they are tried in length-lexicographic order
    before the general search; every hit is verified against the pair
    space, which keeps this sound.
    """
    width = space.width
    words: list[tuple[int, ...]] = [()]
    for length in range(1, k):
        words = [w + (c,) for w in words for c in range(width)]
        sink = length
        for word in words:
            # follow the cycle in the pair space; every visited pair must
            # stay safe and some accepted iterate must hit a goal pair
            state_masks = [0] * length
            y = 0
            pos = 0
            ok = True
            hit = False
            while not state_masks[pos] >> y & 1:
                state_masks[pos] |= 1 << y
                if pos == 0:
                    if 1 << y & space.bad:
                        ok = False
                        break
                    if 1 << y & space.goal:
                        hit = True
                y = space.step[word[pos]][y]
                pos = (pos + 1) % length
            if not (ok and hit):
                continue
            rows = []
            for i, c in enumerate(word):
                row = [sink] * width
                row[c] = (i + 1) % length
                rows.append(tuple(row))
            rows.append((sink,) * width)
            return Dfa(alphabet, rows, 0, {0})
    return None


def _search_feasible(alphabet: Alphabet, k: int, space: _PairSpace) -> Dfa | None:
    """Complete bounded synthesis for one orientation.

    Depth-first search over canonical transition tables (states are
    numbered in first-use order, so each reachable table is visited once
    up to isomorphism), tracking per-state pair sets incrementally.  For
    a fixed table the best accepting set is forced: accept exactly the
    states whose pair set avoids every bad pair; the table succeeds iff
    such a state meets a goal pair.  After every assignment, ``live``
    checks whether the partial table can still be completed, within k
    states, into one with a witness; subtrees where it cannot are cut.
    The check only drops subtrees without a solution, so the first table
    found is the one an unpruned search would find.
    """
    looped = _cycle_candidate(alphabet, k, space)
    if looped is not None:
        return looped
    width = space.width
    tau = [1 << 0]  # pair sets per used candidate state; pair 0 is initial
    delta: dict[tuple[int, int], int] = {}
    # unassigned cells as a stack: depth-first demand chases loop-shaped
    # witnesses instead of fanning out across sibling cells
    todo = [(0, c) for c in reversed(range(width))]
    step, step_set = space.step, space.step_set
    escape_possible = space.escape_possible
    goal, bad = space.goal, space.bad

    def propagate(state: int, add: int, trail: list[tuple[int, int]]) -> None:
        work = [(state, add)]
        while work:
            s, mask = work.pop()
            new = mask & ~tau[s]
            if not new:
                continue
            trail.append((s, tau[s]))
            tau[s] |= new
            for c in range(width):
                target = delta.get((s, c))
                if target is not None:
                    work.append((target, step_set(c, new)))

    def finish() -> Dfa | None:
        """Close the current partial table if some state is already a witness.

        A state whose pair set meets a goal pair and avoids every bad
        pair stays that way when all unassigned cells are routed into an
        absorbing non-accepting sink, because sink-bound flow never
        enters any other state.  The sink is a fresh state, or an
        existing one without assigned cells.
        """
        winner = next(
            (q for q, m in enumerate(tau) if m & goal and not m & bad), None
        )
        if winner is None:
            return None
        used = len(tau)
        if len(delta) == used * width:
            rows = [[delta[q, c] for c in range(width)] for q in range(used)]
            accepting = {q for q, m in enumerate(tau) if not m & bad}
            return Dfa(alphabet, rows, 0, accepting)
        if used < k:
            sink = used
        else:
            sink = next(
                (
                    q
                    for q in range(used)
                    if q != winner and all((q, c) not in delta for c in range(width))
                ),
                None,
            )
            if sink is None:
                return None
        rows = [
            [delta.get((q, c), sink) for c in range(width)] for q in range(used)
        ]
        if sink == used:
            rows.append([sink] * width)
        else:
            rows[sink] = [sink] * width
        accepting = {q for q, m in enumerate(tau) if not m & bad and q != sink}
        return Dfa(alphabet, rows, 0, accepting)

    def live() -> bool:
        """Can some completion with at most k states still hold a witness?

        A witness is a word that leads the table from state 0 to an
        accepting state and pair 0 to a goal pair.  The search follows
        candidate witness words through configurations (state, pair),
        starting at (0, 0).  In any such completion the pair set of the
        current state includes its partial set plus the pair, so that
        mask must be able to escape and, at the end, meets a goal pair
        while avoiding every bad pair.  An unassigned cell may lead to
        any used state, or to a fresh one, where ``escape_possible``
        stands in for the rest of the word.
        """
        if any(m & goal and not m & bad for m in tau):
            return True  # finish() closes the table
        if not escape_possible(tau[0]):
            return False
        used = len(tau)
        fresh = used < k
        # cheap common case: a fresh state behind an open cell can escape
        if fresh and any(escape_possible(step_set(c, tau[s])) for s, c in todo):
            return True
        seen = {(0, 0)}
        stack = [(0, 0)]
        while stack:
            q, y = stack.pop()
            for c in range(width):
                y2 = step[c][y]
                target = delta.get((q, c))
                if target is None:
                    if fresh and escape_possible(step_set(c, tau[q] | 1 << y)):
                        return True
                    targets = range(used)
                else:
                    targets = (target,)
                for t in targets:
                    mask = tau[t] | 1 << y2
                    if 1 << y2 & goal and not mask & bad:
                        return True
                    if (t, y2) not in seen and escape_possible(mask):
                        seen.add((t, y2))
                        stack.append((t, y2))
        return False

    def assign() -> Dfa | None:
        space.nodes += 1
        done = finish()
        if done is not None:
            return done
        if not todo:
            return None
        q, c = todo.pop()
        image = step_set(c, tau[q])
        used = len(tau)
        targets = ([used] if used < k else []) + list(range(used))
        for q2 in targets:
            fresh = q2 == used
            if fresh:
                tau.append(0)
                todo.extend((q2, c2) for c2 in reversed(range(width)))
            delta[q, c] = q2
            trail: list[tuple[int, int]] = []
            propagate(q2, image, trail)
            if live():
                result = assign()
                if result is not None:
                    return result
            for s, old in reversed(trail):
                tau[s] = old
            del delta[q, c]
            if fresh:
                tau.pop()
                del todo[-width:]
        todo.append((q, c))
        return None

    return assign()


def synth_min_distinguishing(a1: Dfa, a2: Dfa, k_max: int) -> SynthOutcome:
    """Smallest distinguishing DFA within the state budget.

    Tries k = 1..k_max, first with a1 as the inclusion target, then a2;
    the first hit is minimal in k with ties broken toward a1.  Equal
    languages simply exhaust the budget.  The returned DFA is minimized
    and defensively re-checked.
    """
    _require_same_alphabet(a1, a2)
    if k_max < 1:
        raise ValueError(f"state budget must be positive, got {k_max}")
    m1, m2 = a1.minimize(), a2.minimize()
    prepared = []
    for orientation, target, other in ((Orientation.FIRST, m1, m2), (Orientation.SECOND, m2, m1)):
        space = _PairSpace(target, other)
        # no goal pair: the target language is inside the other, so no
        # subset of it can escape; skip the orientation outright
        if space.goal:
            prepared.append((orientation, space))
    for k in range(1, k_max + 1):
        for orientation, space in prepared:
            candidate = _search_feasible(a1.alphabet, k, space)
            if candidate is None:
                continue
            dfa = candidate.minimize()
            if not is_distinguishing(dfa, a1, a2):
                raise RuntimeError(
                    "synthesized candidate failed the distinguishing re-check; "
                    "this indicates an encoding bug"
                )
            return SynthOutcome(dfa, orientation, k, sum(s.nodes for _, s in prepared))
    return SynthOutcome(None, None, k_max, sum(s.nodes for _, s in prepared))


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
