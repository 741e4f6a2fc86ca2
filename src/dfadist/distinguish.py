"""Distinguishing two inequivalent DFAs.

A DFA distinguishes a pair of automata when its language is a subset of
exactly one of the two.  This module provides shortest distinguishing
words, the distinguishing predicate, exact synthesis of a minimal
distinguishing DFA, and an exhaustive brute-force oracle used to
cross-validate the synthesizer.

The per-bound question is "is there a k-state DFA whose language fits
inside the target automaton and escapes the other one".
``encode_distinguishing`` compiles it to CNF for an external solver,
certifying the escape with a bounded witness path.
``synth_min_distinguishing`` answers the same question with a dedicated
backtracking search over canonical transition tables, which refutes
infeasible bounds far faster than a learning-free SAT engine can refute
the path encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automata import Alphabet, Dfa, Word, is_subset, product, _pair_search, _require_same_alphabet
from .satsolve import CnfInstance, Model


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
    successful k, or the exhausted maximum.
    """

    dfa: Dfa | None
    orientation: Orientation | None
    bound: int

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


class _Encoder:
    """CNF builder for k-state candidate DFAs with a fixed initial state 0.

    Variables: ``trans[q][c][q2]`` one-hot transition choices and
    ``acc[q]`` acceptance flags.  Constraint sections are added on top:
    inclusion in a target DFA via monotone pair reachability, and an
    escape witness as a bounded path.
    """

    def __init__(self, alphabet: Alphabet, k: int):
        self.alphabet = alphabet
        self.k = k
        self.width = len(alphabet)
        self.var_count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.trans = [
            [[self._new() for _ in range(k)] for _ in range(self.width)] for _ in range(k)
        ]
        self.acc = [self._new() for _ in range(k)]
        for q in range(k):
            for c in range(self.width):
                self._exactly_one(self.trans[q][c])

    def _new(self) -> int:
        self.var_count += 1
        return self.var_count

    def _exactly_one(self, variables: list[int]) -> None:
        self.clauses.append(tuple(variables))
        for i in range(len(variables)):
            for j in range(i + 1, len(variables)):
                self.clauses.append((-variables[i], -variables[j]))

    def _reach_vars(self, other: Dfa) -> list[list[int]]:
        """Pair-reachability variables over candidate states x ``other`` states.

        Clauses force the closure: the initial pair holds and reachability
        propagates along every chosen candidate transition, so any model
        over-approximates the truly reachable pairs.
        """
        reach = [[self._new() for _ in range(other.state_count)] for _ in range(self.k)]
        self.clauses.append((reach[0][other.initial],))
        for q in range(self.k):
            for s in range(other.state_count):
                r_qs = reach[q][s]
                row = other.delta[s]
                for c in range(self.width):
                    s2 = row[c]
                    for q2 in range(self.k):
                        self.clauses.append((-r_qs, -self.trans[q][c][q2], reach[q2][s2]))
        return reach

    def add_inclusion(self, target: Dfa) -> None:
        """Require L(candidate) to be a subset of L(target)."""
        reach = self._reach_vars(target)
        for s in range(target.state_count):
            if s not in target.accepting:
                for q in range(self.k):
                    self.clauses.append((-reach[q][s], -self.acc[q]))

    def add_escape_path(self, escape_region: Dfa, length: int) -> None:
        """Bounded witness path through candidate x escape-region.

        Sound and complete for "the candidate accepts a word of the
        escape region": a shortest such word fits inside the reachable
        part of the pair product, hence within the given length bound.
        """
        x = escape_region
        steps = length + 1
        sym = [[self._new() for _ in range(self.width)] for _ in range(length)]
        pos = [[self._new() for _ in range(self.k)] for _ in range(steps)]
        xpos = [[self._new() for _ in range(x.state_count)] for _ in range(steps)]
        end = [self._new() for _ in range(steps)]
        for t in range(length):
            self._exactly_one(sym[t])
        self._exactly_one(end)
        self.clauses.append((pos[0][0],))
        self.clauses.append((xpos[0][x.initial],))
        for t in range(length):
            for c in range(self.width):
                for q in range(self.k):
                    for q2 in range(self.k):
                        self.clauses.append(
                            (-pos[t][q], -sym[t][c], -self.trans[q][c][q2], pos[t + 1][q2])
                        )
                for s in range(x.state_count):
                    self.clauses.append((-xpos[t][s], -sym[t][c], xpos[t + 1][x.delta[s][c]]))
        for t in range(steps):
            for q in range(self.k):
                self.clauses.append((-end[t], -pos[t][q], self.acc[q]))
            for s in range(x.state_count):
                if s not in x.accepting:
                    self.clauses.append((-end[t], -xpos[t][s]))

    def instance(self) -> CnfInstance:
        return CnfInstance(self.var_count, tuple(self.clauses))

    def decode(self, model: Model) -> Dfa:
        delta = []
        for q in range(self.k):
            row = []
            for c in range(self.width):
                choices = [q2 for q2 in range(self.k) if model[self.trans[q][c][q2] - 1]]
                row.append(choices[0])
            delta.append(row)
        accepting = {q for q in range(self.k) if model[self.acc[q] - 1]}
        return Dfa(self.alphabet, delta, 0, accepting)


@dataclass(frozen=True)
class DistinguishingEncoding:
    """Decode context mapping solver models back to candidate DFAs."""

    encoder: _Encoder
    orientation: Orientation

    def decode(self, model: Model) -> Dfa:
        return self.encoder.decode(model)


def _oriented(a1: Dfa, a2: Dfa, orientation: Orientation) -> tuple[Dfa, Dfa]:
    if orientation is Orientation.FIRST:
        return a1, a2
    return a2, a1


def _escape_region(target: Dfa, escape: Dfa) -> Dfa:
    """Minimal DFA for the words inside the target but outside the other."""
    return product(target.minimize(), escape.minimize().complement(), lambda x, y: x and y).minimize()


def encode_distinguishing(
    a1: Dfa, a2: Dfa, k: int, orientation: Orientation
) -> tuple[CnfInstance, DistinguishingEncoding]:
    """CNF satisfiable iff some complete k-state DFA (initial state 0)
    lies inside the orientation's target language and escapes the other.

    The decode context turns a model back into the candidate DFA.
    """
    _require_same_alphabet(a1, a2)
    if k < 1:
        raise ValueError(f"state bound must be positive, got {k}")
    target, escape = _oriented(a1, a2, orientation)
    region = _escape_region(target, escape)
    encoder = _Encoder(a1.alphabet, k)
    encoder.add_inclusion(target.minimize())
    encoder.add_escape_path(region, k * region.state_count)
    return encoder.instance(), DistinguishingEncoding(encoder, orientation)


class _PairSpace:
    """Joint tracking space for candidate synthesis against one orientation.

    A node is a reachable (target-state, escape-region-state) pair; the
    search follows candidate states through this space.  ``bad`` marks
    pairs a candidate state must not accept at (inclusion would break),
    ``goal`` marks pairs whose acceptance certifies the escape.  Pair
    sets are bitmasks.
    """

    def __init__(self, target_min: Dfa, region: Dfa):
        pairs, rows, _ = _pair_search(target_min, region)
        self.width = width = len(target_min.alphabet)
        self.step = [[rows[y][c] for y in range(len(pairs))] for c in range(width)]
        self.bad = 0
        self.goal = 0
        for y, (t, x) in enumerate(pairs):
            if t not in target_min.accepting:
                self.bad |= 1 << y
            if x in region.accepting:
                self.goal |= 1 << y
        self._step_cache: dict[tuple[int, int], int] = {}
        self._escape_cache: dict[int, bool] = {}

    def step_set(self, c: int, mask: int) -> int:
        """Image of a pair set under one symbol."""
        key = (c, mask)
        out = self._step_cache.get(key)
        if out is None:
            out = 0
            step_c = self.step[c]
            m = mask
            while m:
                low = m & -m
                out |= 1 << step_c[low.bit_length() - 1]
                m ^= low
            self._step_cache[key] = out
        return out

    def escape_possible(self, mask: int) -> bool:
        """Can some word image of this pair set be accepted safely?

        True iff some symbol sequence turns the set into one that meets
        a goal pair while avoiding every bad pair.  Sound for pruning on
        the initial state's set: in any completed table with a witness
        word, that word's image of the set sits inside the accepting
        state's final pair set (so it is bad-free) and contains the
        witness's goal pair.
        """
        cached = self._escape_cache.get(mask)
        if cached is not None:
            return cached
        seen = {mask}
        frontier = [mask]
        while frontier:
            nxt = []
            for m in frontier:
                if m & self.goal and not m & self.bad:
                    self._escape_cache[mask] = True
                    return True
                for c in range(self.width):
                    image = self.step_set(c, m)
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        for m in seen:
            self._escape_cache[m] = False
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
    such a state meets a goal pair.  Subtrees are cut when the initial
    state's pair set can no longer be steered onto a safe goal.
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
    step_set = space.step_set

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
            (q for q, m in enumerate(tau) if m & space.goal and not m & space.bad), None
        )
        if winner is None:
            return None
        used = len(tau)
        if len(delta) == used * width:
            rows = [[delta[q, c] for c in range(width)] for q in range(used)]
            accepting = {q for q, m in enumerate(tau) if not m & space.bad}
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
        accepting = {q for q, m in enumerate(tau) if not m & space.bad and q != sink}
        return Dfa(alphabet, rows, 0, accepting)

    def assign() -> Dfa | None:
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
            # every witness word starts at state 0, so its pair set must
            # still be steerable onto a safe goal
            if space.escape_possible(tau[0]):
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
    prepared = []
    for orientation in (Orientation.FIRST, Orientation.SECOND):
        target, escape = _oriented(a1, a2, orientation)
        region = _escape_region(target, escape)
        # empty region: the target language is inside the other, so no
        # subset of it can escape; skip the orientation outright.  The
        # region is minimized, so every state is reachable.
        if not region.accepting:
            continue
        prepared.append((orientation, _PairSpace(target.minimize(), region)))
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
            return SynthOutcome(dfa, orientation, k)
    return SynthOutcome(None, None, k_max)


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
