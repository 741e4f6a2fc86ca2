"""From CNF formulas to DFA pairs whose distinguishability mirrors satisfiability.

A truth assignment over k variables is a word in {0,1}^k.  For a formula
with n clauses, two languages over the alphabet ``01#`` are built:

- the *lower* language: at most n assignment blocks, each k bits closed
  by ``#`` (the empty word counts as zero blocks);
- the *upper* language: the lower one, plus every word whose first n
  blocks satisfy clause 1..n respectively, followed by anything.

The lower language is always a subset of the upper one.  The formula is
satisfiable exactly when some DFA with at most k+2 states fits inside
the upper language while escaping the lower one; ``verify_lemma`` checks
that correspondence end to end on a concrete formula, and
``witness_dfa`` realizes the constructive half: a satisfying assignment
repeated forever is such a small distinguisher.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .automata import Alphabet, Dfa, Word, product
from .distinguish import SynthOutcome, _loop_dfa, is_distinguishing, synth_min_distinguishing
from .satsolve import CnfInstance, Model, evaluate, solve

REDUCTION_ALPHABET = "01#"


class FormulaError(ValueError):
    """Invalid formula for the reduction (empty clause, bad literal)."""


@dataclass(frozen=True)
class CnfFormula(CnfInstance):
    """CNF input to the reduction: a CnfInstance with n >= 1 clauses, none empty.

    Empty clauses are rejected up front: they would collapse the upper
    language onto the lower one, leaving nothing to distinguish.  Every
    invalid input raises ``FormulaError``, the instance's checks included.
    """

    def __post_init__(self):
        try:
            super().__post_init__()
        except ValueError as err:
            raise FormulaError(str(err)) from None
        if not self.clauses:
            raise FormulaError("need at least one clause")
        for i, clause in enumerate(self.clauses, start=1):
            if not clause:
                raise FormulaError(f"clause {i} is empty")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


Assignment = Sequence[bool]


def assignment_word(assignment: Assignment) -> Word:
    """The 0/1 word encoding an assignment, i-th symbol for variable i+1."""
    return "".join("1" if bit else "0" for bit in assignment)


def build_lower_dfa(k: int, n: int) -> Dfa:
    """Minimal complete DFA of the lower language over ``01#``.

    Grid construction: one state per (block i, position p in block),
    grid position g = i(k+1) + p, plus a state for "all n blocks read"
    and a rejecting sink; n(k+1) + 2 states in all.  They are numbered
    as ``Dfa.minimize`` numbers its output, in BFS order: grid position
    g gets id g for g < 2 and g+1 otherwise, the sink gets id 2 (the
    ``#`` from the start reaches it), and the state after all n blocks,
    reached from the last grid position, gets id n(k+1) + 1.

    The grid is minimal, so it is marked as ``minimize`` marks its
    output and never refined again:

    - every state is reachable: the grid states and the state after all
      n blocks along (0^k#)^n, the sink by ``#``;
    - two grid states differ in how many bits are left before the next
      ``#`` (from position p, exactly k - p) or, at the same position,
      in how many blocks are left (words read on from block i hold at
      most n - i ``#``s, and 0^k# repeated reaches that many);
    - the state after all n blocks accepts only the empty word, while
      every grid state accepts a nonempty word;
    - the sink accepts nothing.
    """
    if k < 1 or n < 1:
        raise FormulaError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    span = k + 1
    sink = 2

    def ident(g: int) -> int:
        """State id of grid position g; g = n(k+1) is "all n blocks read"."""
        return g if g < 2 else g + 1

    delta = []
    for g in range(n * span):
        after = ident(g + 1)  # the next position, or the next block after '#'
        delta.append((after, after, sink) if g % span < k else (sink, sink, after))
    delta.append((sink, sink, sink))  # all n blocks read
    delta.insert(sink, (sink, sink, sink))  # the sink's row, at its id
    accepting = {ident(i * span) for i in range(n + 1)}
    lower = Dfa(REDUCTION_ALPHABET, delta, 0, accepting)
    object.__setattr__(lower, "_minimal", True)
    return lower


def build_upper_dfa(formula: CnfFormula, lower: Dfa) -> Dfa:
    """Minimal complete DFA of the upper language, from the formula's lower DFA.

    The satisfying-prefix automaton tracks (block, position,
    clause-already-satisfied) while every completed block has satisfied
    its clause, rejects once one fails, and jumps to an all-accepting
    absorbing state after n satisfying blocks.  The upper DFA is its
    union with the lower DFA: the product, minimized.
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


def witness_dfa(assignment: Assignment) -> Dfa:
    """Exact (k+2)-state DFA of the words repeating ``assignment#`` any
    number of times: a k+1-state loop spelling the assignment block plus
    a rejecting sink."""
    return _loop_dfa(Alphabet(REDUCTION_ALPHABET), assignment_word(assignment) + "#")


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one end-to-end satisfiability correspondence check."""

    formula: CnfFormula
    model: Model | None
    synth: SynthOutcome

    @property
    def satisfiable(self) -> bool:
        return self.model is not None

    @property
    def bound(self) -> int:
        """The state budget of the lemma: k+2 for k variables."""
        return self.formula.var_count + 2

    @property
    def consistent(self) -> bool:
        return self.satisfiable == self.synth.found

    @property
    def min_distinguishing_k(self) -> int | None:
        """States of a smallest distinguisher of the pair, None if none fits.

        A proven minimum, though ``verify_lemma`` searches only budget
        k+2: no distinguisher of the pair has fewer than k+2 states (the
        proof is in ``verify_lemma``), so a hit there is minimal.
        """
        return self.synth.bound if self.synth.found else None

    def render(self) -> str:
        lines = [
            f"sat: {'yes' if self.satisfiable else 'no'}",
            f"min_distinguishing_k: {self.min_distinguishing_k or 'none'}",
            f"bound: k+2 = {self.bound}",
            f"verdict: {'CONSISTENT' if self.consistent else 'INCONSISTENT'}",
        ]
        return "\n".join(lines) + "\n"


def verify_lemma(formula: CnfFormula) -> LemmaReport:
    """Check the satisfiability correspondence for one formula.

    Solves the formula, synthesizes a minimal distinguishing DFA for the
    (upper, lower) pair with budget k+2, and reports CONSISTENT iff both
    answers agree.  A model from the solver is re-checked clause by
    clause, and the explicit witness built from it is additionally
    checked to distinguish the pair; a failed re-check raises
    ``RuntimeError``.

    Only budget k+2 is searched, because every distinguisher D of the
    pair has at least k+2 states.  Lower is inside upper, so D's
    language fits inside upper and escapes lower: D accepts some word w
    of upper outside lower.  Such a w starts with k bits and then ``#``.
    Let q_0..q_k be D's states after the first 0..k letters of w.  If
    q_i = q_j for some i < j, D also accepts w with letters i+1..j cut
    out, whose first block has fewer than k bits before its ``#``: a
    word of neither language, outside upper.  So q_0..q_k are distinct.
    Each lies on w's accepting run, so each has a nonempty language,
    while D's state after ``#`` from q_0 has an empty one (no word of
    upper starts with ``#``): a (k+2)-th state.  So a distinguisher found
    at budget k+2 is minimal, and that one search answers the lemma's
    question; ``synth_min_distinguishing`` re-checks the bound on the
    DFA it finds.
    """
    k, n = formula.var_count, formula.clause_count
    model = solve(formula)
    if model is not None and not evaluate(formula, model):
        raise RuntimeError(
            "solver model failed the clause re-check; this indicates a solver bug"
        )
    lower = build_lower_dfa(k, n)
    upper = build_upper_dfa(formula, lower)
    if model is not None and not is_distinguishing(witness_dfa(model[:k]), upper, lower):
        raise RuntimeError(
            "witness DFA from the solver model failed the distinguishing re-check; "
            "this indicates a reduction bug"
        )
    synth = synth_min_distinguishing(upper, lower, k + 2, k_min=k + 2)
    return LemmaReport(formula=formula, model=model, synth=synth)
