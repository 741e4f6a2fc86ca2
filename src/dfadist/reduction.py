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

from dataclasses import dataclass
from typing import Sequence

from .automata import Alphabet, Dfa, Word, _canonical_dfa
from .distinguish import SynthOutcome, _loop_dfa, is_distinguishing, synth_min_distinguishing
from .satsolve import CnfInstance, Model, evaluate, solve

REDUCTION_ALPHABET = "01#"
_ALPHABET = Alphabet(REDUCTION_ALPHABET)  # checked once, shared by every reduction DFA


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


def _lower_grid(k: int, n: int) -> tuple[list[tuple[int, int, int]], range]:
    """The lower language's grid: successor rows by key, and accepting keys.

    Key g = i(k+1) + p is position p of block i, for g < n(k+1); key
    n(k+1) is "all n blocks read"; the rejecting sink is key -1, the
    last row.  The accepting keys are the block starts.
    """
    span = k + 1
    rows = [(g + 1, g + 1, -1) if g % span < k else (-1, -1, g + 1) for g in range(n * span)]
    rows += [(-1, -1, -1)] * 2  # all n blocks read, then the sink
    return rows, range(0, n * span + 1, span)


def build_lower_dfa(k: int, n: int) -> Dfa:
    """Minimal complete DFA of the lower language over ``01#``.

    Grid construction: one state per (block i, position p in block),
    grid position g = i(k+1) + p, plus a state for "all n blocks read"
    and a rejecting sink; n(k+1) + 2 states in all.

    The grid is minimal, so ``_canonical_dfa`` numbers it as ``minimize``
    would and marks it, and it is never refined again:

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
    rows, starts = _lower_grid(k, n)
    return _canonical_dfa(_ALPHABET, 0, rows.__getitem__, starts.__contains__)


# kinds of upper-DFA state: a lower state; block i at position p with
# clause i satisfied, or not yet satisfied; after n satisfying blocks
_LOWER, _SAT, _OPEN, _ALL = range(4)


def build_upper_dfa(formula: CnfFormula) -> Dfa:
    """Minimal complete DFA of the upper language, in ``minimize``'s numbering.

    The upper language is the union of the lower one with the
    satisfying-prefix language: words whose first n blocks satisfy
    clause 1..n respectively, followed by anything.  Reading a word
    through both, the union's state is a pair: a prefix state
    (block i, position p, clause i satisfied or not) with the lower
    grid state (i, p), or a lower state alone once a block failed its
    clause, or the state after n satisfying blocks.  These pairs fall
    into language-equivalence classes as follows:

    - a satisfied (i, p) is its own class: it accepts words of more than
      n blocks (nonempty clauses are satisfiable), no lower state does;
    - an unsatisfied (i, p) whose clause has no literal over a variable
      > p can no longer satisfy it, so it is lower state (i, p);
    - an unsatisfied (i, p) whose clause holds both x and -x for some
      variable x > p satisfies it whatever bits follow, so it is the
      satisfied (i, p);
    - any other unsatisfied (i, p) is its own class: its clause can
      still be satisfied (a literal over a variable > p), so it accepts
      words of more than n blocks, and the bits that set every literal
      over variables > p false (no two clash) followed by ``#`` fail it,
      which the satisfied (i, p) does not;
    - every state after n satisfying blocks accepts everything;
    - classes at different positions or blocks differ as the lower grid
      states do (bits left before the next ``#``, blocks left to read).

    The automaton of these classes is therefore minimal, so
    ``_canonical_dfa`` numbers it as ``minimize`` would and marks it.
    """
    k, n = formula.var_count, formula.clause_count
    span = k + 1
    grid, starts = _lower_grid(k, n)
    clauses = formula.clauses
    # per clause: its largest variable, and its largest variable with both literals
    top = [max(map(abs, clause)) for clause in clauses]
    both = [max((x for x in clause if -x in clause), default=0) for clause in clauses]
    dead = (_LOWER, -1)

    def unsatisfied(g: int) -> tuple[int, int]:
        """The class of the unsatisfied prefix state at grid position g."""
        i, p = divmod(g, span)
        if p >= top[i]:
            return (_LOWER, g)
        return (_SAT, g) if p < both[i] else (_OPEN, g)

    def successors(key: tuple[int, int]) -> list[tuple[int, int]]:
        kind, g = key  # g: a grid key
        if kind == _LOWER:
            return [(_LOWER, t) for t in grid[g]]
        if kind == _ALL:
            return [key] * 3
        i, p = divmod(g, span)
        sat = (_SAT, g + 1)
        if p == k:  # an unsatisfied block is a lower state here
            return [dead, dead, unsatisfied(g + 1) if i + 1 < n else (_ALL, 0)]
        if kind == _SAT:
            return [sat, sat, dead]
        # the next bit sets variable p + 1
        clause, later = clauses[i], unsatisfied(g + 1)
        return [sat if -p - 1 in clause else later, sat if p + 1 in clause else later, dead]

    def accepts(key: tuple[int, int]) -> bool:
        kind, g = key
        return kind == _ALL or g in starts

    return _canonical_dfa(_ALPHABET, unsatisfied(0), successors, accepts)


def witness_dfa(assignment: Assignment) -> Dfa:
    """Exact (k+2)-state DFA of the words repeating ``assignment#`` any
    number of times: a k+1-state loop spelling the assignment block plus
    a rejecting sink."""
    return _loop_dfa(_ALPHABET, assignment_word(assignment) + "#")


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
    ``RuntimeError``.  The witness is checked only when it differs from
    the DFA synthesis found: synthesis has already checked that one with
    the same ``is_distinguishing(dfa, upper, lower)``, and raises
    ``RuntimeError`` itself if it fails, so every distinct distinguisher
    is still checked once.  On every satisfiable battery formula the two
    are equal: DPLL tries false first and finds the least model, and the
    loop pre-pass finds the first loop in lexicographic order.

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
    upper = build_upper_dfa(formula)
    synth = synth_min_distinguishing(upper, lower, k + 2, k_min=k + 2)
    if model is not None:
        witness = witness_dfa(model)
        if witness != synth.dfa and not is_distinguishing(witness, upper, lower):
            raise RuntimeError(
                "witness DFA from the solver model failed the distinguishing re-check; "
                "this indicates a reduction bug"
            )
    return LemmaReport(formula=formula, model=model, synth=synth)
