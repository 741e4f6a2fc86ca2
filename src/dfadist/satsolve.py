"""Small complete SAT engine: DPLL with unit propagation, plus DIMACS input.

Deliberately simple: two-watched-literal propagation, chronological
backtracking, a fixed branching rule (lowest-indexed unassigned variable,
false before true), no clause learning and no restarts.  That keeps the
engine auditable and makes ``solve`` fully deterministic.  A decision is
kept only as its trail position, and a conflict makes one undo: back to
the latest decision still set false, whose variable is then set true.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

Model = tuple[bool, ...]


class DimacsParseError(Exception):
    """Malformed DIMACS CNF input."""


@dataclass(frozen=True)
class CnfInstance:
    """CNF over variables 1..var_count; literals are nonzero signed ints.

    Clauses may repeat and the empty clause is permitted (making the
    instance trivially unsatisfiable).
    """

    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # exactly int, as Dfa's state ids: a float would fail later as a
        # list index, and a bool would pass as the literal 1
        if type(self.var_count) is not int or self.var_count < 1:
            raise ValueError(f"var_count must be a positive int, got {self.var_count!r}")
        try:
            object.__setattr__(self, "clauses", tuple([tuple(c) for c in self.clauses]))
        except TypeError:
            raise ValueError("clauses must be an iterable of literal iterables") from None
        for i, clause in enumerate(self.clauses, start=1):
            for lit in clause:
                if type(lit) is not int:
                    raise ValueError(f"clause {i}: literal {lit!r} is not an int")
                if lit == 0 or abs(lit) > self.var_count:
                    raise ValueError(f"clause {i}: literal {lit} outside 1..{self.var_count}")


def evaluate(instance: CnfInstance, model: Sequence[bool]) -> bool:
    """Direct clause evaluation: every clause has a true literal."""
    return all(
        any(model[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in instance.clauses
    )


def parse_dimacs(text: str) -> CnfInstance:
    """Parse standard DIMACS CNF: 'c' comments, 'p cnf' header, 0-terminated clauses.

    Clauses may span lines.  A clause count differing from the header is
    a warning, not an error; an unterminated final clause is accepted.
    """
    var_count = None
    declared_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if var_count is not None:
                raise DimacsParseError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsParseError(f"line {lineno}: malformed header {line!r}")
            try:
                var_count = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsParseError(f"line {lineno}: malformed header {line!r}") from None
            if var_count < 1:
                raise DimacsParseError(f"line {lineno}: variable count must be positive")
            if declared_clauses < 0:
                raise DimacsParseError(f"line {lineno}: clause count must not be negative")
            continue
        if var_count is None:
            raise DimacsParseError(f"line {lineno}: clause before 'p cnf' header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsParseError(f"line {lineno}: bad literal {token!r}") from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > var_count:
                    raise DimacsParseError(
                        f"line {lineno}: literal {lit} exceeds declared {var_count} variables"
                    )
                current.append(lit)
    if var_count is None:
        raise DimacsParseError("missing 'p cnf' header")
    if current:
        clauses.append(current)
    if declared_clauses != len(clauses):
        warnings.warn(
            f"header declares {declared_clauses} clauses, found {len(clauses)}",
            stacklevel=2,
        )
    return CnfInstance(var_count, clauses)


def solve(instance: CnfInstance) -> Model | None:
    """Complete DPLL search; a satisfying Model or None for unsat.

    Branches on the lowest-indexed unassigned variable, false first,
    with unit propagation after every decision, so the returned model is
    a deterministic function of the instance.  A decision is just its
    trail position; a conflict undoes the trail to the latest one and
    sets its variable true, implied at the level below.
    """
    nvars = instance.var_count
    assign: list[bool | None] = [None] * (nvars + 1)
    trail: list[int] = []
    # watch lists: literal -> clauses (as mutable lists with watches at slots 0/1)
    watch: dict[int, list[list[int]]] = {}
    for clause in instance.clauses:
        lits = list(dict.fromkeys(clause))
        if not lits:
            return None
        if len(lits) > 1:
            watch.setdefault(lits[0], []).append(lits)
            watch.setdefault(lits[1], []).append(lits)
        elif assign[abs(lits[0])] is None:
            assign[abs(lits[0])] = lits[0] > 0
            trail.append(lits[0])
        elif assign[abs(lits[0])] != (lits[0] > 0):
            return None

    def propagate(i: int) -> bool:
        """Exhaust unit consequences of trail[i:]; False on conflict."""
        while i < len(trail):
            falsified = -trail[i]
            i += 1
            watching = watch.get(falsified)
            if not watching:
                continue
            keep = []
            for j, lits in enumerate(watching):
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                other = lits[0]
                oval = assign[abs(other)]
                if oval is not None and oval == (other > 0):
                    keep.append(lits)
                    continue
                for k in range(2, len(lits)):
                    cand = lits[k]
                    cval = assign[abs(cand)]
                    if cval is None or cval == (cand > 0):
                        lits[1], lits[k] = lits[k], lits[1]
                        watch.setdefault(cand, []).append(lits)
                        break
                else:
                    keep.append(lits)
                    if oval is not None:
                        watch[falsified] = keep + watching[j + 1 :]
                        return False
                    assign[abs(other)] = other > 0
                    trail.append(other)
            watch[falsified] = keep
        return True

    decisions: list[int] = []  # trail positions of the decisions set false
    cursor = 1
    start = 0
    while True:
        if not propagate(start):
            if not decisions:
                return None
            start = decisions.pop()
            cursor = -trail[start]
            for lit in trail[start:]:
                assign[abs(lit)] = None
            del trail[start:]
            assign[cursor] = True
            trail.append(cursor)
            continue
        while cursor <= nvars and assign[cursor] is not None:
            cursor += 1
        if cursor > nvars:
            return tuple([bool(assign[v]) for v in range(1, nvars + 1)])
        start = len(trail)
        decisions.append(start)
        assign[cursor] = False
        trail.append(-cursor)
