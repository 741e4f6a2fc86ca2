"""Seeded inputs, op schedules and independent answer checks for each workload.

Nothing here imports dfadist.  Automata are plain tables, input files
come from this module's own writers, and every expected answer is
recomputed by a route of its own: truth tables for formulas, and
early-exit pair searches and word enumeration for automata pairs.

``build(workload, seed, workdir, sizes)`` returns a ``Workload``: the
files to write (name -> text), the op schedule and a few warm-up ops on
tiny inputs.  The same seed always gives byte-identical files.  An op
names its kind of check and the input files it reads; ``Checker``
builds the check from those files, after timing, so a run keeps no
input data in memory while it measures.

Run as a script, the module writes one workload's files and its
schedule (``schedule.json``) into a directory:

    python3 perfbench/bench_inputs.py WORKLOAD SEED WORKDIR [full|tiny]
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# An op check gets (exit code, captured stdout) and returns None when the
# answer is right, otherwise a one-line reason.
Check = Callable[[int, str], "str | None"]

SCHEDULE = "schedule.json"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str  # which check applies, see Checker.check
    files: tuple[str, ...]  # the input files the check reads


@dataclass
class Workload:
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    warmup: list[Op] = field(default_factory=list)

    def fingerprint(self) -> str:
        """sha256 over every generated file name and content, in name order."""
        digest = hashlib.sha256()
        for name in sorted(self.files):
            digest.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return digest.hexdigest()

    def write(self, workdir: Path) -> None:
        """Write the files and ``schedule.json`` (fingerprint, ops, warm-up)."""
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        schedule = {
            "fingerprint": self.fingerprint(),
            "ops": [vars(op) for op in self.ops],
            "warmup": [vars(op) for op in self.warmup],
        }
        (workdir / SCHEDULE).write_text(json.dumps(schedule), encoding="utf-8")


def read_schedule(workdir: Path) -> dict:
    """``schedule.json`` with its ops as ``Op`` values."""
    schedule = json.loads((workdir / SCHEDULE).read_text(encoding="utf-8"))
    for key in ("ops", "warmup"):
        schedule[key] = [
            Op(tuple(op["argv"]), op["kind"], tuple(op["files"]))
            for op in schedule[key]
        ]
    return schedule


# Input sizes per workload: "full" is what the benchmark measures, "tiny"
# is what the self-test runs.
SIZES = {
    "full": {
        "lemma-battery": {"max_vars": 2, "curated": True, "drawn": True},
        "word-diff": {"pairs": 24, "states": 500},
    },
    "tiny": {
        "lemma-battery": {"max_vars": 1, "curated": False, "drawn": False},
        "word-diff": {"pairs": 2, "states": 30},
    },
}


def spread(light: list, heavy: list) -> list:
    """Heavy items evenly spaced among light ones.

    Any prefix of the result then has about the same mix, so a run cut
    by the clock part-way through a pass still sees a representative
    share of the expensive ops.
    """
    total = len(light) + len(heavy)
    out = []
    li = hi = 0
    for pos in range(total):
        if hi < len(heavy) and pos == int((hi + 0.5) * total / len(heavy)):
            out.append(heavy[hi])
            hi += 1
        else:
            out.append(light[li])
            li += 1
    return out


# ---------------------------------------------------------------- automata


@dataclass(frozen=True)
class Table:
    """Complete DFA as plain data: rows of successor states per symbol."""

    alphabet: str
    delta: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    def accepts(self, word: str) -> bool:
        state = self.initial
        for ch in word:
            state = self.delta[state][self.alphabet.index(ch)]
        return state in self.accepting

    def text(self) -> str:
        """The ``.dfa`` file format."""
        lines = [
            "dfa v1",
            f"alphabet {self.alphabet}",
            f"states {len(self.delta)}",
            f"initial {self.initial}",
            " ".join(["accepting"] + [str(q) for q in sorted(self.accepting)]),
        ]
        lines += [f"row {q} " + " ".join(map(str, row)) for q, row in enumerate(self.delta)]
        return "\n".join(lines) + "\n"


def read_table(text: str) -> Table:
    """Read back a table written by ``Table.text``."""
    lines = [line.split() for line in text.splitlines()]
    alphabet = lines[1][1]
    delta = tuple(tuple(int(t) for t in row[2:]) for row in lines[5:])
    return Table(alphabet, delta, int(lines[3][1]), frozenset(int(q) for q in lines[4][1:]))


def random_table(rng: random.Random, states: int, alphabet: str = "ab") -> Table:
    delta = tuple(tuple(rng.randrange(states) for _ in alphabet) for _ in range(states))
    accepting = frozenset(q for q in range(states) if rng.random() < 0.5)
    return Table(alphabet, delta, rng.randrange(states), accepting)


def shortest_difference(a: Table, b: Table) -> int | None:
    """Length of a shortest word accepted by exactly one table; None if equal.

    Level-by-level search over state pairs that stops at the first pair
    with differing acceptance.
    """
    start = (a.initial, b.initial)
    if (start[0] in a.accepting) != (start[1] in b.accepting):
        return 0
    seen = {start}
    frontier = [start]
    depth = 0
    width = len(a.alphabet)
    while frontier:
        depth += 1
        nxt = []
        for s, t in frontier:
            for c in range(width):
                pair = (a.delta[s][c], b.delta[t][c])
                if pair not in seen:
                    if (pair[0] in a.accepting) != (pair[1] in b.accepting):
                        return depth
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return None


def included(a: Table, b: Table) -> bool:
    """L(a) inside L(b): no reachable pair accepted by a and rejected by b."""
    start = (a.initial, b.initial)
    seen = {start}
    stack = [start]
    width = len(a.alphabet)
    while stack:
        s, t = stack.pop()
        if s in a.accepting and t not in b.accepting:
            return False
        for c in range(width):
            pair = (a.delta[s][c], b.delta[t][c])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def _answer(out: str) -> str:
    lines = out.splitlines()
    return lines[0] if lines else ""


def check_word(a: Table, b: Table) -> Check:
    shortest = shortest_difference(a, b)

    def check(code: int, out: str) -> str | None:
        word = _answer(out)
        if shortest is None:
            return None if (code, word) == (1, "none") else f"expected none, got {word!r}"
        if code != 0:
            return f"exit {code}"
        if any(ch not in a.alphabet for ch in word):
            return f"{word!r} is not a word over {a.alphabet!r}"
        if a.accepts(word) == b.accepts(word):
            return f"{word!r} does not distinguish the pair"
        if len(word) > shortest:
            return f"{word!r} is longer than {shortest}"
        for length in range(len(word)):
            for letters in itertools.product(a.alphabet, repeat=length):
                if a.accepts("".join(letters)) != b.accepts("".join(letters)):
                    return f"shorter word {''.join(letters)!r} also distinguishes"
        return None

    return check


def check_bool(expected: bool) -> Check:
    want = (0, "true") if expected else (1, "false")

    def check(code: int, out: str) -> str | None:
        got = (code, _answer(out))
        return None if got == want else f"expected {want}, got {got}"

    return check


# ---------------------------------------------------------------- formulas


def dimacs(var_count: int, clauses) -> str:
    lines = [f"p cnf {var_count} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Read back a formula written by ``dimacs``."""
    lines = text.splitlines()
    clauses = [tuple(int(tok) for tok in line.split()[:-1]) for line in lines[1:]]
    return int(lines[0].split()[2]), clauses


def satisfied(clauses, value: dict[int, bool]) -> bool:
    return all(any(value.get(abs(lit)) == (lit > 0) for lit in clause) for clause in clauses)


def truth_table_sat(var_count: int, clauses) -> bool:
    return any(
        satisfied(clauses, dict(enumerate(bits, start=1)))
        for bits in itertools.product((False, True), repeat=var_count)
    )


def clauses_over(var_count: int) -> list[tuple[int, ...]]:
    """Every nonempty, non-tautological clause over the variables."""
    out = []
    for signs in itertools.product((0, 1, -1), repeat=var_count):
        clause = tuple(s * (i + 1) for i, s in enumerate(signs) if s)
        if clause:
            out.append(clause)
    return out


CURATED_THREE_VAR = [
    [(3,)],
    [(1, 2, 3)],
    [(1, -2), (3,)],
    [(-1,), (-2, 3)],
    [(1, 2, 3), (-1, -2)],
]


def check_lemma(var_count: int, sat: bool) -> Check:
    bound = var_count + 2

    def check(code: int, out: str) -> str | None:
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        if code != 0:
            return f"exit {code}"
        if fields.get("sat") != ("yes" if sat else "no"):
            return f"sat line {fields.get('sat')!r}, truth table says {sat}"
        if fields.get("verdict") != "CONSISTENT":
            return f"verdict {fields.get('verdict')!r}"
        if fields.get("bound") != f"k+2 = {bound}":
            return f"bound line {fields.get('bound')!r}"
        k = fields.get("min_distinguishing_k", "")
        if sat and not (k.isdigit() and 1 <= int(k) <= bound):
            return f"min_distinguishing_k {k!r} for a satisfiable formula"
        if not sat and k != "none":
            return f"min_distinguishing_k {k!r} for an unsatisfiable formula"
        return None

    return check


# ---------------------------------------------------------------- workloads


class _Inputs:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.workload = Workload()

    def file(self, name: str, text: str) -> str:
        self.workload.files[name] = text
        return str(self.workdir / name)


def _lemma_battery(rng: random.Random, b: _Inputs, size: dict) -> None:
    formulas = []
    for var_count in range(1, size["max_vars"] + 1):
        for clause_count in (1, 2):
            combos = itertools.product(clauses_over(var_count), repeat=clause_count)
            formulas += [(var_count, list(c)) for c in combos]
    if size["curated"]:
        formulas += [(3, c) for c in CURATED_THREE_VAR]
    # One drawn formula with one clause and one with two, so that every
    # seed gives a pass the same mix: a two-clause formula costs the
    # search more than a one-clause one.
    for clause_count in (1, 2) if size["drawn"] else ():
        clauses = rng.sample(clauses_over(3), clause_count)
        while not truth_table_sat(3, clauses):
            clauses = rng.sample(clauses_over(3), clause_count)
        formulas.append((3, clauses))
    light, heavy = [], []
    for i, (var_count, clauses) in enumerate(formulas):
        sat = truth_table_sat(var_count, clauses)
        path = b.file(f"f{i:03d}.cnf", dimacs(var_count, clauses))
        op = Op(("verify-lemma", path), "lemma", (path,))
        # synthesis has to refute every bound below k+2: these dominate
        (heavy if var_count == 3 or not sat else light).append(op)
    b.workload.ops = spread(light, heavy)
    path = b.file("warm.cnf", dimacs(1, [(1,)]))
    b.workload.warmup = [Op(("verify-lemma", path), "lemma", (path,))]


# The bundled example pair: a shortest separating word of seven letters.
EXAMPLE_A = Table("a", ((1,), (2,), (3,), (0,)), 0, frozenset({1, 2, 3}))
EXAMPLE_B = Table("a", ((1,), (2,), (3,), (4,), (2,)), 0, frozenset({1, 2, 3}))


def _pair_ops(b: _Inputs, tag: str, a: Table, other: Table) -> list[Op]:
    pa, pb = b.file(f"{tag}a.dfa", a.text()), b.file(f"{tag}b.dfa", other.text())
    return [
        Op(("word", pa, pb), "word", (pa, pb)),
        Op(("check", "subset", pa, pb), "subset", (pa, pb)),
        Op(("check", "subset", pb, pa), "subset", (pb, pa)),
    ]


def _word_diff(rng: random.Random, b: _Inputs, size: dict) -> None:
    pa, pb = b.file("exa.dfa", EXAMPLE_A.text()), b.file("exb.dfa", EXAMPLE_B.text())
    example = Op(("word", pa, pb), "word", (pa, pb))
    for i in range(size["pairs"]):
        a, other = random_table(rng, size["states"]), random_table(rng, size["states"])
        b.workload.ops += _pair_ops(b, f"p{i:02d}", a, other)
        if i % 4 == 3:
            b.workload.ops.append(example)
    warm = random_table(rng, 8), random_table(rng, 8)
    b.workload.warmup = _pair_ops(b, "warm", *warm) + [example]


BUILDERS = {
    "lemma-battery": _lemma_battery,
    "word-diff": _word_diff,
}


def build(workload: str, seed: int, workdir: Path, sizes: str = "full") -> Workload:
    """Inputs and schedule for one workload; depends only on the seed."""
    b = _Inputs(workdir)
    BUILDERS[workload](random.Random(f"{workload}/{seed}"), b, SIZES[sizes][workload])
    return b.workload


class Checker:
    """Builds each op's check from its input files, reading each file once."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def _table(self, path: str) -> Table:
        if path not in self._tables:
            self._tables[path] = read_table(Path(path).read_text(encoding="utf-8"))
        return self._tables[path]

    def check(self, op: Op) -> Check:
        if op.kind == "lemma":
            var_count, clauses = read_dimacs(Path(op.files[0]).read_text(encoding="utf-8"))
            return check_lemma(var_count, truth_table_sat(var_count, clauses))
        tables = [self._table(path) for path in op.files]
        if op.kind == "word":
            return check_word(*tables)
        if op.kind == "subset":
            return check_bool(included(*tables))
        raise ValueError(f"unknown check kind {op.kind!r}")


if __name__ == "__main__":
    name, seed, workdir, *size = sys.argv[1:]
    build(name, int(seed), Path(workdir), *size).write(Path(workdir))
